"""On-disk formats: dataset/prediction record lines, matrix containers, decode reports.

Datasets and predictions are line-delimited JSON, one self-contained record
per line with an explicit schema version.  Clip-by-column matrices
(concept similarities, summarisation features) have a plain-text form and a
compact binary form; both are specified bit-for-bit in docs/formats.md.
Records are read and written in canonical (video_id, query_id) order
(``_Record.sort_key``), matrices in video_id order, so no caller sorts them.
Writers emit sorted keys, so identical inputs serialise to identical bytes,
and hand their complete bytes, as a list of parts, to ``_write_file``.
A file holds each (video_id, query_id), or for matrices each video_id,
once: readers and writers alike refuse a repeat.  A read error names the file.
"""
from __future__ import annotations

import json
import os
import stat
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (_JSON_TYPES, _SOURCE_KIND, ClipTimeline, Interval, PredictionSet, Query,
                   UnifiedLabel, _check_clips, _check_type, _checked_array, _checked_number,
                   _concept_sets, _one_of)
from .labels import CurveAnnotation, PointAnnotation, _check_inside

SCHEMA_VERSION = 1
_SCHEMA_VERSION = _one_of((SCHEMA_VERSION,))
_ON_ERROR = _one_of(("raise", "skip"))
MATRIX_MAGIC = b"TGMX"
MATRIX_TEXT_HEADER = "# tgkit-matrix v1"


# source_kind -> (its annotation key, JSON value -> annotation, annotation -> JSON value,
#                 whether an annotation is of that kind, what it must be)
_ANNOTATIONS = {
    "point": ("points", PointAnnotation, lambda a: list(a.timestamps),
              lambda a: isinstance(a, PointAnnotation), "a PointAnnotation"),
    "interval": ("intervals", lambda v: [Interval(*_checked_array("interval", iv, (2,)))
                                         for iv in v],
                 lambda a: [[iv.start, iv.end] for iv in a],
                 lambda a: isinstance(a, (list, tuple)) and all(isinstance(i, Interval) for i in a),
                 "a list of Interval"),
    "curve": ("curve", CurveAnnotation, lambda a: a.values.tolist(),
              lambda a: isinstance(a, CurveAnnotation), "a CurveAnnotation"),
}

# the fields every record line starts with, each with its JSON value type
_HEAD = {"video_id": str, "query_id": str, "duration": float, "clip_len": float}

# what eval reads from a decoded result, by task: (key, check on each entry, what it must be)
_RESULT_ENTRIES = {
    "moments": ("moments",
                lambda m: isinstance(m, dict) and all(_JSON_TYPES[float][0](m.get(k))
                                                      for k in ("start", "end", "score")),
                "an object with numeric start, end and score"),
    "highlights": ("clip_scores", *_JSON_TYPES[float]),
    "summary": ("selected_clips", _JSON_TYPES[int][0], "an integer clip index"),
}


@dataclass
class _Record:
    """The (video, query) fields every JSONL record line starts with."""

    video_id: str
    query_id: str
    duration: float
    clip_len: float

    def timeline(self) -> ClipTimeline:
        return ClipTimeline.from_duration(self.duration, self.clip_len)

    def sort_key(self) -> tuple:
        return (self.video_id, self.query_id)


@dataclass
class DatasetRecord(_Record):
    """One (video, query) line of a dataset file."""

    query: Query
    source_kind: str
    annotation: object = None  # list[Interval] | PointAnnotation | CurveAnnotation
    label: UnifiedLabel | None = None
    clip_concepts: tuple | None = None  # per-clip concept sets, summaries only


@dataclass
class PredictionRecord(_Record):
    """One (video, query) line of a predictions file."""

    prediction: PredictionSet


@dataclass
class MatrixRecord:
    """Named clip-by-column matrix for one video."""

    video_id: str
    clip_len: float
    column_names: tuple
    values: np.ndarray

    def timeline(self) -> ClipTimeline:
        return ClipTimeline(self.values.shape[0], self.clip_len)


def _head_to_obj(record: _Record) -> dict:
    """The schema version and the common fields that every record line starts with."""
    return {"schema_version": SCHEMA_VERSION, **{key: getattr(record, key) for key in _HEAD}}


def _head_from_obj(obj, required: tuple) -> dict:
    """The common fields of a record line as they stand; the record's check checks them.

    The line must be a JSON object of this schema version, the integer 1,
    that holds the common fields and the ``required`` ones.
    """
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
    _checked_number("schema_version", obj.get("schema_version"), int, _SCHEMA_VERSION)
    missing = [key for key in (*_HEAD, *required) if key not in obj]
    if missing:
        raise ValueError(f"record is missing fields {missing}")
    return {key: obj[key] for key in _HEAD}


def _fields(obj: dict, key: str, names: tuple) -> dict:
    """The ``names`` fields of ``obj[key]``, which must be a JSON object holding them."""
    value = obj[key]
    if not isinstance(value, dict):
        got = type(value).__name__
    elif missing := [name for name in names if name not in value]:
        got = f"one without {', '.join(missing)}"
    else:
        return {name: value[name] for name in names}
    raise ValueError(
        f"{key} must be an object holding {', '.join(names[:-1])} and {names[-1]}, got {got}")


def _checked_timeline(record: _Record) -> ClipTimeline:
    """The record's timeline, once each common field holds a value of its JSON type."""
    for key, kind in _HEAD.items():
        _check_type(key, getattr(record, key), _JSON_TYPES[kind])
    return record.timeline()


def _annotation_to_obj(annotation, source_kind: str) -> dict | None:
    if annotation is None:
        return None
    key, _, dump, _, _ = _ANNOTATIONS[source_kind]
    return {key: dump(annotation)}


def _annotation_from_obj(obj, source_kind: str):
    """Parse an annotation, which holds exactly one key: the one its kind names."""
    if obj is None:
        return None
    key, parse, _, _, _ = _ANNOTATIONS[source_kind]
    if not isinstance(obj, dict) or list(obj) != [key]:
        got = sorted(obj) if isinstance(obj, dict) else type(obj).__name__
        raise ValueError(
            f"annotation of source_kind {source_kind!r} must hold exactly the key {key!r}, "
            f"got {got}"
        )
    return parse(obj[key])


def dataset_record_to_obj(record: DatasetRecord) -> dict:
    obj = {
        **_head_to_obj(record),
        "query": {"text": record.query.text, "kind": record.query.kind},
        "source_kind": record.source_kind,
        "annotation": _annotation_to_obj(record.annotation, record.source_kind),
        "label": None,
        "clip_concepts": None,
    }
    if record.label is not None:
        obj["label"] = {
            "foreground": record.label.foreground.tolist(),
            "offsets": record.label.offsets.tolist(),
            "saliency": record.label.saliency.tolist(),
        }
    if record.clip_concepts is not None:
        obj["clip_concepts"] = [sorted(c) for c in record.clip_concepts]
    return obj


def dataset_record_from_obj(obj: dict) -> DatasetRecord:
    head = _head_from_obj(obj, ("query", "source_kind"))
    query = Query(**_fields(obj, "query", ("text", "kind")))
    lab = obj.get("label")
    label = None if lab is None else UnifiedLabel(
        **_fields(obj, "label", ("foreground", "offsets", "saliency")))
    record = _check_dataset_record(DatasetRecord(
        **head, query=query, source_kind=obj["source_kind"], label=label,
        clip_concepts=obj.get("clip_concepts")))
    record.annotation = _annotation_from_obj(obj.get("annotation"), record.source_kind)
    record.duration, record.clip_len = float(record.duration), float(record.clip_len)
    if record.annotation is not None:
        _check_inside(record.timeline(), record.annotation, record.duration)
    return record


def _check_dataset_record(record: DatasetRecord) -> DatasetRecord:
    """What a dataset record must satisfy; readers and writers both check it.

    Returns the record, or, when it has concepts, a copy holding them as
    ``core._concept_sets`` gives them; the input is left as it was.  A reader
    parses the annotation after this check, by the checked source_kind, and
    then checks that it stays inside its video (``labels._check_inside``).
    """
    _checked_number("source_kind", record.source_kind, str, _SOURCE_KIND)
    *_, accepts, kind = _ANNOTATIONS[record.source_kind]
    if record.annotation is not None and not accepts(record.annotation):
        raise ValueError(f"annotation of source_kind {record.source_kind!r} must be {kind}, "
                         f"got {type(record.annotation).__name__}")
    timeline = _checked_timeline(record)  # a bad head fails here, labelled or not
    if record.annotation is not None:
        _check_inside(timeline, record.annotation, record.duration)
    if record.label is not None:
        _check_clips(timeline, "label", len(record.label))
    if record.clip_concepts is not None:
        concepts = tuple(_concept_sets(record.clip_concepts))
        _check_clips(timeline, "clip_concepts", len(concepts))
        record = replace(record, clip_concepts=concepts)
    return record


def parse_json(text):
    """Parse one JSON document.

    Malformed JSON raises ``json.JSONDecodeError``, a ``ValueError``; so does
    nesting too deep for the parser, which would otherwise escape as a
    ``RecursionError``.
    """
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON is nested too deeply") from None


def read_json(path):
    """The one JSON document in ``path``; an error decoding or parsing it names the file."""
    try:
        return parse_json(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _unique(keys, what: str) -> None:
    """Refuse the first key that repeats an earlier one; ``what`` names the keys."""
    seen = set()
    for key in keys:
        if key in seen:
            raise ValueError(f"{what} {key!r} appears more than once")
        seen.add(key)


def _read_jsonl(path, parse, on_error: str):
    """The records of a JSONL file, in key order, and its skipped lines; a line's error names it."""
    _checked_number("on_error", on_error, str, _ON_ERROR)
    records = []
    errors = []
    first_line = {}  # (video_id, query_id) -> the line that holds it
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                # a byte that is not UTF-8 reads as a surrogate; decoding the line again names it
                if not line.isascii():
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                record = parse(parse_json(line))
                key = record.sort_key()
                if first_line.setdefault(key, line_no) != line_no:
                    raise ValueError(f"(video_id, query_id) {key!r} repeats line {first_line[key]}")
                records.append(record)
            # OverflowError: a JSON integer too large for a float
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                if on_error == "raise":
                    raise ValueError(f"{path}:{line_no}: {exc}") from exc
                errors.append((line_no, str(exc)))
    return sorted(records, key=_Record.sort_key), errors


def _write_file(path, parts: Sequence[bytes]) -> None:
    """Make the bytes ``parts``, in order, the whole content of ``path``, rewriting it in place.

    A writer hands its complete bytes as a list of parts (a JSONL writer one
    encoded line per record), so it never holds them joined a second time.
    Each part takes at least one ``os.write``, so small pieces go joined.
    The file is opened without truncation (an existing file keeps its inode
    and mode, a symlink is written through) and cut to the parts' total
    length only when it was longer.  Truncating to zero first would make
    ext4 (``auto_da_alloc``) flush the file to disk on close, tens of
    milliseconds per rewrite whatever its size.  Pipes and devices report
    size 0, so they are never truncated.  If a write fails, a regular file
    is emptied, so old and new bytes are never left mixed.
    """
    size = sum(map(len, parts))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        st = os.fstat(fd)
        try:
            for part in parts:
                view = memoryview(part)
                while view:
                    view = view[os.write(fd, view):]
        except BaseException as exc:
            if stat.S_ISREG(st.st_mode):
                os.ftruncate(fd, 0)
            if isinstance(exc, OSError) and exc.filename is None:
                exc.filename = os.fspath(path)  # os.write's errors name no file
            raise
        if st.st_size > size:
            os.ftruncate(fd, size)
    finally:
        os.close(fd)


def _write_jsonl(path, records: Sequence[_Record], to_obj) -> None:
    """One compact, sorted-key line per record, in canonical (video_id, query_id) order."""
    ordered = sorted(records, key=_Record.sort_key)
    _unique((r.sort_key() for r in ordered), "(video_id, query_id)")
    _write_file(path, [
        (json.dumps(to_obj(record), sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")
        for record in ordered
    ])


def read_dataset(path, on_error: str = "raise"):
    """Parse a dataset file; returns (records in key order, [(line, message), ...])."""
    return _read_jsonl(path, dataset_record_from_obj, on_error)


def write_dataset(records: Sequence[DatasetRecord], path) -> None:
    # every record is checked before the file is opened
    _write_jsonl(path, [_check_dataset_record(r) for r in records], dataset_record_to_obj)


def prediction_record_to_obj(record: PredictionRecord) -> dict:
    return {
        **_head_to_obj(record),
        "foreground_logits": record.prediction.foreground_logits.tolist(),
        "offsets": record.prediction.offsets.tolist(),
        "saliency": record.prediction.saliency.tolist(),
    }


def prediction_record_from_obj(obj: dict) -> PredictionRecord:
    head = _head_from_obj(obj, ("foreground_logits", "offsets", "saliency"))
    pred = PredictionSet(obj["foreground_logits"], obj["offsets"], obj["saliency"])
    record = _check_prediction_record(PredictionRecord(**head, prediction=pred))
    record.duration, record.clip_len = float(record.duration), float(record.clip_len)
    return record


def _check_prediction_record(record: PredictionRecord) -> PredictionRecord:
    """What a prediction record must satisfy; readers and writers both check it."""
    _check_clips(_checked_timeline(record), "prediction", len(record.prediction))
    return record


def read_predictions(path, on_error: str = "raise"):
    """Parse a predictions file; returns (records in key order, [(line, message), ...])."""
    return _read_jsonl(path, prediction_record_from_obj, on_error)


def write_predictions(records: Sequence[PredictionRecord], path) -> None:
    # every record is checked before the file is opened
    _write_jsonl(path, [_check_prediction_record(r) for r in records], prediction_record_to_obj)


def _checked_matrix(record: MatrixRecord) -> MatrixRecord:
    """A checked copy of ``record``: finite float64 values, a str id and names, a float clip_len.

    The readers and both writers check every record with it; ``record`` itself
    is left as it was.
    """
    values = _checked_array(f"matrix for video {record.video_id!r}", record.values, (None, None))
    names = tuple(str(c) for c in record.column_names)
    if len(names) != values.shape[1]:
        raise ValueError(f"{len(names)} column names for {values.shape[1]} columns")
    timeline = ClipTimeline(values.shape[0], record.clip_len)  # owns clip_len and the row bound
    return MatrixRecord(str(record.video_id), timeline.clip_len, names, values)


def _checked_matrices(records: Sequence[MatrixRecord]) -> list[MatrixRecord]:
    """What a matrix writer writes: every record checked, in video_id order, each id once."""
    ordered = [_checked_matrix(r) for r in sorted(records, key=lambda r: r.video_id)]
    _unique((r.video_id for r in ordered), "video id")
    return ordered


def _text_field(value: str, what: str) -> str:
    """``value`` as one field of the text encoding, or a ``ValueError`` that names it.

    That encoding splits lines as ``str.splitlines`` does and fields at tabs;
    the binary encoding carries any string.
    """
    if "\t" in value or "".join(value.splitlines()) != value:
        raise ValueError(f"{what} {value!r} holds a tab or line break, which the text matrix "
                         "encoding cannot carry; write the binary encoding instead")
    return value


def write_matrices_text(records: Sequence[MatrixRecord], path) -> None:
    lines = [MATRIX_TEXT_HEADER]
    for record in _checked_matrices(records):
        lines.append("video\t%s\t%r" % (_text_field(record.video_id, "video id"), record.clip_len))
        lines.append("\t".join(["columns", *(_text_field(name, "column name")
                                             for name in record.column_names)]))
        lines += ("\t".join(repr(float(v)) for v in row) for row in record.values)
        lines.append("")
    _write_file(path, [("\n".join(lines) + "\n").encode("utf-8")])


def _line_floats(fields, line: int) -> list[float]:
    """The text ``fields`` of line ``line`` as floats; an error names the line."""
    try:
        return [float(v) for v in fields]
    except ValueError as exc:
        raise ValueError(f"line {line}: {exc}") from None


def _parse_text_matrices(text: str) -> list[MatrixRecord]:
    lines = text.splitlines()
    if not lines or lines[0].strip() != MATRIX_TEXT_HEADER:
        raise ValueError(f"matrix text file must start with {MATRIX_TEXT_HEADER!r}")
    records = []
    i = 1
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        head = lines[i].split("\t")
        if head[0] != "video" or len(head) != 3:
            raise ValueError(f"line {i + 1}: expected 'video\\t<id>\\t<clip_len>'")
        video_id, (clip_len,) = head[1], _line_floats(head[2:], i + 1)
        i += 1
        if i >= len(lines) or not lines[i].startswith("columns\t"):
            raise ValueError(f"line {i + 1}: expected a 'columns' line")
        names = tuple(lines[i].split("\t")[1:])
        i += 1
        rows = []
        while i < len(lines) and lines[i].strip() and not lines[i].startswith("video\t"):
            fields = lines[i].split("\t")
            if len(fields) != len(names):
                raise ValueError(f"line {i + 1}: {len(fields)} field(s) under {len(names)} "
                                 "column(s)")
            rows.append(_line_floats(fields, i + 1))
            i += 1
        if not rows:
            raise ValueError(f"matrix for video {video_id!r} has no rows")
        records.append(_checked_matrix(MatrixRecord(video_id, clip_len, names, np.asarray(rows))))
    return records


def write_matrices_binary(records: Sequence[MatrixRecord], path) -> None:
    ordered = _checked_matrices(records)
    parts = [MATRIX_MAGIC + struct.pack("<II", 1, len(ordered))]
    for record in ordered:
        vid = record.video_id.encode("utf-8")
        rows, cols = record.values.shape
        head = [struct.pack("<I", len(vid)), vid, struct.pack("<dII", record.clip_len, rows, cols)]
        for name in record.column_names:
            raw = name.encode("utf-8")
            head += [struct.pack("<I", len(raw)), raw]
        with np.errstate(over="ignore"):
            values = record.values.astype("<f4")
        if not np.isfinite(values).all():
            raise ValueError(
                f"matrix for video {record.video_id!r} holds a value float32 cannot hold")
        parts += [b"".join(head), values.tobytes(order="C")]
    _write_file(path, parts)


def _parse_binary_matrices(raw: bytes) -> list[MatrixRecord]:
    view = memoryview(raw)
    pos = 0

    def take(size: int, what: str) -> memoryview:
        # every read is bounds-checked so a cut container fails closed
        nonlocal pos
        if size > len(raw) - pos:
            raise ValueError(
                f"truncated matrix container: {what} at byte offset {pos} needs "
                f"{size} byte(s), {len(raw) - pos} left"
            )
        pos += size
        return view[pos - size:pos]

    def unpack(fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt), what))

    take(4, "magic bytes")  # read_matrices has matched them
    version, count = unpack("<II", "container header")
    if version != 1:
        raise ValueError(f"unsupported matrix container version {version}")
    records = []
    for _ in range(count):
        (id_len,) = unpack("<I", "video id length")
        video_id = bytes(take(id_len, "video id")).decode("utf-8")
        clip_len, rows, cols = unpack("<dII", "matrix header")
        names = []
        for _ in range(cols):
            (name_len,) = unpack("<I", "column name length")
            names.append(bytes(take(name_len, "column name")).decode("utf-8"))
        values = np.frombuffer(take(rows * cols * 4, "matrix values"), dtype="<f4")
        records.append(_checked_matrix(
            MatrixRecord(video_id, clip_len, tuple(names), values.reshape(rows, cols))))
    if pos != len(raw):
        raise ValueError(f"{len(raw) - pos} trailing bytes after the last matrix")
    return records


def read_matrices(path) -> list[MatrixRecord]:
    """Parse a matrix container, sniffing text vs binary by the magic bytes; each id once.

    Returns the matrices in video_id order.  Every error names ``path``.
    """
    raw = Path(path).read_bytes()
    try:
        if raw[:4] == MATRIX_MAGIC:
            records = _parse_binary_matrices(raw)
        else:
            records = _parse_text_matrices(raw.decode("utf-8"))
        _unique((r.video_id for r in records), "video id")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return sorted(records, key=lambda r: r.video_id)


def write_json_report(obj: dict, path) -> None:
    _write_file(path, [(json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")])


def _misfit(task: str, entries: list, timeline: ClipTimeline) -> str | None:
    """What puts a result's checked entries off its video's clip grid, or None when they fit.

    A moment satisfies 0 <= start <= end <= ``timeline.duration``, the grid end
    that ``decode_moments`` clamps to; ``clip_scores`` holds one score per clip;
    a selected clip lies in [0, num_clips).
    """
    n = timeline.num_clips
    if task == "highlights":
        return None if len(entries) == n else (
            f"clip_scores covers {len(entries)} clips but the timeline has {n}")
    for j, entry in enumerate(entries):
        if task == "moments" and not 0 <= entry["start"] <= entry["end"] <= timeline.duration:
            return (f"moments[{j}] from {entry['start']!r} to {entry['end']!r} must satisfy "
                    f"0 <= start <= end <= {timeline.duration!r}")
        if task == "summary" and not 0 <= entry < n:
            return f"selected_clips[{j}] is {entry}, outside [0, {n})"
    return None


def read_decode_report(path, task: str, timelines: dict) -> list:
    """The results of a ``task`` decode report, one per key of ``timelines``, in key order.

    ``timelines`` maps each truth record's (video_id, query_id) to its clip grid.
    Each key needs one result of the shape eval reads that fits its grid; an
    error names ``path`` and, where there is one, the result and its ids.
    """
    report = read_json(path)
    if not isinstance(report, dict) or not isinstance(report.get("results"), list):
        raise ValueError(f"{path}: a decode report is an object holding a 'results' list")
    if report.get("task") != task:
        raise ValueError(
            f"{path}: predictions were decoded for task {report.get('task')!r}, not {task!r}")
    key, accepts, kind = _RESULT_ENTRIES[task]
    first = {}  # (video_id, query_id) -> the index of the result that holds it
    for i, result in enumerate(report["results"]):
        where = f"{path}: results[{i}]"
        if not (isinstance(result, dict) and isinstance(result.get("video_id"), str)
                and isinstance(result.get("query_id"), str)):
            raise ValueError(f"{where} must be an object with string video_id and query_id")
        ids = (result["video_id"], result["query_id"])
        named = f" (video_id {ids[0]!r}, query_id {ids[1]!r})"
        if first.setdefault(ids, i) != i:
            raise ValueError(f"{where}: duplicate (video_id, query_id) pairs in the decode "
                             f"report; results[{first[ids]}] holds the first{named}")
        if not isinstance(result.get(key), list):
            raise ValueError(f"{where} needs a list {key!r}{named}")
        for j, entry in enumerate(result[key]):
            if not accepts(entry):
                raise ValueError(f"{where}.{key}[{j}] must be {kind}{named}")
        misfit = _misfit(task, result[key], timelines[ids]) if ids in timelines else None
        if misfit is not None:
            raise ValueError(f"{where}.{misfit}{named}")
    unpaired = [(what, sorted(keys)) for what, keys in (
        ("truth records without predictions", timelines.keys() - first.keys()),
        ("predictions without truth records", first.keys() - timelines.keys())) if keys]
    if unpaired:
        raise ValueError(f"{path}: " + "; ".join(f"{what}: {keys}" for what, keys in unpaired))
    return [report["results"][first[k]] for k in sorted(timelines)]
