import dataclasses
import errno
import json
import math
import os
import re
import stat
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tgkit import formats
from tgkit.config import RunConfig
from tgkit.core import MAX_CLIPS, ClipTimeline, Interval, PredictionSet, Query
from tgkit.formats import (
    MATRIX_MAGIC,
    MATRIX_TEXT_HEADER,
    SCHEMA_VERSION,
    DatasetRecord,
    MatrixRecord,
    PredictionRecord,
    dataset_record_from_obj,
    dataset_record_to_obj,
    prediction_record_to_obj,
    read_dataset,
    read_decode_report,
    read_matrices,
    read_predictions,
    write_dataset,
    write_json_report,
    write_matrices_binary,
    write_matrices_text,
    write_predictions,
)
from tgkit.labels import CurveAnnotation, PointAnnotation, from_intervals
from tgkit.synth import toy_corpus


def interval_record(video_id="v1", query_id="q1", num_clips=4, clip_len=2.0):
    timeline_duration = num_clips * clip_len
    intervals = [Interval(clip_len, 3 * clip_len)]
    label = from_intervals(ClipTimeline(num_clips, clip_len), intervals)
    return DatasetRecord(
        video_id=video_id,
        query_id=query_id,
        duration=timeline_duration,
        clip_len=clip_len,
        query=Query("a person opens a door", "sentence"),
        source_kind="interval",
        annotation=intervals,
        label=label,
    )


def point_record(video_id="v2", query_id="q1"):
    return DatasetRecord(
        video_id=video_id,
        query_id=query_id,
        duration=8.0,
        clip_len=2.0,
        query=Query("door", "keywords"),
        source_kind="point",
        annotation=PointAnnotation((1.0, 5.0)),
    )


def curve_record(video_id="v3", query_id="q1"):
    return DatasetRecord(
        video_id=video_id,
        query_id=query_id,
        duration=8.0,
        clip_len=2.0,
        query=Query("door", "concept"),
        source_kind="curve",
        annotation=CurveAnnotation(np.array([0.1, 0.9, 0.8, 0.2])),
    )


def matrix_records():
    rng = np.random.default_rng(3)
    return [
        MatrixRecord("vb", 2.0, ("c0", "c1"), rng.uniform(0, 1, (5, 2))),
        MatrixRecord("va", 1.5, ("c0", "c1", "c2"), rng.uniform(0, 1, (3, 3))),
    ]


class TestDatasetRoundTrip:
    def test_preserves_all_fields(self, tmp_path):
        path = tmp_path / "data.jsonl"
        records = [interval_record(), point_record(), curve_record()]
        write_dataset(records, path)
        back, errors = read_dataset(path)
        assert errors == []
        assert [r.video_id for r in back] == ["v1", "v2", "v3"]
        first = back[0]
        assert first.query.text == "a person opens a door"
        assert first.source_kind == "interval"
        assert [iv.start for iv in first.annotation] == [2.0]
        assert first.label.equals(records[0].label)
        assert back[1].annotation.timestamps == (1.0, 5.0)
        np.testing.assert_allclose(back[2].annotation.values, [0.1, 0.9, 0.8, 0.2])

    def test_canonical_sort_order(self, tmp_path):
        path = tmp_path / "data.jsonl"
        records = [
            interval_record("vb", "q2"),
            interval_record("vb", "q1"),
            interval_record("va", "q9"),
        ]
        write_dataset(records, path)
        back, _ = read_dataset(path)
        assert [(r.video_id, r.query_id) for r in back] == [
            ("va", "q9"),
            ("vb", "q1"),
            ("vb", "q2"),
        ]

    def test_write_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        records = [interval_record(), curve_record()]
        write_dataset(records, a)
        write_dataset(list(reversed(records)), b)
        assert a.read_bytes() == b.read_bytes()

    def test_concepts_round_trip(self, tmp_path):
        rec = interval_record()
        rec.clip_concepts = (
            frozenset({"dog", "park"}),
            frozenset(),
            frozenset({"car"}),
            frozenset({"dog"}),
        )
        path = tmp_path / "data.jsonl"
        write_dataset([rec], path)
        back, _ = read_dataset(path)
        assert back[0].clip_concepts == rec.clip_concepts

    def test_runs_of_equal_concept_lists_share_one_set(self, tmp_path):
        rec = interval_record()
        obj = dataset_record_to_obj(rec)
        obj["clip_concepts"] = [["dog", "park"], ["dog", "park"], ["park", "dog"], []]
        back = dataset_record_from_obj(obj)
        assert back.clip_concepts == ({"dog", "park"},) * 3 + (set(),)
        assert back.clip_concepts[0] is back.clip_concepts[1]
        path = tmp_path / "data.jsonl"
        write_dataset([back], path)
        assert json.loads(path.read_text())["clip_concepts"] == [["dog", "park"]] * 3 + [[]]

    @pytest.mark.parametrize("concepts", [["dog", "car", "dog", "park"], [[1], [1], [1], [1]]],
                             ids=["strings", "numbers"])
    def test_concepts_other_than_lists_of_strings_refused(self, tmp_path, concepts):
        # a clip's string would read as the set of its characters, a number as its str()
        rec = dataclasses.replace(interval_record(), clip_concepts=tuple(concepts))
        path = tmp_path / "data.jsonl"
        with pytest.raises(ValueError, match="concepts must be a list of strings"):
            write_dataset([rec], path)
        assert not path.exists()
        path.write_text(json.dumps({**dataset_record_to_obj(interval_record()),
                                    "clip_concepts": concepts}) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: a clip's concepts"):
            read_dataset(path)

    def test_grid_duration_keeps_its_clips(self, tmp_path):
        # 43 * 0.1 = 4.3, and int(4.3 / 0.1) is 42
        (rec,) = toy_corpus(1, 43, 0.1)
        path = tmp_path / "data.jsonl"
        write_dataset([rec], path)
        (back,), _ = read_dataset(path)
        assert back.timeline().num_clips == 43 and back.label.equals(rec.label)


class TestDatasetErrors:
    def write_lines(self, tmp_path, lines):
        path = tmp_path / "data.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def good_line(self, query_id="q1"):
        return json.dumps(dataset_record_to_obj(point_record(query_id=query_id)))

    def test_wrong_schema_version(self, tmp_path):
        obj = dataset_record_to_obj(point_record())
        obj["schema_version"] = 99
        path = self.write_lines(tmp_path, [json.dumps(obj)])
        with pytest.raises(ValueError, match="schema_version"):
            read_dataset(path)

    def test_missing_field(self, tmp_path):
        obj = dataset_record_to_obj(point_record())
        del obj["duration"]
        path = self.write_lines(tmp_path, [json.dumps(obj)])
        with pytest.raises(ValueError, match="missing"):
            read_dataset(path)

    def test_unknown_source_kind(self):
        obj = dataset_record_to_obj(point_record())
        obj["source_kind"] = "screenplay"
        with pytest.raises(ValueError, match="source_kind"):
            dataset_record_from_obj(obj)

    def test_label_length_mismatch(self):
        obj = dataset_record_to_obj(interval_record(num_clips=4))
        obj["duration"] = 100.0
        with pytest.raises(ValueError, match="clips"):
            dataset_record_from_obj(obj)

    def test_error_carries_line_number(self, tmp_path):
        path = self.write_lines(tmp_path, [self.good_line(), "{\"schema_version\": 1}"])
        with pytest.raises(ValueError, match=":2:"):
            read_dataset(path)

    def test_skip_collects_line_numbers(self, tmp_path):
        bad = json.dumps({"schema_version": 99})
        path = self.write_lines(tmp_path, [self.good_line(), bad, self.good_line("q2")])
        records, errors = read_dataset(path, on_error="skip")
        assert len(records) == 2
        assert [line for line, _ in errors] == [2]
        assert "schema_version" in errors[0][1]

    def test_bad_on_error_value(self, tmp_path):
        path = self.write_lines(tmp_path, [self.good_line()])
        with pytest.raises(ValueError):
            read_dataset(path, on_error="ignore")

    def test_blank_lines_skipped(self, tmp_path):
        path = self.write_lines(tmp_path, [self.good_line(), "", self.good_line("q2")])
        records, errors = read_dataset(path)
        assert len(records) == 2 and errors == []


class TestPredictionRoundTrip:
    def record(self, video_id="v1", query_id="q1", n=4):
        rng = np.random.default_rng(0)
        pred = PredictionSet(
            rng.normal(size=n), rng.normal(size=(n, 2)), rng.uniform(-1, 1, n)
        )
        return PredictionRecord(video_id, query_id, n * 2.0, 2.0, pred)

    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        rec = self.record()
        write_predictions([rec], path)
        back, errors = read_predictions(path)
        assert errors == []
        got = back[0]
        assert (got.video_id, got.query_id) == ("v1", "q1")
        np.testing.assert_array_equal(
            got.prediction.foreground_logits, rec.prediction.foreground_logits
        )
        np.testing.assert_array_equal(got.prediction.offsets, rec.prediction.offsets)
        np.testing.assert_array_equal(got.prediction.saliency, rec.prediction.saliency)

    def test_sorted_and_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        recs = [self.record("vb"), self.record("va")]
        write_predictions(recs, a)
        write_predictions(list(reversed(recs)), b)
        assert a.read_bytes() == b.read_bytes()
        back, _ = read_predictions(a)
        assert [r.video_id for r in back] == ["va", "vb"]

    def test_length_mismatch_rejected(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        rec = self.record()
        write_predictions([rec], path)
        obj = json.loads(path.read_text())
        obj["duration"] = 100.0
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ValueError, match="clips"):
            read_predictions(path)


def _read_from(tmp_path, read, *args):
    """``read(*args)`` run from inside ``tmp_path``, so errors name a file by its bare name."""
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return read(*args)
    finally:
        os.chdir(cwd)


def _read_text_matrices(tmp_path, body):
    """Read ``body`` after the text header, as ``m.txt``."""
    (tmp_path / "m.txt").write_text(MATRIX_TEXT_HEADER + "\n" + body, encoding="utf-8")
    return _read_from(tmp_path, read_matrices, "m.txt")


def _read_binary_matrix(tmp_path, value: bytes):
    """Read, as ``m.tgmx``, video 'v''s one-value binary matrix holding the float32 ``value``."""
    write_matrices_binary([MatrixRecord("v", 1.0, ("a",), np.zeros((1, 1)))], tmp_path / "m.tgmx")
    (tmp_path / "m.tgmx").write_bytes((tmp_path / "m.tgmx").read_bytes()[:-4] + value)
    return _read_from(tmp_path, read_matrices, "m.tgmx")


def _read_one_result(tmp_path, task, key, entries):
    """Read a ``task`` report holding one result for ('v', 'q') on a 4-clip grid of 1 s clips.

    The report is opened as ``r.json`` from inside ``tmp_path``, so errors name that path.
    """
    (tmp_path / "r.json").write_text(json.dumps(
        {"task": task, "results": [{"video_id": "v", "query_id": "q", key: entries}]}))
    return _read_from(tmp_path, read_decode_report, "r.json", task,
                      {("v", "q"): ClipTimeline(4, 1.0)})


def _read_line_with(tmp_path, read, key, value, record=None):
    """Read, as ``r.jsonl``, one good record line for ``read`` with ``key`` set to ``value``.

    The line is ``record``'s if given, else a default record's.
    """
    to_obj, default = ((dataset_record_to_obj, interval_record()) if read is read_dataset
                       else (prediction_record_to_obj, _prediction("v1", 8.0, 4)))
    record = default if record is None else record
    (tmp_path / "r.jsonl").write_text(json.dumps({**to_obj(record), key: value}) + "\n")
    return _read_from(tmp_path, read, "r.jsonl")


# a line whose byte 14 is not UTF-8, and what the JSONL readers say of it
_NOT_UTF8 = b'{"video_id": "\xff"}'
_UNDECODABLE = "'utf-8' codec can't decode byte 0xff in position 14: invalid start byte"


def _good_line(tmp_path, read, video_id="v0") -> bytes:
    """A good record line for ``read`` of video ``video_id``, without its line end."""
    _read_line_with(tmp_path, read, "video_id", video_id)
    return (tmp_path / "r.jsonl").read_bytes().rstrip(b"\n")


def _read_after_good_line(tmp_path, read, raw: bytes, ending=b"\n"):
    """Read, as ``r.jsonl``, a good record line for ``read``, then ``ending`` and ``raw``."""
    (tmp_path / "r.jsonl").write_bytes(_good_line(tmp_path, read) + ending + raw + b"\n")
    return _read_from(tmp_path, read, "r.jsonl")


def _read_bytes_as(tmp_path, name, raw: bytes, read, *args):
    """``read(name, *args)`` of a file ``name`` holding ``raw``, so errors name it bare."""
    (tmp_path / name).write_bytes(raw)
    return _read_from(tmp_path, read, name, *args)


# the content of a decode report or run config that is no UTF-8 JSON document, and the error
BAD_JSON_FILES = {
    "empty": (b"", "Expecting value: line 1 column 1 (char 0)"),
    "not_json": (b"{\n", "Expecting property name enclosed in double quotes: line 2 column 1 "
                          "(char 2)"),
    "nested_too_deeply": (b"[" * 100_000, "JSON is nested too deeply"),
    "not_utf8": (b'{"task": "\xff"}',
                 "'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"),
}

# a record line's common field of the wrong JSON type, which used to be converted or let through
BAD_HEADS = {
    "numeric_video_id": ("video_id", 7, "video_id must be a string, got 7"),
    "null_query_id": ("query_id", None, "query_id must be a string, got None"),
    "string_duration": ("duration", "24", "duration must be a finite number, got '24'"),
    "bool_clip_len": ("clip_len", True, "clip_len must be a finite number, got True"),
    "bool_schema_version": ("schema_version", True, "schema_version must be an integer, got True"),
    "float_schema_version": ("schema_version", 1.0, "schema_version must be an integer, got 1.0"),
    "other_schema_version": ("schema_version", 2, "schema_version must be 1, got 2"),
}

_QUERY_FIELDS = "query must be an object holding text and kind"
_LABEL_FIELDS = "label must be an object holding foreground, offsets and saliency"
# a dataset line's query or label that is not an object holding its fields
BAD_OBJECTS = {
    "query_list": ("query", ["a"], f"{_QUERY_FIELDS}, got list"),
    "query_string": ("query", "a", f"{_QUERY_FIELDS}, got str"),
    "query_without_kind": ("query", {"text": "x"}, f"{_QUERY_FIELDS}, got one without kind"),
    "label_list": ("label", [1, 0], f"{_LABEL_FIELDS}, got list"),
    "label_without_offsets": ("label", {"foreground": [1], "saliency": [1.0]},
                              f"{_LABEL_FIELDS}, got one without offsets"),
    "label_empty": ("label", {}, f"{_LABEL_FIELDS}, got one without foreground, offsets, "
                                 "saliency"),
}

# a prediction line's per-clip array (4 clips) with an entry that is no finite number
_NOT_NUMBERS = "saliency must be an array of numbers"
BAD_ENTRIES = {
    "ragged_offsets": ("offsets", [[1.0, 1.0], [1.0], [1.0, 1.0], [1.0, 1.0]],
                       "offsets must be an array of numbers"),
    "dict_saliency": ("saliency", [{"a": 1}, 0.0, 0.0, 0.0], _NOT_NUMBERS),
    "null_saliency": ("saliency", [None, 0.0, 0.0, 0.0], "saliency must be finite"),
    "string_saliency": ("saliency", ["0.5", 0.0, 0.0, 0.0], _NOT_NUMBERS),
}

# input checks no other test reaches: the call, its exception type and its message
INPUT_CHECKS = {
    **{f"prediction_{case}": (
        lambda p, key=key, value=value: _read_line_with(p, read_predictions, key, value),
        ValueError, f"r.jsonl:1: {message}")
       for case, (key, value, message) in BAD_ENTRIES.items()},
    "dataset_string_curve": (
        lambda p: _read_line_with(p, read_dataset, "annotation", {"curve": ["0.1", 0.9, 0.8, 0.2]},
                                  curve_record()),
        ValueError, "r.jsonl:1: curve must be an array of numbers"),
    "dataset_string_interval": (
        lambda p: _read_line_with(p, read_dataset, "annotation", {"intervals": [["2", 6.0]]}),
        ValueError, "r.jsonl:1: interval must be an array of numbers"),
    "dataset_string_point": (
        lambda p: _read_line_with(p, read_dataset, "annotation", {"points": ["3"]},
                                  point_record()),
        ValueError, "r.jsonl:1: timestamps must be an array of numbers"),
    **{f"{what}_{case}": (
        lambda p, read=read, key=key, value=value: _read_line_with(p, read, key, value),
        ValueError, f"r.jsonl:1: {message}")
       for what, read in (("dataset", read_dataset), ("prediction", read_predictions))
       for case, (key, value, message) in BAD_HEADS.items()},
    **{f"dataset_{case}": (
        lambda p, key=key, value=value: _read_line_with(p, read_dataset, key, value),
        ValueError, f"r.jsonl:1: {message}")
       for case, (key, value, message) in BAD_OBJECTS.items()},
    "report_moment_off_grid": (
        lambda p: _read_one_result(p, "moments", "moments",
                                   [{"start": 1.0, "end": 4.5, "score": 0.5}]), ValueError,
        "r.json: results[0].moments[0] from 1.0 to 4.5 must satisfy 0 <= start <= end <= 4.0 "
        "(video_id 'v', query_id 'q')"),
    "report_clip_score_count": (
        lambda p: _read_one_result(p, "highlights", "clip_scores", [0.5] * 3), ValueError,
        "r.json: results[0].clip_scores covers 3 clips but the timeline has 4 "
        "(video_id 'v', query_id 'q')"),
    "report_bool_clip_score": (
        lambda p: _read_one_result(p, "highlights", "clip_scores", [0.5, True, 0.5, 0.5]),
        ValueError, "r.json: results[0].clip_scores[1] must be a finite number "
        "(video_id 'v', query_id 'q')"),
    "report_bool_selected_clip": (
        lambda p: _read_one_result(p, "summary", "selected_clips", [0, True]), ValueError,
        "r.json: results[0].selected_clips[1] must be an integer clip index "
        "(video_id 'v', query_id 'q')"),
    "report_selected_clip_off_grid": (
        lambda p: _read_one_result(p, "summary", "selected_clips", [0, 4]), ValueError,
        "r.json: results[0].selected_clips[1] is 4, outside [0, 4) (video_id 'v', query_id 'q')"),
    "point_annotation_under_interval": (
        lambda p: write_dataset([dataclasses.replace(
            interval_record(), annotation=PointAnnotation((1.0,)))], p / "d.jsonl"), ValueError,
        "annotation of source_kind 'interval' must be a list of Interval, got PointAnnotation"),
    "intervals_under_curve": (
        lambda p: write_dataset([dataclasses.replace(
            curve_record(), annotation=[Interval(0.0, 2.0)])], p / "d.jsonl"), ValueError,
        "annotation of source_kind 'curve' must be a CurveAnnotation, got list"),
    # an annotation outside its video, refused through labels._check_inside
    "dataset_interval_before_start": (
        lambda p: _read_line_with(p, read_dataset, "annotation", {"intervals": [[-0.5, 2.0]]}),
        ValueError, "r.jsonl:1: interval [-0.5, 2.0] exceeds the video [0, 8.0]"),
    "dataset_point_past_end": (
        lambda p: _read_line_with(p, read_dataset, "annotation", {"points": [12.5]},
                                  dataclasses.replace(point_record(), duration=10.0)),
        ValueError, "r.jsonl:1: timestamp 12.5 exceeds the video duration 10.0"),
    "dataset_curve_off_grid": (
        lambda p: _read_line_with(p, read_dataset, "annotation", {"curve": [0.1, 0.9, 0.2]},
                                  dataclasses.replace(curve_record(), duration=10.0,
                                                      clip_len=1.0)),
        ValueError, "r.jsonl:1: curve covers 3 clips but the timeline has 10"),
    "write_interval_past_end": (
        lambda p: write_dataset([dataclasses.replace(
            interval_record(), annotation=[Interval(2.0, 8.5)])], p / "d.jsonl"), ValueError,
        "interval [2.0, 8.5] exceeds the video [0, 8.0]"),
    # every file-read error names the file, and a JSONL reader the line
    **{f"{what}_not_utf8": (
        lambda p, read=read: _read_after_good_line(p, read, _NOT_UTF8), ValueError,
        f"r.jsonl:2: {_UNDECODABLE}")
       for what, read in (("dataset", read_dataset), ("prediction", read_predictions))},
    **{f"{what}_{case}": (
        lambda p, read=read, args=args, raw=raw: _read_bytes_as(p, "r.json", raw, read, *args),
        ValueError, f"r.json: {message}")
       for what, read, args in (("report", read_decode_report, ("moments", {})),
                                ("config", RunConfig.load, ()))
       for case, (raw, message) in BAD_JSON_FILES.items()},
    "text_no_video_line": (lambda p: _read_text_matrices(p, "columns\ta\n"), ValueError,
                           "m.txt: line 2: expected 'video\\t<id>\\t<clip_len>'"),
    "text_no_columns_line": (lambda p: _read_text_matrices(p, "video\tv\t1.0\n"), ValueError,
                             "m.txt: line 3: expected a 'columns' line"),
    "text_no_rows": (lambda p: _read_text_matrices(p, "video\tv\t1.0\ncolumns\ta\n"), ValueError,
                     "m.txt: matrix for video 'v' has no rows"),
    "text_ragged_row": (
        lambda p: _read_text_matrices(p, "video\tv\t1.0\ncolumns\ta\tb\n1\t2\n3\n"),
        ValueError, "m.txt: line 5: 1 field(s) under 2 column(s)"),
    "text_non_numeric_field": (
        lambda p: _read_text_matrices(p, "video\tv\t1.0\ncolumns\ta\tb\n1\tx\n"),
        ValueError, "m.txt: line 4: could not convert string to float: 'x'"),
    "text_non_numeric_clip_len": (
        lambda p: _read_text_matrices(p, "video\tv\tlong\ncolumns\ta\n1\n"),
        ValueError, "m.txt: line 2: could not convert string to float: 'long'"),
    "text_non_finite": (lambda p: _read_text_matrices(p, "video\tv\t1.0\ncolumns\ta\ninf\n"),
                        ValueError, "m.txt: matrix for video 'v' must be finite"),
    # float32 signalling NaN: numpy warns when it casts one to float64
    "binary_signalling_nan": (lambda p: _read_binary_matrix(p, struct.pack("<I", 0x7FA00000)),
                              ValueError, "m.tgmx: matrix for video 'v' must be finite"),
}


@pytest.mark.parametrize("case", INPUT_CHECKS)
def test_input_check(tmp_path, case):
    call, error, message = INPUT_CHECKS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call(tmp_path)
    assert info.type is error


@pytest.mark.parametrize("read, write", [(read_dataset, write_dataset),
                                         (read_predictions, write_predictions)])
@pytest.mark.parametrize("key, value", [("duration", 8), ("clip_len", 2)])
def test_integer_head_number_reads_as_a_float(tmp_path, read, write, key, value):
    # converted after its type check, so a rewritten line holds 8.0 or 2.0, as convert writes
    (record,), _ = _read_line_with(tmp_path, read, key, value)
    assert type(getattr(record, key)) is float and getattr(record, key) == value
    write([record], tmp_path / "w.jsonl")
    assert f'"{key}":{float(value)!r}' in (tmp_path / "w.jsonl").read_text()


class TestMatrixContainers:
    def test_text_round_trip_is_exact_f64(self, tmp_path):
        path = tmp_path / "m.txt"
        records = matrix_records()
        write_matrices_text(records, path)
        back = read_matrices(path)
        assert [r.video_id for r in back] == ["va", "vb"]
        by_id = {r.video_id: r for r in back}
        for rec in records:
            got = by_id[rec.video_id]
            assert got.column_names == rec.column_names
            assert got.clip_len == rec.clip_len
            np.testing.assert_array_equal(got.values, rec.values)

    def test_text_header_required(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("not a matrix file\n")
        with pytest.raises(ValueError, match="must start with"):
            read_matrices(path)
        assert MATRIX_TEXT_HEADER.startswith("#")

    def test_binary_round_trip_quantises_to_f32(self, tmp_path):
        path = tmp_path / "m.tgmx"
        records = matrix_records()
        write_matrices_binary(records, path)
        back = read_matrices(path)
        assert [r.video_id for r in back] == ["va", "vb"]
        by_id = {r.video_id: r for r in back}
        for rec in records:
            got = by_id[rec.video_id]
            assert got.column_names == rec.column_names
            np.testing.assert_array_equal(
                got.values, rec.values.astype("<f4").astype(np.float64)
            )

    def test_binary_survives_second_trip_exactly(self, tmp_path):
        # once quantised, further trips are lossless
        p1, p2 = tmp_path / "a.tgmx", tmp_path / "b.tgmx"
        write_matrices_binary(matrix_records(), p1)
        first = read_matrices(p1)
        write_matrices_binary(first, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_magic_sniffing(self, tmp_path):
        text, binary = tmp_path / "m.txt", tmp_path / "m.tgmx"
        records = matrix_records()
        write_matrices_text(records, text)
        write_matrices_binary(records, binary)
        assert binary.read_bytes()[:4] == MATRIX_MAGIC
        assert [r.video_id for r in read_matrices(text)] == ["va", "vb"]
        assert [r.video_id for r in read_matrices(binary)] == ["va", "vb"]

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.tgmx"
        write_matrices_binary(matrix_records(), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            read_matrices(path)

    def test_every_truncation_rejected(self, tmp_path):
        full = tmp_path / "m.tgmx"
        write_matrices_binary(matrix_records(), full)
        raw = full.read_bytes()
        for size in range(len(raw)):
            # a fresh path each time: truncating one file over and over is slow on ext4
            cut = tmp_path / f"cut{size}.tgmx"
            cut.write_bytes(raw[:size])
            with pytest.raises(ValueError):
                read_matrices(cut)

    def test_unicode_ids_and_names(self, tmp_path):
        path = tmp_path / "m.tgmx"
        rec = MatrixRecord("vidéo", 2.0, ("café",), np.array([[0.5]]))
        write_matrices_binary([rec], path)
        back = read_matrices(path)
        assert back[0].video_id == "vidéo"
        assert back[0].column_names == ("café",)

    def test_validation(self, tmp_path):
        path = tmp_path / "m.txt"
        with pytest.raises(ValueError, match=re.escape("'v' must have shape (n, m), got (0, 0)")):
            write_matrices_text([MatrixRecord("v", 2.0, (), np.zeros((0, 0)))], path)
        with pytest.raises(ValueError, match="column names"):
            write_matrices_text([MatrixRecord("v", 2.0, ("a",), np.zeros((2, 2)))], path)
        with pytest.raises(ValueError, match="clip_len"):
            write_matrices_text([MatrixRecord("v", 0.0, ("a",), np.zeros((2, 1)))], path)

    @pytest.mark.parametrize("clip_len", [math.nan, math.inf, -math.inf])
    def test_non_finite_clip_len_rejected(self, tmp_path, clip_len):
        out = tmp_path / "out"
        for write in (write_matrices_text, write_matrices_binary):
            with pytest.raises(ValueError, match="clip_len"):
                write([MatrixRecord("v", clip_len, ("a",), np.zeros((2, 1)))], out)
            assert not out.exists()
        good = [MatrixRecord("v", 2.0, ("a",), np.zeros((2, 1)))]
        text, binary = tmp_path / "m.txt", tmp_path / "m.tgmx"
        write_matrices_text(good, text)
        text.write_text(text.read_text().replace("\tv\t2.0\n", f"\tv\t{clip_len!r}\n"))
        write_matrices_binary(good, binary)
        raw = bytearray(binary.read_bytes())
        at = len(MATRIX_MAGIC) + struct.calcsize("<III") + len("v")  # the one record's clip_len
        assert struct.unpack_from("<d", raw, at) == (2.0,)
        struct.pack_into("<d", raw, at, clip_len)
        binary.write_bytes(bytes(raw))
        for path in (text, binary):
            with pytest.raises(ValueError, match="clip_len"):
                read_matrices(path)


class TestMatrixWriters:
    SEPARATORS = {"tab": "\t", "newline": "\n", "return": "\r", "file_separator": "\x1c",
                  "line_separator": "\u2028"}

    @pytest.mark.parametrize("where", ["video_id", "column_name"])
    @pytest.mark.parametrize("separator", sorted(SEPARATORS))
    def test_text_refuses_a_separator_binary_keeps_it(self, tmp_path, separator, where):
        value = f"a{self.SEPARATORS[separator]}b"
        rec = MatrixRecord("v", 2.0, ("c0", "c1"), np.array([[0.5, 0.25], [1.0, 0.0]]))
        if where == "video_id":
            rec.video_id = value
        else:
            rec.column_names = ("c0", value)
        text = tmp_path / "m.txt"
        text.write_bytes(b"earlier bytes\n")
        with pytest.raises(ValueError, match=re.escape(repr(value))):
            write_matrices_text([rec], text)
        assert text.read_bytes() == b"earlier bytes\n"
        binary = tmp_path / "m.tgmx"
        write_matrices_binary([rec], binary)
        (back,) = read_matrices(binary)
        assert (back.video_id, back.column_names) == (rec.video_id, rec.column_names)
        np.testing.assert_array_equal(back.values, rec.values)

    def test_writers_leave_the_record_alone(self, tmp_path):
        values = [[0.5, 0.25], [1.0, 0.0]]
        rec = MatrixRecord("v", 2, ["a", 2], values)
        for write, name in ((write_matrices_text, "m.txt"), (write_matrices_binary, "m.tgmx")):
            write([rec], tmp_path / name)
            assert rec.values is values and values == [[0.5, 0.25], [1.0, 0.0]]
            assert (rec.video_id, rec.clip_len, rec.column_names) == ("v", 2, ["a", 2])
            assert type(rec.clip_len) is int
            assert read_matrices(tmp_path / name)[0].column_names == ("a", "2")


def _long_label(record):
    record.label = from_intervals(ClipTimeline(11, 2.0), [Interval(2.0, 6.0)])
    return record


def _nan_duration(record):
    record.duration = float("nan")
    return record


def _prediction(video_id, duration, num_clips):
    pred = PredictionSet(np.zeros(num_clips), np.ones((num_clips, 2)), np.zeros(num_clips))
    return PredictionRecord(video_id, "q1", duration, 2.0, pred)


# writer -> a good record, then a bad one that sorts after it, and the check it fails
BAD_WRITES = {
    "label_too_long": (write_dataset, lambda: [
        point_record("v1"), _long_label(interval_record("v2", num_clips=10))],
        "label covers 11 clips but the timeline has 10"),
    "nan_duration": (write_dataset, lambda: [
        point_record("v1"), _nan_duration(point_record("v2"))],
        "duration must be a finite number, got nan"),
    "numeric_video_id": (write_dataset, lambda: [
        point_record("v1"), dataclasses.replace(point_record("v2"), video_id=7)],
        "video_id must be a string, got 7"),
    # a numpy integer is not a JSON integer; json.dumps used to raise a TypeError on it
    "numpy_int_duration": (write_predictions, lambda: [
        _prediction("v1", 8.0, 4), _prediction("v2", np.int64(24), 12)],
        r"^duration must be a finite number, got (np\.int64\(24\)|24)$"),
    "concepts_too_few": (write_dataset, lambda: [
        point_record("v1"), dataclasses.replace(interval_record("v2", num_clips=12),
                                                clip_concepts=(frozenset({"door"}),) * 3)],
        "clip_concepts covers 3 clips but the timeline has 12"),
    "unknown_source_kind": (write_dataset, lambda: [
        point_record("v1"), dataclasses.replace(interval_record("v2"), source_kind="video")],
        "source_kind must be point or interval or curve, got 'video'"),
    "prediction_too_short": (write_predictions, lambda: [
        _prediction("v1", 8.0, 4), _prediction("v2", 20.0, 3)],
        "prediction covers 3 clips but the timeline has 10"),
    "binary_matrix": (write_matrices_binary, lambda: [
        MatrixRecord("va", 2.0, ("c0",), np.zeros((2, 1))),
        MatrixRecord("vb", 2.0, ("c0",), np.zeros((2, 2)))], "1 column names for 2 columns"),
    "text_matrix": (write_matrices_text, lambda: [
        MatrixRecord("va", 2.0, ("c0",), np.zeros((2, 1))),
        MatrixRecord("vb", 2.0, ("c0",), np.zeros((2, 2)))], "1 column names for 2 columns"),
    "non_finite_binary_matrix": (write_matrices_binary, lambda: [
        MatrixRecord("va", 2.0, ("c0",), np.zeros((2, 1))),
        MatrixRecord("vb", 2.0, ("c0",), np.array([[0.5], [np.nan]]))],
        "matrix for video 'vb' must be finite"),
    "non_finite_text_matrix": (write_matrices_text, lambda: [
        MatrixRecord("va", 2.0, ("c0",), np.zeros((2, 1))),
        MatrixRecord("vb", 2.0, ("c0",), np.array([[0.5], [-np.inf]]))],
        "matrix for video 'vb' must be finite"),
    "binary_matrix_past_float32": (write_matrices_binary, lambda: [
        MatrixRecord("va", 2.0, ("c0",), np.zeros((2, 1))),
        MatrixRecord("vb", 2.0, ("c0",), np.array([[0.5], [1e39]]))],
        "matrix for video 'vb' holds a value float32 cannot hold"),
    "repeated_dataset_key": (write_dataset, lambda: [
        interval_record("v1"), point_record("v1")],
        re.escape("(video_id, query_id) ('v1', 'q1') appears more than once")),
    "repeated_prediction_key": (write_predictions, lambda: [
        _prediction("v1", 8.0, 4), _prediction("v1", 20.0, 10)],
        re.escape("(video_id, query_id) ('v1', 'q1') appears more than once")),
    "repeated_binary_matrix_id": (write_matrices_binary, lambda: [
        MatrixRecord("va", 2.0, ("c0",), np.zeros((2, 1))),
        MatrixRecord("va", 2.0, ("c0",), np.ones((3, 1)))], "video id 'va' appears more than once"),
    "repeated_text_matrix_id": (write_matrices_text, lambda: [
        MatrixRecord("va", 2.0, ("c0",), np.zeros((2, 1))),
        MatrixRecord("va", 2.0, ("c0",), np.ones((3, 1)))], "video id 'va' appears more than once"),
}


class TestWritersFailClosed:
    """A writer checks every record before it opens its file."""

    @pytest.mark.parametrize("case", sorted(BAD_WRITES))
    def test_bad_record_leaves_the_file_as_it_was(self, tmp_path, case):
        write, records, message = BAD_WRITES[case]
        existing, fresh = tmp_path / "existing", tmp_path / "fresh"
        existing.write_bytes(b"earlier bytes\n")
        for path in (existing, fresh):
            with pytest.raises(ValueError, match=message):
                write(records(), path)
        assert existing.read_bytes() == b"earlier bytes\n"
        assert not fresh.exists()

    @pytest.mark.parametrize("case,to_obj,read", [
        ("label_too_long", dataset_record_to_obj, read_dataset),
        ("numeric_video_id", dataset_record_to_obj, read_dataset),
        ("concepts_too_few", dataset_record_to_obj, read_dataset),
        # the annotation dropped, as dataset_record_to_obj has no encoding for an unknown kind
        ("unknown_source_kind",
         lambda r: dataset_record_to_obj(dataclasses.replace(r, annotation=None)), read_dataset),
        ("prediction_too_short", prediction_record_to_obj, read_predictions),
    ])
    def test_reader_rejects_what_the_writer_refuses(self, tmp_path, case, to_obj, read):
        _, records, message = BAD_WRITES[case]
        path = tmp_path / "in.jsonl"
        path.write_text(json.dumps(to_obj(records()[-1])) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            read(path)


def _joined_container(path, binary: bool, records) -> Path:
    """A container holding ``records`` in the order given, which no writer writes."""
    bodies = []
    for i, record in enumerate(records):
        one = path.with_name(f"one_{i}")
        (write_matrices_binary if binary else write_matrices_text)([record], one)
        # after the magic, version and count, or after the text header line
        bodies.append(one.read_bytes()[12:] if binary else one.read_bytes().split(b"\n", 1)[1])
    head = (MATRIX_MAGIC + struct.pack("<II", 1, len(records)) if binary
            else (MATRIX_TEXT_HEADER + "\n").encode())
    path.write_bytes(head + b"".join(bodies))
    return path


def matrices_with_repeat(path, binary: bool) -> Path:
    """A container holding video 'va' twice (2 and 3 rows), which no writer writes."""
    return _joined_container(path, binary, [
        MatrixRecord("va", 2.0, ("c0",), np.full((rows, 1), 0.5)) for rows in (2, 3)])


class TestRecordIdentity:
    """A file holds each (video_id, query_id), or each matrix video_id, once."""

    @pytest.mark.parametrize("to_obj,first,other,repeat,read", [
        (dataset_record_to_obj, interval_record("v1"), point_record("v0"), point_record("v1"),
         read_dataset),
        (prediction_record_to_obj, _prediction("v1", 8.0, 4), _prediction("v0", 8.0, 4),
         _prediction("v1", 20.0, 10), read_predictions),
    ], ids=["dataset", "predictions"])
    def test_reader_names_the_repeated_line(self, tmp_path, to_obj, first, other, repeat, read):
        path = tmp_path / "in.jsonl"
        lines = [to_obj(first), to_obj(other), to_obj(repeat)]
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                ":3: (video_id, query_id) ('v1', 'q1') repeats line 1")):
            read(path)
        records, errors = read(path, on_error="skip")
        assert errors == [(3, "(video_id, query_id) ('v1', 'q1') repeats line 1")]
        kept = {record.sort_key(): record for record in records}
        assert to_obj(kept[("v1", "q1")]) == to_obj(first) and len(records) == 2

    @pytest.mark.parametrize("binary", [True, False], ids=["binary", "text"])
    def test_matrix_reader_names_the_repeated_id(self, tmp_path, binary):
        path = matrices_with_repeat(tmp_path / "m", binary)
        with pytest.raises(ValueError, match="video id 'va' appears more than once"):
            read_matrices(path)


class TestReadOrder:
    """Every reader returns its records in the order the writers write them."""

    @pytest.mark.parametrize("to_obj,records,read", [
        (dataset_record_to_obj, [curve_record("v3"), interval_record("v1", "q2"),
                                 point_record("v2"), interval_record("v1", "q1")], read_dataset),
        (prediction_record_to_obj, [_prediction("v2", 8.0, 4), _prediction("v10", 20.0, 10),
                                    dataclasses.replace(_prediction("v2", 8.0, 4), query_id="q0")],
         read_predictions),
    ], ids=["dataset", "predictions"])
    def test_jsonl_reader_returns_key_order(self, tmp_path, to_obj, records, read):
        path = tmp_path / "in.jsonl"
        path.write_text("".join(json.dumps(to_obj(r)) + "\n" for r in records), encoding="utf-8")
        got, errors = read(path)
        assert errors == []
        assert [r.sort_key() for r in got] == sorted(r.sort_key() for r in records)
        written = tmp_path / "out.jsonl"
        (write_dataset if read is read_dataset else write_predictions)(records, written)
        assert [to_obj(r) for r in got] == [to_obj(r) for r in read(written)[0]]

    @pytest.mark.parametrize("binary", [True, False], ids=["binary", "text"])
    def test_matrix_reader_returns_id_order(self, tmp_path, binary):
        records = matrix_records()  # vb, then va
        path = _joined_container(tmp_path / "m", binary, records)
        got = read_matrices(path)
        assert [m.video_id for m in got] == ["va", "vb"]
        assert [m.values.shape for m in got] == [(3, 3), (5, 2)]


# writer -> a long content, then a shorter one, each as a callable of the path
REWRITES = {
    "dataset": (lambda p: write_dataset([interval_record("v1"), point_record(), curve_record()], p),
                lambda p: write_dataset([point_record()], p)),
    "predictions": (
        lambda p: write_predictions([_prediction(f"v{i}", 20.0, 10) for i in range(5)], p),
        lambda p: write_predictions([_prediction("v0", 8.0, 4)], p)),
    "matrices_text": (lambda p: write_matrices_text(matrix_records(), p),
                      lambda p: write_matrices_text(matrix_records()[1:], p)),
    "matrices_binary": (lambda p: write_matrices_binary(matrix_records(), p),
                        lambda p: write_matrices_binary(matrix_records()[1:], p)),
    "json_report": (lambda p: write_json_report({"values": list(range(100))}, p),
                    lambda p: write_json_report({"values": [0]}, p)),
    "run_config": (
        lambda p: RunConfig(map_iou_thresholds=tuple(i / 20 for i in range(1, 21))).dump(p),
        lambda p: RunConfig().dump(p)),
}


class TestRewriteInPlace:
    """Every writer rewrites an existing file in place with exactly its new bytes."""

    @pytest.fixture(params=sorted(REWRITES))
    def rewrite(self, request, tmp_path):
        long, short = REWRITES[request.param]
        short(tmp_path / "fresh")
        return long, short, (tmp_path / "fresh").read_bytes()

    def test_shorter_rewrite_holds_only_the_new_bytes(self, tmp_path, rewrite):
        long, short, expected = rewrite
        path = tmp_path / "out"
        long(path)
        assert path.stat().st_size > len(expected)
        short(path)
        assert path.read_bytes() == expected

    @pytest.mark.skipif(os.name != "posix", reason="POSIX inodes and modes")
    def test_inode_and_mode_survive(self, tmp_path, rewrite):
        long, short, _ = rewrite
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE((tmp_path / "fresh").stat().st_mode) == 0o666 & ~umask
        path = tmp_path / "out"
        long(path)
        path.chmod(0o640)
        inode = path.stat().st_ino
        short(path)
        assert path.stat().st_ino == inode
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    @pytest.mark.skipif(os.name != "posix", reason="POSIX symlinks")
    def test_symlink_is_written_through(self, tmp_path, rewrite):
        long, short, expected = rewrite
        target, link = tmp_path / "target", tmp_path / "link"
        long(target)
        link.symlink_to(target)
        short(link)
        assert link.is_symlink()
        assert target.read_bytes() == expected


def test_failed_write_empties_the_file_and_names_it(tmp_path, monkeypatch):
    # os.write fails after the first part: the file holds neither its old bytes nor a mix
    path = tmp_path / "out"
    path.write_bytes(b"old bytes\n" * 100)
    real_write = os.write
    written = []

    def write_once(fd, data):
        if written:
            raise OSError(errno.ENOSPC, "No space left on device")
        written.append(bytes(data))
        return real_write(fd, data)

    monkeypatch.setattr(formats.os, "write", write_once)
    with pytest.raises(OSError) as info:
        formats._write_file(path, [b"first part\n", b"second part\n"])
    monkeypatch.undo()
    assert written == [b"first part\n"]
    assert info.value.errno == errno.ENOSPC and info.value.filename == str(path)
    assert path.stat().st_size == 0


def test_jsonl_writer_holds_about_one_copy_of_its_file(tmp_path):
    # one encoded line per record goes to _write_file; the lines joined into one
    # str and then encoded held the file about twice (2.03 times its size here)
    records = toy_corpus(200, 250, 1.0, 0)
    path = tmp_path / "out.jsonl"
    tracemalloc.start()
    try:
        write_dataset(records, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * path.stat().st_size


class TestJsonReport:
    def test_stable_formatting(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_json_report({"zeta": 1, "alpha": {"y": 2, "x": 3}}, a)
        write_json_report({"alpha": {"x": 3, "y": 2}, "zeta": 1}, b)
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text()
        assert text.endswith("\n")
        assert text.index("alpha") < text.index("zeta")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


def _valid_inputs() -> dict:
    """One valid file per reader: dataset, predictions, text and binary matrices."""
    with tempfile.TemporaryDirectory() as d:
        root = Path(d)
        write_dataset([interval_record(), point_record(), curve_record()], root / "d")
        rng = np.random.default_rng(0)
        pred = PredictionSet(rng.normal(size=4), rng.normal(size=(4, 2)), rng.uniform(-1, 1, 4))
        write_predictions([PredictionRecord("v1", "q1", 8.0, 2.0, pred)], root / "p")
        write_matrices_text(matrix_records(), root / "t")
        write_matrices_binary(matrix_records(), root / "b")
        return {name: (root / name).read_bytes() for name in "dptb"}


VALID_INPUTS = _valid_inputs()


def _paths(value, prefix=()):
    """Every (key or index) path into a parsed JSON value, the root included."""
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for key, inner in items:
        yield from _paths(inner, prefix + (key,))


@st.composite
def byte_mutants(draw):
    """A valid input with a few bytes set, inserted, deleted or cut off."""
    raw = bytearray(VALID_INPUTS[draw(st.sampled_from(sorted(VALID_INPUTS)))])
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(raw)))
        op = draw(st.sampled_from(("set", "insert", "delete", "cut")))
        if op == "insert" or (op == "set" and pos == len(raw)):
            raw[pos:pos] = draw(st.binary(min_size=1, max_size=8))
        elif op == "set":
            raw[pos] = draw(st.integers(0, 255))
        elif op == "delete":
            del raw[pos:pos + draw(st.integers(1, 8))]
        else:
            del raw[pos:]
    return bytes(raw)


@st.composite
def json_mutants(draw):
    """A valid dataset or predictions file with one value of one line replaced."""
    lines = VALID_INPUTS[draw(st.sampled_from("dp"))].decode().splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    obj = json.loads(lines[i])
    path = draw(st.sampled_from(list(_paths(obj))))
    value = draw(JSON_VALUES | st.integers(-10**400, 10**400)
                 | st.floats(min_value=-1e308, max_value=1e308))
    if path:
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        obj = value
    lines[i] = json.dumps(obj)
    return "\n".join(lines).encode()


@st.composite
def huge_timelines(draw):
    """A valid dataset or predictions file with one line claiming a huge clip count.

    Dataset lines lose their label, whose length would give the count away.
    """
    lines = VALID_INPUTS[draw(st.sampled_from("dp"))].decode().splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    obj = json.loads(lines[i])
    obj["duration"] = draw(st.floats(min_value=1e6, max_value=1e308))
    obj["clip_len"] = draw(st.floats(min_value=1e-308, max_value=1.0))
    if "label" in obj:
        obj["label"] = None
    lines[i] = json.dumps(obj)
    return "\n".join(lines).encode()


def read_all(raw: bytes) -> None:
    """Feed ``raw`` to every reader; each must return records or raise ValueError/OSError.

    No record that a reader returns may span more than MAX_CLIPS clips.
    """
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "input"
        path.write_bytes(raw)
        for read in (read_dataset, read_predictions, read_matrices,
                     lambda p: read_dataset(p, on_error="skip"),
                     lambda p: read_predictions(p, on_error="skip")):
            try:
                got = read(path)
            except (ValueError, OSError):
                continue
            records = got[0] if isinstance(got, tuple) else got
            assert all(r.timeline().num_clips <= MAX_CLIPS for r in records)


class TestUndecodableLines:
    """A JSONL line that is not UTF-8 is that line's error, like any other bad line."""

    @pytest.mark.parametrize("read", [read_dataset, read_predictions])
    @pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_skip_keeps_the_other_lines(self, tmp_path, read, ending):
        good, other = _good_line(tmp_path, read), _good_line(tmp_path, read, "v9")
        # lines 1 and 2, a blank line 3, the undecodable line 4 and line 1 again
        (tmp_path / "r.jsonl").write_bytes(ending.join([good, other, b"", _NOT_UTF8, good]))
        records, errors = read(tmp_path / "r.jsonl", on_error="skip")
        assert [r.video_id for r in records] == ["v0", "v9"]
        assert errors == [(4, _UNDECODABLE),
                          (5, "(video_id, query_id) ('v0', 'q1') repeats line 1")]

    def test_utf8_text_reads_as_written(self, tmp_path):
        obj = {**dataset_record_to_obj(interval_record()),
               "query": {"text": "café 門", "kind": "sentence"}}
        (tmp_path / "r.jsonl").write_bytes(json.dumps(obj, ensure_ascii=False).encode() + b"\n")
        (record,), errors = read_dataset(tmp_path / "r.jsonl")
        assert record.query.text == "café 門" and errors == []

    @pytest.mark.parametrize("ending", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_line_numbers_count_every_line_ending(self, tmp_path, ending):
        with pytest.raises(ValueError, match=f"^{re.escape(f'r.jsonl:2: {_UNDECODABLE}')}$"):
            _read_after_good_line(tmp_path, read_dataset, _NOT_UTF8, ending)


class TestReaderFuzz:
    """Malformed input of any kind fails closed: records or ValueError/OSError, nothing else."""

    @given(raw=st.binary(max_size=200) | st.binary(max_size=200).map(MATRIX_MAGIC.__add__))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes(self, raw):
        read_all(raw)

    @given(raw=byte_mutants())
    @example(raw=VALID_INPUTS["b"][:-4] + struct.pack("<I", 0x7FA00000))  # float32 signalling NaN
    @settings(max_examples=300, deadline=None)
    def test_mutated_bytes(self, raw):
        read_all(raw)

    @given(raw=json_mutants() | huge_timelines())
    @settings(max_examples=300, deadline=None)
    def test_mutated_values(self, raw):
        read_all(raw)

    def test_deep_nesting(self, tmp_path):
        path = tmp_path / "deep.jsonl"
        path.write_text("[" * 100_000 + "\n")
        for read in (read_dataset, read_predictions):
            with pytest.raises(ValueError, match="nested too deeply"):
                read(path)


class TestRunConfig:
    def test_defaults_round_trip(self):
        cfg = RunConfig()
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_dump_load(self, tmp_path):
        path = tmp_path / "config.json"
        cfg = RunConfig(tau=0.1, fit_steps=50, map_iou_thresholds=(0.5, 0.75))
        cfg.dump(path)
        assert RunConfig.load(path) == cfg

    def test_dump_writes_the_report_bytes(self, tmp_path):
        # UTF-8 and "\n" line ends whatever the platform's defaults
        cfg = RunConfig(tau=0.1, fit_steps=50, map_iou_thresholds=(0.5, 0.75))
        cfg.dump(tmp_path / "config.json")
        write_json_report(cfg.to_dict(), tmp_path / "report.json")
        assert (tmp_path / "config.json").read_bytes() == (tmp_path / "report.json").read_bytes()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_dict({"taau": 0.1})

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(loss_aggregation="per_frame")
        with pytest.raises(ValueError):
            RunConfig(nms_iou_threshold=0.0)
        with pytest.raises(ValueError):
            RunConfig(summary_budget_fraction=2.0)
        with pytest.raises(ValueError):
            RunConfig(tau=0.0)
        with pytest.raises(ValueError):
            RunConfig(fit_embed_dim=1)
        with pytest.raises(ValueError):
            RunConfig(recall_iou_thresholds=(0.5, 1.5))
        for data in (
            {"fit_steps": "10"},
            {"recall_iou_thresholds": 5},
            {"tau": None},
            {"seed": "x"},
            {"moment_top_k": 2.5},
            {"moment_use_saliency": "no"},
            [1, 2],
            {"fit_steps": True},
            {"tau": True},
            {"highlight_mode": 1},
            {"map_iou_thresholds": [0.5, True]},
            {"map_iou_thresholds": []},
            {"gradcheck_tolerance": float("inf")},
            {"lambda_f": 10**400},
        ):
            with pytest.raises(ValueError):
                RunConfig.from_dict(data)

    def test_numbers_kept_as_given(self):
        cfg = RunConfig.from_dict({"kts_penalty": 2, "recall_iou_thresholds": [1]})
        assert cfg.kts_penalty == 2 and type(cfg.kts_penalty) is int
        assert cfg.recall_iou_thresholds == (1.0,)

    @given(data=st.dictionaries(
        st.sampled_from([f.name for f in dataclasses.fields(RunConfig)]) | st.text(max_size=8),
        JSON_VALUES, max_size=6,
    ) | JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_reader_fuzz_yields_config_or_value_error(self, data):
        try:
            cfg = RunConfig.from_dict(data)
        except ValueError:
            return
        assert isinstance(cfg, RunConfig)

    def test_weights_mirror_config(self):
        cfg = RunConfig(tau=0.09, neg_weight=0.2, smooth_l1_beta=0.5)
        w = cfg.weights()
        assert (w.tau, w.neg_weight, w.smooth_l1_beta) == (0.09, 0.2, 0.5)

    def test_schema_version_constant(self):
        assert SCHEMA_VERSION == 1
