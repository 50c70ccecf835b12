"""Spans and counters recorded around tgkit's layer entry points.

The tracer wraps a function by replacing the name its caller looks it up
by (``tgkit.cli`` binds its imports at load time, so most wrappers go on
``tgkit.cli.<name>``).  Each call records a span: name, start, end and the
span that was open when it began.  Counters are taken at the same
boundaries.  Spans stay in memory until the run writes them out.

``restore()`` (or leaving the ``with`` block) puts every original function
back.  A target that no longer exists is recorded as missing instead of
failing the run.
"""
from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> dict:
    """Span id -> its duration minus the part its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted(children[s.id]):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


class Tracer:
    """In-memory span recorder with wrappers it can install and remove."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(float)
        self.maxima: dict = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._originals: list = []

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] += value

    def maximum(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent))

    def wrap(self, module: str, attr: str, name: str, count=None, detail=None) -> None:
        """Replace ``module.attr`` with a traced wrapper.

        ``name`` is the span name; ``detail(args, kwargs)``, if given, is
        appended to it per call.  ``count(tracer, args, kwargs, result)``
        runs after each call, outside the span.
        """
        try:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{attr}")
            return

        def wrapper(*args, **kwargs):
            span_name = name if detail is None else f"{name}.{detail(args, kwargs)}"
            result = self.call(span_name, original, *args, **kwargs)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        setattr(mod, attr, wrapper)
        self._originals.append((mod, attr, original))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._originals):
            setattr(mod, attr, original)
        self._originals = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


# --- the layer boundaries of tgkit -----------------------------------------


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _file_bytes(tracer, path) -> None:
    tracer.add("formats.bytes", os.path.getsize(path))


def _count_read(tracer, args, kwargs, result):
    records = result[0] if isinstance(result, tuple) else result
    tracer.add("formats.records", len(records))
    _file_bytes(tracer, _arg(args, kwargs, 0, "path"))


def _count_write(tracer, args, kwargs, result):
    records = _arg(args, kwargs, 0, "records")
    tracer.add("formats.records", len(records))
    _file_bytes(tracer, _arg(args, kwargs, 1, "path"))


def _count_report(tracer, args, kwargs, result):
    _file_bytes(tracer, _arg(args, kwargs, 1, "path"))


def _count_label(tracer, args, kwargs, result):
    tracer.add("labels.calls")


def _count_teacher(tracer, args, kwargs, result):
    tracer.add("teacher.samples", len(result))


def _count_gradcheck(tracer, args, kwargs, result):
    tracer.add("gradcheck.points", result.points_checked)


def _count_fit(tracer, args, kwargs, result):
    tracer.add("fit.steps", len(result.trajectory) - 1)


def _count_losses(caller: str):
    def count(tracer, args, kwargs, result):
        clips = _arg(args, kwargs, 0, "logits").size
        tracer.add("losses.evals")
        tracer.add("losses.clip_evals", clips)
        tracer.add(f"losses.{caller}_clip_evals", clips)
        tracer.add(f"{caller}.loss_evals")
    return count


def _count_nms(tracer, args, kwargs, result):
    tracer.add("decode.nms_candidates", len(_arg(args, kwargs, 0, "candidates")))
    tracer.add("decode.nms_kept", len(result))


def _count_kts(tracer, args, kwargs, result):
    tracer.maximum("decode.kts_clips_max", result.num_clips)


def _count_matching(tracer, args, kwargs, result):
    shape = getattr(_arg(args, kwargs, 0, "weights"), "shape", (0, 0))
    tracer.maximum("metrics.matching_n_max", max(shape))


def _loss_name(args, kwargs):
    return _arg(args, kwargs, 0, "loss_name")


@dataclass(frozen=True)
class Target:
    """A wrapped name, the span its calls record, and what they count."""

    module: str
    attr: str
    span: str  # grouped into layers by the first dotted component
    count: object = None
    detail: object = None

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.attr}"


TARGETS = [Target(*row) for row in (
    ("tgkit.cli", "read_dataset", "formats.read", _count_read),
    ("tgkit.cli", "read_predictions", "formats.read", _count_read),
    ("tgkit.cli", "read_matrices", "formats.read", _count_read),
    ("tgkit.cli", "write_dataset", "formats.write", _count_write),
    ("tgkit.cli", "write_predictions", "formats.write", _count_write),
    ("tgkit.cli", "write_json_report", "formats.write", _count_report),
    ("tgkit.cli", "from_intervals", "labels.convert", _count_label),
    ("tgkit.cli", "from_curve", "labels.convert", _count_label),
    ("tgkit.cli", "from_points", "labels.convert", _count_label),
    ("tgkit.cli", "pseudo_labels", "teacher.pseudo_labels", _count_teacher),
    ("tgkit.cli", "grad_check", "gradcheck", _count_gradcheck, _loss_name),
    ("tgkit.cli", "overfit", "fit.overfit", _count_fit),
    ("tgkit.fit", "_total_loss_arrays", "losses.fit", _count_losses("fit")),
    ("tgkit.gradcheck", "_total_loss_arrays", "losses.gradcheck", _count_losses("gradcheck")),
    ("tgkit.cli", "decode_moments", "decode.moments", None),
    ("tgkit.decode", "nms_1d", "decode.nms", _count_nms),
    ("tgkit.cli", "decode_highlights", "decode.highlights", None),
    ("tgkit.cli", "highlight_scores", "decode.highlights", None),
    ("tgkit.cli", "kts_segment", "decode.kts", _count_kts),
    ("tgkit.cli", "decode_summary", "decode.summary", None),
    ("tgkit.cli", "recall_at_k", "metrics.recall", None),
    ("tgkit.cli", "moment_map", "metrics.moment_map", None),
    ("tgkit.cli", "highlight_map", "metrics.highlight", None),
    ("tgkit.cli", "top5_map", "metrics.highlight", None),
    ("tgkit.cli", "hit_at_1", "metrics.highlight", None),
    ("tgkit.cli", "qfvs_f1", "metrics.summary", None),
    ("tgkit.metrics", "max_weight_matching", "metrics.matching", _count_matching),
)]

# Per-layer timing metric -> the span names it sums, and whether it sums
# total or self time.
TIMINGS = {
    "losses.eval_s": (("losses.",), "total"),
    "losses.fit_eval_s": (("losses.fit",), "total"),
    "losses.gradcheck_eval_s": (("losses.gradcheck",), "total"),
    "fit.self_s": (("fit.overfit",), "self"),
    "gradcheck.total_s": (("gradcheck.total",), "total"),
    "gradcheck.self_s": (("gradcheck.",), "self"),
    "decode.nms_s": (("decode.nms",), "total"),
    "decode.kts_s": (("decode.kts",), "total"),
    "decode.summary_s": (("decode.summary",), "total"),
    "decode.highlights_s": (("decode.highlights",), "total"),
    "metrics.matching_s": (("metrics.matching",), "total"),
    "metrics.moment_map_s": (("metrics.moment_map",), "total"),
    "metrics.recall_s": (("metrics.recall",), "total"),
    "metrics.highlight_s": (("metrics.highlight",), "total"),
    "formats.read_s": (("formats.read",), "total"),
    "formats.write_s": (("formats.write",), "total"),
    "labels.convert_s": (("labels.convert",), "total"),
    "teacher.pseudo_labels_s": (("teacher.pseudo_labels",), "total"),
    "cli.self_s": (("cli.",), "self"),
}

COUNTS = (
    "losses.evals",
    "gradcheck.loss_evals",
    "fit.stalled_steps",
    "decode.nms_candidates",
    "decode.nms_kept",
    "formats.bytes",
    # fixed by the workload; the runner checks them against its plan
    "fit.steps",
    "gradcheck.points",
    "formats.records",
    "labels.calls",
    "teacher.samples",
)
MAXIMA = ("decode.kts_clips_max", "metrics.matching_n_max")


def install(tracer: Tracer) -> Tracer:
    for t in TARGETS:
        tracer.wrap(t.module, t.attr, t.span, t.count, t.detail)
    return tracer


def is_missing(metric: str, missing) -> bool:
    """True when a wrapped name that ``metric`` is measured through is gone.

    A timing is measured through the targets whose spans it sums; any
    other metric through every target of its layer.
    """
    prefixes = TIMINGS[metric][0] if metric in TIMINGS else (metric.split(".")[0] + ".",)
    return any(
        t.qualname in missing
        for t in TARGETS
        if any(t.span.startswith(p) or p.startswith(t.span + ".") for p in prefixes)
    )


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced chain: timings in s, counts, ratios."""
    selfs = self_times(tracer.spans)
    out = {}
    for metric, (prefixes, kind) in TIMINGS.items():
        total = 0.0
        for s in tracer.spans:
            if s.name.startswith(prefixes):
                total += selfs[s.id] if kind == "self" else s.duration
        out[metric] = total
    for key in COUNTS:
        out[key] = tracer.counts.get(key, 0.0)
    for key in MAXIMA:
        out[key] = tracer.maxima.get(key, 0.0)
    for caller in ("", "fit_", "gradcheck_"):
        clip_evals = tracer.counts.get(f"losses.{caller}clip_evals", 0.0)
        seconds = out[f"losses.{caller}eval_s"]
        out[f"losses.{caller}us_per_clip_eval"] = seconds * 1e6 / clip_evals if clip_evals else 0.0
    steps = out["fit.steps"]
    evals = tracer.counts.get("fit.loss_evals", 0.0)
    out["fit.loss_evals_per_step"] = evals / steps if steps else 0.0
    return out


def command_self_times(tracer: Tracer) -> dict:
    """``cli.<command>`` -> its self time, summed over calls."""
    selfs = self_times(tracer.spans)
    out = defaultdict(float)
    for s in tracer.spans:
        if s.name.startswith("cli."):
            out[s.name] += selfs[s.id]
    return dict(out)


def dump(tracer: Tracer, path, extra: dict) -> None:
    """Write the spans and counts to ``path`` as JSON."""
    obj = {
        **extra,
        "missing": list(tracer.missing),
        "counts": dict(tracer.counts),
        "maxima": dict(tracer.maxima),
        "spans": [[s.id, s.name, s.start, s.end, s.parent] for s in tracer.spans],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)
