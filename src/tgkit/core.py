"""Shared clip-level data model for temporal grounding.

A video is a fixed-length grid of clips.  Every annotation style (moment
intervals, saliency curves, narration timestamps) is normalised onto that
grid as three aligned per-clip fields: a binary foreground indicator, a
pair of boundary offsets, and a saliency score.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

QUERY_KINDS = ("sentence", "title", "domain_name", "keywords", "concept")
SOURCE_KINDS = ("point", "interval", "curve")

# Most clips one timeline may hold: 10^7 is 116 days of 1-second clips, or
# 1e5 s of video on a 0.01 s grid.  Every command holds O(1) memory per clip,
# at most about 0.85 kB (fit), so one record at the bound needs at most about
# 8.5 GB and a 10^12-clip line is refused; docs/formats.md gives the figures.
MAX_CLIPS = 10_000_000


class GroundingWarning(UserWarning):
    """Legal but degenerate input (empty label, vacuous loss term, ...)."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _set(obj, name: str, value) -> None:
    # frozen dataclasses forbid plain attribute assignment in __post_init__
    object.__setattr__(obj, name, value)


def _is_real(value) -> bool:
    """An int or float, not a bool, inside the finite float range."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max)


# JSON value type -> (accepts the value, what the value must be); nothing is coerced
_JSON_TYPES = {
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    float: (_is_real, "a finite number"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    str: (lambda v: isinstance(v, str), "a string"),
}


def _check_type(name: str, value, rule: tuple) -> None:
    """Refuse ``value`` unless ``rule``, an entry of ``_JSON_TYPES`` or the like, accepts it."""
    accepts, kind = rule
    if not accepts(value):
        raise ValueError(f"{name} must be {kind}, got {value!r}")


# Range rules, (accepts the value, what the value must do), for _checked_number: one
# rule, so one comparison and one message, serves every scalar with that range.
def _at_least(low: int) -> tuple:
    return (lambda v: v >= low), f"be >= {low}"


def _one_of(choices: tuple) -> tuple:
    return (lambda v: v in choices), f"be {' or '.join(map(str, choices))}"


_POSITIVE = (lambda v: v > 0, "be positive")
_NON_NEGATIVE = (lambda v: v >= 0, "be non-negative")
_AT_LEAST_1 = _at_least(1)
_UNIT = (lambda v: 0 < v <= 1, "lie in (0, 1]")
_NON_EMPTY = (bool, "be non-empty")
_QUERY_KIND = _one_of(QUERY_KINDS)
_SOURCE_KIND = _one_of(SOURCE_KINDS)


def _checked_number(name: str, value, kind=float, rule: tuple | None = None):
    """``value`` as a Python ``kind`` once ``_JSON_TYPES[kind]``, then ``rule``, accepts it.

    ``kind`` is float, int or str.  A numpy scalar is read as its Python
    value, so ``np.int64`` and ``np.float32`` pass and ``np.bool_`` does not;
    a wrong type is ``_check_type``'s ``ValueError``.  ``rule`` is a range
    rule such as ``_POSITIVE`` or ``_one_of(choices)``, applied to the
    converted value; one it refuses raises ``<name> must <what>, got <value>``.
    """
    value = value.item() if isinstance(value, np.generic) else value
    _check_type(name, value, _JSON_TYPES[kind])
    value = kind(value)
    if rule is not None and not rule[0](value):
        raise ValueError(f"{name} must {rule[1]}, got {value!r}")
    return value


def _checked_array(name: str, value, shape: tuple) -> np.ndarray:
    """``value`` as a new float64 array of ``shape`` with finite entries, or a ``ValueError``.

    ``shape`` holds sizes; ``None`` is any size of at least 1 (``n``, ``m``
    and ``k`` in the message).  Booleans read as 0/1, and integers and floats
    as numpy converts them; a string entry, a complex number, ragged rows or
    any other entry numpy cannot read as a real number is refused.  Every
    refusal starts with ``name`` and prints at most the array's shape.
    """
    try:
        with np.errstate(invalid="ignore", over="ignore"):  # casting a float32 signalling NaN warns
            arr = np.array(value)
            kind = arr.dtype.kind
            if kind in "USc" or (kind == "O" and any(isinstance(v, (str, bytes))
                                                     for v in arr.flat)):
                raise TypeError
            arr = arr.astype(np.float64, copy=False)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int past float64
        raise ValueError(f"{name} must be an array of numbers") from None
    if len(arr.shape) != len(shape) or not all(
            size >= 1 if want is None else size == want for size, want in zip(arr.shape, shape)):
        letters = iter("nmk")
        sizes = ", ".join(next(letters) if want is None else str(want) for want in shape)
        raise ValueError(f"{name} must have shape ({sizes}{',' * (len(shape) == 1)}), "
                         f"got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def _concept_sets(groups) -> list:
    """``frozenset(g)`` for each group of concepts, in order.

    A group is a list, tuple or set of strings, never one string, which would
    read as the set of its characters; anything else is a ``ValueError``.  A
    run of equal groups shares one frozenset, so a scene's clips cost one set
    between them.
    """
    sets = []
    run = shared = None
    for group in groups:
        if run is None or group != run:
            if not (isinstance(group, (list, tuple, set, frozenset))
                    and all(isinstance(c, str) for c in group)):
                raise ValueError(f"a clip's concepts must be a list of strings, got {group!r}")
            shared = frozenset(group)
            run = group
        sets.append(shared)
    return sets


def _rank_order(scores) -> np.ndarray:
    """Indices sorted by descending score; the earlier index wins ties."""
    return np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")


def _spans(times, offsets):
    """Intervals that per-clip offsets span around the clip centres ``times``.

    ``offsets[..., 0]`` reaches back from each centre and ``offsets[..., 1]``
    forward.  Returns (start, end, lo, hi): start = t - d0, end = t + d1, and
    the same pair re-ordered so that lo <= hi.
    """
    start = times - offsets[..., 0]
    end = times + offsets[..., 1]
    return start, end, np.minimum(start, end), np.maximum(start, end)


@dataclass(frozen=True)
class ClipTimeline:
    """Uniform clip grid over one video."""

    num_clips: int
    clip_len: float

    def __post_init__(self):
        _set(self, "num_clips", _checked_number("num_clips", self.num_clips, int, _AT_LEAST_1))
        if self.num_clips > MAX_CLIPS:
            raise ValueError(f"{self.num_clips} clips exceed the limit of {MAX_CLIPS} (MAX_CLIPS)")
        _set(self, "clip_len", _checked_number("clip_len", self.clip_len, float, _POSITIVE))

    @classmethod
    def from_duration(cls, duration: float, clip_len: float) -> "ClipTimeline":
        """Grid covering ``duration`` seconds; a trailing partial clip is dropped.

        The clip count is the largest n >= 1 whose grid end, ``n * clip_len`` as
        ``duration`` computes it, does not pass ``duration``; so a grid's own
        duration gives back its clip count.
        """
        duration = _checked_number("duration", duration, float, _POSITIVE)
        clip_len = cls(1, clip_len).clip_len
        ratio = duration / clip_len  # may be one clip off that count
        if not math.isfinite(ratio):
            raise ValueError(f"duration {duration!r} over clip_len {clip_len!r} is not a clip count")
        n = int(ratio)
        if (n + 1) * clip_len <= duration:
            n += 1
        elif n > 1 and n * clip_len > duration:
            n -= 1
        return cls(max(1, n), clip_len)

    @property
    def duration(self) -> float:
        return self.num_clips * self.clip_len

    def timestamp(self, index: int) -> float:
        """Centre time of clip ``index``."""
        if not 0 <= index < self.num_clips:
            raise IndexError(f"clip index {index} out of range [0, {self.num_clips})")
        return (index + 0.5) * self.clip_len

    def timestamps(self) -> np.ndarray:
        """Centre times of all clips, shape (num_clips,)."""
        return _frozen((np.arange(self.num_clips) + 0.5) * self.clip_len)


def _check_clips(timeline: ClipTimeline, what: str, count: int) -> None:
    """Reject per-clip data (a label, prediction, curve, ...) without one entry per clip."""
    if count != timeline.num_clips:
        raise ValueError(f"{what} covers {count} clips but the timeline has {timeline.num_clips}")


@dataclass(frozen=True, order=True)
class Interval:
    """Closed time interval [start, end] in seconds."""

    start: float
    end: float

    def __post_init__(self):
        _set(self, "start", _checked_number("start", self.start))
        _set(self, "end", _checked_number("end", self.end))
        if self.start > self.end:
            raise ValueError(f"interval start {self.start} exceeds end {self.end}")

    @property
    def length(self) -> float:
        return self.end - self.start

    @property
    def center(self) -> float:
        return 0.5 * (self.start + self.end)


@dataclass(frozen=True, order=True)
class ScoredInterval:
    """Interval plus a confidence score; the unit moved around by decoding."""

    interval: Interval
    score: float

    def __post_init__(self):
        if not isinstance(self.interval, Interval):
            raise ValueError(f"interval must be an Interval, got {self.interval!r}")
        _set(self, "score", _checked_number("score", self.score))


@dataclass(frozen=True, eq=False)
class UnifiedLabel:
    """Per-clip grounding target.

    foreground: (L,) 0/1 indicator.
    offsets:    (L, 2) distances from the clip centre to the target interval's
                start and end; meaningful only where foreground is 1 and pinned
                to (0, 0) elsewhere.
    saliency:   (L,) relevance in [0, 1]; strictly positive on foreground
                clips, exactly 0 on background clips.
    """

    foreground: np.ndarray
    offsets: np.ndarray
    saliency: np.ndarray

    def __post_init__(self):
        f = _checked_array("foreground", self.foreground, (None,))
        d = _checked_array("offsets", self.offsets, (len(f), 2))
        s = _checked_array("saliency", self.saliency, (len(f),))
        if not np.isin(f, (0, 1)).all():
            raise ValueError("foreground entries must be 0 or 1")
        f = f.astype(np.int8)
        if (d < 0).any():
            raise ValueError("offsets must be non-negative")
        if (s < 0).any() or (s > 1).any():
            raise ValueError("saliency must lie in [0, 1]")
        bg = f == 0
        if (s[bg] != 0).any():
            raise ValueError("background clips must have saliency exactly 0")
        if (d[bg] != 0).any():
            raise ValueError("background clips must have offsets (0, 0)")
        if (s[~bg] <= 0).any():
            raise ValueError("foreground clips must have strictly positive saliency")
        _set(self, "foreground", _frozen(f))
        _set(self, "offsets", _frozen(d))
        _set(self, "saliency", _frozen(s))

    def __len__(self) -> int:
        return self.foreground.shape[0]

    @property
    def num_clips(self) -> int:
        return self.foreground.shape[0]

    @property
    def foreground_indices(self) -> np.ndarray:
        return np.flatnonzero(self.foreground == 1)

    def equals(self, other: "UnifiedLabel") -> bool:
        return (
            np.array_equal(self.foreground, other.foreground)
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.saliency, other.saliency)
        )


def boundary_of(timeline: ClipTimeline, label: UnifiedLabel, index: int) -> Interval:
    """Target interval reconstructed from clip ``index``'s offsets.

    Only defined on foreground clips; the result is clamped to the video.
    """
    _check_clips(timeline, "label", len(label))
    if not 0 <= index < timeline.num_clips:
        raise IndexError(f"clip index {index} out of range [0, {timeline.num_clips})")
    if label.foreground[index] != 1:
        raise ValueError(f"clip {index} is background; its offsets carry no boundary")
    start, end, _, _ = _spans(timeline.timestamp(index), label.offsets[index])
    return Interval(max(0.0, start), min(timeline.duration, end))


@dataclass(frozen=True)
class Query:
    """Free-form query text plus the kind of signal it represents."""

    text: str
    kind: str = "sentence"

    def __post_init__(self):
        _checked_number("query text", self.text, str, _NON_EMPTY)
        _checked_number("query kind", self.kind, str, _QUERY_KIND)


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """Raw per-clip model outputs prior to decoding.

    foreground_logits: (L,) unnormalised foreground scores.
    offsets:           (L, 2) predicted boundary offsets (unconstrained).
    saliency:          (L,) cosine-style relevance in [-1, 1].
    """

    foreground_logits: np.ndarray
    offsets: np.ndarray
    saliency: np.ndarray

    def __post_init__(self):
        x = _checked_array("foreground_logits", self.foreground_logits, (None,))
        d = _checked_array("offsets", self.offsets, (len(x), 2))
        s = _checked_array("saliency", self.saliency, (len(x),))
        if (s < -1).any() or (s > 1).any():
            raise ValueError("saliency predictions must lie in [-1, 1]")
        _set(self, "foreground_logits", _frozen(x))
        _set(self, "offsets", _frozen(d))
        _set(self, "saliency", _frozen(s))

    def __len__(self) -> int:
        return self.foreground_logits.shape[0]


@dataclass(frozen=True, eq=False)
class GroundTruthRecord:
    """One (video, query) supervision pair on a clip grid."""

    video_id: str
    timeline: ClipTimeline
    query: Query
    label: UnifiedLabel
    source_kind: str

    def __post_init__(self):
        _checked_number("video_id", self.video_id, str, _NON_EMPTY)
        _checked_number("source_kind", self.source_kind, str, _SOURCE_KIND)
        _check_clips(self.timeline, "label", len(self.label))
