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


def _concept_sets(groups) -> list:
    """``frozenset(str(c) for c in g)`` for each group of concepts, in order.

    A run of equal groups of strings shares one frozenset, so a scene's clips
    cost one set between them.  A group holding anything but strings is
    never shared: 1, 1.0 and True are equal but print differently.
    """
    sets = []
    run = shared = None
    for group in groups:
        if run is None or group != run:
            shared = frozenset(str(c) for c in group)
            run = group if all(isinstance(c, str) for c in group) else None
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
        if not isinstance(self.num_clips, (int, np.integer)) or self.num_clips < 1:
            raise ValueError(f"num_clips must be a positive integer, got {self.num_clips!r}")
        if self.num_clips > MAX_CLIPS:
            raise ValueError(f"{self.num_clips} clips exceed the limit of {MAX_CLIPS} (MAX_CLIPS)")
        _set(self, "num_clips", int(self.num_clips))
        _set(self, "clip_len", float(self.clip_len))
        if not math.isfinite(self.clip_len) or self.clip_len <= 0:
            raise ValueError(f"clip_len must be positive and finite, got {self.clip_len!r}")

    @classmethod
    def from_duration(cls, duration: float, clip_len: float) -> "ClipTimeline":
        """Grid covering ``duration`` seconds; a trailing partial clip is dropped.

        The clip count is the largest n >= 1 whose grid end, ``n * clip_len`` as
        ``duration`` computes it, does not pass ``duration``; so a grid's own
        duration gives back its clip count.
        """
        duration = float(duration)
        if not math.isfinite(duration) or duration <= 0:
            raise ValueError(f"duration must be positive and finite, got {duration!r}")
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
        _set(self, "start", float(self.start))
        _set(self, "end", float(self.end))
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise ValueError(f"interval endpoints must be finite, got ({self.start}, {self.end})")
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
        _set(self, "score", float(self.score))
        if not math.isfinite(self.score):
            raise ValueError(f"score must be finite, got {self.score!r}")


def _check_layout(name: str, first: np.ndarray, offsets: np.ndarray, saliency: np.ndarray):
    """The per-clip layout of labels and predictions: (L,), (L, 2) and (L,) arrays."""
    if first.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {first.shape}")
    n = first.shape[0]
    if offsets.shape != (n, 2):
        raise ValueError(f"offsets shape {offsets.shape} does not match ({n}, 2)")
    if saliency.shape != (n,):
        raise ValueError(f"saliency shape {saliency.shape} does not match ({n},)")


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
        f = np.array(self.foreground)
        d = np.array(self.offsets, dtype=np.float64)
        s = np.array(self.saliency, dtype=np.float64)
        _check_layout("foreground", f, d, s)
        if not np.isin(f, (0, 1)).all():
            raise ValueError("foreground entries must be 0 or 1")
        f = f.astype(np.int8)
        if not (np.isfinite(d).all() and np.isfinite(s).all()):
            raise ValueError("offsets and saliency must be finite")
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
        if not isinstance(self.text, str) or not self.text:
            raise ValueError("query text must be a non-empty string")
        if self.kind not in QUERY_KINDS:
            raise ValueError(f"unknown query kind {self.kind!r}; expected one of {QUERY_KINDS}")


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
        x = np.array(self.foreground_logits, dtype=np.float64)
        d = np.array(self.offsets, dtype=np.float64)
        s = np.array(self.saliency, dtype=np.float64)
        _check_layout("foreground_logits", x, d, s)
        if not (np.isfinite(x).all() and np.isfinite(d).all() and np.isfinite(s).all()):
            raise ValueError("predictions must be finite")
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
        if not isinstance(self.video_id, str) or not self.video_id:
            raise ValueError("video_id must be a non-empty string")
        if self.source_kind not in SOURCE_KINDS:
            raise ValueError(
                f"unknown source kind {self.source_kind!r}; expected one of {SOURCE_KINDS}"
            )
        _check_clips(self.timeline, "label", len(self.label))
