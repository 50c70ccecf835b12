"""Conversions between annotation styles and the unified per-clip label.

Three source styles are supported: explicit target intervals, dense
saliency curves, and single timestamps.  Each converter emits a
:class:`~tgkit.core.UnifiedLabel` on the video's clip grid; ``intervals_of``
goes the other way by reading maximal foreground runs back as intervals.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (_UNIT, ClipTimeline, GroundingWarning, Interval, UnifiedLabel, _check_clips,
                   _checked_array, _checked_number, _frozen, _set)

DEFAULT_BIN_WIDTH = 0.05

# Quantisation guard: keeps values like 0.30 / 0.05 (= 5.999...96 in binary
# floating point) in their mathematical bin.
_BIN_EPS = 1e-9

# A curve whose maximum bin is the zero bin can mark a zero-valued clip as
# foreground; its saliency is floored to keep the label's f=1 => s>0 coupling.
_MIN_FOREGROUND_SALIENCY = 1e-9


@dataclass(frozen=True)
class PointAnnotation:
    """Timestamps of single-moment annotations, sorted and de-duplicated."""

    timestamps: tuple

    def __post_init__(self):
        ts = _checked_array("timestamps", self.timestamps, (None,))
        if (ts < 0).any():
            raise ValueError("timestamps must be non-negative")
        _set(self, "timestamps", tuple(sorted(set(ts.tolist()))))

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True, eq=False)
class CurveAnnotation:
    """Dense per-clip relevance curve with values in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        v = _checked_array("curve", self.values, (None,))
        if (v < 0).any() or (v > 1).any():
            raise ValueError("curve values must lie in [0, 1]")
        _set(self, "values", _frozen(v))

    def __len__(self) -> int:
        return self.values.shape[0]


def _runs(mask: np.ndarray, clip_len: float) -> list[tuple[int, int, Interval]]:
    """Maximal runs of True clips as (first, stop, interval).

    ``stop`` is exclusive; the interval is the run's clip-aligned span
    [first * clip_len, stop * clip_len].
    """
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    return [(int(a), int(b), Interval(a * clip_len, b * clip_len))
            for a, b in zip(edges[::2], edges[1::2])]


def _check_inside(timeline: ClipTimeline, annotation, duration: float | None = None) -> None:
    """Refuse intervals, a ``PointAnnotation`` or a ``CurveAnnotation`` that leaves its video.

    Times must lie in [0, end], where end is the grid's end or, if later,
    the declared ``duration``: the grid drops a trailing partial clip, so a
    declared duration may pass the grid's end by up to one clip.  A curve
    must hold one value per clip.
    """
    if isinstance(annotation, CurveAnnotation):
        _check_clips(timeline, "curve", len(annotation))
        return
    end = (timeline.duration if duration is None
           else max(timeline.duration, _checked_number("duration", duration)))
    if isinstance(annotation, PointAnnotation):
        for t in annotation.timestamps:
            if t > end:
                raise ValueError(f"timestamp {t} exceeds the video duration {end}")
        return
    for iv in annotation:
        if iv.start < 0 or iv.end > end:
            raise ValueError(f"interval [{iv.start}, {iv.end}] exceeds the video [0, {end}]")


def _to_grid(t: float, timeline: ClipTimeline, what: str) -> float:
    """``t`` clipped to the grid's end, with a ``GroundingWarning`` if that moves it."""
    if t <= timeline.duration:
        return t
    warnings.warn(f"{what} passes the clip grid's end {timeline.duration}; clipped to it",
                  GroundingWarning)
    return timeline.duration


def from_intervals(
    timeline: ClipTimeline, intervals: Sequence[Interval], duration: float | None = None
) -> UnifiedLabel:
    """Label from explicit target intervals.

    A clip is foreground when its centre falls inside any interval; its
    offsets point at the covering interval whose centre is nearest (ties go
    to the earlier start, then the earlier end, then the earlier interval).
    Foreground saliency is the constant 1.0; the interval style carries no
    graded relevance of its own.

    ``duration`` is the video's declared length.  An interval that ends
    between the grid's end and it is clipped to the grid with one
    ``GroundingWarning``; only an interval past the declared length is an
    error.  Without it the grid's end is the limit.
    """
    intervals = [iv if isinstance(iv, Interval) else Interval(*iv) for iv in intervals]
    _check_inside(timeline, intervals, duration)
    on_grid = []
    for iv in intervals:
        hi = _to_grid(iv.end, timeline, f"interval [{iv.start}, {iv.end}]")
        on_grid.append(Interval(min(iv.start, hi), hi))
    if not on_grid:
        warnings.warn("empty interval list; label is all background", GroundingWarning)
    t = timeline.timestamps()
    nearest = np.full(t.shape, np.inf)
    starts = np.zeros(t.shape)
    ends = np.zeros(t.shape)
    # In (start, end) order, with a stable sort, a later interval takes a clip only
    # when its centre is strictly nearer: so the nearest wins, then the earlier
    # start, end and input position.
    for iv in sorted(on_grid):
        dist = np.abs(iv.center - t)
        take = (iv.start <= t) & (t <= iv.end) & (dist < nearest)
        nearest[take] = dist[take]
        starts[take] = iv.start
        ends[take] = iv.end
    fg = nearest < np.inf
    if on_grid and not fg.any():
        warnings.warn("no clip centre falls inside any interval; label is all background",
                      GroundingWarning)
    d = np.where(fg[:, None], np.stack((t - starts, ends - t), axis=1), 0.0)
    return UnifiedLabel(fg, d, fg.astype(np.float64))


def bin_index(values, bin_width: float = DEFAULT_BIN_WIDTH) -> np.ndarray:
    """Quantised bin of each curve value."""
    bin_width = _checked_number("bin_width", bin_width, float, _UNIT)
    v = _checked_array("values", values, (None,))
    return np.floor(v / bin_width + _BIN_EPS).astype(np.int64)


def from_curve(timeline: ClipTimeline, curve, bin_width: float = DEFAULT_BIN_WIDTH) -> UnifiedLabel:
    """Label from a dense relevance curve.

    The curve is quantised into ``bin_width`` bins; clips sharing the maximal
    bin are foreground and their maximal runs form the target intervals.
    Saliency keeps the raw curve with background zeroed.
    """
    if not isinstance(curve, CurveAnnotation):
        curve = CurveAnnotation(curve)
    _check_inside(timeline, curve)
    values = curve.values
    bins = bin_index(values, bin_width)
    fg = bins == bins.max()
    n = timeline.num_clips
    d = np.zeros((n, 2), dtype=np.float64)
    s = np.zeros(n, dtype=np.float64)
    t = timeline.timestamps()
    for first, stop, run in _runs(fg, timeline.clip_len):
        d[first:stop, 0] = t[first:stop] - run.start
        d[first:stop, 1] = run.end - t[first:stop]
    s[fg] = np.maximum(values[fg], _MIN_FOREGROUND_SALIENCY)
    return UnifiedLabel(fg, d, s)


def from_points(
    timeline: ClipTimeline, points, duration: float | None = None
) -> list[UnifiedLabel]:
    """One label per annotated timestamp.

    Each timestamp is widened into a symmetric window whose span is the mean
    gap between consecutive timestamps (twice the clip length when only one
    timestamp exists), clamped to the video.  ``duration`` works as in
    ``from_intervals``: a timestamp between the grid's end and it is
    clipped to the grid with one ``GroundingWarning``.
    """
    if not isinstance(points, PointAnnotation):
        points = PointAnnotation(tuple(points))
    _check_inside(timeline, points, duration)
    ts = [_to_grid(t, timeline, f"timestamp {t}") for t in points.timestamps]
    if len(ts) >= 2:
        span = float(np.mean(np.diff(ts)))
    else:
        span = 2.0 * timeline.clip_len
    labels = []
    for p in ts:
        window = Interval(max(0.0, p - span / 2), min(timeline.duration, p + span / 2))
        labels.append(from_intervals(timeline, [window]))
    return labels


def intervals_of(timeline: ClipTimeline, label: UnifiedLabel) -> list[Interval]:
    """Maximal foreground runs read back as clip-aligned intervals."""
    _check_clips(timeline, "label", len(label))
    return [run for _, _, run in _runs(label.foreground == 1, timeline.clip_len)]
