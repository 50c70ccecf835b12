"""Turning raw per-clip predictions into task outputs.

Moment retrieval runs greedy interval NMS over per-clip candidates;
highlight detection ranks clips; video summarisation segments the timeline
with a kernel change-point dynamic program and then picks clips under a
length budget.
"""
from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (_AT_LEAST_1, _NON_NEGATIVE, _UNIT, ClipTimeline, GroundingWarning, Interval,
                   PredictionSet, ScoredInterval, _check_clips, _checked_array, _checked_number,
                   _one_of, _rank_order, _set, _spans)
from .losses import sigmoid
from .metrics import _iou_array

DEFAULT_NMS_THRESHOLD = 0.7
DEFAULT_MAX_SEGMENTS = 20
DEFAULT_MAX_SEGMENT_CLIPS = 200
DEFAULT_BUDGET_FRACTION = 0.02
DEFAULT_KTS_PENALTY = 1.0
DEFAULT_HIGHLIGHT_TOP_K = 1
_KTS_BLOCK = 256  # rows per band-minimum block of the KTS DP: its buffer stays in cache

HIGHLIGHT_MODES = ("f_plus_s", "f_only")
DEFAULT_HIGHLIGHT_MODE = "f_plus_s"
_HIGHLIGHT_MODE = _one_of(HIGHLIGHT_MODES)
SEGMENT_AGGREGATES = ("mean", "max")
DEFAULT_SEGMENT_AGGREGATE = "mean"
_SEGMENT_AGGREGATE = _one_of(SEGMENT_AGGREGATES)


class _Candidates(Sequence):
    """Per-clip candidate moments held as arrays; an item is built when it is read.

    ``nms_1d`` reads the arrays directly, so only the moments it keeps
    become ``ScoredInterval`` objects.
    """

    def __init__(self, start: np.ndarray, end: np.ndarray, scores: np.ndarray):
        self.start, self.end, self.scores = start, end, scores

    def __len__(self) -> int:
        return len(self.scores)

    def __getitem__(self, i) -> ScoredInterval:
        return ScoredInterval(Interval(self.start[i], self.end[i]), self.scores[i])


def nms_1d(
    candidates: Sequence[ScoredInterval],
    iou_threshold: float = DEFAULT_NMS_THRESHOLD,
    top_k: int | None = None,
) -> list[ScoredInterval]:
    """Greedy non-maximum suppression over scored intervals.

    Candidates are taken in order of descending score (ties: earlier start,
    then earlier input position); each kept candidate suppresses everything
    overlapping it strictly above the IoU threshold.  The order is one
    ``lexsort`` of (-score, start, position), and each kept candidate but
    the last computes one IoU row against the candidates still alive after
    it, with ``temporal_iou``'s rules for zero-length intervals.  The loop
    stops once it holds ``top_k`` candidates (None: no limit); candidates
    are kept in rank order, so that is the first ``top_k`` of the full list.
    The result holds the input's own objects; ``decode_moments``'s lazy
    candidates build only the kept ones.
    """
    iou_threshold = _checked_number("iou_threshold", iou_threshold, float, _UNIT)
    if top_k is not None:
        top_k = _checked_number("top_k", top_k, int, _AT_LEAST_1)
    if isinstance(candidates, _Candidates):
        cands, start, end, scores = candidates, candidates.start, candidates.end, candidates.scores
    else:
        cands = list(candidates)
        if any(not isinstance(c, ScoredInterval) for c in cands):
            raise ValueError("candidates must be ScoredInterval instances")
        start = np.array([c.interval.start for c in cands])
        end = np.array([c.interval.end for c in cands])
        scores = np.array([c.score for c in cands])
    order = np.lexsort((np.arange(len(cands)), start, -scores))
    kept = []
    while order.size:
        i, order = order[0], order[1:]
        kept.append(cands[i])
        if len(kept) == top_k:
            break
        # suppress IoU > threshold: the survivors overlap candidate i at most that much
        order = order[_iou_array(start[i], end[i], start[order], end[order]) <= iou_threshold]
    return kept


def decode_moments(
    pred: PredictionSet,
    timeline: ClipTimeline,
    iou_threshold: float = DEFAULT_NMS_THRESHOLD,
    top_k: int | None = None,
    use_saliency: bool = False,
) -> list[ScoredInterval]:
    """Ranked candidate moments from per-clip boundaries.

    Every clip proposes the interval spanned by its offsets (re-ordered if
    inverted, clamped to the video) scored by its foreground probability;
    ``use_saliency`` adds the saliency prediction to the score.  NMS then
    de-duplicates and stops after ``top_k`` moments (None: keeps all), which
    are the first ``top_k`` of the full NMS result.
    """
    _check_clips(timeline, "prediction", len(pred))
    _, _, lo, hi = _spans(timeline.timestamps(), pred.offsets)
    lo = np.clip(lo, 0.0, timeline.duration)
    hi = np.clip(hi, 0.0, timeline.duration)
    scores = highlight_scores(pred, "f_plus_s" if use_saliency else "f_only")
    return nms_1d(_Candidates(lo, hi, scores), iou_threshold, top_k)


def highlight_scores(pred: PredictionSet, mode: str = DEFAULT_HIGHLIGHT_MODE) -> np.ndarray:
    """Per-clip score: foreground probability, plus saliency in mode ``f_plus_s``.

    The one place clip scores are computed; moment and summary decoding call
    it too.
    """
    mode = _checked_number("mode", mode, str, _HIGHLIGHT_MODE)
    scores = sigmoid(pred.foreground_logits)
    if mode == "f_plus_s":
        scores = scores + pred.saliency
    return scores


def decode_highlights(pred: PredictionSet, mode: str = DEFAULT_HIGHLIGHT_MODE,
                      k: int = DEFAULT_HIGHLIGHT_TOP_K,
                      scores: np.ndarray | None = None) -> np.ndarray:
    """Indices of the top-k clips by highlight score, ties to earlier clips.

    A caller that already holds ``highlight_scores(pred, mode)`` passes it as
    ``scores`` so the clip scores are computed once.
    """
    k = _checked_number("k", k, int, _AT_LEAST_1)
    if scores is None:
        scores = highlight_scores(pred, mode)
    n = scores.shape[0]
    if k > n:
        warnings.warn(f"k={k} exceeds {n} clips; returning all ranked clips", GroundingWarning)
    return _rank_order(scores)[:k]


@dataclass(frozen=True)
class SegmentList:
    """Partition of [0, num_clips) into contiguous segments.

    ``change_points`` holds the interior segment starts in ascending order;
    an empty tuple means a single segment covering the whole video.
    """

    num_clips: int
    change_points: tuple

    def __post_init__(self):
        _set(self, "num_clips", _checked_number("num_clips", self.num_clips, int, _AT_LEAST_1))
        cps = tuple(_checked_number("change_points", c, int) for c in self.change_points)
        if any(not 0 < c < self.num_clips for c in cps):
            raise ValueError(f"change points must lie strictly inside (0, {self.num_clips})")
        if any(a >= b for a, b in zip(cps, cps[1:])):
            raise ValueError("change points must be strictly ascending")
        _set(self, "change_points", cps)

    @property
    def num_segments(self) -> int:
        return len(self.change_points) + 1

    def segments(self) -> tuple:
        """Half-open (start, end) clip ranges."""
        bounds = (0,) + self.change_points + (self.num_clips,)
        return tuple(zip(bounds[:-1], bounds[1:]))


def _scatter_band(gram: np.ndarray, width: int) -> np.ndarray:
    """Within-segment scatter of every segment up to ``width`` clips.

    Entry (i, w) is sum(K_jj) - sum(K_jk)/len over the segment [i, i+w];
    entries for segments that run past the last clip are ``inf``.
    """
    n = gram.shape[0]
    diag_csum = np.concatenate(([0.0], np.cumsum(np.diag(gram))))
    area = np.zeros((n + 1, n + 1))
    area[1:, 1:] = np.cumsum(np.cumsum(gram, axis=0), axis=1)
    band = np.full((n, width), np.inf)
    for w in range(width):
        i = np.arange(n - w)
        j = i + w
        trace = diag_csum[j + 1] - diag_csum[i]
        block = area[j + 1, j + 1] - area[i, j + 1] - area[j + 1, i] + area[i, i]
        band[i, w] = trace - block / (w + 1.0)
    return band


def _prefix_sums(features: np.ndarray) -> tuple:
    """Prefix sums of the feature rows and of their squared norms, each from a 0 row."""
    sums = np.zeros((features.shape[0] + 1, features.shape[1]))
    np.cumsum(features, axis=0, out=sums[1:])
    return sums, np.concatenate(([0.0], np.cumsum(np.einsum("ij,ij->i", features, features))))


def _feature_band(sums: np.ndarray, norm_csum: np.ndarray, width: int) -> np.ndarray:
    """``_scatter_band`` of the linear kernel F F^T, from F's ``_prefix_sums``.

    For a linear kernel the block sum over a segment is the squared norm of
    the segment's feature sum, and the trace is the sum of squared row
    norms, so prefix sums of the features give every entry in
    O(n * (width + dim)) memory.
    """
    n = sums.shape[0] - 1
    band = np.full((n, width), np.inf)
    for w in range(width):
        seg = sums[w + 1:] - sums[:n - w]
        trace = norm_csum[w + 1:] - norm_csum[:n - w]
        band[:n - w, w] = trace - np.einsum("ij,ij->i", seg, seg) / (w + 1.0)
    return band


def _kts_tables(band: np.ndarray, m_hi: int) -> tuple:
    """Suffix DP over a scatter band, for 0 to ``m_hi`` segments.

    Returns (cost, first_end): cost[m] is the least scatter splitting all
    clips into m segments (``inf`` if no split is feasible) and
    first_end[m, i] the end of the first segment of the least-scatter split
    of clips [i, n) into m segments, defined on the feasible rows.  For each
    m, row i of one band minimum holds the segments [i, i + l] for l < width,
    each plus the cost of splitting what follows it into m - 1 segments.
    ``argmin`` takes the first minimum, the shortest first segment.  Rows
    before n - m * width cannot be covered by m segments, so the minimum
    skips them; their cost stays ``inf`` and their first_end 0.  Only the
    cost row of m - 1 is kept, updated in place under one sliding window:
    the minimum runs over blocks of ``_KTS_BLOCK`` rows in ascending order,
    each summed into one reused (block, width) buffer, and a block's costs
    overwrite its own rows, which no later row reads (row i reads only the
    costs after i).  So beside the band the DP holds 4 bytes per clip and
    segment count (first_end is int32: a clip index stays below
    ``core.MAX_CLIPS``) and one small buffer.
    """
    n, width = band.shape
    prev = np.full(n + width, np.inf)  # columns past n stay inf: no such end
    prev[n] = 0.0
    window = sliding_window_view(prev[1:], width)  # row i: the costs after ends i + 1 ...
    cost = np.full(m_hi + 1, np.inf)
    first_end = np.zeros((m_hi + 1, n + 1), dtype=np.int32)
    starts = np.arange(n)
    totals = np.empty((min(n, _KTS_BLOCK), width))
    for m in range(1, m_hi + 1):
        for a in range(max(0, n - m * width), n, _KTS_BLOCK):
            b = min(a + _KTS_BLOCK, n)
            rows = totals[:b - a]
            np.add(band[a:b], window[a:b], out=rows)
            best = np.argmin(rows, axis=1)
            prev[a:b] = rows[starts[:b - a], best]
            first_end[m, a:b] = starts[a:b] + best + 1
        prev[n] = np.inf  # m >= 1 segments cannot cover zero clips
        cost[m] = prev[0]
    return cost, first_end


def kts_segment(
    features=None,
    gram=None,
    max_segments: int = DEFAULT_MAX_SEGMENTS,
    max_clips: int = DEFAULT_MAX_SEGMENT_CLIPS,
    penalty: float = DEFAULT_KTS_PENALTY,
    num_segments: int | None = None,
) -> SegmentList:
    """Kernel change-point segmentation of a clip sequence.

    Dynamic programming minimises total within-segment scatter of the
    kernel matrix for each candidate segment count; unless ``num_segments``
    pins the count, it is chosen by scatter plus the penalty
    ``penalty * m * (log(n / m) + 1)``.  Among equal-cost segmentations the
    lexicographically smallest change-point tuple wins.

    ``features`` use the linear kernel through their prefix sums, so no
    n x n matrix is built: memory is O(n * (max_clips + max_segments + dim)),
    about 8 * max_clips + 4 * max_segments bytes per clip for the band and
    the DP's first-segment ends.  A ``gram`` matrix is used as given.  For
    each segment count the DP takes one band minimum over the start
    positions that count can cover: the scatter band plus the shifted cost
    of the remaining segments, ``inf`` marking infeasible ends, summed in
    row blocks into one small buffer.
    ``argmin`` returns the first minimum, that is the shortest first
    segment, which is what keeps the lexicographic tie-break.
    """
    if (features is None) == (gram is None):
        raise ValueError("provide exactly one of features or gram")
    name, value = ("features", features) if gram is None else ("gram", gram)
    k = _checked_array(name, value, (None, None))  # one row per clip
    if gram is not None and (k.shape[0] != k.shape[1] or not np.allclose(k, k.T, atol=1e-8)):
        raise ValueError(f"gram matrix must be square and symmetric, got shape {k.shape}")
    max_segments = _checked_number("max_segments", max_segments, int, _AT_LEAST_1)
    max_clips = _checked_number("max_clips", max_clips, int, _AT_LEAST_1)
    penalty = _checked_number("penalty", penalty, float, _NON_NEGATIVE)
    if num_segments is not None:
        num_segments = _checked_number("num_segments", num_segments, int)
    n = k.shape[0]
    if n > max_segments * max_clips:
        raise ValueError(
            f"{n} clips cannot be covered by {max_segments} segments of at most {max_clips} clips"
        )
    width = min(max_clips, n)
    m_lo = math.ceil(n / width)
    m_hi = min(max_segments, n)
    if num_segments is not None:
        if not m_lo <= num_segments <= m_hi:
            raise ValueError(
                f"num_segments={num_segments} infeasible; must lie in [{m_lo}, {m_hi}]"
            )
        m_hi = num_segments
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        if gram is None:
            k = _prefix_sums(k)  # the band needs only these, so the checked features go first
        band = _feature_band(*k, width) if gram is None else _scatter_band(k, width)
        del k  # the DP needs only the band
        finite = 0
        mask = np.empty((min(n, _KTS_BLOCK), width), dtype=bool)  # one row block, not the band
        for a in range(0, n, _KTS_BLOCK):
            rows = band[a:a + _KTS_BLOCK]
            finite += np.count_nonzero(np.isfinite(rows, out=mask[:len(rows)]))
        if finite != width * n - width * (width - 1) // 2:
            raise ValueError("segment scatter overflows float64; scale the features down")
        # every count in [m_lo, m_hi] has a split, so an infinite cost is an overflow
        cost, first_end = _kts_tables(band, m_hi)
    if num_segments is not None:
        chosen = num_segments
    else:
        chosen = m_lo
        best_crit = np.inf
        for m in range(m_lo, m_hi + 1):
            crit = cost[m] + penalty * m * (math.log(n / m) + 1.0)
            if crit < best_crit:
                best_crit = crit
                chosen = m
    if not np.isfinite(cost[chosen]):
        raise ValueError(f"segment costs overflow float64 for {chosen} segments; "
                         "scale the features down")

    change_points = []
    i = 0
    for m in range(chosen, 1, -1):
        i = int(first_end[m, i])
        change_points.append(i)
    return SegmentList(n, tuple(change_points))


@dataclass(frozen=True)
class SummarySelection:
    """Budgeted clip selection plus per-segment scores."""

    clips: tuple
    segment_scores: tuple

    def __post_init__(self):
        _set(self, "clips", tuple(_checked_number("clips", c, int) for c in self.clips))
        _set(self, "segment_scores",
             tuple(_checked_number("segment_scores", s) for s in self.segment_scores))


def decode_summary(
    pred: PredictionSet,
    segments: SegmentList,
    budget_fraction: float = DEFAULT_BUDGET_FRACTION,
    segment_aggregate: str = DEFAULT_SEGMENT_AGGREGATE,
) -> SummarySelection:
    """Top clips by foreground probability under a proportional budget.

    The budget is max(1, floor(budget_fraction * num_clips)); clips are
    returned in rank order.  Segment scores aggregate the per-clip
    foreground probabilities within each segment.
    """
    budget_fraction = _checked_number("budget_fraction", budget_fraction, float, _UNIT)
    segment_aggregate = _checked_number("segment_aggregate", segment_aggregate, str,
                                        _SEGMENT_AGGREGATE)
    n = len(pred)
    if segments.num_clips != n:
        raise ValueError(f"segments cover {segments.num_clips} clips but prediction has {n}")
    scores = highlight_scores(pred, "f_only")
    budget = max(1, int(math.floor(budget_fraction * n)))
    ranked = _rank_order(scores)[:budget]
    reduce = np.mean if segment_aggregate == "mean" else np.max
    return SummarySelection(ranked, [reduce(scores[a:b]) for a, b in segments.segments()])
