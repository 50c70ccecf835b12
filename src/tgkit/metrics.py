"""Evaluation metrics for moments, highlights, and summaries.

All metrics are deterministic: ranking ties resolve to the earlier clip or
prediction, and matching problems are solved exactly rather than greedily
approximated (except for moment detection, whose score-order greedy match
is itself the protocol).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .core import (_AT_LEAST_1, _NON_NEGATIVE, _UNIT, Interval, ScoredInterval, _checked_array,
                   _checked_number, _concept_sets, _rank_order, _set)

DEFAULT_MAP_THRESHOLDS = (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)
DEFAULT_RECALL_THRESHOLDS = (0.3, 0.5, 0.7)
DEFAULT_RECALL_K = 1


def temporal_iou(a: Interval, b: Interval) -> float:
    """Intersection over union of two intervals.

    Two identical zero-length intervals count as a perfect match (1.0);
    disjoint zero-length intervals count as 0.0.
    """
    return float(_iou_array(a.start, a.end, b.start, b.end))


def _iou_array(start, end, starts, ends) -> np.ndarray:
    """``temporal_iou`` of every pair of broadcast arrays of endpoints."""
    inter = np.maximum(0.0, np.minimum(end, ends) - np.maximum(start, starts))
    union = (end - start) + (ends - starts) - inter
    same = (start == starts) & (end == ends)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0, inter / union, np.where(same, 1.0, 0.0))


def _item_ious(predictions, ground_truths) -> np.ndarray:
    """IoU of every scored prediction (rows) with every ground-truth interval (columns)."""
    return _iou_array(
        np.array([p.interval.start for p in predictions])[:, None],
        np.array([p.interval.end for p in predictions])[:, None],
        np.array([g.start for g in ground_truths]),
        np.array([g.end for g in ground_truths]),
    )


@dataclass(frozen=True, eq=False)
class MomentEvalItem:
    """Ranked moment predictions and ground truths for one query."""

    query_id: str
    predictions: tuple
    ground_truths: tuple

    def __post_init__(self):
        preds = tuple(self.predictions)
        gts = tuple(self.ground_truths)
        if any(not isinstance(p, ScoredInterval) for p in preds):
            raise ValueError("predictions must be ScoredInterval instances")
        if any(not isinstance(g, Interval) for g in gts):
            raise ValueError("ground truths must be Interval instances")
        # normalise to rank order; caller order breaks score ties
        order = _rank_order([p.score for p in preds])
        _set(self, "predictions", tuple(preds[i] for i in order))
        _set(self, "ground_truths", gts)


@dataclass(frozen=True, eq=False)
class HighlightEvalItem:
    """Per-clip scores and binary relevance for one query."""

    query_id: str
    clip_scores: np.ndarray
    gt_positive: np.ndarray

    def __post_init__(self):
        scores = _checked_array("clip_scores", self.clip_scores, (None,))
        positive = _checked_array("gt_positive", self.gt_positive, scores.shape)
        if not np.isin(positive, (0, 1)).all():
            raise ValueError("gt_positive entries must be binary")
        scores.setflags(write=False)
        positive = positive.astype(bool)
        positive.setflags(write=False)
        _set(self, "clip_scores", scores)
        _set(self, "gt_positive", positive)

    @property
    def num_positives(self) -> int:
        return int(self.gt_positive.sum())


@dataclass(frozen=True)
class SummaryEvalItem:
    """Selected clips, reference clips, and the per-clip concept map of one query.

    ``query_id`` names the item in error messages.
    """

    predicted_clips: tuple
    gt_clips: tuple
    clip_concepts: Mapping[int, frozenset]
    query_id: str = ""

    def __post_init__(self):
        pred = tuple(sorted({_checked_number("predicted_clips", i, int, _NON_NEGATIVE)
                             for i in self.predicted_clips}))
        gt = tuple(sorted({_checked_number("gt_clips", i, int, _NON_NEGATIVE)
                           for i in self.gt_clips}))
        keys = list(self.clip_concepts)
        if set(map(type, keys)) - {int}:  # plain ints, as the CLI's maps hold, pass as they are
            keys = [_checked_number("clip_concepts key", i, int) for i in keys]
        concepts = dict(zip(keys, _concept_sets(self.clip_concepts.values())))
        missing = [i for i in pred + gt if i not in concepts]
        if missing:
            raise ValueError(f"concept map missing clips {sorted(set(missing))}")
        _set(self, "predicted_clips", pred)
        _set(self, "gt_clips", gt)
        _set(self, "clip_concepts", concepts)


class RecallResult(NamedTuple):
    recall: dict
    miou: float


class QfvsScore(NamedTuple):
    precision: float
    recall: float
    f1: float


def _checked_thresholds(items: Sequence[MomentEvalItem], thresholds, what: str) -> tuple:
    """``thresholds`` as floats, once each lies in (0, 1] and none repeats.

    Zero items, or an item without a ground truth, is refused too.
    """
    thresholds = tuple(_checked_number("thresholds", t, float, _UNIT) for t in thresholds)
    if len(set(thresholds)) < len(thresholds):
        raise ValueError(f"thresholds must not repeat, got {thresholds}")
    if not items:
        raise ValueError(f"{what} over zero items is undefined")
    for item in items:
        if not item.ground_truths:
            raise ValueError(f"item {item.query_id!r} has no ground truths")
    return thresholds


def recall_at_k(
    items: Sequence[MomentEvalItem],
    k: int = DEFAULT_RECALL_K,
    thresholds: Sequence[float] = DEFAULT_RECALL_THRESHOLDS,
) -> RecallResult:
    """Recall@k over IoU thresholds, plus mean top-1 IoU.

    An item counts as recalled at threshold t when any of its first k
    predictions reaches IoU >= t against any ground truth.  mIoU averages
    each item's best IoU between the single top prediction and its ground
    truths; items without predictions contribute 0.
    """
    k = _checked_number("k", k, int, _AT_LEAST_1)
    thresholds = _checked_thresholds(items, thresholds, "recall")
    hits = {t: 0 for t in thresholds}
    iou_sum = 0.0
    for item in items:
        # best IoU of each of the first k predictions, in rank order
        best = _item_ious(item.predictions[:k], item.ground_truths).max(axis=1).tolist()
        for t in thresholds:
            hits[t] += any(iou >= t for iou in best)
        if best:
            iou_sum += best[0]
    n = len(items)
    return RecallResult({t: hits[t] / n for t in thresholds}, iou_sum / n)


def _average_precision(tp_flags: Sequence[bool], num_positive: int) -> float:
    """Exact area under the precision-recall staircase; ``num_positive`` is at least 1."""
    ap = 0.0
    tp = 0
    for rank, flag in enumerate(tp_flags, start=1):
        if flag:
            tp += 1
            ap += tp / rank
    return ap / num_positive


def moment_map(
    items: Sequence[MomentEvalItem],
    thresholds: Sequence[float] = DEFAULT_MAP_THRESHOLDS,
) -> dict:
    """Detection mAP over a threshold sweep.

    Per item and threshold, predictions are matched greedily in rank order
    to the unmatched ground truth of highest IoU; a match at or above the
    threshold is a true positive.  AP is the exact area under the
    precision-recall staircase; mAP averages over items, and the headline
    number averages mAP over thresholds.
    """
    thresholds = _checked_thresholds(items, thresholds, "mAP")
    aps = {t: [] for t in thresholds}
    for item in items:
        ious = _item_ious(item.predictions, item.ground_truths).tolist()  # for every threshold
        for t in thresholds:
            matched = [False] * len(item.ground_truths)
            flags = []
            for row in ious:
                best_iou = -1.0
                best_gt = -1
                for g, iou in enumerate(row):
                    if not matched[g] and iou > best_iou:
                        best_iou = iou
                        best_gt = g
                if best_gt >= 0 and best_iou >= t:
                    matched[best_gt] = True
                    flags.append(True)
                else:
                    flags.append(False)
            aps[t].append(_average_precision(flags, len(item.ground_truths)))
    per_threshold = {t: float(np.mean(aps[t])) for t in thresholds}
    return {
        "map_per_threshold": per_threshold,
        "average_map": float(np.mean(list(per_threshold.values()))),
    }


def hit_at_1(items: Sequence[HighlightEvalItem]) -> float:
    """Fraction of items whose single top-scored clip is a positive.

    Ranking AP at depth 1, whose recall denominator is min(1, positives) = 1:
    an item scores 1 when its top clip is positive, else 0.  Like the other
    highlight metrics it refuses an item without a positive clip.
    """
    return _ranking_map(items, "hit_at_1", depth=1)


def _ranking_map(items: Sequence[HighlightEvalItem], what: str, depth: int | None = None) -> float:
    """Mean AP of each item's clip ranking, scored down to ``depth`` ranks.

    With a ``depth`` the recall denominator is min(depth, number of positives).
    """
    if not items:
        raise ValueError(f"{what} over zero items is undefined")
    aps = []
    for item in items:
        if item.num_positives == 0:
            raise ValueError(f"item {item.query_id!r} has no positive clips")
        flags = item.gt_positive[_rank_order(item.clip_scores)[:depth]]
        positives = item.num_positives if depth is None else min(depth, item.num_positives)
        aps.append(_average_precision(flags.tolist(), positives))
    return float(np.mean(aps))


def highlight_map(items: Sequence[HighlightEvalItem]) -> float:
    """Mean average precision of the per-clip ranking against binary relevance."""
    return _ranking_map(items, "highlight mAP")


def top5_map(items: Sequence[HighlightEvalItem]) -> dict:
    """mAP truncated at rank 5.

    Only the first five ranked clips are scored and the recall denominator
    is min(5, number of positives).  The exact historical protocol for this
    number is underdocumented, so the report carries a provenance flag.
    """
    return {"top5_map": _ranking_map(items, "top-5 mAP", depth=5), "protocol": "reconstructed"}


def _match_rows(cost: np.ndarray) -> np.ndarray:
    """A minimum-cost matching that matches every row of ``cost``.

    The Hungarian potentials algorithm, one augmenting-path search per row,
    for its one caller, ``max_weight_matching``.  ``cost`` is 1-based, of
    shape (rows + 1, cols + 1) with rows <= cols: its row 0 is never read,
    and its column 0, all zeros, is the virtual column that starts each
    search.  Returns ``match_col``, where ``match_col[j]`` is the row
    matched to column j (0 for none); entry 0 is scratch.

    Each step of a search updates every free column's slack as one array
    operation and moves to the free column of least slack, the first one on
    ties, so tied costs always give the same matching.  The arithmetic is
    ``cost``'s: float64, or Python ints in an object array.  On integer
    costs in [-L, 0] every potential stays within rows * L and every slack
    within (2 * rows + 1) * L of zero (a search moves each potential by at
    most L): the bound behind ``max_weight_matching``'s exactness condition.
    """
    rows, cols = cost.shape[0] - 1, cost.shape[1] - 1
    # A used column's slack is never read again, so it is held at inf: each
    # search reads v through v_free, in which a used column (the virtual one
    # from the first step) holds -inf.  argmin's first minimum over the
    # slacks then picks the column a left-to-right scan with a strict < would
    # pick.  A zero delta would change the potentials and slacks by at most
    # the sign of a zero, which no comparison sees and no caller reads (the
    # matching comes from match_col), so that update is skipped.
    inf = np.inf
    if cost.dtype == object:
        # Python ints of any size meet this infinity without turning into
        # floats (an int past 2**1024 cannot be added to float inf).  Loading
        # decimal costs a process 0.4 MB, so only this path imports it.
        from decimal import Decimal
        inf = Decimal("Infinity")
    u = np.zeros(rows + 1, dtype=cost.dtype)
    v = np.zeros(cols + 1, dtype=cost.dtype)
    match_col = np.zeros(cols + 1, dtype=np.int64)
    way = np.zeros(cols + 1, dtype=np.int64)
    cur = np.empty(cols + 1, dtype=cost.dtype)
    better = np.empty(cols + 1, dtype=bool)
    for i in range(1, rows + 1):
        match_col[0] = i
        j0 = 0
        minv = np.full(cols + 1, inf, dtype=cost.dtype)
        used = np.zeros(cols + 1, dtype=bool)
        v_free = v.copy()
        for _ in range(cols + 1):  # each step uses one more column
            used[j0] = True
            minv[j0] = inf
            v_free[j0] = -inf
            i0 = match_col[j0]
            np.subtract(cost[i0], u[i0], out=cur)
            cur -= v_free
            np.less(cur, minv, out=better)
            np.copyto(minv, cur, where=better)
            np.copyto(way, j0, where=better)
            j1 = int(minv.argmin())
            delta = minv[j1]
            if delta != 0:
                u[match_col[used]] += delta
                v[used] -= delta
                minv -= delta
            j0 = j1
            if match_col[j0] == 0:
                break
        else:
            raise RuntimeError(f"search for row {i} took {cols + 1} steps and found no free column")
        while j0:
            j1 = way[j0]
            match_col[j0] = match_col[j1]
            j0 = j1
    return match_col


def max_weight_matching(weights) -> tuple:
    """Maximum-weight bipartite matching for non-negative weights.

    Returns (pairs, total): the matched (row, col) pairs of strictly
    positive weight, sorted, and their total in the weights' own
    arithmetic: float64, or Python ints when ``weights`` is an object array
    of them (any other object array is refused).  ``_match_rows`` runs one
    search per row of the smaller side, on the transpose when there are
    more rows than columns, with no padding rows.  The total is exact for
    integer weights: in float64 while
    (2 * min(rows, cols) + 1) * max(weights) <= 2**53, as Python ints at
    any size.  Then every optimal matching has that total, whichever tied
    pairs come out; on other floats it is optimal up to rounding.
    """
    python_ints = isinstance(weights, np.ndarray) and weights.dtype == object
    if python_ints and not all(type(x) is int for x in weights.flat):
        raise ValueError("an object array of weights must hold Python ints")
    w = weights if python_ints else np.asarray(weights, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError(f"weights must be 2-D, got shape {w.shape}")
    if (not python_ints and not np.isfinite(w).all()) or (w < 0).any():
        raise ValueError("weights must be finite and non-negative")
    flip = w.shape[0] > w.shape[1]  # a matching of the transpose weighs the same
    cost = np.zeros((min(w.shape) + 1, max(w.shape) + 1), dtype=w.dtype)
    cost[1:, 1:] = -(w.T if flip else w)  # minimise negated weight == maximise weight
    match_col = _match_rows(cost)
    cols = np.flatnonzero(match_col[1:])
    rows = match_col[cols + 1] - 1
    if flip:
        rows, cols = cols, rows
    matched = w[rows, cols]
    positive = matched > 0
    return sorted(zip(rows[positive].tolist(), cols[positive].tolist())), matched[positive].sum()


def _exact_matching_weight(row_sets: list, col_sets: list) -> float:
    """The maximum total concept IoU of a matching, correctly rounded.

    Each IoU |a & b| / |a | b| is rational.  With L the least common multiple
    of the union sizes of the pairs that share a concept, every weight
    |a & b| * (L / |a | b|) is an integer, so ``max_weight_matching``'s total
    is the exact optimum, the same for every optimal matching.  The weights
    are float64 while that is exact, Python ints past it.
    """
    kinds = {}  # clips of one scene share a concept set: count each distinct pair once
    row_kind = np.array([kinds.setdefault(s, len(kinds)) for s in row_sets])
    col_kind = np.array([kinds.setdefault(s, len(kinds)) for s in col_sets])
    distinct = list(kinds)
    inter = np.array([[len(a & b) for b in distinct] for a in distinct])
    size = inter.diagonal()
    inter = inter[np.ix_(row_kind, col_kind)]
    # a union is 0 only between two empty sets, whose weight is 0 whatever it divides
    union = np.maximum(size[row_kind, None] + size[col_kind] - inter, 1)
    scale = math.lcm(*set(union[inter > 0].tolist()))
    if (2 * min(len(row_sets), len(col_sets)) + 1) * scale <= 2**53:
        weights = (inter * (scale // union)).astype(np.float64)
    else:
        weights = inter.astype(object) * (scale // union.astype(object))
    return int(max_weight_matching(weights)[1]) / scale


def qfvs_f1(item: SummaryEvalItem) -> QfvsScore:
    """Concept-overlap F1 between a selected summary and the reference.

    Edge weights are concept-set IoUs between predicted and reference clips;
    an exact maximum-weight matching supplies the shared weight W, the
    correctly rounded exact optimum (``_exact_matching_weight``), giving
    precision W/|pred| and recall W/|gt|.  An item without reference clips is
    refused; an empty selection scores 0.
    """
    pred, gt = item.predicted_clips, item.gt_clips
    if not gt:
        raise ValueError(f"item {item.query_id!r} has no foreground clips")
    if not pred:
        return QfvsScore(0.0, 0.0, 0.0)
    total = _exact_matching_weight([item.clip_concepts[c] for c in pred],
                                   [item.clip_concepts[c] for c in gt])
    precision = total / len(pred)
    recall = total / len(gt)
    if precision + recall == 0:
        return QfvsScore(precision, recall, 0.0)
    return QfvsScore(precision, recall, 2 * precision * recall / (precision + recall))
