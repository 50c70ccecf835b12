"""Training objectives with closed-form gradients.

Four families: a weighted binary cross-entropy on foreground indicators, a
boundary regression mixing smooth-L1 and 1-D generalised IoU, and two
temperature-scaled contrastive saliency terms (within one video and across
a batch).  Everything is plain numpy with hand-derived gradients; a central
finite-difference checker validates them at random non-kink points.

Each term has one implementation, a helper over a (B, L) batch of B videos
of L clips.  The weighted total evaluates all four in one masked pass
(``_total_loss_arrays``): the boundary terms are computed for the foreground
clips alone, a per-row pool offset (0 or -inf) leaves everything but each
positive's contrastive negatives out of its softmax, and the cross-video term
is a row-wise log-sum-exp.  Everything that depends on the labels alone is
validated and built once per batch in a ``_LossBatch``: the BCE's logit signs
and weights, the foreground clips' index, centres, target offsets, spans and
span lengths, foreground counts, contrastive pool offsets, the targets of both
InfoNCE terms with their 1/tau gradient shares, and the aggregation scales.
An evaluation then computes only what depends on the predictions, in as few
numpy calls as keep every bit of the frozen copy in ``tests/oracles.py``.
The batch also warns once per degenerate video when it is built.  The public
``foreground_loss``, ``boundary_loss``, ``saliency_intra_loss`` and
``saliency_inter_loss`` are B=1 calls into the same helpers and build their
label-side values the same way.

The helpers index with ``...`` and reduce over named trailing axes, so
every per-call array may carry extra leading axes: a problem axis P of
independent problems that share the fixed parts.  Each problem's value and
gradients equal those of its own call without the axis, bit for bit.  The
gradient checker stacks all its perturbed copies of one point on P and
evaluates them in one call; ``fit`` calls without it.

``fit`` holds the sentence embeddings fixed, so it passes their norms once
as ``fixed_sent_norms=`` and the kernel forms no sentence gradient; it also
passes ``out=``, three arrays the prediction gradients are written into.
Neither option changes a bit (see ``_total_loss_arrays``).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    _NON_NEGATIVE,
    _POSITIVE,
    ClipTimeline,
    GroundingWarning,
    Interval,
    PredictionSet,
    UnifiedLabel,
    _check_clips,
    _checked_array,
    _checked_number,
    _frozen,
    _one_of,
    _set,
    _spans,
)

DEFAULT_TAU = 0.07
DEFAULT_NEG_WEIGHT = 0.1
AGGREGATIONS = ("per_video", "per_clip")
DEFAULT_AGGREGATION = "per_video"
_AGGREGATION = _one_of(AGGREGATIONS)
# LossWeights field -> its range rule
_WEIGHT_RULES = {
    **dict.fromkeys(("lambda_f", "lambda_l1", "lambda_iou", "lambda_inter", "lambda_intra"),
                    _NON_NEGATIVE),
    "tau": _POSITIVE,
    "neg_weight": (lambda v: 0 <= v <= 1, "lie in [0, 1]"),
    "smooth_l1_beta": _POSITIVE,
}


@dataclass(frozen=True)
class LossWeights:
    """Scalar knobs shared by the loss family."""

    lambda_f: float = 1.0
    lambda_l1: float = 1.0
    lambda_iou: float = 1.0
    lambda_inter: float = 1.0
    lambda_intra: float = 1.0
    tau: float = DEFAULT_TAU
    neg_weight: float = DEFAULT_NEG_WEIGHT
    smooth_l1_beta: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            _set(self, f.name,
                 _checked_number(f.name, getattr(self, f.name), float, _WEIGHT_RULES[f.name]))


@dataclass(frozen=True, eq=False)
class LossReport:
    """Scalar loss plus gradients keyed by input name."""

    value: float
    gradients: dict
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        _set(self, "value", float(self.value))
        _set(self, "gradients", {k: _frozen(np.array(v, dtype=np.float64))
                                 for k, v in self.gradients.items()})

    def grad(self, name: str) -> np.ndarray:
        return self.gradients[name]


@dataclass(frozen=True, eq=False)
class EmbeddingBatch:
    """Clip and sentence embeddings for a batch of (video, query) pairs."""

    clip_embeddings: np.ndarray  # (B, L, D)
    sentence_embeddings: np.ndarray  # (B, D)

    def __post_init__(self):
        v = _checked_array("clip_embeddings", self.clip_embeddings, (None, None, None))
        s = _checked_array("sentence_embeddings", self.sentence_embeddings,
                           (v.shape[0], v.shape[2]))
        _row_norms(v)  # refuses a zero-norm row, as the loss kernel does
        _row_norms(s)
        _set(self, "clip_embeddings", _frozen(v))
        _set(self, "sentence_embeddings", _frozen(s))

    @property
    def batch_size(self) -> int:
        return self.clip_embeddings.shape[0]

    @property
    def num_clips(self) -> int:
        return self.clip_embeddings.shape[1]

    @property
    def dim(self) -> int:
        return self.clip_embeddings.shape[2]


def _sigmoid(x, e):
    """sigma(x) from ``e = exp(-|x|)``, which cannot overflow.

    It is 1 / (1 + e) where x >= 0 and e / (1 + e) elsewhere; the numerator
    max(e, [x >= 0]) is 1 on the first side, since e <= 1, and e on the
    other.  At x = 0 both forms give 1/2.
    """
    numerator = np.maximum(e, x >= 0.0)
    numerator /= 1.0 + e
    return numerator


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    return _sigmoid(x, np.exp(-np.abs(x)))


def _softplus(s, nax):
    """log(1 + e^s) from ``np.logaddexp(0, nax)``, ``nax = -|s|``.

    It is max(s, 0) plus that term and equals ``np.logaddexp(0, s)`` bit for
    bit: logaddexp adds log1p(exp(.)) of the same value to the same argument.
    (log1p(exp(-|s|)) through the vectorised ufuncs differs near 0.)  So one
    term serves s = x and s = -x alike.
    """
    out = np.maximum(s, 0.0)
    out += np.logaddexp(0.0, nax)
    return out


class _BCELabels(NamedTuple):
    """What the foreground term reads of its 0/1 targets ``f``; ``_bce_labels`` builds it.

    A clip's weighted BCE is ``weight * softplus(sign * x)``: -log sigma(x)
    where f = 1, ``neg_weight`` times -log sigma(-x) where f = 0.
    """

    sign: np.ndarray  # 1 - 2f
    weight: np.ndarray  # 1 where f = 1, neg_weight where f = 0
    grad_weight: np.ndarray  # -1 where f = 1, neg_weight where f = 0


def _bce_labels(f, w: LossWeights) -> _BCELabels:
    positive = f == 1
    return _BCELabels(1.0 - 2.0 * f, np.where(positive, 1.0, w.neg_weight),
                      np.where(positive, -1.0, w.neg_weight))


def _foreground_term(x, labels: _BCELabels, w: LossWeights):
    """Row means of the weighted BCE, shape (B,), and its gradient w.r.t. ``x``."""
    n = x.shape[-1]
    s = labels.sign * x
    nax = np.abs(x)
    np.negative(nax, out=nax)
    per_clip = _softplus(s, nax)
    per_clip *= labels.weight
    per_clip *= w.lambda_f
    grad = labels.grad_weight * _sigmoid(s, np.exp(nax))
    grad += 0.0  # -sigma that underflowed to -0 reads +0, as 0 - sigma does
    grad *= w.lambda_f
    grad /= n
    return np.add.reduce(per_clip, -1) / n, grad


def foreground_loss(logits, targets, weights: LossWeights = LossWeights()) -> LossReport:
    """Mean per-clip binary cross-entropy from logits.

    Background terms are down-weighted by ``weights.neg_weight`` so the
    scarce foreground class is not drowned out; the whole term is scaled by
    ``weights.lambda_f``.
    """
    x = _checked_array("logits", logits, (None,))
    f = _checked_array("targets", targets, x.shape)
    if not np.isin(f, (0.0, 1.0)).all():
        raise ValueError("targets must be 0 or 1")
    value, grad = _foreground_term(x[None], _bce_labels(f[None], weights), weights)
    return LossReport(float(value[0]), {"logits": grad[0]})


def smooth_l1(x, beta: float = 1.0):
    """Huber-style penalty and its derivative, elementwise.

    Quadratic inside |x| < beta, linear outside; the two branches meet with
    matching slope so only the curvature jumps at the seam.
    """
    beta = _checked_number("beta", beta, float, _POSITIVE)
    value, deriv = _smooth_l1(np.asarray(x, dtype=np.float64), beta)
    if value.ndim == 0:
        return float(value), float(deriv)
    return value, deriv


def _smooth_l1(x, beta: float):
    """``smooth_l1`` on a float array, without the checks.

    Both ``np.where`` branches are computed for every entry, so the quadratic
    one squares x clipped to [-beta, beta]: it cannot overflow where it is
    discarded, and where it is kept it equals 0.5 * x * x / beta bit for bit.
    The clipped x over beta is the derivative on both sides: x / beta inside,
    and exactly sign(x) outside.
    """
    ax = np.abs(x)
    q = np.minimum(np.maximum(x, -beta), beta)
    return np.where(ax < beta, 0.5 * q * q / beta, ax - 0.5 * beta), q / beta


def _smooth_l1_kink(x, beta: float) -> float:
    """Distance from the entries of ``x`` to the smooth-L1 seam |x| = beta."""
    return float(np.min(np.abs(np.abs(x) - beta)))


def _giou_endpoints(a_lo, a_hi, b_lo, b_hi, b_length=None):
    """Generalised IoU of ordered 1-D intervals and its partials w.r.t. ``a``, vectorised.

    Takes float arrays and returns (value, d/da_lo, d/da_hi).  The partials
    w.r.t. ``b`` are the ``a``-side partials of the swapped call
    ``_giou_endpoints(b_lo, b_hi, a_lo, a_hi)``, bit for bit: every step is
    symmetric in the two intervals.  Uses right-hand derivatives at ties;
    callers that need verified gradients must stay off the tie set.

    A pair is regular when its hull and union are both positive; only pairs
    of zero-length intervals are not: the union of two ordered intervals is
    positive unless both lengths are 0.  The formulas are written once: any
    other pair enters them with union and hull 1, so no division fails, and
    then takes its fixed value (1 for the same point twice, -1 for two
    points) and zero partials.  A batch of regular pairs, as in every ``fit``
    call, skips both steps.  A caller whose ``b`` stays fixed and has positive
    lengths ``b_hi - b_lo`` may pass them as ``b_length``: every pair is then
    regular without a check.
    """
    inter_raw = np.minimum(a_hi, b_hi) - np.maximum(a_lo, b_lo)
    live = inter_raw > 0.0
    inter = np.where(live, inter_raw, 0.0)
    u = a_hi - a_lo  # union
    u += b_hi - b_lo if b_length is None else b_length
    u -= inter
    h = np.maximum(a_hi, b_hi) - np.minimum(a_lo, b_lo)  # hull

    all_regular = b_length is not None or u.size == 0 or u.min() > 0
    if not all_regular:
        degenerate = h <= 0  # both intervals collapse to the same point
        regular = ~degenerate & (u > 0)  # the rest: two distinct degenerate points
        u, h = np.where(regular, u, 1.0), np.where(regular, h, 1.0)

    # On the regular set an endpoint's partial is di/u + du*(1/h - i/u^2) - dh*u/h^2,
    # from the partials di, du, dh of inter, union and hull, with du = +-1 - di.
    # d min(x, y)/dx = [x < y]; d max(x, y)/dx = [x >= y] (right-hand rules)
    value = inter / u - (h - u) / h
    k_u = 1.0 / h - inter / u**2
    k_iu = 1.0 / u - k_u
    k_h = u / h**2
    if not all_regular:
        value = np.where(regular, value, np.where(degenerate, 1.0, -1.0))
        k_u, k_iu, k_h = (np.where(regular, k, 0.0) for k in (k_u, k_iu, k_h))
    d_alo = k_h * (a_lo < b_lo) - k_u - k_iu * (live & (a_lo >= b_lo))
    d_ahi = k_u + k_iu * (live & (a_hi < b_hi)) - k_h * (a_hi >= b_hi)
    return value, d_alo, d_ahi


def _giou_kink(a_lo, a_hi, b_lo, b_hi) -> float:
    """Distance to where ``_giou_endpoints``' rules switch: equal starts or ends, touching."""
    inter_raw = np.minimum(a_hi, b_hi) - np.maximum(a_lo, b_lo)
    return float(min(np.min(np.abs(gap)) for gap in (a_hi - b_hi, a_lo - b_lo, inter_raw)))


def _giou_with_grads(a, b):
    """gIoU of (..., 2) endpoint arrays and its partials {"a": d/da, "b": d/db}, each (..., 2)."""
    value, d_alo, d_ahi = _giou_endpoints(a[..., 0], a[..., 1], b[..., 0], b[..., 1])
    _, d_blo, d_bhi = _giou_endpoints(b[..., 0], b[..., 1], a[..., 0], a[..., 1])
    return value, {"a": np.stack((d_alo, d_ahi), axis=-1), "b": np.stack((d_blo, d_bhi), axis=-1)}


def giou_1d(a: Interval, b: Interval) -> LossReport:
    """Generalised IoU of two intervals with endpoint gradients.

    Equals plain IoU minus the fraction of the covering hull not filled by
    the union; two identical zero-length intervals score 1.
    """
    value, grads = _giou_with_grads(np.array([a.start, a.end], dtype=np.float64),
                                    np.array([b.start, b.end], dtype=np.float64))
    return LossReport(float(value), grads)


class _BoundaryLabels(NamedTuple):
    """What the boundary term reads of its labels; ``_boundary_labels`` builds it.

    Only foreground clips are scored, so the per-clip arrays hold those
    clips alone, in C order of the foreground mask, whose shape is ``grid``:
    (L,) for one video or (B, L) for a batch.  The (F, 2) arrays match the
    clips' offsets in shape, so no evaluation broadcasts them.
    """

    grid: tuple
    index: np.ndarray  # (F,) the foreground clips on the flat grid
    times: np.ndarray  # (F, 2) clip centres, twice
    sides: np.ndarray  # (F, 2) -1 and 1: an interval is times + sides * offsets
    gt: np.ndarray  # (F, 2) target offsets
    gt_start: np.ndarray  # (F,) target spans
    gt_end: np.ndarray
    gt_length: np.ndarray | None  # (F,) their lengths, if every one is positive
    count: np.ndarray  # (B,) foreground counts floored at 1
    clip_count: np.ndarray  # (F, 2), each clip's row count


def _boundary_labels(times, gt, fg) -> _BoundaryLabels:
    index = np.flatnonzero(fg)
    count = np.maximum(fg.sum(axis=-1), 1.0)
    times, gt = times.reshape(-1)[index], gt.reshape(-1, 2)[index]
    gt_start, gt_end, _, _ = _spans(times, gt)
    length = gt_end - gt_start
    pair = np.ones_like(gt)
    return _BoundaryLabels(fg.shape, index, times[:, None] * pair, pair * (-1.0, 1.0), gt,
                           gt_start, gt_end, length if (length > 0).all() else None, count,
                           count[np.nonzero(fg)[:-1]][..., None] * pair)


def _foreground_offsets(d_hat, labels: _BoundaryLabels):
    """The foreground clips' rows of (..., *grid, 2) offsets, shape (..., F, 2)."""
    lead = d_hat.shape[:d_hat.ndim - len(labels.grid) - 1]
    return d_hat.reshape(lead + (-1, 2)).take(labels.index, axis=-2)


def _boundary_term(d_hat, labels: _BoundaryLabels, w: LossWeights):
    """Boundary loss per row, shape (B,), and its gradient w.r.t. ``d_hat``.

    ``d_hat`` holds (B, L, 2) offsets.  Only foreground clips are scored;
    each row is averaged over its own foreground count, and every other
    clip gets zero gradient.
    """
    d = _foreground_offsets(d_hat, labels)
    l1_val, l1_der = _smooth_l1(d - labels.gt, w.smooth_l1_beta)

    span = labels.sides * d
    span += labels.times  # start t - d0 and end t + d1
    start, end = span[..., 0], span[..., 1]
    g_val, dg_lo, dg_hi = _giou_endpoints(np.minimum(start, end), np.maximum(start, end),
                                          labels.gt_start, labels.gt_end, labels.gt_length)
    # chain through the ordering: start takes lo's partial where start < end, and
    # end takes it where end < start; every other endpoint takes hi's
    dg = np.where(span < span[..., ::-1], dg_lo[..., None], dg_hi[..., None])
    dg *= labels.sides

    # the sum of a row's two entries, as np.add.reduce forms it for entries >= 0
    fg_clip = l1_val[..., 0] + l1_val[..., 1]
    fg_clip *= w.lambda_l1
    fg_clip += w.lambda_iou * (1.0 - g_val)
    fg_grad = w.lambda_l1 * l1_der
    fg_grad -= w.lambda_iou * dg
    fg_grad /= labels.clip_count

    lead = d.shape[:-2]
    per_clip = np.zeros(lead + (math.prod(labels.grid),))
    per_clip[..., labels.index] = fg_clip
    grad = np.zeros(lead + (per_clip.shape[-1], 2))
    grad[..., labels.index, :] = fg_grad
    return (np.add.reduce(per_clip.reshape(lead + labels.grid), -1) / labels.count,
            grad.reshape(d_hat.shape))


def _boundary_kink(d_hat, labels: _BoundaryLabels, w: LossWeights) -> float:
    """Distance of (B, L, 2) offsets to the boundary term's kinks on the foreground clips.

    These are the smooth-L1 seams and, for gIoU, where a predicted interval
    flips its ordering or meets a ``_giou_kink`` tie with its target.
    """
    d = _foreground_offsets(d_hat, labels)
    dist = _smooth_l1_kink(d - labels.gt, w.smooth_l1_beta) if w.lambda_l1 > 0 else math.inf
    if w.lambda_iou > 0:
        pr_s, pr_e, lo, hi = _spans(labels.times[:, 0], d)
        dist = min(dist, float(np.min(np.abs(pr_s - pr_e))),
                   _giou_kink(lo, hi, labels.gt_start, labels.gt_end))
    return dist


def boundary_loss(
    pred_offsets,
    label: UnifiedLabel,
    timeline: ClipTimeline,
    weights: LossWeights = LossWeights(),
) -> LossReport:
    """Boundary regression over foreground clips.

    Per foreground clip: smooth-L1 on both offset residuals plus
    (1 - gIoU) between the reconstructed and target intervals, averaged
    over the foreground count.  Background rows receive zero gradient.
    Predicted intervals that come out inverted are re-ordered before the
    gIoU term so the loss stays defined for any real offsets.
    """
    d_hat = _checked_array("pred_offsets", pred_offsets, (timeline.num_clips, 2))
    _check_clips(timeline, "label", len(label))
    fg = label.foreground == 1
    count = int(fg.sum())
    if count == 0:
        warnings.warn("no foreground clips; boundary loss is vacuously 0", GroundingWarning)
    labels = _boundary_labels(timeline.timestamps()[None], label.offsets[None], fg[None])
    value, grad = _boundary_term(d_hat[None], labels, weights)
    return LossReport(float(value[0]), {"offsets": grad[0]}, {"foreground_count": count})


def _row_norms(x):
    """Euclidean norms of the rows of ``x`` (..., D); a zero row has no cosine and is refused."""
    n = np.sqrt(np.add.reduce(x * x, -1))
    if not n.all():
        raise ValueError("zero-norm embeddings have no cosine")
    return n


def _cosine_with_grads(v, s, nv, ns):
    """Cosine of every row of ``v`` against every row of ``s``, and its backward.

    ``v`` is (..., M, D) and ``s`` (..., N, D), with row norms ``nv`` (..., M)
    and ``ns`` (..., N) from ``_row_norms``: a caller that takes several
    cosines of the same rows computes their norms once.  The cosines are
    (..., M, N).  ``backward(g)`` takes their upstream gradient and returns
    the gradients w.r.t. ``v`` and ``s``; ``backward(g, s_grad=False)``
    skips the second and returns None in its place.  Since
    dcos/dv = s / (|v||s|) - cos * v / |v|^2, the gradient of ``v`` is the
    rows of ``s`` mixed by one factor per cosine minus ``v`` scaled by one
    factor per row, and likewise for ``s``; no per-element partials are
    formed.  ``backward(g, out=a)`` writes the gradient w.r.t. ``v`` into
    ``a`` and returns it.
    """
    nvs = nv[..., :, None] * ns[..., None, :]
    c = np.add.reduce(v[..., :, None, :] * s[..., None, :, :], -1) / nvs

    def backward(g, s_grad=True, out=None):
        a = g / nvs
        k = g * c
        # einsum rather than @: as fast at these sizes, and without a BLAS call,
        # whose buffers added about 1.5 MB to a training run's peak memory
        gv = np.subtract(np.einsum("...mn,...nd->...md", a, s),
                         (np.add.reduce(k, -1) / nv**2)[..., None] * v, out=out)
        if not s_grad:
            return gv, None
        gs = np.einsum("...mn,...md->...nd", a, v) - (np.add.reduce(k, -2) / ns**2)[..., None] * s
        return gv, gs

    return c, backward


def _row_cosines_with_grads(v, s, nv, ns):
    """Cosine of each row of ``v`` (..., M, D) against the one row ``s`` (..., D), and its backward.

    ``_cosine_with_grads`` for one row of ``s``, without that row's axis:
    the cosines are (..., M), and so is ``backward``'s upstream gradient.
    Every output has the same bits, although the gradient w.r.t. ``v``
    skips the sum of each cosine's factor over that one row: the sum only
    turns -0 into +0, and what the factor scales is subtracted from einsum's
    sum, which starts from +0 and so is never -0.
    """
    nvs = nv * ns[..., None]
    c = np.add.reduce(v * s[..., None, :], -1) / nvs

    def backward(g, s_grad=True, out=None):
        a = g / nvs
        k = g * c
        gv = np.subtract(np.einsum("...mn,...nd->...md", a[..., None], s[..., None, :]),
                         (k / nv**2)[..., None] * v, out=out)
        if not s_grad:
            return gv, None
        gs = np.einsum("...m,...md->...d", a, v) - (np.add.reduce(k, -1) / ns**2)[..., None] * s
        return gv, gs

    return c, backward


def saliency_cosines(emb: EmbeddingBatch) -> np.ndarray:
    """Cosine of every clip embedding against its own sentence, shape (B, L)."""
    v, s = emb.clip_embeddings, emb.sentence_embeddings
    return _row_cosines_with_grads(v, s, _row_norms(v), _row_norms(s))[0]


def _eligible(foreground):
    """Which clips may serve as a contrastive positive: the foreground clips.

    ``UnifiedLabel`` gives every foreground clip a positive saliency.
    """
    return foreground == 1


def sample_positive(label: UnifiedLabel, rng: np.random.Generator) -> int:
    """Uniformly pick a foreground clip."""
    eligible = np.flatnonzero(_eligible(label.foreground))
    if eligible.size == 0:
        raise ValueError("no foreground clip to serve as positive")
    return int(rng.choice(eligible))


def _contrastive_pools(foreground, saliency, positives):
    """(B, L) pools of each video's positive and every clip of strictly lower saliency.

    Rejects a positive that is not ``_eligible`` and warns once for each
    video whose positive has no negative.
    """
    rows = np.arange(len(positives))
    inside = (positives >= 0) & (positives < saliency.shape[-1])
    clips = np.where(inside, positives, 0)  # a negative index would wrap around
    eligible = inside & _eligible(foreground[rows, clips])
    if not eligible.all():
        v = int(np.flatnonzero(~eligible)[0])
        raise ValueError(f"clip {positives[v]} of video {v} is not an eligible positive")
    pool = saliency < saliency[rows, positives][:, None]
    for v in np.flatnonzero(~pool.any(axis=1)):
        warnings.warn(f"video {v}: no clip has strictly lower saliency than the positive; "
                      "intra loss is 0", GroundingWarning)
    pool[rows, positives] = True
    return pool


def _pool_offsets(pool):
    """0 on a (..., L) contrastive pool and -inf off it, to be added to the pool's scores."""
    return np.where(pool, 0.0, -np.inf)


class _InfoNCETargets(NamedTuple):
    """Target columns of InfoNCE rows; ``_infonce_targets`` builds them."""

    index: np.ndarray  # each row's target on the flat grid of the rows' (..., K) scores
    grad: np.ndarray  # 1/tau at the targets and 0 elsewhere, the targets' share of the gradient


def _infonce_targets(targets, k: int, tau: float) -> _InfoNCETargets:
    targets = np.asarray(targets)
    mask = targets[..., None] == np.arange(k)
    return _InfoNCETargets(np.flatnonzero(mask).reshape(targets.shape),
                           np.where(mask, 1.0 / tau, 0.0))


def _infonce_rows(scores, target: _InfoNCETargets, tau: float):
    """Softmax cross-entropy of each row's ``target`` column of ``scores``.

    ``scores`` is (..., K) at temperature ``tau``, with the rows of
    ``target`` on its trailing axes; an entry of -inf is left out of its
    row's softmax.  Returns the per-row losses (...,) and their gradient.  A
    row whose only finite entry is its target scores exactly 0 with zero
    gradient.
    """
    z = scores / tau
    peak = np.maximum.reduce(z, -1, keepdims=True)
    lse = np.log(np.add.reduce(np.exp(z - peak), -1, keepdims=True))
    lse += peak
    grad = np.subtract(z, lse)
    np.exp(grad, out=grad)
    grad /= tau
    grad -= target.grad
    # the target's z itself; summed out of zeros it would differ only as -0 against +0,
    # and lse (never -0) minus either zero is lse
    rows = z.reshape(z.shape[:z.ndim - target.index.ndim - 1] + (-1,))
    return lse[..., 0] - rows.take(target.index, axis=-1), grad


def _intra_term(cosines, pool_offsets, target: _InfoNCETargets, tau: float):
    """Within-video InfoNCE per row, shape (..., B), and its gradient.

    Row b scores its positive clip, the ``target`` column, against the clips
    of its pool: the positive itself and every clip of strictly lower
    saliency, where ``pool_offsets`` (``_pool_offsets``) is 0.  Adding them
    reads a cosine of -0 as +0, which changes no output: a zero score only
    ever meets a peak, a log-sum-exp or an exp that gives the same bits for
    either sign.
    """
    return _infonce_rows(cosines + pool_offsets, target, tau)


def _inter_term(pair_cosines, target: _InfoNCETargets, tau: float):
    """Cross-batch InfoNCE on (..., B, B) pairing matrices: row means and their gradient.

    ``target`` marks the diagonal, ``_infonce_targets(arange(B), B, tau)``.
    """
    b = pair_cosines.shape[-1]
    losses, grad = _infonce_rows(pair_cosines, target, tau)
    grad /= b
    return np.add.reduce(losses, -1) / b, grad


def saliency_intra_loss(
    cosines,
    label: UnifiedLabel,
    rng_seed: int = 0,
    weights: LossWeights = LossWeights(),
    positive: int | None = None,
) -> LossReport:
    """Within-video contrastive saliency.

    A random foreground clip acts as the positive; every clip with strictly
    lower labelled saliency is a negative.  The loss is the softmax
    cross-entropy of the positive over {positive} + negatives at
    temperature ``weights.tau``.  With no negatives the term is 0.
    """
    c = _checked_array("cosines", cosines, (len(label),))
    if positive is None:
        positive = sample_positive(label, np.random.default_rng(rng_seed))
    pool = _contrastive_pools(label.foreground[None], label.saliency[None], np.array([positive]))
    target = _infonce_targets([positive], c.shape[0], weights.tau)
    value, grad = _intra_term(c[None], _pool_offsets(pool), target, weights.tau)
    return LossReport(
        float(value[0]), {"cosines": grad[0]},
        {"positive": positive, "num_negatives": int(pool.sum()) - 1},
    )


def saliency_inter_loss(pair_cosines, weights: LossWeights = LossWeights()) -> LossReport:
    """Cross-batch contrastive saliency on the positive-vs-sentence matrix.

    Row b is scored as softmax cross-entropy of the matched sentence
    (diagonal) against all sentences in the batch; the result is the mean
    over rows.  A single-item batch has nothing to contrast and scores 0.
    """
    m = _checked_array("pair_cosines", pair_cosines, (None, None))
    b = m.shape[0]
    if m.shape[1] != b:
        raise ValueError(f"pair_cosines must be square, got shape {m.shape}")
    value, grad = _inter_term(m, _infonce_targets(np.arange(b), b, weights.tau), weights.tau)
    return LossReport(value, {"pair_cosines": grad})


class _LossBatch:
    """The parts of a loss batch that stay fixed while the predictions move.

    Built once per batch of labelled videos whose labels and timelines the
    caller has already matched up: checks that every contrastive positive is
    eligible and builds every value that depends on the labels alone, so an
    evaluation computes only what depends on the predictions.  These are the
    BCE's logit signs, value weights and gradient weights (``_BCELabels``);
    the foreground clips' flat index, centres, target offsets, target spans
    and their lengths, and the foreground counts (``_BoundaryLabels``); the
    contrastive pool offsets and the targets of both InfoNCE terms, as flat
    indices and 1/tau gradient shares; ``arange(B)`` and the positives, also
    on the flat B * L grid; and the per-video aggregation scales, as vectors
    and as columns of the per-clip arrays.  A video whose positive has no
    negative raises its ``GroundingWarning`` here, once, not on every
    evaluation.  Every positive is a foreground clip, so no video's boundary
    term is vacuous.
    """

    def __init__(
        self,
        labels: Sequence[UnifiedLabel],
        timelines: Sequence[ClipTimeline],
        weights: LossWeights,
        positives,
        aggregation: str,
    ):
        b, l = len(labels), len(labels[0])
        positives = np.asarray(positives, dtype=np.int64)
        fg = np.stack([lab.foreground for lab in labels]) == 1
        pool = _contrastive_pools(fg, np.stack([lab.saliency for lab in labels]), positives)
        boundary = _boundary_labels(
            np.stack([tl.timestamps() for tl in timelines]),
            np.stack([lab.offsets for lab in labels]),
            fg,
        )

        aggregation = _checked_number("aggregation", aggregation, str, _AGGREGATION)
        if aggregation == "per_video":
            scale_f = scale_b = scale_c = np.full(b, 1.0 / b)
            scale_inter = weights.lambda_inter
        else:
            # weight each video's mean terms back into per-clip sums over the batch
            video_weight = 1.0 / float(b * l)
            scale_f = np.full(b, video_weight * float(l))
            scale_b = video_weight * boundary.count
            scale_c = np.full(b, video_weight)
            scale_inter = weights.lambda_inter * b / (b * l)

        self.weights = weights
        self.rows = np.arange(b)
        self.positives = positives
        self.flat_positives = np.arange(b) * l + positives  # the positives on the flat B * L grid
        self.bce = _bce_labels(fg.astype(np.float64), weights)
        self.boundary = boundary
        self.pool_offsets = _pool_offsets(pool)
        self.intra_target = _infonce_targets(positives, l, weights.tau)
        self.inter_target = _infonce_targets(np.arange(b), b, weights.tau)
        self.scale_f = scale_f
        self.scale_b = scale_b
        self.scale_intra = weights.lambda_intra * scale_c
        self.scale_inter = scale_inter
        # the scales as columns of the (B, L) and (B, L, 2) per-clip arrays
        self.scale_f_clips = scale_f[:, None]
        self.scale_b_clips = scale_b[:, None, None]
        self.scale_intra_clips = self.scale_intra[:, None]


def _total_loss_arrays(
    logits: np.ndarray,
    offsets: np.ndarray,
    clip_emb: np.ndarray,
    sent_emb: np.ndarray,
    batch: _LossBatch,
    *,
    fixed_sent_norms: np.ndarray | None = None,
    out: tuple = (None, None, None),
):
    """Combined objective on raw arrays; returns (value, grads, components).

    One masked pass over the (B, L) batch; ``batch`` holds everything that
    does not change between calls.  The arrays may share leading problem
    axes, which the value, gradients and components then carry.  The caller
    owns the checks: the arrays must have ``batch``'s shapes and finite
    entries.  Both cosines share the clip and sentence norms: the pair
    cosines read the per-clip norms at the positives.

    A caller that holds the sentences fixed, as ``fit`` does, passes
    ``fixed_sent_norms=_row_norms(sent_emb)``, computed and checked once; the
    gradients then leave out ``"sentence_embeddings"`` and the work that
    forms it.  The clip norms are computed, and checked, on every call.
    ``out`` may hold three arrays of the shapes of ``logits``, ``offsets``
    and ``clip_emb``, which the prediction gradients are written into and
    returned as.  Neither option changes a bit of any other output.
    """
    w = batch.weights

    l_fg, g_logits = _foreground_term(logits, batch.bce, w)
    l_bd, g_offsets = _boundary_term(offsets, batch.boundary, w)
    clip_norms = _row_norms(clip_emb)
    sentence_grad = fixed_sent_norms is None
    sent_norms = _row_norms(sent_emb) if sentence_grad else fixed_sent_norms
    cos, cos_backward = _row_cosines_with_grads(clip_emb, sent_emb, clip_norms, sent_norms)
    l_intra, g_cos = _intra_term(cos, batch.pool_offsets, batch.intra_target, w.tau)
    # taken from the flat (..., B * L) grid: ``[..., rows, positives]`` would lay a
    # problem axis out (B, P) in memory, and the sums over B would round otherwise
    lead = clip_emb.shape[:-3]
    pos_emb = clip_emb.reshape(lead + (-1, clip_emb.shape[-1])).take(batch.flat_positives,
                                                                     axis=-2)  # (..., B, D)
    pos_norms = clip_norms.reshape(lead + (-1,)).take(batch.flat_positives, axis=-1)
    pair, pair_backward = _cosine_with_grads(pos_emb, sent_emb, pos_norms, sent_norms)
    l_inter, g_pair = _inter_term(pair, batch.inter_target, w.tau)

    parts = {
        "foreground": np.add.reduce(batch.scale_f * l_fg, -1),
        "boundary": np.add.reduce(batch.scale_b * l_bd, -1),
        "intra": np.add.reduce(batch.scale_intra * l_intra, -1),
        "inter": batch.scale_inter * l_inter,
    }
    g_cos *= batch.scale_intra_clips
    g_clip, g_sent = cos_backward(g_cos, sentence_grad, out=out[2])
    g_pair *= batch.scale_inter
    g_pos, g_sent_pair = pair_backward(g_pair, sentence_grad)
    np.add.at(g_clip, (Ellipsis, batch.rows, batch.positives, slice(None)), g_pos)
    grads = {
        "foreground_logits": np.multiply(batch.scale_f_clips, g_logits, out=out[0]),
        "offsets": np.multiply(batch.scale_b_clips, g_offsets, out=out[1]),
        "clip_embeddings": g_clip,
    }
    if sentence_grad:
        grads["sentence_embeddings"] = g_sent + g_sent_pair
    return sum(parts.values()), grads, parts


def total_loss(
    preds: Sequence[PredictionSet],
    emb: EmbeddingBatch,
    labels: Sequence[UnifiedLabel],
    timelines: Sequence[ClipTimeline],
    weights: LossWeights = LossWeights(),
    rng_seed: int = 0,
    aggregation: str = DEFAULT_AGGREGATION,
) -> LossReport:
    """Full objective over a batch of (video, query) records.

    Combines the foreground, boundary, and both contrastive terms.  With
    ``aggregation="per_video"`` each video contributes the mean of its own
    terms and videos are averaged; ``"per_clip"`` pools every clip across
    the batch with equal weight instead.  The same seed always selects the
    same contrastive positives.
    """
    b = len(preds)
    if not (b == len(labels) == len(timelines) == emb.batch_size):
        raise ValueError("preds, labels, timelines, and embeddings must agree on batch size")
    l = emb.num_clips
    for p, lab, tl in zip(preds, labels, timelines):
        if not (len(p) == len(lab) == tl.num_clips == l):
            raise ValueError("all records must share the embedding clip count")
    rng = np.random.default_rng(rng_seed)
    positives = np.array([sample_positive(lab, rng) for lab in labels], dtype=np.int64)
    batch = _LossBatch(labels, timelines, weights, positives, aggregation)
    value, grads, parts = _total_loss_arrays(
        np.stack([p.foreground_logits for p in preds]),
        np.stack([p.offsets for p in preds]),
        emb.clip_embeddings,
        emb.sentence_embeddings,
        batch,
    )
    return LossReport(
        value,
        grads,
        {"positives": positives, "components": {k: float(v) for k, v in parts.items()},
         "aggregation": aggregation},
    )
