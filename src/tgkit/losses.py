"""Training objectives with closed-form gradients.

Four families: a weighted binary cross-entropy on foreground indicators, a
boundary regression mixing smooth-L1 and 1-D generalised IoU, and two
temperature-scaled contrastive saliency terms (within one video and across
a batch).  Everything is plain numpy with hand-derived gradients; a central
finite-difference checker validates them at random non-kink points.

Each term has one implementation, a helper over a (B, L) batch of B videos
of L clips.  The weighted total evaluates all four in one masked pass
(``_total_loss_arrays``): the boundary terms are computed for the foreground
clips alone, a per-row pool mask selects each positive's contrastive negatives, and the
cross-video term is a row-wise log-sum-exp.  Everything that depends on the
labels alone is validated and built once per batch in a ``_LossBatch``:
targets and background weights, the foreground clips' centres, target
offsets and spans, foreground counts, contrastive pools, the one-hot targets of both
InfoNCE terms with their 1/tau gradient shares, and the aggregation scales.
An evaluation then computes only what depends on the predictions.  The batch
also warns once per degenerate video when it is built.  The public
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
    ClipTimeline,
    GroundingWarning,
    Interval,
    PredictionSet,
    UnifiedLabel,
    _check_clips,
    _checked_array,
    _checked_number,
    _frozen,
    _set,
    _spans,
)

DEFAULT_TAU = 0.07
DEFAULT_NEG_WEIGHT = 0.1
AGGREGATIONS = ("per_video", "per_clip")
DEFAULT_AGGREGATION = "per_video"


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
            v = _checked_number(f.name, getattr(self, f.name))
            _set(self, f.name, v)
            if f.name.startswith("lambda_") and v < 0:
                raise ValueError(f"{f.name} must be finite and non-negative, got {v}")
        if not 0 < self.tau:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not 0 <= self.neg_weight <= 1:
            raise ValueError(f"neg_weight must lie in [0, 1], got {self.neg_weight}")
        if not 0 < self.smooth_l1_beta:
            raise ValueError(f"smooth_l1_beta must be positive, got {self.smooth_l1_beta}")


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


def _sigmoid_pair(x, e):
    """sigma(x) and sigma(-x) from ``e = exp(-|x|)``, which cannot overflow.

    Each side is 1 / (1 + e) where its own argument is non-negative and
    e / (1 + e) elsewhere; at x = 0 both forms give 1/2.
    """
    d = 1.0 + e
    large, small = 1.0 / d, e / d
    pos = x >= 0
    return np.where(pos, large, small), np.where(pos, small, large)


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    return _sigmoid_pair(x, np.exp(-np.abs(x)))[0]


def _softplus_pair(x, nax):
    """log(1 + e^x) and log(1 + e^-x) from one ``np.logaddexp(0, nax)``, ``nax = -|x|``.

    Each side is max(+-x, 0) plus that term and equals ``np.logaddexp(0, +-x)``
    bit for bit: logaddexp adds log1p(exp(.)) of the same value to the same
    argument either way.  (log1p(exp(-|x|)) through the vectorised ufuncs
    differs near 0.)
    """
    t = np.logaddexp(0.0, nax)
    return np.maximum(x, 0.0) + t, t - np.minimum(x, 0.0)


def _background_weights(f, w: LossWeights):
    """Per-clip weight of the background side of the BCE: ``neg_weight`` where f = 0."""
    return w.neg_weight * (1.0 - f)


def _foreground_term(x, f, background, w: LossWeights):
    """Row means of the weighted BCE, shape (B,), and its gradient w.r.t. ``x``.

    ``f`` holds the targets and ``background`` their ``_background_weights``.
    """
    n = x.shape[-1]
    nax = -np.abs(x)
    up, down = _softplus_pair(x, nax)
    per_clip = w.lambda_f * (f * down + background * up)
    p, q = _sigmoid_pair(x, np.exp(nax))
    grad = w.lambda_f * (background * p - f * q) / n
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
    f = f[None]
    value, grad = _foreground_term(x[None], f, _background_weights(f, weights), weights)
    return LossReport(float(value[0]), {"logits": grad[0]})


def smooth_l1(x, beta: float = 1.0):
    """Huber-style penalty and its derivative, elementwise.

    Quadratic inside |x| < beta, linear outside; the two branches meet with
    matching slope so only the curvature jumps at the seam.
    """
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    value, deriv = _smooth_l1(np.asarray(x, dtype=np.float64), beta)
    if value.ndim == 0:
        return float(value), float(deriv)
    return value, deriv


def _smooth_l1(x, beta: float):
    """``smooth_l1`` on a float array, without the checks.

    Both ``np.where`` branches are computed for every entry, so the quadratic
    one squares q = min(|x|, beta) and takes its slope from copysign(q, x):
    it cannot overflow where it is discarded, and where it is kept it equals
    0.5 * x * x / beta and x / beta bit for bit.
    """
    ax = np.abs(x)
    inner = ax < beta
    q = np.minimum(ax, beta)
    value = np.where(inner, 0.5 * q * q / beta, ax - 0.5 * beta)
    return value, np.where(inner, np.copysign(q, x) / beta, np.sign(x))


def _smooth_l1_kink(x, beta: float) -> float:
    """Distance from the entries of ``x`` to the smooth-L1 seam |x| = beta."""
    return float(np.min(np.abs(np.abs(x) - beta)))


def _giou_endpoints(a_lo, a_hi, b_lo, b_hi):
    """Generalised IoU of ordered 1-D intervals and its partials w.r.t. ``a``, vectorised.

    Takes float arrays and returns (value, d/da_lo, d/da_hi).  The partials
    w.r.t. ``b`` are the ``a``-side partials of the swapped call
    ``_giou_endpoints(b_lo, b_hi, a_lo, a_hi)``, bit for bit: every step is
    symmetric in the two intervals.  Uses right-hand derivatives at ties;
    callers that need verified gradients must stay off the tie set.

    A pair is regular when its hull and union are both positive; only pairs
    of zero-length intervals are not.  The formulas are written once: any
    other pair enters them with union and hull 1, so no division fails, and
    then takes its fixed value (1 for the same point twice, -1 for two points)
    and zero partials.  A batch of regular pairs, as in every ``fit`` call,
    skips both steps.
    """
    inter_raw = np.minimum(a_hi, b_hi) - np.maximum(a_lo, b_lo)
    live = inter_raw > 0
    inter = np.where(live, inter_raw, 0.0)
    u = (a_hi - a_lo) + (b_hi - b_lo) - inter  # union
    h = np.maximum(a_hi, b_hi) - np.minimum(a_lo, b_lo)  # hull

    degenerate = h <= 0  # both intervals collapse to the same point
    regular = ~degenerate & (u > 0)  # the rest: two distinct degenerate points
    all_regular = regular.all()
    if not all_regular:
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
    clips alone, in C order of the (B, L) foreground mask.
    """

    clips: tuple  # (..., rows, cols): picks the foreground clips from (..., B, L)
    pairs: tuple  # the same, from (..., B, L, 2)
    times: np.ndarray  # (F,) clip centres
    gt: np.ndarray  # (F, 2) target offsets
    gt_start: np.ndarray  # (F,) target spans
    gt_end: np.ndarray
    count: np.ndarray  # (B,) foreground counts floored at 1
    clip_count: np.ndarray  # (F, 1), each clip's row count


def _boundary_labels(times, gt, fg) -> _BoundaryLabels:
    index = np.nonzero(fg)
    count = np.maximum(fg.sum(axis=-1), 1.0)
    times, gt = times[index], gt[index]
    gt_start, gt_end, _, _ = _spans(times, gt)
    return _BoundaryLabels((Ellipsis, *index), (Ellipsis, *index, slice(None)), times, gt,
                           gt_start, gt_end, count, count[index[:-1]][..., None])


def _boundary_term(d_hat, labels: _BoundaryLabels, w: LossWeights):
    """Boundary loss per row, shape (B,), and its gradient w.r.t. ``d_hat``.

    ``d_hat`` holds (B, L, 2) offsets.  Only foreground clips are scored;
    each row is averaged over its own foreground count, and every other
    clip gets zero gradient.
    """
    d = d_hat[labels.pairs]
    l1_val, l1_der = _smooth_l1(d - labels.gt, w.smooth_l1_beta)

    pr_s, pr_e, lo, hi = _spans(labels.times, d)
    g_val, dg_lo, dg_hi = _giou_endpoints(lo, hi, labels.gt_start, labels.gt_end)

    # chain through the ordering: lo/hi pick one of (pr_s, pr_e) each
    dg = np.empty(d.shape)
    dg[..., 0] = np.where(pr_s < pr_e, dg_lo, dg_hi)
    np.negative(dg[..., 0], out=dg[..., 0])  # pr_s = t - d0
    dg[..., 1] = np.where(pr_e < pr_s, dg_lo, dg_hi)  # pr_e = t + d1

    per_clip = np.zeros(d_hat.shape[:-1])
    per_clip[labels.clips] = w.lambda_l1 * np.add.reduce(l1_val, -1) + w.lambda_iou * (1.0 - g_val)
    grad = np.zeros(d_hat.shape)
    grad[labels.pairs] = (w.lambda_l1 * l1_der - w.lambda_iou * dg) / labels.clip_count
    return np.add.reduce(per_clip, -1) / labels.count, grad


def _boundary_kink(d_hat, labels: _BoundaryLabels, w: LossWeights) -> float:
    """Distance of (B, L, 2) offsets to the boundary term's kinks on the foreground clips.

    These are the smooth-L1 seams and, for gIoU, where a predicted interval
    flips its ordering or meets a ``_giou_kink`` tie with its target.
    """
    d = d_hat[labels.pairs]
    dist = _smooth_l1_kink(d - labels.gt, w.smooth_l1_beta) if w.lambda_l1 > 0 else math.inf
    if w.lambda_iou > 0:
        pr_s, pr_e, lo, hi = _spans(labels.times, d)
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


def saliency_cosines(emb: EmbeddingBatch) -> np.ndarray:
    """Cosine of every clip embedding against its own sentence, shape (B, L)."""
    v, s = emb.clip_embeddings, emb.sentence_embeddings[:, None, :]
    return _cosine_with_grads(v, s, _row_norms(v), _row_norms(s))[0][..., 0]


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


class _InfoNCETargets(NamedTuple):
    """One-hot target columns of InfoNCE rows; ``_infonce_targets`` builds them."""

    mask: np.ndarray  # (..., K), one True per row
    grad: np.ndarray  # the mask as 1/tau and 0, the target's share of the gradient


def _infonce_targets(targets, k: int, tau: float) -> _InfoNCETargets:
    mask = np.asarray(targets)[..., None] == np.arange(k)
    return _InfoNCETargets(mask, np.where(mask, 1.0 / tau, 0.0))


def _infonce_rows(scores, target: _InfoNCETargets, tau: float):
    """Softmax cross-entropy of each row's ``target`` column of ``scores``.

    ``scores`` is (..., K) at temperature ``tau`` and ``target`` broadcasts
    against it; an entry of -inf is left out of its row's softmax.  Returns
    the per-row losses (...,) and their gradient.  A row whose only finite
    entry is its target scores exactly 0 with zero gradient.
    """
    z = scores / tau
    peak = np.maximum.reduce(z, -1, keepdims=True)
    lse = peak + np.log(np.add.reduce(np.exp(z - peak), -1, keepdims=True))
    grad = np.exp(z - lse) / tau - target.grad
    # one True per row; summing it out of zeros picks the target's z exactly
    return lse[..., 0] - np.add.reduce(np.where(target.mask, z, 0.0), -1), grad


def _intra_term(cosines, pool, target: _InfoNCETargets, tau: float):
    """Within-video InfoNCE per row, shape (..., B), and its gradient.

    Row b scores its positive clip, the ``target`` column, against the clips
    of ``pool[b]``: the positive itself and every clip of strictly lower
    saliency.
    """
    return _infonce_rows(np.where(pool, cosines, -np.inf), target, tau)


def _inter_term(pair_cosines, target: _InfoNCETargets, tau: float):
    """Cross-batch InfoNCE on (..., B, B) pairing matrices: row means and their gradient.

    ``target`` marks the diagonal, ``_infonce_targets(arange(B), B, tau)``.
    """
    b = pair_cosines.shape[-1]
    losses, grad = _infonce_rows(pair_cosines, target, tau)
    return np.add.reduce(losses, -1) / b, grad / b


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
    value, grad = _intra_term(c[None], pool, target, weights.tau)
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
    targets and their background weights; the foreground clips' index,
    centres, target offsets and target spans, and the foreground counts; the
    contrastive pool masks and the one-hot targets of both InfoNCE terms;
    ``arange(B)`` and the positives' indices on the flat B * L grid; and the
    per-video aggregation scales.  A video whose positive has no negative
    raises its ``GroundingWarning`` here, once, not on every evaluation.
    Every positive is a foreground clip, so no video's boundary term is
    vacuous.
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
        rows = np.arange(b)
        fg = np.stack([lab.foreground for lab in labels]) == 1
        pool = _contrastive_pools(fg, np.stack([lab.saliency for lab in labels]), positives)
        boundary = _boundary_labels(
            np.stack([tl.timestamps() for tl in timelines]),
            np.stack([lab.offsets for lab in labels]),
            fg,
        )

        if aggregation not in AGGREGATIONS:
            raise ValueError(f"unknown aggregation {aggregation!r}; expected one of {AGGREGATIONS}")
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
        self.rows = rows
        self.positives = positives
        self.flat_positives = rows * l + positives  # the positives on the flat B * L grid
        self.targets = fg.astype(np.float64)
        self.background = _background_weights(self.targets, weights)
        self.boundary = boundary
        self.pool = pool
        self.intra_target = _infonce_targets(positives, l, weights.tau)
        self.inter_target = _infonce_targets(rows, b, weights.tau)
        self.scale_f = scale_f
        self.scale_b = scale_b
        self.scale_intra = weights.lambda_intra * scale_c
        self.scale_inter = scale_inter


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
    rows, positives = batch.rows, batch.positives

    l_fg, g_logits = _foreground_term(logits, batch.targets, batch.background, w)
    l_bd, g_offsets = _boundary_term(offsets, batch.boundary, w)
    clip_norms = _row_norms(clip_emb)
    sentence_grad = fixed_sent_norms is None
    sent_norms = _row_norms(sent_emb) if sentence_grad else fixed_sent_norms
    cos, cos_backward = _cosine_with_grads(clip_emb, sent_emb[..., None, :], clip_norms,
                                           sent_norms[..., None])
    l_intra, g_cos = _intra_term(cos[..., 0], batch.pool, batch.intra_target, w.tau)
    # taken from the flat (..., B * L) grid: ``[..., rows, positives]`` would lay a
    # problem axis out (B, P) in memory, and the sums over B would round otherwise
    lead = clip_emb.shape[:-3]
    pos_emb = np.take(clip_emb.reshape(lead + (-1, clip_emb.shape[-1])), batch.flat_positives,
                      axis=-2)  # (..., B, D)
    pos_norms = np.take(clip_norms.reshape(lead + (-1,)), batch.flat_positives, axis=-1)
    pair, pair_backward = _cosine_with_grads(pos_emb, sent_emb, pos_norms, sent_norms)
    l_inter, g_pair = _inter_term(pair, batch.inter_target, w.tau)

    parts = {
        "foreground": np.add.reduce(batch.scale_f * l_fg, -1),
        "boundary": np.add.reduce(batch.scale_b * l_bd, -1),
        "intra": np.add.reduce(batch.scale_intra * l_intra, -1),
        "inter": batch.scale_inter * l_inter,
    }
    g_clip, g_sent = cos_backward(batch.scale_intra[:, None, None] * g_cos[..., None],
                                  sentence_grad, out=out[2])
    g_pos, g_sent_pair = pair_backward(batch.scale_inter * g_pair, sentence_grad)
    g_clip[..., rows, positives, :] += g_pos
    grads = {
        "foreground_logits": np.multiply(batch.scale_f[:, None], g_logits, out=out[0]),
        "offsets": np.multiply(batch.scale_b[:, None, None], g_offsets, out=out[1]),
        "clip_embeddings": g_clip,
    }
    if sentence_grad:
        grads["sentence_embeddings"] = g_sent[..., 0, :] + g_sent_pair
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
