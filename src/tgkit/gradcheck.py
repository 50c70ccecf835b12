"""Central finite-difference verification of the analytic loss gradients.

Each registered loss comes with a sampler that draws a random, well-posed
evaluation point away from the loss's kinks (smooth-L1 seams, interval
ordering flips and endpoint ties), measured by ``tgkit.losses`` from the
label values the loss itself scores.  The checker perturbs every scalar
input by +-epsilon and compares the secant slope against the analytic
gradient.

A loss is evaluated through the helper its public function is a view of,
with a leading problem axis P (see ``tgkit.losses``).  The point and its
+-epsilon copies, for every scalar of every input, are stacked on P and
evaluated in one call, whose row 0 gives the value and analytic gradient; a
point of more than ``(_BLOCK_ROWS - 1) // 2`` scalars takes one call per
block of rows.  Each problem's value and gradient equal those of its own
call bit for bit, so the check is that of a P = 1 call and a per-scalar loop.

The relative-error denominator is floored at max(1, |loss|) * 2 * epsilon:
a central difference carries roundoff of order |loss| * ulp / epsilon, so
gradient entries below that noise floor cannot be certified in relative
terms and are compared against the floor instead.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .core import (_AT_LEAST_1, _NON_NEGATIVE, _POSITIVE, ClipTimeline, UnifiedLabel,
                   _checked_number, _one_of)
from .losses import (
    LossWeights,
    _bce_labels,
    _boundary_kink,
    _boundary_labels,
    _boundary_term,
    _contrastive_pools,
    _foreground_term,
    _giou_kink,
    _giou_with_grads,
    _infonce_targets,
    _inter_term,
    _intra_term,
    _LossBatch,
    _pool_offsets,
    _smooth_l1_kink,
    _total_loss_arrays,
    sample_positive,
    smooth_l1,
)

_KINK_MARGIN = 1e-3
_MAX_RESAMPLES = 200
# Rows per stacked call: a point of N scalars takes 2N + 1 rows, the point
# and its perturbed copies.  Every sampler's point fits one block.
_BLOCK_ROWS = 512
DEFAULT_EPSILON = 1e-5
DEFAULT_TOLERANCE = 1e-5
DEFAULT_POINTS = 100


@dataclass(frozen=True)
class GradCheckResult:
    loss_name: str
    points_checked: int
    points_skipped: int
    max_rel_error: float
    per_input: dict
    epsilon: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _random_label(rng: np.random.Generator, n: int) -> UnifiedLabel:
    """Label with at least one foreground and one background clip."""
    while True:
        fg = rng.random(n) < 0.5
        if 0 < fg.sum() < n:
            break
    d = np.zeros((n, 2))
    d[fg] = rng.uniform(0.05, 3.0, (int(fg.sum()), 2))
    s = np.zeros(n)
    s[fg] = rng.uniform(0.1, 1.0, int(fg.sum()))
    return UnifiedLabel(fg.astype(int), d, s)


def _make_foreground(rng):
    n = 6
    targets = (rng.random(n) < 0.5).astype(float)
    w = LossWeights(lambda_f=rng.uniform(0.5, 2.0))
    inputs = {"logits": rng.uniform(-4.0, 4.0, n)}
    labels = _bce_labels(targets, w)

    def evaluate(ins):
        value, grad = _foreground_term(ins["logits"], labels, w)
        return value, {"logits": grad}

    return inputs, evaluate, lambda ins: math.inf


def _make_boundary(l1: bool):
    def make(rng):
        n = 6
        timeline = ClipTimeline(n, rng.uniform(0.5, 2.0))
        label = _random_label(rng, n)
        if l1:
            w = LossWeights(lambda_l1=rng.uniform(0.5, 2.0), lambda_iou=0.0)
        else:
            w = LossWeights(lambda_l1=0.0, lambda_iou=rng.uniform(0.5, 2.0))
        offsets = label.offsets + rng.uniform(-2.0, 2.0, (n, 2))
        inputs = {"offsets": offsets}
        labels = _boundary_labels(timeline.timestamps(), label.offsets, label.foreground == 1)

        def evaluate(ins):
            value, grad = _boundary_term(ins["offsets"], labels, w)
            return value, {"offsets": grad}

        return inputs, evaluate, lambda ins: _boundary_kink(ins["offsets"], labels, w)

    return make


def _make_intra(rng):
    n = 8
    label = _random_label(rng, n)
    w = LossWeights(tau=rng.uniform(0.05, 0.2))
    positive = sample_positive(label, rng)
    inputs = {"cosines": rng.uniform(-1.0, 1.0, n)}
    pool = _contrastive_pools(label.foreground[None], label.saliency[None], np.array([positive]))
    pool_offsets = _pool_offsets(pool[0])
    target = _infonce_targets(positive, n, w.tau)

    def evaluate(ins):
        value, grad = _intra_term(ins["cosines"], pool_offsets, target, w.tau)
        return value, {"cosines": grad}

    return inputs, evaluate, lambda ins: math.inf


def _make_inter(rng):
    b = 4
    w = LossWeights(tau=rng.uniform(0.05, 0.2))
    inputs = {"pair_cosines": rng.uniform(-1.0, 1.0, (b, b))}
    target = _infonce_targets(np.arange(b), b, w.tau)

    def evaluate(ins):
        value, grad = _inter_term(ins["pair_cosines"], target, w.tau)
        return value, {"pair_cosines": grad}

    return inputs, evaluate, lambda ins: math.inf


def _make_giou(rng):
    def interval(center):
        half = rng.uniform(0.3, 4.0)
        return np.array([center - half, center + half])

    inputs = {"a": interval(rng.uniform(-3, 3)), "b": interval(rng.uniform(-3, 3))}

    def kink(ins):
        (a_lo, a_hi), (b_lo, b_hi) = ins["a"], ins["b"]
        # _giou_endpoints takes ordered intervals: each length must stay positive
        return min(_giou_kink(a_lo, a_hi, b_lo, b_hi), a_hi - a_lo, b_hi - b_lo)

    return inputs, lambda ins: _giou_with_grads(ins["a"], ins["b"]), kink


def _make_smooth_l1(rng):
    beta = 1.0
    inputs = {"x": rng.uniform(-3.0, 3.0, 5)}

    def evaluate(ins):
        value, deriv = smooth_l1(ins["x"], beta)
        return value.reshape(len(value), -1).sum(axis=1), {"x": deriv}

    return inputs, evaluate, lambda ins: _smooth_l1_kink(ins["x"], beta)


def _make_total(rng):
    b, n, dim = 2, 5, 3
    timelines = [ClipTimeline(n, 1.0) for _ in range(b)]
    labels = [_random_label(rng, n) for _ in range(b)]
    positives = np.array([sample_positive(lab, rng) for lab in labels])
    w = LossWeights(*rng.uniform(0.5, 1.5, 5), tau=rng.uniform(0.07, 0.2))  # the five lambdas
    aggregation = "per_video" if rng.random() < 0.5 else "per_clip"
    batch = _LossBatch(labels, timelines, w, positives, aggregation)

    def unit_rows(shape):
        m = rng.normal(size=shape)
        norms = np.linalg.norm(m, axis=-1, keepdims=True)
        return m / np.maximum(norms, 0.3)

    inputs = {
        "foreground_logits": rng.uniform(-3.0, 3.0, (b, n)),
        "offsets": np.stack([lab.offsets for lab in labels]) + rng.uniform(-1.5, 1.5, (b, n, 2)),
        "clip_embeddings": unit_rows((b, n, dim)),
        "sentence_embeddings": unit_rows((b, dim)),
    }

    def evaluate(ins):
        return _total_loss_arrays(*(ins[key] for key in inputs), batch)[:2]

    return inputs, evaluate, lambda ins: _boundary_kink(ins["offsets"], batch.boundary, w)


# Each sampler draws a point and returns (inputs, evaluate, kink_distance).
# ``evaluate`` takes the inputs stacked on a leading problem axis P and
# returns the P values and the gradients, which carry the same axis.
_REGISTRY: dict[str, Callable] = {
    "foreground": _make_foreground,
    "boundary_smooth_l1": _make_boundary(l1=True),
    "boundary_giou": _make_boundary(l1=False),
    "saliency_intra": _make_intra,
    "saliency_inter": _make_inter,
    "giou_1d": _make_giou,
    "smooth_l1": _make_smooth_l1,
    "total": _make_total,
}

REGISTERED_LOSSES = tuple(_REGISTRY)
_LOSS_NAME = _one_of(REGISTERED_LOSSES)

# Elementwise losses: an explicit input of any shape is a point.  Every other
# loss takes explicit inputs of its sampler's shapes.
_ANY_SHAPE = ("smooth_l1",)


def _stacked_check(evaluate, inputs, epsilon):
    """Value, analytic gradients and central-difference slopes at ``inputs``, one call per block.

    The point's scalars are numbered key by key in C order.  Row 0 of the
    stack is the point, whose value and gradients are returned; row 2j + 1
    moves scalar j up by ``epsilon`` and row 2j + 2 moves it down.
    """
    keys = list(inputs)
    point = np.concatenate([inputs[k].ravel() for k in keys])
    splits = np.cumsum([inputs[k].size for k in keys])[:-1]
    values = np.empty(2 * point.size + 1)
    for lo in range(0, values.size, _BLOCK_ROWS):
        rows = np.arange(lo, min(lo + _BLOCK_ROWS, values.size))
        block = np.tile(point, (rows.size, 1))
        moved = np.flatnonzero(rows)
        scalar, down = np.divmod(rows[moved] - 1, 2)
        block[moved, scalar] = np.where(down, point[scalar] - epsilon, point[scalar] + epsilon)
        stack = {k: part.reshape((rows.size,) + inputs[k].shape)
                 for k, part in zip(keys, np.split(block, splits, axis=1))}
        values[rows], grads = evaluate(stack)
        if lo == 0:
            analytic = {k: g[0] for k, g in grads.items()}
    slopes = np.split((values[1::2] - values[2::2]) / (2.0 * epsilon), splits)
    return values[0], analytic, {k: s.reshape(inputs[k].shape) for k, s in zip(keys, slopes)}


def _sampled_points(factory, rng, num_points: int, loss_name: str):
    """Yield ``num_points`` (inputs, evaluate) pairs, each resampled until off the kinks."""
    for _ in range(num_points):
        for _ in range(_MAX_RESAMPLES):
            inputs, evaluate, kink_distance = factory(rng)
            if kink_distance(inputs) >= _KINK_MARGIN:
                break
        else:
            raise ValueError(f"could not sample a non-kink point for {loss_name}")
        yield inputs, evaluate


def grad_check(
    loss_name: str,
    inputs: dict | None = None,
    epsilon: float = DEFAULT_EPSILON,
    tolerance: float = DEFAULT_TOLERANCE,
    seed: int = 0,
    num_points: int = DEFAULT_POINTS,
) -> GradCheckResult:
    """Compare analytic gradients against central differences.

    Without explicit ``inputs``, ``num_points`` (at least 1) random
    well-posed points are drawn from the loss's sampler (resampling away
    from kinks).  With explicit inputs a single point is checked; if it sits
    within the kink margin it is recorded as skipped instead of judged.  A
    point whose loss value, analytic gradient or slope is not finite raises
    ``ValueError``.
    """
    _checked_number("loss_name", loss_name, str, _LOSS_NAME)
    # checked, not converted: the result reports both as the caller gave them
    _checked_number("epsilon", epsilon, float, _POSITIVE)
    _checked_number("tolerance", tolerance, float, _POSITIVE)
    if inputs is None:
        num_points = _checked_number("num_points", num_points, int, _AT_LEAST_1)
    rng = np.random.default_rng(_checked_number("seed", seed, int, _NON_NEGATIVE))
    factory = _REGISTRY[loss_name]

    if inputs is not None:
        default_inputs, evaluate, kink_distance = factory(rng)
        given = {k: np.array(v, dtype=np.float64) for k, v in inputs.items()}
        if set(given) != set(default_inputs):
            raise ValueError(
                f"inputs must provide exactly {sorted(default_inputs)}, got {sorted(given)}"
            )
        for key, value in given.items():
            if loss_name in _ANY_SHAPE:
                ok, want = value.size > 0, "a non-empty array"
            else:
                want = default_inputs[key].shape
                ok = value.shape == want
            if not ok:
                raise ValueError(f"input {key!r} of {loss_name} has shape {value.shape}; "
                                 f"expected {want}")
            if not np.isfinite(value).all():
                raise ValueError(f"input {key!r} of {loss_name} must be finite")
        points = [(given, evaluate)] if kink_distance(given) >= _KINK_MARGIN else []
        skipped = 1 - len(points)
    else:
        points = _sampled_points(factory, rng, num_points, loss_name)
        skipped = 0

    per_input: dict[str, float] = {}
    checked = 0
    for checked, (point, evaluate) in enumerate(points, 1):
        value, analytic, numeric = _stacked_check(evaluate, point, epsilon)
        # max() would drop a NaN error, so a NaN point would pass unjudged
        if not all(np.isfinite(a).all() for a in (value, *analytic.values(), *numeric.values())):
            raise ValueError(f"loss value, gradient or slope of {loss_name} is not finite "
                             "at this point")
        noise_floor = max(1.0, abs(float(value))) * 2.0 * epsilon
        for key in point:
            a, n = analytic[key], numeric[key]
            rel = np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), noise_floor)
            per_input[key] = max(per_input.get(key, 0.0), float(np.max(rel)))
    max_rel = max(per_input.values(), default=0.0)

    return GradCheckResult(
        loss_name=loss_name,
        points_checked=checked,
        points_skipped=skipped,
        max_rel_error=max_rel,
        per_input=per_input,
        epsilon=epsilon,
        tolerance=tolerance,
        passed=(max_rel < tolerance),
    )
