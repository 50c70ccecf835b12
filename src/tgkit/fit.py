"""Direct-parameter overfitting harness.

Stands in for a learned encoder: every record gets free per-clip logits,
offsets, and embeddings (the sentence embedding stays fixed), optimised by
plain gradient descent with step-halving backtracking so the loss
trajectory never increases.  Useful for verifying that the objective can
actually drive predictions onto their labels.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (_NON_NEGATIVE, _POSITIVE, GroundTruthRecord, PredictionSet, _at_least,
                   _checked_number, _frozen, _set)
from .losses import (
    DEFAULT_AGGREGATION,
    EmbeddingBatch,
    LossWeights,
    _LossBatch,
    _row_norms,
    _total_loss_arrays,
    sample_positive,
    saliency_cosines,
)

_MIN_STEP = 1e-18
DEFAULT_LEARNING_RATE = 0.5
DEFAULT_EMBED_DIM = 8
_EMBED_DIM = _at_least(2)  # a cosine of one-dimensional embeddings is only ever +-1


@dataclass(frozen=True, eq=False)
class OverfitResult:
    """Final predictions plus the accepted loss value after every step.

    ``stalled_steps`` counts the steps that did not lower the loss: either
    no step size down to ``_MIN_STEP`` kept it from rising, so the
    parameters held still, or the accepted step left it unchanged.
    """

    predictions: tuple
    trajectory: np.ndarray
    positives: np.ndarray

    def __post_init__(self):
        _set(self, "predictions", tuple(self.predictions))
        _set(self, "trajectory", _frozen(np.array(self.trajectory, dtype=np.float64)))
        _set(self, "positives", _frozen(np.array(self.positives, dtype=np.int64)))

    @property
    def stalled_steps(self) -> int:
        return int(np.count_nonzero(self.trajectory[1:] >= self.trajectory[:-1]))


def overfit(
    records: Sequence[GroundTruthRecord],
    weights: LossWeights = LossWeights(),
    steps: int = 500,
    learning_rate: float = DEFAULT_LEARNING_RATE,
    rng_seed: int = 0,
    embed_dim: int = DEFAULT_EMBED_DIM,
    aggregation: str = DEFAULT_AGGREGATION,
) -> OverfitResult:
    """Fit free per-record parameters to the records' own labels.

    Each accepted step must not increase the loss; when a proposed step
    does, the step size is halved until it fits (or the step is dropped).
    Contrastive positives are sampled once up front so the objective stays
    fixed across the whole run.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to fit")
    steps = _checked_number("steps", steps, int, _NON_NEGATIVE)
    learning_rate = _checked_number("learning_rate", learning_rate, float, _POSITIVE)
    embed_dim = _checked_number("embed_dim", embed_dim, int, _EMBED_DIM)
    n = records[0].timeline.num_clips
    if any(r.timeline.num_clips != n for r in records):
        raise ValueError("all records must share the same clip count")
    labels = [r.label for r in records]
    timelines = [r.timeline for r in records]
    b = len(records)

    rng = np.random.default_rng(rng_seed)
    positives = np.array([sample_positive(lab, rng) for lab in labels], dtype=np.int64)

    # logits, offsets and clip embeddings are views of one flat vector, and
    # their gradients of another, so a step is one axpy and one finiteness test
    size = b * n * (3 + embed_dim)

    def flat():
        x = np.empty(size)
        return x, (x[:b * n].reshape(b, n), x[b * n:3 * b * n].reshape(b, n, 2),
                   x[3 * b * n:].reshape(b, n, embed_dim))

    params, cand, grad, cand_grad = flat(), flat(), flat(), flat()
    logits, offsets, clip_emb = params[1]
    logits[...] = 0.0
    offsets[...] = np.array([tl.clip_len for tl in timelines], dtype=np.float64)[:, None, None]
    clip_emb[...] = rng.normal(0.0, 0.5, (b, n, embed_dim))
    sent_emb = rng.normal(size=(b, embed_dim))
    sent_emb /= np.linalg.norm(sent_emb, axis=-1, keepdims=True)
    batch = _LossBatch(labels, timelines, weights, positives, aggregation)
    sent_norms = _row_norms(sent_emb)  # the sentences are fixed: one norm, one check

    def evaluate(x, g):
        """The loss at ``x``'s parameters; the gradient goes into ``g``."""
        return _total_loss_arrays(*x[1], sent_emb, batch, fixed_sent_norms=sent_norms,
                                  out=g[1])[0]

    value = evaluate(params, grad)
    if not np.isfinite(value):
        raise ValueError(f"objective is not finite at initialisation: {value}")
    trajectory = [value]
    step_size = learning_rate
    for step in range(steps):
        if not np.isfinite(grad[0]).all():
            raise ValueError(f"gradients diverged at step {step}")
        trial = step_size
        while True:
            np.subtract(params[0], trial * grad[0], out=cand[0])
            cand_value = evaluate(cand, cand_grad)
            if np.isfinite(cand_value) and cand_value <= value:
                params, cand = cand, params
                grad, cand_grad = cand_grad, grad
                value = cand_value
                step_size = min(trial * 2.0, learning_rate)
                break
            trial *= 0.5
            if trial < _MIN_STEP:
                # no improving step exists at representable sizes; hold still
                break
        trajectory.append(value)

    logits, offsets, clip_emb = params[1]
    saliency = np.clip(saliency_cosines(EmbeddingBatch(clip_emb, sent_emb)), -1.0, 1.0)
    predictions = tuple(
        PredictionSet(logits[v], offsets[v], saliency[v]) for v in range(b)
    )
    return OverfitResult(predictions, np.array(trajectory), positives)
