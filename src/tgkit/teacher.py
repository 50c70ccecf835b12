"""Pseudo-label generation from concept similarity matrices.

Given per-clip similarity scores against a fixed concept vocabulary, the
highest-scoring concepts are turned into synthetic (query, label) pairs:
each selected column is min-max normalised into a relevance curve and run
through the curve converter.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (_AT_LEAST_1, ClipTimeline, Query, UnifiedLabel, _check_clips, _checked_array,
                   _checked_number, _frozen, _rank_order, _set)
from .labels import DEFAULT_BIN_WIDTH, CurveAnnotation, from_curve

DEFAULT_TOP_K = 5


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    """Clip-by-concept similarity scores in [-1, 1]."""

    values: np.ndarray
    concept_names: tuple

    def __post_init__(self):
        v = _checked_array("similarity values", self.values, (None, None))
        if (v < -1).any() or (v > 1).any():
            raise ValueError("similarity values must lie in [-1, 1]")
        names = tuple(str(c) for c in self.concept_names)
        if len(names) != v.shape[1]:
            raise ValueError(
                f"{len(names)} concept names for {v.shape[1]} columns"
            )
        if any(not c for c in names):
            raise ValueError("concept names must be non-empty")
        if len(set(names)) != len(names):
            raise ValueError("concept names must be unique")
        _set(self, "values", _frozen(v))
        _set(self, "concept_names", names)

    @property
    def num_clips(self) -> int:
        return self.values.shape[0]

    @property
    def num_concepts(self) -> int:
        return self.values.shape[1]


def top_concepts(matrix: SimilarityMatrix, k: int = DEFAULT_TOP_K) -> np.ndarray:
    """Indices of the k concepts with the highest mean similarity.

    Ordered by descending mean; ties broken by ascending column index.
    """
    k = _checked_number("k", k, int, _AT_LEAST_1)
    c = matrix.num_concepts
    if k > c:
        raise ValueError(f"k must lie in [1, {c}], got {k}")
    return _rank_order(matrix.values.mean(axis=0))[:k]


@dataclass(frozen=True, eq=False)
class PseudoSample:
    """One teacher-derived supervision pair."""

    query: Query
    label: UnifiedLabel
    curve: CurveAnnotation


def pseudo_labels(
    timeline: ClipTimeline,
    matrix: SimilarityMatrix,
    k: int = DEFAULT_TOP_K,
    bin_width: float = DEFAULT_BIN_WIDTH,
) -> list[PseudoSample]:
    """Synthetic supervision from the k best-matching concepts.

    Each selected concept column is min-max normalised over the video
    (constant columns become all ones) and converted through the curve
    pathway; the concept name becomes the query text.
    """
    _check_clips(timeline, "matrix", matrix.num_clips)
    samples = []
    for idx in top_concepts(matrix, k):
        column = matrix.values[:, idx]
        lo = column.min()
        span = column.max() - lo
        if span > 0:
            normalised = (column - lo) / span
        else:
            normalised = np.ones_like(column)
        curve = CurveAnnotation(normalised)
        samples.append(
            PseudoSample(
                query=Query(matrix.concept_names[idx], kind="concept"),
                label=from_curve(timeline, curve, bin_width),
                curve=curve,
            )
        )
    return samples
