import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgkit.core import ClipTimeline
from tgkit.teacher import SimilarityMatrix, pseudo_labels, top_concepts

SETTINGS = dict(max_examples=150, deadline=None)


def matrix(values, names=None):
    values = np.asarray(values, dtype=float)
    if names is None:
        names = tuple(f"c{i}" for i in range(values.shape[1]))
    return SimilarityMatrix(values, names)


class TestSimilarityMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            matrix([[0.0, 1.5]])  # out of cosine range
        with pytest.raises(ValueError):
            SimilarityMatrix(np.zeros((2, 2)), ("a", "a"))  # duplicate names
        with pytest.raises(ValueError):
            SimilarityMatrix(np.zeros((2, 2)), ("a", ""))

    def test_shape_accessors(self):
        m = matrix([[0.1, 0.2, 0.3], [0.0, -0.5, 1.0]])
        assert m.num_clips == 2
        assert m.num_concepts == 3


class TestTopConcepts:
    def test_worked_example(self):
        m = matrix([[0.9, 0.1, 0.5], [0.7, 0.3, 0.5]])
        assert top_concepts(m, 1).tolist() == [0]
        assert top_concepts(m, 3).tolist() == [0, 2, 1]

    def test_tie_breaks_to_lower_index(self):
        m = matrix([[0.5, 0.5], [0.5, 0.5]])
        assert top_concepts(m, 2).tolist() == [0, 1]

    def test_k_bounds(self):
        m = matrix([[0.1, 0.2]])
        with pytest.raises(ValueError):
            top_concepts(m, 0)
        with pytest.raises(ValueError):
            top_concepts(m, 3)

    @given(data=st.data())
    @settings(**SETTINGS)
    def test_order_matches_sorted_means(self, data):
        rows = data.draw(st.integers(1, 10))
        cols = data.draw(st.integers(1, 8))
        seed = data.draw(st.integers(0, 2**16))
        rng = np.random.default_rng(seed)
        m = matrix(rng.uniform(-1, 1, (rows, cols)))
        k = data.draw(st.integers(1, cols))
        got = top_concepts(m, k).tolist()
        means = m.values.mean(axis=0)
        expected = sorted(range(cols), key=lambda c: (-means[c], c))[:k]
        assert got == expected


class TestPseudoLabels:
    def test_normalization_worked_example(self):
        tl = ClipTimeline(3, 2.0)
        m = matrix([[0.2], [0.8], [0.6]], ("storm",))
        (sample,) = pseudo_labels(tl, m, k=1)
        np.testing.assert_allclose(sample.curve.values, [0.0, 1.0, 2.0 / 3.0])
        assert sample.label.foreground.tolist() == [0, 1, 0]
        assert sample.query.text == "storm"
        assert sample.query.kind == "concept"

    def test_constant_column_becomes_all_ones(self):
        tl = ClipTimeline(3, 2.0)
        m = matrix([[0.4], [0.4], [0.4]])
        (sample,) = pseudo_labels(tl, m, k=1)
        np.testing.assert_allclose(sample.curve.values, [1.0, 1.0, 1.0])
        assert sample.label.foreground.tolist() == [1, 1, 1]

    def test_one_sample_per_selected_concept(self):
        tl = ClipTimeline(4, 2.0)
        rng = np.random.default_rng(0)
        m = matrix(rng.uniform(-1, 1, (4, 6)))
        samples = pseudo_labels(tl, m, k=4)
        assert len(samples) == 4
        assert len({s.query.text for s in samples}) == 4

    def test_timeline_mismatch(self):
        m = matrix([[0.1], [0.2]])
        with pytest.raises(ValueError):
            pseudo_labels(ClipTimeline(3, 2.0), m, k=1)

    @given(data=st.data())
    @settings(**SETTINGS)
    def test_curves_normalized_into_unit_range(self, data):
        rows = data.draw(st.integers(1, 12))
        seed = data.draw(st.integers(0, 2**16))
        rng = np.random.default_rng(seed)
        m = matrix(rng.uniform(-1, 1, (rows, 3)))
        tl = ClipTimeline(rows, 1.0)
        for sample in pseudo_labels(tl, m, k=3):
            v = sample.curve.values
            assert v.min() >= 0.0 and v.max() <= 1.0
            assert np.isclose(v.max(), 1.0)
            assert sample.label.foreground.any()


# input checks no other test reaches: the call, its exception type and its message
INPUT_CHECKS = {
    "shape": (lambda: SimilarityMatrix(np.zeros(3), ("a",)), ValueError,
              "similarity values must have shape (n, m), got (3,)"),
    "finite": (lambda: SimilarityMatrix([[0.5, np.nan]], ("a", "b")), ValueError,
               "similarity values must be finite"),
    "name_count": (lambda: SimilarityMatrix(np.zeros((3, 2)), ("a",)), ValueError,
                   "1 concept names for 2 columns"),
    "top_k_float": (lambda: top_concepts(matrix(np.zeros((2, 3))), 2.5), ValueError,
                    "k must be an integer, got 2.5"),
    "top_k_bool": (lambda: top_concepts(matrix(np.zeros((2, 3))), True), ValueError,
                   "k must be an integer, got True"),
    "top_k_zero": (lambda: top_concepts(matrix(np.zeros((2, 3))), 0), ValueError,
                   "k must be >= 1, got 0"),
    "top_k_above_columns": (lambda: top_concepts(matrix(np.zeros((2, 3))), 4), ValueError,
                            "k must lie in [1, 3], got 4"),
    "pseudo_labels_float_k": (lambda: pseudo_labels(ClipTimeline(2, 1.0),
                                                    matrix(np.zeros((2, 3))), 2.5),
                              ValueError, "k must be an integer, got 2.5"),
}


@pytest.mark.parametrize("case", INPUT_CHECKS)
def test_input_check(case):
    call, error, message = INPUT_CHECKS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert info.type is error
