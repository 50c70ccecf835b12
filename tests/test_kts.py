import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgkit import decode
from tgkit.decode import (SegmentList, _feature_band, _kts_tables, _prefix_sums, _scatter_band,
                          kts_segment)

from oracles import (kts_fixed_m_oracle, kts_penalty_oracle, kts_tables_reference,
                     segment_cost_oracle)

SETTINGS = dict(max_examples=60, deadline=None)


def block_features(block_values, block_lengths, dim=3):
    rows = []
    for v, ln in zip(block_values, block_lengths):
        base = np.full(dim, float(v))
        rows.extend([base] * ln)
    return np.asarray(rows)


def segment_lengths(seg):
    return [b - a for a, b in seg.segments()]


class TestSegmentCost:
    def test_constant_block_has_zero_scatter(self):
        f = block_features([2.0], [5])
        gram = f @ f.T
        assert segment_cost_oracle(gram, 0, 4) == pytest.approx(0.0, abs=1e-12)

    def test_mixed_block_has_positive_scatter(self):
        f = block_features([1.0, 3.0], [3, 3])
        gram = f @ f.T
        assert segment_cost_oracle(gram, 0, 5) > 0.5


class TestFixedSegmentCount:
    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(2, 13))
            f = rng.normal(size=(n, 3))
            gram = f @ f.T
            m = int(rng.integers(1, min(4, n) + 1))
            cost, cps = kts_fixed_m_oracle(gram, m)
            got = kts_segment(gram=gram, num_segments=m, max_segments=m, max_clips=n)
            assert got.change_points == cps

    def test_respects_max_clips(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(4, 13))
            f = rng.normal(size=(n, 2))
            gram = f @ f.T
            max_clips = int(rng.integers(2, n))
            m = int(rng.integers(math.ceil(n / max_clips), min(4, n) + 1))
            cost, cps = kts_fixed_m_oracle(gram, m, max_clips)
            if cps is None:
                continue
            got = kts_segment(
                gram=gram, num_segments=m, max_segments=m, max_clips=max_clips
            )
            assert got.change_points == cps
            assert max(segment_lengths(got)) <= max_clips

    def test_tie_breaks_to_lexicographically_smallest(self):
        # constant gram: every segmentation has zero scatter
        gram = np.ones((6, 6))
        got = kts_segment(gram=gram, num_segments=3, max_segments=3, max_clips=6)
        assert got.change_points == (1, 2)
        _, cps = kts_fixed_m_oracle(gram, 3)
        assert cps == (1, 2)

    def test_single_clip(self):
        got = kts_segment(gram=np.array([[2.0]]), num_segments=1)
        assert got.change_points == ()
        assert got.num_segments == 1


class TestPenaltySelection:
    def test_matches_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(40):
            n = int(rng.integers(2, 11))
            f = rng.normal(size=(n, 3))
            gram = f @ f.T
            max_segments = int(rng.integers(1, 5))
            max_clips = int(rng.integers(math.ceil(n / max_segments), n + 1))
            penalty = float(rng.choice([0.1, 1.0, 5.0]))
            expect = kts_penalty_oracle(gram, max_segments, max_clips, penalty)
            got = kts_segment(
                gram=gram, max_segments=max_segments, max_clips=max_clips, penalty=penalty
            )
            assert got.change_points == expect

    def test_high_penalty_prefers_fewer_segments(self):
        f = block_features([0.0, 4.0], [5, 5])
        got = kts_segment(features=f, max_segments=5, max_clips=10, penalty=1e6)
        assert got.num_segments == 1

    def test_zero_penalty_allows_free_splits(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=(8, 2))
        got = kts_segment(features=f, max_segments=4, max_clips=8, penalty=0.0)
        expect = kts_penalty_oracle(f @ f.T, 4, 8, 0.0)
        assert got.change_points == expect


class TestBlockRecovery:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=2, max_value=5),
    )
    @settings(**SETTINGS)
    def test_recovers_planted_blocks_with_pinned_count(self, seed, blocks):
        rng = np.random.default_rng(seed)
        lengths = [int(rng.integers(2, 6)) for _ in range(blocks)]
        values = rng.permutation(np.arange(1, blocks + 1, dtype=float))
        f = block_features(values, lengths)
        n = f.shape[0]
        got = kts_segment(
            features=f, num_segments=blocks, max_segments=blocks, max_clips=n
        )
        expect = tuple(np.cumsum(lengths)[:-1].tolist())
        assert got.change_points == expect

    def test_recovers_block_count_from_penalty(self):
        f = block_features([0.0, 3.0, 6.0], [6, 5, 7])
        got = kts_segment(features=f, max_segments=10, max_clips=18, penalty=0.1)
        assert got.change_points == (6, 11)


class TestConstraints:
    def test_never_violates_bounds_over_many_runs(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            f = rng.normal(size=(n, 4))
            max_segments = int(rng.integers(1, 8))
            min_clips = math.ceil(n / max_segments)
            max_clips = int(rng.integers(min_clips, n + 2))
            penalty = float(rng.uniform(0.0, 3.0))
            got = kts_segment(
                features=f, max_segments=max_segments, max_clips=max_clips, penalty=penalty
            )
            assert got.num_segments <= max_segments
            assert got.num_clips == n
            assert max(segment_lengths(got)) <= max_clips

    def test_max_clips_forces_minimum_count(self):
        f = np.ones((10, 2))
        got = kts_segment(features=f, max_segments=10, max_clips=3, penalty=1e9)
        assert got.num_segments == 4
        assert max(segment_lengths(got)) <= 3


class TestGramFeatureEquivalence:
    def test_same_result_both_ways(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            f = rng.normal(size=(n, 3))
            a = kts_segment(features=f, max_segments=4, max_clips=n, penalty=0.5)
            b = kts_segment(gram=f @ f.T, max_segments=4, max_clips=n, penalty=0.5)
            assert a.change_points == b.change_points


class TestFeatureBand:
    def test_within_rounding_of_gram_band(self):
        # Both bands sum O(n) products per entry, so they may differ by rounding
        # only: at most 2 * n * eps * trace(K) (measured: under 0.7 * n * eps * trace).
        rng = np.random.default_rng(3)
        for n in (1, 2, 7, 60, 300):
            for scale in (1e-3, 1.0, 1e3):
                f = scale * (rng.normal(size=(n, 16)) + 3 * rng.normal(size=16))
                width = min(n, int(rng.integers(1, 201)))
                free = _feature_band(*_prefix_sums(f), width)
                gram = _scatter_band(f @ f.T, width)
                finite = np.isfinite(gram)
                assert np.array_equal(np.isfinite(free), finite)
                bound = 2 * n * np.finfo(float).eps * float((f * f).sum())
                assert np.abs(free[finite] - gram[finite]).max() <= bound

    def test_long_video_in_bounded_memory(self):
        # A 10 000-clip Gram alone would take 800 MB; the features path never builds it.
        # The band takes 16 MB and the DP 2 MB of int32 first-segment ends beside it; a
        # band-sized work array in the DP would add 16 MB more.
        rng = np.random.default_rng(4)
        f = np.repeat(rng.normal(size=(50, 16)), 200, axis=0)
        f += 0.01 * rng.normal(size=f.shape)
        tracemalloc.start()
        try:
            got = kts_segment(features=f, max_segments=50, max_clips=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25e6
        assert got.change_points == tuple(range(200, 10_000, 200))  # the only feasible split

    def test_many_segments_in_bounded_memory(self):
        # The DP keeps one int32 first-segment end per clip and segment count and
        # a single cost row; int64 ends, or a full float cost table beside them,
        # would double that.
        n, m = 4000, 1000
        f = np.repeat(np.random.default_rng(5).normal(size=(n // 8, 4)), 8, axis=0)
        tracemalloc.start()
        try:
            got = kts_segment(features=f, max_segments=m, max_clips=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * (m + 1) * (n + 1)
        assert got.change_points == tuple(range(8, n, 8))  # constant 8-clip blocks


class TestBandMinimum:
    @pytest.mark.parametrize("tied", [False, True])
    def test_identical_to_per_start_loop(self, tied):
        rng = np.random.default_rng(11 + tied)
        for _ in range(40):
            n = int(rng.integers(1, 80))
            width = int(rng.integers(1, n + 1))
            m_hi = int(rng.integers(1, n + 1))
            if tied:  # few distinct integer blocks: many equal-cost splits
                f = rng.integers(0, 2, size=(n, 2)).astype(float)
            else:
                f = rng.normal(size=(n, 4))
            band = _feature_band(*_prefix_sums(f), width)
            cost, first_end = _kts_tables(band, m_hi)
            expect_cost, expect_end = kts_tables_reference(band, m_hi)
            assert np.array_equal(cost, expect_cost[:, 0])
            feasible = np.isfinite(expect_cost)
            assert np.array_equal(first_end[feasible], expect_end[feasible])


    def test_identical_on_arbitrary_bands(self):
        # Scatter never grows when a segment is split; a band without that
        # property also tells apart splits into exactly m and into at most m.
        rng = np.random.default_rng(13)
        for _ in range(40):
            n = int(rng.integers(1, 60))
            width = int(rng.integers(1, n + 1))
            m_hi = int(rng.integers(1, n + 1))
            band = rng.uniform(0.0, 1.0, (n, width))
            band[np.add.outer(np.arange(n), np.arange(width)) >= n] = np.inf
            cost, first_end = _kts_tables(band, m_hi)
            expect_cost, expect_end = kts_tables_reference(band, m_hi)
            assert np.array_equal(cost, expect_cost[:, 0])
            feasible = np.isfinite(expect_cost)
            assert np.array_equal(first_end[feasible], expect_end[feasible])

    def test_identical_where_rows_are_skipped(self):
        # width * m < n for m < 8, so the first levels skip their leading rows
        f = np.random.default_rng(19).normal(size=(300, 4))
        band = _feature_band(*_prefix_sums(f), 40)
        cost, first_end = _kts_tables(band, 20)
        expect_cost, expect_end = kts_tables_reference(band, 20)
        assert np.array_equal(cost, expect_cost[:, 0])
        feasible = np.isfinite(expect_cost)
        assert np.array_equal(first_end[feasible], expect_end[feasible])

    @pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
    def test_identical_across_row_blocks(self, monkeypatch, tied):
        # n spans several row blocks and is no multiple of one; at small m the DP
        # skips the rows before n - m * width, which is no multiple of one either
        rng = np.random.default_rng(29 + tied)
        for n, width, m_hi in ((600, 90, 12), (901, 120, 12), (777, 777, 4)):
            if tied:
                f = rng.integers(0, 2, size=(n, 2)).astype(float)
            else:
                f = rng.normal(size=(n, 4))
            band = _feature_band(*_prefix_sums(f), width)
            expect_cost, expect_end = kts_tables_reference(band, m_hi)
            feasible = np.isfinite(expect_cost)
            for block in (decode._KTS_BLOCK, 1, 7, 64):
                monkeypatch.setattr(decode, "_KTS_BLOCK", block)
                cost, first_end = _kts_tables(band, m_hi)
                assert np.array_equal(cost, expect_cost[:, 0]), (n, block)
                assert np.array_equal(first_end[feasible], expect_end[feasible]), (n, block)

    def test_no_band_sized_work_array(self):
        # the band minimum runs over row blocks in one small buffer
        band = _feature_band(*_prefix_sums(np.random.default_rng(31).normal(size=(2000, 4))), 200)
        assert band.shape[0] > 4 * decode._KTS_BLOCK
        tracemalloc.start()
        try:
            _kts_tables(band, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < band.nbytes / 2


class TestValidation:
    def test_exactly_one_input(self):
        f = np.ones((3, 2))
        with pytest.raises(ValueError):
            kts_segment()
        with pytest.raises(ValueError):
            kts_segment(features=f, gram=f @ f.T)

    def test_bad_features(self):
        with pytest.raises(ValueError):
            kts_segment(features=np.ones(3))
        with pytest.raises(ValueError):
            kts_segment(features=np.full((3, 2), np.nan))

    def test_bad_gram(self):
        with pytest.raises(ValueError):
            kts_segment(gram=np.ones((2, 3)))
        asym = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError):
            kts_segment(gram=asym)
        with pytest.raises(ValueError):
            kts_segment(gram=np.full((2, 2), np.inf))

    def test_overflowing_scatter(self):
        with pytest.raises(ValueError, match="overflows"):
            kts_segment(features=np.full((4, 2), 1e200))
        # finite entries whose prefix sums pass float64's range
        with pytest.raises(ValueError, match="overflows"):
            kts_segment(gram=np.full((4, 4), 1e308))
        # an overflow only in the last of three row blocks of the check
        f = np.ones((600, 2))
        f[-5:] = 1e200
        with pytest.raises(ValueError, match="overflows"):
            kts_segment(features=f, max_segments=60, max_clips=10)

    def test_bad_limits(self):
        f = np.ones((4, 2))
        with pytest.raises(ValueError):
            kts_segment(features=f, max_segments=0)
        with pytest.raises(ValueError):
            kts_segment(features=f, max_clips=0)
        with pytest.raises(ValueError):
            kts_segment(features=f, penalty=-1.0)

    def test_infeasible_coverage(self):
        f = np.ones((10, 2))
        with pytest.raises(ValueError):
            kts_segment(features=f, max_segments=2, max_clips=3)

    def test_infeasible_num_segments(self):
        f = np.ones((4, 2))
        with pytest.raises(ValueError):
            kts_segment(features=f, num_segments=5)
        with pytest.raises(ValueError):
            kts_segment(features=f, num_segments=1, max_clips=2)

    def test_num_segments_pins_count(self):
        rng = np.random.default_rng(9)
        f = rng.normal(size=(9, 2))
        for m in (1, 2, 3, 4):
            got = kts_segment(features=f, num_segments=m)
            assert got.num_segments == m
