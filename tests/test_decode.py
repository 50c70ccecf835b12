import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgkit.core import ClipTimeline, GroundingWarning, Interval, PredictionSet, ScoredInterval
from tgkit.decode import (
    HIGHLIGHT_MODES,
    SummarySelection,
    decode_highlights,
    decode_moments,
    decode_summary,
    highlight_scores,
    nms_1d,
)
from tgkit.decode import SegmentList, _Candidates, kts_segment
from tgkit.losses import sigmoid

from oracles import nms_oracle

SETTINGS = dict(max_examples=100, deadline=None)


def scored(triples):
    return [ScoredInterval(Interval(a, b), s) for a, b, s in triples]


def random_candidates(rng, n):
    starts = rng.uniform(0, 50, n)
    lengths = rng.uniform(0.5, 20, n)
    scores = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], n)
    return [
        ScoredInterval(Interval(float(a), float(a + w)), float(s))
        for a, w, s in zip(starts, lengths, scores)
    ]


def assert_matches_oracle(cands, thr):
    """nms_1d keeps the oracle's list, the same objects, and with a keep limit
    ``top_k`` that list's first ``top_k``."""
    expect = nms_oracle([(c.interval.start, c.interval.end) for c in cands],
                        [c.score for c in cands], thr)
    assert [id(c) for c in nms_1d(cands, thr)] == [id(cands[i]) for i in expect]
    for k in (1, 2, len(expect), len(expect) + 1):
        got = nms_1d(cands, thr, top_k=k)
        assert [id(c) for c in got] == [id(cands[i]) for i in expect[:k]], (thr, k)


class TestNms1d:
    def test_worked_example(self):
        cands = scored([(0, 10, 0.9), (1, 11, 0.8), (20, 30, 0.7), (0.5, 10.5, 0.95)])
        kept = nms_1d(cands, iou_threshold=0.5)
        assert [c.score for c in kept] == [0.95, 0.7]
        assert kept[0].interval.start == 0.5

    def test_keeps_overlap_at_exact_threshold(self):
        # IoU([0,2],[1,3]) = 1/3: suppression requires strictly greater IoU
        cands = scored([(0, 2, 0.9), (1, 3, 0.8)])
        kept = nms_1d(cands, iou_threshold=1 / 3)
        assert len(kept) == 2
        kept = nms_1d(cands, iou_threshold=1 / 3 - 1e-9)
        assert len(kept) == 1

    def test_score_tie_prefers_earlier_start(self):
        cands = scored([(5, 6, 0.5), (1, 2, 0.5), (3, 4, 0.5)])
        kept = nms_1d(cands, iou_threshold=0.9)
        assert [c.interval.start for c in kept] == [1, 3, 5]

    def test_full_tie_prefers_earlier_input(self):
        cands = scored([(1, 2, 0.5), (1, 2, 0.5)])
        kept = nms_1d(cands, iou_threshold=0.9)
        assert len(kept) == 1
        assert kept[0] is cands[0]

    def test_identical_intervals_survive_threshold_one(self):
        cands = scored([(1, 2, 0.5), (1, 2, 0.5)])
        assert len(nms_1d(cands, iou_threshold=1.0)) == 2

    def test_empty_input(self):
        assert nms_1d([], 0.5) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            nms_1d([], iou_threshold=0.0)
        with pytest.raises(ValueError):
            nms_1d([], iou_threshold=1.5)
        with pytest.raises(ValueError):
            nms_1d([(0.0, 1.0, 0.5)], iou_threshold=0.5)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 24))
            cands = random_candidates(rng, n)
            thr = float(rng.choice([0.3, 0.5, 0.7, 0.9]))
            assert_matches_oracle(cands, thr)

    @pytest.mark.parametrize("thr", [0.3, 0.7, 1.0])
    def test_matches_oracle_at_scale(self, thr):
        # duplicates, zero-length intervals (some at one shared point) and score ties
        rng = np.random.default_rng(17)
        starts = rng.integers(0, 400, 1200) / 4.0
        lengths = rng.choice([0.0, 0.0, 0.5, 2.0, 5.0, 20.0], 1200)
        scores = rng.choice([0.2, 0.5, 0.9], 1200)
        starts[:100], lengths[:100] = 10.0, 0.0
        cands = [ScoredInterval(Interval(float(a), float(a + w)), float(s))
                 for a, w, s in zip(starts, lengths, scores)]
        cands += [ScoredInterval(c.interval, c.score) for c in cands[:200]]  # duplicates
        assert_matches_oracle(cands, thr)

    @pytest.mark.parametrize("thr", [0.3, 0.7, 1.0])
    def test_lazy_candidates_match_the_built_list(self, thr):
        # decode_moments's array-backed candidates, on test_matches_oracle_at_scale's
        # duplicates, zero-length intervals and score ties
        rng = np.random.default_rng(17)
        starts = rng.integers(0, 400, 1200) / 4.0
        lengths = rng.choice([0.0, 0.0, 0.5, 2.0, 5.0, 20.0], 1200)
        scores = rng.choice([0.2, 0.5, 0.9], 1200)
        starts[:100], lengths[:100] = 10.0, 0.0
        starts, lengths, scores = (np.concatenate((a, a[:200])) for a in (starts, lengths, scores))
        lazy = _Candidates(starts, starts + lengths, scores)
        built = list(lazy)
        expect = nms_oracle([(c.interval.start, c.interval.end) for c in built],
                            [c.score for c in built], thr)
        for k in (None, 1, 2, len(expect), len(expect) + 1):
            got = nms_1d(lazy, thr, top_k=k)
            assert got == nms_1d(built, thr, top_k=k) == [built[i] for i in expect[:k]], (thr, k)

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_top_k_below_one_rejected(self, top_k):
        with pytest.raises(ValueError, match=rf"^top_k must be >= 1, got {top_k}$"):
            nms_1d(scored([(0, 1, 0.5)]), 0.5, top_k=top_k)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0.3, 0.5, 0.7]),
    )
    @settings(**SETTINGS)
    def test_kept_candidates_mutually_below_threshold(self, seed, thr):
        rng = np.random.default_rng(seed)
        cands = random_candidates(rng, int(rng.integers(1, 16)))
        kept = nms_1d(cands, thr)
        from tgkit.metrics import temporal_iou

        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                assert temporal_iou(kept[i].interval, kept[j].interval) <= thr + 1e-12


class TestDecodeMoments:
    def timeline(self):
        return ClipTimeline(4, 2.0)

    def test_spans_offsets_and_ranks_by_foreground(self):
        # clip centres 1, 3, 5, 7
        pred = PredictionSet(
            foreground_logits=[2.0, -2.0, 1.0, -3.0],
            offsets=[[1.0, 1.0], [0.5, 0.5], [1.0, 3.0], [0.1, 0.1]],
            saliency=[0.0, 0.0, 0.0, 0.0],
        )
        out = decode_moments(pred, self.timeline(), iou_threshold=0.99)
        assert out[0].interval == Interval(0.0, 2.0)
        assert out[1].interval == Interval(4.0, 8.0)
        np.testing.assert_allclose(out[0].score, sigmoid(np.array(2.0)))

    def test_inverted_offsets_are_reordered(self):
        pred = PredictionSet([0.0] * 4, [[-2.0, -1.0]] * 4, [0.0] * 4)
        out = decode_moments(pred, self.timeline(), iou_threshold=1.0)
        # clip 0 centre 1: start = 1 - (-2) = 3, end = 1 + (-1) = 0 -> [0, 3]
        assert any(c.interval == Interval(0.0, 3.0) for c in out)
        for c in out:
            assert c.interval.start <= c.interval.end

    def test_clamped_to_video_extent(self):
        pred = PredictionSet([0.0] * 4, [[100.0, 100.0]] * 4, [0.0] * 4)
        out = decode_moments(pred, self.timeline(), iou_threshold=1.0)
        for c in out:
            assert 0.0 <= c.interval.start <= c.interval.end <= 8.0

    def test_use_saliency_reranks(self):
        pred = PredictionSet(
            foreground_logits=[1.0, 0.9, 0.0, 0.0],
            offsets=[[0.5, 0.5]] * 4,
            saliency=[0.0, 0.9, 0.0, 0.0],
        )
        plain = decode_moments(pred, self.timeline(), iou_threshold=1.0)
        boosted = decode_moments(pred, self.timeline(), iou_threshold=1.0, use_saliency=True)
        assert plain[0].interval == Interval(0.5, 1.5)
        assert boosted[0].interval == Interval(2.5, 3.5)

    def test_top_k_truncates_after_nms(self):
        pred = PredictionSet([3.0, 2.0, 1.0, 0.0], [[0.4, 0.4]] * 4, [0.0] * 4)
        full = decode_moments(pred, self.timeline(), iou_threshold=0.9)
        short = decode_moments(pred, self.timeline(), iou_threshold=0.9, top_k=2)
        assert short == full[:2]

    def test_validation(self):
        pred = PredictionSet([0.0] * 3, [[0.5, 0.5]] * 3, [0.0] * 3)
        with pytest.raises(ValueError):
            decode_moments(pred, self.timeline())
        pred4 = PredictionSet([0.0] * 4, [[0.5, 0.5]] * 4, [0.0] * 4)
        with pytest.raises(ValueError):
            decode_moments(pred4, self.timeline(), top_k=0)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(**SETTINGS)
    def test_scores_descend_and_intervals_stay_in_bounds(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        tl = ClipTimeline(n, 2.0)
        pred = PredictionSet(
            rng.normal(size=n),
            rng.normal(scale=3.0, size=(n, 2)),
            rng.uniform(-1, 1, n),
        )
        out = decode_moments(pred, tl, iou_threshold=0.7)
        scores = [c.score for c in out]
        assert scores == sorted(scores, reverse=True)
        for c in out:
            assert 0.0 <= c.interval.start <= c.interval.end <= tl.duration


class TestHighlights:
    def test_modes(self):
        pred = PredictionSet([0.0, 1.0], [[0.1, 0.1]] * 2, [0.5, -0.5])
        f_only = highlight_scores(pred, "f_only")
        np.testing.assert_allclose(f_only, sigmoid(np.array([0.0, 1.0])))
        both = highlight_scores(pred, "f_plus_s")
        np.testing.assert_allclose(both, f_only + np.array([0.5, -0.5]))
        assert set(HIGHLIGHT_MODES) == {"f_plus_s", "f_only"}
        with pytest.raises(ValueError):
            highlight_scores(pred, "s_only")

    def test_top_k_indices(self):
        pred = PredictionSet([0.0, 3.0, 1.0], [[0.1, 0.1]] * 3, [0.0] * 3)
        np.testing.assert_array_equal(decode_highlights(pred, "f_only", k=2), [1, 2])

    def test_tie_prefers_earlier_clip(self):
        pred = PredictionSet([1.0, 1.0, 1.0], [[0.1, 0.1]] * 3, [0.0] * 3)
        np.testing.assert_array_equal(decode_highlights(pred, "f_only", k=3), [0, 1, 2])

    def test_k_beyond_length_warns_and_returns_all(self):
        pred = PredictionSet([0.0, 1.0], [[0.1, 0.1]] * 2, [0.0] * 2)
        with pytest.warns(GroundingWarning):
            got = decode_highlights(pred, "f_only", k=5)
        np.testing.assert_array_equal(got, [1, 0])

    def test_k_validation(self):
        pred = PredictionSet([0.0], [[0.1, 0.1]], [0.0])
        with pytest.raises(ValueError):
            decode_highlights(pred, k=0)


class TestSegmentList:
    def test_segments_and_count(self):
        seg = SegmentList(10, (3, 7))
        assert seg.num_segments == 3
        assert seg.segments() == ((0, 3), (3, 7), (7, 10))

    def test_single_segment(self):
        seg = SegmentList(4, ())
        assert seg.num_segments == 1
        assert seg.segments() == ((0, 4),)

    def test_validation(self):
        with pytest.raises(ValueError):
            SegmentList(0, ())
        with pytest.raises(ValueError):
            SegmentList(5, (0,))
        with pytest.raises(ValueError):
            SegmentList(5, (5,))
        with pytest.raises(ValueError):
            SegmentList(5, (3, 2))
        with pytest.raises(ValueError):
            SegmentList(5, (2, 2))


class TestDecodeSummary:
    def pred(self, logits):
        n = len(logits)
        return PredictionSet(logits, [[0.1, 0.1]] * n, [0.0] * n)

    def test_budget_floor_is_one(self):
        out = decode_summary(self.pred([3.0, 1.0, 2.0, 0.0]), SegmentList(4, ()))
        assert out.clips == (0,)

    def test_budget_scales_with_length(self):
        logits = list(np.linspace(2, -2, 100))
        out = decode_summary(self.pred(logits), SegmentList(100, ()), budget_fraction=0.02)
        assert out.clips == (0, 1)
        out = decode_summary(self.pred(logits), SegmentList(100, ()), budget_fraction=0.05)
        assert out.clips == (0, 1, 2, 3, 4)

    def test_clips_in_rank_order_with_stable_ties(self):
        out = decode_summary(
            self.pred([1.0, 2.0, 2.0, 0.0]), SegmentList(4, ()), budget_fraction=0.75
        )
        assert out.clips == (1, 2, 0)

    def test_segment_scores_mean_and_max(self):
        logits = [0.0, 2.0, -1.0, 1.0]
        probs = sigmoid(np.asarray(logits, dtype=float))
        seg = SegmentList(4, (2,))
        mean_out = decode_summary(self.pred(logits), seg, segment_aggregate="mean")
        np.testing.assert_allclose(
            mean_out.segment_scores, [probs[:2].mean(), probs[2:].mean()]
        )
        max_out = decode_summary(self.pred(logits), seg, segment_aggregate="max")
        np.testing.assert_allclose(max_out.segment_scores, [probs[1], probs[3]])

    def test_validation(self):
        pred = self.pred([0.0, 1.0])
        with pytest.raises(ValueError):
            decode_summary(pred, SegmentList(2, ()), budget_fraction=0.0)
        with pytest.raises(ValueError):
            decode_summary(pred, SegmentList(2, ()), budget_fraction=1.5)
        with pytest.raises(ValueError):
            decode_summary(pred, SegmentList(2, ()), segment_aggregate="median")
        with pytest.raises(ValueError):
            decode_summary(pred, SegmentList(3, ()))

    def test_selection_is_dataclass_of_ints_and_floats(self):
        out = decode_summary(self.pred([1.0, 0.0]), SegmentList(2, ()))
        assert isinstance(out, SummarySelection)
        assert all(isinstance(c, int) for c in out.clips)
        assert all(isinstance(s, float) for s in out.segment_scores)


def _pred(n):
    return PredictionSet(np.zeros(n), np.zeros((n, 2)), np.zeros(n))


def _five_candidates():
    return scored([(0, 1, 0.9), (2, 3, 0.8), (4, 5, 0.7), (6, 7, 0.6), (8, 9, 0.5)])


def _costs_overflow_gram():
    """A non-PSD 4 x 4 Gram whose scatter band is finite but whose two-segment costs overflow.

    Its prefix sums stay finite, so the band check passes: with ``max_clips``
    2, segments [0, 1] and [2, 3] each have scatter d + a, about 1.29e308,
    and their sum, the only split into two segments, overflows to inf.
    """
    a, d = 0.85e308, 0.44e308
    return np.array([[d, -a, a, 0], [-a, d, 0, a], [a, 0, d, -a], [0, a, -a, d]])


# every refusal of tgkit.decode: the call and the message of the ValueError it raises
INPUT_CHECKS = {
    "nms_threshold": (lambda: nms_1d([], 0), "iou_threshold must lie in (0, 1], got 0.0"),
    "nms_string_threshold": (lambda: nms_1d([], "0.5"),
                             "iou_threshold must be a finite number, got '0.5'"),
    "nms_bool_threshold": (lambda: nms_1d(_five_candidates(), True),
                           "iou_threshold must be a finite number, got True"),
    "nms_top_k_zero": (lambda: nms_1d([], 0.7, top_k=0), "top_k must be >= 1, got 0"),
    "nms_top_k_float": (lambda: nms_1d(_five_candidates(), 0.7, top_k=2.5),
                        "top_k must be an integer, got 2.5"),
    "nms_top_k_bool": (lambda: nms_1d(_five_candidates(), 0.7, top_k=True),
                       "top_k must be an integer, got True"),
    "nms_candidate_type": (lambda: nms_1d([(0, 1, 0.5)]),
                           "candidates must be ScoredInterval instances"),
    "moments_top_k_float": (lambda: decode_moments(_pred(6), ClipTimeline(6, 1.0), top_k=2.5),
                            "top_k must be an integer, got 2.5"),
    "moments_string_threshold": (lambda: decode_moments(_pred(6), ClipTimeline(6, 1.0), "0.5"),
                                 "iou_threshold must be a finite number, got '0.5'"),
    "moments_clip_count": (lambda: decode_moments(_pred(3), ClipTimeline(4, 1.0)),
                           "prediction covers 3 clips but the timeline has 4"),
    "highlight_mode": (lambda: highlight_scores(_pred(2), "s_only"),
                       "mode must be f_plus_s or f_only, got 's_only'"),
    "highlights_k": (lambda: decode_highlights(_pred(2), k=0), "k must be >= 1, got 0"),
    "highlights_k_float": (lambda: decode_highlights(_pred(3), k=2.5),
                           "k must be an integer, got 2.5"),
    "highlights_k_bool": (lambda: decode_highlights(_pred(3), k=True),
                          "k must be an integer, got True"),
    "segments_no_clips": (lambda: SegmentList(0, ()), "num_clips must be >= 1, got 0"),
    "segments_float_clips": (lambda: SegmentList(10.0, ()),
                             "num_clips must be an integer, got 10.0"),
    "segments_float_change_point": (lambda: SegmentList(10, (3.7,)),
                                    "change_points must be an integer, got 3.7"),
    "segments_string_change_point": (lambda: SegmentList(10, ("3",)),
                                     "change_points must be an integer, got '3'"),
    "segments_outside": (lambda: SegmentList(10, (10,)),
                         "change points must lie strictly inside (0, 10)"),
    "segments_unordered": (lambda: SegmentList(10, (5, 3)),
                           "change points must be strictly ascending"),
    "kts_two_inputs": (lambda: kts_segment(), "provide exactly one of features or gram"),
    "kts_features_shape": (lambda: kts_segment(features=np.zeros(4)),
                           "features must have shape (n, m), got (4,)"),
    "kts_gram_square": (lambda: kts_segment(gram=np.zeros((2, 3))),
                        "gram matrix must be square and symmetric, got shape (2, 3)"),
    "kts_segment_limits": (lambda: kts_segment(features=np.zeros((4, 2)), max_clips=0),
                           "max_clips must be >= 1, got 0"),
    "kts_max_segments": (lambda: kts_segment(features=np.zeros((4, 2)), max_segments=0),
                         "max_segments must be >= 1, got 0"),
    "kts_penalty": (lambda: kts_segment(features=np.zeros((4, 2)), penalty=-1.0),
                    "penalty must be non-negative, got -1.0"),
    "kts_float_max_segments": (lambda: kts_segment(features=np.zeros((4, 2)), max_segments=2.0),
                               "max_segments must be an integer, got 2.0"),
    "kts_float_max_clips": (lambda: kts_segment(features=np.zeros((4, 2)), max_clips=2.5),
                            "max_clips must be an integer, got 2.5"),
    "kts_bool_max_clips": (lambda: kts_segment(features=np.zeros((4, 2)), max_clips=True),
                           "max_clips must be an integer, got True"),
    "kts_string_penalty": (lambda: kts_segment(features=np.zeros((4, 2)), penalty="1"),
                           "penalty must be a finite number, got '1'"),
    "kts_nan_penalty": (lambda: kts_segment(features=np.zeros((4, 2)), penalty=math.nan),
                        "penalty must be a finite number, got nan"),
    "kts_float_num_segments": (lambda: kts_segment(features=np.zeros((4, 2)), num_segments=2.5),
                               "num_segments must be an integer, got 2.5"),
    "kts_too_many_clips": (lambda: kts_segment(features=np.zeros((7, 2)), max_segments=3,
                                               max_clips=2),
                           "7 clips cannot be covered by 3 segments of at most 2 clips"),
    "kts_num_segments": (lambda: kts_segment(features=np.zeros((4, 2)), num_segments=5),
                         "num_segments=5 infeasible; must lie in [1, 4]"),
    "kts_band_overflow": (lambda: kts_segment(features=np.full((3, 2), 1e300)),
                          "segment scatter overflows float64; scale the features down"),
    "kts_costs_overflow": (lambda: kts_segment(gram=_costs_overflow_gram(), max_segments=2,
                                               max_clips=2),
                           "segment costs overflow float64 for 2 segments; "
                           "scale the features down"),
    "kts_costs_overflow_pinned": (lambda: kts_segment(gram=_costs_overflow_gram(), max_clips=2,
                                                      num_segments=2),
                                  "segment costs overflow float64 for 2 segments; "
                           "scale the features down"),
    "selection_float_clip": (lambda: SummarySelection((1.5,), ()),
                             "clips must be an integer, got 1.5"),
    "selection_string_score": (lambda: SummarySelection((1,), ("0.5",)),
                               "segment_scores must be a finite number, got '0.5'"),
    "summary_budget": (lambda: decode_summary(_pred(2), SegmentList(2, ()), budget_fraction=0.0),
                       "budget_fraction must lie in (0, 1], got 0.0"),
    "summary_string_budget": (lambda: decode_summary(_pred(2), SegmentList(2, ()),
                                                     budget_fraction="0.5"),
                              "budget_fraction must be a finite number, got '0.5'"),
    "summary_bool_budget": (lambda: decode_summary(_pred(2), SegmentList(2, ()),
                                                   budget_fraction=True),
                            "budget_fraction must be a finite number, got True"),
    "summary_aggregate": (lambda: decode_summary(_pred(2), SegmentList(2, ()),
                                                 segment_aggregate="median"),
                          "segment_aggregate must be mean or max, got 'median'"),
    "summary_clip_count": (lambda: decode_summary(_pred(2), SegmentList(3, ())),
                           "segments cover 3 clips but prediction has 2"),
}


@pytest.mark.parametrize("case", INPUT_CHECKS)
def test_input_check(case):
    call, message = INPUT_CHECKS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        call()
    assert info.type is ValueError


def test_integer_top_k_still_limits():
    assert len(nms_1d(_five_candidates(), 0.7, top_k=2)) == 2
    assert len(decode_moments(_pred(6), ClipTimeline(6, 1.0), top_k=np.int64(3))) == 3


def test_numpy_integer_counts_still_work():
    assert len(decode_highlights(_pred(4), k=np.int64(2))) == 2
    features = np.repeat(np.eye(2), 3, axis=0)  # two blocks of three equal clips
    plain = kts_segment(features=features, max_segments=4, max_clips=3, penalty=0.5)
    assert kts_segment(features=features, max_segments=np.int64(4), max_clips=np.int32(3),
                       penalty=np.float32(0.5)) == plain
    assert kts_segment(features=features, num_segments=np.int64(2)).change_points == (3,)
