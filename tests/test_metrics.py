import itertools
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgkit import metrics
from tgkit.core import GroundingWarning, Interval, ScoredInterval
from tgkit.metrics import (
    HighlightEvalItem,
    MomentEvalItem,
    SummaryEvalItem,
    _exact_matching_weight,
    _match_rows,
    highlight_map,
    hit_at_1,
    max_weight_matching,
    moment_map,
    qfvs_f1,
    recall_at_k,
    temporal_iou,
    top5_map,
)

from oracles import (
    hit_at_1_oracle,
    hungarian_reference,
    iou_oracle,
    matching_oracle,
    moment_map_oracle,
    qfvs_oracle,
    ranking_ap_oracle,
    recall_oracle,
)

SETTINGS = dict(max_examples=100, deadline=None)

finite = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


def moment_item(preds, gts, query_id="q"):
    return MomentEvalItem(
        query_id,
        tuple(ScoredInterval(Interval(a, b), s) for a, b, s in preds),
        tuple(Interval(a, b) for a, b in gts),
    )


def random_moment_instance(rng, max_preds=8, max_gts=4):
    num_preds = int(rng.integers(0, max_preds + 1))
    num_gts = int(rng.integers(1, max_gts + 1))
    preds = []
    for _ in range(num_preds):
        a = float(rng.uniform(0, 30))
        preds.append((a, a + float(rng.uniform(0.5, 10)), float(rng.choice([0.2, 0.5, 0.8]))))
    gts = []
    for _ in range(num_gts):
        a = float(rng.uniform(0, 30))
        gts.append((a, a + float(rng.uniform(0.5, 10))))
    return preds, gts


def random_highlight_instance(rng, require_positive=True):
    n = int(rng.integers(1, 12))
    scores = rng.choice([0.1, 0.4, 0.7, 1.0], n)
    positive = rng.random(n) < 0.4
    if require_positive and not positive.any():
        positive[int(rng.integers(0, n))] = True
    return scores.astype(float), positive


class TestTemporalIou:
    def test_worked_examples(self):
        assert temporal_iou(Interval(0, 4), Interval(2, 6)) == pytest.approx(1 / 3)
        assert temporal_iou(Interval(0, 4), Interval(0, 4)) == 1.0
        assert temporal_iou(Interval(0, 1), Interval(2, 3)) == 0.0
        assert temporal_iou(Interval(0, 1), Interval(1, 2)) == 0.0

    def test_degenerate_conventions(self):
        assert temporal_iou(Interval(2, 2), Interval(2, 2)) == 1.0
        assert temporal_iou(Interval(2, 2), Interval(3, 3)) == 0.0
        assert temporal_iou(Interval(2, 2), Interval(0, 4)) == 0.0

    @given(finite, finite, finite, finite, finite, finite)
    @settings(**SETTINGS)
    def test_matches_oracle_and_symmetry(self, a, la, b, lb, _c, _d):
        x, y = Interval(a, a + la), Interval(b, b + lb)
        got = temporal_iou(x, y)
        assert got == iou_oracle(a, a + la, b, b + lb)
        assert got == temporal_iou(y, x)
        assert 0.0 <= got <= 1.0


class TestMomentEvalItem:
    def test_reranks_by_score_with_stable_ties(self):
        item = moment_item([(0, 1, 0.2), (2, 3, 0.8), (4, 5, 0.8)], [(0, 1)])
        starts = [p.interval.start for p in item.predictions]
        assert starts == [2, 4, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            MomentEvalItem("q", ((0, 1, 0.5),), (Interval(0, 1),))
        with pytest.raises(ValueError):
            MomentEvalItem("q", (ScoredInterval(Interval(0, 1), 0.5),), ((0, 1),))


class TestRecallAtK:
    def test_perfect_single_item(self):
        item = moment_item([(2, 6, 0.9)], [(2, 6)])
        out = recall_at_k([item], k=1, thresholds=(0.3, 0.5, 0.7))
        assert out.recall == {0.3: 1.0, 0.5: 1.0, 0.7: 1.0}
        assert out.miou == 1.0

    def test_k_widens_the_candidate_pool(self):
        item = moment_item([(20, 25, 0.9), (2, 6, 0.5)], [(2, 6)])
        assert recall_at_k([item], k=1, thresholds=(0.5,)).recall[0.5] == 0.0
        assert recall_at_k([item], k=2, thresholds=(0.5,)).recall[0.5] == 1.0

    def test_miou_uses_top_prediction_only(self):
        item = moment_item([(0, 4, 0.9), (2, 6, 0.5)], [(2, 6)])
        out = recall_at_k([item], k=2, thresholds=(0.5,))
        assert out.miou == pytest.approx(1 / 3)

    def test_item_without_predictions_counts_zero(self):
        items = [moment_item([], [(0, 2)]), moment_item([(0, 2, 1.0)], [(0, 2)])]
        out = recall_at_k(items, k=1, thresholds=(0.5,))
        assert out.recall[0.5] == 0.5
        assert out.miou == 0.5

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(42)
        thresholds = (0.3, 0.5, 0.7)
        for _ in range(100):
            instances = [random_moment_instance(rng) for _ in range(int(rng.integers(1, 6)))]
            k = int(rng.integers(1, 4))
            expect_recall, expect_miou = recall_oracle(instances, k, thresholds)
            items = [moment_item(p, g) for p, g in instances]
            got = recall_at_k(items, k=k, thresholds=thresholds)
            for t in thresholds:
                assert abs(got.recall[t] - expect_recall[t]) <= 1e-12
            assert abs(got.miou - expect_miou) <= 1e-12

    def test_validation(self):
        item = moment_item([(0, 1, 0.5)], [(0, 1)])
        with pytest.raises(ValueError):
            recall_at_k([item], k=0)
        with pytest.raises(ValueError):
            recall_at_k([item], thresholds=(0.0,))
        with pytest.raises(ValueError):
            recall_at_k([])
        with pytest.raises(ValueError):
            recall_at_k([moment_item([(0, 1, 0.5)], [])])


class TestMomentMap:
    def test_single_gt_fp_then_tp_gives_half(self):
        item = moment_item([(20, 24, 0.9), (2, 6, 0.5)], [(2, 6)])
        out = moment_map([item], thresholds=(0.5,))
        assert out["map_per_threshold"][0.5] == pytest.approx(0.5, abs=1e-12)
        assert out["average_map"] == pytest.approx(0.5, abs=1e-12)

    def test_each_gt_matched_at_most_once(self):
        item = moment_item([(2, 6, 0.9), (2, 6, 0.8)], [(2, 6)])
        out = moment_map([item], thresholds=(0.5,))
        # second perfect prediction is a false positive once the gt is taken
        assert out["map_per_threshold"][0.5] == pytest.approx(1.0, abs=1e-12)
        item2 = moment_item([(2, 6, 0.9), (2, 6, 0.8)], [(2, 6), (2, 6)])
        out2 = moment_map([item2], thresholds=(0.5,))
        assert out2["map_per_threshold"][0.5] == pytest.approx(1.0, abs=1e-12)

    def test_below_threshold_best_match_does_not_consume_gt(self):
        # first pred overlaps best with the gt but below threshold; the gt
        # must stay available for the exact second prediction
        item = moment_item([(0, 4, 0.9), (2, 6, 0.5)], [(2, 6)])
        out = moment_map([item], thresholds=(0.9,))
        assert out["map_per_threshold"][0.9] == pytest.approx(0.5, abs=1e-12)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(7)
        thresholds = (0.3, 0.5, 0.7)
        for _ in range(100):
            instances = [random_moment_instance(rng) for _ in range(int(rng.integers(1, 5)))]
            expect_per_t, expect_avg = moment_map_oracle(instances, thresholds)
            got = moment_map([moment_item(p, g) for p, g in instances], thresholds=thresholds)
            for t in thresholds:
                assert abs(got["map_per_threshold"][t] - expect_per_t[t]) <= 1e-12
            assert abs(got["average_map"] - expect_avg) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            moment_map([])
        with pytest.raises(ValueError):
            moment_map([moment_item([(0, 1, 0.5)], [])])
        with pytest.raises(ValueError):
            moment_map([moment_item([(0, 1, 0.5)], [(0, 1)])], thresholds=(1.5,))


class TestHitAt1:
    def test_top_clip_positive(self):
        item = HighlightEvalItem("q", [0.1, 0.9, 0.3], [0, 1, 0])
        assert hit_at_1([item]) == 1.0

    def test_tie_takes_earliest_clip(self):
        item = HighlightEvalItem("q", [0.9, 0.9], [0, 1])
        assert hit_at_1([item]) == 0.0

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            raw = [random_highlight_instance(rng) for _ in range(int(rng.integers(1, 8)))]
            expect = hit_at_1_oracle([(s.tolist(), p.tolist()) for s, p in raw])
            got = hit_at_1([HighlightEvalItem("q", s, p) for s, p in raw])
            assert abs(got - expect) <= 1e-12

    def test_equals_oracle_bit_for_bit(self):
        # four score values make ties common
        rng = np.random.default_rng(13)
        tied = 0
        for _ in range(1000):
            raw = [random_highlight_instance(rng) for _ in range(int(rng.integers(1, 8)))]
            tied += any(len(set(s.tolist())) < len(s) for s, _ in raw)
            got = hit_at_1([HighlightEvalItem("q", s, p) for s, p in raw])
            assert got == hit_at_1_oracle([(s.tolist(), p.tolist()) for s, p in raw])
        assert tied > 100


@pytest.mark.parametrize("metric", [highlight_map, top5_map, hit_at_1],
                         ids=["highlight_map", "top5_map", "hit_at_1"])
def test_item_without_a_positive_clip_refused(metric):
    # every highlight metric refuses such an item: none skips it with a warning
    good = HighlightEvalItem("a", [0.2, 0.8], [0, 1])
    empty = HighlightEvalItem("b", [0.5, 0.5], [0, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", GroundingWarning)
        with pytest.raises(ValueError, match="item 'b' has no positive clips"):
            metric([good, empty])


class TestHighlightMap:
    def test_perfect_ranking(self):
        item = HighlightEvalItem("q", [0.9, 0.8, 0.1], [1, 1, 0])
        assert highlight_map([item]) == pytest.approx(1.0, abs=1e-12)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            raw = [random_highlight_instance(rng) for _ in range(int(rng.integers(1, 8)))]
            expect = float(
                np.mean([ranking_ap_oracle(s.tolist(), p.tolist()) for s, p in raw])
            )
            got = highlight_map([HighlightEvalItem("q", s, p) for s, p in raw])
            assert abs(got - expect) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            highlight_map([])
        with pytest.raises(ValueError):
            highlight_map([HighlightEvalItem("q", [0.5], [0])])


class TestTop5Map:
    def test_truncates_at_rank_five(self):
        # positive buried at rank 6 contributes nothing
        scores = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4]
        item = HighlightEvalItem("q", scores, [0, 0, 0, 0, 0, 1])
        out = top5_map([item])
        assert out["top5_map"] == 0.0
        assert out["protocol"] == "reconstructed"

    def test_denominator_capped_at_five(self):
        # seven positives, perfect ranking: top five all hit, denominator 5
        item = HighlightEvalItem("q", np.linspace(1, 0.3, 8), [1] * 7 + [0])
        out = top5_map([item])
        assert out["top5_map"] == pytest.approx(1.0, abs=1e-12)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            raw = [random_highlight_instance(rng) for _ in range(int(rng.integers(1, 8)))]
            expect = float(
                np.mean([ranking_ap_oracle(s.tolist(), p.tolist(), cutoff=5) for s, p in raw])
            )
            got = top5_map([HighlightEvalItem("q", s, p) for s, p in raw])
            assert abs(got["top5_map"] - expect) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            top5_map([])
        with pytest.raises(ValueError):
            top5_map([HighlightEvalItem("q", [0.5], [0])])


class TestHighlightEvalItem:
    def test_validation(self):
        with pytest.raises(ValueError):
            HighlightEvalItem("q", [], [])
        with pytest.raises(ValueError):
            HighlightEvalItem("q", [0.5, 0.5], [1])
        with pytest.raises(ValueError):
            HighlightEvalItem("q", [np.nan, 0.5], [0, 1])
        with pytest.raises(ValueError):
            HighlightEvalItem("q", [0.5, 0.5], [0, 2])

    def test_num_positives(self):
        assert HighlightEvalItem("q", [0.1, 0.2, 0.3], [1, 0, 1]).num_positives == 2


def concept_iou_matrix(rng, rows, cols):
    """Concept-set IoUs of ``rows`` predicted against ``cols`` reference clips, times L.

    The clips come from a video of scenes 3-12 clips long, each scene
    carrying one set of 1-3 concepts out of 12, so whole blocks of the
    matrix repeat the same few values.  L is the least common multiple of
    the IoUs' denominators, so every weight is an integer.
    """
    vocab = [f"c{c:02d}" for c in range(12)]
    concepts = []
    while len(concepts) < 2 * (rows + cols):
        chosen = frozenset(rng.choice(vocab, size=int(rng.integers(1, 4)), replace=False))
        concepts += [chosen] * int(rng.integers(3, 13))
    pred = np.sort(rng.choice(len(concepts), rows, replace=False))
    gt = np.sort(rng.choice(len(concepts), cols, replace=False))
    ious = [[Fraction(len(concepts[p] & concepts[g]), len(concepts[p] | concepts[g])) for g in gt]
            for p in pred]
    scale = math.lcm(*(iou.denominator for row in ious for iou in row))
    return np.array([[int(iou * scale) for iou in row] for row in ious], dtype=np.float64)


def assert_matching(w, pairs, total):
    """``pairs``, sorted, use each row and column once, on positive weights summing to ``total``."""
    assert pairs == sorted(pairs)
    assert len({r for r, _ in pairs}) == len(pairs) == len({c for _, c in pairs})
    assert all(w[r, c] > 0 for r, c in pairs)
    assert sum(w[r, c] for r, c in pairs) == total


class TestMaxWeightMatching:
    def test_simple_assignment(self):
        pairs, total = max_weight_matching([[0.9, 0.1], [0.2, 0.8]])
        assert pairs == [(0, 0), (1, 1)]
        assert total == pytest.approx(1.7, abs=1e-12)

    def test_cross_assignment_beats_greedy(self):
        # greedy row-wise would take (0,0)=0.9 then (1,1)=0.1 = 1.0;
        # optimum crosses for 0.8 + 0.7 = 1.5
        pairs, total = max_weight_matching([[0.9, 0.8], [0.7, 0.1]])
        assert pairs == [(0, 1), (1, 0)]
        assert total == pytest.approx(1.5, abs=1e-12)

    def test_zero_weight_pairs_dropped(self):
        pairs, total = max_weight_matching([[0.0, 0.0], [0.0, 0.5]])
        assert pairs == [(1, 1)]
        assert total == pytest.approx(0.5, abs=1e-12)

    def test_all_zero(self):
        pairs, total = max_weight_matching(np.zeros((3, 3)))
        assert pairs == []
        assert total == 0.0

    def test_empty(self):
        assert max_weight_matching(np.zeros((0, 3))) == ([], 0.0)

    def test_rectangular_shapes(self):
        pairs, total = max_weight_matching([[0.5], [0.9], [0.4]])
        assert pairs == [(1, 0)]
        assert total == pytest.approx(0.9, abs=1e-12)

    def test_matches_permutation_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            rows = int(rng.integers(1, 8))
            cols = int(rng.integers(1, 8))
            w = rng.uniform(0, 1, (rows, cols))
            w[rng.random((rows, cols)) < 0.3] = 0.0
            expect_pairs, expect_total = matching_oracle(w)
            pairs, total = max_weight_matching(w)
            assert abs(total - expect_total) <= 1e-12
            assert len(pairs) == len(set(r for r, _ in pairs))
            assert len(pairs) == len(set(c for _, c in pairs))
            assert all(w[r, c] > 0 for r, c in pairs)

    @pytest.mark.parametrize("weights", ["tied", "continuous", "concepts"])
    def test_identical_to_scalar_loop(self, weights):
        # on integer weights the padded scalar loop's total is the exact optimum, and so is
        # the unpadded matcher's; ties may be matched by other, equally optimal pairs
        rng = np.random.default_rng(47)
        shapes = [(1, 1), (1, 9), (9, 1)]
        shapes += [tuple(int(x) for x in rng.integers(1, 61, 2)) for _ in range(40)]
        if weights == "tied":
            shapes += [(150, 150), (150, 41), (41, 150)]
        if weights == "concepts":
            # summary-shaped: a few predicted clips against more reference clips
            shapes = [(int(r), int(c)) for c in rng.integers(8, 61, 30)
                      for r in [rng.integers(1, c // 2 + 1)]] + [(24, 94)]
            # the summary shapes of perfbench's long_videos workload
            shapes += [(6, 74), (8, 94), (11, 75), (13, 62), (16, 69), (18, 72), (21, 87),
                       (24, 56)]
        for shape in shapes:
            if weights == "tied":
                w = rng.integers(0, 4, shape)  # few distinct values, many ties
            elif weights == "concepts":
                w = concept_iou_matrix(rng, *shape)
            else:
                w = rng.integers(1, 2**20, shape)
                w[rng.random(shape) < 0.3] = 0
            _, expect_total = hungarian_reference(w)
            pairs, total = max_weight_matching(w)
            assert total == expect_total, shape
            assert_matching(w, pairs, total)

    def test_python_ints_past_float_range(self):
        # near 2**80, float64 would round these weights; as Python ints the total is exact
        big = 2**80
        w = np.array([[big + 1, big + 3, 0], [big + 2, big + 7, 5]], dtype=object)
        for weights, expect in ((w, [(0, 0), (1, 1)]), (w.T, [(0, 0), (1, 1)])):
            pairs, total = max_weight_matching(weights)
            assert pairs == expect
            assert type(total) is int and total == 2 * big + 8
            assert_matching(weights, pairs, total)

    def test_object_array_of_floats_refused(self):
        with pytest.raises(ValueError, match="^an object array of weights must hold Python ints$"):
            max_weight_matching(np.array([[1, 0.5]], dtype=object))

    def test_validation(self):
        with pytest.raises(ValueError):
            max_weight_matching(np.ones(3))
        with pytest.raises(ValueError):
            max_weight_matching([[-0.1]])
        with pytest.raises(ValueError):
            max_weight_matching([[np.inf]])


class TestSearchBound:
    def test_a_search_that_finds_no_free_column_raises(self):
        # more rows than columns: the last row's search runs out of columns,
        # and the bound on its steps turns what would loop into an error
        cost = -np.arange(12.0).reshape(4, 3)
        with np.errstate(invalid="ignore"), pytest.raises(
                RuntimeError, match="search for row 3 took 3 steps and found no free column"):
            _match_rows(cost)


def fraction_optimum(row_sets, col_sets):
    """Maximum total concept IoU over every matching, in exact arithmetic."""
    if len(row_sets) > len(col_sets):
        row_sets, col_sets = col_sets, row_sets
    ious = [[Fraction(len(a & b), len(a | b)) if a | b else Fraction(0) for b in col_sets]
            for a in row_sets]
    return max(sum((ious[r][c] for r, c in enumerate(cols)), Fraction(0))
               for cols in itertools.permutations(range(len(col_sets)), len(row_sets)))


def random_concept_sets(rng, count, pool="abcdef"):
    return [frozenset(rng.choice(list(pool), size=int(rng.integers(0, 4)), replace=False).tolist())
            for _ in range(count)]


def prime_sized_sets(bound):
    """Two one-concept rows and a column per prime p < bound whose union with a row has size p.

    The first column, {a, b}, is each row's best, so the second row's search
    has to pass through the first row's column; L is twice the product of the
    primes, past 2**53 for bound 50 and past 2**1024 for bound 1000.
    """
    primes = [p for p in range(3, bound) if all(p % d for d in range(2, int(p**0.5) + 1))]
    cols = [frozenset("ab")]
    for k, p in enumerate(primes):
        shared = "ab"[k % 2]
        cols.append(frozenset([shared] + [f"{p}-{i}" for i in range(p - 1)]))
    return [frozenset("a"), frozenset("b")], cols


class TestExactMatchingWeight:
    def test_equals_exhaustive_fraction_optimum(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            rows = int(rng.integers(1, 6))
            row_sets = random_concept_sets(rng, rows)
            col_sets = random_concept_sets(rng, int(rng.integers(rows, 7)))
            assert _exact_matching_weight(row_sets, col_sets) == float(
                fraction_optimum(row_sets, col_sets))

    def test_same_bits_for_transpose_and_row_permutation(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            a, b = random_concept_sets(rng, n), random_concept_sets(rng, n)
            w = _exact_matching_weight(a, b)
            assert _exact_matching_weight(b, a) == w
            order = rng.permutation(n)
            assert _exact_matching_weight([a[i] for i in order], b) == w

    def test_summary_shaped_matrices_equal_the_fraction_optimum(self):
        # 2-3 predicted clips against up to 40 reference clips drawn from scenes
        rng = np.random.default_rng(37)
        for _ in range(20):
            scenes = random_concept_sets(rng, 6, pool="abcdefghij")
            row_sets = [scenes[i] for i in rng.integers(0, 6, int(rng.integers(2, 4)))]
            col_sets = [scenes[i] for i in rng.integers(0, 6, int(rng.integers(3, 41)))]
            assert _exact_matching_weight(row_sets, col_sets) == float(
                fraction_optimum(row_sets, col_sets))

    @pytest.mark.parametrize("bound", [50, 1000])
    def test_scale_past_float_range_is_exact(self, bound):
        row_sets, col_sets = prime_sized_sets(bound)
        assert _exact_matching_weight(row_sets, col_sets) == float(
            fraction_optimum(row_sets, col_sets))


class TestQfvsF1:
    def concepts(self):
        return {
            0: frozenset({"dog", "park"}),
            1: frozenset({"dog"}),
            2: frozenset({"car"}),
            3: frozenset({"park", "car"}),
        }

    def test_perfect_summary(self):
        item = SummaryEvalItem((0, 2), (0, 2), self.concepts())
        out = qfvs_f1(item)
        assert out.precision == 1.0
        assert out.recall == 1.0
        assert out.f1 == 1.0

    def test_partial_overlap(self):
        item = SummaryEvalItem((1,), (0,), self.concepts())
        out = qfvs_f1(item)
        # IoU({dog}, {dog, park}) = 1/2
        assert out.precision == pytest.approx(0.5)
        assert out.recall == pytest.approx(0.5)
        assert out.f1 == pytest.approx(0.5)

    def test_empty_selection_scores_zero_empty_reference_refused(self):
        # as a moment item without predictions scores 0 and one without ground truths is refused
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert qfvs_f1(SummaryEvalItem((), (0,), self.concepts())) == (0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="^item 'v/q' has no foreground clips$"):
            qfvs_f1(SummaryEvalItem((0,), (), self.concepts(), "v/q"))

    def test_one_matcher_call_per_scored_item(self, monkeypatch):
        # qfvs_f1 reaches the matcher through the module's name, where a wrapper can time it
        shapes = []

        def counted(weights):
            shapes.append(weights.shape)
            return max_weight_matching(weights)

        monkeypatch.setattr(metrics, "max_weight_matching", counted)
        items = [SummaryEvalItem((0, 1, 3), (2,), self.concepts()),
                 SummaryEvalItem((), (0,), self.concepts()),
                 SummaryEvalItem((1,), (0, 3), self.concepts())]
        scores = [qfvs_f1(item) for item in items]
        assert shapes == [(3, 1), (1, 2)]
        assert scores[0].precision == pytest.approx(0.5 / 3)
        assert scores[2].recall == pytest.approx(0.25)

    def test_disjoint_concepts_zero_f1(self):
        out = qfvs_f1(SummaryEvalItem((1,), (2,), self.concepts()))
        assert out.f1 == 0.0

    def test_matches_permutation_oracle(self):
        rng = np.random.default_rng(17)
        pool = ["dog", "car", "park", "tree", "road"]
        for _ in range(100):
            concepts = {
                i: frozenset(rng.choice(pool, size=rng.integers(0, 4), replace=False))
                for i in range(10)
            }
            pred = tuple(rng.choice(10, size=rng.integers(1, 7), replace=False).tolist())
            gt = tuple(rng.choice(10, size=rng.integers(1, 7), replace=False).tolist())
            item = SummaryEvalItem(pred, gt, concepts)
            ep, er, ef = qfvs_oracle(item.predicted_clips, item.gt_clips, concepts)
            got = qfvs_f1(item)
            assert abs(got.precision - ep) <= 1e-12
            assert abs(got.recall - er) <= 1e-12
            assert abs(got.f1 - ef) <= 1e-12


class TestSummaryEvalItem:
    def test_query_id_names_the_item(self):
        assert SummaryEvalItem((0,), (0,), {0: set()}, "v/q").query_id == "v/q"
        assert SummaryEvalItem((0,), (0,), {0: set()}).query_id == ""

    def test_runs_of_equal_concept_lists_share_a_set(self):
        item = SummaryEvalItem((0,), (2,), {0: ["a"], 1: ["a"], 2: ("b",), 3: {"b", "c"}})
        assert item.clip_concepts == {0: {"a"}, 1: {"a"}, 2: {"b"}, 3: {"b", "c"}}
        assert item.clip_concepts[0] is item.clip_concepts[1]

    @pytest.mark.parametrize("concepts", ["dog", ["dog", 1], [True], None, {"dog": 1}],
                             ids=["string", "int", "bool", "none", "dict"])
    def test_concepts_other_than_strings_refused(self, concepts):
        # "dog" would read as the set {"d", "o", "g"}
        with pytest.raises(ValueError, match="concepts must be a list of strings"):
            SummaryEvalItem((0,), (1,), {0: ["dog"], 1: concepts})

    def test_numpy_integer_keys_read_as_ints(self):
        item = SummaryEvalItem((0,), (1,), {np.int64(0): ["a"], 1: ["b"]})
        assert item.clip_concepts == {0: {"a"}, 1: {"b"}}
        assert all(type(i) is int for i in item.clip_concepts)

    def test_dedup_and_sort(self):
        item = SummaryEvalItem((3, 1, 3), (2,), {1: set(), 2: set(), 3: set()})
        assert item.predicted_clips == (1, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            SummaryEvalItem((-1,), (0,), {0: set()})
        with pytest.raises(ValueError):
            SummaryEvalItem((0,), (1,), {0: set()})


def _one_moment():
    return [moment_item([(0, 1, 0.5)], [(0, 1)])]


# every refusal of tgkit.metrics: the call and the message of the ValueError it raises
INPUT_CHECKS = {
    "moment_prediction_type": (lambda: MomentEvalItem("q", ((0, 1, 0.5),), ()),
                               "predictions must be ScoredInterval instances"),
    "moment_truth_type": (lambda: MomentEvalItem("q", (), ((0, 1),)),
                          "ground truths must be Interval instances"),
    "highlight_shape": (lambda: HighlightEvalItem("q", [[0.5]], [1]),
                        "clip_scores must have shape (n,), got (1, 1)"),
    "highlight_string_score": (lambda: HighlightEvalItem("q", ["0.5"], [1]),
                               "clip_scores must be an array of numbers"),
    "highlight_binary": (lambda: HighlightEvalItem("q", [0.5], [2]),
                         "gt_positive entries must be binary"),
    "summary_float_clip": (lambda: SummaryEvalItem((1.9,), (1,), {1: ["a"]}),
                           "predicted_clips must be an integer, got 1.9"),
    "summary_bool_reference": (lambda: SummaryEvalItem((1,), (True,), {1: ["a"]}),
                               "gt_clips must be an integer, got True"),
    "summary_string_key": (lambda: SummaryEvalItem((1,), (1,), {"1": ["a"]}),
                           "clip_concepts key must be an integer, got '1'"),
    "summary_bool_key_among_ints": (lambda: SummaryEvalItem((0,), (0,), {0: ["a"], True: ["b"]}),
                                    "clip_concepts key must be an integer, got True"),
    "summary_float_key_among_ints": (lambda: SummaryEvalItem((0,), (0,), {0: ["a"], 1.0: ["b"]}),
                                     "clip_concepts key must be an integer, got 1.0"),
    "summary_negative_clip": (lambda: SummaryEvalItem((-1,), (0,), {0: ["a"]}),
                              "predicted_clips must be non-negative, got -1"),
    "summary_missing_clip": (lambda: SummaryEvalItem((0,), (1, 2), {0: ["a"]}),
                             "concept map missing clips [1, 2]"),
    "summary_string_concepts": (lambda: SummaryEvalItem((0,), (0,), {0: "dog"}),
                                "a clip's concepts must be a list of strings, got 'dog'"),
    "summary_no_reference": (lambda: qfvs_f1(SummaryEvalItem((0,), (), {0: ["a"]}, "v/q")),
                             "item 'v/q' has no foreground clips"),
    "thresholds_bool": (lambda: moment_map(_one_moment(), thresholds=(True,)),
                        "thresholds must be a finite number, got True"),
    "thresholds_string": (lambda: recall_at_k(_one_moment(), thresholds=("0.5",)),
                          "thresholds must be a finite number, got '0.5'"),
    "thresholds_range": (lambda: moment_map(_one_moment(), thresholds=(0,)),
                         "thresholds must lie in (0, 1], got 0.0"),
    "thresholds_repeat": (lambda: recall_at_k(_one_moment(), thresholds=(0.5, 0.5)),
                          "thresholds must not repeat, got (0.5, 0.5)"),
    "recall_zero_items": (lambda: recall_at_k([]), "recall over zero items is undefined"),
    "map_no_truth": (lambda: moment_map([moment_item([], [])]), "item 'q' has no ground truths"),
    "recall_k": (lambda: recall_at_k(_one_moment(), k=0), "k must be >= 1, got 0"),
    "recall_k_float": (lambda: recall_at_k(_one_moment(), k=1.5), "k must be an integer, got 1.5"),
    "recall_k_bool": (lambda: recall_at_k(_one_moment(), k=True), "k must be an integer, got True"),
    "highlight_zero_items": (lambda: highlight_map([]),
                             "highlight mAP over zero items is undefined"),
    "highlight_no_positive": (lambda: hit_at_1([HighlightEvalItem("v/q", [0.5], [0])]),
                              "item 'v/q' has no positive clips"),
    "weights_object": (lambda: max_weight_matching(np.array([[1.5]], dtype=object)),
                       "an object array of weights must hold Python ints"),
    "weights_ndim": (lambda: max_weight_matching(np.zeros(3)),
                     "weights must be 2-D, got shape (3,)"),
    "weights_negative": (lambda: max_weight_matching([[-1.0]]),
                         "weights must be finite and non-negative"),
}


@pytest.mark.parametrize("case", INPUT_CHECKS)
def test_input_check(case):
    call, message = INPUT_CHECKS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        call()
    assert info.type is ValueError
