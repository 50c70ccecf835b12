import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgkit import fit
from tgkit.core import (ClipTimeline, GroundingWarning, GroundTruthRecord, Interval,
                        PredictionSet, UnifiedLabel)
from tgkit.gradcheck import grad_check
from tgkit.losses import (
    EmbeddingBatch,
    LossWeights,
    _giou_endpoints,
    _LossBatch,
    _row_norms,
    _softplus,
    _total_loss_arrays,
    boundary_loss,
    foreground_loss,
    giou_1d,
    saliency_cosines,
    saliency_inter_loss,
    saliency_intra_loss,
    sample_positive,
    sigmoid,
    smooth_l1,
    total_loss,
)

from tgkit.synth import toy_corpus

from oracles import (bce_oracle, fd_gradient, giou_endpoints_reference, infonce_oracle,
                     sigmoid_masked_reference, total_loss_kernel_reference, total_loss_oracle)

SETTINGS = dict(max_examples=100, deadline=None)


def label_of(f, d=None, s=None):
    f = np.asarray(f)
    n = f.shape[0]
    if d is None:
        d = np.where(f[:, None] == 1, 1.0, 0.0) * np.ones((n, 2))
    if s is None:
        s = f.astype(float)
    return UnifiedLabel(f, np.asarray(d, dtype=float), np.asarray(s, dtype=float))


class TestLossWeights:
    def test_defaults_are_protocol_constants(self):
        w = LossWeights()
        assert w.tau == 0.07
        assert w.neg_weight == 0.1
        assert w.smooth_l1_beta == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LossWeights(lambda_f=-1)
        with pytest.raises(ValueError):
            LossWeights(tau=0.0)
        with pytest.raises(ValueError):
            LossWeights(neg_weight=1.5)


def _embeddings(b=2, l=3, d=2):
    return EmbeddingBatch(np.ones((b, l, d)), np.ones((b, d)))


def _total(b=2, preds=None, labels=None, timelines=None, emb=None, rng_seed=0):
    """``total_loss`` over ``b`` two-clip records, with any argument swapped out."""
    pred = PredictionSet(np.zeros(2), np.ones((2, 2)), np.zeros(2))
    label = label_of([1, 0])
    return total_loss(preds if preds is not None else [pred] * b,
                      emb if emb is not None else _embeddings(b, 2),
                      labels if labels is not None else [label] * b,
                      timelines if timelines is not None else [ClipTimeline(2, 1.0)] * b,
                      rng_seed=rng_seed)


def _zero_clip_embedding_row():
    """``grad_check("total")`` at explicit inputs whose first clip embedding is all zeros."""
    clip_embeddings = np.full((2, 5, 3), 0.5)
    clip_embeddings[0, 0] = 0.0
    return grad_check("total", inputs={
        "foreground_logits": np.zeros((2, 5)), "offsets": np.full((2, 5, 2), 0.37),
        "clip_embeddings": clip_embeddings, "sentence_embeddings": np.full((2, 3), 0.5)})


# input checks no other test reaches: the call, and the message of the ValueError it raises
INPUT_CHECKS = {
    "weights_beta": (lambda: LossWeights(smooth_l1_beta=0),
                     "smooth_l1_beta must be positive, got 0.0"),
    "weights_string_tau": (lambda: LossWeights(tau="0.1"),
                           "tau must be a finite number, got '0.1'"),
    "weights_bool_lambda": (lambda: LossWeights(lambda_iou=True),
                            "lambda_iou must be a finite number, got True"),
    "weights_nan_lambda": (lambda: LossWeights(lambda_f=np.nan),
                           "lambda_f must be a finite number, got nan"),
    "weights_negative_lambda": (lambda: LossWeights(lambda_intra=-1),
                                "lambda_intra must be non-negative, got -1.0"),
    "weights_infinite_neg_weight": (lambda: LossWeights(neg_weight=np.inf),
                                    "neg_weight must be a finite number, got inf"),
    "weights_neg_weight_range": (lambda: LossWeights(neg_weight=1.5),
                                 "neg_weight must lie in [0, 1], got 1.5"),
    "weights_numpy_bool_beta": (lambda: LossWeights(smooth_l1_beta=np.bool_(True)),
                                "smooth_l1_beta must be a finite number, got True"),
    "weights_tau_range": (lambda: LossWeights(tau=0), "tau must be positive, got 0.0"),
    "embeddings_ndim": (lambda: EmbeddingBatch(np.ones((2, 3)), np.ones((2, 3))),
                        "clip_embeddings must have shape (n, m, k), got (2, 3)"),
    "embeddings_sentence_shape": (lambda: EmbeddingBatch(np.ones((2, 3, 4)), np.ones((2, 3))),
                                  "sentence_embeddings must have shape (2, 4), got (2, 3)"),
    "embeddings_finite": (lambda: EmbeddingBatch(np.full((1, 2, 2), np.nan), np.ones((1, 2))),
                          "clip_embeddings must be finite"),
    "foreground_ndim": (lambda: foreground_loss(np.zeros(0), np.zeros(0)),
                        "logits must have shape (n,), got (0,)"),
    "foreground_target_shape": (lambda: foreground_loss(np.zeros(3), [0, 1]),
                                "targets must have shape (3,), got (2,)"),
    "foreground_binary": (lambda: foreground_loss(np.zeros(2), [0, 2]), "targets must be 0 or 1"),
    "foreground_finite": (lambda: foreground_loss([0.0, np.inf], [0, 1]),
                          "logits must be finite"),
    "smooth_l1_beta": (lambda: smooth_l1(1.0, beta=0), "beta must be positive, got 0.0"),
    "boundary_shape": (lambda: boundary_loss(np.zeros((3, 2)), label_of([1, 0, 0, 1]),
                                             ClipTimeline(4, 1.0)),
                       "pred_offsets must have shape (4, 2), got (3, 2)"),
    "boundary_finite": (lambda: boundary_loss(np.full((2, 2), np.nan), label_of([1, 0]),
                                              ClipTimeline(2, 1.0)),
                        "pred_offsets must be finite"),
    "intra_shape": (lambda: saliency_intra_loss(np.zeros(3), label_of([1, 0, 0, 1])),
                    "cosines must have shape (4,), got (3,)"),
    "intra_finite": (lambda: saliency_intra_loss([np.nan, 0.0], label_of([1, 0])),
                     "cosines must be finite"),
    "intra_rng_seed": (lambda: saliency_intra_loss([0.5, 0.0], label_of([1, 0]), rng_seed=-1),
                       "rng_seed must be non-negative, got -1"),
    "intra_rng_seed_bool": (lambda: saliency_intra_loss([0.5, 0.0], label_of([1, 0]), True),
                            "rng_seed must be an integer, got True"),
    "inter_shape": (lambda: saliency_inter_loss(np.zeros((2, 3))),
                    "pair_cosines must be square, got shape (2, 3)"),
    "inter_string_entry": (lambda: saliency_inter_loss([["0.5"]]),
                           "pair_cosines must be an array of numbers"),
    "inter_finite": (lambda: saliency_inter_loss([[0.0, np.nan], [0.0, 0.0]]),
                     "pair_cosines must be finite"),
    "total_batch_size": (lambda: _total(timelines=[ClipTimeline(2, 1.0)]),
                         "preds, labels, timelines, and embeddings must agree on batch size"),
    # an empty batch has no embeddings to build, so total_loss never sees one
    "total_empty": (lambda: EmbeddingBatch(np.ones((0, 2, 2)), np.ones((0, 2))),
                    "clip_embeddings must have shape (n, m, k), got (0, 2, 2)"),
    "total_clip_count": (lambda: _total(timelines=[ClipTimeline(2, 1.0), ClipTimeline(3, 1.0)]),
                         "all records must share the embedding clip count"),
    "total_rng_seed": (lambda: _total(rng_seed=-1), "rng_seed must be non-negative, got -1"),
    "total_rng_seed_float": (lambda: _total(rng_seed=1.5), "rng_seed must be an integer, got 1.5"),
    "cosine_zero_norm": (_zero_clip_embedding_row, "zero-norm embeddings have no cosine"),
}


@pytest.mark.parametrize("case", INPUT_CHECKS)
def test_input_check(case):
    call, message = INPUT_CHECKS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        call()
    assert info.type is ValueError


class TestForegroundLoss:
    def test_closed_form_at_zero_logits(self):
        rep = foreground_loss(np.zeros(2), np.array([1, 0]))
        expected = (math.log(2) + 0.1 * math.log(2)) / 2
        assert abs(rep.value - expected) < 1e-12

    def test_matches_naive_bce(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=7)
        targets = (rng.uniform(size=7) < 0.5).astype(int)
        w = LossWeights(lambda_f=1.3, neg_weight=0.1)
        rep = foreground_loss(logits, targets, w)
        assert abs(rep.value - bce_oracle(logits, targets, 1.3, 0.1)) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        logits = rng.uniform(-3, 3, 6)
        targets = np.array([1, 0, 1, 1, 0, 0])
        rep = foreground_loss(logits, targets)
        num = fd_gradient(
            lambda a: foreground_loss(a["logits"], targets).value, {"logits": logits}
        )["logits"]
        np.testing.assert_allclose(rep.grad("logits"), num, atol=1e-8)

    def test_extreme_logits_stay_finite(self):
        rep = foreground_loss(np.array([800.0, -800.0]), np.array([0, 1]))
        assert np.isfinite(rep.value)
        assert np.isfinite(rep.grad("logits")).all()

    def test_gradient_report_names(self):
        rep = foreground_loss(np.zeros(1), np.array([1]))
        with pytest.raises(KeyError):
            rep.grad("nope")


class TestSmoothL1:
    @given(x=st.floats(-10, 10), beta=st.sampled_from((0.5, 1.0, 2.0)))
    @settings(**SETTINGS)
    def test_piecewise_formula(self, x, beta):
        value, deriv = smooth_l1(x, beta)
        if abs(x) < beta:
            assert math.isclose(value, 0.5 * x * x / beta, abs_tol=1e-12)
            assert math.isclose(deriv, x / beta, abs_tol=1e-12)
        else:
            assert math.isclose(value, abs(x) - 0.5 * beta, abs_tol=1e-12)
            assert deriv == math.copysign(1.0, x) or (x == 0 and deriv == 0)

    def test_continuous_at_seam(self):
        below, _ = smooth_l1(1.0 - 1e-12, 1.0)
        above, _ = smooth_l1(1.0 + 1e-12, 1.0)
        assert abs(below - above) < 1e-9

    def test_vector_input(self):
        v, g = smooth_l1(np.array([-2.0, 0.5]), 1.0)
        np.testing.assert_allclose(v, [1.5, 0.125])
        np.testing.assert_allclose(g, [-1.0, 0.5])

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_extreme_inputs_stay_finite_and_exact(self, beta):
        # both np.where branches are computed everywhere; squaring a huge |x| in the
        # discarded quadratic one used to overflow
        info = np.finfo(np.float64)
        x = np.array([1e200, 1e300, info.max, 0.0, info.smallest_subnormal,
                      3 * info.smallest_subnormal, info.tiny / 2,
                      np.nextafter(beta, 0.0), beta, np.nextafter(beta, np.inf)])
        x = np.concatenate((x, -x))
        # the square of a subnormal underflows to its correct rounding, which is no fault
        with np.errstate(all="raise", under="ignore"):
            value, deriv = smooth_l1(x, beta)
        assert np.isfinite(value).all() and np.isfinite(deriv).all()
        with np.errstate(all="ignore"):  # the expressions smooth_l1 used before
            inner = np.abs(x) < beta
            old_value = np.where(inner, 0.5 * x * x / beta, np.abs(x) - 0.5 * beta)
            old_deriv = np.where(inner, x / beta, np.sign(x))
        for new, old in ((value, old_value), (deriv, old_deriv)):
            finite = np.isfinite(old)
            assert np.array_equal(new[finite].view(np.uint64), old[finite].view(np.uint64))


class TestGiou1d:
    def test_worked_examples(self):
        rep = giou_1d(Interval(0, 10), Interval(5, 15))
        assert abs(rep.value - 1 / 3) < 1e-12
        assert abs(rep.grad("a")[1] - 1 / 15) < 1e-12
        rep = giou_1d(Interval(0, 5), Interval(10, 15))
        assert abs(rep.value + 1 / 3) < 1e-12

    def test_identical_intervals(self):
        assert giou_1d(Interval(2, 4), Interval(2, 4)).value == 1.0

    def test_degenerate_conventions(self):
        assert giou_1d(Interval(3, 3), Interval(3, 3)).value == 1.0
        assert giou_1d(Interval(1, 1), Interval(5, 5)).value == -1.0

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a = np.sort(rng.uniform(0, 20, 2))
            b = np.sort(rng.uniform(0, 20, 2))
            v = giou_1d(Interval(*a), Interval(*b)).value
            assert -1.0 <= v <= 1.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = np.sort(rng.uniform(0, 20, 2) * np.array([1, 1]) + [0, 0.5])
            b = np.sort(rng.uniform(0, 20, 2) + [0, 0.5])

            def value(arrs):
                return giou_1d(Interval(*arrs["a"]), Interval(*arrs["b"])).value

            rep = giou_1d(Interval(*a), Interval(*b))
            num = fd_gradient(value, {"a": a, "b": b})
            np.testing.assert_allclose(rep.grad("a"), num["a"], atol=1e-6)
            np.testing.assert_allclose(rep.grad("b"), num["b"], atol=1e-6)


class TestBoundaryLoss:
    def test_worked_example_l1_only(self):
        tl = ClipTimeline(2, 2.0)
        label = label_of([1, 0], [[1.0, 1.0], [0, 0]], [1, 0])
        pred = np.array([[1.5, 0.5], [0.3, 0.3]])
        w = LossWeights(lambda_l1=1.0, lambda_iou=0.0)
        rep = boundary_loss(pred, label, tl, w)
        # two residuals of 0.5 under beta=1: 2 * 0.125 = 0.25
        assert abs(rep.value - 0.25) < 1e-12
        assert rep.extras["foreground_count"] == 1

    def test_perfect_prediction_is_zero(self):
        tl = ClipTimeline(3, 2.0)
        label = label_of([0, 1, 0], [[0, 0], [1.0, 3.0], [0, 0]], [0, 1, 0])
        rep = boundary_loss(label.offsets.copy(), label, tl)
        assert abs(rep.value) < 1e-12

    def test_background_rows_get_zero_gradient(self):
        tl = ClipTimeline(3, 2.0)
        label = label_of([0, 1, 0], [[0, 0], [1.0, 1.0], [0, 0]], [0, 1, 0])
        pred = np.full((3, 2), 0.7)
        rep = boundary_loss(pred, label, tl)
        g = rep.grad("offsets")
        assert g[0].tolist() == [0.0, 0.0]
        assert g[2].tolist() == [0.0, 0.0]
        assert np.abs(g[1]).sum() > 0

    def test_no_foreground_warns_and_returns_zero(self):
        tl = ClipTimeline(2, 2.0)
        label = label_of([0, 0], [[0, 0], [0, 0]], [0, 0])
        with pytest.warns(GroundingWarning):
            rep = boundary_loss(np.ones((2, 2)), label, tl)
        assert rep.value == 0.0
        assert not rep.grad("offsets").any()

    def test_inverted_offsets_still_defined(self):
        tl = ClipTimeline(2, 2.0)
        label = label_of([1, 0], [[0.5, 0.5], [0, 0]], [1, 0])
        rep = boundary_loss(np.array([[-2.0, -3.0], [0, 0]]), label, tl)
        assert np.isfinite(rep.value)
        assert np.isfinite(rep.grad("offsets")).all()

    def test_gradient_matches_finite_differences(self):
        tl = ClipTimeline(4, 2.0)
        label = label_of(
            [1, 0, 1, 0], [[0.8, 1.2], [0, 0], [2.0, 0.5], [0, 0]], [1, 0, 0.6, 0]
        )
        rng = np.random.default_rng(4)
        pred = label.offsets + rng.uniform(0.1, 0.9, (4, 2))
        rep = boundary_loss(pred, label, tl)
        num = fd_gradient(
            lambda a: boundary_loss(a["pred"], label, tl).value, {"pred": pred}
        )["pred"]
        np.testing.assert_allclose(rep.grad("offsets"), num, atol=1e-6)


class TestIntraLoss:
    def test_single_equal_negative_gives_ln2(self):
        label = label_of([1, 1], [[1, 1], [1, 1]], [0.9, 0.4])
        cos = np.array([0.5, 0.5])
        rep = saliency_intra_loss(cos, label, positive=0)
        assert abs(rep.value - math.log(2)) < 1e-12

    def test_matches_infonce_oracle(self):
        label = label_of(
            [1, 1, 0, 1], [[1, 1]] * 2 + [[0, 0]] + [[1, 1]], [0.9, 0.3, 0.0, 0.5]
        )
        cos = np.array([0.2, -0.4, 0.8, 0.1])
        w = LossWeights(tau=0.11)
        rep = saliency_intra_loss(cos, label, weights=w, positive=0)
        # negatives: all with s_j < 0.9, i.e. clips 1, 2, 3; pool is [0, 1, 2, 3]
        expected = infonce_oracle([0.2, -0.4, 0.8, 0.1], 0, 0.11)
        assert abs(rep.value - expected) < 1e-12

    def test_strictly_lower_saliency_only(self):
        label = label_of([1, 1, 1], [[1, 1]] * 3, [0.5, 0.5, 0.2])
        rep = saliency_intra_loss(np.array([0.9, 0.1, 0.3]), label, positive=0)
        # clip 1 ties on saliency, so only clip 2 is a negative
        assert rep.extras["num_negatives"] == 1

    def test_no_negatives_warns_and_zeroes(self):
        label = label_of([1, 1], [[1, 1], [1, 1]], [0.5, 0.5])
        with pytest.warns(GroundingWarning):
            rep = saliency_intra_loss(np.array([0.2, 0.4]), label, positive=0)
        assert rep.value == 0.0
        assert not rep.grad("cosines").any()

    def test_batch_messages(self):
        # the rule the loss batch applies, with the same texts
        label = label_of([0, 1, 1], [[0, 0], [1, 1], [1, 1]], [0.0, 0.5, 0.5])
        # background, and outside the video at either end (clip -1 must not wrap to clip 2)
        for clip in (0, -1, 3):
            with pytest.raises(ValueError, match=f"clip {clip} of video 0 is not an eligible"):
                saliency_intra_loss(np.zeros(3), label, positive=clip)
        label = label_of([1, 1], [[1, 1], [1, 1]], [0.5, 0.5])
        with pytest.warns(GroundingWarning, match="video 0: no clip has strictly lower"):
            saliency_intra_loss(np.zeros(2), label, positive=1)

    def test_positive_sampling_is_seeded(self):
        label = label_of([1, 1, 1], [[1, 1]] * 3, [0.9, 0.6, 0.3])
        cos = np.array([0.5, 0.1, -0.2])
        a = saliency_intra_loss(cos, label, rng_seed=7)
        b = saliency_intra_loss(cos, label, rng_seed=7)
        assert a.value == b.value
        assert a.extras["positive"] == b.extras["positive"]

    def test_gradient_matches_finite_differences(self):
        label = label_of([1, 1, 0, 1], [[1, 1]] * 2 + [[0, 0]] + [[1, 1]],
                         [0.9, 0.3, 0.0, 0.5])
        cos = np.array([0.2, -0.4, 0.8, 0.1])
        rep = saliency_intra_loss(cos, label, positive=0)
        num = fd_gradient(
            lambda a: saliency_intra_loss(a["cos"], label, positive=0).value,
            {"cos": cos},
        )["cos"]
        np.testing.assert_allclose(rep.grad("cosines"), num, atol=5e-5)


class TestInterLoss:
    def test_uniform_batch_gives_ln_b(self):
        pair = np.full((4, 4), 0.3)
        rep = saliency_inter_loss(pair)
        assert abs(rep.value - math.log(4)) < 1e-12

    def test_single_item_batch_is_exactly_zero(self):
        rep = saliency_inter_loss(np.array([[0.8]]))
        assert rep.value == 0.0

    def test_matches_per_row_oracle(self):
        rng = np.random.default_rng(5)
        pair = rng.uniform(-1, 1, (3, 3))
        w = LossWeights(tau=0.2)
        rep = saliency_inter_loss(pair, w)
        expected = np.mean(
            [infonce_oracle(pair[b].tolist(), b, 0.2) for b in range(3)]
        )
        assert abs(rep.value - expected) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        pair = rng.uniform(-1, 1, (3, 3))
        rep = saliency_inter_loss(pair)
        num = fd_gradient(
            lambda a: saliency_inter_loss(a["pair"]).value, {"pair": pair}
        )["pair"]
        np.testing.assert_allclose(rep.grad("pair_cosines"), num, atol=5e-5)


class TestEmbeddings:
    def test_shape_properties(self):
        emb = EmbeddingBatch(np.ones((2, 3, 4)), np.ones((2, 4)))
        assert (emb.batch_size, emb.num_clips, emb.dim) == (2, 3, 4)

    def test_cosines_agree_with_numpy(self):
        rng = np.random.default_rng(7)
        clips = rng.normal(size=(2, 3, 4))
        sents = rng.normal(size=(2, 4))
        emb = EmbeddingBatch(clips, sents)
        cos = saliency_cosines(emb)
        for b in range(2):
            for i in range(3):
                v, s = clips[b, i], sents[b]
                expected = v @ s / (np.linalg.norm(v) * np.linalg.norm(s))
                assert abs(cos[b, i] - expected) < 1e-12

    def test_zero_norm_rejected(self):
        # either array's zero row gets the refusal losses._row_norms makes inside the kernel
        for clips, sentences in ((np.zeros((1, 2, 3)), np.ones((1, 3))),
                                 (np.ones((1, 2, 3)), np.zeros((1, 3)))):
            with pytest.raises(ValueError, match="^zero-norm embeddings have no cosine$"):
                EmbeddingBatch(clips, sentences)

    def test_sample_positive_requires_candidates(self):
        label = label_of([0, 0], [[0, 0], [0, 0]], [0, 0])
        with pytest.raises(ValueError):
            sample_positive(label, np.random.default_rng(0))


class TestTotalLoss:
    def _batch(self, seed=0, b=2, n=5, dim=3):
        rng = np.random.default_rng(seed)
        labels = []
        for _ in range(b):
            f = np.zeros(n, dtype=int)
            fg = rng.choice(n, size=2, replace=False)
            f[fg] = 1
            d = np.where(f[:, None] == 1, rng.uniform(0.2, 2.0, (n, 2)), 0.0)
            s = np.where(f == 1, rng.uniform(0.2, 1.0, n), 0.0)
            labels.append(UnifiedLabel(f, d, s))
        preds = [
            PredictionSet(
                rng.normal(size=n), rng.uniform(0.1, 3.0, (n, 2)), np.zeros(n)
            )
            for _ in range(b)
        ]
        emb = EmbeddingBatch(rng.normal(size=(b, n, dim)), rng.normal(size=(b, dim)))
        timelines = [ClipTimeline(n, 2.0)] * b
        return preds, emb, labels, timelines

    def test_components_sum_to_total(self):
        preds, emb, labels, timelines = self._batch()
        rep = total_loss(preds, emb, labels, timelines, rng_seed=0)
        parts = rep.extras["components"]
        recombined = (
            parts["foreground"]
            + parts["boundary"]
            + parts["inter"]
            + parts["intra"]
        )
        assert abs(rep.value - recombined) < 1e-12

    def test_gradient_keys(self):
        preds, emb, labels, timelines = self._batch()
        rep = total_loss(preds, emb, labels, timelines)
        assert set(rep.gradients) == {
            "foreground_logits",
            "offsets",
            "clip_embeddings",
            "sentence_embeddings",
        }

    def test_seed_fixes_positives(self):
        preds, emb, labels, timelines = self._batch()
        a = total_loss(preds, emb, labels, timelines, rng_seed=3)
        b = total_loss(preds, emb, labels, timelines, rng_seed=3)
        assert np.array_equal(a.extras["positives"], b.extras["positives"])
        assert a.value == b.value

    def test_aggregations_differ_but_both_finite(self):
        preds, emb, labels, timelines = self._batch()
        pv = total_loss(preds, emb, labels, timelines, aggregation="per_video")
        pc = total_loss(preds, emb, labels, timelines, aggregation="per_clip")
        assert np.isfinite(pv.value) and np.isfinite(pc.value)
        assert pv.extras["aggregation"] == "per_video"
        with pytest.raises(ValueError):
            total_loss(preds, emb, labels, timelines, aggregation="per_frame")

    @pytest.mark.parametrize("aggregation", ["per_video", "per_clip"])
    @pytest.mark.parametrize("b", [1, 3, 8])
    def test_matches_plain_loop_oracle(self, b, aggregation):
        rng = np.random.default_rng(100 + b)
        n, dim = 7, 4
        labels = []
        for _ in range(b - 1):
            f = (rng.random(n) < 0.5).astype(int)
            f[rng.integers(n)] = 1
            d = np.where(f[:, None] == 1, rng.uniform(0.1, 3.0, (n, 2)), 0.0)
            s = np.where(f == 1, rng.choice([0.3, 0.6, 1.0], n), 0.0)
            labels.append(UnifiedLabel(f, d, s))
        # every clip foreground at one saliency: the positive has no negatives
        labels.append(label_of(np.ones(n, int), rng.uniform(0.1, 3.0, (n, 2)), np.full(n, 0.6)))
        timelines = [ClipTimeline(n, float(rng.choice([0.5, 1.0, 2.0]))) for _ in range(b)]
        preds = [
            PredictionSet(rng.uniform(-4, 4, n), rng.uniform(-0.5, 3.5, (n, 2)), np.zeros(n))
            for _ in range(b)
        ]
        emb = EmbeddingBatch(rng.normal(size=(b, n, dim)), rng.normal(size=(b, dim)))
        w = LossWeights(lambda_f=1.3, lambda_l1=0.7, lambda_iou=1.1, lambda_inter=0.9,
                        lambda_intra=1.2, tau=0.1, neg_weight=0.2, smooth_l1_beta=0.8)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = total_loss(preds, emb, labels, timelines, w, rng_seed=b,
                             aggregation=aggregation)
        assert [str(c.message) for c in caught if c.category is GroundingWarning] == [
            f"video {b - 1}: no clip has strictly lower saliency than the positive; "
            "intra loss is 0"
        ]
        value, parts = total_loss_oracle(
            [p.foreground_logits.tolist() for p in preds],
            [p.offsets.tolist() for p in preds],
            emb.clip_embeddings.tolist(),
            emb.sentence_embeddings.tolist(),
            [lab.foreground.tolist() for lab in labels],
            [lab.offsets.tolist() for lab in labels],
            [lab.saliency.tolist() for lab in labels],
            [tl.clip_len for tl in timelines],
            rep.extras["positives"].tolist(),
            aggregation,
            dataclasses.asdict(w),
        )
        assert abs(rep.value - value) <= 1e-12
        for name, part in parts.items():
            assert abs(rep.extras["components"][name] - part) <= 1e-12, name

    def test_full_gradient_matches_finite_differences(self):
        preds, emb, labels, timelines = self._batch(seed=9)
        rep = total_loss(preds, emb, labels, timelines, rng_seed=1)
        positives = rep.extras["positives"]

        def value(arrs):
            ps = [
                PredictionSet(arrs["logits"][i], arrs["offsets"][i], np.zeros(5))
                for i in range(2)
            ]
            e = EmbeddingBatch(arrs["clip"], arrs["sent"])
            return total_loss(
                ps, e, labels, timelines, rng_seed=1
            ).value

        arrays = {
            "logits": np.stack([p.foreground_logits for p in preds]),
            "offsets": np.stack([p.offsets for p in preds]),
            "clip": emb.clip_embeddings.copy(),
            "sent": emb.sentence_embeddings.copy(),
        }
        # seeded positives must match between analytic and numeric runs
        check = total_loss(preds, emb, labels, timelines, rng_seed=1)
        assert np.array_equal(check.extras["positives"], positives)

        num = fd_gradient(value, arrays)
        np.testing.assert_allclose(
            np.stack([rep.grad("foreground_logits")[i] for i in range(2)]),
            num["logits"],
            atol=5e-5,
        )
        np.testing.assert_allclose(rep.grad("offsets"), num["offsets"], atol=5e-5)
        np.testing.assert_allclose(rep.grad("clip_embeddings"), num["clip"], atol=5e-5)
        np.testing.assert_allclose(rep.grad("sentence_embeddings"), num["sent"], atol=5e-5)


class TestSigmoid:
    @given(x=st.floats(-700, 700))
    @settings(**SETTINGS)
    def test_bounded_and_monotone_pointwise(self, x):
        y = sigmoid(np.array([x]))[0]
        assert 0.0 <= y <= 1.0
        assert sigmoid(np.array([x + 1.0]))[0] >= y

    def test_bitwise_equal_to_masked_form(self):
        edges = np.array([0.0, 1e-300, 745.0, 800.0, np.inf])
        grid = np.concatenate([edges, -edges, np.random.default_rng(0).uniform(-50, 50, 1000)])
        assert bitwise(sigmoid(grid), sigmoid_masked_reference(grid))
        assert bitwise(sigmoid(grid.reshape(2, -1)), sigmoid_masked_reference(grid).reshape(2, -1))
        for x in grid[:10]:
            assert bitwise(sigmoid(x), sigmoid_masked_reference(x))


class TestSoftplusPair:
    def test_bitwise_equal_to_logaddexp(self):
        rng = np.random.default_rng(11)
        near = np.array([5e-324, 1e-300, 1e-8, 0.5, 36.7, 709.78, 745.0, 800.0])
        edges = np.concatenate([[0.0], near, np.nextafter(near, 0.0), np.nextafter(near, np.inf)])
        grid = np.concatenate([edges, -edges, rng.uniform(-50, 50, 100_000),
                               rng.normal(0, 1e-3, 100_000), rng.normal(0, 1e3, 10_000)])
        # one logaddexp term serves both signs: the foreground term's s is x or -x
        for s in (grid, -grid):
            assert bitwise(_softplus(s, -np.abs(grid)), np.logaddexp(0.0, s))


def bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def tied_intervals(rng, n):
    """Ordered intervals on a coarse grid, so ties, touches and zero lengths are common."""
    lo, hi = np.sort(rng.integers(-4, 5, (2, n)).astype(np.float64) / 2, axis=0)
    return lo, hi


class TestGiouPartials:
    def test_swapped_call_gives_b_side_partials(self):
        rng = np.random.default_rng(5)
        for draw in (lambda n: np.sort(rng.uniform(-5, 5, (2, n)), axis=0),
                     lambda n: tied_intervals(rng, n)):
            a_lo, a_hi = draw(50_000)
            b_lo, b_hi = draw(50_000)
            want = giou_endpoints_reference(a_lo, a_hi, b_lo, b_hi)
            swapped = _giou_endpoints(b_lo, b_hi, a_lo, a_hi)
            got = _giou_endpoints(a_lo, a_hi, b_lo, b_hi) + swapped[1:]
            assert len(got) == len(want)
            for x, y in zip(got, want):
                assert bitwise(x, y)

    def test_giou_1d_equals_frozen_endpoints(self):
        rng = np.random.default_rng(6)
        a_lo, a_hi = tied_intervals(rng, 300)
        b_lo, b_hi = np.sort(rng.uniform(-2, 2, (2, 300)), axis=0)
        b_lo[::3], b_hi[::3] = a_lo[::3], a_hi[::3]
        for i in range(300):
            rep = giou_1d(Interval(a_lo[i], a_hi[i]), Interval(b_lo[i], b_hi[i]))
            value, d_alo, d_ahi, d_blo, d_bhi = giou_endpoints_reference(
                a_lo[i], a_hi[i], b_lo[i], b_hi[i])
            assert bitwise(rep.value, float(value))
            assert bitwise(rep.grad("a"), np.array([d_alo, d_ahi]))
            assert bitwise(rep.grad("b"), np.array([d_blo, d_bhi]))


    def test_all_regular_path_and_a_degenerate_pair(self):
        # the fast path where every pair is regular, then one pair of zero-length
        # intervals (the same point, then two points) sends the batch down the general path
        rng = np.random.default_rng(12)
        a_lo, a_hi = np.sort(rng.uniform(-5, 5, (2, 1000)), axis=0)
        b_lo, b_hi = tied_intervals(rng, 1000)
        b_hi[b_lo == b_hi] += 0.5
        b_lo[:3], b_hi[:3] = a_lo[:3], a_hi[:3]  # ties still take the fast path
        assert (a_hi > a_lo).all() and (b_hi > b_lo).all()  # every pair regular
        batches = [(a_lo, a_hi, b_lo, b_hi)]
        for point in (0.25, 1.5):
            batch = [x.copy() for x in batches[0]]
            batch[0][7] = batch[1][7] = 0.25
            batch[2][7] = batch[3][7] = point
            batches.append(batch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for a_lo, a_hi, b_lo, b_hi in batches:
                want = giou_endpoints_reference(a_lo, a_hi, b_lo, b_hi)
                got = _giou_endpoints(a_lo, a_hi, b_lo, b_hi)
                got += _giou_endpoints(b_lo, b_hi, a_lo, a_hi)[1:]
                for x, y in zip(got, want, strict=True):
                    assert bitwise(x, y)


def fit_shaped_batch(seed=0, aggregation="per_video"):
    """Labels, positives, weights and a ``_LossBatch`` at fit's shape: 8 videos of 60 clips."""
    records = toy_corpus(8, 60, 2.0, seed)
    labels = [r.label for r in records]
    timelines = [r.timeline() for r in records]
    rng = np.random.default_rng(seed)
    positives = np.array([sample_positive(lab, rng) for lab in labels])
    w = LossWeights(*rng.uniform(0.5, 1.5, 5), tau=float(rng.uniform(0.05, 0.2)))
    batch = _LossBatch(labels, timelines, w, positives, aggregation)
    return labels, timelines, positives, w, batch


PREDICTION_GRADS = ("foreground_logits", "offsets", "clip_embeddings")


def assert_kernel_matches_frozen(ins, labels, timelines, positives, aggregation, w, batch,
                                 **options):
    """The kernel's value, gradients and components equal the frozen copy's bit for bit.

    ``options`` (``fixed_sent_norms=``, ``out=``) go to the kernel as they
    are.  With fixed sentences the kernel must return every output but the
    sentence gradient; with ``out=`` the returned prediction gradients must
    be its arrays.  Each problem of a leading problem axis is compared with
    the frozen copy's call on that problem alone: the copy's own stacked
    call gathers the positives (B, P)-ordered, so its sums over B may round
    otherwise.  Returns the kernel's result.
    """
    result = value, grads, parts = _total_loss_arrays(*ins, batch, **options)
    if "out" in options:
        assert all(grads[key] is a for key, a in zip(PREDICTION_GRADS, options["out"]))
    label_arrays = (np.stack([lab.foreground for lab in labels]),
                    np.stack([lab.saliency for lab in labels]),
                    np.stack([lab.offsets for lab in labels]),
                    np.stack([tl.timestamps() for tl in timelines]))
    for p in np.ndindex(np.shape(value)):
        ref_value, ref_grads, ref_parts = total_loss_kernel_reference(
            *(x[p] for x in ins), *label_arrays, positives, aggregation, w)
        if options.get("fixed_sent_norms") is not None:
            del ref_grads["sentence_embeddings"]
        assert bitwise(value[p], ref_value)
        assert set(grads) == set(ref_grads) and set(parts) == set(ref_parts)
        for key in grads:
            assert bitwise(grads[key][p], ref_grads[key]), key
        for key in parts:
            assert bitwise(parts[key][p], ref_parts[key]), key
    return result


class TestKernelMatchesFrozenCopy:
    """``_total_loss_arrays`` against ``oracles.total_loss_kernel_reference``, bitwise."""

    def point(self, rng, labels, lead=()):
        b, n, d = len(labels), len(labels[0]), 8
        gt = np.stack([lab.offsets for lab in labels])
        return [rng.normal(0, 3, lead + (b, n)),
                gt + rng.normal(0, 1, lead + (b, n, 2)),
                rng.normal(size=lead + (b, n, d)),
                rng.normal(size=lead + (b, d))]

    @pytest.mark.parametrize("aggregation", ["per_video", "per_clip"])
    def test_random_points_at_fit_shape(self, aggregation):
        rng = np.random.default_rng(7)
        for seed in range(3):
            labels, timelines, positives, w, batch = fit_shaped_batch(seed, aggregation)
            for lead in ((), (), (9,)):
                assert_kernel_matches_frozen(self.point(rng, labels, lead), labels, timelines,
                                             positives, aggregation, w, batch)

    @pytest.mark.parametrize("lead", [(), (9,)], ids=["no_problem_axis", "problem_axis"])
    @pytest.mark.parametrize("aggregation", ["per_video", "per_clip"])
    def test_without_the_sentence_gradient(self, aggregation, lead):
        rng = np.random.default_rng(10)
        labels, timelines, positives, w, batch = fit_shaped_batch(4, aggregation)
        ins = self.point(rng, labels, lead)
        full_value, full_grads, full_parts = _total_loss_arrays(*ins, batch)
        value, grads, parts = assert_kernel_matches_frozen(
            ins, labels, timelines, positives, aggregation, w, batch,
            fixed_sent_norms=_row_norms(ins[3]))
        assert bitwise(value, full_value)
        assert list(grads) == ["foreground_logits", "offsets", "clip_embeddings"]
        assert list(full_grads) == list(grads) + ["sentence_embeddings"]
        for key in grads:
            assert bitwise(grads[key], full_grads[key]), key
        assert list(parts) == list(full_parts)
        for key in parts:
            assert bitwise(parts[key], full_parts[key]), key

    @pytest.mark.parametrize("lead", [(), (9,)], ids=["no_problem_axis", "problem_axis"])
    @pytest.mark.parametrize("aggregation", ["per_video", "per_clip"])
    def test_with_sentence_norms_and_output_arrays(self, aggregation, lead):
        rng = np.random.default_rng(13)
        labels, timelines, positives, w, batch = fit_shaped_batch(5, aggregation)
        ins = self.point(rng, labels, lead)
        for fixed_sent_norms in (None, _row_norms(ins[3])):
            out = tuple(np.full(x.shape, np.nan) for x in ins[:3])
            assert_kernel_matches_frozen(ins, labels, timelines, positives, aggregation, w, batch,
                                         fixed_sent_norms=fixed_sent_norms, out=out)

    @pytest.mark.parametrize("seed", range(4))
    def test_each_stacked_problem_equals_its_own_call(self, seed):
        # at fit's shape (B = 8) a problem axis must not change how the sums over B round
        labels, timelines, positives, w, batch = fit_shaped_batch(seed)
        ins = self.point(np.random.default_rng(seed), labels, (9,))
        value, grads, parts = _total_loss_arrays(*ins, batch)
        for p in range(9):
            one_value, one_grads, one_parts = _total_loss_arrays(*(x[p] for x in ins), batch)
            assert bitwise(value[p], one_value)
            for key in one_grads:
                assert bitwise(grads[key][p], one_grads[key]), key
            for key in one_parts:
                assert bitwise(parts[key][p], one_parts[key]), key

    def test_edge_intervals(self):
        labels, timelines, positives, w, batch = fit_shaped_batch(1)
        rng = np.random.default_rng(8)
        logits, offsets, clip_emb, sent_emb = self.point(rng, labels)
        gt = np.stack([lab.offsets for lab in labels])
        times = np.stack([tl.timestamps() for tl in timelines])
        gt_start, gt_end = times - gt[..., 0], times + gt[..., 1]
        d0 = rng.uniform(-3, 3, gt_start.shape)
        cases = [
            (d0, -d0),  # zero-length
            (-np.abs(d0) - 0.5, -np.abs(d0[:, ::-1]) - 0.5),  # inverted
            (times - gt_end, gt_end - times + np.abs(d0)),  # starts where the target ends
            (times - gt_start + np.abs(d0), gt_start - times),  # ends where the target starts
            (gt[..., 0], gt[..., 1]),  # equal to the target
            (np.zeros_like(d0), np.zeros_like(d0)),  # a point at the clip centre
        ]
        index = np.arange(gt_start.size).reshape(gt_start.shape)
        for shift in range(len(cases)):
            kind = (index + shift) % len(cases)
            for k, (start_side, end_side) in enumerate(cases):
                offsets[..., 0] = np.where(kind == k, start_side, offsets[..., 0])
                offsets[..., 1] = np.where(kind == k, end_side, offsets[..., 1])
            assert_kernel_matches_frozen([logits, offsets, clip_emb, sent_emb], labels,
                                         timelines, positives, "per_video", w, batch)

    def test_extreme_logits(self):
        labels, timelines, positives, w, batch = fit_shaped_batch(2, "per_clip")
        rng = np.random.default_rng(9)
        _, offsets, clip_emb, sent_emb = self.point(rng, labels)
        # 1 + exp(-x) rounds to 1 from about 36.7, exp(x) overflows past 709.78 and
        # exp(-x) underflows to 0 past 745; beside them the smallest subnormal, each new
        # edge with its neighbours
        near = np.array([5e-324, 36.7, 709.78])
        edges = np.concatenate([[0.0, 1e-300, 745.0, 800.0], near,
                                np.nextafter(near, 0.0), np.nextafter(near, np.inf)])
        grid = np.concatenate([edges, -edges])
        for shift in range(grid.size):
            logits = np.resize(np.roll(grid, shift), offsets.shape[:-1])
            assert_kernel_matches_frozen([logits, offsets, clip_emb, sent_emb], labels,
                                         timelines, positives, "per_clip", w, batch)

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["no_problem_axis", "problem_axis"])
    def test_edge_points(self, lead):
        # where a rewrite could flip a signed zero or a tie: logits of 0 and of magnitude
        # >= 750, where sigma underflows; clips outside every pool, whose cosine gradient
        # is exactly 0; foreground predictions of zero length and equal to their targets
        labels, timelines, positives, w, batch = fit_shaped_batch(3, "per_clip")
        saliency = np.stack([lab.saliency for lab in labels])
        rows = np.arange(len(labels))
        outside = saliency >= saliency[rows, positives][:, None]
        outside[rows, positives] = False
        assert outside.sum() >= 5
        fg = np.stack([lab.foreground for lab in labels]) == 1
        gt = np.stack([lab.offsets for lab in labels])
        rng = np.random.default_rng(12)
        logits, offsets, clip_emb, sent_emb = self.point(rng, labels, lead)
        edges = np.array([0.0, -0.0, 750.0, -750.0, 800.0, -800.0, 1e4, -1e4])
        logits[...] = np.resize(edges, logits.shape)
        kind = np.arange(fg.size).reshape(fg.shape) % 3
        d0 = rng.uniform(-2, 2, fg.shape)
        zero_length = fg & (kind == 0)
        offsets[..., 0] = np.where(zero_length, d0, offsets[..., 0])
        offsets[..., 1] = np.where(zero_length, -d0, offsets[..., 1])
        offsets[...] = np.where((fg & (kind == 1))[..., None], gt, offsets)
        times = np.stack([tl.timestamps() for tl in timelines])
        assert ((times - offsets[..., 0] == times + offsets[..., 1]) & zero_length).any()
        ins = [logits, offsets, clip_emb, sent_emb]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for fixed_sent_norms in (None, _row_norms(sent_emb)):
                _, grads, _ = assert_kernel_matches_frozen(
                    ins, labels, timelines, positives, "per_clip", w, batch,
                    fixed_sent_norms=fixed_sent_norms)
                # the cosine gradient of a clip outside every pool is +0, not -0
                assert not np.signbit(grads["clip_embeddings"][..., outside, :]).any()

    def test_every_step_of_an_overfit_run(self, monkeypatch):
        records = [GroundTruthRecord(r.video_id, r.timeline(), r.query, r.label, r.source_kind)
                   for r in toy_corpus(8, 60, 2.0, 3)]
        labels = [r.label for r in records]
        timelines = [r.timeline for r in records]
        calls = []

        def checked(logits, offsets, clip_emb, sent_emb, batch, **kwargs):
            calls.append((sent_emb, kwargs))
            return assert_kernel_matches_frozen([logits, offsets, clip_emb, sent_emb], labels,
                                                timelines, batch.positives, "per_video",
                                                batch.weights, batch, **kwargs)

        monkeypatch.setattr(fit, "_total_loss_arrays", checked)
        result = fit.overfit(records, steps=300, rng_seed=0)
        assert len(result.trajectory) == 301 and len(calls) >= 301
        for sent_emb, kwargs in calls:
            assert set(kwargs) == {"fixed_sent_norms", "out"}
            assert bitwise(kwargs["fixed_sent_norms"], _row_norms(sent_emb))
