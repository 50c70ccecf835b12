import re

import numpy as np
import pytest

from tgkit import gradcheck
from tgkit.core import ClipTimeline, Interval
from tgkit.gradcheck import (_BLOCK_ROWS, _REGISTRY, REGISTERED_LOSSES, _central_difference,
                             _random_label, grad_check)
from tgkit.losses import (LossReport, LossWeights, _cosine_with_grads, _LossBatch, _row_norms,
                          _total_loss_arrays, boundary_loss, foreground_loss, giou_1d,
                          saliency_inter_loss, saliency_intra_loss, sample_positive, smooth_l1)

from oracles import (boundary_kink_distance_reference, cosine_partials_reference, fd_gradient,
                     giou_kink_reference, smooth_l1_kink_reference, total_kink_distance_reference)


class TestRegistry:
    def test_expected_losses_registered(self):
        assert set(REGISTERED_LOSSES) == {
            "foreground",
            "boundary_smooth_l1",
            "boundary_giou",
            "saliency_intra",
            "saliency_inter",
            "giou_1d",
            "smooth_l1",
            "total",
        }

    def test_unknown_loss_rejected(self):
        with pytest.raises(ValueError):
            grad_check("hinge")


class TestRandomPoints:
    @pytest.mark.parametrize("name", REGISTERED_LOSSES)
    def test_all_losses_pass(self, name):
        result = grad_check(name, num_points=40, seed=11)
        assert result.passed, f"{name}: max rel error {result.max_rel_error}"
        assert result.points_checked == 40
        assert result.points_skipped == 0

    def test_same_seed_same_report(self):
        a = grad_check("boundary_giou", num_points=10, seed=5)
        b = grad_check("boundary_giou", num_points=10, seed=5)
        assert a.max_rel_error == b.max_rel_error

    def test_per_input_breakdown(self):
        result = grad_check("total", num_points=3, seed=0)
        assert set(result.per_input) == {
            "foreground_logits",
            "offsets",
            "clip_embeddings",
            "sentence_embeddings",
        }


class TestExplicitInputs:
    def test_well_posed_point_checked(self):
        result = grad_check("smooth_l1", inputs={"x": np.array([0.4, -2.5])})
        assert result.points_checked == 1
        assert result.passed

    def test_kink_point_skipped(self):
        # |x| == beta is the smooth-L1 seam
        result = grad_check("smooth_l1", inputs={"x": np.array([1.0])})
        assert result.points_checked == 0
        assert result.points_skipped == 1
        assert result.passed  # nothing judged, nothing failed

    def test_wrong_input_keys_rejected(self):
        with pytest.raises(ValueError):
            grad_check("smooth_l1", inputs={"y": np.array([0.5])})

    def test_giou_explicit_point(self):
        result = grad_check(
            "giou_1d",
            inputs={"a": np.array([0.0, 10.0]), "b": np.array([5.0, 15.0])},
        )
        assert result.points_checked == 1
        assert result.passed


class TestParameters:
    def test_bad_epsilon_rejected(self):
        with pytest.raises(ValueError):
            grad_check("foreground", epsilon=0.0)
        with pytest.raises(ValueError):
            grad_check("foreground", tolerance=-1.0)

    def test_zero_points_rejected(self):
        # checking nothing must not report a pass
        with pytest.raises(ValueError, match="num_points"):
            grad_check("foreground", num_points=0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"epsilon": "x"}, "epsilon must be a finite number, got 'x'"),
        ({"epsilon": 0}, "epsilon must be positive, got 0.0"),
        ({"tolerance": float("inf")}, "tolerance must be a finite number, got inf"),
        ({"tolerance": -1.0}, "tolerance must be positive, got -1.0"),
        ({"num_points": 1.5}, "num_points must be an integer, got 1.5"),
        ({"num_points": True}, "num_points must be an integer, got True"),
        ({"num_points": 0}, "num_points must be >= 1, got 0"),
    ])
    def test_parameter_refusals(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            grad_check("foreground", **kwargs)

    def test_unknown_loss_rejected(self):
        with pytest.raises(ValueError, match="^loss_name must be foreground or "):
            grad_check("hinge")

    def test_integer_epsilon_kept_as_given(self):
        result = grad_check("smooth_l1", epsilon=1, tolerance=1, num_points=1)
        assert type(result.epsilon) is int and type(result.tolerance) is int

    def test_report_round_trips(self):
        result = grad_check("foreground", num_points=2, seed=1)
        d = result.to_dict()
        assert d["loss_name"] == "foreground"
        assert d["passed"] is True
        assert d["points_checked"] == 2


def public_view(name, seed):
    """The sampler's point for ``name`` at ``seed`` and the public function at it.

    Draws the sampler's random numbers again, in its order, to rebuild the
    fixed parts the public function takes; the redrawn inputs must equal the
    sampler's.  Returns (inputs, evaluate, public, fixed), where
    ``public(inputs)`` gives (value, gradients) without a problem axis and
    ``fixed`` holds the boundary samplers' redrawn label(s), timeline(s) and
    weights.
    """
    inputs, evaluate, _ = _REGISTRY[name](np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    fixed = {}
    if name == "foreground":
        targets = (rng.random(6) < 0.5).astype(float)
        w = LossWeights(lambda_f=float(rng.uniform(0.5, 2.0)))
        redrawn = {"logits": rng.uniform(-4.0, 4.0, 6)}
        call = lambda ins: foreground_loss(ins["logits"], targets, w)  # noqa: E731
    elif name.startswith("boundary"):
        timeline = ClipTimeline(6, float(rng.uniform(0.5, 2.0)))
        label = _random_label(rng, 6)
        scale = float(rng.uniform(0.5, 2.0))
        w = (LossWeights(lambda_l1=scale, lambda_iou=0.0) if name == "boundary_smooth_l1"
             else LossWeights(lambda_l1=0.0, lambda_iou=scale))
        redrawn = {"offsets": label.offsets + rng.uniform(-2.0, 2.0, (6, 2))}
        call = lambda ins: boundary_loss(ins["offsets"], label, timeline, w)  # noqa: E731
        fixed = {"labels": [label], "timelines": [timeline], "w": w}
    elif name == "saliency_intra":
        label = _random_label(rng, 8)
        w = LossWeights(tau=float(rng.uniform(0.05, 0.2)))
        positive = sample_positive(label, rng)
        redrawn = {"cosines": rng.uniform(-1.0, 1.0, 8)}
        call = lambda ins: saliency_intra_loss(  # noqa: E731
            ins["cosines"], label, weights=w, positive=positive)
    elif name == "saliency_inter":
        w = LossWeights(tau=float(rng.uniform(0.05, 0.2)))
        redrawn = {"pair_cosines": rng.uniform(-1.0, 1.0, (4, 4))}
        call = lambda ins: saliency_inter_loss(ins["pair_cosines"], w)  # noqa: E731
    elif name == "giou_1d":
        redrawn = dict(inputs)  # no fixed parts
        call = lambda ins: giou_1d(Interval(*ins["a"]), Interval(*ins["b"]))  # noqa: E731
    elif name == "smooth_l1":
        redrawn = {"x": rng.uniform(-3.0, 3.0, 5)}

        def call(ins):
            value, deriv = smooth_l1(ins["x"], 1.0)
            return LossReport(np.sum(value), {"x": deriv})
    else:  # total: the kernel without a problem axis, as total_loss and fit call it
        timelines = [ClipTimeline(5, 1.0) for _ in range(2)]
        labels = [_random_label(rng, 5) for _ in range(2)]
        positives = np.array([sample_positive(lab, rng) for lab in labels])
        w = LossWeights(*[float(rng.uniform(0.5, 1.5)) for _ in range(5)],
                        tau=float(rng.uniform(0.07, 0.2)))
        aggregation = "per_video" if rng.random() < 0.5 else "per_clip"
        batch = _LossBatch(labels, timelines, w, positives, aggregation)
        fixed = {"labels": labels, "timelines": timelines, "w": w}
        names = ("foreground_logits", "offsets", "clip_embeddings", "sentence_embeddings")
        redrawn = {names[0]: rng.uniform(-3.0, 3.0, (2, 5)),
                   names[1]: np.stack([lab.offsets for lab in labels])
                   + rng.uniform(-1.5, 1.5, (2, 5, 2))}
        for key, shape in zip(names[2:], ((2, 5, 3), (2, 3))):
            m = rng.normal(size=shape)
            redrawn[key] = m / np.maximum(np.linalg.norm(m, axis=-1, keepdims=True), 0.3)

        def call(ins):
            value, grads, _ = _total_loss_arrays(*(ins[k] for k in names), batch)
            return LossReport(value, grads)
    for key in inputs:
        assert np.array_equal(redrawn[key], inputs[key]), "sampler draws changed"

    def public(ins):
        rep = call(ins)
        return rep.value, rep.gradients
    return inputs, evaluate, public, fixed


def one(evaluate, inputs):
    """``evaluate`` at P = 1, with the problem axis taken off again."""
    value, grads = evaluate({k: v[None] for k, v in inputs.items()})
    return value[0], {k: g[0] for k, g in grads.items()}


def assert_same(a, b):
    (va, ga), (vb, gb) = a, b
    assert np.array_equal(va, vb)
    assert set(ga) == set(gb)
    for key in ga:
        assert np.array_equal(np.asarray(ga[key]), np.asarray(gb[key])), key


class TestProblemAxis:
    @pytest.mark.parametrize("name", REGISTERED_LOSSES)
    def test_one_problem_equals_public_function(self, name):
        for seed in range(5):
            inputs, evaluate, public, _ = public_view(name, seed)
            assert_same(one(evaluate, inputs), public(inputs))

    @pytest.mark.parametrize("name", REGISTERED_LOSSES)
    def test_each_stacked_problem_equals_its_own_call(self, name):
        rng = np.random.default_rng(3)
        for seed in range(3):
            inputs, evaluate, _ = _REGISTRY[name](np.random.default_rng(seed))
            stack = {k: v + 1e-3 * rng.normal(size=(9,) + v.shape) for k, v in inputs.items()}
            values, grads = evaluate(stack)
            assert values.shape == (9,)
            for p in range(9):
                assert_same((values[p], {k: g[p] for k, g in grads.items()}),
                            one(evaluate, {k: v[p] for k, v in stack.items()}))

    @pytest.mark.parametrize("name", REGISTERED_LOSSES)
    def test_slopes_equal_per_scalar_loop(self, name):
        for seed in range(5):
            inputs, evaluate, _ = _REGISTRY[name](np.random.default_rng(seed))
            stacked = _central_difference(evaluate, inputs, 1e-5)
            looped = fd_gradient(lambda ins: one(evaluate, ins)[0], inputs, epsilon=1e-5)
            for key in inputs:
                assert np.array_equal(stacked[key], looped[key]), key

    def test_slopes_across_blocks_equal_per_scalar_loop(self):
        # 2 * 300 rows: more than one block
        inputs = {"x": np.random.default_rng(0).uniform(-3.0, 3.0, (3, 100))}
        assert 2 * inputs["x"].size > _BLOCK_ROWS
        _, evaluate, _ = _REGISTRY["smooth_l1"](np.random.default_rng(0))
        stacked = _central_difference(evaluate, inputs, 1e-5)
        looped = fd_gradient(lambda ins: one(evaluate, ins)[0], inputs, epsilon=1e-5)
        assert np.array_equal(stacked["x"], looped["x"])

    def test_total_at_1000_points(self):
        result = grad_check("total", num_points=1000, seed=0, epsilon=1e-5, tolerance=1e-5)
        assert result.points_checked == 1000
        assert result.passed, result.max_rel_error


class TestFusedCosineBackward:
    @pytest.mark.parametrize("shapes", [
        ((2, 8, 60, 8), (2, 8, 1, 8)),  # clips against their own sentence
        ((2, 8, 8), (2, 8, 8)),  # positives against every sentence
        ((5, 3), (4, 3)),
    ])
    def test_matches_explicit_partials(self, shapes):
        rng = np.random.default_rng(1)
        v, s = (rng.normal(size=shape) for shape in shapes)
        c, backward = _cosine_with_grads(v, s, _row_norms(v), _row_norms(s))
        c_ref, dv, ds = cosine_partials_reference(v[..., :, None, :], s[..., None, :, :])
        assert np.array_equal(c, c_ref)
        g = rng.normal(size=c.shape)
        gv, gs = backward(g)
        np.testing.assert_allclose(gv, (g[..., None] * dv).sum(axis=-2), rtol=0, atol=1e-13)
        np.testing.assert_allclose(gs, (g[..., None] * ds).sum(axis=-3), rtol=0, atol=1e-13)
        gv_alone, none = backward(g, s_grad=False)
        assert none is None and gv_alone.tobytes() == gv.tobytes()


class TestExplicitShapes:
    @pytest.mark.parametrize("name", [n for n in REGISTERED_LOSSES if n != "smooth_l1"])
    def test_wrong_shape_rejected_before_any_stacked_call(self, name, monkeypatch):
        def no_call(*args):
            raise AssertionError("stacked call made")
        monkeypatch.setattr(gradcheck, "_central_difference", no_call)
        inputs, _, _ = _REGISTRY[name](np.random.default_rng(0))
        for key in inputs:
            bad = dict(inputs, **{key: np.append(inputs[key], 0.5)})
            with pytest.raises(ValueError, match=f"input '{key}' of {name} has shape"):
                grad_check(name, inputs=bad)

    def test_giou_three_vector(self):
        with pytest.raises(ValueError, match=r"input 'a' of giou_1d has shape \(3,\)"):
            grad_check("giou_1d", inputs={"a": np.array([0.0, 1.0, 2.0]),
                                          "b": np.array([0.5, 1.5])})

    def test_smooth_l1_takes_any_non_empty_shape(self):
        result = grad_check("smooth_l1", inputs={"x": np.array([[0.4, -2.5], [0.1, 2.0]])})
        assert result.points_checked == 1 and result.passed
        assert grad_check("smooth_l1", inputs={"x": np.array(0.4)}).passed
        with pytest.raises(ValueError, match="input 'x' of smooth_l1 has shape"):
            grad_check("smooth_l1", inputs={"x": np.zeros((2, 0))})

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError, match="input 'logits' of foreground must be finite"):
            grad_check("foreground", inputs={"logits": np.array([0.0, 1, 2, 3, 4, np.nan])})

    def test_non_finite_loss_or_gradient_rejected(self):
        # finite inputs whose cosines overflow: the value and embedding gradients are NaN
        inputs, _, _ = _REGISTRY["total"](np.random.default_rng(0))
        for key in ("clip_embeddings", "sentence_embeddings"):
            inputs[key] = inputs[key] * 1e200
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="of total is not finite"):
            grad_check("total", inputs=inputs)


KINKED_LOSSES = ("boundary_smooth_l1", "boundary_giou", "total", "giou_1d", "smooth_l1")


def frozen_kink(name, fixed):
    """The frozen copy of ``name``'s kink distance, over ``public_view``'s redrawn parts."""
    if name == "smooth_l1":
        return lambda ins: smooth_l1_kink_reference(ins["x"], 1.0)
    if name == "giou_1d":
        return lambda ins: giou_kink_reference(ins["a"], ins["b"])
    w = fixed["w"]
    fg = [lab.foreground for lab in fixed["labels"]]
    gt = [lab.offsets for lab in fixed["labels"]]
    times = [tl.timestamps() for tl in fixed["timelines"]]
    if name == "total":
        return lambda ins: total_kink_distance_reference(ins["offsets"], fg, gt, times, w)
    return lambda ins: boundary_kink_distance_reference(ins["offsets"], fg[0], gt[0], times[0], w)


def near_kink(name, inputs, fixed, rng):
    """A copy of ``inputs`` with one entry moved to within 1e-3 of one of the loss's kinks."""
    delta = 0.0 if rng.random() < 0.1 else rng.uniform(-1e-3, 1e-3)
    sign = rng.choice([-1.0, 1.0])
    moved = {k: v.copy() for k, v in inputs.items()}
    if name == "smooth_l1":
        moved["x"].flat[rng.integers(moved["x"].size)] = sign * (1.0 + delta)
        return moved
    if name == "giou_1d":
        a, b = moved["a"], moved["b"]
        kind = rng.integers(4)
        if kind == 0:  # equal ends
            a[1] = b[1] + delta
        elif kind == 1:  # equal starts
            a[0] = b[0] + delta
        elif kind == 2:  # a's end touches b's start
            a[:] = b[0] + delta - 1.0, b[0] + delta
        else:  # a zero-length a
            a[0] = a[1] - abs(delta)
        return moved
    # the boundary terms: one residual of one foreground clip
    d = moved["offsets"]
    labels = fixed["labels"]
    gt = np.stack([lab.offsets for lab in labels]).reshape(d.shape)
    fg = np.flatnonzero(np.stack([lab.foreground for lab in labels]).ravel() == 1)
    j = np.unravel_index(rng.choice(fg), d.shape[:-1])
    start, end = j + (0,), j + (1,)
    kinds = {"boundary_smooth_l1": (0,), "boundary_giou": (1, 2, 3, 4)}.get(name, range(5))
    kind = rng.choice(kinds)
    if kind == 0:  # a smooth-L1 seam
        k = (start, end)[rng.integers(2)]
        d[k] = gt[k] + sign * (fixed["w"].smooth_l1_beta + delta)
    elif kind == 1:  # the predicted interval flips its ordering: d0 + d1 = 0
        d[end] = -d[start] + delta
    elif kind == 2:  # equal starts
        d[start] = gt[start] + delta
    elif kind == 3:  # equal ends
        d[end] = gt[end] + delta
    else:  # the predicted end touches the target's start
        d[start], d[end] = gt[start] + 1.0, -gt[start] + delta
    return moved


def same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestKinkDistancesMatchFrozenCopy:
    """The samplers' kink distances read the loss's own label values; they stay bit for bit."""

    @pytest.mark.parametrize("name", KINKED_LOSSES)
    def test_sampled_and_near_kink_points(self, name):
        rng = np.random.default_rng(17)
        near = 0
        for seed in range(1000):
            inputs, _, kink = _REGISTRY[name](np.random.default_rng(seed))
            fixed = public_view(name, seed)[3]
            frozen = frozen_kink(name, fixed)
            moved = near_kink(name, inputs, fixed, rng)
            for point in (inputs, moved):
                assert same_bits(kink(point), frozen(point)), (seed, point)
            near += frozen(moved) < 1e-3
        assert near >= 900, near
