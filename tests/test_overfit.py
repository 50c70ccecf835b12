import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from tgkit import fit
from tgkit.core import GroundingWarning, GroundTruthRecord, Query, UnifiedLabel
from tgkit.fit import overfit
from tgkit.losses import EmbeddingBatch, LossWeights, sample_positive
from tgkit.synth import toy_corpus

from oracles import overfit_loop_reference


def records(num_videos=2, num_clips=12, seed=0):
    return [
        GroundTruthRecord(r.video_id, r.timeline(), r.query, r.label, r.source_kind)
        for r in toy_corpus(num_videos, num_clips, 2.0, seed)
    ]


class TestTrajectory:
    def test_monotone_non_increasing(self):
        result = overfit(records(), steps=200, rng_seed=0)
        diffs = np.diff(result.trajectory)
        assert (diffs <= 0).all()

    def test_length_is_steps_plus_one(self):
        result = overfit(records(), steps=25, rng_seed=0)
        assert result.trajectory.shape == (26,)

    def test_zero_steps_records_initial_loss_only(self):
        result = overfit(records(), steps=0, rng_seed=0)
        assert result.trajectory.shape == (1,)

    def test_loss_actually_drops(self):
        result = overfit(records(), steps=300, rng_seed=0)
        assert result.trajectory[-1] < 0.1 * result.trajectory[0]


class TestStalledSteps:
    def test_none_while_the_loss_falls(self):
        assert overfit(records(), steps=100, rng_seed=0).stalled_steps == 0

    def test_every_step_stalls_when_no_step_size_moves_the_loss(self):
        # at clip_len 1e300 the loss is about 4e300 and no step moves it by one ulp
        recs = [GroundTruthRecord(r.video_id, r.timeline(), r.query, r.label, r.source_kind)
                for r in toy_corpus(2, 12, 1e300, 0)]
        with np.errstate(over="ignore"):  # squares in the branches np.where drops
            result = overfit(recs, steps=30, rng_seed=0)
        assert np.unique(result.trajectory).size == 1
        assert result.stalled_steps == 30


class TestBacktracking:
    def wrap_kernel(self, monkeypatch, trial_value=None):
        """Wrap fit's kernel and list the values it returns.

        ``trial_value(first)``, if given, replaces every value after the first.
        """
        real, values = fit._total_loss_arrays, []

        def wrapped(*args, **kwargs):
            value, grads, parts = real(*args, **kwargs)
            if values and trial_value is not None:
                value = trial_value(values[0])
            values.append(value)
            return value, grads, parts

        monkeypatch.setattr(fit, "_total_loss_arrays", wrapped)
        return values

    def test_halves_a_step_too_large_to_keep(self, monkeypatch):
        values = self.wrap_kernel(monkeypatch)
        result = overfit(records(3, 40), steps=50, learning_rate=50)
        assert (np.diff(result.trajectory) <= 0).all()
        assert len(values) > 50 + 1

    def test_holds_still_when_every_trial_rises(self, monkeypatch):
        self.wrap_kernel(monkeypatch, lambda first: first + 1.0)
        result = overfit(records(), steps=3, rng_seed=0)
        assert result.stalled_steps == 3
        assert np.unique(result.trajectory).size == 1
        assert all((p.foreground_logits == 0).all() for p in result.predictions)


def wrap_kernel(monkeypatch, change=lambda call, value, grads: value):
    """Wrap fit's kernel and list the values it returns.

    ``change(call, value, grads)`` gives call number ``call``'s value and may
    alter its gradients in place.
    """
    real, calls = fit._total_loss_arrays, []

    def wrapped(*args, **kwargs):
        value, grads, parts = real(*args, **kwargs)
        value = change(len(calls), value, grads)
        calls.append(value)
        return value, grads, parts

    monkeypatch.setattr(fit, "_total_loss_arrays", wrapped)
    return calls


class TestRefusals:
    def test_objective_not_finite_at_initialisation(self, monkeypatch):
        calls = wrap_kernel(monkeypatch, lambda call, value, grads: np.inf)
        with pytest.raises(ValueError, match="^objective is not finite at initialisation: inf$"):
            overfit(records(), steps=5, rng_seed=0)
        assert len(calls) == 1

    def test_gradients_diverged(self, monkeypatch):
        def nan_on_call_3(call, value, grads):
            if call == 3:
                grads["offsets"][1, 2, 0] = np.nan
            return value

        calls = wrap_kernel(monkeypatch, nan_on_call_3)
        with pytest.raises(ValueError, match="^gradients diverged at step 3$"):
            overfit(records(), steps=10, rng_seed=0)
        # the start, then one accepted trial for each of steps 0 to 2: the third
        # carries the NaN into step 3's check
        assert len(calls) == 4 and calls == sorted(calls, reverse=True)


def fit_start(recs, seed, embed_dim=fit.DEFAULT_EMBED_DIM):
    """``overfit``'s positives and starting parameters for ``recs`` at ``rng_seed=seed``."""
    rng = np.random.default_rng(seed)
    positives = np.array([sample_positive(r.label, rng) for r in recs], dtype=np.int64)
    b, n = len(recs), recs[0].timeline.num_clips
    logits = np.zeros((b, n))
    offsets = np.stack([np.full((n, 2), r.timeline.clip_len) for r in recs])
    clip_emb = rng.normal(0.0, 0.5, (b, n, embed_dim))
    sent_emb = rng.normal(size=(b, embed_dim))
    sent_emb /= np.linalg.norm(sent_emb, axis=-1, keepdims=True)
    return positives, logits, offsets, clip_emb, sent_emb


def fit_shaped_records(clip_len=2.0, on_target=False):
    """8 toy videos of 60 clips; ``on_target`` moves every target to fit's starting offsets."""
    recs = [GroundTruthRecord(r.video_id, r.timeline(), r.query, r.label, r.source_kind)
            for r in toy_corpus(8, 60, clip_len, 4)]
    if on_target:
        recs = [dataclasses.replace(r, label=dataclasses.replace(r.label, offsets=np.where(
            r.label.foreground[:, None] == 1, clip_len, np.zeros((60, 2))))) for r in recs]
    return recs


# (records, weights, learning rate, steps)
PLAIN_LOOP_RUNS = {
    "descends": (fit_shaped_records(), LossWeights(lambda_l1=0.7, lambda_intra=1.3),
                 fit.DEFAULT_LEARNING_RATE, 40),
    # steps too large to keep: halved, then grown back
    "halves": (fit_shaped_records(), LossWeights(lambda_l1=0.7, lambda_intra=1.3), 5000.0, 40),
    # gIoU alone, with every prediction on its target: the right-hand partials there
    # point uphill, so every trial down to the smallest step raises the loss
    "holds_still": (fit_shaped_records(1e-6, on_target=True),
                    LossWeights(lambda_f=0, lambda_l1=0, lambda_inter=0, lambda_intra=0),
                    fit.DEFAULT_LEARNING_RATE, 3),
}


class TestMatchesPlainLoop:
    """``overfit`` against ``oracles.overfit_loop_reference`` bit for bit, at 8 videos of 60 clips."""

    @pytest.mark.parametrize("aggregation", ["per_video", "per_clip"])
    @pytest.mark.parametrize("run", PLAIN_LOOP_RUNS)
    def test_trajectory_and_parameters(self, monkeypatch, run, aggregation):
        recs, weights, learning_rate, steps = PLAIN_LOOP_RUNS[run]
        calls = wrap_kernel(monkeypatch)
        embeddings = []  # overfit's final embeddings, on their way to the saliency cosines

        def capture(clip_emb, sent_emb):
            embeddings.append(clip_emb.copy())
            return EmbeddingBatch(clip_emb, sent_emb)

        monkeypatch.setattr(fit, "EmbeddingBatch", capture)
        positives, *start = fit_start(recs, 2)
        result = overfit(recs, weights, steps, learning_rate, rng_seed=2, aggregation=aggregation)
        trajectory, *final = overfit_loop_reference(
            *start,
            np.stack([r.label.foreground for r in recs]),
            np.stack([r.label.saliency for r in recs]),
            np.stack([r.label.offsets for r in recs]),
            np.stack([r.timeline.timestamps() for r in recs]),
            positives, aggregation, weights, steps, learning_rate)
        np.testing.assert_array_equal(result.positives, positives)
        assert result.trajectory.tobytes() == trajectory.tobytes()
        got = [np.stack([p.foreground_logits for p in result.predictions]),
               np.stack([p.offsets for p in result.predictions]), *embeddings]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in final]
        if run == "halves":
            assert len(calls) > steps + 1
        if run == "holds_still":
            # each step tried every size from the learning rate down to fit._MIN_STEP
            tries = math.floor(math.log2(learning_rate / fit._MIN_STEP)) + 1
            assert len(calls) == 1 + steps * tries
            assert [a.tobytes() for a in final] == [a.tobytes() for a in start[:3]]


class TestDeterminism:
    def test_same_seed_same_run(self):
        a = overfit(records(), steps=50, rng_seed=3)
        b = overfit(records(), steps=50, rng_seed=3)
        np.testing.assert_array_equal(a.trajectory, b.trajectory)
        np.testing.assert_array_equal(a.positives, b.positives)
        for pa, pb in zip(a.predictions, b.predictions):
            np.testing.assert_array_equal(pa.foreground_logits, pb.foreground_logits)
            np.testing.assert_array_equal(pa.offsets, pb.offsets)
            np.testing.assert_array_equal(pa.saliency, pb.saliency)

    def test_different_seeds_diverge(self):
        a = overfit(records(), steps=50, rng_seed=0)
        b = overfit(records(), steps=50, rng_seed=1)
        assert not np.array_equal(a.trajectory, b.trajectory)


class TestPredictions:
    def test_one_prediction_per_record(self):
        recs = records(num_videos=3)
        result = overfit(recs, steps=10)
        assert len(result.predictions) == 3
        for rec, pred in zip(recs, result.predictions):
            assert len(pred) == rec.timeline.num_clips

    def test_fit_recovers_foreground_pattern(self):
        recs = records(num_videos=2, num_clips=16)
        result = overfit(recs, steps=600, rng_seed=0)
        for rec, pred in zip(recs, result.predictions):
            decoded = (pred.foreground_logits > 0).astype(int)
            assert decoded.tolist() == rec.label.foreground.tolist()

    def test_saliency_stays_in_range(self):
        result = overfit(records(), steps=100)
        for pred in result.predictions:
            assert (pred.saliency >= -1).all() and (pred.saliency <= 1).all()


class TestValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            overfit([])

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            overfit(records(), steps=-1)

    def test_bad_learning_rate_rejected(self):
        with pytest.raises(ValueError):
            overfit(records(), learning_rate=0.0)

    def test_mixed_clip_counts_rejected(self):
        mixed = records(num_videos=1, num_clips=12) + records(num_videos=1, num_clips=16)
        with pytest.raises(ValueError):
            overfit(mixed)

    def test_small_embed_dim_rejected(self):
        with pytest.raises(ValueError):
            overfit(records(), embed_dim=1)

    @pytest.mark.parametrize("kwargs, message", [
        ({"steps": 2.5}, "steps must be an integer, got 2.5"),
        ({"steps": True}, "steps must be an integer, got True"),
        ({"steps": -1}, "steps must be non-negative, got -1"),
        ({"embed_dim": 2.5}, "embed_dim must be an integer, got 2.5"),
        ({"embed_dim": 1}, "embed_dim must be >= 2, got 1"),
        # an infinite step stays infinite under halving, so it never reached the minimum
        ({"learning_rate": math.inf}, "learning_rate must be a finite number, got inf"),
        ({"learning_rate": 0}, "learning_rate must be positive, got 0.0"),
        ({"aggregation": "per_frame"}, "aggregation must be per_video or per_clip, got 'per_frame'"),
    ])
    def test_parameter_refusals(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            overfit(records(), **kwargs)


class TestWeights:
    def test_custom_weights_respected(self):
        heavy = overfit(records(), steps=40, weights=LossWeights(lambda_f=10.0))
        light = overfit(records(), steps=40, weights=LossWeights(lambda_f=0.1))
        assert heavy.trajectory[0] > light.trajectory[0]


class TestWarnings:
    def test_video_without_negatives_warns_once_per_run(self):
        recs = records()
        n = recs[0].timeline.num_clips
        flat = UnifiedLabel(np.ones(n, int), np.ones((n, 2)), np.full(n, 0.5))
        recs[0] = dataclasses.replace(recs[0], label=flat)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            overfit(recs, steps=20, rng_seed=0)
        assert sum(c.category is GroundingWarning for c in caught) == 1
