import dataclasses
import warnings

import numpy as np
import pytest

from tgkit import fit
from tgkit.core import GroundingWarning, GroundTruthRecord, Query, UnifiedLabel
from tgkit.fit import overfit
from tgkit.losses import LossWeights
from tgkit.synth import toy_corpus


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
