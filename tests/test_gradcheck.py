import numpy as np
import pytest

from tgkit.gradcheck import REGISTERED_LOSSES, grad_check


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

    def test_report_round_trips(self):
        result = grad_check("foreground", num_points=2, seed=1)
        d = result.to_dict()
        assert d["loss_name"] == "foreground"
        assert d["passed"] is True
        assert d["points_checked"] == 2
