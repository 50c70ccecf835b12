"""RunConfig refuses a value out of range exactly as the library parameter it feeds does."""
import numpy as np
import pytest

from tgkit.config import _RULES, RunConfig
from tgkit.core import ClipTimeline, GroundTruthRecord, Interval, PredictionSet, ScoredInterval
from tgkit.decode import SegmentList, decode_highlights, decode_moments, decode_summary, kts_segment
from tgkit.fit import overfit
from tgkit.gradcheck import grad_check
from tgkit.labels import bin_index
from tgkit.metrics import MomentEvalItem, moment_map, recall_at_k
from tgkit.synth import toy_corpus
from tgkit.teacher import SimilarityMatrix, top_concepts


def _records():
    return [GroundTruthRecord(r.video_id, r.timeline(), r.query, r.label, r.source_kind)
            for r in toy_corpus(2, 12)]


def _pred():
    return PredictionSet(np.zeros(4), np.zeros((4, 2)), np.zeros(4))


def _items():
    return [MomentEvalItem("q", (ScoredInterval(Interval(0, 1), 0.5),), (Interval(0, 1),))]


_FEATURES = np.zeros((4, 2))

# field -> (a value just outside its range, the library call that field feeds)
_FEEDS = {
    "loss_aggregation": ("per_frame", lambda v: overfit(_records(), aggregation=v)),
    "curve_bin_width": (0, lambda v: bin_index([0.5], v)),
    "teacher_top_k": (0, lambda v: top_concepts(SimilarityMatrix(np.zeros((2, 3)), "abc"), v)),
    "fit_steps": (-1, lambda v: overfit(_records(), steps=v)),
    "fit_learning_rate": (0, lambda v: overfit(_records(), learning_rate=v)),
    "fit_embed_dim": (1, lambda v: overfit(_records(), embed_dim=v)),
    "gradcheck_epsilon": (0, lambda v: grad_check("foreground", epsilon=v)),
    "gradcheck_tolerance": (0, lambda v: grad_check("foreground", tolerance=v)),
    "gradcheck_points": (0, lambda v: grad_check("foreground", num_points=v)),
    "nms_iou_threshold": (0, lambda v: decode_moments(_pred(), ClipTimeline(4, 1.0), v)),
    "moment_top_k": (0, lambda v: decode_moments(_pred(), ClipTimeline(4, 1.0), top_k=v)),
    "highlight_mode": ("s_only", lambda v: decode_highlights(_pred(), mode=v)),
    "highlight_top_k": (0, lambda v: decode_highlights(_pred(), k=v)),
    "kts_max_segments": (0, lambda v: kts_segment(features=_FEATURES, max_segments=v)),
    "kts_max_clips": (0, lambda v: kts_segment(features=_FEATURES, max_clips=v)),
    "kts_penalty": (-1, lambda v: kts_segment(features=_FEATURES, penalty=v)),
    "summary_budget_fraction": (1.5, lambda v: decode_summary(_pred(), SegmentList(4, ()),
                                                             budget_fraction=v)),
    "summary_segment_aggregate": ("median", lambda v: decode_summary(_pred(), SegmentList(4, ()),
                                                                     segment_aggregate=v)),
    "recall_k": (0, lambda v: recall_at_k(_items(), k=v)),
    "recall_iou_thresholds": ([0.5, 0], lambda v: recall_at_k(_items(), thresholds=v)),
    "map_iou_thresholds": ([0.5, 0], lambda v: moment_map(_items(), thresholds=v)),
}


def test_every_range_rule_is_covered():
    assert set(_FEEDS) == set(_RULES) and len(_RULES) == 21


@pytest.mark.parametrize("field", _FEEDS)
def test_config_and_library_refuse_alike(field):
    value, call = _FEEDS[field]
    with pytest.raises(ValueError) as config_error:
        RunConfig(**{field: value})
    with pytest.raises(ValueError) as library_error:
        call(value)
    name, must, rest = str(config_error.value).partition(" must ")
    assert name == field and must
    assert str(library_error.value).partition(" must ")[1:] == (must, rest)
