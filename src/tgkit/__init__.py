"""Toolkit for clip-level temporal grounding: labels, losses, decoding, metrics."""
import os as _os


def _thread_count():
    """TGKIT_THREADS as a positive integer, None when unset; ValueError otherwise."""
    raw = _os.environ.get("TGKIT_THREADS")
    if raw is not None and not (raw.isascii() and raw.isdigit() and int(raw) >= 1):
        raise ValueError(f"TGKIT_THREADS must be a positive integer, got {raw!r}")
    return None if raw is None else int(raw)


# Honour TGKIT_THREADS before numpy spins up its BLAS thread pools.
try:
    _threads = _thread_count()
except ValueError:  # importing ignores a bad value; the CLI reports it
    _threads = None
if _threads is not None:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ.setdefault(_var, str(_threads))

from .config import RunConfig
from .core import (
    ClipTimeline,
    GroundingWarning,
    GroundTruthRecord,
    Interval,
    PredictionSet,
    Query,
    ScoredInterval,
    UnifiedLabel,
    boundary_of,
)
from .decode import (
    SegmentList,
    SummarySelection,
    decode_highlights,
    decode_moments,
    decode_summary,
    highlight_scores,
    kts_segment,
    nms_1d,
)
from .fit import OverfitResult, overfit
from .gradcheck import REGISTERED_LOSSES, GradCheckResult, grad_check
from .labels import (
    CurveAnnotation,
    PointAnnotation,
    from_curve,
    from_intervals,
    from_points,
    intervals_of,
)
from .losses import (
    EmbeddingBatch,
    LossReport,
    LossWeights,
    boundary_loss,
    foreground_loss,
    giou_1d,
    saliency_inter_loss,
    saliency_intra_loss,
    smooth_l1,
    total_loss,
)
from .metrics import (
    HighlightEvalItem,
    MomentEvalItem,
    SummaryEvalItem,
    highlight_map,
    hit_at_1,
    moment_map,
    qfvs_f1,
    recall_at_k,
    temporal_iou,
    top5_map,
)
from .teacher import SimilarityMatrix, pseudo_labels, top_concepts

__version__ = "0.1.0"

__all__ = [
    "ClipTimeline",
    "CurveAnnotation",
    "EmbeddingBatch",
    "GradCheckResult",
    "GroundTruthRecord",
    "GroundingWarning",
    "HighlightEvalItem",
    "Interval",
    "LossReport",
    "LossWeights",
    "MomentEvalItem",
    "OverfitResult",
    "PointAnnotation",
    "PredictionSet",
    "Query",
    "REGISTERED_LOSSES",
    "RunConfig",
    "ScoredInterval",
    "SegmentList",
    "SimilarityMatrix",
    "SummaryEvalItem",
    "SummarySelection",
    "UnifiedLabel",
    "boundary_loss",
    "boundary_of",
    "decode_highlights",
    "decode_moments",
    "decode_summary",
    "foreground_loss",
    "from_curve",
    "from_intervals",
    "from_points",
    "giou_1d",
    "grad_check",
    "highlight_map",
    "highlight_scores",
    "hit_at_1",
    "intervals_of",
    "kts_segment",
    "moment_map",
    "nms_1d",
    "overfit",
    "pseudo_labels",
    "qfvs_f1",
    "recall_at_k",
    "saliency_inter_loss",
    "saliency_intra_loss",
    "smooth_l1",
    "temporal_iou",
    "top5_map",
    "top_concepts",
    "total_loss",
]
