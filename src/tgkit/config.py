"""Run configuration; each default is the constant of the module that uses it."""
import dataclasses
from dataclasses import dataclass
from pathlib import Path

from . import decode, fit, gradcheck, labels, losses, metrics, teacher
from .core import _is_real
from .formats import parse_json, write_json_report
from .losses import LossWeights


# field annotation -> (accepts the value, what the value must be)
_TYPES = {
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    float: (_is_real, "a finite number"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    str: (lambda v: isinstance(v, str), "a string"),
    tuple: (lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(map(_is_real, v)),
            "a non-empty list of finite numbers"),
}


def _one_of(name: str, value, choices: tuple):
    return value in choices, f"{name} must be {' or '.join(choices)}, got {value!r}"


@dataclass(frozen=True)
class RunConfig:
    """Every tunable in one flat, JSON-serialisable record.

    Each field is checked against its annotated type, without coercion, and
    then against its allowed range.
    """

    # loss weights and scales
    lambda_f: float = LossWeights.lambda_f
    lambda_l1: float = LossWeights.lambda_l1
    lambda_iou: float = LossWeights.lambda_iou
    lambda_inter: float = LossWeights.lambda_inter
    lambda_intra: float = LossWeights.lambda_intra
    tau: float = LossWeights.tau
    neg_weight: float = LossWeights.neg_weight
    smooth_l1_beta: float = LossWeights.smooth_l1_beta
    loss_aggregation: str = losses.DEFAULT_AGGREGATION
    # label conversion
    curve_bin_width: float = labels.DEFAULT_BIN_WIDTH
    # pseudo-label teacher
    teacher_top_k: int = teacher.DEFAULT_TOP_K
    # overfit harness; a full run, where overfit() itself defaults to 500 steps
    fit_steps: int = 2000
    fit_learning_rate: float = fit.DEFAULT_LEARNING_RATE
    fit_embed_dim: int = fit.DEFAULT_EMBED_DIM
    # gradient checking
    gradcheck_epsilon: float = gradcheck.DEFAULT_EPSILON
    gradcheck_tolerance: float = gradcheck.DEFAULT_TOLERANCE
    gradcheck_points: int = gradcheck.DEFAULT_POINTS
    # decoding; decode_moments() stops NMS at moment_top_k (top_k=None keeps all)
    nms_iou_threshold: float = decode.DEFAULT_NMS_THRESHOLD
    moment_top_k: int = 10
    moment_use_saliency: bool = False
    highlight_mode: str = decode.DEFAULT_HIGHLIGHT_MODE
    highlight_top_k: int = decode.DEFAULT_HIGHLIGHT_TOP_K
    kts_max_segments: int = decode.DEFAULT_MAX_SEGMENTS
    kts_max_clips: int = decode.DEFAULT_MAX_SEGMENT_CLIPS
    kts_penalty: float = decode.DEFAULT_KTS_PENALTY
    summary_budget_fraction: float = decode.DEFAULT_BUDGET_FRACTION
    summary_segment_aggregate: str = decode.DEFAULT_SEGMENT_AGGREGATE
    # evaluation
    recall_k: int = metrics.DEFAULT_RECALL_K
    recall_iou_thresholds: tuple = metrics.DEFAULT_RECALL_THRESHOLDS
    map_iou_thresholds: tuple = metrics.DEFAULT_MAP_THRESHOLDS
    seed: int = 0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            accepts, kind = _TYPES[f.type]
            if not accepts(value):
                raise ValueError(f"{f.name} must be {kind}, got {value!r}")
        for name in ("recall_iou_thresholds", "map_iou_thresholds"):
            object.__setattr__(self, name, tuple(float(t) for t in getattr(self, name)))
        self.weights()  # validates the loss block
        checks = [
            _one_of("loss_aggregation", self.loss_aggregation, losses.AGGREGATIONS),
            (0 < self.curve_bin_width <= 1, "curve_bin_width must lie in (0, 1]"),
            (self.teacher_top_k >= 1, "teacher_top_k must be >= 1"),
            (self.fit_steps >= 0, "fit_steps must be >= 0"),
            (self.fit_learning_rate > 0, "fit_learning_rate must be positive"),
            (self.fit_embed_dim >= 2, "fit_embed_dim must be >= 2"),
            (self.gradcheck_epsilon > 0, "gradcheck_epsilon must be positive"),
            (self.gradcheck_tolerance > 0, "gradcheck_tolerance must be positive"),
            (self.gradcheck_points >= 1, "gradcheck_points must be >= 1"),
            (0 < self.nms_iou_threshold <= 1, "nms_iou_threshold must lie in (0, 1]"),
            (self.moment_top_k >= 1, "moment_top_k must be >= 1"),
            _one_of("highlight_mode", self.highlight_mode, decode.HIGHLIGHT_MODES),
            (self.highlight_top_k >= 1, "highlight_top_k must be >= 1"),
            (self.kts_max_segments >= 1, "kts_max_segments must be >= 1"),
            (self.kts_max_clips >= 1, "kts_max_clips must be >= 1"),
            (self.kts_penalty >= 0, "kts_penalty must be non-negative"),
            (0 < self.summary_budget_fraction <= 1,
             "summary_budget_fraction must lie in (0, 1]"),
            _one_of("summary_segment_aggregate", self.summary_segment_aggregate,
                    decode.SEGMENT_AGGREGATES),
            (self.recall_k >= 1, "recall_k must be >= 1"),
            (all(0 < t <= 1 for t in self.recall_iou_thresholds),
             "recall_iou_thresholds must lie in (0, 1]"),
            (all(0 < t <= 1 for t in self.map_iou_thresholds),
             "map_iou_thresholds must lie in (0, 1]"),
        ]
        for ok, message in checks:
            if not ok:
                raise ValueError(message)

    def weights(self) -> LossWeights:
        return LossWeights(**{f.name: getattr(self, f.name)
                              for f in dataclasses.fields(LossWeights)})

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["recall_iou_thresholds"] = list(self.recall_iou_thresholds)
        out["map_iou_thresholds"] = list(self.map_iou_thresholds)
        return out

    @classmethod
    def from_dict(cls, data) -> "RunConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def dump(self, path) -> None:
        write_json_report(self.to_dict(), path)

    @classmethod
    def load(cls, path) -> "RunConfig":
        return cls.from_dict(parse_json(Path(path).read_text(encoding="utf-8")))
