"""Run configuration; each default is the constant of the module that uses it."""
import dataclasses
from dataclasses import dataclass

from . import decode, fit, gradcheck, labels, losses, metrics, teacher
from .core import (_AT_LEAST_1, _JSON_TYPES, _NON_NEGATIVE, _POSITIVE, _UNIT, _check_type,
                   _checked_number, _is_real)
from .formats import read_json, write_json_report
from .losses import LossWeights


# field annotation -> (accepts the value, what the value must be): core's JSON types and a list
_TYPES = {**_JSON_TYPES,
          tuple: (lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(map(_is_real, v)),
                  "a non-empty list of finite numbers")}

# field -> the range rule of the library parameter it feeds; LossWeights checks the loss block
_RULES = {
    **dict.fromkeys(("curve_bin_width", "nms_iou_threshold", "summary_budget_fraction",
                     "recall_iou_thresholds", "map_iou_thresholds"), _UNIT),
    **dict.fromkeys(("teacher_top_k", "gradcheck_points", "moment_top_k", "highlight_top_k",
                     "kts_max_segments", "kts_max_clips", "recall_k"), _AT_LEAST_1),
    **dict.fromkeys(("fit_learning_rate", "gradcheck_epsilon", "gradcheck_tolerance"), _POSITIVE),
    **dict.fromkeys(("fit_steps", "kts_penalty", "seed"), _NON_NEGATIVE),
    "fit_embed_dim": fit._EMBED_DIM,
    "loss_aggregation": losses._AGGREGATION,
    "highlight_mode": decode._HIGHLIGHT_MODE,
    "summary_segment_aggregate": decode._SEGMENT_AGGREGATE,
}


@dataclass(frozen=True)
class RunConfig:
    """Every tunable in one flat, JSON-serialisable record.

    Each field is checked against its annotated type, without coercion, and
    then against the range rule of the library parameter it feeds (each
    threshold against its list's rule); a value is kept as given.
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
            _check_type(f.name, getattr(self, f.name), _TYPES[f.type])
        for name in ("recall_iou_thresholds", "map_iou_thresholds"):
            object.__setattr__(self, name, tuple(float(t) for t in getattr(self, name)))
        self.weights()  # validates the loss block
        for f in dataclasses.fields(self):
            if f.name in _RULES:
                value = getattr(self, f.name)
                for v in value if f.type is tuple else (value,):
                    _checked_number(f.name, v, float if f.type is tuple else f.type,
                                    _RULES[f.name])

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
        return cls.from_dict(read_json(path))
