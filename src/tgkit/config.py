"""Run configuration with defaults wired to the reference protocol."""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .losses import LossWeights
from .metrics import DEFAULT_MAP_THRESHOLDS, DEFAULT_RECALL_THRESHOLDS


@dataclass(frozen=True)
class RunConfig:
    """Every tunable in one flat, JSON-serialisable record."""

    # loss weights and scales
    lambda_f: float = 1.0
    lambda_l1: float = 1.0
    lambda_iou: float = 1.0
    lambda_inter: float = 1.0
    lambda_intra: float = 1.0
    tau: float = 0.07
    neg_weight: float = 0.1
    smooth_l1_beta: float = 1.0
    loss_aggregation: str = "per_video"
    # label conversion
    curve_bin_width: float = 0.05
    # pseudo-label teacher
    teacher_top_k: int = 5
    # overfit harness
    fit_steps: int = 2000
    fit_learning_rate: float = 0.5
    fit_embed_dim: int = 8
    # gradient checking
    gradcheck_epsilon: float = 1e-5
    gradcheck_tolerance: float = 1e-5
    gradcheck_points: int = 100
    # decoding
    nms_iou_threshold: float = 0.7
    moment_top_k: int = 10
    moment_use_saliency: bool = False
    highlight_mode: str = "f_plus_s"
    highlight_top_k: int = 1
    kts_max_segments: int = 20
    kts_max_clips: int = 200
    kts_penalty: float = 1.0
    summary_budget_fraction: float = 0.02
    summary_segment_aggregate: str = "mean"
    # evaluation
    recall_k: int = 1
    recall_iou_thresholds: tuple = DEFAULT_RECALL_THRESHOLDS
    map_iou_thresholds: tuple = DEFAULT_MAP_THRESHOLDS
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "recall_iou_thresholds",
                           tuple(float(t) for t in self.recall_iou_thresholds))
        object.__setattr__(self, "map_iou_thresholds",
                           tuple(float(t) for t in self.map_iou_thresholds))
        self.weights()  # validates the loss block
        checks = [
            (self.loss_aggregation in ("per_video", "per_clip"),
             f"loss_aggregation must be per_video or per_clip, got {self.loss_aggregation!r}"),
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
            (self.highlight_mode in ("f_plus_s", "f_only"),
             f"highlight_mode must be f_plus_s or f_only, got {self.highlight_mode!r}"),
            (self.highlight_top_k >= 1, "highlight_top_k must be >= 1"),
            (self.kts_max_segments >= 1, "kts_max_segments must be >= 1"),
            (self.kts_max_clips >= 1, "kts_max_clips must be >= 1"),
            (self.kts_penalty >= 0, "kts_penalty must be non-negative"),
            (0 < self.summary_budget_fraction <= 1,
             "summary_budget_fraction must lie in (0, 1]"),
            (self.summary_segment_aggregate in ("mean", "max"),
             f"summary_segment_aggregate must be mean or max, got "
             f"{self.summary_segment_aggregate!r}"),
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
        return LossWeights(
            lambda_f=self.lambda_f,
            lambda_l1=self.lambda_l1,
            lambda_iou=self.lambda_iou,
            lambda_inter=self.lambda_inter,
            lambda_intra=self.lambda_intra,
            tau=self.tau,
            neg_weight=self.neg_weight,
            smooth_l1_beta=self.smooth_l1_beta,
        )

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["recall_iou_thresholds"] = list(self.recall_iou_thresholds)
        out["map_iou_thresholds"] = list(self.map_iou_thresholds)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "RunConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))
