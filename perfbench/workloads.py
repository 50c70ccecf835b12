"""Seeded input generators and command chains for the tgkit benchmark.

Each workload has one generator, ``make_<name>(seed, out_dir)``.  It writes
the workload's input files into ``out_dir`` and returns a ``Plan``: the CLI
command chain to run over those files, the counts the outputs must have,
and the per-layer counts the workload fixes.  The same seed always writes
byte-identical files; the seed changes the content of the inputs, never
their size, so run time does not depend on which seed a run gets.

Both chains pass through every layer the benchmark traces, so no per-layer
metric reads a constant 0.  Each workload gives the bulk of its time to
different layers; the other layers get one small step each.

Every generator uses tgkit itself (labels, formats, synth) to build its
files, so callers import tgkit before calling one.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from tgkit.core import ClipTimeline, Interval, PredictionSet, Query
from tgkit.formats import (
    DatasetRecord,
    MatrixRecord,
    PredictionRecord,
    write_dataset,
    write_matrices_binary,
    write_predictions,
)
from tgkit.gradcheck import REGISTERED_LOSSES
from tgkit.labels import from_intervals
from tgkit.synth import toy_corpus

CLIP_LEN = 2.0
FEATURE_DIM = 16
TEACHER_TOP_K = 5

# Sizes.  train: 1000 fit steps reach R1@0.7 = 1.0 on every seed tried
# (800 do not at 16 x 60 clips); 8 videos keep a pass short enough for
# several passes to fit in one run.  See BENCHMARK.json for the whys.
TRAIN_VIDEOS = 8
TRAIN_CLIPS = 60
TRAIN_STEPS = 1000
TRAIN_LOSSCHECK_POINTS = 10
LONG_VIDEO_CLIPS = (300, 428, 557, 685, 814, 942, 1071, 1200)
LONG_FIT_STEPS = 5  # one short fit per video length: long sequences through the losses
LONG_LOSSCHECK_POINTS = 1


@dataclass
class Step:
    """One CLI invocation: its stage, argv, and the file it writes."""

    stage: str  # prep | losscheck | fit | decode | eval
    argv: list
    output: str
    expect_count: int | None = None  # records / results / items in the output
    io_records: int = 0  # records the command reads and writes through tgkit.formats


@dataclass
class Plan:
    """A workload's command chain over its generated inputs."""

    steps: list
    clips: int  # clips carried through the chain, for clips_per_s
    checks: list = field(default_factory=list)  # [output, json path, required value]
    results: dict = field(default_factory=dict)  # result metric -> [output, json path]
    counts: dict = field(default_factory=dict)  # per-layer count -> its value in one pass

    def to_obj(self) -> dict:
        return asdict(self)

    @classmethod
    def from_obj(cls, obj: dict) -> "Plan":
        return cls(**{**obj, "steps": [Step(**s) for s in obj["steps"]]})


def _noisy_prediction(label, rng: np.random.Generator) -> PredictionSet:
    """A plausible detector output: right on average, wrong in the details."""
    fg = label.foreground == 1
    n = fg.shape[0]
    logits = np.where(fg, rng.normal(2.0, 1.2, n), rng.normal(-2.0, 1.2, n))
    offsets = np.where(
        fg[:, None],
        label.offsets + rng.normal(0.0, 0.6 * CLIP_LEN, (n, 2)),
        rng.uniform(0.5, 4.0, (n, 2)) * CLIP_LEN,
    )
    saliency = np.clip(0.8 * label.saliency + rng.normal(0.0, 0.25, n), -1.0, 1.0)
    return PredictionSet(logits, offsets, saliency)


def _spaced_runs(rng, num_clips: int, count: int, width: tuple) -> list:
    """``count`` non-adjacent clip runs ``(first, last_exclusive)``, sorted."""
    runs = []
    slot = num_clips // count
    for k in range(count):
        w = int(rng.integers(width[0], min(width[1], slot - 2) + 1))
        first = k * slot + 1 + int(rng.integers(0, slot - w - 1))
        runs.append((first, first + w))
    return runs


def _block_features(rng, num_clips: int, dim: int):
    """Features with planted scene blocks, plus one concept set per block."""
    values = np.empty((num_clips, dim))
    concepts = []
    vocab = [f"c{c:02d}" for c in range(12)]
    start = 0
    while start < num_clips:
        length = min(int(rng.integers(20, 81)), num_clips - start)
        centre = rng.uniform(-0.6, 0.6, dim)
        values[start:start + length] = centre + rng.normal(0.0, 0.15, (length, dim))
        chosen = frozenset(rng.choice(vocab, size=int(rng.integers(1, 4)), replace=False))
        concepts.extend([chosen] * length)
        start += length
    return np.clip(values, -1.0, 1.0), tuple(concepts)


def _chain(n: int, preds: str, points: int, fit_steps: int, seed: int) -> list:
    """The command chain both workloads run over ``n`` videos.

    ``{in}`` and ``{out}`` stand for the input and output directories;
    ``preds`` is the predictions file that decode reads.
    """
    k = TEACHER_TOP_K
    steps = [
        Step("prep", ["convert", "--input", "{in}/raw.jsonl",
                      "--output", "{out}/labeled.jsonl"], "labeled.jsonl", n, 2 * n),
        Step("prep", ["teacher", "--input", "{in}/features.tgmx", "--top-k", str(k),
                      "--output", "{out}/teacher.jsonl"], "teacher.jsonl", n * k, n + n * k),
        Step("losscheck", ["losscheck", "--points", str(points), "--seed", str(seed),
                           "--output", "{out}/losscheck.json"], "losscheck.json"),
        Step("fit", ["fit", "--input", "{out}/labeled.jsonl", "--steps", str(fit_steps),
                     "--seed", "0", "--trajectory", "{out}/trajectory.json",
                     "--output", "{out}/fit_preds.jsonl"], "fit_preds.jsonl", n, 2 * n),
    ]
    for task in ("moments", "highlights", "summary"):
        extra = ["--kts-input", "{in}/features.tgmx"] if task == "summary" else []
        steps.append(Step("decode", ["decode", "--input", preds, "--task", task, *extra,
                                     "--output", f"{{out}}/decoded_{task}.json"],
                          f"decoded_{task}.json", n, 2 * n if extra else n))
    for task in ("moments", "highlights", "summary"):
        steps.append(Step("eval", ["eval", "--task", task,
                                   "--predictions", f"{{out}}/decoded_{task}.json",
                                   "--truth", "{out}/labeled.jsonl",
                                   "--output", f"{{out}}/eval_{task}.json"],
                          f"eval_{task}.json", n, n))
    return steps


def _fixed_counts(steps: list, n: int, points: int, fit_steps: int, clip_counts) -> dict:
    """Per-layer counts of one pass that the workload alone decides."""
    return {
        "fit.steps": fit_steps * len(set(clip_counts)),  # fit runs once per clip count
        "gradcheck.points": points * len(REGISTERED_LOSSES),
        "formats.records": sum(s.io_records for s in steps),
        "labels.calls": n,
        "teacher.samples": n * TEACHER_TOP_K,
        "decode.kts_clips_max": max(clip_counts),
    }


# --- train -----------------------------------------------------------------


def make_train(seed: int, out_dir) -> Plan:
    """Toy videos -> convert -> losscheck -> fit -> decode -> eval, on the fit's predictions."""
    rng = np.random.default_rng(seed)
    records = toy_corpus(TRAIN_VIDEOS, TRAIN_CLIPS, CLIP_LEN, seed)
    names = tuple(f"feat_{c:02d}" for c in range(FEATURE_DIM))
    matrices = []
    for record in records:
        record.label = None
        values, record.clip_concepts = _block_features(rng, TRAIN_CLIPS, FEATURE_DIM)
        matrices.append(MatrixRecord(record.video_id, CLIP_LEN, names, values))
    write_dataset(records, out_dir / "raw.jsonl")
    write_matrices_binary(matrices, out_dir / "features.tgmx")

    n = len(records)
    steps = _chain(n, "{out}/fit_preds.jsonl", TRAIN_LOSSCHECK_POINTS,
                   TRAIN_STEPS, seed)
    return Plan(
        steps=steps,
        clips=TRAIN_VIDEOS * TRAIN_CLIPS,
        checks=[
            ["losscheck.json", ["all_passed"], True],
            ["eval_moments.json", ["recall", "0.7"], 1.0],
            ["eval_highlights.json", ["hit_at_1"], 1.0],
        ],
        results={
            "r1_at_0.7": ["eval_moments.json", ["recall", "0.7"]],
            "hit_at_1": ["eval_highlights.json", ["hit_at_1"]],
            "fit_final_loss": ["trajectory.json", ["groups", 0, "final_loss"]],
        },
        counts=_fixed_counts(steps, n, TRAIN_LOSSCHECK_POINTS, TRAIN_STEPS, [TRAIN_CLIPS] * n),
    )


# --- long_videos -----------------------------------------------------------


def make_long_videos(seed: int, out_dir) -> Plan:
    """Long videos with given predictions -> convert, teacher -> decode x3 -> eval x3.

    A 1-point losscheck and a 5-step fit ride along; the decoded
    predictions are the given ones, not the fit's.
    """
    rng = np.random.default_rng(seed)
    raw, preds, matrices = [], [], []
    names = tuple(f"feat_{c:02d}" for c in range(FEATURE_DIM))
    for v, num_clips in enumerate(LONG_VIDEO_CLIPS):
        video_id = f"long{v:02d}"
        timeline = ClipTimeline(num_clips, CLIP_LEN)
        runs = _spaced_runs(rng, num_clips, int(rng.integers(3, 7)), (6, 20))
        moments = [Interval(a * CLIP_LEN, b * CLIP_LEN) for a, b in runs]
        label = from_intervals(timeline, moments)
        values, concepts = _block_features(rng, num_clips, FEATURE_DIM)
        raw.append(DatasetRecord(video_id, "q0", timeline.duration, CLIP_LEN,
                                 Query(f"long query {v}", "sentence"), "interval",
                                 moments, None, concepts))
        preds.append(PredictionRecord(video_id, "q0", timeline.duration, CLIP_LEN,
                                      _noisy_prediction(label, rng)))
        matrices.append(MatrixRecord(video_id, CLIP_LEN, names, values))
    write_dataset(raw, out_dir / "raw.jsonl")
    write_predictions(preds, out_dir / "preds.jsonl")
    write_matrices_binary(matrices, out_dir / "features.tgmx")

    n = len(LONG_VIDEO_CLIPS)
    steps = _chain(n, "{in}/preds.jsonl", LONG_LOSSCHECK_POINTS,
                   LONG_FIT_STEPS, seed)
    return Plan(
        steps=steps,
        clips=sum(LONG_VIDEO_CLIPS),
        checks=[["losscheck.json", ["all_passed"], True]],
        results={
            "avg_map": ["eval_moments.json", ["average_map"]],
            "summary_f1": ["eval_summary.json", ["f1"]],
        },
        counts=_fixed_counts(steps, n, LONG_LOSSCHECK_POINTS, LONG_FIT_STEPS, LONG_VIDEO_CLIPS),
    )


WORKLOADS = {
    "train": make_train,
    "long_videos": make_long_videos,
}
