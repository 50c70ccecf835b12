"""Command-line pipeline: convert, teacher, losscheck, fit, decode, eval.

Every command is deterministic for a fixed seed: identical inputs produce
byte-identical outputs (reports carry no timestamps and all ranking ties
break by position).  Each tunable flag passes its text to one ``RunConfig``
field, which refuses a bad value as it refuses one from --config.  Exit codes:
0 on success, 1 for data errors and bad flag or config values, 2 for I/O and
usage errors (argparse's: an unknown command or flag, a missing flag, a bad
--task).  Set TGKIT_THREADS to pin the BLAS thread count before numpy is loaded.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

import numpy as np

from . import _thread_count
from .config import RunConfig
from .core import GroundTruthRecord, Interval, ScoredInterval, _checked_number
from .decode import decode_highlights, decode_moments, decode_summary, highlight_scores, kts_segment
from .formats import (
    DatasetRecord,
    PredictionRecord,
    read_dataset,
    read_decode_report,
    read_matrices,
    read_predictions,
    write_dataset,
    write_json_report,
    write_predictions,
)
from .gradcheck import _LOSS_NAME, REGISTERED_LOSSES, grad_check
from .fit import overfit
from .losses import _eligible
from .labels import PointAnnotation, from_curve, from_intervals, from_points, intervals_of
from .metrics import (
    HighlightEvalItem,
    MomentEvalItem,
    SummaryEvalItem,
    hit_at_1,
    highlight_map,
    moment_map,
    qfvs_f1,
    recall_at_k,
    top5_map,
)
from .teacher import SimilarityMatrix, pseudo_labels

TASKS = ("moments", "highlights", "summary")
_FIELDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}
_TOP_K_FIELDS = {"moments": "moment_top_k", "highlights": "highlight_top_k"}
# field annotation -> the readers tried in turn on a flag's text; text none takes stays text,
# and an int field reads '2.5' as 2.5, so RunConfig refuses either as it would from --config
_READERS = {int: (int, float), float: (float,)}


def _read_flag(kind, text):
    for read in _READERS.get(kind, ()):
        try:
            return read(text)
        except ValueError:
            pass
    return text


def _load_config(args) -> RunConfig:
    """The --config file (or the defaults) with each given flag's field replaced.

    A tunable flag's ``dest`` is its field, and its text is read by the field's
    type (``_READERS``); ``decode --top-k`` picks its field by ``--task``.
    """
    config = RunConfig.load(args.config) if args.config else RunConfig()
    flags = {k: v for k, v in vars(args).items() if v is not None}
    if "top_k" in flags:
        if args.task not in _TOP_K_FIELDS:
            raise ValueError(f"--top-k does not apply to --task {args.task}")
        flags[_TOP_K_FIELDS[args.task]] = flags.pop("top_k")
    return dataclasses.replace(
        config, **{k: _read_flag(_FIELDS[k], v) for k, v in flags.items() if k in _FIELDS}
    )


def _tkeyed(values: dict, field: str) -> dict:
    """``values`` keyed by each threshold as the report prints it; two of one key are refused."""
    keys = [f"{t:g}" for t in values]
    if len(set(keys)) < len(keys):
        raise ValueError(f"{field} {list(values)} share report keys {keys}")
    return dict(zip(keys, values.values()))


def _cmd_convert(args, config: RunConfig) -> int:
    records, errors = read_dataset(args.input, on_error=args.on_error)
    for line_no, message in errors:
        print(f"skipped line {line_no}: {message}", file=sys.stderr)
    out = []
    for rec in records:
        timeline = rec.timeline()
        if rec.label is not None:
            out.append(rec)
            continue
        if rec.annotation is None:
            raise ValueError(
                f"record {rec.video_id}/{rec.query_id} has neither annotation nor label"
            )
        if rec.source_kind == "interval":
            rec.label = from_intervals(timeline, rec.annotation, rec.duration)
            out.append(rec)
        elif rec.source_kind == "curve":
            rec.label = from_curve(timeline, rec.annotation, config.curve_bin_width)
            out.append(rec)
        else:
            labels = from_points(timeline, rec.annotation, rec.duration)
            for i, (stamp, label) in enumerate(zip(rec.annotation.timestamps, labels)):
                out.append(dataclasses.replace(rec, query_id=f"{rec.query_id}#p{i}",
                                               annotation=PointAnnotation((stamp,)), label=label))
    write_dataset(out, args.output)
    print(f"wrote {len(out)} labeled record(s) to {args.output}")
    return 0


def _cmd_teacher(args, config: RunConfig) -> int:
    out = []
    for matrix in read_matrices(args.input):
        sim = SimilarityMatrix(matrix.values, matrix.column_names)
        timeline = matrix.timeline()
        k = min(config.teacher_top_k, sim.num_concepts)
        for rank, sample in enumerate(pseudo_labels(timeline, sim, k, config.curve_bin_width)):
            out.append(
                DatasetRecord(
                    video_id=matrix.video_id,
                    query_id=f"concept{rank:02d}",
                    duration=timeline.duration,
                    clip_len=timeline.clip_len,
                    query=sample.query,
                    source_kind="curve",
                    annotation=sample.curve,
                    label=sample.label,
                )
            )
    write_dataset(out, args.output)
    print(f"wrote {len(out)} pseudo-labeled record(s) to {args.output}")
    return 0


def _cmd_losscheck(args, config: RunConfig) -> int:
    if args.losses is None:
        names = list(REGISTERED_LOSSES)
    else:
        names = [n.strip() for n in args.losses.split(",") if n.strip()]
        if not names:
            raise ValueError(f"--losses {args.losses!r} names no loss")
        for name in names:
            _checked_number("loss_name", name, str, _LOSS_NAME)
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            raise ValueError(f"--losses {args.losses!r} names {', '.join(repeated)} more than once")
    settings = {
        "epsilon": config.gradcheck_epsilon,
        "tolerance": config.gradcheck_tolerance,
        "seed": config.seed,
        "num_points": config.gradcheck_points,
    }
    results = {name: grad_check(name, **settings) for name in names}
    report = {
        **settings,
        "losses": {name: res.to_dict() for name, res in results.items()},
        "all_passed": all(res.passed for res in results.values()),
    }
    write_json_report(report, args.output)
    for name in names:
        res = results[name]
        status = "ok" if res.passed else "FAIL"
        print(f"{name}: {status} (max rel err {res.max_rel_error:.3e})")
    if not report["all_passed"]:
        print("gradient check failed", file=sys.stderr)
        return 1
    return 0


def _cmd_fit(args, config: RunConfig) -> int:
    records, _ = read_dataset(args.input)
    if not records:
        raise ValueError(f"no records in {args.input}")
    unlabeled = [f"{r.video_id}/{r.query_id}" for r in records if r.label is None]
    if unlabeled:
        raise ValueError(f"records without labels (run convert first): {unlabeled}")
    records = sorted(records, key=DatasetRecord.sort_key)
    no_positive = [f"{r.video_id}/{r.query_id}" for r in records
                   if not _eligible(r.label.foreground).any()]
    if no_positive:
        raise ValueError(f"records without a foreground clip to serve as positive: {no_positive}")

    groups: dict[int, list[DatasetRecord]] = {}
    for rec in records:
        groups.setdefault(rec.timeline().num_clips, []).append(rec)

    predictions = []
    trace = []
    stalled = []  # per group; on stdout only, so trajectory.json keeps its bytes
    for num_clips in sorted(groups):
        members = groups[num_clips]
        gt = [
            GroundTruthRecord(r.video_id, r.timeline(), r.query, r.label, r.source_kind)
            for r in members
        ]
        result = overfit(
            gt,
            weights=config.weights(),
            steps=config.fit_steps,
            learning_rate=config.fit_learning_rate,
            rng_seed=config.seed,
            embed_dim=config.fit_embed_dim,
            aggregation=config.loss_aggregation,
        )
        for rec, pred in zip(members, result.predictions):
            predictions.append(
                PredictionRecord(rec.video_id, rec.query_id, rec.duration, rec.clip_len, pred)
            )
        trace.append(
            {
                "num_clips": num_clips,
                "items": [[r.video_id, r.query_id] for r in members],
                "positives": result.positives.tolist(),
                "initial_loss": float(result.trajectory[0]),
                "final_loss": float(result.trajectory[-1]),
                "trajectory": result.trajectory.tolist(),
            }
        )
        stalled.append(result.stalled_steps)
    write_predictions(predictions, args.output)
    if args.trajectory:
        write_json_report(
            {"seed": config.seed, "steps": config.fit_steps, "groups": trace}, args.trajectory
        )
    for group, count in zip(trace, stalled):
        print(
            f"fit {len(group['items'])} record(s) at {group['num_clips']} clips: "
            f"loss {group['initial_loss']:.6f} -> {group['final_loss']:.6f}"
            + (f", {count} stalled step(s)" if count else "")
        )
    return 0


def _decode_moments_result(rec: PredictionRecord, config: RunConfig) -> dict:
    moments = decode_moments(rec.prediction, rec.timeline(), config.nms_iou_threshold,
                             config.moment_top_k, config.moment_use_saliency)
    return {
        "moments": [
            {"start": m.interval.start, "end": m.interval.end, "score": m.score}
            for m in moments
        ]
    }


def _decode_highlights_result(rec: PredictionRecord, config: RunConfig) -> dict:
    scores = highlight_scores(rec.prediction, config.highlight_mode)
    top = decode_highlights(rec.prediction, config.highlight_mode, config.highlight_top_k,
                            scores=scores)
    return {"top_clips": [int(i) for i in top], "clip_scores": scores.tolist()}


def _cmd_decode(args, config: RunConfig) -> int:
    records, _ = read_predictions(args.input)
    if not records:
        raise ValueError(f"no prediction records in {args.input}")
    records = sorted(records, key=PredictionRecord.sort_key)

    features = None
    if args.task == "summary":
        if not args.kts_input:
            raise ValueError("task 'summary' needs --kts-input with per-clip features")
        features = {m.video_id: m for m in read_matrices(args.kts_input)}

    results = []
    for rec in records:
        entry = {"video_id": rec.video_id, "query_id": rec.query_id}
        if args.task == "moments":
            entry.update(_decode_moments_result(rec, config))
        elif args.task == "highlights":
            entry.update(_decode_highlights_result(rec, config))
        else:
            if rec.video_id not in features:
                raise ValueError(f"--kts-input has no features for video {rec.video_id!r}")
            matrix = features[rec.video_id]
            have, want = matrix.timeline(), rec.timeline()
            if have != want:
                raise ValueError(
                    f"--kts-input features for video {rec.video_id!r} cover {have.num_clips} "
                    f"clips of {have.clip_len!r} s, its predictions {want.num_clips} clips "
                    f"of {want.clip_len!r} s")
            segments = kts_segment(
                features=matrix.values,
                max_segments=config.kts_max_segments,
                max_clips=config.kts_max_clips,
                penalty=config.kts_penalty,
            )
            selection = decode_summary(
                rec.prediction,
                segments,
                budget_fraction=config.summary_budget_fraction,
                segment_aggregate=config.summary_segment_aggregate,
            )
            entry.update(
                {
                    "selected_clips": list(selection.clips),
                    "change_points": list(segments.change_points),
                    "segment_scores": list(selection.segment_scores),
                }
            )
        results.append(entry)
    write_json_report({"task": args.task, "results": results}, args.output)
    print(f"decoded {len(results)} record(s) for task {args.task!r} to {args.output}")
    return 0


def _eval_moments(pairs, config: RunConfig) -> dict:
    items = []
    for result, rec in pairs:
        timeline = rec.timeline()
        preds = tuple(
            ScoredInterval(Interval(m["start"], m["end"]), m["score"])
            for m in result["moments"]
        )
        gts = tuple(intervals_of(timeline, rec.label))
        items.append(MomentEvalItem(f"{rec.video_id}/{rec.query_id}", preds, gts))
    recall = recall_at_k(items, k=config.recall_k, thresholds=config.recall_iou_thresholds)
    detail = moment_map(items, thresholds=config.map_iou_thresholds)
    return {
        "num_items": len(items),
        "recall_k": config.recall_k,
        "recall": _tkeyed(recall.recall, "recall_iou_thresholds"),
        "miou": recall.miou,
        "map_per_threshold": _tkeyed(detail["map_per_threshold"], "map_iou_thresholds"),
        "average_map": detail["average_map"],
    }


def _eval_highlights(pairs) -> dict:
    items = []
    for result, rec in pairs:
        items.append(
            HighlightEvalItem(
                f"{rec.video_id}/{rec.query_id}",
                np.asarray(result["clip_scores"], dtype=np.float64),
                rec.label.foreground,
            )
        )
    t5 = top5_map(items)
    return {
        "num_items": len(items),
        "highlight_map": highlight_map(items),
        "top5_map": t5["top5_map"],
        "top5_protocol": t5["protocol"],
        "hit_at_1": hit_at_1(items),
    }


def _eval_summary(pairs) -> dict:
    per_item = []
    for result, rec in pairs:
        if rec.clip_concepts is None:
            raise ValueError(
                f"truth record {rec.video_id}/{rec.query_id} has no clip_concepts; "
                "summary evaluation needs per-clip concept sets"
            )
        concepts = {i: cs for i, cs in enumerate(rec.clip_concepts)}
        item = SummaryEvalItem(
            tuple(result["selected_clips"]),
            tuple(rec.label.foreground_indices),
            concepts,
            f"{rec.video_id}/{rec.query_id}",
        )
        score = qfvs_f1(item)
        per_item.append(
            {
                "video_id": rec.video_id,
                "query_id": rec.query_id,
                "precision": score.precision,
                "recall": score.recall,
                "f1": score.f1,
            }
        )
    if not per_item:
        raise ValueError("summary F1 over zero items is undefined")
    return {
        "num_items": len(per_item),
        "precision": float(np.mean([e["precision"] for e in per_item])),
        "recall": float(np.mean([e["recall"] for e in per_item])),
        "f1": float(np.mean([e["f1"] for e in per_item])),
        "per_item": per_item,
    }


def _cmd_eval(args, config: RunConfig) -> int:
    truth_records, _ = read_dataset(args.truth)
    unlabeled = [f"{r.video_id}/{r.query_id}" for r in truth_records if r.label is None]
    if unlabeled:
        raise ValueError(f"truth records without labels: {unlabeled}")
    truth = sorted(truth_records, key=DatasetRecord.sort_key)
    results = read_decode_report(args.predictions, args.task,
                                 {r.sort_key(): r.timeline() for r in truth})
    pairs = list(zip(results, truth))

    if args.task == "moments":
        body = _eval_moments(pairs, config)
    elif args.task == "highlights":
        body = _eval_highlights(pairs)
    else:
        body = _eval_summary(pairs)
    report = {"task": args.task, **body}
    write_json_report(report, args.output)
    headline = {
        "moments": lambda b: f"mIoU {b['miou']:.4f}, avg mAP {b['average_map']:.4f}",
        "highlights": lambda b: f"mAP {b['highlight_map']:.4f}, HIT@1 {b['hit_at_1']:.4f}",
        "summary": lambda b: f"F1 {b['f1']:.4f}",
    }[args.task](body)
    print(f"evaluated {body['num_items']} item(s): {headline}")
    return 0


def _add_common(sub) -> None:
    sub.add_argument("--config", help="RunConfig JSON; flags override its values")
    sub.add_argument("--output", required=True, help="output file path")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    ``parse_args`` fills a fresh namespace on every call, so callers share
    the parser without sharing state.
    """
    parser = argparse.ArgumentParser(
        prog="tgkit",
        description="Temporal grounding toolkit: label conversion, losses, decoding, metrics.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("convert", help="attach unified labels to raw annotations")
    _add_common(p)
    p.add_argument("--input", required=True, help="dataset JSONL with raw annotations")
    p.add_argument("--bin-width", dest="curve_bin_width", help="curve quantisation bin")
    p.add_argument("--on-error", default="raise",
                   help="skip: skip malformed lines instead of failing (default: raise)")
    p.set_defaults(func=_cmd_convert)

    p = commands.add_parser("teacher", help="pseudo-labels from concept similarity matrices")
    _add_common(p)
    p.add_argument("--input", required=True, help="matrix container (text or binary)")
    p.add_argument("--top-k", dest="teacher_top_k", help="concepts per video")
    p.add_argument("--bin-width", dest="curve_bin_width", help="curve quantisation bin")
    p.set_defaults(func=_cmd_teacher)

    p = commands.add_parser("losscheck", help="finite-difference audit of loss gradients")
    _add_common(p)
    p.add_argument("--losses", default=None, help="comma-separated loss names (default: all)")
    p.add_argument("--epsilon", dest="gradcheck_epsilon")
    p.add_argument("--tolerance", dest="gradcheck_tolerance")
    p.add_argument("--points", dest="gradcheck_points", help="random points per loss")
    p.add_argument("--seed")
    p.set_defaults(func=_cmd_losscheck)

    p = commands.add_parser("fit", help="overfit free parameters to labeled records")
    _add_common(p)
    p.add_argument("--input", required=True, help="labeled dataset JSONL")
    p.add_argument("--trajectory", default=None, help="also write the loss trajectory here")
    p.add_argument("--steps", dest="fit_steps")
    p.add_argument("--learning-rate", dest="fit_learning_rate")
    p.add_argument("--embed-dim", dest="fit_embed_dim")
    p.add_argument("--seed")
    p.add_argument("--aggregation", dest="loss_aggregation")
    p.set_defaults(func=_cmd_fit)

    p = commands.add_parser("decode", help="turn predictions into task outputs")
    _add_common(p)
    p.add_argument("--input", required=True, help="predictions JSONL")
    p.add_argument("--task", required=True, choices=TASKS)
    p.add_argument("--iou-threshold", dest="nms_iou_threshold", help="NMS threshold (moments)")
    p.add_argument("--top-k", help="ranked outputs to keep (moment_top_k or highlight_top_k)")
    p.add_argument(
        "--use-saliency", dest="moment_use_saliency", action=argparse.BooleanOptionalAction,
        help="add saliency to moment scores",
    )
    p.add_argument("--mode", dest="highlight_mode", help="highlight score mode")
    p.add_argument("--kts-input", help="per-clip feature matrices (summary)")
    p.add_argument("--kts-penalty")
    p.add_argument("--max-segments", dest="kts_max_segments")
    p.add_argument("--max-clips", dest="kts_max_clips")
    p.add_argument("--budget-fraction", dest="summary_budget_fraction")
    p.add_argument("--segment-aggregate", dest="summary_segment_aggregate")
    p.set_defaults(func=_cmd_decode)

    p = commands.add_parser("eval", help="score decoded outputs against labeled truth")
    _add_common(p)
    p.add_argument("--predictions", required=True, help="decode output JSON")
    p.add_argument("--truth", required=True, help="labeled dataset JSONL")
    p.add_argument("--task", required=True, choices=TASKS)
    p.add_argument("--recall-k", help="k for Recall@k (moments)")
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _thread_count()
        return args.func(args, _load_config(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ValueError) else 2  # io.UnsupportedOperation is both; it stays 1


if __name__ == "__main__":
    sys.exit(main())
