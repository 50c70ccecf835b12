import argparse
import dataclasses
import errno
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from tgkit import gradcheck
from tgkit.cli import _TOP_K_FIELDS, build_parser, main
from tgkit.config import RunConfig
from tgkit.core import GroundingWarning, Interval, PredictionSet, ScoredInterval, UnifiedLabel
from tgkit.formats import (
    MATRIX_MAGIC,
    MatrixRecord,
    PredictionRecord,
    dataset_record_to_obj,
    read_dataset,
    read_predictions,
    write_dataset,
    write_matrices_binary,
    write_matrices_text,
    write_predictions,
)
from tgkit.labels import PointAnnotation, from_intervals
from tgkit.synth import toy_corpus, toy_similarity
from test_config import _FEEDS


def strip_labels(records):
    return [dataclasses.replace(r, label=None) for r in records]


def run_child(args, **env):
    """Run ``python -m tgkit <args>`` in a child process with extra env vars."""
    return subprocess.run([sys.executable, "-m", "tgkit", *args], capture_output=True,
                          text=True, env={**os.environ, **env})


def run_main(args, capsys):
    """``main(args)`` in process, reported as ``run_child`` reports a child."""
    capsys.readouterr()
    code = main(args)
    return subprocess.CompletedProcess(args, code, *capsys.readouterr())


def assert_one_line_error(proc, start):
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {start}"), proc.stderr


def assert_fails_closed(argv, capsys, fragment):
    """``main(argv)`` exits 1 with one ``error:`` line that contains ``fragment``."""
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and fragment in lines[0], lines


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One convert -> fit -> decode chain shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    records = toy_corpus(num_videos=2, num_clips=24, seed=0)
    paths = {
        "raw": root / "raw.jsonl",
        "labeled": root / "labeled.jsonl",
        "preds": root / "preds.jsonl",
        "traj": root / "traj.json",
        "moments": root / "moments.json",
        "highlights": root / "highlights.json",
        "summary": root / "summary.json",
        "features": root / "features.txt",
        "truth_summary": root / "truth_summary.jsonl",
    }
    write_dataset(strip_labels(records), paths["raw"])
    assert main(["convert", "--input", str(paths["raw"]),
                 "--output", str(paths["labeled"])]) == 0
    assert main(["fit", "--input", str(paths["labeled"]),
                 "--output", str(paths["preds"]),
                 "--trajectory", str(paths["traj"]),
                 "--steps", "150", "--seed", "0"]) == 0
    assert main(["decode", "--input", str(paths["preds"]), "--task", "moments",
                 "--output", str(paths["moments"])]) == 0
    assert main(["decode", "--input", str(paths["preds"]), "--task", "highlights",
                 "--top-k", "3", "--output", str(paths["highlights"])]) == 0

    sim = toy_similarity(num_videos=2, num_clips=24, seed=0)
    write_matrices_text(sim, paths["features"])
    assert main(["decode", "--input", str(paths["preds"]), "--task", "summary",
                 "--kts-input", str(paths["features"]),
                 "--max-segments", "6", "--max-clips", "24",
                 "--budget-fraction", "0.2",
                 "--output", str(paths["summary"])]) == 0

    labeled, _ = read_dataset(paths["labeled"])
    for rec in labeled:
        n = rec.timeline().num_clips
        rec.clip_concepts = tuple(
            frozenset({"moment"}) if rec.label.foreground[i] else frozenset({f"bg{i % 3}"})
            for i in range(n)
        )
    write_dataset(labeled, paths["truth_summary"])
    return paths


class TestConvert:
    def test_attaches_labels(self, pipeline):
        records, errors = read_dataset(pipeline["labeled"])
        assert errors == []
        assert all(r.label is not None for r in records)

    def test_already_labeled_passthrough(self, pipeline, tmp_path):
        out = tmp_path / "again.jsonl"
        assert main(["convert", "--input", str(pipeline["labeled"]),
                     "--output", str(out)]) == 0
        assert out.read_bytes() == pipeline["labeled"].read_bytes()

    def test_point_records_expand_per_timestamp(self, tmp_path):
        base = toy_corpus(num_videos=1, num_clips=10, seed=1)[0]
        rec = dataclasses.replace(
            base,
            source_kind="point",
            annotation=PointAnnotation((3.0, 11.0, 17.0)),
            label=None,
        )
        raw, out = tmp_path / "raw.jsonl", tmp_path / "out.jsonl"
        write_dataset([rec], raw)
        assert main(["convert", "--input", str(raw), "--output", str(out)]) == 0
        back, _ = read_dataset(out)
        assert [r.query_id for r in back] == ["q0#p0", "q0#p1", "q0#p2"]
        assert all(r.label is not None for r in back)
        assert all(len(r.annotation.timestamps) == 1 for r in back)

    def test_corrupt_line_raises_by_default(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        good = json.dumps(dataset_record_to_obj(toy_corpus(1, 10, seed=0)[0]))
        raw.write_text(good + "\n" + '{"schema_version": 99}' + "\n")
        out = tmp_path / "out.jsonl"
        assert main(["convert", "--input", str(raw), "--output", str(out)]) == 1
        assert "schema_version" in capsys.readouterr().err

    def test_corrupt_line_skippable(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        good = json.dumps(dataset_record_to_obj(toy_corpus(1, 10, seed=0)[0]))
        raw.write_text(good + "\n" + '{"schema_version": 99}' + "\n")
        out = tmp_path / "out.jsonl"
        assert main(["convert", "--input", str(raw), "--on-error", "skip",
                     "--output", str(out)]) == 0
        assert "skipped line 2" in capsys.readouterr().err
        records, _ = read_dataset(out)
        assert len(records) == 1

    def test_null_query_id_refused(self, tmp_path):
        # it used to be read as the query id 'None'
        obj = dataset_record_to_obj(toy_corpus(1, 10, seed=0)[0])
        raw, out = tmp_path / "raw.jsonl", tmp_path / "out.jsonl"
        raw.write_text(json.dumps({**obj, "query_id": None}) + "\n" + json.dumps(obj) + "\n")
        proc = run_child(["convert", "--input", str(raw), "--output", str(out)])
        assert_one_line_error(proc, f"{raw}:1: query_id must be a string, got None")
        assert not out.exists()
        proc = run_child(["convert", "--input", str(raw), "--on-error", "skip",
                          "--output", str(out)])
        assert proc.returncode == 0
        assert proc.stderr == "skipped line 1: query_id must be a string, got None\n"
        assert [r.query_id for r in read_dataset(out)[0]] == ["q0"]

    def test_missing_input_is_io_error(self, tmp_path):
        assert main(["convert", "--input", str(tmp_path / "nope.jsonl"),
                     "--output", str(tmp_path / "out.jsonl")]) == 2

    ANNOTATIONS = {"points": [3.0, 11.0], "intervals": [[2.0, 6.0]], "curve": [0.1] * 9 + [0.9]}

    @pytest.mark.parametrize("kind, key", [
        (kind, key)
        for kind in ("point", "interval", "curve")
        for key in ("points", "intervals", "curve")
    ])
    def test_annotation_key_must_match_source_kind(self, tmp_path, capsys, kind, key):
        obj = dataset_record_to_obj(toy_corpus(1, 10, seed=0)[0])
        obj.update(source_kind=kind, annotation={key: self.ANNOTATIONS[key]}, label=None)
        raw, out = tmp_path / "raw.jsonl", tmp_path / "out.jsonl"
        raw.write_text(json.dumps(obj) + "\n")
        argv = ["convert", "--input", str(raw), "--output", str(out)]
        if (kind, key) in {("point", "points"), ("interval", "intervals"), ("curve", "curve")}:
            assert main(argv) == 0
            assert all(r.label is not None for r in read_dataset(out)[0])
        else:
            assert_fails_closed(argv, capsys, f"raw.jsonl:1: annotation of source_kind {kind!r}")

    def test_annotation_outside_its_video_is_skippable(self, tmp_path, capsys):
        obj = dataset_record_to_obj(toy_corpus(1, 10, 1.0, seed=0)[0])  # 10 clips, 10 s
        outside = [("interval", {"intervals": [[-0.5, 4.0]]}), ("point", {"points": [12.5]}),
                   ("curve", {"curve": [0.1, 0.9, 0.2]})]
        raw, out = tmp_path / "raw.jsonl", tmp_path / "out.jsonl"
        raw.write_text("".join(json.dumps(o) + "\n" for o in [obj] + [
            {**obj, "query_id": f"q{i + 1}", "source_kind": kind, "annotation": annotation,
             "label": None} for i, (kind, annotation) in enumerate(outside)]))
        argv = ["convert", "--input", str(raw), "--output", str(out)]
        assert_fails_closed(argv, capsys,
                            f"{raw}:2: interval [-0.5, 4.0] exceeds the video [0, 10.0]")
        assert not out.exists()
        assert main([*argv, "--on-error", "skip"]) == 0
        assert capsys.readouterr().err == (
            "skipped line 2: interval [-0.5, 4.0] exceeds the video [0, 10.0]\n"
            "skipped line 3: timestamp 12.5 exceeds the video duration 10.0\n"
            "skipped line 4: curve covers 3 clips but the timeline has 10\n")
        assert [r.query_id for r in read_dataset(out)[0]] == ["q0"]


class TestTeacher:
    def test_expands_top_concepts(self, tmp_path):
        sim = toy_similarity(num_videos=2, num_clips=12, num_concepts=6, seed=3)
        matrices = tmp_path / "sim.tgmx"
        write_matrices_binary(sim, matrices)
        out = tmp_path / "labeled.jsonl"
        assert main(["teacher", "--input", str(matrices), "--top-k", "2",
                     "--output", str(out)]) == 0
        records, _ = read_dataset(out)
        assert len(records) == 4
        assert sorted({r.query_id for r in records}) == ["concept00", "concept01"]
        assert all(r.label is not None for r in records)
        assert all(r.query.kind == "concept" for r in records)

    def test_top_k_clamped_to_concept_count(self, tmp_path, capsys):
        sim = toy_similarity(num_videos=1, num_clips=12, num_concepts=3, seed=3)
        matrices = tmp_path / "sim.txt"
        write_matrices_text(sim, matrices)
        out = tmp_path / "labeled.jsonl"
        assert main(["teacher", "--input", str(matrices), "--top-k", "50",
                     "--output", str(out)]) == 0
        records, _ = read_dataset(out)
        assert len(records) == 3

    def test_truncated_binary_fails_closed(self, tmp_path):
        sim = toy_similarity(num_videos=2, num_clips=12, num_concepts=6, seed=3)
        matrices = tmp_path / "sim.tgmx"
        write_matrices_binary(sim, matrices)
        matrices.write_bytes(matrices.read_bytes()[:30])
        proc = run_child(["teacher", "--input", str(matrices),
                          "--output", str(tmp_path / "labeled.jsonl")])
        assert_one_line_error(proc, f"{matrices}: truncated matrix container")

    @pytest.mark.parametrize("rows,clip_len", [(3, 0.7), (43, 0.1)])
    def test_grid_duration_keeps_its_clips(self, tmp_path, rows, clip_len):
        # rows * clip_len divided by clip_len used to truncate to rows - 1
        values = np.linspace(0.0, 1.0, 2 * rows).reshape(rows, 2)
        matrices, out = tmp_path / "sim.tgmx", tmp_path / "labeled.jsonl"
        write_matrices_binary([MatrixRecord("v", clip_len, ("a", "b"), values)], matrices)
        proc = run_child(["teacher", "--input", str(matrices), "--output", str(out)])
        assert proc.returncode == 0, proc.stderr
        records, _ = read_dataset(out)
        assert len(records) == 2 and all(len(r.label) == rows for r in records)


class TestLosscheck:
    def test_passes_with_defaults(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["losscheck", "--losses", "smooth_l1,giou_1d", "--points", "5",
                     "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["all_passed"] is True
        assert set(report["losses"]) == {"smooth_l1", "giou_1d"}
        assert report["epsilon"] == 1e-5

    def test_failure_still_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["losscheck", "--losses", "smooth_l1", "--points", "5",
                     "--tolerance", "1e-30", "--output", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["all_passed"] is False
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_loss(self, tmp_path, capsys, monkeypatch):
        # refused with grad_check's own rule and text, before any loss runs
        with pytest.raises(ValueError) as refusal:
            gradcheck.grad_check("nope")
        ran = []
        monkeypatch.setattr("tgkit.cli.grad_check", lambda name, **settings: ran.append(name))
        proc = run_main(["losscheck", "--losses", "smooth_l1,nope",
                         "--output", str(tmp_path / "r.json")], capsys)
        assert_one_line_error(proc, "loss_name must be foreground or ")
        assert proc.stderr == f"error: {refusal.value}\n" and ran == []
        assert not (tmp_path / "r.json").exists()

    def test_empty_list_refused(self, tmp_path, capsys):
        # it used to check nothing and report all_passed
        proc = run_main(["losscheck", "--losses", ",", "--output", str(tmp_path / "r.json")],
                        capsys)
        assert_one_line_error(proc, "--losses ',' names no loss")
        assert not (tmp_path / "r.json").exists()

    def test_repeated_name_refused(self, tmp_path, capsys):
        # it used to check smooth_l1 twice and print two lines for one report entry
        proc = run_main(["losscheck", "--losses", "smooth_l1, giou_1d,smooth_l1", "--points", "2",
                         "--output", str(tmp_path / "r.json")], capsys)
        assert_one_line_error(proc, "--losses 'smooth_l1, giou_1d,smooth_l1' names smooth_l1 "
                                    "more than once")
        assert proc.stdout == "" and not (tmp_path / "r.json").exists()

    def test_no_point_off_the_kinks(self, tmp_path, capsys, monkeypatch):
        # it used to escape from main as a RuntimeError traceback
        monkeypatch.setattr(gradcheck, "_KINK_MARGIN", float("inf"))
        assert_fails_closed(["losscheck", "--losses", "giou_1d", "--points", "2",
                             "--output", str(tmp_path / "r.json")],
                            capsys, "could not sample a non-kink point for giou_1d")
        assert not (tmp_path / "r.json").exists()


class TestFit:
    def test_predictions_parse_and_cover_corpus(self, pipeline):
        preds, errors = read_predictions(pipeline["preds"])
        assert errors == []
        assert [(p.video_id, p.query_id) for p in preds] == [
            ("video00", "q0"),
            ("video01", "q0"),
        ]
        assert all(len(p.prediction) == 24 for p in preds)

    def test_trajectory_sidecar(self, pipeline):
        traj = json.loads(pipeline["traj"].read_text())
        assert traj["steps"] == 150
        group = traj["groups"][0]
        curve = group["trajectory"]
        assert len(curve) == 151
        assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))
        assert group["final_loss"] < group["initial_loss"]

    def test_unlabeled_input_rejected(self, tmp_path):
        raw = tmp_path / "raw.jsonl"
        write_dataset(strip_labels(toy_corpus(1, 10, seed=0)), raw)
        assert main(["fit", "--input", str(raw),
                     "--output", str(tmp_path / "p.jsonl")]) == 1

    def test_record_without_a_foreground_clip_is_named(self, tmp_path, capsys):
        records = toy_corpus(3, 12, seed=0)
        records[1].label = UnifiedLabel(np.zeros(12), np.zeros((12, 2)), np.zeros(12))
        data = tmp_path / "labeled.jsonl"
        write_dataset(records, data)
        assert_fails_closed(["fit", "--input", str(data), "--output", str(tmp_path / "p.jsonl")],
                            capsys, "error: records without a foreground clip to serve as "
                                    "positive: ['video01/q0']")
        assert not (tmp_path / "p.jsonl").exists()

    def test_stalled_steps_named_on_stdout(self, tmp_path):
        # at clip_len 1e300 no step moves the loss by one ulp, so every step stalls
        for clip_len, tail in ((1e300, ", 4 stalled step(s)"), (2.0, "")):
            data = tmp_path / f"labeled_{clip_len:g}.jsonl"
            write_dataset(toy_corpus(2, 12, clip_len, seed=0), data)
            proc = run_child(["fit", "--input", str(data), "--steps", "4",
                              "--trajectory", str(tmp_path / "traj.json"),
                              "--output", str(tmp_path / "p.jsonl")])
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.splitlines()
            assert len(lines) == 1 and lines[0].startswith("fit 2 record(s) at 12 clips: loss ")
            assert lines[0].endswith(tail) and lines[0].count("stalled") == bool(tail)
            traj = json.loads((tmp_path / "traj.json").read_text())
            assert "stalled" not in json.dumps(traj)

    def test_divergence_is_one_error_line(self, tmp_path):
        # at clip_len 1e-300 the gIoU partials overflow and the first gradients are NaN
        data = tmp_path / "labeled.jsonl"
        write_dataset(toy_corpus(2, 12, 1e-300, seed=0), data)
        proc = run_child(["fit", "--input", str(data), "--output", str(tmp_path / "p.jsonl")])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1].startswith("error: "), proc.stderr


class TestDecode:
    def test_moments_report_shape(self, pipeline):
        report = json.loads(pipeline["moments"].read_text())
        assert report["task"] == "moments"
        assert len(report["results"]) == 2
        for result in report["results"]:
            assert result["moments"], "every video should yield candidates"
            for m in result["moments"]:
                assert set(m) == {"start", "end", "score"}
                assert 0.0 <= m["start"] <= m["end"] <= 48.0
            scores = [m["score"] for m in result["moments"]]
            assert scores == sorted(scores, reverse=True)

    def test_highlights_report_shape(self, pipeline):
        report = json.loads(pipeline["highlights"].read_text())
        for result in report["results"]:
            assert len(result["top_clips"]) == 3
            assert len(result["clip_scores"]) == 24

    def test_highlight_scores_computed_once_per_record(self, pipeline, tmp_path, monkeypatch):
        import tgkit.cli
        import tgkit.decode

        calls = []
        real = tgkit.decode.highlight_scores

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(tgkit.cli, "highlight_scores", counting)
        monkeypatch.setattr(tgkit.decode, "highlight_scores", counting)
        out = tmp_path / "h.json"
        assert main(["decode", "--input", str(pipeline["preds"]), "--task", "highlights",
                     "--top-k", "3", "--output", str(out)]) == 0
        assert len(calls) == 2  # one per record
        assert out.read_bytes() == pipeline["highlights"].read_bytes()

    def test_moments_build_objects_for_kept_moments_only(self, pipeline, tmp_path,
                                                         monkeypatch):
        import tgkit.decode

        calls, built = [], []
        real_nms, real_post_init = tgkit.decode.nms_1d, ScoredInterval.__post_init__

        def counting_nms(candidates, *args, **kwargs):
            calls.append(len(candidates))
            return real_nms(candidates, *args, **kwargs)

        def counting_post_init(self):
            built.append(self)
            real_post_init(self)

        monkeypatch.setattr(tgkit.decode, "nms_1d", counting_nms)
        monkeypatch.setattr(ScoredInterval, "__post_init__", counting_post_init)
        out = tmp_path / "m.json"
        assert main(["decode", "--input", str(pipeline["preds"]), "--task", "moments",
                     "--output", str(out)]) == 0
        assert calls == [24, 24]  # one call per record, one candidate per clip
        kept = sum(len(r["moments"]) for r in json.loads(out.read_text())["results"])
        assert len(built) == kept
        assert out.read_bytes() == pipeline["moments"].read_bytes()

    def test_summary_report_shape(self, pipeline):
        report = json.loads(pipeline["summary"].read_text())
        for result in report["results"]:
            assert len(result["selected_clips"]) == 4  # floor(0.2 * 24)
            assert all(0 <= c < 24 for c in result["selected_clips"])
            assert len(result["segment_scores"]) == len(result["change_points"]) + 1

    def test_summary_requires_features(self, pipeline, tmp_path):
        assert main(["decode", "--input", str(pipeline["preds"]), "--task", "summary",
                     "--output", str(tmp_path / "s.json")]) == 1

    def test_summary_feature_length_mismatch(self, pipeline, tmp_path):
        short = toy_similarity(num_videos=2, num_clips=10, seed=0)
        features = tmp_path / "short.txt"
        write_matrices_text(short, features)
        assert main(["decode", "--input", str(pipeline["preds"]), "--task", "summary",
                     "--kts-input", str(features),
                     "--output", str(tmp_path / "s.json")]) == 1

    def test_summary_feature_clip_len_mismatch(self, tmp_path, capsys):
        preds, features = tmp_path / "preds.jsonl", tmp_path / "features.tgmx"
        write_predictions([PredictionRecord("v", "q0", 24.0, 2.0, PredictionSet(
            np.zeros(12), np.ones((12, 2)), np.zeros(12)))], preds)
        write_matrices_binary([MatrixRecord("v", 7.0, ("a", "b"), np.eye(12, 2))], features)
        assert_fails_closed(["decode", "--input", str(preds), "--task", "summary",
                             "--kts-input", str(features), "--output", str(tmp_path / "s.json")],
                            capsys, "--kts-input features for video 'v' cover 12 clips of 7.0 s, "
                            "its predictions 12 clips of 2.0 s")
        assert not (tmp_path / "s.json").exists()

    def test_empty_predictions_rejected(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["decode", "--input", str(empty), "--task", "moments",
                     "--output", str(tmp_path / "m.json")]) == 1


class TestEval:
    def test_moments_report(self, pipeline, tmp_path):
        out = tmp_path / "eval.json"
        assert main(["eval", "--predictions", str(pipeline["moments"]),
                     "--truth", str(pipeline["labeled"]),
                     "--task", "moments", "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["task"] == "moments"
        assert report["num_items"] == 2
        assert set(report["recall"]) == {"0.3", "0.5", "0.7"}
        assert 0.0 <= report["miou"] <= 1.0
        assert 0.0 <= report["average_map"] <= 1.0

    def test_highlights_report(self, pipeline, tmp_path):
        out = tmp_path / "eval.json"
        assert main(["eval", "--predictions", str(pipeline["highlights"]),
                     "--truth", str(pipeline["labeled"]),
                     "--task", "highlights", "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert set(report) == {"task", "num_items", "highlight_map", "top5_map",
                               "top5_protocol", "hit_at_1"}
        assert report["top5_protocol"] == "reconstructed"

    def test_summary_report(self, pipeline, tmp_path):
        out = tmp_path / "eval.json"
        assert main(["eval", "--predictions", str(pipeline["summary"]),
                     "--truth", str(pipeline["truth_summary"]),
                     "--task", "summary", "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["num_items"] == 2
        assert 0.0 <= report["f1"] <= 1.0
        assert len(report["per_item"]) == 2

    def test_task_mismatch_rejected(self, pipeline, tmp_path):
        assert main(["eval", "--predictions", str(pipeline["moments"]),
                     "--truth", str(pipeline["labeled"]),
                     "--task", "highlights",
                     "--output", str(tmp_path / "e.json")]) == 1

    def test_prediction_truth_mismatch(self, pipeline, tmp_path, capsys):
        truth = tmp_path / "truth.jsonl"
        records, _ = read_dataset(pipeline["labeled"])
        write_dataset(records[:1], truth)
        assert main(["eval", "--predictions", str(pipeline["moments"]),
                     "--truth", str(truth),
                     "--task", "moments", "--output", str(tmp_path / "e.json")]) == 1
        err = capsys.readouterr().err
        assert "video01" in err

    def test_duplicate_truth_pairs(self, pipeline, tmp_path):
        lines = pipeline["labeled"].read_bytes().splitlines(keepends=True)
        truth = tmp_path / "truth.jsonl"
        truth.write_bytes(b"".join(lines + lines[:1]))
        assert main(["eval", "--predictions", str(pipeline["moments"]),
                     "--truth", str(truth),
                     "--task", "moments", "--output", str(tmp_path / "e.json")]) == 1

    @pytest.mark.parametrize("edit, fragment", [
        (lambda report: [report], "a decode report is an object holding a 'results' list"),
        (lambda report: {"task": "moments"}, "an object holding a 'results' list"),
        (lambda report: {**report, "results": {}}, "an object holding a 'results' list"),
        (lambda report: {**report, "results": [{"video_id": "video00", "query_id": "q0"}]},
         "results[0] needs a list 'moments'"),
        (lambda report: {**report, "results": [
            {**report["results"][0],
             "moments": [{"start": 0.0, "score": 0.5}, *report["results"][0]["moments"]]},
            *report["results"][1:]]},
         "results[0].moments[0] must be an object with numeric start, end and score"),
        (lambda report: {**report, "results": report["results"] * 2},
         "duplicate (video_id, query_id) pairs in the decode report"),
        (lambda report: {**report, "results": [{**report["results"][0], "video_id": 0}]},
         "results[0] must be an object with string video_id and query_id"),
        (lambda report: {**report, "results": report["results"][:1]},
         "truth records without predictions: [('video01', 'q0')]"),
    ], ids=["list", "no_results", "results_not_list", "no_moments", "moment_without_end",
            "duplicate_result", "id_not_a_string", "truth_without_result"])
    def test_malformed_report_fails_closed(self, pipeline, tmp_path, capsys, edit, fragment):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(json.loads(pipeline["moments"].read_text()))))
        assert_fails_closed(["eval", "--predictions", str(bad), "--truth", str(pipeline["labeled"]),
                             "--task", "moments", "--output", str(tmp_path / "e.json")],
                            capsys, fragment)

    @pytest.mark.parametrize("task", ["moments", "highlights", "summary"])
    def test_result_order_does_not_matter(self, pipeline, tmp_path, task):
        truth = str(pipeline["truth_summary" if task == "summary" else "labeled"])
        report = json.loads(pipeline[task].read_text())
        report["results"].reverse()
        reversed_report = tmp_path / "reversed.json"
        reversed_report.write_text(json.dumps(report))
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for predictions, out in zip((pipeline[task], reversed_report), outs):
            assert main(["eval", "--predictions", str(predictions), "--truth", truth,
                         "--task", task, "--output", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("edit, message", [
        (lambda results: results + results[:1],
         "results[2]: duplicate (video_id, query_id) pairs in the decode report; "
         "results[0] holds the first (video_id 'video00', query_id 'q0')"),
        (lambda results: results[1:] + [{**results[0], "video_id": "video09"}],
         "truth records without predictions: [('video00', 'q0')]; "
         "predictions without truth records: [('video09', 'q0')]"),
    ], ids=["duplicate_names_first_copy", "missing_and_extra"])
    def test_report_identity_errors_name_the_file(self, pipeline, tmp_path, capsys, edit,
                                                  message):
        report = json.loads(pipeline["moments"].read_text())
        report["results"] = edit(report["results"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(report))
        assert_fails_closed(["eval", "--predictions", str(bad), "--truth", str(pipeline["labeled"]),
                             "--task", "moments", "--output", str(tmp_path / "e.json")],
                            capsys, f"error: {bad}: {message}")

    @pytest.mark.parametrize("task, edit, fragment", [
        ("moments", lambda r, t: r["moments"][0].update(start=-1e308, end=1e308),
         "moments[0] from -1e+308 to 1e+308 must satisfy 0 <= start <= end <= 48.0"),
        ("moments", lambda r, t: r["moments"][0].update(start=-50, end=1e9),
         "moments[0] from -50 to 1000000000.0 must satisfy"),
        ("moments", lambda r, t: r["moments"][0].update(start=-2.0, end=2.0),
         "moments[0] from -2.0 to 2.0 must satisfy"),
        ("moments", lambda r, t: r["moments"][0].update(start=0.0, end=t.duration + t.clip_len),
         "moments[0] from 0.0 to 50.0 must satisfy"),
        ("moments", lambda r, t: r["moments"][0].update(start=3.0, end=2.0),
         "moments[0] from 3.0 to 2.0 must satisfy"),
        ("highlights", lambda r, t: r["clip_scores"].pop(),
         "clip_scores covers 23 clips but the timeline has 24"),
        ("highlights", lambda r, t: r["clip_scores"].append(0.5),
         "clip_scores covers 25 clips but the timeline has 24"),
        ("summary", lambda r, t: r["selected_clips"].__setitem__(0, t.num_clips),
         "selected_clips[0] is 24, outside [0, 24)"),
        ("summary", lambda r, t: r["selected_clips"].__setitem__(0, -1),
         "selected_clips[0] is -1, outside [0, 24)"),
    ], ids=["huge_moment", "moment_outside_video", "moment_before_zero", "moment_past_grid_end",
            "start_after_end", "clip_scores_short", "clip_scores_long",
            "selected_clip_at_num_clips", "selected_clip_negative"])
    def test_result_off_the_clip_grid_refused(self, pipeline, tmp_path, task, edit, fragment):
        # each edit breaks one clip-grid rule in results[1], video01/q0's result
        truth = pipeline["truth_summary" if task == "summary" else "labeled"]
        timeline = read_dataset(truth)[0][1].timeline()
        report = json.loads(pipeline[task].read_text())
        edit(report["results"][1], timeline)
        bad, out = tmp_path / "bad.json", tmp_path / "e.json"
        bad.write_text(json.dumps(report))
        proc = run_child(["eval", "--predictions", str(bad), "--truth", str(truth),
                          "--task", task, "--output", str(out)],
                         PYTHONWARNINGS="error::RuntimeWarning")
        assert_one_line_error(proc, f"{bad}: results[1].{fragment}")
        assert proc.stderr.rstrip().endswith("(video_id 'video01', query_id 'q0')")
        assert not out.exists()

    def test_summary_truth_needs_concepts(self, pipeline, tmp_path):
        assert main(["eval", "--predictions", str(pipeline["summary"]),
                     "--truth", str(pipeline["labeled"]),
                     "--task", "summary",
                     "--output", str(tmp_path / "e.json")]) == 1

    @pytest.mark.parametrize("task, refusal", [("highlights", "has no positive clips"),
                                               ("moments", "has no ground truths")],
                             ids=["highlights", "moments"])
    def test_all_background_truth_refused(self, tmp_path, task, refusal):
        # video01's truth is relabelled to [4.2, 4.8], which holds no clip centre
        records = toy_corpus(2, 12)
        data, preds, report = tmp_path / "data.jsonl", tmp_path / "p.jsonl", tmp_path / "r.json"
        write_dataset(records, data)
        assert main(["fit", "--input", str(data), "--output", str(preds),
                     "--steps", "50", "--seed", "0"]) == 0
        assert main(["decode", "--input", str(preds), "--task", task,
                     "--output", str(report)]) == 0
        moment = Interval(4.2, 4.8)
        with pytest.warns(GroundingWarning, match="label is all background"):
            label = from_intervals(records[1].timeline(), [moment])
        records[1] = dataclasses.replace(records[1], annotation=[moment], label=label)
        write_dataset(records, data)
        proc = run_child(["eval", "--predictions", str(report), "--truth", str(data),
                          "--task", task, "--output", str(tmp_path / "e.json")])
        assert_one_line_error(proc, f"item 'video01/q0' {refusal}")

    def test_summary_truth_without_foreground_refused(self, tmp_path):
        # as above, with per-clip concepts for a summary truth file
        records = toy_corpus(2, 12)
        data, preds, report = tmp_path / "data.jsonl", tmp_path / "p.jsonl", tmp_path / "r.json"
        features = tmp_path / "features.txt"
        write_dataset(records, data)
        write_matrices_text(toy_similarity(2, 12), features)
        assert main(["fit", "--input", str(data), "--output", str(preds),
                     "--steps", "50", "--seed", "0"]) == 0
        assert main(["decode", "--input", str(preds), "--task", "summary",
                     "--kts-input", str(features), "--max-clips", "12",
                     "--output", str(report)]) == 0
        moment = Interval(4.2, 4.8)
        with pytest.warns(GroundingWarning, match="label is all background"):
            label = from_intervals(records[1].timeline(), [moment])
        records[1] = dataclasses.replace(records[1], annotation=[moment], label=label)
        for i, rec in enumerate(records):
            records[i] = dataclasses.replace(rec, clip_concepts=tuple(
                frozenset({"moment"} if f else {f"bg{c % 3}"})
                for c, f in enumerate(rec.label.foreground)))
        write_dataset(records, data)
        out = tmp_path / "e.json"
        proc = run_child(["eval", "--predictions", str(report), "--truth", str(data),
                          "--task", "summary", "--output", str(out)])
        assert_one_line_error(proc, "item 'video01/q0' has no foreground clips")
        assert not out.exists()

    @pytest.mark.parametrize("task", ["moments", "highlights", "summary"])
    def test_zero_items_refused(self, tmp_path, capsys, task):
        # pytest's filterwarnings turns a RuntimeWarning into an error here too
        truth, report, out = tmp_path / "truth.jsonl", tmp_path / "r.json", tmp_path / "e.json"
        truth.write_text("")
        report.write_text(json.dumps({"task": task, "results": []}))
        proc = run_main(["eval", "--predictions", str(report), "--truth", str(truth),
                         "--task", task, "--output", str(out)], capsys)
        assert_one_line_error(proc, "")
        assert "over zero items" in proc.stderr
        assert not out.exists()


class TestErrorPaths:
    """Data errors no other test reaches: each is one ``error:`` line and exit 1.

    Two more, in eval's report, are cases of ``TestEval.test_malformed_report_fails_closed``.
    """

    def test_convert_record_without_annotation_or_label(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        write_dataset([dataclasses.replace(toy_corpus(1, 10)[0], annotation=None, label=None)], raw)
        assert_fails_closed(["convert", "--input", str(raw), "--output", str(tmp_path / "o")],
                            capsys, "record video00/q0 has neither annotation nor label")

    def test_fit_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert_fails_closed(["fit", "--input", str(empty), "--output", str(tmp_path / "o")],
                            capsys, "no records in")

    def test_decode_summary_video_without_features(self, pipeline, tmp_path, capsys):
        features = tmp_path / "features.txt"
        write_matrices_text(toy_similarity(num_videos=1, num_clips=24, seed=0), features)
        assert_fails_closed(["decode", "--input", str(pipeline["preds"]), "--task", "summary",
                             "--kts-input", str(features), "--output", str(tmp_path / "o")],
                            capsys, "--kts-input has no features for video 'video01'")

    def test_eval_truth_without_labels(self, pipeline, tmp_path, capsys):
        assert_fails_closed(["eval", "--predictions", str(pipeline["moments"]),
                             "--truth", str(pipeline["raw"]), "--task", "moments",
                             "--output", str(tmp_path / "o")],
                            capsys, "truth records without labels: ['video00/q0', 'video01/q0']")

    def test_zero_clip_len(self, tmp_path, capsys):
        obj = dataset_record_to_obj(toy_corpus(1, 10)[0])
        obj["clip_len"] = 0
        raw = tmp_path / "raw.jsonl"
        raw.write_text(json.dumps(obj) + "\n")
        assert_fails_closed(["convert", "--input", str(raw), "--output", str(tmp_path / "o")],
                            capsys, "raw.jsonl:1: clip_len must be positive, got 0.0")


def tgmx_with_repeat(path, values_a, values_b):
    """A binary container holding video 'v' twice, which no writer writes."""
    bodies = []
    for values in (values_a, values_b):
        one = path.with_name("one.tgmx")
        write_matrices_binary([MatrixRecord("v", 1.0, ("a", "b"), values)], one)
        bodies.append(one.read_bytes()[12:])  # after the magic, version and count
    path.write_bytes(MATRIX_MAGIC + struct.pack("<II", 1, 2) + b"".join(bodies))
    return path


def with_first_line_repeated(source, path):
    """``source``'s lines with its first line appended again, as a new file."""
    path.write_bytes(source.read_bytes() + source.read_bytes().splitlines(keepends=True)[0])
    return path


class TestRecordIdentity:
    """A repeated (video_id, query_id), or matrix video_id, is one ``error:`` line and exit 1."""

    def test_teacher_refuses_a_repeated_video(self, tmp_path):
        matrices = tgmx_with_repeat(tmp_path / "sim.tgmx", np.full((12, 2), 0.5),
                                    np.full((20, 2), 0.5))
        proc = run_child(["teacher", "--input", str(matrices), "--top-k", "1",
                          "--output", str(tmp_path / "labeled.jsonl")])
        assert_one_line_error(proc, f"{matrices}: video id 'v' appears more than once")

    @pytest.mark.parametrize("block_last", [True, False])
    def test_summary_decode_refuses_a_repeated_video(self, tmp_path, block_last):
        flat = np.zeros((12, 2))
        block = np.repeat([[1.0, 0.0], [0.0, 1.0]], 6, axis=0)
        matrices = tgmx_with_repeat(tmp_path / "features.tgmx",
                                    *((flat, block) if block_last else (block, flat)))
        preds = tmp_path / "preds.jsonl"
        write_predictions([PredictionRecord("v", "q0", 12.0, 1.0, PredictionSet(
            np.zeros(12), np.ones((12, 2)), np.zeros(12)))], preds)
        proc = run_child(["decode", "--input", str(preds), "--task", "summary",
                          "--kts-input", str(matrices), "--output", str(tmp_path / "s.json")])
        assert_one_line_error(proc, f"{matrices}: video id 'v' appears more than once")

    @pytest.mark.parametrize("command,source", [
        ("convert", "raw"), ("fit", "labeled"), ("decode", "preds")])
    def test_repeated_line_refused(self, pipeline, tmp_path, command, source):
        data = with_first_line_repeated(pipeline[source], tmp_path / "in.jsonl")
        extra = ["--task", "moments"] if command == "decode" else []
        proc = run_child([command, "--input", str(data), *extra,
                          "--output", str(tmp_path / "out")])
        assert_one_line_error(proc, f"{data}:3: (video_id, query_id) ('video00', 'q0') "
                                    "repeats line 1")

    def test_convert_skip_keeps_the_first(self, pipeline, tmp_path):
        first = json.loads(pipeline["raw"].read_bytes().splitlines()[0])
        first["query"]["text"] = "a different query"
        data = tmp_path / "in.jsonl"
        data.write_bytes(pipeline["raw"].read_bytes() + json.dumps(first).encode() + b"\n")
        out = tmp_path / "labeled.jsonl"
        proc = run_child(["convert", "--input", str(data), "--on-error", "skip",
                          "--output", str(out)])
        assert proc.returncode == 0
        assert proc.stderr == ("skipped line 3: (video_id, query_id) ('video00', 'q0') "
                               "repeats line 1\n")
        assert out.read_bytes() == pipeline["labeled"].read_bytes()


# each command with its required flags but --output
MINIMAL_ARGV = {
    "convert": ["convert", "--input", "x"],
    "teacher": ["teacher", "--input", "x"],
    "losscheck": ["losscheck"],
    "fit": ["fit", "--input", "x"],
    "decode": ["decode", "--input", "x", "--task", "moments"],
    "eval": ["eval", "--predictions", "x", "--truth", "y", "--task", "moments"],
}


def flag_argv() -> dict:
    """dest -> (a command's MINIMAL_ARGV, the flag that sets it), and decode --top-k per task."""
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    out = {field: ([*MINIMAL_ARGV["decode"][:-1], task], "--top-k")
           for task, field in _TOP_K_FIELDS.items()}
    for command, argv in MINIMAL_ARGV.items():
        for flag, action in commands.choices[command]._option_string_actions.items():
            out.setdefault(action.dest, (argv, flag))
    return out


FLAGS = flag_argv()
# (field, its just-outside value, that value as flag text): each field of test_config's table
# that a flag sets (--mode s_only among them), then text no table value spells
FLAG_VALUES = [(field, value, str(value)) for field, (value, _) in _FEEDS.items()
               if field in FLAGS] + [
    ("fit_steps", 2.5, "2.5"), ("fit_steps", "x", "x"), ("seed", "x", "x"),
    ("on_error", "bad", "bad"),
]


class TestConfigFile:
    """How a --config file and the flags combine: the flag wins where both are given."""

    @pytest.fixture
    def config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "moment_top_k": 1, "highlight_top_k": 2, "recall_k": 2, "seed": 4,
            "gradcheck_points": 2, "gradcheck_tolerance": 1e-3, "fit_steps": 3,
        }))
        return str(path)

    @pytest.mark.parametrize("task, flags, expected", [
        ("moments", [], 1),
        ("moments", ["--top-k", "3"], 3),
        ("highlights", [], 2),
        ("highlights", ["--top-k", "3"], 3),
    ])
    def test_decode_top_k_follows_task(self, pipeline, config, tmp_path, task, flags, expected):
        out = tmp_path / "decoded.json"
        assert main(["decode", "--input", str(pipeline["preds"]), "--task", task,
                     "--config", config, *flags, "--output", str(out)]) == 0
        key = "moments" if task == "moments" else "top_clips"
        for result in json.loads(out.read_text())["results"]:
            assert len(result[key]) == expected

    def test_decode_top_k_refused_for_summary(self, pipeline, tmp_path, capsys):
        # summary decoding ignored it, so a bad value went unchecked
        out = tmp_path / "s.json"
        assert_fails_closed(["decode", "--input", str(pipeline["preds"]), "--task", "summary",
                             "--kts-input", str(pipeline["features"]), "--top-k", "3",
                             "--output", str(out)], capsys,
                            "--top-k does not apply to --task summary")
        assert not out.exists()

    @pytest.mark.parametrize("flags, expected", [([], 2), (["--recall-k", "1"], 1)])
    def test_eval_recall_k(self, pipeline, config, tmp_path, flags, expected):
        out = tmp_path / "eval.json"
        assert main(["eval", "--predictions", str(pipeline["moments"]),
                     "--truth", str(pipeline["labeled"]), "--task", "moments",
                     "--config", config, *flags, "--output", str(out)]) == 0
        assert json.loads(out.read_text())["recall_k"] == expected

    def test_losscheck_mixes_config_and_flags(self, config, tmp_path):
        out = tmp_path / "report.json"
        assert main(["losscheck", "--losses", "smooth_l1", "--config", config,
                     "--points", "1", "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert (report["num_points"], report["tolerance"], report["seed"]) == (1, 1e-3, 4)
        assert report["epsilon"] == 1e-5

    def test_fit_mixes_config_and_flags(self, pipeline, config, tmp_path):
        traj = tmp_path / "traj.json"
        assert main(["fit", "--input", str(pipeline["labeled"]), "--config", config,
                     "--seed", "1", "--trajectory", str(traj),
                     "--output", str(tmp_path / "p.jsonl")]) == 0
        report = json.loads(traj.read_text())
        assert (report["steps"], report["seed"]) == (3, 1)

    @pytest.mark.parametrize("argv", list(MINIMAL_ARGV.values()))
    def test_every_tunable_flag_is_a_field(self, argv):
        # a flag whose dest is neither plumbing nor a field would be dropped silently
        plumbing = {"command", "func", "config", "output", "input", "on_error", "losses",
                    "trajectory", "task", "kts_input", "predictions", "truth", "top_k"}
        args = build_parser().parse_args([*argv, "--output", "o"])
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        assert set(vars(args)) - plumbing <= fields

    @pytest.mark.parametrize("field, thresholds, message", [
        ("recall_iou_thresholds", [0.7, 0.7], "thresholds must not repeat, got (0.7, 0.7)"),
        ("map_iou_thresholds", [0.5, 0.50000001],
         "map_iou_thresholds [0.5, 0.50000001] share report keys ['0.5', '0.5']"),
    ], ids=["repeated", "same_report_key"])
    def test_eval_refuses_thresholds_that_repeat(self, pipeline, tmp_path, capsys, field,
                                                 thresholds, message):
        # recall counted a repeated threshold twice; map_per_threshold kept one of the two
        config, out = tmp_path / "config.json", tmp_path / "eval.json"
        config.write_text(json.dumps({field: thresholds}))
        proc = run_main(["eval", "--predictions", str(pipeline["moments"]),
                         "--truth", str(pipeline["labeled"]), "--task", "moments",
                         "--config", str(config), "--output", str(out)], capsys)
        assert_one_line_error(proc, message)
        assert proc.stderr == f"error: {message}\n" and not out.exists()

    @pytest.mark.parametrize("field, value, text", FLAG_VALUES,
                             ids=[f"{f}={t}" for f, _, t in FLAG_VALUES])
    def test_flag_refused_as_config_refuses_it(self, tmp_path, capsys, field, value, text):
        # argparse used to refuse a wrong type or choice itself, with its usage and exit 2
        argv, flag = FLAGS[field]
        out = str(tmp_path / "out")
        proc = run_main([*argv, flag, text, "--output", out], capsys)
        if field == "on_error":  # no RunConfig field: read_dataset owns the rule
            with pytest.raises(ValueError) as refusal:
                read_dataset(tmp_path / "x", on_error=value)
            expected = f"error: {refusal.value}\n"
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({field: value}))
            expected = run_main([*argv, "--config", str(config), "--output", out], capsys).stderr
        assert_one_line_error(proc, f"{field} must ")
        assert proc.stderr == expected

    def test_malformed_config_is_one_line_error(self, pipeline, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"fit_steps": "10"}))
        proc = run_child(["fit", "--input", str(pipeline["labeled"]), "--config", str(bad),
                          "--output", str(tmp_path / "p.jsonl")])
        assert_one_line_error(proc, "fit_steps must be an integer")

    def test_flags_get_the_config_checks(self, tmp_path):
        proc = run_child(["losscheck", "--losses", "smooth_l1", "--points", "0",
                          "--output", str(tmp_path / "r.json")])
        assert_one_line_error(proc, "gradcheck_points must be >= 1")
        assert not (tmp_path / "r.json").exists()

    def test_no_use_saliency_overrides_config(self, pipeline, tmp_path):
        config = tmp_path / "saliency.json"
        config.write_text(json.dumps({"moment_use_saliency": True}))
        boosted, plain = tmp_path / "boosted.json", tmp_path / "plain.json"
        argv = ["decode", "--input", str(pipeline["preds"]), "--task", "moments",
                "--config", str(config)]
        assert main([*argv, "--output", str(boosted)]) == 0
        assert main([*argv, "--no-use-saliency", "--output", str(plain)]) == 0
        assert plain.read_bytes() == pipeline["moments"].read_bytes()
        assert boosted.read_bytes() != plain.read_bytes()

    def test_parser_is_built_once_and_keeps_no_state(self, pipeline, tmp_path):
        # the second call passes neither flag, so it must see the defaults again
        argv = ["decode", "--input", str(pipeline["preds"]), "--task", "moments"]
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert main([*argv, "--iou-threshold", "0.3", "--use-saliency",
                     "--output", str(first)]) == 0
        assert main([*argv, "--output", str(second)]) == 0
        assert first.read_bytes() != second.read_bytes()
        assert second.read_bytes() == pipeline["moments"].read_bytes()
        args = build_parser().parse_args([*argv, "--output", "o"])
        assert args.nms_iou_threshold is None and args.moment_use_saliency is None
        assert build_parser() is build_parser()

    def test_bin_width_checked_on_interval_only_data(self, tmp_path):
        raw = tmp_path / "raw.jsonl"
        write_dataset(strip_labels(toy_corpus(1, 10, seed=0)), raw)
        proc = run_child(["convert", "--input", str(raw), "--bin-width", "0",
                          "--output", str(tmp_path / "out.jsonl")])
        assert_one_line_error(proc, "curve_bin_width must lie in (0, 1]")


class TestClipLimit:
    """A record whose duration / clip_len exceeds core.MAX_CLIPS is one error line."""

    @pytest.mark.parametrize("command", ["convert", "fit", "decode", "eval"])
    def test_huge_clip_count_fails_closed(self, pipeline, tmp_path, command):
        def huge(path):
            lines = []
            for line in path.read_text().splitlines():
                obj = json.loads(line)
                obj["duration"], obj["clip_len"] = 1e12, 1.0
                lines.append(json.dumps(obj))
            out = tmp_path / path.name
            out.write_text("\n".join(lines) + "\n")
            return str(out)

        out = str(tmp_path / "out")
        argv = {
            "convert": ["convert", "--input", huge(pipeline["raw"]), "--output", out],
            "fit": ["fit", "--input", huge(pipeline["labeled"]), "--steps", "1", "--output", out],
            "decode": ["decode", "--input", huge(pipeline["preds"]), "--task", "moments",
                       "--output", out],
            "eval": ["eval", "--predictions", str(pipeline["moments"]),
                     "--truth", huge(pipeline["labeled"]), "--task", "moments", "--output", out],
        }[command]
        proc = run_child(argv)
        assert_one_line_error(proc, "")
        assert "1000000000000 clips exceed the limit of 10000000" in proc.stderr


class TestArrayEntries:
    """A per-clip array entry that is no finite number is one error line naming the field."""

    CASES = {
        "ragged_offsets": ("offsets", [0.0], "offsets must be an array of numbers"),
        "dict_entry": ("saliency", {"a": 1}, "saliency must be an array of numbers"),
        "null_entry": ("saliency", None, "saliency must be finite"),
        "string_entry": ("saliency", "0.5", "saliency must be an array of numbers"),
    }

    @staticmethod
    def with_entry(source, path, key, value):
        """``source`` with entry 0 of its first line's ``key`` array (its label's, if any) set."""
        lines = source.read_text().splitlines()
        obj = json.loads(lines[0])
        (obj["label"] if "label" in obj else obj)[key][0] = value
        path.write_text("\n".join([json.dumps(obj), *lines[1:]]) + "\n")
        return str(path)

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("command", ["convert", "fit", "decode", "eval"])
    def test_one_error_line(self, pipeline, tmp_path, capsys, command, case):
        key, value, message = self.CASES[case]
        source = pipeline["preds" if command == "decode" else "labeled"]
        bad = self.with_entry(source, tmp_path / source.name, key, value)
        out = str(tmp_path / "out")
        argv = {
            "convert": ["convert", "--input", bad, "--output", out],
            "fit": ["fit", "--input", bad, "--steps", "1", "--output", out],
            "decode": ["decode", "--input", bad, "--task", "moments", "--output", out],
            "eval": ["eval", "--predictions", str(pipeline["moments"]), "--truth", bad,
                     "--task", "moments", "--output", out],
        }[command]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {bad}:1: {message}"]

    @pytest.mark.parametrize("case", CASES)
    def test_convert_skips_the_line(self, pipeline, tmp_path, capsys, case):
        key, value, message = self.CASES[case]
        bad = self.with_entry(pipeline["labeled"], tmp_path / "labeled.jsonl", key, value)
        out = tmp_path / "out.jsonl"
        assert main(["convert", "--input", bad, "--on-error", "skip", "--output", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [f"skipped line 1: {message}"]
        kept, _ = read_dataset(out)
        assert len(kept) == len(read_dataset(pipeline["labeled"])[0]) - 1


class TestFractionalDuration:
    """A declared duration that passes the clip grid by a partial clip (Charades-STA style)."""

    def raw_line(self, tmp_path, source_kind, annotation):
        obj = dataset_record_to_obj(toy_corpus(1, 10, seed=0)[0])
        obj.update(duration=30.96, clip_len=2.0, source_kind=source_kind,
                   annotation=annotation, label=None)
        raw = tmp_path / "raw.jsonl"
        raw.write_text(json.dumps(obj) + "\n")
        return str(raw)

    @pytest.mark.parametrize("kind,annotation", [
        ("interval", {"intervals": [[24, 30.96]]}),
        ("point", {"points": [30.5]}),
    ])
    def test_converts_with_one_warning(self, tmp_path, kind, annotation):
        out = tmp_path / "out.jsonl"
        proc = run_child(["convert", "--input", self.raw_line(tmp_path, kind, annotation),
                          "--output", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.count("GroundingWarning") == 1
        assert "passes the clip grid's end 30.0; clipped to it" in proc.stderr
        (rec,) = read_dataset(out)[0]
        assert rec.duration == 30.96 and len(rec.label) == 15
        assert rec.label.foreground[-1] == 1

    @pytest.mark.parametrize("kind,annotation", [
        ("interval", {"intervals": [[24, 31]]}),
        ("point", {"points": [31]}),
    ])
    def test_past_declared_duration_fails_closed(self, tmp_path, kind, annotation):
        proc = run_child(["convert", "--input", self.raw_line(tmp_path, kind, annotation),
                          "--output", str(tmp_path / "out.jsonl")])
        assert_one_line_error(proc, "")
        assert "30.96" in proc.stderr


class TestNestedJson:
    """A line of 100 000 nested brackets is one error line, not a RecursionError."""

    @pytest.mark.parametrize("command", ["convert", "eval", "config"])
    def test_deep_nesting_fails_closed(self, pipeline, tmp_path, command):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "\n")
        out = str(tmp_path / "out")
        argv = {
            "convert": ["convert", "--input", str(deep), "--output", out],
            "eval": ["eval", "--predictions", str(deep), "--truth", str(pipeline["labeled"]),
                     "--task", "moments", "--output", out],
            "config": ["decode", "--input", str(pipeline["preds"]), "--task", "moments",
                       "--config", str(deep), "--output", out],
        }[command]
        proc = run_child(argv)
        assert_one_line_error(proc, "")
        assert "nested too deeply" in proc.stderr


class TestThreadEnv:
    def run_small(self, tmp_path):
        return main(["losscheck", "--losses", "smooth_l1", "--points", "2",
                     "--output", str(tmp_path / "r.json")])

    def test_valid_value_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TGKIT_THREADS", "2")
        assert self.run_small(tmp_path) == 0

    def test_non_numeric_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TGKIT_THREADS", "abc")
        assert self.run_small(tmp_path) == 1

    def test_zero_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TGKIT_THREADS", "0")
        assert self.run_small(tmp_path) == 1

    @pytest.mark.parametrize("value", ["0", "abc"])
    def test_bad_value_is_one_line_error(self, tmp_path, value):
        proc = run_child(["losscheck", "--losses", "smooth_l1", "--points", "2",
                          "--output", str(tmp_path / "r.json")], TGKIT_THREADS=value)
        assert_one_line_error(proc, "TGKIT_THREADS must be a positive integer")

    @pytest.mark.parametrize("value, pinned", [("3", "3"), ("0", None), ("abc", None)])
    def test_import_pins_valid_and_ignores_bad_value(self, value, pinned):
        env = {k: v for k, v in os.environ.items() if k != "OMP_NUM_THREADS"}
        env["TGKIT_THREADS"] = value
        proc = subprocess.run(
            [sys.executable, "-c", "import os, tgkit; print(os.environ.get('OMP_NUM_THREADS'))"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str(pinned)


class TestUsageErrors:
    """argparse's refusals: its usage and exit 2."""

    @pytest.mark.parametrize("argv", [
        ["frobnicate"],
        ["convert", "--output", "x.jsonl"],
        ["fit", "--input", "x", "--output", "o", "--stepz", "3"],
        ["decode", "--input", "x", "--output", "o", "--task", "bad"],
    ], ids=["unknown_command", "missing_required_flag", "unknown_flag", "task_not_in_tasks"])
    def test_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


# runs the CLI with its file-size limit (RLIMIT_FSIZE) set to argv[1] bytes
_CAPPED_CLI = """
import resource, sys
from tgkit.cli import main
_, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
resource.setrlimit(resource.RLIMIT_FSIZE, (int(sys.argv[1]), hard))
sys.exit(main(sys.argv[2:]))
"""


class TestOutputFiles:
    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
    def test_dev_null_output(self):
        proc = run_child(["losscheck", "--points", "1", "--output", "/dev/null"])
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr

    def test_failed_rewrite_leaves_an_empty_file(self, pipeline, tmp_path):
        # an in-place write cut short would leave new bytes followed by old ones
        pytest.importorskip("resource")
        argv = ["convert", "--input", str(pipeline["raw"])]
        fresh, out = tmp_path / "fresh.jsonl", tmp_path / "out.jsonl"
        assert main([*argv, "--output", str(fresh)]) == 0
        size = fresh.stat().st_size
        out.write_bytes(b"\n" * (2 * size))
        proc = subprocess.run([sys.executable, "-c", _CAPPED_CLI, str(size // 2), *argv,
                               "--output", str(out)], capture_output=True, text=True)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: [Errno {errno.EFBIG}]"), lines
        assert str(out) in lines[0]
        assert out.stat().st_size == 0
