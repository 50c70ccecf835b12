"""End-to-end properties of the CLI chain, run in process through ``cli.main``.

pytest's settings make a ``RuntimeWarning`` an error here, as everywhere.
"""
import dataclasses
import json

import numpy as np
import pytest

from tgkit.cli import main
from tgkit.core import ClipTimeline, Interval, PredictionSet
from tgkit.formats import (PredictionRecord, write_dataset, write_matrices_binary,
                           write_predictions)
from tgkit.labels import from_intervals
from tgkit.synth import toy_corpus, toy_similarity

NUM_VIDEOS, NUM_CLIPS = 4, 12

# convert, a short fit, then decode and eval for every task; the JSONL files
# each command reads, and the files it writes
CHAIN = [
    (["convert", "--input", "{raw.jsonl}", "--output", "labeled.jsonl"], ["labeled.jsonl"]),
    (["fit", "--input", "{labeled.jsonl}", "--steps", "30", "--seed", "0",
      "--trajectory", "trajectory.json", "--output", "preds.jsonl"],
     ["trajectory.json", "preds.jsonl"]),
    *[(["decode", "--input", "{preds.jsonl}", "--task", task,
        *(["--kts-input", "features.tgmx"] if task == "summary" else []),
        "--output", f"decoded_{task}.json"], [f"decoded_{task}.json"])
      for task in ("moments", "highlights", "summary")],
    *[(["eval", "--task", task, "--predictions", f"decoded_{task}.json",
        "--truth", "{labeled.jsonl}", "--output", f"eval_{task}.json"], [f"eval_{task}.json"])
      for task in ("moments", "highlights", "summary")],
]


def write_inputs(directory):
    """Raw interval records, one video with a second query, each clip with a concept set."""
    records = toy_corpus(NUM_VIDEOS, NUM_CLIPS, 2.0, seed=4)
    records.append(dataclasses.replace(records[1], query_id="q1"))
    for v, record in enumerate(records):
        record.label = None
        record.clip_concepts = tuple(frozenset({f"c{(i // 3 + v) % 4}"})
                                     for i in range(NUM_CLIPS))
    write_dataset(records, directory / "raw.jsonl")
    write_matrices_binary(toy_similarity(NUM_VIDEOS, NUM_CLIPS, seed=4),
                          directory / "features.tgmx")


def run_chain(directory, monkeypatch, capsys, rng=None):
    """Run ``CHAIN`` inside ``directory``; returns its output bytes and each command's stdout.

    With ``rng``, every JSONL file a command reads is first copied with its
    lines in a random order, and the command reads the copy.
    """
    monkeypatch.chdir(directory)

    def jsonl_input(name):
        if rng is None:
            return name
        lines = (directory / name).read_bytes().splitlines(keepends=True)
        order = rng.permutation(len(lines))
        assert (order != np.arange(len(lines))).any()
        shuffled = f"shuffled_{name}"
        (directory / shuffled).write_bytes(b"".join(lines[i] for i in order))
        return shuffled

    outputs, stdout = {}, []
    for argv, written in CHAIN:
        argv = [jsonl_input(a[1:-1]) if a.startswith("{") else a for a in argv]
        assert main(argv) == 0, argv
        out, err = capsys.readouterr()
        assert err == ""
        stdout.append(out)
        outputs.update({name: (directory / name).read_bytes() for name in written})
    return outputs, stdout


def test_record_order_does_not_change_any_output(tmp_path, monkeypatch, capsys):
    runs = []
    for name, rng in (("ordered", None), ("shuffled", np.random.default_rng(0))):
        (tmp_path / name).mkdir()
        write_inputs(tmp_path / name)
        runs.append(run_chain(tmp_path / name, monkeypatch, capsys, rng))
    (ordered, ordered_stdout), (shuffled, shuffled_stdout) = runs
    assert list(shuffled) == list(ordered)
    for name in ordered:
        assert shuffled[name] == ordered[name], name
    assert shuffled_stdout == ordered_stdout


def separate_moments(seed):
    """Four 120-clip videos, each with 3-6 moments, no two touching."""
    rng = np.random.default_rng(seed)
    timeline = ClipTimeline(120, 2.0)
    records = toy_corpus(4, 120, 2.0, seed=seed)
    for record in records:
        slot = 120 // int(rng.integers(3, 7))
        record.annotation = [
            Interval(2.0 * first, 2.0 * (first + int(rng.integers(2, slot // 2))))
            for first in range(1, 120 - slot + 2, slot)]
        record.label = from_intervals(timeline, record.annotation)
    return records


@pytest.mark.parametrize("records", [toy_corpus(5, 40, 2.0, seed=3), separate_moments(5)],
                         ids=["one_moment", "separate_moments"])
def test_predictions_from_the_truth_score_perfectly(records, tmp_path, monkeypatch, capsys):
    # each clip predicts its own label: a confident foreground logit and the label's
    # offsets and saliency; decoding recovers the truth, so every metric below is 1
    monkeypatch.chdir(tmp_path)
    write_dataset(records, tmp_path / "truth.jsonl")
    write_predictions([
        PredictionRecord(r.video_id, r.query_id, r.duration, r.clip_len, PredictionSet(
            np.where(r.label.foreground == 1, 20.0, -20.0), r.label.offsets, r.label.saliency))
        for r in records], tmp_path / "preds.jsonl")
    reports = {}
    for task in ("moments", "highlights"):
        assert main(["decode", "--input", "preds.jsonl", "--task", task,
                     "--output", f"decoded_{task}.json"]) == 0
        assert main(["eval", "--task", task, "--predictions", f"decoded_{task}.json",
                     "--truth", "truth.jsonl", "--output", f"eval_{task}.json"]) == 0
        assert capsys.readouterr().err == ""
        reports[task] = json.loads((tmp_path / f"eval_{task}.json").read_text())
    moments, highlights = reports["moments"], reports["highlights"]
    assert moments["recall_k"] == 1
    assert moments["recall"] == {"0.3": 1.0, "0.5": 1.0, "0.7": 1.0}
    assert moments["miou"] == moments["average_map"] == 1.0
    assert highlights["hit_at_1"] == highlights["highlight_map"] == 1.0
