"""scripts/bench_pairs.py's summary of synthetic runs; no benchmark runs and no subprocess."""
import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = {"chain_s": {"name": "chain_s", "better": "lower", "bound": 0.25},
              "clips_per_s": {"name": "clips_per_s", "better": "higher", "bound": 0.25}}


def runs(chain_s: list) -> list:
    """One run per value, its clips_per_s the inverse of its chain_s."""
    return [{"tree": "a", "failed": 0, "attempted": 3,
             "metrics": {"chain_s": {"unit": "s", "value": c},
                         "clips_per_s": {"unit": "clips/s", "value": 1 / c}}} for c in chain_s]


@pytest.mark.parametrize("parent, change, expect", [
    # a steady parent: the bound alone decides
    ([1.0, 1.0, 1.01, 0.99, 1.0], [1.2, 1.2, 1.21, 1.19, 1.2], "within bound"),
    ([1.0, 1.0, 1.01, 0.99, 1.0], [1.4, 1.4, 1.41, 1.39, 1.4], "worse beyond bound"),
    # the parent's quartiles 0.9-1.3 are 36% of its median, wider than the bound
    ([0.8, 0.9, 1.1, 1.3, 1.4], [0.8, 0.9, 1.1, 1.3, 1.4], "unresolved"),
    ([0.8, 0.9, 1.1, 1.3, 1.4], [1.6, 1.7, 1.8, 1.9, 2.0], "unresolved"),
    # ... unless every change run beats every parent run
    ([0.8, 0.9, 1.1, 1.3, 1.4], [0.5, 0.6, 0.6, 0.7, 0.7], "within bound"),
], ids=["steady_within", "steady_worse", "spread_same", "spread_worse", "spread_all_better"])
def test_verdict_per_metric(parent, change, expect, capsys):
    rows = bench_pairs.summarise("w", {"parent": runs(parent), "change": runs(change)},
                                 END_TO_END)
    assert [(r["metric"], r["verdict"]) for r in rows] == [("chain_s", expect),
                                                            ("clips_per_s", expect)]
    lines = capsys.readouterr().out.splitlines()
    assert all(line.endswith(f"  {expect} (25%)") for line in lines[1:3])


def test_one_pair_is_never_unresolved(capsys):
    rows = bench_pairs.summarise("w", {"parent": runs([1.0]), "change": runs([0.5])}, END_TO_END)
    assert [(r["verdict"], r["claim"]) for r in rows] == [("within bound", False)] * 2


def test_run_records_the_child_cpu_time(tmp_path, monkeypatch, capsys):
    line = '{"correct": true, "failed": 0, "attempted": 3, "metrics": {}}'
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: subprocess.CompletedProcess(
        a[0], 0, stdout=line + "\n", stderr=""))
    readings = iter([10.0, 12.5, 12.5, 13.0])  # CPU seconds before and after each run
    monkeypatch.setattr(bench_pairs, "child_cpu_s", lambda: next(readings))
    parent = bench_pairs.run_once(tmp_path, "w", 1.0, 0)
    change = bench_pairs.run_once(tmp_path, "w", 1.0, 0)
    assert parent["metrics"]["run_cpu_s"] == {"unit": "s", "value": 2.5}
    assert change["metrics"]["run_cpu_s"]["value"] == 0.5
    # printed beside the wall-time rows, with no verdict: it is no end-to-end metric
    (row,) = bench_pairs.summarise("w", {"parent": [parent], "change": [change]}, END_TO_END)
    assert row["median"] == {"parent": 2.5, "change": 0.5} and "verdict" not in row
    assert "run_cpu_s    s        parent 2.5 (2.5-2.5)  change 0.5 (0.5-0.5)  -80.0%" in (
        capsys.readouterr().out)
