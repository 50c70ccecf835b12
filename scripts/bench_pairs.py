#!/usr/bin/env python3
"""Compare a parent commit with the working tree in alternating benchmark pairs.

    python3 scripts/bench_pairs.py --parent HEAD~1 --pairs 10 --seconds 10

Run from inside the repository.  ``git archive`` of ``--parent`` and a copy
of the working tree's tracked files, as they stand on disk, go into a
temporary directory, as ``a`` and ``b``.  Each pair runs
``python3 perfbench/run.py --workload <w> --seconds <s> --trace 0`` once in
each tree, alternating which side runs first, the parent in the first
pair.  Every second pair the trees swap directory names, so each side runs
under both names and in both orders.  (long_videos ``peak_rss_mb`` can
still differ by about 1.3 MB between two trees: glibc's sliding mmap
threshold decides whether a large buffer stays on the heap, and that moves
with a tree's path and code.  ``MALLOC_MMAP_THRESHOLD_=131072`` in the
environment removes the step.)  Every run has
``PYTHONDONTWRITEBYTECODE=1`` and neither tree holds a ``__pycache__``, so
neither side loads bytecode the other lacks.

Each run also records ``run_cpu_s``: the user plus system CPU seconds of
the run's process tree, from ``getrusage(RUSAGE_CHILDREN)`` before and
after it.  A run repeats the chain for ``--seconds`` after its setup, so
on an idle host it uses about that much CPU whatever its code; a run that
used clearly less than its side's usual share was kept waiting by a busy
host, and its wall times say more about the host than about the code.

For each workload and metric, ``run_cpu_s`` among them, it prints both
sides' medians and quartiles.  For an end-to-end metric it adds the pairs
in which the change was better (ties count for neither), and whether a
gain could be claimed: a win in at least nine tenths of the pairs and a
median difference larger than the distance between the parent's
quartiles.  One pair (``--pairs 1``, a smoke run) never supports a claim.
It also gives each end-to-end metric a regression verdict
against its bound: "worse beyond bound" when the change's median is worse
than the parent's by more than the bound, "unresolved" when the parent's
quartile spread is wider than the bound (relative to its median) and not
every change run beats every parent run, else "within bound".  Which
direction is better, and each bound, come from the change's
``BENCHMARK.json``.  The verdicts do not change the exit code: a run that
fails or reports an incorrect output stops the script with exit code 1.
"""
import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
TREES = ("a", "b")  # the two directory names, which the sides trade every second pair


def git(*args, cwd=None) -> bytes:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True).stdout


def export_parent(ref: str, repo: Path, dest: Path) -> None:
    archive = git("archive", "--format=tar", ref, cwd=repo)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def export_working_tree(repo: Path, dest: Path) -> None:
    for name in git("ls-files", "-z", cwd=repo).decode("utf-8").split("\0"):
        source = repo / name
        if name and source.is_file():  # a tracked file deleted on disk is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def child_cpu_s() -> float:
    """User plus system CPU seconds of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_once(tree: Path, workload: str, seconds: float, seed: int) -> dict:
    for cache in tree.rglob("__pycache__"):
        shutil.rmtree(cache)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cpu_before = child_cpu_s()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", str(seconds),
         "--seed", str(seed), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    cpu = child_cpu_s() - cpu_before
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"error: {workload} run in {tree.name} failed "
                         f"(exit {proc.returncode})")
    result["metrics"]["run_cpu_s"] = {"unit": "s", "value": cpu}
    return {**result, "tree": tree.name}


def swap_names(trees: dict) -> None:
    """Give each side's tree the other's directory name."""
    parent, change = trees["parent"], trees["change"]
    held = parent.with_name(parent.name + ".held")
    parent.rename(held)
    change.rename(parent)
    held.rename(change)
    trees["parent"], trees["change"] = change, parent


def quartiles(values):
    if len(values) < 2:  # one pair: its value is both quartiles
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """Whether ``change`` regresses from ``parent`` by more than the relative ``bound``."""
    sign = -1 if better == "lower" else 1
    med = statistics.median(parent)
    q1, q3 = quartiles(parent)
    if (q3 - q1) / abs(med) > bound and min(sign * c for c in change) <= max(
            sign * p for p in parent):
        return "unresolved"
    if sign * (med - statistics.median(change)) / abs(med) > bound:
        return "worse beyond bound"
    return "within bound"


def summarise(workload: str, runs: dict, end_to_end: dict) -> list:
    """One printed line per metric, and the rows that ``--json`` records.

    ``end_to_end`` maps each end-to-end metric to its ``BENCHMARK.json`` entry.
    """
    rows = []
    print(f"== {workload}: {len(runs['parent'])} pairs")
    for name in sorted(runs["parent"][0]["metrics"]):
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        unit = runs["parent"][0]["metrics"][name]["unit"]
        med = {side: statistics.median(values[side]) for side in SIDES}
        quart = {side: quartiles(values[side]) for side in SIDES}
        row = {"workload": workload, "metric": name, "unit": unit, "values": values,
               "trees": {side: [r["tree"] for r in runs[side]] for side in SIDES},
               "median": med, "quartiles": quart}
        text = (f"  {name:<12} {unit:<8} parent {med['parent']:.4g} "
                f"({quart['parent'][0]:.4g}-{quart['parent'][1]:.4g})  change "
                f"{med['change']:.4g} ({quart['change'][0]:.4g}-{quart['change'][1]:.4g})  "
                f"{100 * (med['change'] / med['parent'] - 1):+.1f}%")
        spec = end_to_end.get(name)
        if spec is not None:
            direction = spec["better"]
            sign = -1 if direction == "lower" else 1
            wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            gain = sign * (med["change"] - med["parent"])
            spread = quart["parent"][1] - quart["parent"][0]
            pairs = len(values["parent"])
            claim = pairs > 1 and wins >= 0.9 * pairs and gain > spread
            row.update(wins=wins, claim=claim, verdict=verdict(
                values["parent"], values["change"], direction, spec["bound"]))
            text += f"  change better in {wins} of {len(values['parent'])}"
            text += "  (gain claimable)" if claim else ""
            text += f"  {row['verdict']} ({spec['bound']:.0%})"
        print(text)
        rows.append(row)
    failed = {side: sum(r["failed"] for r in runs[side]) for side in SIDES}
    attempted = {side: sum(r["attempted"] for r in runs[side]) for side in SIDES}
    print(f"  operations failed: parent {failed['parent']} of {attempted['parent']}, "
          f"change {failed['change']} of {attempted['change']}")
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--workloads", default="train,long_videos")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", default=None, help="also write every run to this file")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    repo = Path(git("rev-parse", "--show-toplevel").decode("utf-8").strip())
    workloads = [w for w in args.workloads.split(",") if w]
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / name for side, name in zip(SIDES, TREES)}
        for tree in trees.values():
            tree.mkdir()
        export_parent(args.parent, repo, trees["parent"])
        export_working_tree(repo, trees["change"])
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        end_to_end = {m["name"]: m for m in spec["end_to_end"]}

        rows = []
        for workload in workloads:
            runs = {side: [] for side in SIDES}
            for pair in range(args.pairs):
                if pair % 2 == 0 and pair > 0:
                    swap_names(trees)
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    runs[side].append(run_once(trees[side], workload, args.seconds, args.seed))
                print(f"  pair {pair + 1}: " + ", ".join(
                    f"{side} in {trees[side].name} chain_s "
                    f"{runs[side][-1]['metrics']['chain_s']['value']:.4f} run_cpu_s "
                    f"{runs[side][-1]['metrics']['run_cpu_s']['value']:.2f}"
                    for side in order), file=sys.stderr, flush=True)
            rows += summarise(workload, runs, end_to_end)
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"parent": args.parent, "seconds": args.seconds, "seed": args.seed, "rows": rows},
            indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
