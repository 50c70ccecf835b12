#!/usr/bin/env python3
"""Run every benchmark workload, each in its own process, and summarise.

    python3 perfbench/suite.py                       # all workloads, tracing off
    python3 perfbench/suite.py --trace 1             # per-layer tables
    python3 perfbench/suite.py --steadiness --runs 10 --record perfbench/baseline.json

Run from the repository root.  The default mode runs each workload once,
seed 0, and prints its table: every end-to-end metric with its unit,
median, high percentile and sample count.  ``--steadiness`` makes two sets of
``--runs`` runs of the same code (seeds 1..R, then R+1..2R, workloads
interleaved) and reports, for every end-to-end metric of every workload,
each set's median and interquartile spread and whether the two sets agree
within the bounds in BENCHMARK.json.  ``--record`` writes the runs, their
medians and the machine facts to a JSON file.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 600


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def machine_facts() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
        "TGKIT_THREADS": "1",
    }


def run_one(workload: str, seed: int, seconds: int, trace: int, echo: bool) -> dict:
    """One run.py process; returns its result JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT,
    )
    if echo:
        print("\n".join(proc.stdout.splitlines()[:-1]))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    if proc.stderr.strip():
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def steadiness(contract: dict, workloads: list, runs: int, seconds: int):
    """Two sets of runs; returns (report rows, all results, verdict)."""
    bounds = {m["name"]: m for m in contract["end_to_end"]}
    values = {w: [{}, {}] for w in workloads}
    results = {w: [[], []] for w in workloads}
    for half in (0, 1):
        for i in range(runs):
            seed = half * runs + i + 1
            for w in workloads:
                result = run_one(w, seed, seconds, 0, echo=False)
                results[w][half].append({"seed": seed, **result})
                for name, m in result["metrics"].items():
                    values[w][half].setdefault(name, []).append(m["value"])
                print(f"set {half + 1} run {i + 1}/{runs} {w} seed {seed}: "
                      f"chain_s={result['metrics']['chain_s']['value']:.4f} "
                      f"correct={result['correct']}", flush=True)
    ok = True
    rows = []
    for w in workloads:
        for name, spec in bounds.items():
            a, b = values[w][0][name], values[w][1][name]
            ma, mb = stats.median(a), stats.median(b)
            sa, sb = stats.spread(a), stats.spread(b)
            worse = (mb - ma) / ma if spec["better"] == "lower" else (ma - mb) / ma
            bound = spec["bound"]
            agree = worse <= bound and (name == "setup_s" or max(sa, sb) <= bound)
            steady = name == "setup_s" or max(sa, sb) <= bound / 3
            ok = ok and agree
            rows.append({"workload": w, "metric": name, "unit": spec["unit"], "bound": bound,
                         "median_1": ma, "median_2": mb, "spread_1": sa, "spread_2": sb,
                         "second_worse_by": worse, "agree": agree, "below_third": steady})
    return rows, results, ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    contract = load_contract()
    parser.add_argument("--seconds", type=int, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10, help="runs per set (--steadiness)")
    parser.add_argument("--record", default=None, help="write runs and machine facts here")
    args = parser.parse_args()
    workloads = [w["name"] for w in contract["workloads"]]
    facts = machine_facts()
    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))

    if args.steadiness:
        rows, results, ok = steadiness(contract, workloads, args.runs, args.seconds)
        print(f"{'workload':<13} {'metric':<12} {'median 1':>11} {'median 2':>11} "
              f"{'spread 1':>9} {'spread 2':>9} {'worse':>7} {'bound':>6}  verdict")
        for r in rows:
            verdict = "agree" if r["agree"] else "DISAGREE"
            if r["agree"] and not r["below_third"]:
                verdict += " (spread above bound/3)"
            print(f"{r['workload']:<13} {r['metric']:<12} {r['median_1']:>11.5g} "
                  f"{r['median_2']:>11.5g} {r['spread_1']:>9.4f} {r['spread_2']:>9.4f} "
                  f"{r['second_worse_by']:>7.4f} {r['bound']:>6.3g}  {verdict}")
        print("steadiness: " + ("PASS" if ok else "FAIL"))
        record = {"machine": facts, "seconds": args.seconds, "steadiness": rows,
                  "runs": results, "medians": {
                      w: {r["metric"]: r["median_1"] for r in rows if r["workload"] == w}
                      for w in workloads}}
    else:
        record = {"machine": facts, "seconds": args.seconds, "trace": args.trace, "runs": {}}
        for w in workloads:
            result = run_one(w, 0, args.seconds, args.trace, echo=True)
            print(json.dumps(result, sort_keys=True))
            record["runs"][w] = {"seed": 0, **result}
        ok = all(r["correct"] for r in record["runs"].values())
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
