#!/usr/bin/env python3
"""Run one tgkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train --seed 0 --seconds 30 --trace 0

Run from the repository root.  The runner generates the workload's inputs
from ``--seed`` (several times, in fresh processes, to time set-up), then
runs the workload's CLI chain in this process through
``tgkit.cli.main(argv)`` over and over for ``--seconds`` seconds: a closed
loop with one client, each command starting when the previous one ended.
Every command's outputs are checked (exit code, record counts, byte
equality with the first pass, workload-specific results).

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates plain and traced passes, prints per-layer metrics plus the
tracing overhead, checks the per-layer counts the workload fixes, and
writes spans and counts to
``.bench_work/trace_<workload>_seed<seed>.json``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  BLAS runs single-threaded (``TGKIT_THREADS=1``).
"""
import time

_T0 = time.perf_counter()  # set-up timing starts before tgkit or numpy load

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = (3, 7)  # at least 3; more while set-up has used under SETUP_BUDGET_S
SETUP_BUDGET_S = 5.0
SETUP_TIMEOUT_S = 150
THREADS = "1"
WORKLOAD_NAMES = ("train", "long_videos")


def _load_tgkit() -> None:
    os.environ["TGKIT_THREADS"] = THREADS
    if not (SRC / "tgkit" / "__init__.py").is_file():
        raise SystemExit(f"error: tgkit sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tgkit  # noqa: F401


# --- set-up ----------------------------------------------------------------


def make_inputs(workload: str, seed: int, out_dir: Path) -> None:
    """Child-process entry: import tgkit, write the inputs, report the time."""
    _load_tgkit()
    from workloads import WORKLOADS

    plan = WORKLOADS[workload](seed, out_dir)
    (out_dir / "plan.json").write_text(json.dumps(plan.to_obj(), sort_keys=True))
    print(json.dumps({"setup_s": time.perf_counter() - _T0}))


def _digests(directory: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


class Outcome:
    """Operation counts and failure messages of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, problems: list, what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAIL {what}: {problem}", file=sys.stderr)


def set_up(workload: str, seed: int, work: Path, outcome: Outcome):
    """Generate the inputs several times; return (times, inputs dir)."""
    times = []
    reference = reference_dir = None
    began = time.perf_counter()
    for k in range(SETUP_REPEATS[1]):
        if k >= SETUP_REPEATS[0] and time.perf_counter() - began > SETUP_BUDGET_S:
            break
        out = work / f"inputs{k}"
        out.mkdir()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--make-inputs", str(out)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        problems = []
        if proc.returncode != 0:
            problems.append(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        else:
            times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
            digests = _digests(out)
            if reference is None:
                reference, reference_dir = digests, out
            elif digests != reference:
                problems.append("same seed wrote different input bytes")
        outcome.record(problems, f"set-up {k}")
        if out != reference_dir:
            shutil.rmtree(out)  # only one copy is used; do not leave it to write back
    if reference is None:
        raise SystemExit("error: the workload's inputs could not be generated")
    return times, reference_dir


# --- the command chain -----------------------------------------------------


def _lookup(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _count_of(path: Path):
    if path.suffix == ".jsonl":
        with open(path, "rb") as handle:
            return sum(1 for line in handle if line.strip())
    obj = json.loads(path.read_text())
    return len(obj["results"]) if "results" in obj else obj.get("num_items")


def _stalled_steps(trajectory: Path) -> int:
    groups = json.loads(trajectory.read_text())["groups"]
    return sum(
        sum(1 for a, b in zip(g["trajectory"], g["trajectory"][1:]) if b == a) for g in groups
    )


def run_command(cli_main, argv: list):
    """Run one CLI command in-process; return (exit code, seconds, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed operation, not a crash
            code = -1
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return code, elapsed, err.getvalue()


def run_pass(plan, cli_main, inputs: Path, out: Path, reference, outcome: Outcome, tracer=None):
    """One pass over the chain.  Returns (stage seconds, output digests)."""
    out.mkdir(exist_ok=True)
    stages = {}
    digests = {}
    for step in plan.steps:
        argv = [a.replace("{in}", str(inputs)).replace("{out}", str(out)) for a in step.argv]
        if tracer is None:
            code, elapsed, err = run_command(cli_main, argv)
        else:
            code, elapsed, err = tracer.call(f"cli.{argv[0]}", run_command, cli_main, argv)
        stages[step.stage] = stages.get(step.stage, 0.0) + elapsed

        # checks, outside the timed region
        problems = []
        target = out / step.output
        if code != 0:
            problems.append(f"exit {code}: {err.strip()[-2000:]}")
        elif not target.is_file():
            problems.append(f"no output {step.output}")
        else:
            digests[step.output] = hashlib.sha256(target.read_bytes()).hexdigest()
            if reference is not None and reference.get(step.output) != digests[step.output]:
                problems.append(f"{step.output} differs from the first pass (same inputs)")
            if step.expect_count is not None:
                got = _count_of(target)
                if got != step.expect_count:
                    problems.append(f"{step.output} has {got} records, expected {step.expect_count}")
            for output, path, want in plan.checks:
                if output == step.output and _lookup(json.loads(target.read_text()), path) != want:
                    problems.append(f"{output}: {'/'.join(map(str, path))} is not {want}")
        if tracer is not None and step.stage == "fit" and code == 0:
            tracer.add("fit.stalled_steps", _stalled_steps(out / "trajectory.json"))
        outcome.record(problems, " ".join(argv[:1] + [a for a in argv if "/" not in a][1:]))
    return stages, digests


# --- metrics ---------------------------------------------------------------

# End-to-end metrics in the JSON line: every workload has them.
END_TO_END_UNITS = {"setup_s": "s", "chain_s": "s", "clips_per_s": "clips/s", "peak_rss_mb": "MB"}
# Stage timings, printed only.  They are not in the JSON line: each workload
# gives some stages too little work to repeat within a bound (train's prep,
# decode and eval; long_videos' losscheck and fit).
STAGES = {"prep_s": "prep", "losscheck_s": "losscheck", "fit_s": "fit",
          "decode_s": "decode", "eval_s": "eval"}


def _print_table(title: str, rows: list) -> None:
    print(f"== {title}")
    for name, unit, text in rows:
        print(f"  {name:<34} {unit:<8} {text}")


def end_to_end(plan, setup_times, passes, outcome, results) -> dict:
    samples = {"setup_s": setup_times, "chain_s": [sum(p.values()) for p in passes]}
    for name, stage in STAGES.items():
        if stage in passes[0]:
            samples[name] = [p[stage] for p in passes]
    rows = [(n, "s", stats.describe(v)) for n, v in samples.items()]
    metrics = {n: stats.median(samples[n]) for n in ("setup_s", "chain_s")}
    metrics["clips_per_s"] = plan.clips / metrics["chain_s"]
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows.append(("clips_per_s", "clips/s", f"{metrics['clips_per_s']:.6g} ({plan.clips} clips)"))
    rows.append(("peak_rss_mb", "MB", f"{metrics['peak_rss_mb']:.6g}"))
    rows.append(("error_rate", "ratio",
                 f"{outcome.failed / max(outcome.attempted, 1):.6g} "
                 f"({outcome.failed} of {outcome.attempted} operations)"))
    for name, value in results.items():
        rows.append((name, "result", f"{value:.10g}"))
    _print_table("end-to-end (tracing off)", rows)
    return {n: {"value": metrics[n], "unit": u} for n, u in END_TO_END_UNITS.items()}


# Per-layer metrics in the JSON line besides the timings (spans.TIMINGS and
# the losses' us per clip-eval): the counts an optimisation may lower.  The
# other counts are printed only.  The workload fixes most of them, and the
# runner checks those against its plan; the rest follow the outputs.
REPORTED_COUNTS = ("losses.evals", "gradcheck.loss_evals", "fit.loss_evals_per_step")


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_eval"):
        return "us"
    return "count" if name in spans.COUNTS or name in spans.MAXIMA else "ratio"


def per_layer(tracer, traced_passes, plain_passes, layer_samples) -> dict:
    """Per-layer table and JSON metrics; ``tracer`` holds the last traced pass."""
    traced = stats.median([sum(p.values()) for p in traced_passes])
    plain = stats.median([sum(p.values()) for p in plain_passes])
    values = {k: stats.median([s[k] for s in layer_samples]) for k in layer_samples[0]}
    rows = []
    for name, value in values.items():
        unit = _layer_unit(name)
        if spans.is_missing(name, tracer.missing):
            text = "missing (wrapped name not found)"
        else:
            text = f"{value:.6g}"
            if unit == "s":
                text += f"  ({100.0 * value / traced:.1f}% of traced chain)"
        rows.append((name, unit, text))
    for command, value in sorted(spans.command_self_times(tracer).items()):
        rows.append((f"cli.self_s[{command[4:]}]", "s", f"{value:.6g}"))
    rows.append(("trace.chain_s", "s", f"{traced:.6g} traced vs {plain:.6g} plain "
                                       f"(n={len(traced_passes)}/{len(plain_passes)})"))
    rows.append(("trace.overhead_s", "s", f"{traced - plain:.6g} "
                                          f"({100.0 * (traced - plain) / plain:.2f}%)"))
    for name in tracer.missing:
        rows.append(("missing", "", name))
    _print_table("per-layer (traced passes)", rows)

    reported = [n for n in values if n in spans.TIMINGS or n.endswith("_eval")]
    reported += REPORTED_COUNTS
    metrics = {n: {"value": values[n], "unit": _layer_unit(n)} for n in reported}
    metrics["trace.chain_s"] = {"value": traced, "unit": "s"}
    metrics["trace.overhead_pct"] = {"value": 100.0 * (traced - plain) / plain, "unit": "%"}
    return metrics


# --- main ------------------------------------------------------------------


def run(args, work: Path) -> dict:
    outcome = Outcome()
    setup_times, inputs = set_up(args.workload, args.seed, work, outcome)
    import tgkit.cli  # main() has put src on the path
    from workloads import Plan

    plan = Plan.from_obj(json.loads((inputs / "plan.json").read_text()))

    # The first pass warms up and writes the reference outputs; it is not timed.
    deadline = time.perf_counter() + args.seconds
    _, reference = run_pass(plan, tgkit.cli.main, inputs, work / "out0", None, outcome)
    plain_passes, traced_passes, layer_samples = [], [], []
    tracer = None
    pass_times = []
    while True:
        begin = time.perf_counter()
        if args.trace and len(plain_passes) > len(traced_passes):
            # wrappers are installed for this pass only, so plain passes run untouched
            with spans.install(spans.Tracer()) as tracer:
                stages, _ = run_pass(plan, tgkit.cli.main, inputs, work / "out", reference,
                                     outcome, tracer)
            traced_passes.append(stages)
            layer_samples.append(spans.layer_metrics(tracer))
            outcome.record([f"{k} is {layer_samples[-1][k]:g}, the plan fixes {v:g}"
                            for k, v in plan.counts.items()
                            if layer_samples[-1][k] != v
                            and not spans.is_missing(k, tracer.missing)], "traced counts")
        else:
            stages, _ = run_pass(plan, tgkit.cli.main, inputs, work / "out", reference, outcome)
            plain_passes.append(stages)
        pass_times.append(time.perf_counter() - begin)
        enough = traced_passes if args.trace else plain_passes
        if enough and time.perf_counter() + stats.median(pass_times) > deadline:
            break

    results = {}
    for name, (output, path) in plan.results.items():
        try:
            results[name] = float(_lookup(json.loads((work / "out0" / output).read_text()), path))
        except (OSError, KeyError, IndexError, ValueError):
            outcome.record([f"result {name} unreadable"], name)

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} TGKIT_THREADS={THREADS} passes={len(plain_passes)}"
          f"+{len(traced_passes)} traced")
    if tracer is None:
        metrics = end_to_end(plan, setup_times, plain_passes, outcome, results)
    else:
        metrics = per_layer(tracer, traced_passes, plain_passes, layer_samples)
        trace_file = WORK / f"trace_{args.workload}_seed{args.seed}.json"
        spans.dump(tracer, trace_file, {"workload": args.workload, "seed": args.seed,
                                        "layers": layer_samples[-1]})
        print(f"spans of the last traced pass written to {trace_file}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-inputs", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.make_inputs:
        make_inputs(args.workload, args.seed, Path(args.make_inputs))
        return 0
    _load_tgkit()  # fail early, before any work, when the sources are absent
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=WORK))
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
