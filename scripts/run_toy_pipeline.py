#!/usr/bin/env python3
"""Drive the whole CLI pipeline on the toy corpus and print the reports.

Equivalent to running by hand:
    scripts/make_toy_corpus.py -> tgkit convert -> tgkit fit -> tgkit decode -> tgkit eval
for the moments and highlights tasks, plus a gradient audit, pseudo-labels
from concept similarity matrices (tgkit teacher) and a summary decode over
those matrices.  Each step runs under this interpreter, tgkit's as
``python -m tgkit``, so an uninstalled checkout works with
``PYTHONPATH=src python scripts/run_toy_pipeline.py``.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

MAKE_TOY_CORPUS = Path(__file__).resolve().with_name("make_toy_corpus.py")


def run(shown: str, command: list, *args) -> None:
    """Run ``command`` with ``args``, echoed as ``$ <shown> <args>``; stop if it fails."""
    args = [str(a) for a in args]
    print(f"$ {shown} " + " ".join(args), flush=True)
    result = subprocess.run([sys.executable, *command, *args])
    if result.returncode != 0:
        sys.exit(result.returncode)


def tgkit(*args) -> None:
    run("tgkit", ["-m", "tgkit"], *args)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--work-dir", default="toy_run", help="scratch directory")
    parser.add_argument("--steps", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)

    run("python scripts/make_toy_corpus.py", [MAKE_TOY_CORPUS],
        "--out-dir", work, "--seed", args.seed)
    raw = work / "raw.jsonl"
    similarity = work / "similarity.tgmx"
    labeled = work / "labeled.jsonl"
    preds = work / "preds.jsonl"
    tgkit("convert", "--input", raw, "--output", labeled)
    tgkit("teacher", "--input", similarity, "--top-k", "5", "--output", work / "teacher.jsonl")
    tgkit("losscheck", "--output", work / "losscheck.json",
          "--points", "25", "--seed", args.seed)
    tgkit("fit", "--input", labeled, "--output", preds,
          "--trajectory", work / "trajectory.json",
          "--steps", args.steps, "--seed", args.seed)
    for task in ("moments", "highlights"):
        decoded = work / f"decoded_{task}.json"
        report = work / f"eval_{task}.json"
        tgkit("decode", "--input", preds, "--task", task, "--output", decoded)
        tgkit("eval", "--task", task, "--predictions", decoded,
              "--truth", labeled, "--output", report)
        print(json.dumps(json.loads(report.read_text()), indent=2))
    tgkit("decode", "--input", preds, "--task", "summary", "--kts-input", similarity,
          "--output", work / "decoded_summary.json")


if __name__ == "__main__":
    main()
