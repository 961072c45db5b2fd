"""Paired runs of the Tier-1 test suite in a parent and a change checkout.

Runs the Tier-1 command of ROADMAP.md with ``--durations=15`` in each
checkout, with ``PYTHONPATH=<checkout>/src``, ``--pairs`` times; the side
that runs first alternates from pair to pair.  Each run records its wall
time, pytest's passed, failed, skipped and error counts and the slowest
durations.  The summary gives each side's median and quartiles of the
wall time and the median of every test among the slowest, plus the
command, each side's scanning kernel, the Python version and the core
count.

Usage (from the repository root):

    python3 benchmarks/tier1_runs.py --parent DIR --change DIR \
        --pairs 5 --out BENCH_tier1.json
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
PYTEST = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=15"]
COUNT = re.compile(r"(\d+) (passed|failed|skipped|errors?)\b")
DURATION = re.compile(r"^(\d+(?:\.\d+)?)s (call|setup|teardown) +(\S.*)$", re.M)


def env_for(checkout):
    return dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"))


def run_once(checkout):
    """One Tier-1 run: wall time, outcome counts and slowest durations."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *PYTEST], cwd=checkout, env=env_for(checkout),
                          capture_output=True, text=True)
    wall = time.perf_counter() - t0
    summary = proc.stdout.rstrip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {"passed": 0, "failed": 0, "skipped": 0, "errors": 0}
    for number, outcome in COUNT.findall(summary):
        counts["errors" if outcome.startswith("error") else outcome] += int(number)
    return {
        "wall_s": round(wall, 3),
        "exit_code": proc.returncode,
        **counts,
        "summary": summary,
        "durations": [{"s": float(s), "when": when, "test": test}
                      for s, when, test in DURATION.findall(proc.stdout)],
    }


def kernel_name(checkout):
    code = "from keyscan.scanning import kernel_name; print(kernel_name())"
    return subprocess.run([sys.executable, "-c", code], env=env_for(checkout),
                          capture_output=True, text=True, check=True).stdout.strip()


def quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs):
    """Per side: wall-time quartiles, the worst counts, and the median
    time of each test that was among the slowest in any run (a run where
    it was not among them counts as absent, not as zero)."""
    out = {}
    for side in SIDES:
        side_runs = [r[side] for r in runs]
        tests = {}
        for r in side_runs:
            for d in r["durations"]:
                tests.setdefault(f"{d['test']} ({d['when']})", []).append(d["s"])
        out[side] = {
            "wall_s": quartiles([r["wall_s"] for r in side_runs]),
            "failed": sum(r["failed"] + r["errors"] for r in side_runs),
            "passed": sorted({r["passed"] for r in side_runs}),
            "slowest_median_s": {name: statistics.median(v) for name, v in
                                 sorted(tests.items(), key=lambda kv: -statistics.median(kv[1]))},
        }
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--pairs", type=int, default=5)
    args = ap.parse_args()
    checkouts = {"parent": args.parent, "change": args.change}
    report = {
        "command": "PYTHONPATH=<side>/src " + " ".join(["python", *PYTEST]),
        "pairs": args.pairs,
        "kernel": {side: kernel_name(path) for side, path in checkouts.items()},
        "python": platform.python_implementation() + " " + platform.python_version(),
        "cpu_count": os.cpu_count(),
    }
    runs = []
    for p in range(args.pairs):
        order = SIDES if p % 2 == 0 else SIDES[::-1]
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_once(checkouts[side])
            print(p, side, pair[side]["wall_s"], pair[side]["summary"], file=sys.stderr)
        runs.append(pair)
    report["summary"] = summarise(runs)
    report["runs"] = runs
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
