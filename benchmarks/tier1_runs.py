"""Paired runs of the Tier-1 test suite in a parent and a change checkout.

Runs the Tier-1 command of ROADMAP.md with ``--durations=15`` in each
checkout, with ``PYTHONPATH=<checkout>/src``, ``--pairs`` times, the side
that runs first alternating as in ``paired_runs.py``.  Each run records
its wall time, pytest's passed, failed, skipped and error counts and the
slowest durations.  The report starts with the header of
``paired_runs.py``, then gives each side's median and quartiles of the
wall time, the pairs the change won, and each side's worst counts and the
median of every test among the slowest.

Usage (from the repository root):

    python3 benchmarks/tier1_runs.py --parent DIR --change DIR \
        --pairs 5 --out BENCH_tier1.json
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

from paired_runs import SIDES, alternate, header, pair_count, summary

PYTEST = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=15"]
COUNT = re.compile(r"(\d+) (passed|failed|skipped|errors?)\b")
DURATION = re.compile(r"^(\d+(?:\.\d+)?)s (call|setup|teardown) +(\S.*)$", re.M)


def run_once(checkout, pair, side):
    """One Tier-1 run: wall time, outcome counts and slowest durations."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *PYTEST], cwd=checkout, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - t0
    last = proc.stdout.rstrip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {"passed": 0, "failed": 0, "skipped": 0, "errors": 0}
    for number, outcome in COUNT.findall(last):
        counts["errors" if outcome.startswith("error") else outcome] += int(number)
    print(pair, side, round(wall, 3), last, file=sys.stderr)
    return {
        "wall_s": round(wall, 3),
        "exit_code": proc.returncode,
        **counts,
        "summary": last,
        "durations": [{"s": float(s), "when": when, "test": test}
                      for s, when, test in DURATION.findall(proc.stdout)],
    }


def outcomes(side_runs):
    """One side's worst counts, and the median time of each test that was
    among the slowest in any run (a run where it was not among them counts
    as absent, not as zero)."""
    tests = {}
    for r in side_runs:
        for d in r["durations"]:
            tests.setdefault(f"{d['test']} ({d['when']})", []).append(d["s"])
    return {
        "failed": sum(r["failed"] + r["errors"] for r in side_runs),
        "passed": sorted({r["passed"] for r in side_runs}),
        "slowest_median_s": {name: statistics.median(v) for name, v in
                             sorted(tests.items(), key=lambda kv: -statistics.median(kv[1]))},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--pairs", type=pair_count, default=5)
    args = ap.parse_args()
    checkouts = {side: getattr(args, side) for side in SIDES}
    report = header("PYTHONPATH=<side>/src " + " ".join(["python", *PYTEST]), args.pairs,
                    checkouts)
    runs = alternate(args.pairs, lambda p, side: run_once(checkouts[side], p, side))
    report["summary"] = {"wall_s": summary(runs, lambda r: r["wall_s"]),
                         **{side: outcomes([r[side] for r in runs]) for side in SIDES}}
    report["runs"] = runs
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
