"""Start-up time of the keyscan CLI in two checkouts, as a new user pays it.

For each case, every sample runs a fresh interpreter in each checkout,
the side that runs first alternating as in ``paired_runs.py``:

* ``import keyscan.cli``: the seconds the import takes inside the
  interpreter, timed as ``perfbench/run.py`` times ``setup_s``;
* ``right-key``, ``left-key``, ``demazure --engine scan`` and
  ``verify --max-boxes 3 --max-entry 3``: the wall time of a whole
  ``python3 -m keyscan.cli`` process, interpreter start included.

Each side's ``src`` tree is copied without ``__pycache__`` into a
temporary directory, and every run has ``PYTHONDONTWRITEBYTECODE=1``, so
no keyscan byte code is ever cached.  Every run must exit 0, and the
two sides must print the same standard output on every CLI case (the
``elapsed:`` line of ``verify`` aside), or the script exits 1 with one
``error:`` line and writes no report.

Per case it prints each side's median and quartiles in milliseconds and
the samples the change won.  It writes them, in seconds and with every
sample, under the header of ``paired_runs.py`` to ``--out``.

Usage (from the repository root):

    python3 benchmarks/bench_startup.py --parent DIR --change DIR \
        [--samples 25] [--out BENCH_startup.json]
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from paired_runs import SIDES, alternate, check, header, pair_count, summary

IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import keyscan.cli; "
    "print(time.perf_counter() - t)"
)

# The paper's example tableau: five columns of lengths 6, 4, 4, 3, 2.
TABLEAU = "1 1 3 4 6\n2 3 5 7 9\n4 5 6 8\n5 7 9\n7\n8\n"

CLI = [sys.executable, "-m", "keyscan.cli"]
CASES = {
    "import keyscan.cli": ([sys.executable, "-c", IMPORT_TIMER], ""),
    "right-key": (CLI + ["right-key"], TABLEAU),
    "left-key": (CLI + ["left-key"], TABLEAU),
    "demazure --engine scan": (
        CLI + ["demazure", "--mu", "3,2,1", "--w", "2,4,1,3", "--n", "4", "--engine", "scan"], ""),
    "verify --max-boxes 3 --max-entry 3": (
        CLI + ["verify", "--max-boxes", "3", "--max-entry", "3"], ""),
}


def output(stdout):
    """What both sides must agree on: the output, less the wall time
    that ``verify`` prints."""
    return tuple(line for line in stdout.splitlines() if not line.startswith("elapsed:"))


def run_case(src, name, pair, side):
    """(seconds, output) of one fresh interpreter run of case ``name`` on ``src``."""
    argv, stdin = CASES[name]
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    proc = subprocess.run(argv, input=stdin, env=env, capture_output=True, text=True,
                          timeout=120)
    seconds = time.perf_counter() - t0
    check(proc, name, pair, side)
    if argv[1] == "-c":
        return float(proc.stdout), ()
    return seconds, output(proc.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--samples", type=pair_count, default=25, help="runs per side and case, >= 2")
    ap.add_argument("--out", default="BENCH_startup.json")
    args = ap.parse_args()
    checkouts = {side: getattr(args, side) for side in SIDES}
    report = header("python3 benchmarks/bench_startup.py --parent DIR --change DIR "
                    f"--samples {args.samples}", args.samples, checkouts)
    report["cases"] = {}
    with tempfile.TemporaryDirectory() as tmp:
        srcs = {side: str(Path(tmp) / side) for side in SIDES}
        for side in SIDES:
            shutil.copytree(Path(checkouts[side]) / "src", srcs[side],
                            ignore=shutil.ignore_patterns("__pycache__"))
        for name in CASES:
            runs = alternate(args.samples, lambda i, side: run_case(srcs[side], name, i, side))
            seen = {r[side][1] for r in runs for side in SIDES}
            if len(seen) > 1:
                sys.exit(f"error: the sides disagree on {name}: {sorted(seen)}")
            row = report["cases"][name] = summary(runs, lambda r: r[0])
            print(f"{name}: " + ", ".join(
                f"{side} {row[side]['median'] * 1e3:.1f} ms "
                f"(IQR {row[side]['q1'] * 1e3:.1f}-{row[side]['q3'] * 1e3:.1f})" for side in SIDES
            ) + f", change won {row['change_wins']}/{args.samples}")
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
