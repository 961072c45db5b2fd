"""Start-up time of the keyscan CLI in two checkouts, as a new user pays it.

For each case, every sample runs a fresh interpreter in each checkout,
the side that runs first alternating from sample to sample:

* ``import keyscan.cli``: the seconds the import takes inside the
  interpreter, timed as ``perfbench/run.py`` times ``setup_s``;
* ``right-key``, ``left-key``, ``demazure --engine scan`` and
  ``verify --max-boxes 3 --max-entry 3``: the wall time of a whole
  ``python3 -m keyscan.cli`` process, interpreter start included.

Each side's ``src`` tree is copied without ``__pycache__`` into a
temporary directory, and every run has ``PYTHONDONTWRITEBYTECODE=1``, so
no keyscan byte code is ever cached.  Every run must exit 0, and the
two sides must print the same standard output on every CLI case (the
``elapsed:`` line of ``verify`` aside), or the script exits 1 without a
summary.

Per case it prints each side's median and quartiles in milliseconds and
the samples the change won, and writes them, with every sample, each
side's scanning kernel, the Python version and the core count, to
``--out``.

Usage (from the repository root):

    python3 benchmarks/bench_startup.py --parent DIR --change DIR \
        [--samples 25] [--out BENCH_startup.json]
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")

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


def run_case(src, argv, stdin=""):
    """(seconds, exit code, stdout) of one fresh interpreter run on ``src``."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    proc = subprocess.run(argv, input=stdin, env=env, capture_output=True, text=True,
                          timeout=120)
    seconds = time.perf_counter() - t0
    return seconds, proc.returncode, proc.stdout


def output(stdout):
    """What both sides must agree on: the output, less the wall time
    that ``verify`` prints."""
    return tuple(line for line in stdout.splitlines() if not line.startswith("elapsed:"))


def summarise(samples):
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median_ms": median * 1e3, "q1_ms": q1 * 1e3, "q3_ms": q3 * 1e3,
            "runs_s": samples}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--samples", type=int, default=25, help="runs per side and case, >= 2")
    ap.add_argument("--out", default="BENCH_startup.json")
    args = ap.parse_args(argv)
    if args.samples < 2:
        ap.error("--samples must be at least 2")

    with tempfile.TemporaryDirectory() as tmp:
        srcs = {}
        for side in SIDES:
            srcs[side] = str(Path(tmp) / side)
            shutil.copytree(Path(getattr(args, side)) / "src", srcs[side],
                            ignore=shutil.ignore_patterns("__pycache__"))
        kernel = [sys.executable, "-c",
                  "from keyscan.scanning import kernel_name; print(kernel_name())"]
        kernels = {side: run_case(srcs[side], kernel)[2].strip() for side in SIDES}
        cases = {}
        for name, (cmd, stdin) in CASES.items():
            times = {side: [] for side in SIDES}
            seen = set()
            for i in range(args.samples):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    seconds, rc, stdout = run_case(srcs[side], cmd, stdin)
                    if rc:
                        print(f"error: {name} exited {rc} on the {side} side", file=sys.stderr)
                        return 1
                    if cmd[1] == "-c":
                        seconds = float(stdout)
                    else:
                        seen.add(output(stdout))
                    times[side].append(seconds)
            if len(seen) > 1:
                print(f"error: the sides disagree on {name}: {sorted(seen)}", file=sys.stderr)
                return 1
            row = cases[name] = {side: summarise(times[side]) for side in SIDES}
            row["change_wins"] = sum(c < p for p, c in zip(times["parent"], times["change"]))
            print(f"{name}: " + ", ".join(
                f"{side} {row[side]['median_ms']:.1f} ms "
                f"(IQR {row[side]['q1_ms']:.1f}-{row[side]['q3_ms']:.1f})" for side in SIDES
            ) + f", change won {row['change_wins']}/{args.samples}")

    report = {
        "command": "python3 benchmarks/bench_startup.py --parent DIR --change DIR "
                   f"--samples {args.samples}",
        "samples": args.samples,
        "kernel": kernels,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu_count": os.cpu_count(),
        "cases": cases,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
