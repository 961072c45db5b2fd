"""Paired benchmark runs of a parent and a change checkout.

Runs ``perfbench/run.py`` in the two checkouts in turn, ``--pairs`` times
per workload, for the run length ``BENCHMARK.json`` sets.  Each pair has
its own seed.  Every run is a fresh interpreter with
``PYTHONDONTWRITEBYTECODE=1``, so setup is timed as in a new checkout.
The report gives, per workload and end-to-end metric, the median and
quartiles of each side and the number of pairs the change won.

This module is also where ``tier1_runs.py`` and ``bench_startup.py`` get
how two checkouts are compared: the side order, which alternates from
pair to pair (``alternate``); at least two pairs (``pair_count``); a
failed run, which stops the script with exit 1 and one ``error:`` line
(``check``); one summary per measure (``summary``); and the report
header (``header``):
the command, the pair count, each side's commit (``git rev-parse HEAD``,
null when the checkout is not the top of a git work tree; uncommitted
edits are not recorded) and scanning kernel, the Python version and the
core count.

Usage (from the repository root):

    python3 benchmarks/paired_runs.py --parent DIR --change DIR \
        --out BENCH_<label>.json [--workloads W ...] [--pairs 10] \
        [--seed 1000]
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def pair_count(text):
    """An argparse type: a number of pairs, at least 2 so that quartiles exist."""
    pairs = int(text)
    if pairs < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {pairs}")
    return pairs


def alternate(pairs, run):
    """``run(pair, side)`` on both sides for each pair, the side that runs
    first alternating; one ``{"first": side, side: result, ...}`` per pair."""
    runs = []
    for p in range(pairs):
        order = SIDES if p % 2 == 0 else SIDES[::-1]
        runs.append({"first": order[0], **{side: run(p, side) for side in order}})
    return runs


def check(proc, what, pair, side):
    """Stop with exit 1 and one ``error:`` line if the run ``proc`` failed."""
    if proc.returncode:
        last = (proc.stderr.strip().splitlines() or [""])[-1]
        sys.exit(f"error: {what} exited {proc.returncode} in pair {pair} "
                 f"on the {side} side: {last}")


def summary(runs, value, better="lower"):
    """Each side's median, quartiles and ``value(result)`` of every run, and
    the pairs in which the change was better."""
    values = {side: [value(r[side]) for r in runs] for side in SIDES}
    row = {}
    for side in SIDES:
        q1, median, q3 = statistics.quantiles(values[side], n=4)
        row[side] = {"median": median, "q1": q1, "q3": q3, "runs": values[side]}
    sign = 1 if better == "higher" else -1
    row["change_wins"] = sum(
        sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])
    )
    return row


def kernel_name(checkout):
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    code = "from keyscan.scanning import kernel_name; print(kernel_name())"
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.strip()


def commit(checkout):
    """The commit checked out at ``checkout``, or None outside git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=checkout,
                              capture_output=True, text=True)
    except OSError:  # no git program
        return None
    lines = proc.stdout.split()
    if proc.returncode or Path(lines[0]).resolve() != Path(checkout).resolve():
        return None  # not a work tree, or a directory inside another one
    return lines[1]


def header(command, pairs, checkouts):
    """The fields every report of two checkouts starts with."""
    return {
        "command": command,
        "pairs": pairs,
        "commit": {side: commit(checkouts[side]) for side in SIDES},
        "kernel": {side: kernel_name(checkouts[side]) for side in SIDES},
        "python": platform.python_implementation() + " " + platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def run_once(checkout, workload, seed, seconds, pair, side):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    check(proc, f"workload {workload}", pair, side)
    result = json.loads(proc.stdout.splitlines()[-1])
    print(workload, pair, side, result["metrics"]["items_per_s"]["value"], file=sys.stderr)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", nargs="+", help="default: every workload of BENCHMARK.json")
    ap.add_argument("--pairs", type=pair_count, default=10)
    ap.add_argument("--seed", type=int, default=1000)
    args = ap.parse_args()
    checkouts = {side: getattr(args, side) for side in SIDES}
    spec = json.loads((Path(args.change) / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    report = header(f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} "
                    "--trace 0", args.pairs, checkouts)
    report["workloads"] = {}
    for workload in args.workloads or [w["name"] for w in spec["workloads"]]:
        runs = alternate(args.pairs, lambda p, side: run_once(
            checkouts[side], workload, args.seed + p, seconds, p, side))
        report["workloads"][workload] = {
            "seeds": [args.seed + p for p in range(args.pairs)],
            "first": [r["first"] for r in runs],
            "failed": {s: sum(r[s]["failed"] for r in runs) for s in SIDES},
            "attempted": {s: sum(r[s]["attempted"] for r in runs) for s in SIDES},
            "correct": all(r[s]["correct"] for r in runs for s in SIDES),
            "metrics": {
                m["name"]: {"unit": m["unit"], "better": m["better"], **summary(
                    runs, lambda r: r["metrics"][m["name"]]["value"], m["better"])}
                for m in spec["end_to_end"]
            },
        }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
