"""Paired benchmark runs of a parent and a change checkout.

Runs ``perfbench/run.py`` in the two checkouts in turn, ``--pairs`` times
per workload, for the run length ``BENCHMARK.json`` sets.  Each pair has
its own seed, and the side that runs first alternates from pair to pair.
Every run is a fresh interpreter with ``PYTHONDONTWRITEBYTECODE=1``, so
setup is timed as in a new checkout.
The summary gives, per workload and end-to-end metric, the median and
quartiles of each side and the number of pairs the change won, plus the
command, each side's commit (``git rev-parse HEAD``, null when the checkout
is not the top of a git work tree; uncommitted edits are not recorded),
each side's scanning kernel, the Python version and the core count.

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


def run_once(checkout, workload, seed, seconds):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def kernel_name(checkout):
    env = dict(os.environ, PYTHONPATH=str(Path(checkout) / "src"))
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


def summarise(runs, metrics):
    """Median, quartiles and the change's wins for every metric."""
    out = {}
    for name, spec in metrics.items():
        values = {side: [r[side]["metrics"][name]["value"] for r in runs] for side in SIDES}
        row = {"unit": spec["unit"], "better": spec["better"]}
        for side in SIDES:
            q1, median, q3 = statistics.quantiles(values[side], n=4)
            row[side] = {"median": median, "q1": q1, "q3": q3, "runs": values[side]}
        sign = 1 if spec["better"] == "higher" else -1
        row["change_wins"] = sum(
            sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])
        )
        out[name] = row
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", nargs="+", help="default: every workload of BENCHMARK.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1000)
    args = ap.parse_args()
    checkouts = {"parent": args.parent, "change": args.change}
    spec = json.loads((Path(args.change) / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0",
        "pairs": args.pairs,
        "commit": {side: commit(path) for side, path in checkouts.items()},
        "kernel": {side: kernel_name(path) for side, path in checkouts.items()},
        "python": platform.python_implementation() + " " + platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workloads": {},
    }
    for workload in args.workloads or [w["name"] for w in spec["workloads"]]:
        runs = []
        for p in range(args.pairs):
            seed = args.seed + p
            order = SIDES if p % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(checkouts[side], workload, seed, seconds)
            runs.append(pair)
            print(workload, p, {s: pair[s]["metrics"]["items_per_s"]["value"] for s in SIDES},
                  file=sys.stderr)
        report["workloads"][workload] = {
            "seeds": [r["seed"] for r in runs],
            "first": [r["first"] for r in runs],
            "failed": {s: sum(r[s]["failed"] for r in runs) for s in SIDES},
            "attempted": {s: sum(r[s]["attempted"] for r in runs) for s in SIDES},
            "correct": all(r[s]["correct"] for r in runs for s in SIDES),
            "metrics": summarise(runs, metrics),
        }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
