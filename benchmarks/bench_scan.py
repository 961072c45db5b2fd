"""Benchmark the compiled scanning kernel against the pure-Python one.

Generates random semistandard tableaux of a given size and times, on
both kernels, the full right key (every start column of the scanning
tableau) and the full left key (every end column), then the index sets
that ``scanning_tableau`` and ``left_key`` pass: the last column of each
run of equal lengths but the last run, and the first column of each run
but the first run (a tableau with one run makes no call).  Last come
``scanning_tableau`` and ``left_key`` themselves, as the CLI runs them:
each builds its key ``Tableau``, which validates it.  Each case checks
first that the kernels agree; a disagreement exits with an error.  Run
with ``PYTHONPATH`` set to another checkout's ``src``, the script times
that checkout's kernels and wrappers on the same inputs.

The kernels take turns: each repeat times both, in an order that
alternates from repeat to repeat, so a slow spell of the host falls on
both rather than on one.  Each kernel's line gives the median and
quartiles of its repeats; the speedup line gives those of the
pure/compiled ratio within each repeat.

Usage: python3 benchmarks/bench_scan.py [--cols K] [--height H]
       [--tableaux N] [--repeats R >= 2] [--seed S]
"""

import argparse
import random
import statistics
import time

from keyscan import _scan_py

try:
    from keyscan import _scankernel
except ImportError:
    _scankernel = None


def random_tableau_columns(k, height, rng):
    """Columns of a random semistandard tableau with k columns of
    weakly decreasing random lengths up to ``height``."""
    lengths = sorted((rng.randint(max(1, height // 2), height) for _ in range(k)),
                     reverse=True)
    cols = []
    for c in range(k):
        col = []
        for r in range(lengths[c]):
            above = col[-1] + 1 if col else 1
            left = cols[c - 1][r] if c else 1
            col.append(max(above, left) + rng.randint(0, 2))
        cols.append(col)
    return cols


def every_column(lengths):
    return range(len(lengths))


def run_ends(lengths):
    """The start columns ``scanning_tableau`` asks the kernel for."""
    return [s for s in range(len(lengths) - 1) if lengths[s + 1] != lengths[s]]


def run_starts(lengths):
    """The end columns ``left_key`` asks the kernel for."""
    return [c for c in range(1, len(lengths)) if lengths[c - 1] != lengths[c]]


# (kernel entry point, what it computes, the indices it is given)
CASES = (
    ("scan_columns", "right key", every_column),
    ("left_columns", "left key", every_column),
    ("scan_columns", "right key, run ends", run_ends),
    ("left_columns", "left key, run starts", run_starts),
)


def time_once(fn, calls):
    start = time.perf_counter()
    for args in calls:
        fn(*args)
    return time.perf_counter() - start


def spread(values, scale=1.0):
    """'median M (quartiles Q1-Q3)' of ``values`` times ``scale``."""
    q1, median, q3 = (v * scale for v in statistics.quantiles(values, n=4))
    return f"median {median:8.2f} (quartiles {q1:.2f}-{q3:.2f})"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cols", type=int, default=60)
    ap.add_argument("--height", type=int, default=40)
    ap.add_argument("--tableaux", type=int, default=20)
    ap.add_argument("--repeats", type=int, default=11)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.repeats < 2:
        ap.error("--repeats must be at least 2 for quartiles")

    rng = random.Random(args.seed)
    inputs = [
        random_tableau_columns(args.cols, args.height, rng)
        for _ in range(args.tableaux)
    ]
    boxes = sum(len(c) for cols in inputs for c in cols)
    print(f"{args.tableaux} tableaux, {args.cols} columns x <= {args.height} rows "
          f"({boxes} boxes total), {args.repeats} alternating repeats, times in ms")
    kernels = {"pure": _scan_py}
    if _scankernel is None:
        print("compiled kernel not built; timing the pure kernel alone")
    else:
        kernels["compiled"] = _scankernel

    # Imported here: perfbench loads this file only for random_tableau_columns.
    from keyscan import scanning
    from keyscan.tableau import Tableau

    cases = []
    for entry, label, pick in CASES:
        fns = {name: getattr(kernel, entry) for name, kernel in kernels.items()}
        calls = [(cols, indices) for cols in inputs
                 if (indices := pick([len(col) for col in cols]))]
        cases.append((f"{label} ({entry})", fns, calls))
    tableaux = [(Tableau(tuple(map(tuple, cols)), max(col[-1] for col in cols)),)
                for cols in inputs]
    for fn in (scanning.scanning_tableau, scanning.left_key):
        cases.append((f"{fn.__name__}, whole", dict.fromkeys(kernels, fn), tableaux))

    for label, fns, calls in cases:
        # The wrappers call scanning's kernel; the kernel cases ignore it.
        results = []
        for name, fn in fns.items():
            scanning._kernel = kernels[name]
            results.append([fn(*args) for args in calls])
        if any(result != results[0] for result in results):
            raise SystemExit(f"kernels disagree on {label}")
        times = {name: [] for name in fns}
        order = list(fns)
        for _ in range(args.repeats):
            for name in order:
                scanning._kernel = kernels[name]
                times[name].append(time_once(fns[name], calls))
            order.reverse()
        print(f"{label}: {len(calls)} calls")
        for name, values in times.items():
            print(f"  {name:9}: {spread(values, 1000)}")
        if "compiled" in times:
            ratios = [p / c for p, c in zip(times["pure"], times["compiled"])]
            print(f"  speedup  : {spread(ratios)}x")


if __name__ == "__main__":
    main()
