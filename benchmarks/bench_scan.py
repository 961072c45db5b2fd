"""Benchmark the compiled scanning kernel against the pure-Python one.

Generates random semistandard tableaux of a given size and times, on
both kernels, the full right key (every start column of the scanning
tableau) and the full left key (every end column), checking first that
the kernels agree; a disagreement exits with an error.

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


# (kernel entry point, what it computes when given every column index)
ENTRY_POINTS = (("scan_columns", "right key"), ("left_columns", "left key"))


def time_once(fn, inputs):
    start = time.perf_counter()
    for cols in inputs:
        fn(cols, range(len(cols)))
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

    for entry, label in ENTRY_POINTS:
        fns = {name: getattr(kernel, entry) for name, kernel in kernels.items()}
        for cols in inputs:
            every = range(len(cols))
            if len({tuple(fn(cols, every)) for fn in fns.values()}) > 1:
                raise SystemExit(f"kernels disagree on the {label}")
        times = {name: [] for name in fns}
        order = list(fns)
        for _ in range(args.repeats):
            for name in order:
                times[name].append(time_once(fns[name], inputs))
            order.reverse()
        print(f"{label} ({entry}):")
        for name, values in times.items():
            print(f"  {name:9}: {spread(values, 1000)}")
        if "compiled" in times:
            ratios = [p / c for p, c in zip(times["pure"], times["compiled"])]
            print(f"  speedup  : {spread(ratios)}x")


if __name__ == "__main__":
    main()
