"""Benchmark the compiled scanning kernel against the pure-Python one.

Generates random semistandard tableaux of a given size and times
full scanning-tableau computations (all start columns) on both kernels,
verifying along the way that they agree.

Usage: python3 benchmarks/bench_scan.py [--cols K] [--height H]
       [--tableaux N] [--repeats R] [--seed S]
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


def time_kernel(kernel, inputs, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for cols in inputs:
            kernel.scan_columns(cols, range(len(cols)))
        times.append(time.perf_counter() - start)
    return min(times), statistics.median(times)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cols", type=int, default=60)
    ap.add_argument("--height", type=int, default=40)
    ap.add_argument("--tableaux", type=int, default=20)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    inputs = [
        random_tableau_columns(args.cols, args.height, rng)
        for _ in range(args.tableaux)
    ]
    boxes = sum(len(c) for cols in inputs for c in cols)
    print(f"{args.tableaux} tableaux, {args.cols} columns x <= {args.height} rows "
          f"({boxes} boxes total), {args.repeats} repeats")

    pure_best, pure_med = time_kernel(_scan_py, inputs, args.repeats)
    print(f"pure python : best {pure_best * 1000:8.2f} ms   "
          f"median {pure_med * 1000:8.2f} ms")

    if _scankernel is None:
        print("compiled kernel not built; skipping comparison")
        return

    for cols in inputs:
        starts = range(len(cols))
        if _scankernel.scan_columns(cols, starts) != _scan_py.scan_columns(cols, starts):
            raise SystemExit("kernels disagree")

    ext_best, ext_med = time_kernel(_scankernel, inputs, args.repeats)
    print(f"compiled    : best {ext_best * 1000:8.2f} ms   "
          f"median {ext_med * 1000:8.2f} ms")
    print(f"speedup     : {pure_best / ext_best:.1f}x (best), "
          f"{pure_med / ext_med:.1f}x (median)")


if __name__ == "__main__":
    main()
