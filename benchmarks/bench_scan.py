"""Benchmark the compiled scanning kernel against the pure-Python one.

Generates random semistandard tableaux of a given size and times, on
both kernels, the full right key (every start column of the scanning
tableau) and the full left key (every end column), checking along the
way that the kernels agree; a disagreement exits with an error.

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


# (kernel entry point, what it computes when given every column index)
ENTRY_POINTS = (("scan_columns", "right key"), ("left_columns", "left key"))


def time_kernel(kernel, entry, inputs, repeats):
    fn = getattr(kernel, entry)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for cols in inputs:
            fn(cols, range(len(cols)))
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

    for entry, label in ENTRY_POINTS:
        print(f"{label} ({entry}):")
        pure_best, pure_med = time_kernel(_scan_py, entry, inputs, args.repeats)
        print(f"  pure python : best {pure_best * 1000:8.2f} ms   "
              f"median {pure_med * 1000:8.2f} ms")

        if _scankernel is None:
            print("  compiled kernel not built; skipping comparison")
            continue

        for cols in inputs:
            every = range(len(cols))
            if getattr(_scankernel, entry)(cols, every) != getattr(_scan_py, entry)(cols, every):
                raise SystemExit(f"kernels disagree on the {label}")

        ext_best, ext_med = time_kernel(_scankernel, entry, inputs, args.repeats)
        print(f"  compiled    : best {ext_best * 1000:8.2f} ms   "
              f"median {ext_med * 1000:8.2f} ms")
        print(f"  speedup     : {pure_best / ext_best:.1f}x (best), "
              f"{pure_med / ext_med:.1f}x (median)")


if __name__ == "__main__":
    main()
