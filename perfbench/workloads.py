"""Inputs and correctness gates of the three workloads.

Every item is one ``keyscan`` command line (argv plus standard input),
run in-process through ``keyscan.cli.main``.  A workload's ``items``
are made from a seeded ``random.Random``; its ``check`` decides, outside
the timed region, whether one item's exit code and output are correct.

* ``census``: small ``verify`` sweeps; an item of work is one tableau
  checked, so a sweep counts as ``tableaux`` items.
* ``keys``: one-tableau ``right-key`` and ``left-key`` calls.
* ``demazure``: one ``demazure --engine scan`` character per item.
"""

from __future__ import annotations

import importlib.util
import math
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from keyscan import jdt
from keyscan.demazure import demazure_by_operators, format_polynomial
from keyscan.tableau import TableauError, conjugate, count_tableaux, entrywise_leq, parse_tableau

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Item:
    argv: list
    stdin: str = ""
    label: str = ""
    boxes: int = 0
    work: int = 1  # items of work the call completes (tableaux, for the census)
    meta: dict = field(default_factory=dict)


def _load_bench_scan():
    path = ROOT / "benchmarks" / "bench_scan.py"
    spec = importlib.util.spec_from_file_location("bench_scan", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows_text(cols):
    n = max(col[-1] for col in cols)
    rows = [[col[r] for col in cols if r < len(col)] for r in range(len(cols[0]))]
    return f"n={n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)


def _distinct_lengths(cols):
    """Cut a tableau down to strictly decreasing column lengths.

    Keeping the top ``l_c`` boxes of each column, with ``l_c`` weakly
    decreasing, leaves a semistandard tableau of the smaller shape.
    """
    out = []
    for col in cols:
        length = len(col) if not out else min(len(col), len(out[-1]) - 1)
        if length < 1:
            break
        out.append(col[:length])
    return out


# -- census ----------------------------------------------------------------


# Each census pass runs these sweeps, as (max boxes, max entry), in a
# seeded order.  A single 8/5 sweep takes 12 to 20 seconds on a shared
# 2-vCPU VM, so a run would hold only two repeats of it, and the host's
# speed changes over tens of seconds; sweeps of one to two seconds repeat often enough
# across a run for their fastest repeats to agree from run to run.
# A sweep m/e checks every tableau of at most m boxes with entries at
# most e, so 8/3 has the 8-box shapes, and 6/5 the columns of 5 boxes.
CENSUS_SLICES = {"full": [(8, 3), (6, 5)], "tiny": [(4, 3)]}
# The acceptance suite's counts at 8/5: shapes, tableaux, keys, swaps.
# The gate checks that the counts derived below reproduce them, so the
# derivation that checks every slice is itself checked.
CENSUS_8_5 = (59, 18171, 1286, 182761)


def partitions(total, cap):
    if total == 0:
        yield ()
        return
    for first in range(min(total, cap), 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


def census_expected(max_boxes, max_entry):
    """Counts the sweep must report, derived without the sweep.

    Shapes are column-length partitions with parts <= max_entry.  Keys of
    a shape are the distinct rearrangements of its row lengths padded
    with zeros to max_entry parts; the right-key oracle makes k(k-1)/2
    length swaps on a tableau with k columns.
    """
    shapes = tableaux = keys = swaps = 0
    for m in range(1, max_boxes + 1):
        for shape in partitions(m, max_entry):
            count = count_tableaux(shape, max_entry)
            rows = conjugate(shape)
            mult = Counter(rows + (0,) * (max_entry - len(rows)))
            shapes += 1
            tableaux += count
            keys += math.factorial(max_entry) // math.prod(
                math.factorial(c) for c in mult.values())
            swaps += count * len(shape) * (len(shape) - 1) // 2
    return shapes, tableaux, keys, swaps


def census_items(rng, size="full"):
    anchored = census_expected(8, 5) == CENSUS_8_5
    items = []
    for max_boxes, max_entry in CENSUS_SLICES[size]:
        expected = census_expected(max_boxes, max_entry)
        argv = ["verify", "--max-boxes", str(max_boxes), "--max-entry", str(max_entry),
                "--jobs", "1"]
        items.append(Item(argv, label=f"{max_boxes}/{max_entry}", boxes=max_boxes,
                          work=expected[1],
                          meta={"expected": expected, "anchored": anchored}))
    rng.shuffle(items)
    return items


_CENSUS_LINES = {
    "shapes checked": 0, "tableaux checked": 1, "keys among them": 2,
    "length swaps performed": 3,
}


def census_check(item, rc, out):
    got = [None] * 4
    counterexamples = None
    for line in out.splitlines():
        key, _, value = line.partition(": ")
        if key in _CENSUS_LINES:
            got[_CENSUS_LINES[key]] = int(value)
        m = re.fullmatch(r"(\d+) counterexamples", line)
        if m:
            counterexamples = int(m.group(1))
    return (rc == 0 and counterexamples == 0 and item.meta["anchored"]
            and tuple(got) == item.meta["expected"])


# -- keys ------------------------------------------------------------------

# (label, columns, height, items per pass).  The counts put the median
# inside the CLI-sized class and the 90th percentile inside the 60x40
# class, so neither percentile sits on the boundary between two sizes.
KEYS_CLASSES = {
    "full": [("cli", 5, 4, 60), ("oracle", 12, 12, 12), ("mid", 60, 40, 30),
             ("large", 200, 100, 4)],
    "tiny": [("cli", 5, 4, 8), ("oracle", 12, 12, 4), ("mid", 20, 10, 4)],
}
FAMILIES = ("repeated", "distinct")
OPS = ("right-key", "left-key")
# Items up to this many boxes are also checked against the jdt oracle.
ORACLE_MAX_BOXES = 150


def keys_items(rng, size="full"):
    bench_scan = _load_bench_scan()
    items = []
    for label, k, height, count in KEYS_CLASSES[size]:
        for i in range(count):
            family, op = FAMILIES[i % 2], OPS[(i // 2) % 2]
            cols = bench_scan.random_tableau_columns(k, height, rng)
            if family == "distinct":
                cols = _distinct_lengths(cols)
            lengths = [len(c) for c in cols]
            items.append(Item(
                [op], _rows_text(cols), label=f"{label}/{family}/{op}",
                boxes=sum(lengths),
                meta={"columns": len(lengths), "distinct_lengths": len(set(lengths))},
            ))
    rng.shuffle(items)
    return items


def keys_check(item, rc, out):
    if rc != 0:
        return False
    try:
        t = parse_tableau(item.stdin)
        key = parse_tableau(out)
    except TableauError:
        return False
    if key.n != t.n or key.shape != t.shape or not key.is_key():
        return False
    if item.argv[0] == "right-key":
        ok, oracle = entrywise_leq(t, key), jdt.right_key_oracle
    else:
        ok, oracle = entrywise_leq(key, t), jdt.left_key_oracle
    if ok and item.boxes <= ORACLE_MAX_BOXES:
        ok = oracle(t) == key
    return ok


# -- demazure --------------------------------------------------------------

DEMAZURE_N = {"full": 6, "tiny": 3}
DEMAZURE_SIZES = {"full": (4, 7), "tiny": (2, 3)}
# A heavier item beyond the |mu| range: 11340 tableaux enumerated to keep
# a handful, the case a pruned enumeration helps most.  Its w0 item alone
# would take a quarter of a pass and leave too few passes in a run.
DEMAZURE_HEAVY = {"full": [((5, 3, 1), "near_identity")], "tiny": []}
W_CLASSES = ("near_identity", "random", "w0")


def _inversions(w):
    return sum(a > b for i, a in enumerate(w) for b in w[i + 1:])


def _w_of_class(cls, n, rng):
    w = list(range(1, n + 1))
    if cls == "near_identity":
        i = rng.randrange(n - 1)
        w[i], w[i + 1] = w[i + 1], w[i]
    elif cls == "random":
        # Uniform among the permutations of half the longest length: how
        # many tableaux are kept, and so the item's cost, then varies
        # little from seed to seed.
        while _inversions(w) != n * (n - 1) // 4:
            rng.shuffle(w)
    else:
        w.reverse()
    return tuple(w)


def demazure_items(rng, size="full"):
    n = DEMAZURE_N[size]
    lo, hi = DEMAZURE_SIZES[size]
    pairs = [(mu, cls) for m in range(lo, hi + 1) for mu in partitions(m, m)
             if len(mu) <= n for cls in W_CLASSES]
    items = []
    for mu, cls in pairs + DEMAZURE_HEAVY[size]:
        w = _w_of_class(cls, n, rng)
        argv = ["demazure", "--engine", "scan", "--mu", ",".join(map(str, mu)),
                "--w", ",".join(map(str, w)), "--n", str(n)]
        items.append(Item(argv, label=cls, boxes=sum(mu), meta={
            "mu": mu, "w": w, "n": n,
            "candidates": count_tableaux(conjugate(mu), n),
        }))
    rng.shuffle(items)
    return items


def demazure_check(item, rc, out):
    mu, w, n = item.meta["mu"], item.meta["w"], item.meta["n"]
    return rc == 0 and all(
        out == format_polynomial(demazure_by_operators(mu, w, n, pick_last=last))
        for last in (False, True)
    )


def kept_tableaux(out):
    """Tableaux in a character: the sum of its printed coefficients."""
    return sum(int(line.split()[0]) for line in out.splitlines())


WORKLOADS = {
    "census": (census_items, census_check),
    "keys": (keys_items, keys_check),
    "demazure": (demazure_items, demazure_check),
}


def normalise(name, out):
    """An output without its timing line, for comparing runs."""
    if name != "census":
        return out
    return "\n".join(l for l in out.splitlines() if not l.startswith("elapsed:"))


def make_items(name, seed, size="full"):
    return WORKLOADS[name][0](random.Random(seed), size)


def check(name, item, rc, out):
    return WORKLOADS[name][1](item, rc, out)
