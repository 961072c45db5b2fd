"""Acceptance gate: seven numbered criteria, one PASS/FAIL line each.

The census referenced below is every semistandard tableau on every shape
with at most 8 boxes and entries at most 5.  All checks are exact; the
only tolerances are the stated wall-clock budgets.
"""

import itertools
import random
import time

import pytest

from keyscan import jdt, scanning
from keyscan.demazure import (
    demazure_by_operators,
    demazure_character,
    schur_polynomial,
)
from keyscan.tableau import (
    SkewTableau,
    Tableau,
    entrywise_leq,
    enumerate_tableaux,
    parse_tableau,
)
from keyscan.verify import shapes_up_to

from conftest import EXAMPLE_KEY_TEXT, EXAMPLE_T_TEXT, random_skew
from helpers import (
    canonical_skew_diagram,
    rectify_from_scratch,
    skew_fillings,
    strict_inside_corners,
)

CENSUS_MAX_BOXES = 8
CENSUS_MAX_ENTRY = 5


def report(capsys, criterion, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def census():
    out = []
    for shape in shapes_up_to(CENSUS_MAX_BOXES, CENSUS_MAX_ENTRY):
        out.extend(enumerate_tableaux(shape, CENSUS_MAX_ENTRY))
    return out


@pytest.fixture(scope="module")
def sweep(census):
    """One pass over the census: scanning vs oracle right keys, left keys
    both ways, and every length-swap step the oracle performed.  The left
    oracle key is the complement of the right oracle key of the reversal
    dual, which is in the census: a KeyError fails the tests."""
    mismatches = []
    left_mismatches = []
    steps = []
    rights = {}
    start = time.perf_counter()
    for t in census:
        s = scanning.scanning_tableau(t)
        r = rights[t] = jdt.right_key_oracle(t, collect=steps)
        if s != r:
            mismatches.append(t)
    right_elapsed = time.perf_counter() - start
    for t in census:
        if scanning.left_key(t) != jdt.complement_key(rights[jdt.reversal_dual(t)]):
            left_mismatches.append(t)
    return {
        "mismatches": mismatches,
        "left_mismatches": left_mismatches,
        "steps": steps,
        "right_elapsed": right_elapsed,
    }


def test_criterion_1_worked_example_golden(capsys):
    t = parse_tableau(EXAMPLE_T_TEXT)
    golden = parse_tableau(EXAMPLE_KEY_TEXT)
    key_ok = scanning.scanning_tableau(t) == golden
    trace = scanning.scan_trace(t)[0]
    trace_ok = trace == [
        (8, 9, 9),
        (7, 7, 8),
        (5, 5, 6, 7),
        (4, 5, 6),
        (2, 3, 3, 4),
        (1, 1),
    ]
    for _ in range(100):  # warm up
        scanning.scanning_tableau(t)
    times = []
    for _ in range(50):
        t0 = time.perf_counter()
        scanning.scanning_tableau(t)
        times.append(time.perf_counter() - t0)
    ms = sorted(times)[len(times) // 2] * 1000
    ok = key_ok and trace_ok and ms < 1.0
    report(
        capsys,
        1,
        ok,
        f"worked example right key {'ok' if key_ok else 'WRONG'}, "
        f"explain trace {'ok' if trace_ok else 'WRONG'}, median {ms:.3f} ms (< 1 ms)",
    )


def test_criterion_2_scanning_equals_oracle(capsys, census, sweep):
    ok = not sweep["mismatches"] and sweep["right_elapsed"] < 60.0
    report(
        capsys,
        2,
        ok,
        f"{len(census)} tableaux, {len(sweep['mismatches'])} scanning/oracle "
        f"mismatches, {sweep['right_elapsed']:.1f}s (< 60s)",
    )


def test_criterion_3_key_and_order_properties(capsys, census):
    failures = 0
    keys = 0
    for t in census:
        s = scanning.scanning_tableau(t)
        lk = scanning.left_key(t)
        if not s.is_key() or not lk.is_key():
            failures += 1
            continue
        if not entrywise_leq(t, s) or not entrywise_leq(lk, t):
            failures += 1
            continue
        shape = t.shape
        if any(
            shape[i] == shape[i - 1] and s.columns[i] != s.columns[i - 1]
            for i in range(1, t.k)
        ):
            failures += 1
            continue
        if t.is_key():
            keys += 1
            if s != t or lk != t:
                failures += 1
    ok = failures == 0
    report(
        capsys,
        3,
        ok,
        f"{len(census)} tableaux ({keys} keys), {failures} property failures",
    )


def test_criterion_4_left_key_cross_check(capsys, census, sweep):
    ok = not sweep["left_mismatches"]
    report(
        capsys,
        4,
        ok,
        f"{len(census)} tableaux, {len(sweep['left_mismatches'])} "
        "scanning/oracle left-key mismatches",
    )


def test_criterion_5_jdt_soundness(capsys, census, sweep):
    failures = []

    rng = random.Random(20260826)
    confluence_runs = 0
    for i in range(1000):
        u = random_skew(rng)
        base = jdt.rectify(u)
        pick = random.Random(i)
        if rectify_from_scratch(u, pick.choice) != base:
            failures.append(f"confluence (seeded) on {u}")
        if rectify_from_scratch(u, lambda cs: cs[-1]) != base:
            failures.append(f"confluence (last-corner) on {u}")
        confluence_runs += 1

    round_trips = 0
    rng2 = random.Random(4242)
    for _ in range(500):
        u = random_skew(rng2)
        for corner in strict_inside_corners(u.cells()):
            v, path = jdt.forward_slide(u, corner)
            back, path2 = jdt.reverse_slide(v, path[-1])
            if back != u or path2[-1] != corner:
                failures.append(f"slide round trip on {u} at {corner}")
            round_trips += 1

    swap_failures = 0
    for st in sweep["steps"]:
        if st.bottom_right_after != max(
            st.bottom_left_before, st.bottom_right_before
        ):
            swap_failures += 1
    # The skew tableaux after every swap of the oracle's choreography, for
    # every right-key column; tests/test_jdt.py holds each chain to the
    # public length swap, chained.
    frank_checked = 0
    for t in census:
        for i in range(1, t.k):
            for _st, w in jdt.swap_chain(t, i):
                frank_checked += 1
                if not jdt.is_frank(w.skew()):
                    swap_failures += 1
    if frank_checked != len(sweep["steps"]):
        failures.append(f"{frank_checked} chained swaps, {len(sweep['steps'])} recorded")
    if swap_failures:
        failures.append(f"{swap_failures} length-swap rule/frankness failures")

    ok = not failures
    report(
        capsys,
        5,
        ok,
        f"{confluence_runs} confluence skews x 2 orders, {round_trips} slide "
        f"round trips, {len(sweep['steps'])} length swaps checked, "
        f"{len(failures)} failures",
    )


def test_criterion_6_unique_rectification_preimage(capsys):
    start = time.perf_counter()
    checked = 0
    non_unique = 0
    for shape in shapes_up_to(6, 4):
        for t in enumerate_tableaux(shape, 4):
            content = [e for col in t.columns for e in col]
            for lengths in set(itertools.permutations(t.shape)):
                offsets = canonical_skew_diagram(lengths)
                hits = sum(
                    1
                    for u in skew_fillings(lengths, offsets, content)
                    if jdt.rectify(u, n=t.n) == t
                )
                checked += 1
                if hits != 1:
                    non_unique += 1
    elapsed = time.perf_counter() - start
    ok = non_unique == 0 and elapsed < 300.0
    report(
        capsys,
        6,
        ok,
        f"{checked} (tableau, rearranged diagram) pairs, {non_unique} without a "
        f"unique preimage, {elapsed:.1f}s (< 300s)",
    )


def test_criterion_7_demazure_cross_oracle(capsys):
    n = 4
    mus = sorted(mu for mu in shapes_up_to(5) if len(mu) <= n)
    perms = list(itertools.permutations(range(1, n + 1)))
    w0 = tuple(range(n, 0, -1))
    start = time.perf_counter()
    mismatches = 0
    pairs = 0
    for mu in mus:
        for w in perms:
            a = demazure_character(mu, w, n, engine="scan")
            b = demazure_by_operators(mu, w, n)
            c = demazure_by_operators(mu, w, n, pick_last=True)
            pairs += 1
            if not (a == b == c):
                mismatches += 1
        if demazure_character(mu, w0, n) != schur_polynomial(mu, n):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 120.0
    report(
        capsys,
        7,
        ok,
        f"{len(mus)} partitions x {len(perms)} permutations ({pairs} characters, "
        f"two reduced words each) + longest-element Schur check, "
        f"{mismatches} mismatches, {elapsed:.1f}s (< 120s)",
    )
