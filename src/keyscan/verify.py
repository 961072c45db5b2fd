"""Exhaustive small-case verification sweep.

Walks every shape up to a box bound and every semistandard filling up to
an entry bound, and checks the scanning method against the jeu de taquin
oracles plus the structural key/order invariants.  Each tableau's
length-swap chains run once per sweep: its right oracle key also gives,
complemented, the left oracle key of its reversal dual.  That checks no
less; a second run would repeat a deterministic computation on the same
input.  ``check_swaps`` walks them again, by :func:`keyscan.jdt.swap_chain`,
to rectify the skew tableau after every swap.  Used by the CLI ``verify``
subcommand and by the acceptance suite.
"""

from __future__ import annotations

import os
import time

from . import jdt, scanning
from .tableau import Tableau, TableauError, _Value, entrywise_leq, enumerate_tableaux


# A module-level generator: a closure that calls itself is a reference
# cycle, left on every call for the cyclic garbage collector.
def _partitions(total, cap):
    """Weakly decreasing positive tuples summing to ``total``, parts <= ``cap``."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, cap), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def shapes_up_to(max_boxes: int, max_length: int | None = None):
    """All shapes (weakly decreasing positive tuples) with 1..max_boxes
    boxes; column lengths capped at max_length when given."""
    cap0 = max_boxes if max_length is None else max_length
    for m in range(1, max_boxes + 1):
        yield from _partitions(m, min(m, cap0))


class VerifyReport(_Value):
    """Counts and counterexamples of a sweep, merged shape by shape.
    ``counterexamples`` defaults to a new empty list.  Mutable, so
    unhashable."""

    _fields = ("shapes", "tableaux", "keys", "swaps", "counterexamples", "elapsed")
    __hash__ = None

    def __init__(self, shapes: int = 0, tableaux: int = 0, keys: int = 0, swaps: int = 0,
                 counterexamples: list | None = None, elapsed: float = 0.0):
        self.shapes = shapes
        self.tableaux = tableaux
        self.keys = keys
        self.swaps = swaps
        self.counterexamples = [] if counterexamples is None else counterexamples
        self.elapsed = elapsed

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def merge(self, other: "VerifyReport"):
        self.shapes += other.shapes
        self.tableaux += other.tableaux
        self.keys += other.keys
        self.swaps += other.swaps
        self.counterexamples.extend(other.counterexamples)

    def format_lines(self) -> list[str]:
        lines = [
            f"shapes checked: {self.shapes}",
            f"tableaux checked: {self.tableaux}",
            f"keys among them: {self.keys}",
            f"length swaps performed: {self.swaps}",
            f"elapsed: {self.elapsed:.2f}s",
            f"{len(self.counterexamples)} counterexamples",
        ]
        if self.counterexamples:
            lines.append("first counterexample:")
            lines.append(self.counterexamples[0])
        return lines


def _right_key(x: Tableau, memo: dict):
    """``(right_key_oracle(x, collect=steps), steps)``, computed on x's
    first use and removed from ``memo`` on its second.  In a sweep of one
    shape the two uses are x's own check and the left-key check of the
    reversal dual of x, which is in the same sweep."""
    pair = memo.pop(x, None)
    if pair is None:
        steps: list = []
        pair = memo[x] = jdt.right_key_oracle(x, collect=steps), steps
    return pair


def check_tableau(t: Tableau, check_swaps: bool = False,
                  memo: dict | None = None) -> tuple[list[str], int]:
    """All sweep checks for one tableau; returns failure messages and the
    number of length swaps performed by the oracle for ``t``.

    The left oracle key is the complement of the right oracle key of the
    reversal dual.  ``memo``, shared by the checks of one shape, keeps each
    right oracle key and its swap records from its first use to its second,
    so each tableau's length-swap chains run once per sweep; every
    comparison is still made.  Without ``memo`` both keys are computed.

    ``t`` is a tableau, so every result built from it must validate: a
    :class:`TableauError` from the oracle or a kernel is a failure on
    ``t``, not bad input."""
    if memo is None:
        memo = {}
    failures = []
    steps = ()

    def fail(what):
        failures.append(f"{what}\non tableau:\n{t}")

    try:
        r, steps = _right_key(t, memo)
        s = scanning.scanning_tableau(t)
        if s != r:
            fail(f"scanning tableau differs from jdt right key:\n{s}\nvs\n{r}")
        if not s.is_key():
            fail("scanning tableau is not a key")
        if not entrywise_leq(t, s):
            fail("tableau not entrywise <= its right key")

        lk = scanning.left_key(t)
        rk_dual = _right_key(jdt.reversal_dual(t), memo)[0]
        try:
            lko = jdt.complement_key(rk_dual)
        except TableauError as exc:  # rk_dual is not a key
            fail(f"complement of the jdt right key of the reversal dual is not a tableau "
                 f"({exc}):\n{rk_dual}")
        else:
            if lk != lko:
                fail(f"scanning left key differs from jdt left key:\n{lk}\nvs\n{lko}")
        if not lk.is_key():
            fail("left key is not a key")
        if not entrywise_leq(lk, t):
            fail("left key not entrywise <= tableau")

        if t.is_key():
            if s != t:
                fail("right key of a key is not the key itself")
            if lk != t:
                fail("left key of a key is not the key itself")

        if t.k:
            e = scanning.ewis(t.bottom_entries())
            if s.columns[0][-1] != e.last:
                fail("bottom of first right-key column is not the last EWIS member")

        for st in steps:
            expected = (
                st.bottom_right_before
                if st.bottom_right_before >= st.bottom_left_before
                else st.bottom_left_before
            )
            if st.bottom_right_after != expected:
                fail(f"two-case bottom-entry rule violated at {st.format_line()}")

        if check_swaps:
            # Walk the chains again: each swap's record comes with the skew
            # tableau after it, rectified once.
            for i in range(1, t.k):
                for st, w in jdt.swap_chain(t, i):
                    u = w.skew()
                    rect = jdt.rectify(u, n=t.n)
                    if not jdt.is_frank(u, rect):
                        fail(f"frankness lost at {st.format_line()}")
                    elif rect != t:
                        fail(f"rectification changed at {st.format_line()}")
    except TableauError as exc:
        fail(f"oracle or kernel raised {exc.__class__.__name__}: {exc}")

    return failures, len(steps)


def _sweep_shape(args):
    shape, max_entry, check_swaps = args
    rep = VerifyReport(shapes=1)
    memo: dict = {}
    for t in enumerate_tableaux(shape, max_entry):
        rep.tableaux += 1
        if t.is_key():
            rep.keys += 1
        failures, nswaps = check_tableau(t, check_swaps, memo)
        rep.swaps += nswaps
        rep.counterexamples.extend(failures)
    return rep


def run_sweep(max_boxes: int, max_entry: int, jobs: int = 1,
              check_swaps: bool = False) -> VerifyReport:
    """Run the full census sweep; counterexample-free iff report.ok.
    Both bounds and ``jobs`` must be at least 1."""
    for name, bound in (("max_boxes", max_boxes), ("max_entry", max_entry), ("jobs", jobs)):
        if bound < 1:
            raise TableauError(f"{name} must be >= 1, got {bound}")
    start = time.perf_counter()
    report = VerifyReport()
    work = [
        (shape, max_entry, check_swaps)
        for shape in shapes_up_to(max_boxes, max_entry)
    ]
    # The pool starts all its workers at the first submit, so more than
    # one per shape or per core would only cost processes.
    workers = min(jobs, len(work), os.cpu_count() or 1)
    if workers > 1:
        # Imported here: the process pool costs every CLI start a third of
        # its import time, and only a parallel sweep uses it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for rep in pool.map(_sweep_shape, work):
                report.merge(rep)
    else:
        for item in work:
            report.merge(_sweep_shape(item))
    report.elapsed = time.perf_counter() - start
    return report
