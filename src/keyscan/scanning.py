"""The direct scanning method for right and left keys.

The right key is obtained by iterated earliest-weakly-increasing-
subsequence (EWIS) passes over the bottom entries of the columns; the
left key by a right-to-left walk picking, in each column, the largest
entry not exceeding the previous pick.

Two interchangeable kernels compute columns of the scanning tableau: a
compiled extension (``keyscan._scankernel``), used whenever it is
importable, and a pure-Python fallback (``keyscan._scan_py``).  Both
offer ``scan_columns(cols, starts)``; the pass-by-pass trace always runs
the pure-Python loop.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from . import _scan_py
from .tableau import Tableau

try:
    from . import _scankernel as _kernel
except ImportError:  # pragma: no cover - depends on build environment
    _kernel = _scan_py


def kernel_name() -> str:
    """Which scanning kernel is active: 'compiled' or 'pure'."""
    return "pure" if _kernel is _scan_py else "compiled"


class EmptySequence(ValueError):
    pass


class InternalInvariantError(AssertionError):
    """Raised when a structural guarantee of the algorithms fails.

    Indicates a bug (or an invalid tableau smuggled past validation),
    never a user error.
    """


@dataclass(frozen=True)
class EwisResult:
    """Earliest weakly increasing subsequence of a sequence.

    ``indices`` are 1-based positions into the scanned sequence; the first
    element always starts the subsequence, and each later index is the
    smallest one whose value is >= the previous member.
    """

    indices: tuple[int, ...]
    values: tuple[int, ...]

    @property
    def last(self) -> int:
        return self.values[-1]


def ewis(seq) -> EwisResult:
    seq = tuple(seq)
    if not seq:
        raise EmptySequence("EWIS of an empty sequence")
    indices = [1]
    values = [seq[0]]
    for i in range(1, len(seq)):
        if seq[i] >= values[-1]:
            indices.append(i + 1)
            values.append(seq[i])
    return EwisResult(tuple(indices), tuple(values))


def scan_column(t: Tableau, start: int, trace: list | None = None) -> tuple[int, ...]:
    """Column ``start`` (1-based) of the scanning tableau of ``t``.

    With ``trace`` a list, appends the values of each EWIS pass in
    discovery order, so the whole computation can be replayed
    pass by pass.
    """
    if not 1 <= start <= t.k:
        raise IndexError(f"start column {start} outside 1..{t.k}")
    if trace is None:
        return _kernel.scan_columns(t.columns, (start - 1,))[0]
    before = len(trace)
    col = _scan_py.scan_start_column(t.columns, start - 1, trace)
    if sum(map(len, trace[before:])) != sum(map(len, t.columns[start - 1:])):
        raise InternalInvariantError("scanning left unmarked boxes")
    return col


def scanning_tableau(t: Tableau) -> Tableau:
    """The scanning tableau of ``t``: same shape, and equal to its right key.

    Columns of equal length are equal in a key, so only the last column
    of each run of equal lengths is scanned (its suffix is the shortest)
    and copied to the rest of the run.
    """
    shape = t.shape
    ends = [s for s in range(t.k) if s + 1 == t.k or shape[s + 1] != shape[s]]
    out: list = []
    for end, col in zip(ends, _kernel.scan_columns(t.columns, ends)):
        out.extend([col] * (end + 1 - len(out)))
    return Tableau(tuple(out), t.n)


def scan_trace(t: Tableau) -> list[list[tuple[int, ...]]]:
    """All EWIS passes: one list per start column, in discovery order."""
    traces: list = [[] for _ in range(t.k)]
    for s, tr in enumerate(traces, start=1):
        scan_column(t, s, trace=tr)
    return traces


def _left_pass(cols, limits):
    """Single pass of the left-key scan; mutates ``limits`` with the
    dotted-box exclusions.  Returns the picked entries right-to-left."""
    c = len(limits) - 1
    a = cols[c][limits[c] - 1]
    limits[c] -= 1
    picks = [a]
    for j in range(c - 1, -1, -1):
        idx = bisect_right(cols[j], a, 0, limits[j]) - 1
        if idx < 0:
            raise InternalInvariantError(
                "left scan found no entry <= previous pick; input not semistandard?"
            )
        a = cols[j][idx]
        limits[j] = idx
        picks.append(a)
    return tuple(picks)


def left_key(t: Tableau) -> Tableau:
    """The left key of ``t`` by the direct scanning method.  Column c reads
    only columns ..c, so each run of equal lengths is computed at its
    first column, whose prefix is the shortest, and copied."""
    out = []
    for c in range(t.k):
        if c and len(t.columns[c]) == len(t.columns[c - 1]):
            out.append(out[-1])
            continue
        cols = t.columns[: c + 1]
        limits = [len(col) for col in cols]
        col_out = []
        for _ in range(len(t.columns[c])):
            picks = _left_pass(cols, limits)
            col_out.append(picks[-1])
        out.append(tuple(reversed(col_out)))
    return Tableau(tuple(out), t.n)
