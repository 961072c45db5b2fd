"""The direct scanning method for right and left keys.

The right key is obtained by iterated earliest-weakly-increasing-
subsequence (EWIS) passes over the bottom entries of the columns; the
left key by right-to-left walks picking, in each column, the largest
entry not exceeding the previous pick.

Two interchangeable kernels compute key columns: a compiled extension
(``keyscan._scankernel``), used whenever it is importable, and a
pure-Python fallback (``keyscan._scan_py``).  Both offer
``scan_columns(cols, starts)`` for the right key and
``left_columns(cols, ends)`` for the left key, at strictly increasing
indices into the columns of a semistandard tableau.  Both kernels run
every pass of an index at once, column by column, which gives the same
answers as the paper's pass-by-pass order: a pass's choice in a column
depends only on its own previous member and on what earlier passes left
there.  The pure kernel also carries every index of a call in one sweep,
as nested sets (see ``keyscan._scan_py``).

Columns of equal length are equal in a key, so :func:`scanning_tableau`
and :func:`left_key` ask for one column per run of equal lengths, and
none for the right key's last run or the left key's first run: those
key columns are the last and the first column of the tableau itself.

The traces behind ``--explain``, one entry per pass, come from
:func:`scan_trace` and :func:`left_trace`, which read the paper's scans
one pass after another; the tests check both kernels against them.
"""

from __future__ import annotations

from bisect import bisect_right

from . import _scan_py
from ._scan_py import InternalInvariantError
from .tableau import Tableau, _Frozen

try:
    from . import _scankernel as _kernel
except ImportError:  # pragma: no cover - depends on build environment
    _kernel = _scan_py


def kernel_name() -> str:
    """Which scanning kernel is active: 'compiled' or 'pure'."""
    return "pure" if _kernel is _scan_py else "compiled"


class EmptySequence(ValueError):
    pass


class EwisResult(_Frozen):
    """Earliest weakly increasing subsequence of a sequence.

    ``indices`` are 1-based positions into the scanned sequence; the first
    element always starts the subsequence, and each later index is the
    smallest one whose value is >= the previous member.
    """

    _fields = ("indices", "values")

    def __init__(self, indices: tuple[int, ...], values: tuple[int, ...]):
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "values", values)

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


def scan_column(t: Tableau, start: int) -> tuple[int, ...]:
    """Column ``start`` (1-based) of the scanning tableau of ``t``."""
    if not 1 <= start <= t.k:
        raise IndexError(f"start column {start} outside 1..{t.k}")
    return _kernel.scan_columns(t.columns, (start - 1,))[0]


def scanning_tableau(t: Tableau) -> Tableau:
    """The scanning tableau of ``t``: same shape, and equal to its right key.

    Columns of equal length are equal in a key, so only the last column
    of each run of equal lengths is scanned (its suffix is the shortest)
    and copied to the rest of the run.  The last run's column is the last
    column of ``t``, which has nothing to its right, so it is not scanned.
    """
    cols = t.columns
    lengths = [*map(len, cols)]
    ends = [s for s in range(len(cols) - 1) if lengths[s + 1] != lengths[s]]
    out: list = []
    for end, col in zip(ends, _kernel.scan_columns(cols, ends) if ends else ()):
        out.extend([col] * (end + 1 - len(out)))
    out.extend(cols[-1:] * (len(cols) - len(out)))
    return Tableau(tuple(out), t.n)


def right_passes(cols, start) -> list[tuple[int, ...]]:
    """The EWIS passes for column ``start`` (0-based) of the right key:
    each is the EWIS of the bottom entries of the unmarked boxes in
    columns ``start..`` and marks them, until column ``start`` is marked."""
    unmarked = [len(col) for col in cols[start:]]
    passes = []
    while unmarked[0]:
        live = [i for i, u in enumerate(unmarked) if u]
        e = ewis(cols[start + i][unmarked[i] - 1] for i in live)
        for j in e.indices:
            unmarked[live[j - 1]] -= 1
        passes.append(e.values)
    return passes


def scan_trace(t: Tableau) -> list[list[tuple[int, ...]]]:
    """All EWIS passes: one list per start column, in discovery order,
    so the whole computation can be replayed pass by pass."""
    traces = [right_passes(t.columns, start) for start in range(t.k)]
    for start, passes in enumerate(traces):
        if sum(map(len, passes)) != sum(map(len, t.columns[start:])):
            raise InternalInvariantError("scanning left unmarked boxes")
    return traces


def left_key(t: Tableau) -> Tableau:
    """The left key of ``t`` by the direct scanning method.  Column c reads
    only columns ..c, so each run of equal lengths is computed at its
    first column, whose prefix is the shortest, and copied.  The first
    run's column is the first column of ``t``, so it is not scanned."""
    cols = t.columns
    lengths = [*map(len, cols)]
    firsts = [c for c in range(1, len(cols)) if lengths[c - 1] != lengths[c]]
    key = [*cols[:1], *(_kernel.left_columns(cols, firsts) if firsts else ())]
    out: list = []
    for nxt, col in zip(firsts + [len(cols)], key):
        out.extend([col] * (nxt - len(out)))
    return Tableau(tuple(out), t.n)


def left_passes(cols, end) -> list[tuple[int, ...]]:
    """The walks for column ``end`` (0-based) of the left key, each one's
    picks right to left.  Each walk starts at the lowest unpicked box of
    column ``end`` and picks in each earlier column the largest entry not
    above its previous pick, among the boxes above earlier walks' picks."""
    limits = [len(col) for col in cols[: end + 1]]
    passes = []
    for _ in cols[end]:
        a, picks = cols[end][-1], []
        for j in range(end, -1, -1):
            i = limits[j] = bisect_right(cols[j], a, 0, limits[j]) - 1
            if i < 0:
                raise InternalInvariantError("left scan found no entry <= previous pick")
            a = cols[j][i]
            picks.append(a)
        passes.append(tuple(picks))
    return passes


def left_trace(t: Tableau) -> list[list[tuple[int, ...]]]:
    """All left-key passes: one list per key column, each pass's picks
    right to left."""
    return [left_passes(t.columns, end) for end in range(t.k)]
