"""Jeu de taquin oracle: slides, rectification, length swaps, frank keys.

Everything here exists to verify the scanning method against the classical
frank-tableau description of keys: the i-th right-key column is the
rightmost column of a frank skew tableau (rightmost length = i-th column
length) rectifying to T, obtained by a choreography of column pull-downs
and reverse slides; the left key dually uses leftmost columns.

Slides work on a ``{(column, row): entry}`` cell dict.  Tie-breaking when
the two candidate neighbors of the hole are equal: the column neighbor
moves (below on forward slides, above on reverse slides); moving the row
neighbor would put equal entries in the same column.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .tableau import SkewTableau, Tableau, TableauError


class NotAnInsideCorner(TableauError):
    pass


class NotAnOutsideCorner(TableauError):
    pass


class IllegalShift(TableauError):
    pass


class BadIndex(TableauError):
    pass


@dataclass(frozen=True)
class SlideTrace:
    """Path a hole takes during one slide; cells are (column, row)."""

    start: tuple[int, int]
    path: tuple[tuple[int, int], ...]
    direction: str  # "forward" or "reverse"

    @property
    def end(self) -> tuple[int, int]:
        return self.path[-1]

    def format_line(self) -> str:
        cells = " ".join(f"({c + 1},{r + 1})" for c, r in self.path)
        return f"{self.direction} {cells}"


@dataclass(frozen=True)
class LengthSwapStep:
    """Record of one length swap: index, slide count, pull-down depth,
    and the bottom entries of the two columns before/after."""

    j: int
    x: int
    d: int
    bottom_left_before: int
    bottom_right_before: int
    bottom_right_after: int
    before: SkewTableau
    after: SkewTableau

    def format_line(self) -> str:
        return (
            f"swap j={self.j} x={self.x} d={self.d} "
            f"bottoms {self.bottom_left_before},{self.bottom_right_before}"
            f"->{self.bottom_right_after}"
        )


# -- cell-dict plumbing ----------------------------------------------------


def _to_cells(u: SkewTableau) -> dict:
    return u.cells()


def _from_cells(cells: dict, ncols: int) -> SkewTableau:
    cols = []
    by_col: dict[int, list[int]] = {}
    for (c, r), e in cells.items():
        by_col.setdefault(c, []).append(r)
    ncols = max(ncols, max(by_col, default=-1) + 1)
    for c in range(ncols):
        rows = sorted(by_col.get(c, []))
        if not rows:
            cols.append((0, ()))
            continue
        if rows != list(range(rows[0], rows[0] + len(rows))):
            raise TableauError(f"column {c + 1} not contiguous after slide")
        cols.append((rows[0], tuple(cells[(c, r)] for r in rows)))
    return SkewTableau(tuple(cols))


def _forward_path(cells: dict, c: int, r: int):
    path = [(c, r)]
    while True:
        below = cells.get((c, r + 1))
        right = cells.get((c + 1, r))
        if below is None and right is None:
            break
        if right is None or (below is not None and below <= right):
            cells[(c, r)] = below
            del cells[(c, r + 1)]
            r += 1
        else:
            cells[(c, r)] = right
            del cells[(c + 1, r)]
            c += 1
        path.append((c, r))
    return path


def _reverse_path(cells: dict, c: int, r: int):
    path = [(c, r)]
    while True:
        above = cells.get((c, r - 1))
        left = cells.get((c - 1, r))
        if above is None and left is None:
            break
        if left is None or (above is not None and above >= left):
            cells[(c, r)] = above
            del cells[(c, r - 1)]
            r -= 1
        else:
            cells[(c, r)] = left
            del cells[(c - 1, r)]
            c -= 1
        path.append((c, r))
    return path


def forward_slide(u: SkewTableau, corner) -> tuple[SkewTableau, SlideTrace]:
    """One forward slide from an inside corner (an empty cell with a
    filled cell below or to the right)."""
    c, r = corner
    cells = _to_cells(u)
    if (c, r) in cells or ((c, r + 1) not in cells and (c + 1, r) not in cells):
        raise NotAnInsideCorner(f"({c + 1},{r + 1}) is not an inside corner")
    path = _forward_path(cells, c, r)
    return _from_cells(cells, len(u.columns)), SlideTrace((c, r), tuple(path), "forward")


def reverse_slide(u: SkewTableau, corner) -> tuple[SkewTableau, SlideTrace]:
    """One reverse slide from an outside corner (an empty cell with a
    filled cell above or to the left)."""
    c, r = corner
    cells = _to_cells(u)
    if (c, r) in cells or ((c, r - 1) not in cells and (c - 1, r) not in cells):
        raise NotAnOutsideCorner(f"({c + 1},{r + 1}) is not an outside corner")
    path = _reverse_path(cells, c, r)
    return _from_cells(cells, len(u.columns)), SlideTrace((c, r), tuple(path), "reverse")


# -- rectification ---------------------------------------------------------


def _inner_cells(cells: dict):
    """Empty cells still northwest of the filling: those with a filled
    cell somewhere below in their column or to the right in their row."""
    fill_cols: dict[int, int] = {}
    fill_rows: dict[int, int] = {}
    for (c, r) in cells:
        fill_cols[c] = max(fill_cols.get(c, -1), r)
        fill_rows[r] = max(fill_rows.get(r, -1), c)
    inner = set()
    for c, rmax in fill_cols.items():
        inner.update((c, r) for r in range(rmax) if (c, r) not in cells)
    for r, cmax in fill_rows.items():
        inner.update((c, r) for c in range(cmax) if (c, r) not in cells)
    return inner


def _strict_inside_corners(cells: dict):
    """Inner cells whose right and below neighbors are not inner: the
    holes a rectification slide may legally start from."""
    inner = _inner_cells(cells)
    return sorted(
        (c, r)
        for (c, r) in inner
        if (c, r + 1) not in inner and (c + 1, r) not in inner
    )


def rectify(u: SkewTableau, n=None, choose=None, collect=None) -> Tableau:
    """Rectification: forward-slide inside corners until none remain.

    ``choose`` picks among the available corners (default: first in sorted
    order); the result is independent of the choice.  ``collect`` gathers
    SlideTrace records.
    """
    cells = _to_cells(u)
    while True:
        corners = _strict_inside_corners(cells)
        if not corners:
            break
        corner = corners[0] if choose is None else choose(corners)
        path = _forward_path(cells, *corner)
        if collect is not None:
            collect.append(SlideTrace(corner, tuple(path), "forward"))
    return _from_cells(cells, 0).to_tableau(n)


def is_frank(u: SkewTableau) -> bool:
    """True iff the nonzero column lengths of ``u`` are a rearrangement of
    the column lengths of its rectification."""
    lens = sorted(l for l in u.lengths() if l)
    return lens == sorted(rectify(u).shape)


# -- pull-downs and length swaps ------------------------------------------


def pull_down(u: SkewTableau, l: int, d: int) -> SkewTableau:
    """Shift columns ``1..l`` down ``d`` rows, leaving everything else
    untouched; validation rejects shifts that break skew legality.
    Negative ``d`` shifts back up."""
    if l < 0 or l > len(u.columns):
        raise IllegalShift(f"bad pull-down l={l}, d={d}")
    if d < 0 and any(off + d < 0 for off, col in u.columns[:l] if col):
        raise IllegalShift(f"shift by {d} would lift a column above row 1")
    if l == 0 or d == 0:
        return u
    cols = list(u.columns)
    for i in range(l):
        off, col = cols[i]
        if col:
            cols[i] = (off + d, col)
    try:
        return SkewTableau(tuple(cols))
    except TableauError as exc:
        raise IllegalShift(str(exc)) from exc


def pull_down_by_slides(u: SkewTableau, l: int, d: int) -> SkewTableau:
    """Same as :func:`pull_down` but realized by reverse slides; asserts
    the slides really only shifted columns ``1..l``."""
    v = u
    for j in range(l):
        for _ in range(d):
            off, col = v.columns[j]
            v, _tr = reverse_slide(v, (j, off + len(col)))
    if v != pull_down(u, l, d):
        raise IllegalShift("reverse slides did not implement a pure column shift")
    return v


def length_swap(u: SkewTableau, j: int, collect=None) -> SkewTableau:
    """The j-th length swap (j is 1-based): exchange the lengths of
    columns j and j+1 by pulling the columns left of j out of the way and
    running reverse slides under column j+1.

    Requires column j at least as long as column j+1 (always true in the
    right-key choreography, where the travelling column is longest).
    """
    k = len(u.columns)
    if not 1 <= j <= k - 1:
        raise BadIndex(f"swap index {j} outside 1..{k - 1}")
    before = u
    len_j = len(u.columns[j - 1][1])
    len_j1 = len(u.columns[j][1])
    x = len_j - len_j1
    if x < 0:
        raise BadIndex(f"column {j} shorter than column {j + 1}; swap undefined here")
    d = 0
    if j >= 2:
        lo, lcol = u.columns[j - 2]
        ro, rcol = u.columns[j - 1]
        d = max(0, min(lo + len(lcol), ro + len(rcol)) - max(lo, ro))
    bottom_left = u.columns[j - 1][1][-1]
    bottom_right = u.columns[j][1][-1] if u.columns[j][1] else None
    v = pull_down(u, j - 1, d)
    for _ in range(x):
        off, col = v.columns[j]
        v, _tr = reverse_slide(v, (j, off + len(col)))
    got = (len(v.columns[j - 1][1]), len(v.columns[j][1]))
    if got != (len_j1, len_j):
        raise TableauError(f"length swap produced lengths {got}, wanted {(len_j1, len_j)}")
    if collect is not None:
        collect.append(
            LengthSwapStep(
                j, x, d, bottom_left, bottom_right, v.columns[j][1][-1], before, v
            )
        )
    return v


# -- keys via frank tableaux ----------------------------------------------


def right_key_column_oracle(t: Tableau, i: int, collect=None) -> tuple[int, ...]:
    """The i-th right-key column (1-based): rightmost column after length
    swaps i..k-1, which walks column i's length to the right edge."""
    k = t.k
    if not 1 <= i <= k:
        raise BadIndex(f"column index {i} outside 1..{k}")
    if i == k:
        return t.columns[-1]
    u = SkewTableau.from_tableau(t)
    for j in range(i, k):
        u = length_swap(u, j, collect)
    return u.columns[-1][1]


def right_key_oracle(t: Tableau, collect=None) -> Tableau:
    """The right key of ``t`` as a key tableau of the same shape."""
    if t.k == 0:
        return t
    cols = tuple(right_key_column_oracle(t, i, collect) for i in range(1, t.k + 1))
    return Tableau(cols, t.n)


def canonical_skew_diagram(lengths) -> tuple[int, ...]:
    """Minimal offsets making the ordered column lengths a legal skew
    diagram (outer and inner shapes both weakly decreasing)."""
    k = len(lengths)
    offs = [0] * k
    for i in range(k - 2, -1, -1):
        offs[i] = offs[i + 1] + max(0, lengths[i + 1] - lengths[i])
    return tuple(offs)


def skew_fillings(lengths, offsets, content):
    """All legal skew fillings of the given diagram using exactly the
    multiset ``content`` of entries.

    Brute-force witness for the uniqueness of rectification preimages;
    intended for tiny diagrams only.
    """
    k = len(lengths)
    remaining = Counter(content)
    filled: list[list[int]] = [[] for _ in range(k)]

    def legal(c, r, v):
        col = filled[c]
        if col and v <= col[-1]:
            return False
        if c > 0 and offsets[c - 1] <= r < offsets[c - 1] + lengths[c - 1]:
            if filled[c - 1][r - offsets[c - 1]] > v:
                return False
        return True

    def rec(c, i):
        if c == k:
            yield SkewTableau(
                tuple((offsets[j], tuple(filled[j])) for j in range(k))
            )
            return
        if i == lengths[c]:
            yield from rec(c + 1, 0)
            return
        r = offsets[c] + i
        for v in sorted(remaining):
            if remaining[v] and legal(c, r, v):
                remaining[v] -= 1
                filled[c].append(v)
                yield from rec(c, i + 1)
                filled[c].pop()
                remaining[v] += 1

    yield from rec(0, 0)


def rotate_180(t: Tableau) -> SkewTableau:
    """Rotate the diagram of ``t`` a half turn and replace each entry ``e``
    by ``n+1-e``.  The result is a legal skew tableau; slides commute with
    this rotation."""
    if t.k == 0:
        return SkewTableau(())
    height = len(t.columns[0])
    cols = []
    for col in reversed(t.columns):
        cols.append((height - len(col), tuple(t.n + 1 - e for e in reversed(col))))
    return SkewTableau(tuple(cols))


def reversal_dual(t: Tableau) -> Tableau:
    """Rectification of the rotated-and-complemented tableau.

    An involution on tableaux of a fixed shape with entries <= n; it
    exchanges the roles of left and right keys.
    """
    return rectify(rotate_180(t), n=t.n)


def left_key_oracle(t: Tableau, collect=None) -> Tableau:
    """The left key of ``t``: complement duality applied to the right-key
    oracle of the reversal dual of ``t``."""
    if t.k == 0:
        return t
    dual = reversal_dual(t)
    cols = tuple(
        tuple(sorted(t.n + 1 - e for e in right_key_column_oracle(dual, i, collect)))
        for i in range(1, t.k + 1)
    )
    return Tableau(cols, t.n)
