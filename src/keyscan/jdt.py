"""Jeu de taquin oracle: slides, rectification, length swaps, frank keys.

Everything here exists to verify the scanning method against the classical
frank-tableau description of keys: the i-th right-key column is the
rightmost column of a frank skew tableau (rightmost length = i-th column
length) rectifying to T, obtained by a choreography of column pull-downs
and reverse slides.  The left key is the complement of the right key of
the reversal dual: K-(T) = complement_key(K+(reversal_dual(T))).

The public slides work on a ``{(column, row): entry}`` cell dict and are
the from-scratch reference.  Tie-breaking when the two candidate
neighbors of the hole are equal: the column neighbor moves (below on
forward slides, above on reverse slides); moving the row neighbor would
put equal entries in the same column.

The oracle validates at its boundary: public functions take and return
validated tableaux.  Inside, it shares no code with the public slides.
Rectification column-inserts the column reading word, which gives the
same tableau as any sequence of forward slides; the reversal dual
inserts the reading word of the rotated, complemented tableau without
building that skew tableau.  The right-key choreography is walked in one
place, :func:`swap_chain`, in place on column offsets and one entry list
per column; it re-checks legality on the columns each pull-down or
reverse slide changed, with the same checker as :class:`SkewTableau`.
Each swap's record, scalars only, comes with the working form after
that swap, whose ``skew()`` is the validated skew tableau.
"""

from __future__ import annotations

from bisect import bisect_left

from .tableau import SkewTableau, Tableau, TableauError, _check_skew, _Value


class NotAnInsideCorner(TableauError):
    pass


class NotAnOutsideCorner(TableauError):
    pass


class IllegalShift(TableauError):
    pass


class BadIndex(TableauError):
    pass


class NotASkewShape(TableauError):
    """The filled cells of a skew tableau do not form a skew shape."""


class LengthSwapStep(_Value):
    """Record of one length swap: index, slide count, pull-down depth,
    and the bottom entries of the two columns before/after.
    :func:`swap_chain` yields each with the working form after its swap.
    Mutable, so unhashable."""

    __slots__ = _fields = ("j", "x", "d", "bottom_left_before", "bottom_right_before",
                           "bottom_right_after")
    __hash__ = None

    def __init__(self, j: int, x: int, d: int, bottom_left_before: int,
                 bottom_right_before: int, bottom_right_after: int):
        self.j = j
        self.x = x
        self.d = d
        self.bottom_left_before = bottom_left_before
        self.bottom_right_before = bottom_right_before
        self.bottom_right_after = bottom_right_after

    def format_line(self) -> str:
        return (
            f"swap j={self.j} x={self.x} d={self.d} "
            f"bottoms {self.bottom_left_before},{self.bottom_right_before}"
            f"->{self.bottom_right_after}"
        )


# -- cell-dict plumbing ----------------------------------------------------


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


def forward_slide(u: SkewTableau, corner) -> tuple[SkewTableau, tuple]:
    """One forward slide from an inside corner (an empty cell with a
    filled cell below or to the right).  Returns the slid skew tableau and
    the hole's path, a tuple of (column, row) cells from ``corner`` to
    where the hole leaves the diagram."""
    c, r = corner
    cells = u.cells()
    if (c, r) in cells or ((c, r + 1) not in cells and (c + 1, r) not in cells):
        raise NotAnInsideCorner(f"({c + 1},{r + 1}) is not an inside corner")
    path = _forward_path(cells, c, r)
    return _from_cells(cells, len(u.columns)), tuple(path)


def reverse_slide(u: SkewTableau, corner) -> tuple[SkewTableau, tuple]:
    """One reverse slide from an outside corner (an empty cell with a
    filled cell above or to the left); returns the skew tableau and the
    hole's path, as :func:`forward_slide` does."""
    c, r = corner
    cells = u.cells()
    if (c, r) in cells or ((c, r - 1) not in cells and (c - 1, r) not in cells):
        raise NotAnOutsideCorner(f"({c + 1},{r + 1}) is not an outside corner")
    path = _reverse_path(cells, c, r)
    return _from_cells(cells, len(u.columns)), tuple(path)


# -- rectification ---------------------------------------------------------


def rectify(u: SkewTableau, n=None) -> Tableau:
    """Rectification: the straight tableau that forward slides reach from
    ``u``, whatever inside corner each slide starts from.

    The filled cells of ``u`` must form a skew shape: from left to right
    the tops and the bottoms of the filled columns weakly decrease, and an
    empty column between two filled ones needs the top of the left one at
    or below the bottom of the right one.  Any other diagram raises
    :class:`NotASkewShape`.

    The rectification of a skew tableau is the insertion tableau of its
    column reading word (Schützenberger; Fulton, *Young Tableaux*, ch. 2-3).
    Column insertion builds it from the word's last letter on, so the
    entries are read from the columns right to left, each top to bottom,
    and passed to :func:`_column_insert`.  The public forward slides remain
    the reference the tests hold this to.
    """
    word = []  # the column reading word, from its last letter on
    top = bottom = 0  # of the nearest filled column to the right
    for c in range(len(u.columns) - 1, -1, -1):
        off, col = u.columns[c]
        if not col:
            top = bottom
            continue
        if off < top or off + len(col) < bottom:
            raise NotASkewShape(f"column {c + 1} breaks the skew shape of the filled cells")
        top, bottom = off, off + len(col)
        word += col
    return _column_insert(word, n)


def _column_insert(word, n) -> Tableau:
    """Column-insert the letters of ``word`` in order into an empty
    tableau.  A letter x goes into the first column with an entry >= x,
    bumping the smallest such entry into the next column, or onto the end
    of the first column without one.  The result is validated once, as a
    Tableau with entry bound ``n`` (its largest entry when None)."""
    cols: list[list[int]] = []
    for x in word:
        for column in cols:
            i = bisect_left(column, x)
            if i == len(column):
                column.append(x)
                break
            column[i], x = x, column[i]
        else:
            cols.append([x])
    if n is None:
        n = max([col[-1] for col in cols], default=1)
    return Tableau(tuple([tuple(col) for col in cols]), n)


def is_frank(u: SkewTableau, rectified: Tableau | None = None) -> bool:
    """True iff the nonzero column lengths of ``u`` are a rearrangement of
    the column lengths of its rectification (``rectified``, when the caller
    already has it)."""
    if rectified is None:
        rectified = rectify(u)
    lens = sorted(l for l in u.lengths() if l)
    return lens == sorted(rectified.shape)


# -- pull-downs and length swaps ------------------------------------------


class _WorkingTableau:
    """A legal skew tableau held for in-place length swaps: a list of
    column offsets and one entry list per column.

    Each step runs :func:`~keyscan.tableau._check_skew`, the checker of
    :class:`SkewTableau`, on the columns and adjacent pairs it changed;
    the rest of the tableau is untouched, so this checks the same property
    as validating the whole skew tableau again."""

    __slots__ = ("offs", "cols")

    def __init__(self, offs, cols):
        self.offs = list(offs)
        self.cols = [list(col) for col in cols]

    def skew(self) -> SkewTableau:
        """The working form as a new, validated skew tableau."""
        return SkewTableau(tuple([(off, tuple(col)) for off, col in zip(self.offs, self.cols)]))

    def pull_down(self, l: int, d: int):
        """Shift columns ``0..l-1`` down ``d >= 0`` rows, ``l`` being less
        than the number of columns.  The block moves as one, so only the
        pair of columns ``l - 1`` and ``l`` changes."""
        if not d:
            return
        offs, cols = self.offs, self.cols
        for c in range(l):
            if cols[c]:
                offs[c] += d
        try:
            _check_skew(offs, cols, l, l - 1)  # no column; only the pair l - 1, l
        except TableauError as exc:
            raise IllegalShift(str(exc)) from exc

    def slide_under(self, j: int):
        """Reverse slide from the cell below column ``j`` (0-based).  The
        hole moves up or left into filled cells, so it stops at the top of
        a column: the start column gains its bottom cell, that column loses
        its top cell and the columns in between keep their lengths."""
        offs, cols = self.offs, self.cols
        c, col = j, cols[j]
        h = len(col)  # the hole's index in column c; its row is r
        r = offs[j] + h
        if not h and not (j and offs[j - 1] <= r < offs[j - 1] + len(cols[j - 1])):
            raise BadIndex(f"({j + 1},{r + 1}) is not an outside corner; swap undefined here")
        col.append(None)
        while True:
            above = col[h - 1] if h else None
            left = None
            if c:
                lo, lcol = offs[c - 1], cols[c - 1]
                if lo <= r < lo + len(lcol):
                    left = lcol[r - lo]
            if above is not None and (left is None or above >= left):
                col[h] = above
                h -= 1
                r -= 1
            elif left is not None:
                col[h] = left
                c, col, h = c - 1, lcol, r - lo
            else:
                break
        del col[0]
        offs[c] = r + 1 if col else 0
        _check_skew(offs, cols, c, j)

    def length_swap(self, j: int):
        """The j-th length swap (1-based) in place; returns its
        :class:`LengthSwapStep`."""
        offs, cols = self.offs, self.cols
        k = len(cols)
        if not 1 <= j <= k - 1:
            raise BadIndex(f"swap index {j} outside 1..{k - 1}")
        left, right = cols[j - 1], cols[j]
        len_j, len_j1 = len(left), len(right)
        x = len_j - len_j1
        if x < 0:
            raise BadIndex(f"column {j} shorter than column {j + 1}; swap undefined here")
        if not len_j:
            raise BadIndex(f"columns {j} and {j + 1} are empty; swap undefined here")
        d = 0
        if j >= 2:
            lo, ro = offs[j - 2], offs[j - 1]
            d = max(0, min(lo + len(cols[j - 2]), ro + len_j) - max(lo, ro))
        bottom_left = left[-1]
        bottom_right = right[-1] if right else None
        self.pull_down(j - 1, d)
        for _ in range(x):
            self.slide_under(j)
        got = (len(left), len(right))
        if got != (len_j1, len_j):
            raise BadIndex(f"swap {j} undefined here: its slides gave lengths {got}, wanted {(len_j1, len_j)}")
        return LengthSwapStep(j, x, d, bottom_left, bottom_right, right[-1])


def length_swap(u: SkewTableau, j: int) -> SkewTableau:
    """The j-th length swap (j is 1-based): exchange the lengths of
    columns j and j+1 by pulling the columns left of j out of the way and
    running reverse slides under column j+1.

    The swap is defined when column j is filled and at least as long as
    column j+1, and each of the reverse slides, one per box of the
    difference, starts from an outside corner and ends at the top of
    column j, moving one box of column j into column j+1.  The right-key
    choreography meets this at every step.  An undefined swap raises
    :class:`BadIndex`.
    """
    w = _WorkingTableau(u.offsets(), [col for _off, col in u.columns])
    w.length_swap(j)
    return w.skew()


def swap_chain(t: Tableau, i: int):
    """The choreography of right-key column i (1-based): length swaps
    i..k-1 of ``t``, run in place on one working form.  Yields each swap's
    :class:`LengthSwapStep` with the working form after it, which the next
    swap changes; its ``skew()`` is that skew tableau, validated."""
    k = t.k
    if not 1 <= i <= k:
        raise BadIndex(f"column index {i} outside 1..{k}")
    w = _WorkingTableau([0] * k, t.columns)
    for j in range(i, k):
        yield w.length_swap(j), w


# -- keys via frank tableaux ----------------------------------------------


def right_key_column_oracle(t: Tableau, i: int, collect=None) -> tuple[int, ...]:
    """The i-th right-key column (1-based): rightmost column after length
    swaps i..k-1, which walks column i's length to the right edge.  The
    swap records are appended to ``collect`` when given."""
    w = None
    for st, w in swap_chain(t, i):
        if collect is not None:
            collect.append(st)
    return t.columns[-1] if w is None else tuple(w.cols[-1])


def right_key_oracle(t: Tableau, collect=None) -> Tableau:
    """The right key of ``t`` as a key tableau of the same shape."""
    cols = tuple(right_key_column_oracle(t, i, collect) for i in range(1, t.k + 1))
    return Tableau(cols, t.n)


def reversal_dual(t: Tableau) -> Tableau:
    """Rectification of ``t`` turned a half turn, each entry ``e``
    replaced by ``n+1-e``: an involution on tableaux of a fixed shape with
    entries <= n that exchanges the roles of left and right keys.  The
    turned skew tableau is not built: read right to left, each column top
    to bottom, it gives the columns of ``t`` left to right, each bottom to
    top and complemented, the word :func:`rectify` would insert."""
    n = t.n
    return _column_insert([n + 1 - e for col in t.columns for e in reversed(col)], n)


def complement_key(key: Tableau) -> Tableau:
    """Replace each entry ``e`` of ``key`` by ``n+1-e`` and reverse each
    column, so that the columns increase again."""
    n = key.n
    return Tableau(tuple([tuple([n + 1 - e for e in reversed(col)]) for col in key.columns]), n)


def left_key_oracle(t: Tableau) -> Tableau:
    """The left key of ``t``: the complement of the right key of the
    reversal dual of ``t``."""
    return complement_key(right_key_oracle(reversal_dual(t)))
