"""Core data model: shapes, semistandard tableaux, skew tableaux, text I/O.

Conventions used throughout the package:

* A *shape* is a weakly decreasing tuple of positive column lengths.
  Shapes are notated by column lengths, not row lengths; use
  :func:`conjugate` to convert between the two conventions.
* Columns are tuples of entries, strictly increasing top to bottom.
* Rows weakly increase left to right.
* Every tableau carries an entry bound ``n``; all entries lie in ``1..n``.
"""

from __future__ import annotations

from itertools import zip_longest
from operator import attrgetter


class TableauError(ValueError):
    """Base class for all validation and parsing errors."""


class RaggedShape(TableauError):
    pass


class NonDecreasingColumn(TableauError):
    pass


class DecreasingRow(TableauError):
    pass


class EntryOutOfBound(TableauError):
    pass


class ShapeMismatch(TableauError):
    pass


class TableauSyntaxError(TableauError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}" + (f", column {column}" if column is not None else "") + f": {message}"
        super().__init__(message)


class _Value:
    """Base of the value classes: equality, hash and repr read the fields in
    ``_fields``, in order, as a dataclass's do; each subclass writes ``__init__``."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        if cls._fields:
            cls._get = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._get(self) == self._get(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple([getattr(self, f) for f in self._fields]))

    def __repr__(self):
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{self.__class__.__qualname__}({fields})"


class _Frozen(_Value):
    """A value class whose fields, set by ``object.__setattr__``, are read-only."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def is_shape(lengths) -> bool:
    """True iff the iterable ``lengths`` is weakly decreasing and of
    positive integers; the one shape rule of the package."""
    prev = 0  # 0 only before the first length
    for x in lengths:
        if type(x) is not int or x < 1 or 0 < prev < x:
            return False
        prev = x
    return True


def conjugate(lengths) -> tuple[int, ...]:
    """Conjugate partition: converts column lengths to row lengths and back."""
    lengths = tuple(lengths)
    return tuple(sum(1 for x in lengths if x >= r) for r in range(1, max(lengths, default=0) + 1))


class Tableau(_Frozen):
    """A semistandard Young tableau, stored column by column.

    ``columns[i][r]`` is the entry in column ``i`` (0-based), row ``r``
    (0-based from the top).  Construction validates semistandardness and
    raises a :class:`TableauError` subclass naming the first violation.
    """

    _fields = ("columns", "n")

    def __init__(self, columns: tuple[tuple[int, ...], ...], n: int):
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "n", n)
        self.__post_init__()

    def __post_init__(self):
        """Raise the first violation: a bad entry bound, the shape, then each
        entry in reading order, for its range, its column, then its row."""
        columns, n = self.columns, self.n
        _check_bound(n)
        if not is_shape(map(len, columns)):
            raise RaggedShape(f"column lengths {tuple(map(len, columns))} do not form a shape")
        # Column 1 is its own left neighbour, so its row test never fails.
        # A later column that is the very object to its left has passed
        # every test already, and equal neighbours keep the row rule.
        left = columns[0] if columns else ()
        for i, col in enumerate(columns):
            if col is left and i:
                continue
            above = 0
            for r, e in enumerate(col):
                if type(e) is not int or e < 1 or e > n:
                    raise EntryOutOfBound(
                        f"entry {e!r} at row {r + 1}, column {i + 1} is not an integer in 1..{n}"
                    )
                if above >= e:
                    raise NonDecreasingColumn(
                        f"column {i + 1} not strictly increasing at row {r + 1}"
                    )
                if left[r] > e:
                    raise DecreasingRow(f"row {r + 1} decreases between columns {i} and {i + 1}")
                above = e
            left = col

    # -- basic structure -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple([len(c) for c in self.columns])

    @property
    def k(self) -> int:
        return len(self.columns)

    def rows(self) -> list[list[int]]:
        """The filling as top-left-justified rows."""
        return list(map(list, _transpose(self.columns)))

    def bottom_entries(self) -> tuple[int, ...]:
        return tuple(c[-1] for c in self.columns)

    @classmethod
    def from_rows(cls, rows, n=None) -> "Tableau":
        """Build and validate a tableau from a top-left-justified grid of rows."""
        rows = [list(r) for r in rows]
        widths = [len(r) for r in rows]
        if not is_shape(widths):
            raise RaggedShape(f"row lengths {widths} are not top-left justified")
        if n is None:
            n = max(map(max, rows), default=1)
        return cls(tuple(_transpose(rows)), n)

    # -- derived quantities ----------------------------------------------

    def is_key(self) -> bool:
        """True iff each column's entry set is contained in the column to its left."""
        return all(
            set(self.columns[i]) <= set(self.columns[i - 1])
            for i in range(1, len(self.columns))
        )

    def weight(self) -> tuple[int, ...]:
        """Multiplicity vector: component ``i`` counts occurrences of entry ``i+1``."""
        w = [0] * self.n
        for col in self.columns:
            for e in col:
                w[e - 1] += 1
        return tuple(w)

    def __str__(self):
        return format_tableau(self)


def _transpose(lines) -> list[tuple]:
    """The columns of a top-left-justified grid given as its rows, or its
    rows given as its columns: the lines' lengths must weakly decrease.
    Cut ``i`` of ``zip_longest`` is padded past the lines longer than
    ``i``, so it is cut back to their number."""
    widths = list(map(len, lines))
    height = len(lines)
    cuts = []
    for i, cut in enumerate(zip_longest(*lines)):
        while widths[height - 1] <= i:
            height -= 1
        cuts.append(cut[:height])
    return cuts


def _check_bound(n, error=EntryOutOfBound):
    """Raise ``error`` unless ``n`` is an int >= 1."""
    if type(n) is not int:
        raise error(f"entry bound {n!r} is not an integer")
    if n < 1:
        raise error(f"entry bound must be >= 1, got {n}")


def entrywise_leq(a: Tableau, b: Tableau) -> bool:
    """True iff every entry of ``a`` is <= the corresponding entry of ``b``."""
    if a.shape != b.shape:
        raise ShapeMismatch(f"shapes {a.shape} and {b.shape} differ")
    return all(
        x <= y for ca, cb in zip(a.columns, b.columns) for x, y in zip(ca, cb)
    )


# -- text format ----------------------------------------------------------


def _decimal(tok: str) -> int:
    """``int(tok)`` for ASCII text without underscores: ``int`` alone also
    reads ``1_0`` as 10 and non-ASCII digits such as ``١``."""
    if not tok.isascii() or "_" in tok:
        raise ValueError(tok)
    return int(tok)


def _row(tokens, lineno) -> list[int]:
    """The entries of a row line, read token by token so that the first
    token that is not a positive ASCII decimal is named."""
    row = []
    for colno, tok in enumerate(tokens, start=1):
        try:
            e = _decimal(tok)
        except ValueError:
            raise TableauSyntaxError(f"not an integer: {tok!r}", lineno, colno)
        if e < 1:
            raise TableauSyntaxError("entries must be positive", lineno, colno)
        row.append(e)
    return row


def parse_tableau(text: str) -> Tableau:
    """Read a tableau from text, one row per line, top-left justified.

    A line ends at ``\\n``, ``\\r\\n`` or ``\\r``; every other whitespace
    character separates tokens.  Each token of a row is a positive ASCII
    decimal integer.  An optional line ``n=<bound>`` before the first row
    fixes the entry bound; without it the bound is the largest entry.
    Blank lines before the first row or header are skipped; a blank line
    after them ends the tableau, and the rest of the text is ignored.
    Errors are :class:`TableauSyntaxError`, naming the line and, for an
    entry, the column of the first bad token, or a :class:`TableauError`
    from validating the rows.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:  # the text ended a line, as splitlines() reads it
        lines.pop()
    n = None
    rows = []
    lineno = 0
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            if rows or n is not None:
                break
            continue
        if stripped.startswith("n=") and not rows:
            try:
                n = _decimal(stripped[2:])
            except ValueError:
                raise TableauSyntaxError(f"bad entry bound {stripped!r}", lineno)
            if n < 1:
                raise TableauSyntaxError("entry bound must be positive", lineno)
            continue
        tokens = stripped.split()
        row = None
        if stripped.isascii() and "_" not in stripped:
            try:
                row = list(map(int, tokens))
            except ValueError:
                pass
        if row is None or min(row) < 1:
            row = _row(tokens, lineno)
        rows.append(row)
    if not rows and n is None:
        raise TableauSyntaxError("empty input", lineno or 1)
    return Tableau.from_rows(rows, n)


def format_tableau(t: Tableau, header: bool = True) -> str:
    """The text of ``t`` that :func:`parse_tableau` reads back: the header
    ``n=<bound>`` unless ``header`` is false, then one line per row."""
    text = {e: str(e) for e in set().union(*t.columns)}  # a key repeats few values
    lines = [" ".join(map(text.__getitem__, row)) for row in _transpose(t.columns)]
    if header:
        lines.insert(0, f"n={t.n}")
    return "\n".join(lines) + "\n"


# -- enumeration -----------------------------------------------------------


def _columns_of_length(length: int, n: int, lower, upper=None) -> list[tuple[int, ...]]:
    """Strictly increasing columns of the given length with entries <= n,
    bounded below entrywise by ``lower`` (row-weak condition with the column
    to the left) and, when ``upper`` is given, above entrywise by it (one
    bound per row).  Returned in lexicographic order."""
    out: list = []
    _fill_column(0, 1, [0] * length, n, lower, upper, out)
    return out


# Appends to ``out`` every allowed completion of ``col[:r]`` with row r at
# least ``lo``.  Not a closure: a closure that calls itself is a reference
# cycle, which leaves every call's lists to the cyclic garbage collector.
def _fill_column(r, lo, col, n, lower, upper, out):
    length = len(col)
    lo = max(lo, lower[r] if r < len(lower) else 1)
    hi = n - (length - 1 - r)
    if upper is not None:
        hi = min(hi, upper[r])
    for e in range(lo, hi + 1):
        col[r] = e
        if r + 1 == length:
            out.append(tuple(col))
        else:
            _fill_column(r + 1, e + 1, col, n, lower, upper, out)


def _check_shape(shape, n):
    """``shape`` as a tuple, once it and ``n`` pass the checks of enumeration."""
    _check_bound(n)
    shape = tuple(shape)
    if not is_shape(shape):
        raise RaggedShape(f"{shape} is not a shape")
    return shape


def enumerate_tableaux(shape, n: int):
    """Yield every semistandard tableau of ``shape`` with entries <= ``n``.

    Order is lexicographic by column reading word (each column read top to
    bottom, columns left to right), which keeps golden files stable.
    An entry bound below 1 raises :class:`EntryOutOfBound`.
    """
    yield from _fill_tableaux(_check_shape(shape, n), n, 0, (), [])


# Yields every tableau of ``shape`` whose first ``i`` columns are ``acc``,
# ``prev`` being the last of them.  Module-level for the same reason as
# ``_fill_column``.
def _fill_tableaux(shape, n, i, prev, acc):
    if i == len(shape):
        yield Tableau(tuple(acc), n)
        return
    for col in _columns_of_length(shape[i], n, prev):
        acc.append(col)
        yield from _fill_tableaux(shape, n, i + 1, col, acc)
        acc.pop()


def count_tableaux(shape, n: int) -> int:
    """Number of semistandard tableaux of ``shape`` with entries <= ``n``.

    Stanley's hook-content formula: the product over the boxes u of
    (n + c(u)) / h(u), where the content c(u) is the box's column less its
    row and the hook h(u) counts the box, the boxes below it and those to
    its right.  It shares no code with the enumerator, which makes it the
    counting oracle the enumeration is checked against.  Validates
    ``shape`` and ``n`` as :func:`enumerate_tableaux` does.
    """
    shape = _check_shape(shape, n)
    top = bottom = 1
    for i, length in enumerate(shape):
        for r in range(length):
            top *= n + i - r
            bottom *= length - r + sum(1 for later in shape[i + 1:] if later > r)
    return top // bottom


# -- skew tableaux ---------------------------------------------------------


class SkewTableau(_Frozen):
    """A filling of a skew diagram, stored as (offset, entries) per column.

    Column ``i`` occupies rows ``offset .. offset+len(entries)-1``; an
    empty column places no cell and is stored at offset 0.  After
    length swaps the column lengths need not be weakly decreasing; validity
    is adjacency-level only: strict down each column, weak along every pair
    of horizontally adjacent boxes.  One checker, :func:`_check_skew`,
    serves construction and the jdt oracle's in-place length swaps.
    """

    _fields = ("columns",)

    def __init__(self, columns: tuple[tuple[int, tuple[int, ...]], ...]):
        object.__setattr__(self, "columns", columns)
        self.__post_init__()

    def __post_init__(self):
        cols = self.columns
        _check_skew([off for off, _ in cols], [col for _, col in cols], 0, len(cols) - 1)

    def lengths(self) -> tuple[int, ...]:
        return tuple(len(col) for _, col in self.columns)

    def offsets(self) -> tuple[int, ...]:
        return tuple(off for off, _ in self.columns)

    def cells(self) -> dict[tuple[int, int], int]:
        """All filled cells as a ``{(column, row): entry}`` dict."""
        out = {}
        for c, (off, col) in enumerate(self.columns):
            for r, e in enumerate(col):
                out[(c, off + r)] = e
        return out


def _check_skew(offs, cols, first, last):
    """Check columns ``first..last`` (0-based) of a skew tableau given as
    column offsets and entries, then the rows between columns ``c - 1``
    and ``c`` for each ``c`` in ``first..last + 1`` that has both; raise
    the first violation, columns before rows, each left to right."""
    for c in range(first, last + 1):
        off, col = offs[c], cols[c]
        if type(off) is not int:
            raise RaggedShape(f"offset {off!r} in column {c + 1} is not an integer")
        if off < 0:
            raise RaggedShape(f"negative offset in column {c + 1}")
        if off and not col:
            raise RaggedShape(f"empty column {c + 1} stored at offset {off}, not 0")
        prev = 0
        for e in col:
            if type(e) is not int or e <= prev:
                if type(e) is not int or e < 1:
                    raise EntryOutOfBound(f"bad entry {e} in column {c + 1}")
                raise NonDecreasingColumn(f"column {c + 1} not strictly increasing")
            prev = e
    # Conditional expressions, not max(): this runs after every pull-down
    # and reverse slide of the oracle, where each builtin call shows.
    k = len(cols)
    for c in range(first or 1, last + 2 if last + 2 < k else k):
        lo, ro = offs[c - 1], offs[c]
        left, right = cols[c - 1], cols[c]
        for r in range(lo if lo > ro else ro, min(lo + len(left), ro + len(right))):
            if left[r - lo] > right[r - ro]:
                raise DecreasingRow(f"row {r + 1} decreases between columns {c} and {c + 1}")
