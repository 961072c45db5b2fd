"""Test-only witnesses and reference helpers that the package does not need."""

import random
from collections import Counter

from keyscan import jdt
from keyscan.demazure import SparsePolynomial
from keyscan.tableau import SkewTableau, Tableau, enumerate_tableaux
from keyscan.verify import shapes_up_to


def census(max_boxes, max_entry):
    """Every tableau of every shape with at most ``max_boxes`` boxes and
    columns of at most ``max_entry`` boxes, with entries <= ``max_entry``."""
    for shape in shapes_up_to(max_boxes, max_entry):
        yield from enumerate_tableaux(shape, max_entry)


def large_tableaux(count=200, seed=23):
    """``count`` seeded straight tableaux of 20 to 100 boxes, in turn wide
    (10 to 20 columns of at most 6 boxes), tall (2 to 6 columns of at most
    16 boxes, the first at least 8) and in between.  Column lengths lie
    between half the first one and the first one."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        kind = len(out) % 3
        if kind == 0:
            k, height = rng.randint(10, 20), rng.randint(2, 6)
        elif kind == 1:
            k, height = rng.randint(2, 6), rng.randint(8, 16)
        else:
            k, height = rng.randint(3, 10), rng.randint(3, 10)
        lengths = [height] + [rng.randint(max(1, height // 2), height) for _ in range(k - 1)]
        lengths.sort(reverse=True)
        if not 20 <= sum(lengths) <= 100:
            continue
        cols = []
        for c, length in enumerate(lengths):
            col = []
            for r in range(length):
                above = col[-1] + 1 if col else 1
                left = cols[c - 1][r] if c else 1
                col.append(max(above, left) + rng.randint(0, 2))
            cols.append(tuple(col))
        out.append(Tableau(tuple(cols), max(col[-1] for col in cols) + rng.randint(0, 2)))
    return out


def rows_from_scratch(t):
    """The rows of ``t``, read cell by cell from its columns."""
    height = len(t.columns[0]) if t.columns else 0
    return [[c[r] for c in t.columns if r < len(c)] for r in range(height)]


def straight_skew(t):
    """``t`` as a skew tableau: every column at offset 0."""
    return SkewTableau(tuple((0, col) for col in t.columns))


def rotate_180(t):
    """Rotate the diagram of ``t`` a half turn and replace each entry ``e``
    by ``n+1-e``: a legal skew tableau whose rectification is the reversal
    dual of ``t``."""
    if t.k == 0:
        return SkewTableau(())
    height = len(t.columns[0])
    cols = []
    for col in reversed(t.columns):
        cols.append((height - len(col), tuple(t.n + 1 - e for e in reversed(col))))
    return SkewTableau(tuple(cols))


def strict_inside_corners(cells: dict):
    """Inner cells (empty, with a filled cell below in their column or to
    the right in their row) whose right and lower neighbors are not inner:
    the holes a rectification slide may legally start from."""
    col_end: dict[int, int] = {}
    row_end: dict[int, int] = {}
    for c, r in cells:
        if col_end.get(c, -1) < r:
            col_end[c] = r
        if row_end.get(r, -1) < c:
            row_end[r] = c
    inner = {(c, r) for c, rmax in col_end.items() for r in range(rmax)}
    inner.update([(c, r) for r, cmax in row_end.items() for c in range(cmax)])
    inner.difference_update(cells)
    return sorted((c, r) for c, r in inner if (c + 1, r) not in inner and (c, r + 1) not in inner)


def rectify_from_scratch(u, choose):
    """Rectification by the public forward slide, finding every corner
    again after each slide; ``choose`` picks the slide's start from the
    sorted list of corners."""
    while True:
        corners = strict_inside_corners(u.cells())
        if not corners:
            # Slides keep emptied columns; a rectified tableau drops them.
            cols = tuple(col for _off, col in u.columns if col)
            assert all(off == 0 for off, col in u.columns if col)
            return Tableau(cols, max(max(col) for col in cols))
        u, _path = jdt.forward_slide(u, choose(corners))


def canonical_skew_diagram(lengths) -> tuple[int, ...]:
    """Minimal offsets making the ordered column lengths a legal skew
    diagram (outer and inner shapes both weakly decreasing)."""
    k = len(lengths)
    offs = [0] * k
    for i in range(k - 2, -1, -1):
        offs[i] = offs[i + 1] + max(0, lengths[i + 1] - lengths[i])
    return tuple(offs)


def skew_fillings(lengths, offsets, content):
    """All legal skew fillings of the given diagram of positive column
    lengths using exactly the multiset ``content`` of entries.

    Brute-force witness for the uniqueness of rectification preimages;
    intended for tiny diagrams only.
    """
    cells = [(c, offsets[c] + i) for c in range(len(lengths)) for i in range(lengths[c])]
    yield from _fill_skew(cells, 0, offsets, Counter(content), [[] for _ in lengths])


# Fills ``cells[pos:]`` column by column, the earlier cells being filled.
# Module-level, not a closure that calls itself: such a closure is a
# reference cycle left for the cyclic garbage collector.
def _fill_skew(cells, pos, offsets, remaining, filled):
    if pos == len(cells):
        yield SkewTableau(tuple((off, tuple(col)) for off, col in zip(offsets, filled)))
        return
    c, r = cells[pos]
    col = filled[c]
    lo = col[-1] + 1 if col else 1
    if c and offsets[c - 1] <= r < offsets[c - 1] + len(filled[c - 1]):
        lo = max(lo, filled[c - 1][r - offsets[c - 1]])
    for v in sorted(remaining):
        if remaining[v] and v >= lo:
            remaining[v] -= 1
            col.append(v)
            yield from _fill_skew(cells, pos + 1, offsets, remaining, filled)
            col.pop()
            remaining[v] += 1


def swap_variables(p: SparsePolynomial, i: int) -> SparsePolynomial:
    """Exchange variables i and i+1 (1-based i)."""
    out: dict = {}
    for mono, coeff in p.terms.items():
        m = list(mono)
        m[i - 1], m[i] = m[i], m[i - 1]
        key = tuple(m)
        out[key] = out.get(key, 0) + coeff
    return SparsePolynomial(p.nvars, {m: c for m, c in out.items() if c})


def is_symmetric_in(p: SparsePolynomial, i: int) -> bool:
    return p == swap_variables(p, i)


def dense_tableaux(count=200, seed=8):
    """``count`` seeded tableaux of 9 to about 100 boxes, dense in ties:
    about 70% of the entries sit at their lower bound (one more than the
    entry above, and no less than the entry to the left), the rest one or
    two above it, and the entry bound is the largest entry or one more.
    Columns are up to 12 long, so entries below row 5 are above 5.  Every
    50th tableau, from the first, has a run of 20 to 24 equal column
    lengths between longer and shorter columns, so that both keys compute
    one column for the run and copy it to the whole run."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        height = rng.randint(2, 12)
        if len(out) % 50 == 0:
            run = rng.randint(2, 4)
            lengths = [run] * rng.randint(20, 24)
            lengths += [run + rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
            lengths += [rng.randint(1, run - 1) for _ in range(rng.randint(1, 3))]
        else:
            lengths = [rng.randint(1, height) for _ in range(rng.randint(2, 16))]
        lengths.sort(reverse=True)
        if sum(lengths) < 9:
            continue
        cols = []
        for c, length in enumerate(lengths):
            col = []
            for r in range(length):
                lo = max(col[-1] + 1 if col else 1, cols[c - 1][r] if c else 1)
                col.append(lo if rng.random() < 0.7 else lo + rng.randint(1, 2))
            cols.append(tuple(col))
        out.append(Tableau(tuple(cols), max(col[-1] for col in cols) + rng.randint(0, 1)))
    return out
