"""Pure-Python scanning kernel.

Shares its contract with the compiled kernel in ``keyscan._scankernel``.
Both take ``cols``, a sequence of columns (each a strictly increasing
sequence of ints), and offer two entry points:

* ``scan_columns(cols, starts)`` returns the scanning-tableau columns
  (the right key's columns), as tuples, at the 0-based start indices in
  ``starts``, in the order given;
* ``left_columns(cols, ends)`` returns the left key's columns, as tuples,
  at the 0-based indices in ``ends``, in the order given.  Column ``end``
  reads only ``cols[:end + 1]``.

An index outside ``0..len(cols) - 1`` raises ``IndexError``.  A left
walk that finds no entry to pick, which a semistandard input never
causes, raises ``InternalInvariantError``.

Both kernels run both scans column-major: every pass is carried along
at once, and each column is visited once for all of them.  This is an
exact reordering of the paper's pass-by-pass scans, because pass p's
choice in a column depends only on its own previous member and on what
passes before p left in that column.  The passes themselves, which
``--explain`` prints, are read pass by pass in ``keyscan.scanning``.
"""

from __future__ import annotations


class InternalInvariantError(AssertionError):
    """Raised when a structural guarantee of the algorithms fails.

    Indicates a bug (or an invalid tableau smuggled past validation),
    never a user error.
    """


def scan_columns(cols, starts):
    """Columns ``starts`` (0-based) of the scanning tableau of ``cols``.

    The paper repeatedly takes the earliest weakly increasing
    subsequence of the bottom entries of the still-alive boxes in columns
    ``start..``, recording its last member and removing its boxes, until
    the start column is exhausted.  Pass p (0-based) starts with entry
    ``-1 - p`` of the start column.  Here ``last[p]`` is pass p's last
    member so far.  Each later column is read bottom-up, and one iterator
    over the passes carries each entry on to the first pass it extends:
    pass p takes it iff it is at least ``last[p]``.  The column ends when
    its entries or the passes run out.  The passes' last entries are
    returned top to bottom.
    """
    out = []
    for start in starts:
        if not 0 <= start < len(cols):
            raise IndexError(f"start column {start} outside 0..{len(cols) - 1}")
        last = list(reversed(cols[start]))
        for col in cols[start + 1:]:
            passes = enumerate(last)
            for v in reversed(col):
                for p, l in passes:
                    if v >= l:
                        last[p] = v
                        break
                else:
                    break
        last.reverse()
        out.append(tuple(last))
    return out


def left_columns(cols, ends):
    """Columns ``ends`` (0-based) of the left key of ``cols``.

    Pass p (0-based) of column ``end`` starts with entry ``-1 - p`` of
    that column and walks right to left, picking in each column the
    largest entry not above its previous pick among the boxes above
    those picked by earlier passes; its pick in the first column is an
    entry of the key.  The picks of successive passes strictly decrease,
    and so do their indices in each column, so one bottom-to-top iterator
    over each column serves every pass.
    """
    out = []
    for end in ends:
        if not 0 <= end < len(cols):
            raise IndexError(f"end column {end} outside 0..{len(cols) - 1}")
        picks = list(reversed(cols[end]))
        for col in reversed(cols[:end]):
            entries = reversed(col)
            for p, a in enumerate(picks):
                for v in entries:
                    if v <= a:
                        break
                else:
                    raise InternalInvariantError(
                        "left scan found no entry <= previous pick; input not semistandard?"
                    )
                picks[p] = v
        picks.reverse()
        out.append(tuple(picks))
    return out
