"""Pure-Python scanning kernel.

Shares its contract with the compiled kernel in ``keyscan._scankernel``.
Both take ``cols``, the columns of a semistandard tableau (each a
strictly increasing sequence of ints), and offer two entry points:

* ``scan_columns(cols, starts)`` returns the scanning-tableau columns
  (the right key's columns), as tuples, at the 0-based start indices in
  ``starts``, in the order given;
* ``left_columns(cols, ends)`` returns the left key's columns, as tuples,
  at the 0-based indices in ``ends``, in the order given.  Column ``end``
  reads only ``cols[:end + 1]``.

The indices are a strictly increasing sequence.  An index outside
``0..len(cols) - 1`` raises ``IndexError``.  A left walk that finds no
entry to pick, which a semistandard input never causes, raises
``InternalInvariantError``.

Each entry point makes one sweep over the columns for all of its
indices.  The paper's passes for one index are carried column-major,
every pass at once, which is exact because a pass's choice in a column
depends only on its own previous member and on what earlier passes left
there.  The passes of different indices are carried at once too, as
nested sets in one sorted list: each element has a level, the last
position j in the index list whose set holds it, and the set of position
j is the elements of level at least j.  The passes themselves, which
``--explain`` prints, are read pass by pass in ``keyscan.scanning``.

**Right sweep.**  For a start column s, the last members of its passes
after column c form a set, the pass ends.  One column step F replaces,
for each entry v of the column taken bottom up, the largest pass end at
most v by v (no end is replaced when none is at most v).  Two facts make
the pass ends of the start columns nested:

(a) Let s < s' be start columns.  After column s', the pass ends of s
    contain all of column s'.  By induction over the columns, the i-th
    smallest pass end of s after column c is at most row i of column
    c + 1, because rows weakly increase.  So in column s' each entry,
    bottom up, finds a pass end at most itself that no larger entry took,
    and replaces it.
(b) One column step maps A ∪ {x} to F(A) ∪ {x'} for some x': adding an
    element to the pass ends changes the result by exactly one element.
    So nested sets stay nested, column after column.

The sweep starts at the first start column with its entries at level 0
and walks the later columns left to right.  Entry v replaces, at every
level, the largest element at most v.  In the merged list, largest
first, v takes the slot of the first element at most v, and a running
level starts at that element's level.  Walking on, an element whose
level is above the running level is v's replacement at the levels
between: it drops to the running level and lifts it.  The walk stops
once the running level reaches the top.  v gets the running level, or
the new top level when its column is the next start column, since by (a)
that column is then all of the new set.

**Left sweep.**  For an end column e, the picks of its passes after
column c form a set.  One column step G lets each pick, largest first,
take the largest entry at most itself that no larger pick took.  Read
the picks and the entries merged, largest first, a pick before an equal
entry: an entry is taken when a pick read before it still waits, and
one waiting pick stops waiting.  Two facts make the pick sets nested:

(c) Let e < e' be end columns.  The picks of e' after column e are
    entries of column e, and the set of e there is all of column e.
(d) One column step maps A ∪ {x} to G(A) ∪ {x'}: by induction along the
    merged reading, the larger pick set has as many waiting picks as the
    smaller one or one more, so it takes every entry the smaller one
    takes, and one more since every pick of a tableau finds an entry.

The sweep starts at the last end column with its entries at the top
level and walks right to left.  At each level an entry is taken when a
pick of that level or above waits, so it gets the highest waiting
level, and a pick of that level stops waiting; which one does not
matter, since every waiting pick is at least every entry still to come.
The list is rewritten in place: pick p takes the p-th entry taken.  A
pick at least the entry taken before it was waiting since the first
entry taken that is at most itself, so its level is carried in from
there: at each entry on the way, a higher level replaces the one
recorded, which waits on in its place.  At an end column the new level,
below the others, gets one pick above every entry for each entry the
column has beyond the picks.  They take whatever the old picks leave,
so the whole column is taken: the t-th largest entry has t + 1 picks at
least itself, because the old picks below it took distinct entries
below it.  A pick that finds no entry raises
``InternalInvariantError``.
"""

from __future__ import annotations

from itertools import compress


class InternalInvariantError(AssertionError):
    """Raised when a structural guarantee of the algorithms fails.

    Indicates a bug (or an invalid tableau smuggled past validation),
    never a user error.
    """


# Above every int: the picks an end column adds in the left sweep.
_ABOVE = float("inf")


def _sets(values, levels, count):
    """The sets of levels 0..count - 1 of a sweep's list, largest first,
    each as a tuple top to bottom: set j holds the values of level at
    least j.  Levels are never negative, so set 1 keeps the values of
    nonzero level without a test per value.  Each set is collected in a
    list first: a tuple built from an iterator grows by reallocation,
    which on sweeps of a hundred levels fragmented the heap and raised
    the peak resident memory by a few MiB."""
    values.reverse()
    out = [tuple(values)]
    if count > 1:
        levels.reverse()
        out.append(tuple([*compress(values, levels)]))
        for j in range(2, count):
            out.append(tuple([*compress(values, map(j.__le__, levels))]))
    return out


def scan_columns(cols, starts):
    """Columns ``starts`` (0-based) of the scanning tableau of ``cols``.

    The paper repeatedly takes the earliest weakly increasing
    subsequence of the bottom entries of the still-alive boxes in columns
    ``start..``, recording its last member and removing its boxes, until
    the start column is exhausted.  Pass p (0-based) starts with entry
    ``-1 - p`` of the start column.  ``ends`` holds the pass ends of the
    first start column, largest first, and ``levels`` their levels.  Each
    later column is read bottom-up, and one iterator over ``ends``
    carries each entry on to the first end at most itself; the column
    ends when its entries or the pass ends run out.
    """
    if not starts:
        return []
    first = starts[0]
    if first < 0 or starts[-1] >= len(cols):
        raise IndexError(f"start columns {first}..{starts[-1]} not in 0..{len(cols) - 1}")
    ends = [*cols[first][::-1]]
    levels = [0] * len(ends)
    top = 0
    nxt = starts[1] if len(starts) > 1 else -1
    for c in range(first + 1, len(cols)):
        new = c == nxt
        passes = enumerate(ends)
        for v in reversed(cols[c]):
            for p, e in passes:
                if v >= e:
                    break
            else:
                break
            ends[p] = v
            run = levels[p]
            if run < top:
                for q in range(p + 1, len(ends)):
                    l = levels[q]
                    if l > run:
                        levels[q] = run
                        run = l
                        if run == top:
                            break
                levels[p] = run
            if new:
                levels[p] = top + 1
        if new:
            top += 1
            nxt = starts[top + 1] if top + 1 < len(starts) else -1
    return _sets(ends, levels, top + 1)


def left_columns(cols, ends):
    """Columns ``ends`` (0-based) of the left key of ``cols``.

    Pass p (0-based) of column ``end`` starts with entry ``-1 - p`` of
    that column and walks right to left, picking in each column the
    largest entry not above its previous pick among the boxes above
    those picked by earlier passes; its pick in the first column is an
    entry of the key.  ``picks`` holds the picks of every end, largest
    first, and ``levels`` their levels; ``j`` is the lowest level.  In
    each column one iterator over the entries serves every pick, and
    ``v`` is the entry taken by the pick before.
    """
    if not ends:
        return []
    j = len(ends) - 1
    last = ends[j]
    if ends[0] < 0 or last >= len(cols):
        raise IndexError(f"end columns {ends[0]}..{last} not in 0..{len(cols) - 1}")
    picks = [*cols[last][::-1]]
    levels = [j] * len(picks)
    nxt = ends[j - 1] if j else -1
    for c in range(last - 1, -1, -1):
        col = cols[c]
        if c == nxt:
            j -= 1
            nxt = ends[j - 1] if j else -1
            extra = len(col) - len(picks)
            picks[:0] = [_ABOVE] * extra
            levels[:0] = [j] * extra
        entries = reversed(col)
        v = _ABOVE
        for p, a in enumerate(picks):
            if a >= v:
                # Pick p waited while the entries from s on were taken.
                x = levels[p]
                if x > j:
                    s = p - 1
                    while s and picks[s - 1] <= a:
                        s -= 1
                    while s < p:
                        l = levels[s]
                        if l < x:
                            levels[s] = x
                            x = l
                        s += 1
                    levels[p] = x
            for v in entries:
                if v <= a:
                    break
            else:
                raise InternalInvariantError(
                    "left scan found no entry <= previous pick; input not semistandard?"
                )
            picks[p] = v
    return _sets(picks, levels, len(ends))
