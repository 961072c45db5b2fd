"""Pure-Python scanning kernel.

Shares its contract with the compiled kernel in ``keyscan._scankernel``:
``scan_columns(cols, starts)`` takes a sequence of columns (each a
strictly increasing sequence of ints) and an iterable of 0-based start
indices, and returns the list of scanning-tableau columns, as tuples, at
those start indices in the order given.  A start outside
``0..len(cols) - 1`` raises ``IndexError``.
"""

from __future__ import annotations


def scan_start_column(cols, start, trace=None):
    """Column ``start`` (0-based) of the scanning tableau of ``cols``.

    Repeatedly takes the earliest weakly increasing subsequence of the
    bottom entries of the still-alive boxes in columns ``start..``,
    recording its last member and removing its boxes, until the start
    column is exhausted.  Recorded members are returned top to bottom.
    With ``trace`` a list, appends each pass's members in scan order.
    """
    if not 0 <= start < len(cols):
        raise IndexError(f"start column {start} outside 0..{len(cols) - 1}")
    alive = [len(cols[i]) for i in range(start, len(cols))]
    out = []
    while alive[0] > 0:
        if trace is not None:
            before = alive[:]
        last = -1
        for idx, a in enumerate(alive):
            if a == 0:
                continue
            v = cols[start + idx][a - 1]
            if v >= last:
                last = v
                alive[idx] = a - 1
        if trace is not None:
            trace.append(tuple(
                cols[start + idx][a] for idx, (a, b) in enumerate(zip(alive, before))
                if a != b
            ))
        out.append(last)
    out.reverse()
    return tuple(out)


def scan_columns(cols, starts):
    return [scan_start_column(cols, s) for s in starts]
