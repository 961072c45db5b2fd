"""Spans around the public functions of each keyscan module.

The benchmark's traced run patches module attributes (and two methods)
with timing wrappers, runs the workload, and restores the originals.
Nothing under ``src/`` knows about it.

Spans are aggregated by ``(name, parent name)`` rather than kept one by
one, so a traced census run with hundreds of thousands of slides fits
in memory.  A
span's self time is its duration minus the time covered by its child
spans.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager

# (module, attribute, span name).  "kernel" stands for the active
# scanning kernel module, whichever one ``keyscan.scanning`` picked.
FUNCTIONS = [
    ("cli", "main", "cli.main"),
    ("tableau", "parse_tableau", "tableau.parse_tableau"),
    ("tableau", "format_tableau", "tableau.format_tableau"),
    ("tableau", "enumerate_tableaux", "tableau.enumerate_tableaux"),
    ("tableau", "entrywise_leq", "tableau.entrywise_leq"),
    ("kernel", "scan_columns", "scanning.scan_columns"),
    ("scanning", "scanning_tableau", "scanning.scanning_tableau"),
    ("scanning", "left_key", "scanning.left_key"),
    ("scanning", "ewis", "scanning.ewis"),
    ("jdt", "right_key_oracle", "jdt.right_key_oracle"),
    ("jdt", "left_key_oracle", "jdt.left_key_oracle"),
    ("jdt", "length_swap", "jdt.length_swap"),
    ("jdt", "reverse_slide", "jdt.reverse_slide"),
    ("jdt", "rectify", "jdt.rectify"),
    ("demazure", "demazure_character", "demazure.demazure_character"),
    ("demazure", "format_polynomial", "demazure.format_polynomial"),
    ("verify", "run_sweep", "verify.run_sweep"),
    ("verify", "check_tableau", "verify.check_tableau"),
]

# (module, class, method, span name): validation runs in __post_init__.
METHODS = [
    ("tableau", "Tableau", "__post_init__", "tableau.Tableau"),
    ("tableau", "SkewTableau", "__post_init__", "tableau.SkewTableau"),
    ("demazure", "SparsePolynomial", "__add__", "demazure.SparsePolynomial.__add__"),
]

# Extra counts recorded at a span boundary, from the call's arguments.
ARG_COUNTS = {
    "scanning.scan_columns": ("boxes", lambda cols: sum(map(len, cols))),
}

LAYERS = ("cli", "tableau", "scanning", "jdt", "demazure", "verify")


class Tracer:
    """Aggregated spans: ``stats[(name, parent)] = [calls, total_s, child_s]``
    plus named counts in ``counts[name]``."""

    def __init__(self):
        self.stats: dict = {}
        self.counts: dict = {}
        self.stack: list = []

    def wrap(self, name, fn):
        stats, stack, clock = self.stats, self.stack, time.perf_counter
        counts = self.counts
        extra = ARG_COUNTS.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = stats.get((name, parent))
                if rec is None:
                    rec = stats[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += frame[1]
                if extra is not None:
                    key = f"{name}.{extra[0]}"
                    counts[key] = counts.get(key, 0) + extra[1](args[0])

        return traced

    def wrap_generator(self, name, fn):
        """A generator's span covers only its own resumptions, so the
        consumer's work between items is not charged to it."""
        resume = self.wrap(name, next)
        counts = self.counts

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            counts[f"{name}.calls"] = counts.get(f"{name}.calls", 0) + 1
            while True:
                try:
                    item = resume(it)
                except StopIteration:
                    return
                counts[f"{name}.yielded"] = counts.get(f"{name}.yielded", 0) + 1
                yield item

        return traced

    # -- aggregation -------------------------------------------------------

    def totals(self):
        """Per span name: (calls, total_s, self_s), summed over parents."""
        out: dict = {}
        for (name, _parent), (calls, total, child) in self.stats.items():
            c, t, s = out.get(name, (0, 0.0, 0.0))
            out[name] = (c + calls, t + total, s + total - child)
        return out

    def layer_self(self):
        """Self time per layer (the module part of the span name)."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_calls, _total, self_s) in self.totals().items():
            out[name.split(".", 1)[0]] += self_s
        return out


def _modules():
    return {
        name: mod
        for name, mod in sys.modules.items()
        if name == "keyscan" or name.startswith("keyscan.")
    }


@contextmanager
def traced(tracer: Tracer):
    """Patch every binding of the traced functions in the loaded keyscan
    modules (``from x import f`` copies included); restore on exit."""
    import keyscan.cli  # noqa: F401  (loads every module that is traced)
    from keyscan import scanning

    mods = _modules()
    saved = []
    try:
        for modname, attr, name in FUNCTIONS:
            home = scanning._kernel if modname == "kernel" else mods[f"keyscan.{modname}"]
            original = getattr(home, attr)
            if inspect.isgeneratorfunction(original):
                wrapper = tracer.wrap_generator(name, original)
            else:
                wrapper = tracer.wrap(name, original)
            targets = [home] + [m for m in mods.values() if m is not home]
            for mod in targets:
                if getattr(mod, attr, None) is original:
                    saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        for modname, clsname, meth, name in METHODS:
            cls = getattr(mods[f"keyscan.{modname}"], clsname)
            original = cls.__dict__[meth]
            saved.append((cls, meth, original))
            setattr(cls, meth, tracer.wrap(name, original))
        yield tracer
    finally:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)
