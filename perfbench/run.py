"""The keyscan benchmark: one workload per run, driven through the CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload {census,keys,demazure} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

Each item is a ``keyscan`` command line run in-process through
``keyscan.cli.main(argv)`` with standard input and output redirected,
serially (closed loop, one caller, ``--jobs 1``).  A pass runs every
item of the workload once, in an order drawn from the seed for each
pass; passes repeat while another one fits in ``--seconds``, and every
slice of a pass counts with its fastest repeat (see ``Runs``).  The
program's outputs are checked after the timed passes (see
``workloads.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes over the same items and reports the
per-layer metrics of ``spans.py``, per pass, plus the tracing overhead.
``--size tiny`` shrinks every workload for the self-test.

The last line of standard output is the result as one JSON object.
The line before it is the full run record (metadata, input properties,
raw samples), which is also written to
``perfbench/results/BENCH_<workload>_seed<seed>_trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

# Fresh interpreters timed for setup_s, spread over the run; one more
# runs first so that byte-code compilation, which a user pays once, is
# not counted.
SETUP_SAMPLES = 25
IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import keyscan.cli; "
    "print(time.perf_counter() - t)"
)

END_TO_END = {
    "items_per_s": "1/s", "item_ms_p50": "ms", "item_ms_p90": "ms",
    "setup_s": "s", "peak_rss_mb": "MiB",
}


def _env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def time_setup():
    """Seconds to ``import keyscan.cli`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER], env=_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout)


def run_metadata(args):
    from keyscan import scanning

    digest = hashlib.sha256()
    for path in sorted((SRC / "keyscan").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "command": ["python3", "perfbench/run.py"] + sys.argv[1:],
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "kernel": scanning.kernel_name(),
        "keyscan_pure": bool(os.environ.get("KEYSCAN_PURE")),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu_count": os.cpu_count(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# -- running items ---------------------------------------------------------


def call(item):
    """Run one command line; returns (exit code, stdout, seconds, error)."""
    from keyscan import cli

    out = io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(item.stdin)
    error = None
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            try:
                rc = cli.main(list(item.argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a traceback is a failed item, not a failed run
                rc, error = -1, traceback.format_exc()
            dt = time.perf_counter() - t0
    finally:
        sys.stdin = saved_stdin
    return rc, out.getvalue(), dt, error


@dataclass
class Pass:
    """One run of every item.  Throughput is built from slices: each has
    ``slice_work`` items of work done in ``slice_s`` seconds.  A slice is
    a CLI call, or one shape of a census sweep.  ``latencies`` are the
    seconds of each item.  All three lists have the same order on every
    pass; ``shapes`` names the census slices as (item index, shape)."""

    results: list
    slice_work: list
    slice_s: list
    latencies: list
    shapes: list = field(default_factory=list)


def run_pass(items, order=None):
    """A pass over the items, run in ``order`` (by default as listed);
    the lists of the returned pass follow the items' own order.  When
    the items are ``verify`` sweeps, the census's items are the tableaux
    inside them: each ``verify.check_tableau`` call is timed, and each
    shape of each sweep is a slice."""
    from keyscan import verify

    checks = []
    original = verify.check_tableau

    def timed(t, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(t, *args, **kwargs)
        finally:
            checks.append((t.shape, t0, time.perf_counter()))

    verify.check_tableau = timed
    results, spans = [None] * len(items), [None] * len(items)
    try:
        for i in range(len(items)) if order is None else order:
            start = len(checks)
            results[i] = call(items[i])
            spans[i] = (start, len(checks))
    finally:
        verify.check_tableau = original
    if not checks:
        seconds = [r[2] for r in results]
        return Pass(results, [item.work for item in items], seconds, seconds)
    # A shape's slice runs from the end of the previous shape's last
    # check in the same sweep to the end of its own, so it includes the
    # enumeration.
    slices, counts = {}, {}
    for i, (start, end) in enumerate(spans):
        mark = checks[start][1]
        for shape, _t0, t1 in checks[start:end]:
            slices[i, shape] = slices.get((i, shape), 0.0) + t1 - mark
            counts[i, shape] = counts.get((i, shape), 0) + 1
            mark = t1
    latencies = [t1 - t0 for start, end in spans for _s, t0, t1 in checks[start:end]]
    return Pass(results, list(counts.values()), list(slices.values()), latencies,
                list(slices))


class Runs:
    """What a run keeps of its passes: in ``best``, the first pass with
    each slice's and each item's fastest time over the passes; in
    ``outcomes``, how many passes gave each distinct (item index, exit
    code, output, error); in ``pass_s``, each pass's time.  The host is
    shared, so a slower repeat of the same work measures the neighbours;
    the fastest one measures the program.  The memory kept does not grow
    with the number of passes, so peak_rss_mb does not grow with the
    program's speed."""

    def __init__(self, name):
        self.name = name
        self.best = None
        self.outcomes = Counter()
        self.pass_s = []

    def add(self, p):
        from workloads import normalise

        self.pass_s.append(sum(r[2] for r in p.results))
        for i, (rc, out, _dt, err) in enumerate(p.results):
            self.outcomes[i, rc, normalise(self.name, out), err] += 1
        if self.best is None:
            self.best = p
        else:
            self.best.slice_s = list(map(min, self.best.slice_s, p.slice_s))
            self.best.latencies = list(map(min, self.best.latencies, p.latencies))

    def seconds(self):
        """Seconds for one pass, summing each slice's fastest time."""
        return sum(self.best.slice_s)


# -- correctness -----------------------------------------------------------


def tally(name, items, runs):
    """(attempted, failed) items of work over all passes of the runs.  An
    execution fails if it exits nonzero or its output fails the
    workload's gate."""
    from workloads import check

    attempted = failed = 0
    for r in runs:
        for (i, rc, out, _err), n in r.outcomes.items():
            attempted += n * items[i].work
            if not check(name, items[i], rc, out):
                failed += n * items[i].work
    return attempted, failed


# -- metrics ---------------------------------------------------------------


def quantile(values, q):
    """The q-th percentile (q in 1..99) by statistics.quantiles."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(runs, setup, peak_rss_mb):
    latencies_ms = [dt * 1000 for dt in runs.best.latencies]
    return {
        "items_per_s": sum(runs.best.slice_work) / runs.seconds(),
        "item_ms_p50": statistics.median(latencies_ms),
        "item_ms_p90": quantile(latencies_ms, 90),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(name, tracer, traced, untraced):
    """Per-layer numbers for one pass: traced totals over the traced passes."""
    n = len(traced.pass_s)
    totals = tracer.totals()

    def calls(span):
        return totals.get(span, (0, 0.0, 0.0))[0] / n

    def total_s(span):
        return totals.get(span, (0, 0.0, 0.0))[1] / n

    def self_s(span):
        return totals.get(span, (0, 0.0, 0.0))[2] / n

    def count(key):
        return tracer.counts.get(key, 0) / n

    kept = 0.0
    if name == "demazure":
        from workloads import kept_tableaux

        kept = sum(kept_tableaux(r[1]) for r in traced.best.results)
    visited = count("tableau.enumerate_tableaux.yielded")
    metrics = {
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "tableau.parse_tableau.s": total_s("tableau.parse_tableau"),
        "tableau.format_tableau.s": total_s("tableau.format_tableau"),
        "tableau.Tableau.calls": calls("tableau.Tableau"),
        "tableau.Tableau.s": total_s("tableau.Tableau"),
        "tableau.SkewTableau.calls": calls("tableau.SkewTableau"),
        "tableau.SkewTableau.s": total_s("tableau.SkewTableau"),
        "tableau.enumerate_tableaux.yielded": visited,
        "tableau.enumerate_tableaux.s": total_s("tableau.enumerate_tableaux"),
        "scanning.scan_columns.calls": calls("scanning.scan_columns"),
        "scanning.scan_columns.boxes": count("scanning.scan_columns.boxes"),
        "scanning.scan_columns.s": total_s("scanning.scan_columns"),
        "scanning.scanning_tableau.self_s": self_s("scanning.scanning_tableau"),
        "scanning.left_key.calls": calls("scanning.left_key"),
        "scanning.left_key.s": total_s("scanning.left_key"),
        "jdt.right_key_oracle.self_s": self_s("jdt.right_key_oracle"),
        "jdt.left_key_oracle.self_s": self_s("jdt.left_key_oracle"),
        "jdt.length_swap.calls": calls("jdt.length_swap"),
        "jdt.length_swap.s": total_s("jdt.length_swap"),
        "jdt.reverse_slide.calls": calls("jdt.reverse_slide"),
        "jdt.reverse_slide.s": total_s("jdt.reverse_slide"),
        "jdt.rectify.calls": calls("jdt.rectify"),
        "jdt.rectify.s": total_s("jdt.rectify"),
        "demazure.demazure_character.self_s": self_s("demazure.demazure_character"),
        "demazure.SparsePolynomial.__add__.calls": calls("demazure.SparsePolynomial.__add__"),
        "demazure.SparsePolynomial.__add__.s": total_s("demazure.SparsePolynomial.__add__"),
        "demazure.kept_ratio": kept / visited if visited else 0.0,
        "verify.check_tableau.calls": calls("verify.check_tableau"),
        "verify.check_tableau.self_s": self_s("verify.check_tableau"),
        # The largest shape's share of the sweep caps a per-shape --jobs speed-up.
        "verify.shape_max_share": shape_max_share(untraced),
    }
    for layer, seconds in tracer.layer_self().items():
        metrics[f"{layer}.self_s"] = seconds / n
    metrics["trace.overhead"] = traced.seconds() / untraced.seconds()
    return metrics


def shape_max_share(runs):
    """The largest share of one census sweep's time taken by one of its
    shapes, over the sweeps; 0 when there are no sweeps."""
    calls = defaultdict(list)
    for (i, _shape), seconds in zip(runs.best.shapes, runs.best.slice_s):
        calls[i].append(seconds)
    return max((max(s) / sum(s) for s in calls.values()), default=0.0)


def layer_shares(tracer, traced):
    """Each layer's self time as a share of the traced passes' time; the
    rest is the benchmark's own code around the CLI calls."""
    total = sum(traced.pass_s)
    return {layer: s / total for layer, s in tracer.layer_self().items()}


def input_properties(name, items, runs):
    """Shares of the inputs that have the properties later optimisations
    depend on, so a change that helps only some inputs can cite them."""
    first = runs.best.results
    time_by_label = defaultdict(float)
    for item, seconds in zip(items, runs.best.slice_s):
        time_by_label[item.label] += seconds
    props = {}
    if name == "census":
        from keyscan.tableau import count_tableaux
        from workloads import partitions

        hist = defaultdict(int)
        for item in items:
            max_boxes, max_entry = int(item.argv[2]), int(item.argv[4])
            for m in range(1, max_boxes + 1):
                hist[m] += sum(count_tableaux(s, max_entry) for s in partitions(m, max_entry))
        props["box_histogram"] = dict(sorted(hist.items()))
        slices = sorted(zip(runs.best.slice_s, runs.best.shapes), reverse=True)
        total = sum(s for s, _key in slices)
        props["shape_time_share"] = {
            f"{items[i].label}:{','.join(map(str, shape))}": s / total
            for s, (i, shape) in slices
        }
        return props
    total = sum(time_by_label.values())
    props["time_share_by_label"] = {k: v / total for k, v in sorted(time_by_label.items())}
    hist = defaultdict(int)
    for item in items:
        hist[1 << max(0, item.boxes - 1).bit_length()] += 1
    props["box_histogram_pow2_ceiling"] = dict(sorted(hist.items()))
    if name == "keys":
        by_family = defaultdict(lambda: [0, 0])
        for item in items:
            fam = item.label.split("/")[1]
            by_family[fam][0] += item.meta["distinct_lengths"]
            by_family[fam][1] += item.meta["columns"]
        cols = sum(c for _d, c in by_family.values())
        props["distinct_length_share"] = sum(d for d, _c in by_family.values()) / cols
        props["distinct_length_share_by_family"] = {
            fam: d / c for fam, (d, c) in sorted(by_family.items())
        }
    if name == "demazure":
        from workloads import kept_tableaux

        by_class = defaultdict(lambda: [0, 0])
        for item, (_rc, out, _dt, _err) in zip(items, first):
            by_class[item.label][0] += kept_tableaux(out)
            by_class[item.label][1] += item.meta["candidates"]
        props["kept_ratio_by_w_class"] = {
            cls: k / c for cls, (k, c) in sorted(by_class.items())
        }
    return props


# -- the run ---------------------------------------------------------------


def measure(name, items, seconds, trace, seed):
    """Passes until ``seconds`` have gone by, alternating with traced
    passes when ``trace`` is set.  Returns (untraced, traced, tracer,
    setup): ``Runs`` of the untraced and traced passes, and the
    ``time_setup`` samples.

    Each pass runs the items in a new seeded order, so that an item's
    fastest repeat does not depend on which item happens to run before
    it (what it left in the caches, or a garbage collection it set off).
    The host's speed shifts every few seconds, so the setup samples are
    taken between passes all through the run rather than in one burst;
    a traced run takes none.
    """
    from spans import Tracer, traced

    rng = random.Random(seed)
    order = list(range(len(items)))
    tracer = Tracer()
    plain, spanned, setup = Runs(name), Runs(name), []
    wanted = 0 if trace else SETUP_SAMPLES
    gc.collect()
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        t0 = time.perf_counter()
        rng.shuffle(order)
        plain.add(run_pass(items, order))
        if trace:
            with traced(tracer):
                spanned.add(run_pass(items, order))
        share = min(1.0, (time.perf_counter() - start) / seconds)
        while len(setup) < wanted * share:
            setup.append(time_setup())
        # Start no pass that would end after the deadline.
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            break
    while len(setup) < wanted:
        setup.append(time_setup())
    return plain, spanned, tracer, setup


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["census", "keys", "demazure"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    args = ap.parse_args(argv)

    if not (SRC / "keyscan" / "cli.py").is_file():
        print(f"error: keyscan sources not found under {SRC}", file=sys.stderr)
        return 1
    time_setup()  # compiles the byte code

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import make_items

    record = run_metadata(args)
    items = make_items(args.workload, args.seed, args.size)
    plain, spanned, tracer, setup = measure(
        args.workload, items, args.seconds, args.trace, args.seed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failed = tally(args.workload, items, [plain, spanned])
    # Every pass, traced or not, gave each item the same output.
    identical = len(plain.outcomes + spanned.outcomes) == len(items)
    if args.trace:
        metrics = per_layer(args.workload, tracer, spanned, plain)
        units = {k: ("s" if k.endswith(("_s", ".s")) else
                     "ratio" if k.endswith(("ratio", "share", "overhead")) else "count")
                 for k in metrics}
    else:
        metrics = end_to_end(plain, setup, peak_rss_mb)
        units = END_TO_END
    errors = [err for (_i, _rc, _out, err) in plain.outcomes + spanned.outcomes if err]
    result = {
        "correct": failed == 0 and identical,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record.update({
        "items_per_pass": len(items),
        "work_per_pass": sum(item.work for item in items),
        "passes": len(plain.pass_s), "traced_passes": len(spanned.pass_s),
        "pass_s": plain.pass_s,
        "traced_pass_s": spanned.pass_s,
        "latency_samples_per_pass": len(plain.best.latencies),
        "setup_samples_s": setup,
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": failed / attempted,
        "outputs_identical": identical,
        "first_error": errors[0] if errors else None,
        "inputs": input_properties(args.workload, items, plain),
        "layer_self_share": layer_shares(tracer, spanned) if args.trace else None,
        "result": result,
    })
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
