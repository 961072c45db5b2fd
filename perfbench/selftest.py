"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

Checks that a tiny run of every workload, traced and untraced, finishes
and reports exactly the metrics named in BENCHMARK.json with a clean
correctness gate; that every pass, traced or not, prints the same
outputs; that a corrupted output is counted as failed; and that the
benchmark refuses to run, without printing a result, in a directory
holding only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def check_tiny_runs():
    for name in workloads.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench("--workload", name, "--seed", "3", "--seconds", "0.5",
                         "--trace", str(trace), "--size", "tiny")
            assert proc.returncode == 0, proc.stderr
            record, result = map(json.loads, proc.stdout.splitlines()[-2:])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, (name, trace, record)
            assert result["attempted"] >= 1
            units = {m["name"]: m["unit"] for m in SPEC[group]}
            assert {k: m["unit"] for k, m in result["metrics"].items()} == units, (name, trace)
            for metric in result["metrics"].values():
                assert isinstance(metric["value"], (int, float)), metric
            assert record["outputs_identical"] is True, name
            print(f"ok  tiny {name} --trace {trace}: {len(result['metrics'])} metrics")


def _corrupt_key(out):
    lines = out.splitlines()
    row = lines[-1].split()
    row[0] = str(int(row[0]) + 1)
    return "\n".join(lines[:-1] + [" ".join(row)]) + "\n"


CORRUPT = {
    "census": lambda out: out.replace("tableaux checked: ", "tableaux checked: 1"),
    "keys": _corrupt_key,
    "demazure": lambda out: "1" + out,
}


def check_corruption_counted():
    for name, corrupt in CORRUPT.items():
        items = workloads.make_items(name, 5, "tiny")
        runs = run.Runs(name)
        runs.add(run.run_pass(items))
        assert run.tally(name, items, [runs]) == (sum(i.work for i in items), 0)
        # The first item small enough for every check of its workload.
        i = next(i for i, item in enumerate(items)
                 if item.boxes <= workloads.ORACLE_MAX_BOXES)
        bad = run.run_pass(items)
        rc, out, dt, err = bad.results[i]
        bad.results[i] = (rc, corrupt(out), dt, err)
        runs.add(bad)
        attempted, failed = run.tally(name, items, [runs])
        assert failed == items[i].work, (name, failed)
        print(f"ok  corrupted {name} output counted: failed {failed} of {attempted}")


def check_refuses_without_sources():
    run.RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RESULTS) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = bench("--workload", "keys", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    print("ok  refuses to run without the program's sources")


if __name__ == "__main__":
    check_tiny_runs()
    check_corruption_counted()
    check_refuses_without_sources()
    print("selftest passed")
