"""Every keyscan name that the benchmark and the docs rely on resolves.

The traced benchmark patches functions and methods by name, and the
README and benchmark scripts import by name; a deletion that breaks one
of them fails here rather than in a later benchmark run.  The layer
benchmark ``benchmarks/bench_scan.py`` is also run once on tiny inputs,
and the start-up benchmark ``benchmarks/bench_startup.py`` twice per
case, with this checkout on both sides.  The Tier-1 timing script
``benchmarks/tier1_runs.py`` only prints its usage here: a run of it is a
run of this suite.  Of ``benchmarks/paired_runs.py``, which runs for
minutes, only the commit it records for a checkout is checked.  All three
refuse a single pair before running anything.
"""

import ast
import importlib
import json
import importlib.util
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import keyscan
from keyscan import scanning

ROOT = Path(__file__).resolve().parent.parent


def load_spans():
    spec = importlib.util.spec_from_file_location("keyscan_bench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def keyscan_names(source):
    """(module, name) for every ``from keyscan[.x] import name`` in
    ``source``, except the guarded ones (inside a ``try`` that catches
    ImportError, like the optional compiled kernel), and for every
    ``name.attr`` read off a keyscan module imported that way."""
    tree = ast.parse(source)
    guarded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and any(
            isinstance(h.type, ast.Name) and h.type.id == "ImportError" for h in node.handlers
        ):
            guarded.update(id(sub) for stmt in node.body for sub in ast.walk(stmt))
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and id(node) not in guarded:
            if node.module == "keyscan" or (node.module or "").startswith("keyscan."):
                for alias in node.names:
                    yield node.module, alias.name
                    if node.module == "keyscan":
                        modules[alias.asname or alias.name] = f"keyscan.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                yield modules[node.value.id], node.attr


def resolves(module, name):
    """True iff ``from module import name`` would succeed."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_traced_spans_resolve():
    spans = load_spans()
    for modname, attr, name in spans.FUNCTIONS:
        home = scanning._kernel if modname == "kernel" else importlib.import_module(f"keyscan.{modname}")
        assert callable(getattr(home, attr, None)), name
    for modname, clsname, meth, name in spans.METHODS:
        cls = getattr(importlib.import_module(f"keyscan.{modname}"), clsname)
        assert meth in cls.__dict__, name


def test_public_names_resolve():
    for name in keyscan.__all__:
        assert hasattr(keyscan, name), name


def test_package_loads_on_first_use():
    # A fresh interpreter: ``import keyscan`` loads no submodule, and a
    # public name or a module of the table loads its module when read.
    code = (
        "import sys, keyscan\n"
        "print(sorted(m for m in sys.modules if m.startswith('keyscan.') and '._' not in m))\n"
        "assert keyscan.rectify is keyscan.jdt.rectify\n"
        "from keyscan import demazure, schur_polynomial\n"
        "assert schur_polynomial is demazure.schur_polynomial\n"
        "assert set(keyscan.__all__) <= set(dir(keyscan))\n"
        "assert not hasattr(keyscan, 'no_such_name')\n"
        "print(sorted(m for m in sys.modules if m.startswith('keyscan.') and '._' not in m))\n"
    )
    env = dict(os.environ)
    src = str(Path(keyscan.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]", "['keyscan.demazure', 'keyscan.jdt', 'keyscan.scanning', 'keyscan.tableau']",
    ]


def test_imported_names_resolve():
    sources = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    sources += [path.read_text() for path in sorted((ROOT / "benchmarks").glob("*.py"))]
    sources += re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    names = {pair for source in sources for pair in keyscan_names(source)}
    assert ("keyscan.jdt", "right_key_oracle") in names
    for module, name in sorted(names):
        assert resolves(module, name), (module, name)


def test_bench_scan_runs():
    env = dict(os.environ)
    src = str(Path(keyscan.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "benchmarks/bench_scan.py", "--cols", "5", "--height", "4",
         "--tableaux", "2", "--repeats", "2"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "right key (scan_columns):" in proc.stdout


def test_bench_startup_runs(tmp_path):
    out = tmp_path / "startup.json"
    proc = subprocess.run(
        [sys.executable, "benchmarks/bench_startup.py", "--parent", str(ROOT),
         "--change", str(ROOT), "--samples", "2", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "right-key: parent" in proc.stdout
    report = json.loads(out.read_text())
    assert list(report) == ["command", "pairs", "commit", "kernel", "python", "cpu_count",
                            "cases"]
    assert report["pairs"] == 2
    assert set(report["commit"]) == set(report["kernel"]) == {"parent", "change"}
    assert set(report["cases"]) == {
        "import keyscan.cli", "right-key", "left-key", "demazure --engine scan",
        "verify --max-boxes 3 --max-entry 3",
    }
    for row in report["cases"].values():
        assert 0 <= row["change_wins"] <= 2
        for side in ("parent", "change"):
            assert set(row[side]) == {"median", "q1", "q3", "runs"}
            assert len(row[side]["runs"]) == 2


@pytest.mark.parametrize("script, flag", [
    ("paired_runs.py", "--pairs"), ("tier1_runs.py", "--pairs"), ("bench_startup.py", "--samples"),
])
def test_one_pair_refused(script, flag, tmp_path):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, f"benchmarks/{script}", "--parent", str(ROOT), "--change", str(ROOT),
         "--out", str(tmp_path / "out.json"), flag, "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 2, proc.stderr
    assert f"error: argument {flag}: must be at least 2, got 1" in proc.stderr
    assert not (tmp_path / "out.json").exists()
    assert elapsed < 0.5, elapsed


def test_tier1_runs_prints_usage():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "benchmarks/tier1_runs.py", "--help"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: tier1_runs.py [-h] --parent PARENT --change CHANGE")
    assert elapsed < 0.5, elapsed


@pytest.mark.skipif(shutil.which("git") is None, reason="needs the git program")
def test_paired_runs_records_commit(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "paired_runs", ROOT / "benchmarks" / "paired_runs.py")
    paired_runs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(paired_runs)
    git = ["git", "-c", "user.name=k", "-c", "user.email=k@example.org"]
    subprocess.run(git + ["init", "-q"], cwd=tmp_path, check=True)
    assert paired_runs.commit(tmp_path) is None  # no commit yet
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "x"], cwd=tmp_path, check=True)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tmp_path, capture_output=True,
                          text=True, check=True).stdout.strip()
    assert paired_runs.commit(tmp_path) == head
    (tmp_path / "sub").mkdir()
    assert paired_runs.commit(tmp_path / "sub") is None  # inside a work tree, not its top
