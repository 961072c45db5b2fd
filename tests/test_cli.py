import functools
import gc
import itertools
import os
import subprocess
import re
import sys
import types
import warnings
from collections import Counter
from pathlib import Path

import pytest

import keyscan
from keyscan import cli, jdt, scanning, verify
from keyscan.tableau import Tableau, TableauError, parse_tableau
from keyscan.cli import build_parser, main

from conftest import EXAMPLE_KEY_TEXT, EXAMPLE_T_TEXT

# The whole stderr of --explain on the worked example: one block per key
# column, one line per pass of the paper's scan.
RIGHT_EXPLAIN = """\
start column 1:
  (8,9,9)
  (7,7,8)
  (5,5,6,7)
  (4,5,6)
  (2,3,3,4)
  (1,1)
start column 2:
  (7,9,9)
  (5,6,8)
  (3,5,7)
  (1,3,4,6)
start column 3:
  (9,9)
  (6,8)
  (5,7)
  (3,4,6)
start column 4:
  (8,9)
  (7)
  (4,6)
start column 5:
  (9)
  (6)
"""

LEFT_EXPLAIN = """\
end column 1:
  (8)
  (7)
  (5)
  (4)
  (2)
  (1)
end column 2:
  (7,7)
  (5,5)
  (3,2)
  (1,1)
end column 3:
  (9,7,7)
  (6,5,5)
  (5,3,2)
  (3,1,1)
end column 4:
  (8,6,5,5)
  (7,5,3,2)
  (4,3,1,1)
end column 5:
  (9,8,6,5,5)
  (6,4,3,3,2)
"""


def run(capsys, monkeypatch, argv, stdin=None):
    if stdin is not None:
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def keyscan_env():
    """The environment of a fresh interpreter that imports this keyscan."""
    src = str(Path(keyscan.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_python(code):
    """Run ``code`` in a fresh interpreter that imports this keyscan."""
    return subprocess.run(
        [sys.executable, "-c", code], env=keyscan_env(), capture_output=True, text=True,
        timeout=120,
    )


class TestRightKey:
    def test_stdin(self, capsys, monkeypatch):
        code, out, err = run(capsys, monkeypatch, ["right-key"], stdin=EXAMPLE_T_TEXT)
        assert code == 0
        assert out == "n=9\n" + EXAMPLE_KEY_TEXT

    def test_file_argument(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "t.txt"
        f.write_text(EXAMPLE_T_TEXT)
        code, out, _ = run(capsys, monkeypatch, ["right-key", str(f)])
        assert code == 0
        assert out == "n=9\n" + EXAMPLE_KEY_TEXT

    def test_file_is_closed(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "t.txt"
        f.write_text(EXAMPLE_T_TEXT)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, _ = run(capsys, monkeypatch, ["right-key", str(f)])
            gc.collect()
        assert code == 0
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_explain_goes_to_stderr(self, capsys, monkeypatch):
        code, out, err = run(
            capsys, monkeypatch, ["right-key", "--explain"], stdin=EXAMPLE_T_TEXT
        )
        assert code == 0
        assert out == "n=9\n" + EXAMPLE_KEY_TEXT
        assert err == RIGHT_EXPLAIN

    def test_oracle_agrees(self, capsys, monkeypatch):
        code, _, err = run(
            capsys, monkeypatch, ["right-key", "--oracle"], stdin=EXAMPLE_T_TEXT
        )
        assert code == 0
        assert "AGREE" in err

    def test_bad_input_exit_1(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["right-key"], stdin="2 1\n")
        assert code == 1
        assert "error:" in err

    def test_missing_file_exit_1(self, capsys, monkeypatch, tmp_path):
        code, _, err = run(
            capsys, monkeypatch, ["right-key", str(tmp_path / "missing.txt")]
        )
        assert code == 1

    def test_non_utf8_file_exit_1(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "t.txt"
        f.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, monkeypatch, ["right-key", str(f)])
        assert (code, out) == (1, "")
        assert err == f"error: {f} is not UTF-8 text: invalid start byte at byte 0\n"

    def test_non_utf8_stdin_exit_1(self, capsys, monkeypatch):
        import io

        # As under the POSIX locale, the text layer lets undecodable bytes
        # through as surrogates; the bytes after the blank line are never parsed.
        for data, at in ((b"1 2\n\n\xff\n", 5), (b"n=2\n1 \xff\n", 6)):
            stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                                     errors="surrogateescape")
            monkeypatch.setattr("sys.stdin", stdin)
            code, out, err = run(capsys, monkeypatch, ["left-key"])
            assert (code, out) == (1, "")
            assert err == f"error: standard input is not UTF-8 text: invalid start byte at byte {at}\n"

    def test_large_entries_compiled_kernel(self, capsys, monkeypatch, compiled_kernel):
        for text in ("n=99999999999\n1 3000000000\n2\n",
                     f"n={2**70}\n1 {2**64 + 1}\n{2**63}\n"):
            _, want, _ = run(capsys, monkeypatch, ["right-key"], stdin=text)
            with monkeypatch.context() as m:
                m.setattr(scanning, "_kernel", compiled_kernel)
                code, out, err = run(capsys, monkeypatch, ["right-key"], stdin=text)
            assert (code, out, err) == (0, want, "")

    def test_internal_error_exit_2(self, capsys, monkeypatch):
        def broken(t):
            raise RuntimeError("first line\nsecond line")

        monkeypatch.setattr(scanning, "scanning_tableau", broken)
        code, out, err = run(capsys, monkeypatch, ["right-key"], stdin=EXAMPLE_T_TEXT)
        assert code == 2
        assert err == "internal error: RuntimeError('first line\\nsecond line')\n"

    def test_faulty_kernel_result_exit_2(self, capsys, monkeypatch):
        # The input is valid, so a key that breaks a tableau rule is a bug.
        # Two column lengths, so that the first column is scanned: the
        # last one is the key's own last column.
        kernel = scanning._kernel
        reversed_columns = types.SimpleNamespace(
            scan_columns=lambda cols, starts: [c[::-1] for c in kernel.scan_columns(cols, starts)],
            left_columns=kernel.left_columns,
        )
        monkeypatch.setattr(scanning, "_kernel", reversed_columns)
        code, out, err = run(capsys, monkeypatch, ["right-key"], stdin="1 2\n3\n")
        assert (code, out) == (2, "")
        assert err == (
            "internal error: NonDecreasingColumn('column 1 not strictly increasing at row 2')\n"
        )

    def test_bad_tableau_still_exit_1(self, capsys, monkeypatch):
        for argv in (["right-key", "--oracle"], ["left-key", "--oracle", "--explain"]):
            code, out, err = run(capsys, monkeypatch, argv, stdin="2 1\n")
            assert (code, out) == (1, ""), argv
            assert err == "error: row 1 decreases between columns 1 and 2\n", argv

    def test_output_round_trips(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["right-key"], stdin="1 2\n2\n")
        code2, out2, _ = run(capsys, monkeypatch, ["right-key"], stdin=out)
        assert code == code2 == 0
        assert out2 == out  # right key is idempotent


class TestLeftKey:
    def test_stdin(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["left-key"], stdin="1 3\n2\n")
        assert code == 0
        assert out == "n=3\n1 2\n2\n"

    def test_explain_goes_to_stderr(self, capsys, monkeypatch):
        _, want, _ = run(capsys, monkeypatch, ["left-key"], stdin=EXAMPLE_T_TEXT)
        code, out, err = run(
            capsys, monkeypatch, ["left-key", "--explain"], stdin=EXAMPLE_T_TEXT
        )
        assert code == 0
        assert out == want
        assert err == LEFT_EXPLAIN

    def test_oracle_agrees(self, capsys, monkeypatch):
        code, _, err = run(
            capsys, monkeypatch, ["left-key", "--oracle"], stdin=EXAMPLE_T_TEXT
        )
        assert code == 0
        assert "AGREE" in err

    def test_oracle_disagreement_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr(jdt, "left_key_oracle", lambda t: parse_tableau("n=3\n1 3\n2\n"))
        code, out, err = run(capsys, monkeypatch, ["left-key", "--oracle"], stdin="1 3\n2\n")
        assert code == 2
        assert out == "n=3\n1 2\n2\n"
        assert err == "DISAGREE\nn=3\n1 3\n2\n"

    def test_faulty_oracle_result_exit_2(self, capsys, monkeypatch):
        # A valid tableau that is not a key: its complement breaks row 1.
        monkeypatch.setattr(jdt, "right_key_oracle", lambda t: Tableau(((1,), (2,)), 3))
        code, out, err = run(capsys, monkeypatch, ["left-key", "--oracle"], stdin="1 2\n")
        assert (code, out) == (2, "n=2\n1 1\n")
        assert err == "internal error: DecreasingRow('row 1 decreases between columns 1 and 2')\n"


class TestVerify:
    def test_small_sweep(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            monkeypatch,
            ["verify", "--max-boxes", "4", "--max-entry", "3"],
        )
        assert code == 0
        assert "0 counterexamples" in out
        assert "tableaux checked:" in out

    def test_bad_jobs_exit_1(self, capsys, monkeypatch):
        code, out, err = run(
            capsys,
            monkeypatch,
            ["verify", "--max-boxes", "2", "--max-entry", "2", "--jobs", "0"],
        )
        assert code == 1
        assert out == "" and err == "error: jobs must be >= 1, got 0\n"

    def test_bad_bounds_exit_1(self, capsys, monkeypatch):
        for boxes, entry, name, value in (("2", "0", "max_entry", "0"),
                                          ("0", "2", "max_boxes", "0"),
                                          ("-1", "2", "max_boxes", "-1")):
            code, out, err = run(
                capsys, monkeypatch, ["verify", "--max-boxes", boxes, "--max-entry", entry]
            )
            assert code == 1
            assert out == "" and err == f"error: {name} must be >= 1, got {value}\n"
        # the library checks jobs too, not only the CLI
        for jobs in (0, -3):
            with pytest.raises(TableauError) as info:
                verify.run_sweep(2, 2, jobs=jobs)
            assert str(info.value) == f"jobs must be >= 1, got {jobs}"

    def test_parallel_sweep_matches_serial(self):
        # A fresh interpreter, so that only the sweep can load the pool;
        # two cores reported, so that the pool runs on a one-core host too.
        proc = run_python(
            "import os, sys\n"
            "os.cpu_count = lambda: 2\n"
            "from keyscan.verify import run_sweep\n"
            "def counts(r):\n"
            "    return r.shapes, r.tableaux, r.keys, r.swaps, r.counterexamples\n"
            "bounds = [(4, 3), (5, 4)]\n"
            "serial = [counts(run_sweep(*b, jobs=1)) for b in bounds]\n"
            "assert 'concurrent.futures' not in sys.modules\n"
            "assert [counts(run_sweep(*b, jobs=2)) for b in bounds] == serial\n"
            "print(*serial, sep='\\n')\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "(10, 70, 34, 188, [])\n(17, 440, 125, 1846, [])\n"

    def test_jobs_capped(self, capsys, monkeypatch):
        # A stand-in pool that records its size and maps in this process,
        # so that no worker process is ever started.
        import concurrent.futures

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        def counts(r):
            return r.shapes, r.tableaux, r.keys, r.swaps, r.counterexamples

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        serial = counts(verify.run_sweep(4, 3))  # 10 shapes
        for cores, want in ((64, [10]), (3, [3]), (1, []), (None, [])):
            sizes.clear()
            monkeypatch.setattr(verify.os, "cpu_count", lambda: cores)
            assert counts(verify.run_sweep(4, 3, jobs=100000)) == serial
            assert sizes == want
        # One shape: the sweep runs serially whatever --jobs asks.
        sizes.clear()
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 64)
        code, out, _ = run(
            capsys,
            monkeypatch,
            ["verify", "--max-boxes", "1", "--max-entry", "1", "--jobs", "100000"],
        )
        assert code == 0 and "tableaux checked: 1\n" in out
        assert sizes == []

    def test_check_swaps(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            monkeypatch,
            ["verify", "--max-boxes", "3", "--max-entry", "3", "--check-swaps"],
        )
        assert code == 0
        assert "0 counterexamples" in out

    def test_check_swaps_can_fail(self, monkeypatch):
        t = parse_tableau(EXAMPLE_T_TEXT)
        monkeypatch.setattr(verify.jdt, "is_frank", lambda *args: False)
        failures, _ = verify.check_tableau(t, check_swaps=True)
        # The example has five columns: 4 + 3 + 2 + 1 swaps, each reported.
        assert len(failures) == 10
        assert all("frankness lost at swap j=" in f for f in failures)
        monkeypatch.undo()

        # Each rectification keeps the shape and entries but gets its own
        # entry bound, so it equals neither the tableau nor another one.
        bumps = itertools.count(1)
        rectify = jdt.rectify

        def rebound(u, *args, **kwargs):
            r = rectify(u, *args, **kwargs)
            return Tableau(r.columns, r.n + next(bumps))

        monkeypatch.setattr(verify.jdt, "rectify", rebound)
        failures, _ = verify.check_tableau(t, check_swaps=True)
        assert any("rectification changed at swap j=" in f for f in failures)
        assert not any("frankness lost" in f for f in failures)

    def test_non_key_oracle_answer_is_a_counterexample(self, capsys, monkeypatch):
        # An oracle right key that is not a key, t0, for every tableau of
        # its shape: its complement (3),(2) has a decreasing row.  That is a
        # counterexample on the tableau checked, not bad input.
        t0 = Tableau(((1,), (2,)), 3)
        right_key_oracle = jdt.right_key_oracle

        def wrong(x, *args, **kwargs):
            r = right_key_oracle(x, *args, **kwargs)
            return t0 if x.shape == t0.shape else r

        monkeypatch.setattr(jdt, "right_key_oracle", wrong)
        failures = verify.run_sweep(2, 3).counterexamples
        assert any(
            f.startswith("complement of the jdt right key of the reversal dual is not a tableau "
                         "(row 1 decreases between columns 1 and 2)")
            for f in failures
        )
        code, out, err = run(capsys, monkeypatch, ["verify", "--max-boxes", "2", "--max-entry", "3"])
        assert code == 3 and err == ""
        assert f"{len(failures)} counterexamples\n" in out

    def test_oracle_runs_once_per_tableau(self, monkeypatch):
        # Each tableau's right oracle key serves its own check and the
        # left-key check of its reversal dual; one dict per shape holds it
        # between the two, and is empty when the shape is done.
        calls = Counter()
        right_key_oracle = jdt.right_key_oracle
        check_tableau = verify.check_tableau
        memos = {}

        def counted(x, *args, **kwargs):
            calls[x] += 1
            return right_key_oracle(x, *args, **kwargs)

        def check(t, check_swaps, memo):
            memos[id(memo)] = memo
            return check_tableau(t, check_swaps, memo)

        monkeypatch.setattr(jdt, "right_key_oracle", counted)
        monkeypatch.setattr(verify, "check_tableau", check)
        report = verify.run_sweep(6, 4)
        assert (report.shapes, report.tableaux, report.ok) == (26, 1000, True)
        assert len(calls) == report.tableaux and set(calls.values()) == {1}
        assert len(memos) == report.shapes
        assert not any(memos.values())

    def test_wrong_oracle_key_fails_both_checks(self, monkeypatch):
        # A wrong but valid right key for t0, a tableau that is not a key:
        # t0 itself, whose complement is a tableau too.  The right-key check
        # of t0 and the left-key check of its dual both read it.
        t0 = Tableau(((1, 3), (2,)), 3)
        dual = jdt.reversal_dual(t0)
        assert not t0.is_key() and dual != t0
        right_key_oracle = jdt.right_key_oracle

        def wrong(x, *args, **kwargs):
            r = right_key_oracle(x, *args, **kwargs)
            return x if x == t0 else r

        monkeypatch.setattr(jdt, "right_key_oracle", wrong)
        failures = verify.run_sweep(3, 3).counterexamples
        assert len(failures) == 2
        assert sorted((f.split("\n")[0], f.split("on tableau:\n")[1]) for f in failures) == [
            ("scanning left key differs from jdt left key:", str(dual)),
            ("scanning tableau differs from jdt right key:", str(t0)),
        ]

    def assert_fault_is_counterexample(self, capsys, monkeypatch, message):
        failures = verify.run_sweep(3, 3).counterexamples
        assert failures and all(f.startswith(message) for f in failures)
        code, out, err = run(capsys, monkeypatch, ["verify", "--max-boxes", "3", "--max-entry", "3"])
        assert code == 3 and err == ""
        assert f"{len(failures)} counterexamples\n" in out

    def test_oracle_result_not_a_tableau_is_a_counterexample(self, capsys, monkeypatch):
        # An insertion whose first column has its first two entries
        # swapped fails validation inside the oracle's reversal dual: an
        # oracle fault on the tableau checked, not bad input.
        column_insert = jdt._column_insert

        def swapped(word, n):
            cols = list(column_insert(word, n).columns)
            cols[0] = cols[0][1::-1] + cols[0][2:]
            return Tableau(tuple(cols), n)

        monkeypatch.setattr(jdt, "_column_insert", swapped)
        self.assert_fault_is_counterexample(
            capsys, monkeypatch,
            "oracle or kernel raised NonDecreasingColumn: column 1 not strictly increasing at row 2",
        )

    def test_kernel_result_not_a_tableau_is_a_counterexample(self, capsys, monkeypatch):
        # A kernel that returns each right-key column upside down.
        kernel = scanning._kernel

        class Reversed:
            left_columns = kernel.left_columns

            def scan_columns(cols, starts):
                return [col[::-1] for col in kernel.scan_columns(cols, starts)]

        monkeypatch.setattr(scanning, "_kernel", Reversed)
        self.assert_fault_is_counterexample(
            capsys, monkeypatch,
            "oracle or kernel raised NonDecreasingColumn: column 1 not strictly increasing at row 2",
        )


class TestDemazure:
    def test_scan_engine(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            monkeypatch,
            ["demazure", "--mu", "2,1", "--w", "1,2,3", "--n", "3"],
        )
        assert code == 0
        assert out == "1 2 1 0\n"

    def test_engines_stable_output(self, capsys, monkeypatch):
        argv = ["demazure", "--mu", "2,1", "--w", "3,1,2", "--n", "3"]
        outputs = set()
        for engine in ("scan", "oracle", "recursion"):
            code, out, _ = run(capsys, monkeypatch, argv + ["--engine", engine])
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_all_engines(self, capsys, monkeypatch):
        code, out, err = run(
            capsys,
            monkeypatch,
            ["demazure", "--mu", "2", "--w", "2,1", "--n", "2", "--all-engines"],
        )
        assert code == 0
        assert "ENGINES AGREE" in err
        assert out == "1 2 0\n1 1 1\n1 0 2\n"

    def test_engines_disagree_exit_2(self, capsys, monkeypatch):
        from keyscan import demazure

        argv = ["demazure", "--mu", "2,1", "--w", "2,1,3", "--n", "3"]
        _, expected, _ = run(capsys, monkeypatch, argv)
        wrong = demazure.SparsePolynomial(3, {(3, 0, 0): 1})
        monkeypatch.setattr(demazure, "demazure_by_operators", lambda mu, w, n: wrong)
        code, out, err = run(capsys, monkeypatch, argv + ["--all-engines"])
        assert (code, out) == (2, expected)
        assert err == f"ENGINES DISAGREE\n-- oracle:\n{expected}-- recursion:\n1 3 0 0\n"

    def test_empty_partition_all_engines(self, capsys, monkeypatch):
        code, out, err = run(
            capsys,
            monkeypatch,
            ["demazure", "--mu", "0", "--w", "2,1", "--n", "2", "--all-engines"],
        )
        assert (code, out) == (0, "1 0 0\n")
        assert "ENGINES AGREE" in err

    @pytest.mark.parametrize("engine", [["--engine", "oracle"], ["--all-engines"]])
    def test_faulty_oracle_result_exit_2(self, capsys, monkeypatch, engine):
        # A key of the wrong shape: entrywise_leq raises ShapeMismatch.
        monkeypatch.setattr(jdt, "right_key_oracle", lambda t: Tableau(((1,),), 3))
        argv = ["demazure", "--mu", "2,1", "--w", "2,1,3", "--n", "3"] + engine
        code, out, err = run(capsys, monkeypatch, argv)
        assert (code, out) == (2, "")
        assert err == "internal error: ShapeMismatch('shapes (1,) and (2, 1) differ')\n"

    @pytest.mark.parametrize("engine", [["--engine", "oracle"], ["--all-engines"]])
    def test_bad_input_with_faulty_oracle_still_exit_1(self, capsys, monkeypatch, engine):
        monkeypatch.setattr(jdt, "right_key_oracle", lambda t: Tableau(((1,),), 3))
        for args, message in (
            (["--mu", "2,1", "--w", "2,2,3"], "(2, 2, 3) is not a permutation of 1..3"),
            (["--mu", "2,1,1,1", "--w", "2,1,3"], "partition (2, 1, 1, 1) has more than n=3 rows"),
        ):
            code, out, err = run(capsys, monkeypatch, ["demazure", *args, "--n", "3", *engine])
            assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_bad_permutation_exit_1(self, capsys, monkeypatch):
        code, _, err = run(
            capsys,
            monkeypatch,
            ["demazure", "--mu", "1", "--w", "1,1", "--n", "2"],
        )
        assert code == 1
        assert "error:" in err


    def test_non_integer_list_exit_1(self, capsys, monkeypatch):
        code, _, err = run(
            capsys,
            monkeypatch,
            ["demazure", "--mu", "a", "--w", "1", "--n", "1"],
        )
        assert code == 1
        assert err == "error: not a list of integers: 'a'\n"

    def test_more_variables_than_a_tuple_holds_exit_1(self, capsys, monkeypatch):
        # 2**63 and 2**64 are refused before anything is allocated.
        for n in (2**63, 2**64):
            for argv in (["demazure", "--mu", "1", "--w", "1", "--n", str(n)],
                         ["schur", "--mu", ",", "--n", str(n)]):
                code, out, err = run(capsys, monkeypatch, argv)
                assert code == 1 and out == ""
                assert err == (f"error: n={n} is more variables than a tuple can hold "
                               f"({sys.maxsize})\n")

    def test_out_of_memory_exit_1(self, capsys, monkeypatch):
        from keyscan import demazure

        def too_large(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(demazure, "demazure_character", too_large)
        code, out, err = run(capsys, monkeypatch, ["demazure", "--mu", "1", "--w", "1", "--n", "1"])
        assert (code, out, err) == (1, "", "error: out of memory\n")


class TestSchur:
    def test_row_of_two(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["schur", "--mu", "2", "--n", "2"])
        assert code == 0
        assert out == "1 2 0\n1 1 1\n1 0 2\n"

    def test_matches_demazure_longest(self, capsys, monkeypatch):
        _, schur_out, _ = run(capsys, monkeypatch, ["schur", "--mu", "2,1", "--n", "3"])
        _, dem_out, _ = run(
            capsys,
            monkeypatch,
            ["demazure", "--mu", "2,1", "--w", "3,2,1", "--n", "3"],
        )
        assert schur_out == dem_out


class TestEnumerate:
    def test_column_pair(self, capsys, monkeypatch):
        code, out, err = run(
            capsys, monkeypatch, ["enumerate", "--shape", "1,1", "--n", "2"]
        )
        assert code == 0
        assert "3 tableaux" in err
        assert out == "1 1\n\n1 2\n\n2 2\n\n"

    def test_bad_entry_bound_exit_1(self, capsys, monkeypatch):
        for n in ("0", "-2"):
            code, out, err = run(capsys, monkeypatch, ["enumerate", "--shape", "1", "--n", n])
            assert code == 1
            assert out == "" and err == f"error: entry bound must be >= 1, got {n}\n"


class TestOutputErrors:
    def test_broken_pipe_exit_1(self, capsys, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        monkeypatch.setattr("sys.stdout", ClosedPipe())
        for argv in (["enumerate", "--shape", "1", "--n", "2"], ["--help"]):
            code = main(argv)
            assert code == 1
            assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("argv", [["--help"], ["right-key"], ["enumerate", "--shape", "1"]])
    def test_closed_stdout_exit_1(self, capsys, monkeypatch, argv):
        # Python sets sys.stdout to None when file descriptor 1 is closed
        # at start; a usage error reports the same.
        monkeypatch.setattr("sys.stdout", None)
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: standard output is closed\n"

    def test_closed_stdin_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", None)
        code, out, err = run(capsys, monkeypatch, ["right-key"])
        assert (code, out, err) == (1, "", "error: standard input is closed\n")

    def test_closed_stdout_descriptor_exit_1(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text(EXAMPLE_T_TEXT)
        proc = subprocess.run(
            [sys.executable, "-m", "keyscan.cli", "right-key", str(path)],
            env=keyscan_env(), stderr=subprocess.PIPE, text=True, timeout=120,
            preexec_fn=functools.partial(os.close, 1),
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: standard output is closed\n"

    def test_closed_stderr_descriptor_drops_reports(self, tmp_path):
        # Python sets sys.stderr to None when file descriptor 2 is closed
        # at start; print(file=None) would write the passes to stdout.
        path = tmp_path / "t.txt"
        path.write_text(EXAMPLE_T_TEXT)
        for argv, code, out in [
            (["right-key", "--explain", "--oracle", str(path)], 0, "n=9\n" + EXAMPLE_KEY_TEXT),
            (["right-key", str(tmp_path / "missing.txt")], 1, ""),
        ]:
            proc = subprocess.run(
                [sys.executable, "-m", "keyscan.cli", *argv],
                env=keyscan_env(), stdout=subprocess.PIPE, text=True, timeout=120,
                preexec_fn=functools.partial(os.close, 2),
            )
            assert (proc.returncode, proc.stdout) == (code, out)

    def test_unwritable_stderr_exit_1(self, capsys, monkeypatch):
        class ClosedStderr:
            def write(self, text):
                raise OSError(9, "Bad file descriptor")

            def flush(self):
                pass

        for argv, stdin in [
            (["right-key", "--oracle"], EXAMPLE_T_TEXT),
            (["left-key", "--explain"], EXAMPLE_T_TEXT),
            (["right-key"], "2 1\n"),
        ]:
            monkeypatch.setattr("sys.stderr", ClosedStderr())
            assert run(capsys, monkeypatch, argv, stdin=stdin)[0] == 1

    @staticmethod
    def buffered_env():
        """As in a shell pipeline: block-buffered stdout."""
        env = keyscan_env()
        env.pop("PYTHONUNBUFFERED", None)
        return env

    def test_pipe_closed_after_first_line(self):
        # About 90 kB of output, more than a pipe holds, so the writer is
        # still running when the reader goes.
        proc = subprocess.Popen(
            [sys.executable, "-m", "keyscan.cli", "enumerate", "--shape", "3,3,2", "--n", "7"],
            env=self.buffered_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        assert proc.stdout.readline() == "1 1 1\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert err == "error: [Errno 32] Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_exit_1(self, tmp_path):
        # The output is still buffered when the command ends: the report
        # is one line, with no second failure from the flush at exit.
        # argparse itself drops a write error, so help is a case of its own.
        path = tmp_path / "t.txt"
        path.write_text(EXAMPLE_T_TEXT)
        for argv in (["right-key", str(path)], ["--help"]):
            with open("/dev/full", "w") as full:
                proc = subprocess.run(
                    [sys.executable, "-m", "keyscan.cli", *argv],
                    env=self.buffered_env(), stdout=full, stderr=subprocess.PIPE, text=True,
                    timeout=120,
                )
            assert proc.returncode == 1
            assert proc.stderr == "error: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("stdout_full", [False, True])
    def test_full_stderr_keeps_stdout(self, tmp_path, stdout_full):
        # The key is still buffered when the oracle's report to stderr
        # fails: it reaches a working stdout, and a full one exits 1 too.
        path = tmp_path / "t.txt"
        path.write_text(EXAMPLE_T_TEXT)
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "keyscan.cli", "right-key", "--oracle", str(path)],
                env=self.buffered_env(), stdout=full if stdout_full else subprocess.PIPE,
                stderr=full, text=True, timeout=120,
            )
        want = None if stdout_full else "n=9\n" + EXAMPLE_KEY_TEXT
        assert (proc.returncode, proc.stdout) == (1, want)


class TestStartup:
    def test_import_leaves_process_pool_unloaded(self):
        proc = run_python(
            "import sys, keyscan.cli\n"
            "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize("argv, unloaded", [
        (None, ("dataclasses", "inspect", "keyscan.scanning", "keyscan.jdt",
                "keyscan.demazure", "keyscan.verify")),
        (["right-key"], ("dataclasses", "keyscan.jdt", "keyscan.demazure", "keyscan.verify")),
        (["left-key"], ("dataclasses", "keyscan.jdt", "keyscan.demazure", "keyscan.verify")),
        (["demazure", "--mu", "2,1", "--w", "2,3,1", "--n", "3", "--engine", "scan"],
         ("keyscan.jdt", "keyscan.verify")),
    ])
    def test_subcommand_loads_only_what_it_runs(self, argv, unloaded):
        # A fresh interpreter imports the CLI, runs one subcommand with
        # its output discarded, and lists the modules it left loaded.
        proc = run_python(
            "import io, sys\n"
            "from keyscan.cli import main\n"
            f"argv = {argv!r}\n"
            "if argv is not None:\n"
            f"    sys.stdin, sys.stdout = io.StringIO({EXAMPLE_T_TEXT!r}), io.StringIO()\n"
            "    rc = main(argv)\n"
            "    sys.stdout = sys.__stdout__\n"
            "    assert rc == 0, rc\n"
            f"print([m for m in {unloaded!r} if m in sys.modules])\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestStrictIntegers:
    # Integer flags and lists read ASCII decimal only, as tableau text
    # does: int() alone would take 1_0 as 10 and read non-ASCII digits.
    @pytest.mark.parametrize("flag, argv", [
        ("--n", ["schur", "--mu", "1", "--n", "{}"]),
        ("--max-boxes", ["verify", "--max-boxes", "{}", "--max-entry", "1"]),
        ("--max-entry", ["verify", "--max-boxes", "1", "--max-entry", "{}"]),
        ("--jobs", ["verify", "--max-boxes", "1", "--max-entry", "1", "--jobs", "{}"]),
    ])
    def test_integer_flag(self, capsys, monkeypatch, flag, argv):
        for bad in ("1_0", "\u0661", "\uff13"):
            code, out, err = run(capsys, monkeypatch, [a.format(bad) for a in argv])
            assert (code, out) == (1, ""), bad
            assert err.startswith("usage: keyscan"), bad
            assert [line for line in err.splitlines() if "error:" in line] == [
                f"keyscan {argv[0]}: error: argument {flag}: invalid int value: {bad!r}"
            ]

    @pytest.mark.parametrize("argv", [
        ["demazure", "--mu", "{}", "--w", "1", "--n", "1"],
        ["demazure", "--mu", "1", "--w", "{}", "--n", "1"],
        ["enumerate", "--shape", "{}", "--n", "2"],
    ])
    def test_integer_list(self, capsys, monkeypatch, argv):
        for bad in ("1_0", "\u0661", "\uff13"):
            code, out, err = run(capsys, monkeypatch, [a.format(bad) for a in argv])
            assert (code, out) == (1, ""), bad
            assert err == f"error: not a list of integers: {bad!r}\n"

    def test_ascii_integers_still_read(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["schur", "--mu", " 1, 1 ", "--n", " 2"])
        assert (code, out) == (0, "1 1 1\n")


class TestUsage:
    def test_usage_errors_exit_1(self, capsys, monkeypatch):
        # argparse exits 2, which the CLI keeps for internal errors.
        for argv in (["demazure", "--mu", "1", "--w", "1", "--n", "abc"],
                     ["demazure", "--mu", "1", "--w", "1"], ["frobnicate"], []):
            code, out, err = run(capsys, monkeypatch, argv)
            assert (code, out) == (1, ""), argv
            assert err.startswith("usage: keyscan") and "error:" in err, argv

    def test_leftover_arguments_exit_1(self, capsys, monkeypatch):
        # A word the subcommand's parser leaves is reported by the full
        # parser, under the top-level usage line.
        for argv in (["right-key", "a", "b"], ["right-key", "--bogus"],
                     ["enumerate", "--shape", "1", "--n", "1", "extra"]):
            code, out, err = run(capsys, monkeypatch, argv)
            assert (code, out) == (1, ""), argv
            assert err.startswith(build_parser().format_usage()), argv
            assert "error: unrecognized arguments:" in err, argv

    def test_help_exits_0(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["--help"])
        assert code == 0 and out.startswith("usage: keyscan")

    @pytest.mark.parametrize("command", ["right-key", "left-key"])
    def test_key_help_describes_every_argument(self, capsys, monkeypatch, command):
        code, out, _ = run(capsys, monkeypatch, [command, "--help"])
        assert code == 0
        for name in ("file", "--explain", "--oracle"):
            assert re.search(rf"^  {name} +\S", out, re.M), (name, out)


class TestParser:
    # Each command line is read as the full parser reads it, whether it
    # takes the subcommand's own parser or falls back to the full one.
    ARGVS = [
        ["right-key"],
        ["right-key", "-"],
        ["right-key", "--", "file"],
        ["right-key", "--", "--explain"],
        ["right-key", "a", "b"],
        ["right-key", "--bogus"],
        ["right-key", "--expl"],
        ["right-key", "--explain", "--bogus", "-h"],
        ["left-key", "--oracle"],
        ["left-key", "-h"],
        ["demazure", "--mu=2,1", "--w=2,1", "--n=2"],
        ["demazure", "--mu", "2,1", "--w", "2,1", "--n", "2", "--eng", "scan"],
        ["demazure", "--mu", "2,1", "--w", "2,1", "--n", "2", "--", "x"],
        ["demazure", "--mu", "1", "--w", "1", "--n", "abc"],
        ["demazure", "--mu", "1", "--w", "1"],
        ["demazure", "--mu", "1", "--w", "1", "--n", "1", "--engine", "oracle",
         "--all-engines"],
        ["demazure", "--help"],
        ["schur", "--mu", "2", "--n", "3", "--n", "2"],
        ["verify", "--max-boxes", "2", "--max-entry", "2"],
        ["verify", "--max-boxes", "2"],
        ["enumerate", "--shape", "2,1", "--n", "3"],
        ["enumerate", "--shape", "2,1", "--n", "3", "extra"],
        ["enumerate", "--shape", "1", "--n", "1", "--shape"],
        ["frobnicate"],
        ["right", "-h"],
        [],
        ["--help"],
        ["-h", "right-key"],
    ]

    def test_same_as_full_parser(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        build_parser()
        for argv in self.ARGVS:
            fast = run(capsys, monkeypatch, argv, stdin=EXAMPLE_T_TEXT)
            with monkeypatch.context() as m:
                m.setattr(cli, "_subparsers", dict)  # no subcommand's own parser
                full = run(capsys, monkeypatch, argv, stdin=EXAMPLE_T_TEXT)
            assert fast == full, argv

    def test_same_namespace_as_full_parser(self):
        for argv in (["right-key", "-", "--oracle"], ["left-key"],
                     ["demazure", "--mu=2,1", "--w=2,1", "--n=2", "--all"],
                     ["verify", "--max-boxes", "2", "--max-entry", "2", "--jobs", "2"]):
            assert vars(cli._parse(argv)) == vars(build_parser().parse_args(argv)), argv

    def test_subcommand_parsed_once(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("full parser used")

        monkeypatch.setattr(build_parser(), "parse_args", refuse)
        code, out, _ = run(capsys, monkeypatch, ["demazure", "--mu", "2,1", "--w", "2,1",
                                                 "--n", "2"])
        assert (code, out) == (0, "1 2 1\n1 1 2\n")

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_engine_flags_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["demazure", "--mu", "1", "--w", "1", "--n", "1",
                 "--engine", "oracle", "--all-engines"]
            )
