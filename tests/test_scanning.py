import random
from itertools import combinations, groupby
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyscan import scanning
from keyscan.jdt import left_key_oracle, right_key_oracle
from keyscan.scanning import (
    EmptySequence,
    InternalInvariantError,
    ewis,
    kernel_name,
    left_key,
    left_passes,
    left_trace,
    right_passes,
    scan_column,
    scan_trace,
    scanning_tableau,
)
from keyscan.tableau import Tableau, entrywise_leq, parse_tableau

from conftest import EXAMPLE_KEY_TEXT
from helpers import census, dense_tableaux, large_tableaux, seeded_columns


def key_column(passes):
    """The key column that the paper's passes give: each pass's last
    member, bottom up."""
    return tuple(p[-1] for p in reversed(passes))


def passwise_scan_column(cols, start):
    return key_column(right_passes(cols, start))


def passwise_left_column(cols, end):
    return key_column(left_passes(cols, end))


def passwise_scanning_tableau(t):
    return Tableau(
        tuple(passwise_scan_column(t.columns, s) for s in range(t.k)), t.n
    )


@st.composite
def tall_or_wide_columns(draw):
    """Columns of a semistandard tableau, tall (few long columns) or wide
    (many short ones), with entries shifted to lie near 2**31, near 2**63
    (straddling it) or above 2**64."""
    tall = draw(st.booleans())
    k = draw(st.integers(1, 4 if tall else 30))
    height = draw(st.integers(1, 30 if tall else 4))
    lengths = sorted(draw(st.lists(st.integers(1, height), min_size=k, max_size=k)),
                     reverse=True)
    cols = []
    for c, length in enumerate(lengths):
        col = []
        for r in range(length):
            lo = max(col[-1] + 1 if col else 1, cols[c - 1][r] if c else 1)
            col.append(lo + draw(st.integers(0, 2)))
        cols.append(col)
    base = draw(st.sampled_from([0, 2**31 - 40, 2**63 - 40, 2**64 + 7]))
    return tuple(tuple(base + e for e in col) for col in cols)


def wrapper_indices(cols):
    """The indices that ``scanning_tableau`` and ``left_key`` ask the
    kernel for: each run's last column but the last run's, and each run's
    first column but the first run's."""
    lengths = [len(col) for col in cols]
    ends = [s for s in range(len(cols) - 1) if lengths[s + 1] != lengths[s]]
    firsts = [c for c in range(1, len(cols)) if lengths[c - 1] != lengths[c]]
    return ends, firsts


class TestEwis:
    def test_empty_raises(self):
        with pytest.raises(EmptySequence):
            ewis(())

    def test_single(self):
        e = ewis((5,))
        assert e.indices == (1,) and e.values == (5,) and e.last == 5

    def test_decreasing_sequence(self):
        assert ewis((4, 3, 2)).values == (4,)

    def test_skips_then_resumes(self):
        e = ewis((3, 1, 3, 2, 5))
        assert e.indices == (1, 3, 5)
        assert e.values == (3, 3, 5)

    @settings(max_examples=200)
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=12))
    def test_properties(self, seq):
        e = ewis(seq)
        assert e.indices[0] == 1
        assert list(e.values) == sorted(e.values)
        assert all(a < b for a, b in zip(e.indices, e.indices[1:]))
        # earliest: between consecutive members every entry is < the
        # earlier member's value
        for (i, v), j in zip(zip(e.indices, e.values), e.indices[1:]):
            assert all(seq[p - 1] < v for p in range(i + 1, j))


class TestScanColumn:
    def test_first_column_passes(self, example_t):
        trace = scan_trace(example_t)[0]
        col = scan_column(example_t, 1)
        assert trace == [
            (8, 9, 9),
            (7, 7, 8),
            (5, 5, 6, 7),
            (4, 5, 6),
            (2, 3, 3, 4),
            (1, 1),
        ]
        assert col == (1, 4, 6, 7, 8, 9)

    def test_third_column_passes(self, example_t):
        trace = scan_trace(example_t)[2]
        col = scan_column(example_t, 3)
        assert trace == [(9, 9), (6, 8), (5, 7), (3, 4, 6)]
        assert col == (6, 7, 8, 9)

    def test_bad_start(self, example_t):
        with pytest.raises(IndexError):
            scan_column(example_t, 0)
        with pytest.raises(IndexError):
            scan_column(example_t, 6)

    def test_traced_matches_kernel(self, example_t):
        # A pass's last member is an entry of the column, bottom up.
        for s, passes in enumerate(scan_trace(example_t), start=1):
            assert scan_column(example_t, s) == key_column(passes)


class TestScanningTableau:
    def test_example(self, example_t):
        assert scanning_tableau(example_t) == parse_tableau(EXAMPLE_KEY_TEXT)

    def test_empty(self):
        t = Tableau((), 3)
        assert scanning_tableau(t) == t

    def test_matches_naive_reference(self):
        for t in census(6, 4):
            assert scanning_tableau(t) == passwise_scanning_tableau(t)

    def test_is_key_and_dominates(self):
        for t in census(6, 4):
            s = scanning_tableau(t)
            assert s.is_key()
            assert s.shape == t.shape
            assert entrywise_leq(t, s)

    def test_key_is_fixed(self):
        for t in census(5, 4):
            if t.is_key():
                assert scanning_tableau(t) == t

    def test_equal_length_columns_coincide(self, example_t):
        s = scanning_tableau(example_t)
        assert s.columns[1] == s.columns[2]

    def test_matches_independent_oracle(self):
        for t in census(5, 4):
            assert scanning_tableau(t) == right_key_oracle(t)

    def test_trace_shape(self, example_t):
        traces = scan_trace(example_t)
        assert len(traces) == example_t.k
        assert [len(tr) for tr in traces] == list(example_t.shape)


class TestKernels:
    def test_active_kernel_reported(self):
        assert kernel_name() in ("compiled", "pure")

    # The names date from when these compared the compiled kernel with the
    # pure one; both now hold every kernel, the pure one included, to the
    # passwise columns on entries near 2**31, 2**63 and above 2**64.
    @settings(max_examples=150, deadline=None)
    @given(tall_or_wide_columns(), st.data())
    def test_compiled_matches_pure_fuzzed(self, kernels, cols, data):
        starts = sorted(set(data.draw(st.lists(st.integers(0, len(cols) - 1), max_size=6))))
        every = range(len(cols))
        right = [passwise_scan_column(cols, s) for s in every]
        t = Tableau(cols, max(col[-1] for col in cols))
        for kernel in kernels:
            for sub in (starts, every):
                assert kernel.scan_columns(cols, sub) == [right[s] for s in sub]
            with mock.patch.object(scanning, "_kernel", kernel):
                assert scanning_tableau(t).columns == tuple(right)

    @settings(max_examples=150, deadline=None)
    @given(tall_or_wide_columns(), st.data())
    def test_compiled_left_matches_pure_fuzzed(self, kernels, cols, data):
        ends = sorted(set(data.draw(st.lists(st.integers(0, len(cols) - 1), max_size=6))))
        every = range(len(cols))
        left = [passwise_left_column(cols, e) for e in every]
        t = Tableau(cols, max(col[-1] for col in cols))
        for kernel in kernels:
            for sub in (ends, every):
                assert kernel.left_columns(cols, sub) == [left[e] for e in sub]
            with mock.patch.object(scanning, "_kernel", kernel):
                assert left_key(t).columns == tuple(left)

    def test_both_kernels_match_passwise_on_census(self, kernels):
        for t in census(7, 5):
            cols, every = t.columns, range(t.k)
            right = [passwise_scan_column(cols, s) for s in every]
            left = [passwise_left_column(cols, e) for e in every]
            for kernel in kernels:
                assert kernel.scan_columns(cols, every) == right
                assert kernel.left_columns(cols, every) == left

    def test_large_tableaux_match_passwise(self, kernels):
        """Many columns and many rows, where runs of passes decline an
        entry and left walks are long: 40 columns of repeated lengths up
        to 30, and 24 columns of distinct lengths."""
        rng = random.Random(2011)
        shapes = [sorted((rng.choice((30, 27, 21, 14, 6)) for _ in range(40)), reverse=True)
                  for _ in range(2)]
        shapes += [sorted(rng.sample(range(1, 31), 24), reverse=True) for _ in range(2)]
        for cols in (seeded_columns(l, rng) for l in shapes):
            every = range(len(cols))
            right = [passwise_scan_column(cols, s) for s in every]
            left = [passwise_left_column(cols, e) for e in every]
            for kernel in kernels:
                assert kernel.scan_columns(cols, every) == right
                assert kernel.left_columns(cols, every) == left
        # An empty column, so not a tableau: left walks that reach it run
        # past its top in every kernel.
        cols = cols[:10] + [()] + cols[10:]
        with pytest.raises(InternalInvariantError):
            left_passes(cols, 11)
        for kernel in kernels:
            with pytest.raises(InternalInvariantError):
                kernel.left_columns(cols, (11,))

    def test_run_rule(self, kernels):
        """What lets a caller skip scans: in a key, equal-length columns
        are equal, so a column followed by one of the same length scans,
        at start 0 of its suffix, to the column its successor's suffix
        scans to, and a last column scans to itself.  Held by the paper's
        passes and by every kernel."""
        for t in [*census(6, 4), *large_tableaux()]:
            cols = t.columns
            suffixes = [cols[i:] for i in range(len(cols))]
            scans = [[passwise_scan_column(sub, 0) for sub in suffixes]]
            scans += [[kernel.scan_columns(sub, (0,))[0] for sub in suffixes]
                      for kernel in kernels]
            for scanned in scans:
                assert scanned[-1:] == [*cols[-1:]]
                for i in range(len(cols) - 1):
                    if len(cols[i]) == len(cols[i + 1]):
                        assert scanned[i] == scanned[i + 1], (t, i)

    def test_one_contract(self, kernels):
        # Key columns only: no kernel takes a third argument.
        for kernel in kernels:
            with pytest.raises(TypeError):
                kernel.scan_columns([(1,)], (0,), [])
            with pytest.raises(TypeError):
                kernel.left_columns([(1,)], (0,), [])

    def test_bad_input_raises(self, kernels):
        for kernel in kernels:
            for cols, indices in (([(1,)], (1,)), ([(1,)], (-1,)), ([], (0,)),
                                  ([(1, 2), (2,)], (0, 2))):
                with pytest.raises(IndexError):
                    kernel.scan_columns(cols, indices)
                with pytest.raises(IndexError):
                    kernel.left_columns(cols, indices)
        for kernel in kernels[1:]:  # the compiled kernel reads entries as C integers
            with pytest.raises(TypeError):
                kernel.scan_columns([(1, 2.5)], (0,))
            with pytest.raises(TypeError):
                kernel.left_columns([(1.5,), (2,)], (1,))

    def test_left_walk_past_the_top_raises(self, kernels):
        for kernel in kernels:
            for cols in ([(2,), (1,)], [(2, 3), (1, 2)], [(2**70,), (1,)]):
                with pytest.raises(InternalInvariantError):
                    kernel.left_columns(cols, (len(cols) - 1,))


class TestSweep:
    """Each index of a call gets the paper's column, whatever the other
    indices: the pure kernel sweeps once for all of them as nested level
    sets, the compiled one scans each on its own."""

    def test_every_index_subset_on_census(self, kernels):
        for t in census(6, 4):
            cols, every = t.columns, range(t.k)
            right = [passwise_scan_column(cols, s) for s in every]
            left = [passwise_left_column(cols, e) for e in every]
            for size in range(t.k + 1):
                for sub in combinations(every, size):
                    for kernel in kernels:
                        assert kernel.scan_columns(cols, sub) == [right[s] for s in sub]
                        assert kernel.left_columns(cols, sub) == [left[e] for e in sub]

    def test_many_levels_long_runs_and_ties(self, kernels):
        """36 distinct column lengths, so up to 36 levels at once; runs of
        20 and 22 equal lengths; and spread 0, where every entry sits at
        its lower bound and ties run along the rows."""
        rng = random.Random(1110)
        shapes = [sorted(rng.sample(range(1, 41), 36), reverse=True),
                  [9] * 3 + [7] * 22 + [4] * 20 + [2] * 5]
        for lengths in shapes:
            for spread in (0, 1, 2):
                cols = seeded_columns(lengths, rng, spread)
                every = range(len(cols))
                right = [passwise_scan_column(cols, s) for s in every]
                left = [passwise_left_column(cols, e) for e in every]
                ends, firsts = wrapper_indices(cols)
                subset = sorted(rng.sample(every, len(cols) // 2))
                for kernel in kernels:
                    for indices in (every, ends, subset):
                        assert kernel.scan_columns(cols, indices) == [right[s] for s in indices]
                    for indices in (every, firsts, subset):
                        assert kernel.left_columns(cols, indices) == [left[e] for e in indices]


class TestDenseOracle:
    def test_dense_tableaux_match_both_oracles(self, kernels):
        """Both keys against jeu de taquin beyond the census: longer
        columns, larger entries, many ties and long runs of equal
        lengths, under every kernel."""
        ts = dense_tableaux()
        assert len(ts) == 200 and min(sum(t.shape) for t in ts) > 8
        assert max(max(col) for t in ts for col in t.columns) > 5
        assert max(t.shape[0] for t in ts) > 5
        assert max(len(list(run)) for t in ts for _, run in groupby(t.shape)) >= 20
        for t in ts:
            right, left = right_key_oracle(t), left_key_oracle(t)
            for kernel in kernels:
                with mock.patch.object(scanning, "_kernel", kernel):
                    assert scanning_tableau(t) == right
                    assert left_key(t) == left


class TestLeftKey:
    def test_trace_on_example(self, example_t):
        traces = left_trace(example_t)
        assert traces[1] == [(7, 7), (5, 5), (3, 2), (1, 1)]
        assert traces[4] == [(9, 8, 6, 5, 5), (6, 4, 3, 3, 2)]
        assert [len(tr) for tr in traces] == list(example_t.shape)
        for col, passes in zip(left_key(example_t).columns, traces):
            assert col == key_column(passes)

    def test_is_key_and_below(self):
        for t in census(6, 4):
            lk = left_key(t)
            assert lk.is_key()
            assert lk.shape == t.shape
            assert entrywise_leq(lk, t)

    def test_key_is_fixed(self):
        for t in census(5, 4):
            if t.is_key():
                assert left_key(t) == t

    def test_matches_independent_oracle(self):
        for t in census(5, 3):
            assert left_key(t) == left_key_oracle(t)

    def test_between_keys(self):
        for t in census(5, 4):
            assert entrywise_leq(left_key(t), scanning_tableau(t))
