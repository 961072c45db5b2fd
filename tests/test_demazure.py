import itertools
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyscan import _scan_py, scanning
from keyscan.demazure import (
    BadDimensions,
    EmptyComposition,
    SparsePolynomial,
    _candidates,
    _extend,
    compose,
    demazure_by_operators,
    demazure_character,
    format_polynomial,
    key_of_composition,
    pi_operator,
    reduced_word,
    schur_polynomial,
)
from keyscan.verify import shapes_up_to

from helpers import is_symmetric_in, swap_variables


def times_var(p, i):
    """Multiply by x_i (1-based); test-local helper."""
    terms = {}
    for mono, coeff in p.terms.items():
        m = list(mono)
        m[i - 1] += 1
        terms[tuple(m)] = coeff
    return SparsePolynomial(p.nvars, terms)


def neg(p):
    return SparsePolynomial(p.nvars, {m: -c for m, c in p.terms.items()})


class TestSparsePolynomial:
    def test_zero(self):
        z = SparsePolynomial(3)
        assert z.terms == {}
        assert z + z == z

    def test_add_cancels(self):
        p = SparsePolynomial.monomial((1, 0))
        q = SparsePolynomial.monomial((1, 0), -1)
        assert (p + q) == SparsePolynomial(2)

    def test_rejects_stored_zero(self):
        with pytest.raises(ValueError):
            SparsePolynomial(2, {(0, 0): 0})

    def test_rejects_wrong_arity(self):
        with pytest.raises(BadDimensions):
            SparsePolynomial(2, {(1,): 1})
        with pytest.raises(BadDimensions):
            SparsePolynomial.monomial((1, 0)) + SparsePolynomial.monomial((1, 0, 0))

    def test_coefficient(self):
        p = SparsePolynomial.monomial((2, 1), 3)
        assert p.coefficient((2, 1)) == 3
        assert p.coefficient((1, 2)) == 0

    def test_swap_variables(self):
        p = SparsePolynomial.monomial((2, 1, 0)) + SparsePolynomial.monomial((0, 1, 2))
        q = swap_variables(p, 1)
        assert q.coefficient((1, 2, 0)) == 1
        assert q.coefficient((1, 0, 2)) == 1
        assert not is_symmetric_in(p, 1)
        assert is_symmetric_in(SparsePolynomial.monomial((1, 1, 0), 2), 1)


class TestFormat:
    def test_ordering_and_layout(self):
        p = SparsePolynomial.monomial((0, 2)) + SparsePolynomial.monomial((1, 1), 2)
        assert format_polynomial(p) == "2 1 1\n1 0 2\n"

    def test_empty(self):
        assert format_polynomial(SparsePolynomial(2)) == ""

    def test_str(self):
        assert str(SparsePolynomial.monomial((3,), 5)) == "5 3\n"


class TestPiOperator:
    def test_basic_monomial(self):
        p = pi_operator(SparsePolynomial.monomial((1, 0)), 1)
        assert p.terms == {(1, 0): 1, (0, 1): 1}

    def test_antidominant_monomial(self):
        p = pi_operator(SparsePolynomial.monomial((0, 2)), 1)
        assert p.terms == {(1, 1): -1}

    def test_equal_exponents_fixed(self):
        p = SparsePolynomial.monomial((2, 2, 0))
        assert pi_operator(p, 1) == p

    def test_index_bounds(self):
        p = SparsePolynomial.monomial((1, 0))
        with pytest.raises(BadDimensions):
            pi_operator(p, 0)
        with pytest.raises(BadDimensions):
            pi_operator(p, 2)
        for i, message in [(1.0, "operator index 1.0 is not an integer"),
                           (True, "operator index True is not an integer"),
                           ("1", "operator index '1' is not an integer")]:
            with pytest.raises(BadDimensions, match=f"^{message}$"):
                pi_operator(p, i)

    def test_defining_identity(self):
        # (x_i - x_{i+1}) pi_i(p) == x_i p - x_{i+1} s_i(p)
        monos = list(itertools.product(range(4), repeat=3))
        for mono in monos:
            p = SparsePolynomial.monomial(mono, 2)
            for i in (1, 2):
                q = pi_operator(p, i)
                lhs = times_var(q, i) + neg(times_var(q, i + 1))
                rhs = times_var(p, i) + neg(times_var(swap_variables(p, i), i + 1))
                assert lhs == rhs, (mono, i)

    def test_idempotent_and_symmetric_output(self):
        for mono in itertools.product(range(4), repeat=3):
            p = SparsePolynomial.monomial(mono)
            for i in (1, 2):
                q = pi_operator(p, i)
                assert pi_operator(q, i) == q
                assert is_symmetric_in(q, i)

    def test_commuting_operators(self):
        for mono in itertools.product(range(3), repeat=4):
            p = SparsePolynomial.monomial(mono)
            assert pi_operator(pi_operator(p, 1), 3) == pi_operator(
                pi_operator(p, 3), 1
            )

    def test_braid_relation(self):
        def pi(p, *word):
            for i in word:
                p = pi_operator(p, i)
            return p

        for mono in itertools.product(range(3), repeat=3):
            p = SparsePolynomial.monomial(mono)
            assert pi(p, 1, 2, 1) == pi(p, 2, 1, 2)


class TestCompositions:
    def test_key_of_composition(self):
        t = key_of_composition((2, 0, 1))
        assert t.is_key()
        assert t.weight() == (2, 0, 1)
        assert t.columns == ((1, 3), (1,))

    def test_every_weak_composition(self):
        for parts in itertools.product(range(3), repeat=3):
            if not any(parts):
                continue
            t = key_of_composition(parts)
            assert t.is_key() and t.weight() == parts

    def test_bad_compositions(self):
        with pytest.raises(EmptyComposition):
            key_of_composition(())
        with pytest.raises(EmptyComposition):
            key_of_composition((0, 0))
        with pytest.raises(EmptyComposition):
            key_of_composition((1, -1))
        for parts, message in [((1.5,), r"part 1\.5 of \(1\.5,\) is not an integer"),
                               (("a",), r"part 'a' of \('a',\) is not an integer"),
                               ((True, 1), r"part True of \(True, 1\) is not an integer"),
                               ((2, 0.0), r"part 0\.0 of \(2, 0\.0\) is not an integer")]:
            with pytest.raises(BadDimensions, match=f"^{message}$"):
                key_of_composition(parts)

    def test_compose(self):
        assert compose((2, 1), (1,), 2) == (0, 1)
        assert compose((3, 1, 2), (2, 1), 3) == (1, 0, 2)
        assert compose((1, 2), (2, 2), 3) == (2, 2, 0)

    def test_compose_validation(self):
        with pytest.raises(BadDimensions):
            compose((1, 1), (1,), 2)
        with pytest.raises(BadDimensions):
            compose((1, 2), (1, 2), 2)
        with pytest.raises(BadDimensions):
            compose((1, 2, 3), (1,), 2)
        for n in (0, -1):
            with pytest.raises(BadDimensions):
                compose((), (), n)
        with pytest.raises(BadDimensions, match=r"^\(2\.0, 1\) is not a partition$"):
            demazure_character((2.0, 1), (1, 2), 2)
        # n is checked before w, and w's entries must be ints.
        for w, n, message in [
            ((1,), 2.0, "entry bound 2.0 is not an integer"),
            ((1, 1), 2.0, "entry bound 2.0 is not an integer"),
            ((1,), "2", "entry bound '2' is not an integer"),
            ((1,), 0, "entry bound must be >= 1, got 0"),
            ((1.0,), 2, r"\(1\.0,\) is not a permutation of 1\.\.1"),
            ((True,), 2, r"\(True,\) is not a permutation of 1\.\.1"),
            ((2, True), 2, r"\(2, True\) is not a permutation of 1\.\.2"),
        ]:
            for build in (compose, demazure_character, demazure_by_operators):
                args = (w, (1,), n) if build is compose else ((1,), w, n)
                with pytest.raises(BadDimensions, match=f"^{message}$"):
                    build(*args)


class TestReducedWord:
    def test_identity(self):
        assert reduced_word((1, 2, 3)) == ()

    def test_words_multiply_back(self):
        for w in itertools.permutations(range(1, 5)):
            for pick_last in (False, True):
                word = reduced_word(w, pick_last)
                inversions = sum(
                    1
                    for i in range(4)
                    for j in range(i + 1, 4)
                    if w[i] > w[j]
                )
                assert len(word) == inversions
                v = list(range(1, 5))
                for i in reversed(word):
                    v[i - 1], v[i] = v[i], v[i - 1]
                assert tuple(v) == w


class TestSchur:
    def test_hook_21_in_three_variables(self):
        s = schur_polynomial((2, 1), 3)
        assert sum(s.terms.values()) == 8
        assert s.coefficient((1, 1, 1)) == 2
        assert s.coefficient((2, 1, 0)) == 1
        assert all(is_symmetric_in(s, i) for i in (1, 2))

    def test_single_row(self):
        s = schur_polynomial((2,), 2)
        assert s.terms == {(2, 0): 1, (1, 1): 1, (0, 2): 1}


class TestDemazureCharacter:
    MUS = [(1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1)]

    def test_identity_is_dominant_monomial(self):
        p = demazure_character((2, 1), (1, 2, 3), 3)
        assert p.terms == {(2, 1, 0): 1}

    def test_longest_element_gives_schur(self):
        for mu in self.MUS:
            n = 3
            assert demazure_character(mu, (3, 2, 1), n) == schur_polynomial(mu, n)

    # every (mu, w) with n <= 4 and |mu| <= 6, then mu with trailing zeros
    # and w shorter than n (compose pads both)
    ENGINE_CASES = [
        (mu, w, n)
        for n in range(1, 5)
        for mu in shapes_up_to(6)
        if len(mu) <= n
        for w in itertools.permutations(range(1, n + 1))
    ] + [((2, 1, 0), (2, 1), 3), ((1, 0, 0, 0), (3, 1, 2), 4), ((2, 2, 0), (), 4)] + [
        # the empty partition: the constant 1, whatever w
        (mu, w, n)
        for mu in ((), (0,), (0, 0))
        for n in range(1, 4)
        for w in itertools.permutations(range(1, n + 1))
    ]

    def test_engines_agree(self):
        for mu, w, n in self.ENGINE_CASES:
            scan = demazure_character(mu, w, n, engine="scan")
            assert scan == demazure_character(mu, w, n, engine="oracle"), (mu, w, n)
            assert scan == demazure_by_operators(mu, w, n), (mu, w, n)
            assert scan == demazure_by_operators(mu, w, n, pick_last=True), (mu, w, n)
        # beyond the oracle engine's reach: 43008 tableaux of the shape, 4 kept
        mu, w = (4, 3, 2, 1), (2, 1, 4, 3, 5, 6, 7)
        assert demazure_character(mu, w, 7) == demazure_by_operators(mu, w, 7)

    def test_positive_and_contains_dominant_term(self):
        for mu in self.MUS:
            for w in itertools.permutations((1, 2, 3)):
                p = demazure_character(mu, w, 3)
                assert all(c > 0 for c in p.terms.values())
                dominant = tuple(mu) + (0,) * (3 - len(mu))
                assert p.coefficient(dominant) == 1

    def test_monotone_in_bruhat_order(self):
        # the longest element dominates everything
        for mu in self.MUS:
            full = demazure_character(mu, (3, 2, 1), 3)
            for w in itertools.permutations((1, 2, 3)):
                p = demazure_character(mu, w, 3)
                assert all(full.coefficient(m) >= c for m, c in p.terms.items())

    def test_bad_engine(self):
        with pytest.raises(ValueError):
            demazure_character((1,), (1, 2), 2, engine="nope")

    def test_empty_partition_still_checks_w_and_n(self):
        for engine in ("scan", "oracle"):
            with pytest.raises(BadDimensions):
                demazure_character((), (1, 1), 2, engine)
            with pytest.raises(BadDimensions):
                demazure_character((), (), 0, engine)
        with pytest.raises(BadDimensions):
            demazure_by_operators((), (), 0)


@st.composite
def tableau_columns(draw):
    """Columns of a semistandard tableau, built as the benchmark's
    ``random_tableau_columns`` builds them: weakly decreasing lengths in
    height//2..height, each entry its lower bound plus 0, 1 or 2."""
    k = draw(st.integers(1, 8))
    height = draw(st.integers(1, 8))
    lengths = sorted(
        draw(st.lists(st.integers(max(1, height // 2), height), min_size=k, max_size=k)),
        reverse=True,
    )
    cols = []
    for c, length in enumerate(lengths):
        col = []
        for r in range(length):
            lo = max(col[-1] + 1 if col else 1, cols[c - 1][r] if c else 1)
            col.append(lo + draw(st.integers(0, 2)))
        cols.append(tuple(col))
    return cols


class TestScanSkip:
    """The scan engine scans a suffix with key column b of length l only
    when the run rule leaves it open, that is when a shorter column
    follows b, and its largest entry M exceeds b[0] + l - 1."""

    @pytest.fixture
    def scans(self, monkeypatch):
        """The suffix length of every scan made, in order."""
        calls = []

        def counted(cols, starts):
            calls.append(len(cols))
            return _scan_py.scan_columns(cols, starts)

        monkeypatch.setattr(scanning, "_kernel", SimpleNamespace(scan_columns=counted))
        return calls

    @settings(max_examples=300)
    @given(tableau_columns())
    def test_scanned_rows_bounded_by_largest_entry(self, cols):
        l, top = len(cols[0]), max(col[-1] for col in cols)
        scanned = _scan_py.scan_columns(cols, (0,))[0]
        assert all(v <= top - (l - 1 - r) for r, v in enumerate(scanned))

    def test_longest_element_makes_no_scan(self, monkeypatch):
        def refuse(cols, starts):
            raise AssertionError("scan made for the longest element")

        monkeypatch.setattr(scanning, "_kernel", SimpleNamespace(scan_columns=refuse))
        for mu, n in (((2, 1), 3), ((3, 2, 1), 4), ((2, 2, 1, 1, 1), 6)):
            w0 = tuple(range(n, 0, -1))
            assert demazure_character(mu, w0, n) == schur_polynomial(mu, n)

    def test_near_identity_still_scans(self, scans):
        mu, w, n = (3, 2, 1), (1, 2, 4, 3, 5), 5
        assert demazure_character(mu, w, n) == demazure_by_operators(mu, w, n)
        # Every scan, by suffix length: counting a list at once must never
        # replace a scan that could drop a suffix.
        assert scans == [3]
        scans.clear()
        mu, w, n = (3, 2, 1), (3, 5, 4, 1, 2, 6), 6  # the benchmark's random class
        assert demazure_character(mu, w, n) == demazure_by_operators(mu, w, n)
        assert scans == [2] * 6

    @pytest.mark.parametrize("mu, w, n, lengths", [
        # Key columns (1, 3), (1, 3), (1,), (1,): only the first run's
        # last column is scanned, with its suffix of 3.
        ((4, 2), (1, 3, 2, 4), 4, [3]),
        # Key columns (1, 3), (1, 3): one run, the last.
        ((2, 2), (1, 3, 2), 3, []),
        # One key column, (1, 3): the last column alone.
        ((1, 1), (1, 3, 2), 3, []),
    ])
    def test_run_rule_skips_scans(self, scans, mu, w, n, lengths):
        assert demazure_character(mu, w, n) == demazure_by_operators(mu, w, n)
        assert scans == lengths

    def test_pruned_leaf_list_counts_nothing(self):
        # Key columns (2, 4), (4,), as for mu = (2, 1) and w = (4, 2, 1, 3)
        # at n = 4, with (4,) in the last column.  Column 0 is bounded by
        # (2, 4) and has five candidates.  The suffix holds a 4
        # (top = 4 > 2 + 2 - 1) and column 1 is shorter, so every one of
        # them is a scan, and a kernel that exceeds the key drops them all.
        scanned = []

        def exceeds(cols, starts):
            scanned.append(cols[0])
            return [(5, 5)]

        codes = Counter()
        _extend(0, [(), (4,)], ((2, 4), (4,)), 1 << 8 * (4 - 4), codes, 4, exceeds, 4, 8)
        assert codes == Counter()
        assert scanned == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]

    def test_scan_free_leaf_list_counted_at_once(self):
        # Key columns (3, 4), (4,), as for mu = (2, 1) and w = (4, 3, 1, 2)
        # at n = 4, with (4,) in the last column.  Column 1 is shorter, but
        # max(top, 4) <= 3 + 2 - 1, so the six candidates are counted
        # without a scan, each by its own weight plus the suffix's.
        def refuse(cols, starts):
            raise AssertionError("scan made for a list that cannot be pruned")

        codes = Counter()
        _extend(0, [(), (4,)], ((3, 4), (4,)), 1 << 8 * (4 - 4), codes, 4, refuse, 4, 8)
        cols = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        assert codes == Counter(
            sum(1 << 8 * (4 - e) for e in (*col, 4)) for col in cols
        )


class TestDigitWidth:
    """A weight packs one digit per variable, one byte while the key has
    fewer than 256 columns and two bytes from 256 on."""

    @pytest.mark.parametrize("m", [255, 256])
    def test_exponent_fills_its_digit(self, m):
        # The filling with only 1s gives x_1 the exponent m.
        p = demazure_character((m,), (2, 1), 2)
        assert p == demazure_by_operators((m,), (2, 1), 2)
        assert p.coefficient((m, 0)) == 1 and len(p.terms) == m + 1


class TestCandidateCache:
    """The candidate columns and their codes are kept per process, keyed
    by upper bound, n and digit width."""

    def test_digit_width_is_part_of_the_key(self):
        # Both characters meet upper bound (1,) at n = 2, the first with
        # 1-byte digits (k = 2), the second with 2-byte digits (k = 300).
        _candidates.cache_clear()
        for m in (2, 300):
            assert demazure_character((m,), (2, 1), 2) == demazure_by_operators((m,), (2, 1), 2)

    def test_tables_are_immutable(self):
        columns, codes = _candidates((2, 3), 3, 8)
        assert type(columns) is tuple and type(codes) is tuple
        assert all(type(col) is tuple for col in columns)

    def test_warm_and_cleared_cache_agree(self):
        cases = TestDemazureCharacter.ENGINE_CASES
        warm = [demazure_character(mu, w, n) for mu, w, n in cases]
        assert _candidates.cache_info().hits
        cold = []
        for mu, w, n in cases:
            _candidates.cache_clear()
            cold.append(demazure_character(mu, w, n))
        assert cold == warm
