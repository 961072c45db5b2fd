import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyscan.tableau import (
    DecreasingRow,
    TableauError,
    EntryOutOfBound,
    NonDecreasingColumn,
    RaggedShape,
    ShapeMismatch,
    SkewTableau,
    Tableau,
    TableauSyntaxError,
    conjugate,
    count_tableaux,
    entrywise_leq,
    enumerate_tableaux,
    format_tableau,
    is_shape,
    parse_tableau,
)
from keyscan.demazure import demazure_character
from keyscan.verify import shapes_up_to

from helpers import census, large_tableaux, rows_from_scratch


def semistandard(cols, n):
    """The definition, read literally."""
    return (
        all(len(c) >= 1 for c in cols)
        and all(len(a) >= len(b) for a, b in zip(cols, cols[1:]))
        and all(type(e) is int and 1 <= e <= n for c in cols for e in c)
        and all(a < b for c in cols for a, b in zip(c, c[1:]))
        and all(x <= y for a, b in zip(cols, cols[1:]) for x, y in zip(a, b))
    )


def skew_semistandard(cols):
    cells = {(c, off + r): e for c, (off, col) in enumerate(cols) for r, e in enumerate(col)}
    return (
        all(type(off) is int and off >= 0 and (col or not off) for off, col in cols)
        and all(type(e) is int and e >= 1 for e in cells.values())
        and all(e < cells.get((c, r + 1), e + 1) for (c, r), e in cells.items())
        and all(e <= cells.get((c + 1, r), e) for (c, r), e in cells.items())
    )


entries = st.one_of(st.integers(0, 5), st.sampled_from([True, 2.0]))
offsets = st.one_of(st.integers(-1, 2), st.sampled_from([True, 0.5]))


class TestValidation:
    def test_example_tableau(self, example_t):
        assert example_t.shape == (6, 4, 4, 3, 2)
        assert example_t.n == 9

    def test_single_cell(self):
        t = Tableau.from_rows([[1]])
        assert t.shape == (1,)

    def test_decreasing_row_rejected(self):
        with pytest.raises(DecreasingRow, match="row 1"):
            Tableau.from_rows([[2, 1], [3, 3]])

    def test_non_strict_column_rejected(self):
        with pytest.raises(NonDecreasingColumn):
            Tableau.from_rows([[1, 1], [1, 2]])

    def test_ragged_grid_rejected(self):
        with pytest.raises(RaggedShape):
            Tableau.from_rows([[1], [1, 2]])

    def test_entry_above_bound_rejected(self):
        with pytest.raises(EntryOutOfBound):
            Tableau.from_rows([[1, 5]], n=4)

    def test_bool_entries_rejected(self):
        with pytest.raises(EntryOutOfBound):
            Tableau(((True,),), 2)
        with pytest.raises(EntryOutOfBound):
            SkewTableau(((0, (1, True)),))
        assert not is_shape((True,))

    @settings(max_examples=200)
    @given(st.lists(st.lists(entries, max_size=4), max_size=4), st.integers(1, 5))
    def test_accepts_exactly_semistandard(self, cols, n):
        cols = tuple(map(tuple, cols))
        if semistandard(cols, n):
            Tableau(cols, n)
        else:
            with pytest.raises(TableauError):
                Tableau(cols, n)

    @settings(max_examples=200)
    @given(st.lists(st.tuples(offsets, st.lists(entries, max_size=3)), max_size=4))
    def test_skew_accepts_exactly_semistandard(self, cols):
        cols = tuple((off, tuple(col)) for off, col in cols)
        if skew_semistandard(cols):
            SkewTableau(cols)
        else:
            with pytest.raises(TableauError):
                SkewTableau(cols)

    def test_first_violation_named(self):
        for cols, n, error, message in (
            (((1, 2), (1, 2, 3)), 3, RaggedShape, "column lengths (2, 3) do not form a shape"),
            (((1, 1), (0,)), 3, NonDecreasingColumn, "column 1 not strictly increasing at row 2"),
            (((2, 3), (1, True)), 3, DecreasingRow, "row 1 decreases between columns 1 and 2"),
            (((1, 2), (1, True)), 3, EntryOutOfBound,
             "entry True at row 2, column 2 is not an integer in 1..3"),
            (((1, 2),), 2.5, EntryOutOfBound, "entry bound 2.5 is not an integer"),
            (((1, 2),), "3", EntryOutOfBound, "entry bound '3' is not an integer"),
            # the bound before the shape, the shape before any entry
            (((1, 2), (1, 2, 3)), 0, EntryOutOfBound, "entry bound must be >= 1, got 0"),
            (((1, 2), (0, 5, 9)), 3, RaggedShape, "column lengths (2, 3) do not form a shape"),
            # within a cell: its range, then its column, then its row
            (((2, 3), (3, 2)), 3, NonDecreasingColumn, "column 2 not strictly increasing at row 2"),
            (((1, 4), (2, 3)), 3, EntryOutOfBound,
             "entry 4 at row 2, column 1 is not an integer in 1..3"),
        ):
            with pytest.raises(error) as info:
                Tableau(cols, n)
            assert str(info.value) == message
        for cols, error, message in (
            (((0, (2,)), (0, (1, 1))), NonDecreasingColumn, "column 2 not strictly increasing"),
            (((0, (2, 3)), (1, (1, 4))), DecreasingRow, "row 2 decreases between columns 1 and 2"),
            (((0, (1,)), (-1, ())), RaggedShape, "negative offset in column 2"),
            (((0, (0,)), (0, (2.0,))), EntryOutOfBound, "bad entry 0 in column 1"),
            (((0.5, (1,)),), RaggedShape, "offset 0.5 in column 1 is not an integer"),
            (((0, (1,)), (0.5, (2,))), RaggedShape, "offset 0.5 in column 2 is not an integer"),
        ):
            with pytest.raises(error) as info:
                SkewTableau(cols)
            assert str(info.value) == message

    def test_repeated_column_object_still_checked_first(self):
        # A column that is the very object to its left is skipped, but
        # never the first: its own violation is still named.
        c = (2, 1)
        with pytest.raises(NonDecreasingColumn) as info:
            Tableau((c, c), 3)
        assert str(info.value) == "column 1 not strictly increasing at row 2"

    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.lists(entries, max_size=3), st.integers(1, 3)), max_size=3),
           st.integers(1, 4))
    def test_shared_columns_change_no_verdict(self, runs, n):
        # A run of equal columns held as one object gives the same tableau,
        # or the same first violation, as distinct copies of the column.
        copies = tuple(tuple(col) for col, times in runs for _ in range(times))
        shared = []
        for col, times in runs:
            shared += [tuple(col)] * times

        def verdict(columns):
            try:
                return Tableau(columns, n)
            except TableauError as exc:
                return type(exc), str(exc)

        assert verdict(tuple(shared)) == verdict(copies)

    def test_empty_column_stored_at_offset_0(self):
        # An empty column places no cell, so one offset stands for all.
        with pytest.raises(RaggedShape):
            SkewTableau(((0, (1,)), (3, ())))
        assert SkewTableau(((0, (1,)), (0, ()))).cells() == {(0, 0): 1}

    def test_empty_tableau_is_legal(self):
        t = Tableau((), 3)
        assert t.shape == ()
        assert t.weight() == (0, 0, 0)


class TestKeyPredicate:
    def test_example_right_key_is_key(self, example_key):
        assert example_key.is_key()

    def test_example_t_is_not_key(self, example_t):
        assert not example_t.is_key()

    def test_single_column_is_key(self):
        assert Tableau(((1, 3, 4),), 5).is_key()


class TestEntrywiseOrder:
    def test_example_t_below_its_key(self, example_t, example_key):
        assert entrywise_leq(example_t, example_key)
        assert not entrywise_leq(example_key, example_t)

    def test_reflexive(self, example_t):
        assert entrywise_leq(example_t, example_t)

    def test_shape_mismatch(self, example_t):
        with pytest.raises(ShapeMismatch):
            entrywise_leq(example_t, Tableau(((1,),), 9))

    def test_partial_order_on_small_shape(self):
        ts = list(enumerate_tableaux((2, 1), 3))
        for a in ts:
            for b in ts:
                ab = entrywise_leq(a, b)
                if ab and entrywise_leq(b, a):
                    assert a == b  # antisymmetry
                for c in ts:
                    if ab and entrywise_leq(b, c):
                        assert entrywise_leq(a, c)  # transitivity


class TestWeight:
    def test_example_weight(self, example_t):
        assert example_t.weight() == (2, 1, 2, 2, 3, 2, 3, 2, 2)

    def test_full_column(self):
        t = Tableau((tuple(range(1, 4)),), 3)
        assert t.weight() == (1, 1, 1)


class TestTextFormat:
    def test_round_trip_example(self, example_t):
        assert parse_tableau(format_tableau(example_t)) == example_t

    def test_round_trip_small(self):
        t = parse_tableau("1 1\n2\n")
        assert t.shape == (2, 1)
        assert parse_tableau(format_tableau(t)) == t

    def test_header_sets_bound(self):
        t = parse_tableau("n=7\n1 2\n")
        assert t.n == 7

    def test_nonpositive_entry_rejected(self):
        with pytest.raises(TableauSyntaxError, match="line 1"):
            parse_tableau("1 0\n")
        with pytest.raises(TableauSyntaxError) as info:
            parse_tableau("n=0\n1\n")
        assert str(info.value) == "line 1: entry bound must be positive"

    def test_junk_rejected(self):
        with pytest.raises(TableauSyntaxError, match="column 2"):
            parse_tableau("1 x\n")

    def test_only_ascii_decimal_tokens(self):
        # int() alone reads "1_0" as 10 and the Arabic-Indic digit one as 1.
        for text, message in (
            ("1 1_0\n", "line 1, column 2: not an integer: '1_0'"),
            ("1 2\n\u0661\n", "line 2, column 1: not an integer: '\u0661'"),
            ("n=1_0\n1\n", "line 1: bad entry bound 'n=1_0'"),
            ("n=\u0663\n1\n", "line 1: bad entry bound 'n=\u0663'"),
        ):
            with pytest.raises(TableauSyntaxError) as info:
                parse_tableau(text)
            assert str(info.value) == message
        assert parse_tableau("1\u00a02\n").columns == ((1,), (2,))

    def test_first_bad_token_named(self):
        # A row that fails the bulk conversion is read again token by token,
        # so the first bad token decides the error, whatever follows it.
        row = " ".join(["1"] * 149 + ["x"] + ["2"] * 50)
        for text, message in (
            ("0 x\n", "line 1, column 1: entries must be positive"),
            ("x 0\n", "line 1, column 1: not an integer: 'x'"),
            ("1 2\n3 -4 x\n", "line 2, column 2: entries must be positive"),
            (row + "\n", "line 1, column 150: not an integer: 'x'"),
        ):
            with pytest.raises(TableauSyntaxError) as info:
                parse_tableau(text)
            assert str(info.value) == message

    def test_accepted_forms(self):
        assert parse_tableau("+3 007\n").columns == ((3,), (7,))
        t = parse_tableau("\n  \nn= 5\n1 2\n\t3\n\nignored\n")
        assert t == Tableau(((1, 3), (2,)), 5)

    @pytest.mark.parametrize("text, rows", [
        ("1 2\x0c\n3 4\n", [[1, 2], [3, 4]]),  # a form feed is no blank line
        ("1 1\n2\x1c\n3\n", [[1, 1], [2], [3]]),
        ("1 2\x0b3 4\n", [[1, 2, 3, 4]]),  # nor is a vertical tab a line break
    ])
    def test_rows_end_only_at_line_breaks(self, text, rows):
        # Other characters that str.splitlines() breaks at separate tokens.
        assert parse_tableau(text) == Tableau.from_rows(rows)

    @pytest.mark.parametrize("sep", ["\n", "\r\n", "\r"])
    def test_line_breaks(self, sep):
        assert parse_tableau(f"n=4{sep}1 1{sep}2{sep}") == Tableau(((1, 2), (1,)), 4)

    @pytest.mark.parametrize("text, line", [("", 1), ("\n", 1), (" \r\n\t", 2), ("\n\n", 2)])
    def test_empty_input_names_last_line(self, text, line):
        with pytest.raises(TableauSyntaxError) as info:
            parse_tableau(text)
        assert str(info.value) == f"line {line}: empty input"

    def test_empty_tableau_text(self):
        t = Tableau((), 3)
        assert format_tableau(t) == "n=3\n"
        assert format_tableau(t, header=False) == "\n"
        assert parse_tableau(format_tableau(t)) == t

    def test_round_trip_and_rows_census_and_large(self):
        for t in [*census(6, 4), *large_tableaux()]:
            assert parse_tableau(format_tableau(t)) == t
            assert t.rows() == rows_from_scratch(t)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_round_trip_random(self, data):
        shapes = list(shapes_up_to(5, 4))
        shape = data.draw(st.sampled_from(shapes))
        ts = list(enumerate_tableaux(shape, 4))
        t = data.draw(st.sampled_from(ts))
        assert parse_tableau(format_tableau(t)) == t


class TestEnumeration:
    def test_two_boxes_one_row(self):
        ts = list(enumerate_tableaux((1, 1), 2))
        assert [t.rows() for t in ts] == [[[1, 1]], [[1, 2]], [[2, 2]]]

    def test_full_column_forced(self):
        ts = list(enumerate_tableaux((2,), 2))
        assert len(ts) == 1
        assert ts[0].columns == ((1, 2),)

    def test_single_box(self):
        assert len(list(enumerate_tableaux((1,), 3))) == 3

    def test_no_duplicates_and_lex_order(self):
        ts = list(enumerate_tableaux((2, 2, 1), 4))
        words = [sum(t.columns, ()) for t in ts]
        assert words == sorted(words)
        assert len(set(words)) == len(words)

    def test_count_validates_like_enumeration(self):
        for shape, n, error in (((1, 2), 3, RaggedShape), ((2, 0), 3, RaggedShape),
                                ((1,), 0, EntryOutOfBound), ((1,), 2.0, EntryOutOfBound)):
            with pytest.raises(error) as counted:
                count_tableaux(shape, n)
            with pytest.raises(error) as enumerated:
                list(enumerate_tableaux(shape, n))
            assert str(counted.value) == str(enumerated.value)

    def test_counts_match_hook_content(self):
        for shape in shapes_up_to(8, 6):
            for n in range(1, 7):
                assert len(list(enumerate_tableaux(shape, n))) == count_tableaux(
                    shape, n
                ), (shape, n)


class TestHookContent:
    """``count_tableaux`` against closed forms and a second enumerator, at
    sizes the enumeration tests do not reach."""

    def test_one_column_is_a_binomial(self):
        for n in range(1, 41):
            for length in range(1, 46):
                assert count_tableaux((length,), n) == math.comb(n, length), (length, n)

    def test_one_row_is_a_multiset_count(self):
        for n in range(1, 41):
            for m in range(0, 41):
                assert count_tableaux((1,) * m, n) == math.comb(n + m - 1, m), (m, n)

    def test_three_by_four_rectangle(self):
        # The value of the column-by-column dynamic program this formula replaced.
        assert count_tableaux((4, 4, 4), 14) == 33157124

    def test_schur_at_ones_through_demazure(self):
        # At the longest permutation the character is the Schur polynomial,
        # whose coefficients sum to the number of tableaux.  demazure_character
        # builds those tableaux column by column, not by enumerate_tableaux.
        n = 4
        w0 = tuple(range(n, 0, -1))
        for mu in sorted(mu for mu in shapes_up_to(5) if len(mu) <= n):
            total = sum(demazure_character(mu, w0, n).terms.values())
            assert total == count_tableaux(conjugate(mu), n), mu

    def test_empty_shape(self):
        for n in range(1, 6):
            assert count_tableaux((), n) == 1
            assert list(enumerate_tableaux((), n)) == [Tableau((), n)]


def test_conjugate():
    assert conjugate((6, 4, 4, 3, 2)) == (5, 5, 4, 3, 1, 1)
    assert conjugate(conjugate((6, 4, 4, 3, 2))) == (6, 4, 4, 3, 2)
    assert conjugate(()) == ()


def test_is_shape():
    assert is_shape((3, 3, 1))
    assert not is_shape((1, 2))
    assert not is_shape((2, 0))
    assert is_shape(iter((2, 2, 1)))
    assert not is_shape(iter((2, 3)))
    assert not is_shape((True,))
    assert not is_shape((2.0,))
    assert is_shape(())
