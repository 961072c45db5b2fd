import ast
import itertools
import random
from pathlib import Path

import pytest

from keyscan.jdt import (
    BadIndex,
    IllegalShift,
    NotAnInsideCorner,
    NotAnOutsideCorner,
    NotASkewShape,
    complement_key,
    forward_slide,
    is_frank,
    left_key_oracle,
    length_swap,
    rectify,
    reversal_dual,
    reverse_slide,
    right_key_column_oracle,
    right_key_oracle,
    swap_chain,
    _WorkingTableau,
)
from keyscan.tableau import (
    DecreasingRow,
    NonDecreasingColumn,
    SkewTableau,
    Tableau,
    _check_skew,
    parse_tableau,
)

from conftest import EXAMPLE_KEY_TEXT, random_skew
from helpers import (
    canonical_skew_diagram,
    census,
    large_tableaux,
    rectify_from_scratch,
    rotate_180,
    skew_fillings,
    straight_skew,
    strict_inside_corners,
)


class TestSlides:
    def test_forward_needs_inside_corner(self):
        u = SkewTableau(((1, (2,)), (0, (1,))))
        with pytest.raises(NotAnInsideCorner):
            forward_slide(u, (1, 1))  # occupied
        with pytest.raises(NotAnInsideCorner):
            forward_slide(u, (3, 0))  # nothing below or right

    def test_reverse_needs_outside_corner(self):
        u = straight_skew(Tableau.from_rows([[1, 2]]))
        with pytest.raises(NotAnOutsideCorner):
            reverse_slide(u, (0, 0))
        with pytest.raises(NotAnOutsideCorner):
            reverse_slide(u, (0, 2))

    def test_single_forward_slide(self):
        u = SkewTableau(((1, (2,)), (0, (1, 3))))
        v, path = forward_slide(u, (0, 0))
        assert path[0] == (0, 0)
        assert sorted(v.cells().values()) == [1, 2, 3]

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(300):
            u = random_skew(rng)
            for corner in strict_inside_corners(u.cells()):
                v, path = forward_slide(u, corner)
                back, path2 = reverse_slide(v, path[-1])
                assert back == u
                assert path2[-1] == corner


class TestRectify:
    def test_straight_shape_fixed(self, example_t):
        u = straight_skew(example_t)
        assert rectify(u, n=example_t.n) == example_t

    def test_semistandard_result(self):
        rng = random.Random(11)
        for _ in range(200):
            u = random_skew(rng)
            t = rectify(u, n=9)
            assert sum(t.shape) == len(u.cells())
            entries = [e for col in t.columns for e in col]
            assert sorted(entries) == sorted(u.cells().values())

    def test_confluence(self):
        rng = random.Random(13)
        for i in range(300):
            u = random_skew(rng)
            got = rectify(u)
            pick = random.Random(1000 + i)
            assert rectify_from_scratch(u, pick.choice) == got
            assert rectify_from_scratch(u, lambda cs: cs[-1]) == got

    @staticmethod
    def assert_matches_from_scratch(skews):
        """Results agree with the from-scratch reference under the first
        and under the last corner chosen."""
        for u in skews:
            got = rectify(u)
            for pick in (lambda cs: cs[0], lambda cs: cs[-1]):
                assert rectify_from_scratch(u, pick) == got

    def test_incremental_corners_match_from_scratch(self):
        rng = random.Random(17)
        # In the last skew, the first slide moves the 1 left and empties
        # column 2, so the cell above it is no longer inner.
        skews = [random_skew(rng) for _ in range(400)] + [SkewTableau(((2, (2,)), (1, (1,))))]
        self.assert_matches_from_scratch(skews)

    def test_census_swaps_match_from_scratch(self):
        # Every tableau and every skew tableau its swap chains pass through.
        skews = {}
        for t in census(6, 4):
            skews[straight_skew(t)] = None
            for i in range(1, t.k):
                skews.update((w.skew(), None) for _st, w in swap_chain(t, i))
        self.assert_matches_from_scratch(skews)

    def test_empty_columns_match_from_scratch(self):
        # An empty column fits where the column to its left starts at or
        # below the bottom of the column to its right.  It places no cell
        # and is stored at offset 0.
        rng = random.Random(19)
        skews = []
        while len(skews) < 300:
            cols = list(random_skew(rng).columns)
            p = rng.randint(0, len(cols))
            if 0 < p < len(cols) and cols[p - 1][0] < cols[p][0] + len(cols[p][1]):
                continue
            cols.insert(p, (0, ()))
            skews.append(SkewTableau(tuple(cols)))
        self.assert_matches_from_scratch(skews)

    def test_large_duals_match_from_scratch(self):
        # Rotated tableaux of 20 to 100 boxes: wide ones carry bumped
        # entries through many columns, tall ones insert into long columns.
        self.assert_matches_from_scratch([rotate_180(t) for t in large_tableaux()])

    def test_non_skew_diagram_rejected(self):
        # Column 2 starts below column 1; in the second diagram the empty
        # column needs column 1 to start at or below the bottom of column 3.
        for cols in [((0, (1,)), (2, (2,))), ((0, (1,)), (0, ()), (0, (2,)))]:
            with pytest.raises(NotASkewShape):
                rectify(SkewTableau(cols))


class TestFrank:
    def test_straight_is_frank(self, example_t):
        assert is_frank(straight_skew(example_t))

    def test_non_frank_example(self):
        # rectifies to one column of length 2, but has column lengths (1, 1)
        u = SkewTableau(((1, (2,)), (0, (1,))))
        assert not is_frank(u)

    def test_swap_outputs_frank(self, example_t):
        u = straight_skew(example_t)
        for j in range(1, example_t.k):
            u = length_swap(u, j)
            assert is_frank(u)
            assert rectify(u, n=example_t.n) == example_t


class TestLengthSwap:
    def test_example_first_swap(self, example_t):
        u = straight_skew(example_t)
        v = length_swap(u, 1)
        assert v.lengths() == (4, 6, 4, 3, 2)
        assert v.columns[1] == (0, (1, 3, 4, 5, 7, 8))
        steps = []
        right_key_column_oracle(example_t, 1, collect=steps)
        st = steps[0]
        assert (st.j, st.x, st.d) == (1, 2, 0)
        assert st.bottom_right_after == 8
        assert "j=1" in st.format_line()

    def test_bad_index(self, example_t):
        u = straight_skew(example_t)
        with pytest.raises(BadIndex):
            length_swap(u, 0)
        with pytest.raises(BadIndex):
            length_swap(u, 5)

    def test_empty_columns_bad_index(self):
        u = SkewTableau(((0, (1,)), (0, ()), (0, ())))
        with pytest.raises(BadIndex):
            length_swap(u, 2)

    def test_undefined_swap_bad_index(self):
        # The first slide climbs column 2 to its top and takes no box of
        # column 1; in the second there is no outside corner below column 2.
        for cols in [((2, (3, 5, 6)), (1, (5, 6))), ((2, (1,)), (0, ()))]:
            with pytest.raises(BadIndex):
                length_swap(SkewTableau(cols), 1)
        with pytest.raises(BadIndex, match="^column 1 shorter than column 2;"):
            length_swap(SkewTableau(((1, (2,)), (0, (1, 3)))), 1)

    def test_two_case_bottom_rule(self):
        for t in census(5, 4):
            steps = []
            right_key_oracle(t, collect=steps)
            for st in steps:
                expected = max(st.bottom_left_before, st.bottom_right_before)
                assert st.bottom_right_after == expected

    def test_swaps_preserve_rectification(self):
        for t in census(4, 3):
            for i in range(1, t.k):
                for _st, w in swap_chain(t, i):
                    u = w.skew()
                    assert is_frank(u)
                    assert rectify(u, n=t.n) == t


def reference_right_key_column(t, i):
    """Column i of the right key by the length-swap choreography written
    with the public reverse_slide only, and for each swap the fields of
    its LengthSwapStep followed by the skew tableaux before and after it.
    A pull-down is d reverse slides under each of the columns it moves."""
    u = straight_skew(t)
    steps = []
    for j in range(i, t.k):
        (left_off, left), (right_off, right) = u.columns[j - 1], u.columns[j]
        x = len(left) - len(right)
        d = 0
        if j >= 2:
            off, col = u.columns[j - 2]
            d = max(0, min(off + len(col), left_off + len(left)) - max(off, left_off))
        v = u
        for c in range(j - 1):
            for _ in range(d):
                off, col = v.columns[c]
                v, _path = reverse_slide(v, (c, off + len(col)))
        assert v.columns == tuple(
            (off + d, col) if c < j - 1 else (off, col)
            for c, (off, col) in enumerate(u.columns)
        )
        for _ in range(x):
            off, col = v.columns[j]
            v, _path = reverse_slide(v, (j, off + len(col)))
        assert v.lengths()[j - 1 : j + 1] == (len(right), len(left))
        steps.append((j, x, d, left[-1], right[-1], v.columns[j][1][-1], u, v))
        u = v
    return u.columns[-1][1], steps


class TestInPlaceOracle:
    def test_matches_public_choreography(self):
        # The oracle's records and swap_chain's skew tableaux against the
        # choreography written with the public reverse_slide, and against
        # the public length_swap chained.  Each skew is read at its own
        # step, before the next swap changes the working form.
        for t in census(6, 4):
            for i in range(1, t.k + 1):
                steps = []
                col = right_key_column_oracle(t, i, collect=steps)
                records = [
                    (st.j, st.x, st.d, st.bottom_left_before, st.bottom_right_before,
                     st.bottom_right_after)
                    for st in steps
                ]
                ref_col, ref_steps = reference_right_key_column(t, i)
                assert (col, records) == (ref_col, [ref[:6] for ref in ref_steps])
                u, chain, skews = straight_skew(t), [], []
                for st, w in swap_chain(t, i):
                    u = length_swap(u, st.j)
                    skews.append(w.skew())
                    chain.append(st)
                    assert skews[-1] == u
                assert chain == steps
                assert skews == [ref[7] for ref in ref_steps]

    def test_swap_chain_index_bounds(self, example_t):
        for i in (0, example_t.k + 1):
            with pytest.raises(BadIndex):
                next(swap_chain(example_t, i))
        assert list(swap_chain(example_t, example_t.k)) == []

    def test_touched_column_check_matches_validation(self):
        # Column 2 (index 1) is the touched one; each plant breaks one rule.
        # A slide that changed column 2 alone checks that column and the
        # two pairs bordering it, with the checker SkewTableau runs.
        legal = ((0, (1, 3, 7)), (1, (4, 8)), (0, (2, 4)))
        plants = [
            ((1, 2), 4, NonDecreasingColumn),  # column inversion in column 2
            ((0, 1), 5, DecreasingRow),  # row descent into column 2: 5 > 4
            ((2, 1), 3, DecreasingRow),  # row descent out of it: 4 > 3
        ]
        offs = [off for off, _ in legal]
        _check_skew(offs, [col for _, col in legal], 1, 1)
        for (c, r), entry, error in plants:
            cols = [list(col) for _, col in legal]
            cols[c][r - offs[c]] = entry
            with pytest.raises(error) as whole:
                SkewTableau(tuple((off, tuple(col)) for off, col in zip(offs, cols)))
            with pytest.raises(error) as touched:
                _check_skew(offs, cols, 1, 1)
            assert str(touched.value) == str(whole.value)

    def test_illegal_pull_down_is_caught(self):
        # Column 1 and the 1 of column 2 share no row until the shift.
        w = _WorkingTableau([0, 1], [(5,), (1,)])
        with pytest.raises(IllegalShift):
            w.pull_down(1, 1)

    def test_illegal_slide_is_caught(self):
        # Sliding under column 2 moves the 5 of column 1 right, beside the
        # 4 of column 3: only the pair to the right of the slide breaks.
        u = SkewTableau(((0, (1, 5)), (0, (2,)), (0, (3, 4))))
        with pytest.raises(DecreasingRow):
            reverse_slide(u, (1, 1))
        w = _WorkingTableau(u.offsets(), [col for _, col in u.columns])
        with pytest.raises(DecreasingRow):
            w.slide_under(1)


class TestRightKeyOracle:
    def test_example(self, example_t):
        assert right_key_oracle(example_t) == parse_tableau(EXAMPLE_KEY_TEXT)

    def test_last_column_is_identity(self, example_t):
        assert right_key_column_oracle(example_t, example_t.k) == example_t.columns[-1]

    def test_column_index_bounds(self, example_t):
        with pytest.raises(BadIndex):
            right_key_column_oracle(example_t, 0)

    def test_first_column_bottom_matches_ewis(self):
        from keyscan.scanning import ewis

        for t in census(5, 4):
            col = right_key_column_oracle(t, 1)
            assert col[-1] == ewis(t.bottom_entries()).last


class TestRotationDuality:
    def test_rotate_example(self, example_t):
        r = rotate_180(example_t)
        assert r.lengths() == (2, 3, 4, 4, 6)
        assert len(r.cells()) == sum(example_t.shape)
        assert sorted(r.cells().values()) == sorted(
            example_t.n + 1 - e for c in example_t.columns for e in c
        )

    def test_dual_is_rectified_rotation(self):
        # The dual inserts the rotated tableau's reading word without
        # building it; the rotation built from scratch, rectified, agrees.
        for t in itertools.chain(census(8, 5), large_tableaux()):
            assert reversal_dual(t) == rectify(rotate_180(t), n=t.n)

    def test_dual_is_involution(self):
        for t in itertools.chain(census(5, 4), large_tableaux()):
            d = reversal_dual(t)
            assert d.shape == t.shape
            assert reversal_dual(d) == t

    def test_dual_exchanges_keys(self):
        for t in census(5, 4):
            d = reversal_dual(t)
            rk_dual = right_key_oracle(d)
            lk = left_key_oracle(t)
            flipped = Tableau(
                tuple(
                    tuple(sorted(t.n + 1 - e for e in col)) for col in rk_dual.columns
                ),
                t.n,
            )
            assert flipped == lk == complement_key(rk_dual)

    def test_complement_key_is_involution_on_keys(self):
        keys = [t for t in census(5, 4) if t.is_key()]
        assert len(keys) == 125
        for key in keys:
            assert complement_key(complement_key(key)) == key
        assert {complement_key(key) for key in keys} == set(keys)


class TestLeftKeyOracle:
    def test_key_fixed(self):
        # The empty tableau is a key too, and both oracles fix it.
        for t in [Tableau((), 4), *census(5, 4)]:
            if t.is_key():
                assert left_key_oracle(t) == t == right_key_oracle(t)

    def test_single_column(self):
        t = Tableau(((1, 3, 4),), 5)
        assert left_key_oracle(t) == t


class TestSkewFillings:
    def test_canonical_diagram(self):
        assert canonical_skew_diagram((3, 2, 1)) == (0, 0, 0)
        assert canonical_skew_diagram((1, 2, 3)) == (2, 1, 0)
        assert canonical_skew_diagram(()) == ()

    def test_fillings_are_exactly_the_legal_ones(self):
        got = list(skew_fillings((1, 2), (1, 0), (1, 1, 2)))
        for u in got:
            assert sorted(u.cells().values()) == [1, 1, 2]
        assert len(got) == len(set(got))
        assert got  # at least one legal filling exists

    def test_unique_frank_preimage_small(self):
        # for each tableau and column count, exactly one filling of the
        # canonical swapped diagram is frank and rectifies back
        for t in census(4, 3):
            if t.k < 2:
                continue
            lengths = (t.shape[1], t.shape[0]) + t.shape[2:]
            offsets = canonical_skew_diagram(lengths)
            content = [e for col in t.columns for e in col]
            hits = [
                u
                for u in skew_fillings(lengths, offsets, content)
                if is_frank(u) and rectify(u, n=t.n) == t
            ]
            assert len(hits) == 1


class TestIndependence:
    def test_oracle_imports_no_scanning_code(self):
        # The cross-check is worth something only while the oracle shares
        # no code with the scanning method it checks.
        from keyscan import jdt

        banned = {"scanning", "_scan_py", "_scankernel"}
        imported = []
        for node in ast.walk(ast.parse(Path(jdt.__file__).read_text())):
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported.append(node.module or "")
                imported += [f"{node.module or ''}.{alias.name}" for alias in node.names]
        assert imported
        for name in imported:
            assert not banned & set(name.split(".")), name
