import inspect
import math
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations, compress, product

import pytest
from hypothesis import example, given, settings, strategies as st

import grid_reference
from lry import grid, oracle
from lry.model import Party, Side, _brief
from lry.protocol import (
    OutcomeKind,
    mix_seed,
    preferences_from_totals,
    resolve_from_totals,
)

TINY = Fraction(1, 10**30)


@pytest.fixture(autouse=True)
def fresh_growth():
    """Every test grows districts and compiles searches afresh, so none
    keeps, or leaves behind, districts that a patched growth made."""
    grid._shape.cache_clear()
    yield
    grid._shape.cache_clear()


def bits(g, cells):
    """The mask of ``cells`` on ``g``, cell (i, j) as bit (i-1)*m + (j-1),
    computed here rather than read off ``grid._shape``."""
    return sum(1 << ((i - 1) * g.m + j - 1) for i, j in cells)


def make_grid(rows, d):
    """The grid whose rows of supports, each an int, a ``Fraction`` or a
    string ``Fraction`` reads, are ``rows``: every support times the lcm of
    their denominators, on that scale."""
    values = [Fraction(v) for row in rows for v in row]
    scale = math.lcm(*(v.denominator for v in values))
    cells = tuple(v.numerator * (scale // v.denominator) for v in values)
    return grid.GridState(len(rows), d, scale, cells)


def geodelta_winning_plan(delta):
    """The aligned 10x10 block tiling of ``make_geodelta(delta)``: one win per
    band for A, each block connected, hole-free and inside the 20x20 square."""
    m = 20 * delta
    return tuple(
        frozenset((bi + i, bj + j) for i in range(1, 11) for j in range(1, 11))
        for bi in range(0, m, 10)
        for bj in range(0, m, 10)
    )


@pytest.mark.parametrize("d, z", [(100, 20), (4, 4), (2, 2), (1, 2), (5, 4)])
def test_compactness_bound(d, z):
    assert grid.compactness_bound(d) == z
    # isqrt(4d)^2 >= d, so every d-cell district size has a square to fit in
    # and GridState needs no check for it.
    assert all(grid.compactness_bound(n) ** 2 >= n for n in range(1, 10**4 + 1))


class TestGridState:
    def test_divisibility_enforced(self):
        with pytest.raises(grid.GridError):
            make_grid([[0, 0, 0]] * 3, d=2)

    def test_support_range_enforced(self):
        with pytest.raises(grid.GridError):
            make_grid([[2, 0], [0, 0]], d=2)

    def test_shape_enforced(self):
        with pytest.raises(grid.GridError, match=re.escape("cell array has 3 cells, not 2x2")):
            grid.GridState(m=2, d=2, scale=1, cells=(0, 0, 0))

    def test_accessors(self):
        g = make_grid([[1, 0], [0, 0]], d=2)
        assert g.z == 2
        assert g.cells[0] == 1
        assert len(g.all_cells()) == 4
        g = make_grid([[0, Fraction(1, 3)], [Fraction(1, 2), 1]], d=2)
        assert (g.scale, g.cells) == (6, (0, 2, 3, 6))
        assert [Fraction(value, g.scale) for value in g.cells] == [
            0, Fraction(1, 3), Fraction(1, 2), 1
        ]

    @pytest.mark.parametrize("value", [0.5, "1/2", None, Fraction(1, 2), -1, 3])
    def test_cell_must_be_an_int_on_the_scale(self, value):
        cells = (1, 2, value, 0)
        message = re.escape(f"cell (2,1) support {value!r} is not an int in 0..2")
        with pytest.raises(grid.GridError, match=f"^{message}$"):
            grid.GridState(2, 2, 2, cells)

    @pytest.mark.parametrize("scale", [0, -1, 1.0, "1", None])
    def test_scale_must_be_a_positive_int(self, scale):
        message = re.escape(f"grid scale must be a positive int, got {scale!r}")
        with pytest.raises(grid.GridError, match=f"^{message}$"):
            grid.GridState(1, 1, scale, (0,))

    def test_divided_by_the_gcd(self):
        # Equal supports make equal grids, whatever scale they came on.
        assert grid.GridState(2, 2, 12, (0, 6, 3, 12)) == make_grid([[0, "1/2"], ["1/4", 1]], 2)
        g = grid.GridState(2, 2, 4, (0, 4, 2, 4))
        assert (g.scale, g.cells) == (2, (0, 2, 1, 2))
        assert grid.GridState(1, 1, 7, (0,)) == grid.GridState(1, 1, 1, (0,))
        assert hash(grid.GridState(1, 1, 6, (3,))) == hash(grid.GridState(1, 1, 2, (1,)))

    def test_cells_from_a_list_are_the_cells_from_a_tuple(self):
        listed = grid.GridState(2, 2, 1, [0, 1, 0, 1])
        tupled = grid.GridState(2, 2, 1, (0, 1, 0, 1))
        assert listed == tupled and hash(listed) == hash(tupled)
        assert listed.cells == (0, 1, 0, 1)
        assert grid.GridState(2, 2, 2, [0, 2, 0, 2]) == tupled

    @settings(deadline=None, max_examples=300)
    @given(
        st.one_of(
            st.integers(-3, 3),
            st.booleans(),
            st.fractions(-TINY, TINY),
            st.fractions(-TINY, TINY).map(lambda offset: 1 + offset),
        )
    )
    @example(TINY)
    @example(-TINY)
    @example(1 - TINY)
    @example(1 + TINY)
    def test_support_range_matches_fraction_comparison(self, value):
        # The reference is the Fraction comparison the integer check replaced.
        try:
            make_grid([[value]], d=1)
        except grid.GridError as error:
            # an int too long to show whole is cut, as every echoed value is
            cell, scale = map(_brief, (value.numerator, value.denominator))
            assert str(error) == f"cell (1,1) support {cell} is not an int in 0..{scale}"
            accepted = False
        else:
            accepted = True
        assert accepted == (0 <= value <= 1)

    def test_int_cells_decide_districts(self):
        g = grid.GridState(2, 2, 1, (1, 1, 0, 1))
        horizontal = (frozenset({(1, 1), (1, 2)}), frozenset({(2, 1), (2, 2)}))
        assert grid.count_wins(g, horizontal, Party.A) == 1
        assert grid.count_wins(g, horizontal, Party.B) == 0

    @pytest.mark.parametrize("cell", [(0, 1), (1, 0), (3, 1), (1, 3), (-1, -1)])
    def test_support_rejects_off_grid_cell(self, cell):
        # A region's cells are read by bit number, (i-1)*m + (j-1): (1, 0)
        # must not wrap to the row above, nor row 0 to the far end.
        g = make_grid([[1, 0], [0, 0]], d=2)
        message = re.escape(f"region cell {cell} is off the 2x2 grid")
        with pytest.raises(grid.GridError, match=message):
            grid.max_wins_bruteforce(g, frozenset({(1, 1), cell}), Party.A)


class TestValidatePlan:
    def test_dominoes_ok(self):
        g = make_grid([[1, 1], [0, 0]], d=2)
        plan = (frozenset({(1, 1), (1, 2)}), frozenset({(2, 1), (2, 2)}))
        assert grid.validate_plan(g, plan) == ()

    def test_scattered_district_not_connected(self):
        g = make_grid([[0] * 4 for _ in range(4)], d=4)
        scattered = frozenset({(1, 1), (1, 4), (4, 1), (4, 4)})
        rest = [
            frozenset({(1, 2), (1, 3), (2, 2), (2, 3)}),
            frozenset({(2, 1), (3, 1), (3, 2), (4, 2)}),
            frozenset({(2, 4), (3, 4), (3, 3), (4, 3)}),
        ]
        violations = grid.validate_plan(g, (scattered, *rest))
        assert any("not connected" in v for v in violations)

    def test_missing_cells_reported(self):
        g = make_grid([[0, 0], [0, 0]], d=2)
        violations = grid.validate_plan(g, (frozenset({(1, 1), (1, 2)}),))
        assert any("uncovered" in v for v in violations)

    def test_duplicate_cells_reported(self):
        g = make_grid([[0, 0], [0, 0]], d=2)
        plan = (frozenset({(1, 1), (1, 2)}), frozenset({(1, 1), (2, 1)}))
        violations = grid.validate_plan(g, plan)
        assert any("appears in districts" in v for v in violations)

    def test_wrong_size_reported(self):
        g = make_grid([[0, 0], [0, 0]], d=2)
        plan = (frozenset({(1, 1)}), frozenset({(1, 2), (2, 1), (2, 2)}))
        violations = grid.validate_plan(g, plan)
        assert any("cells, not 2" in v for v in violations)
        # an empty district is one more wrong size, reported, not raised
        assert list(grid.validate_plan(g, (frozenset(), *plan))) == [
            "district 0 has 0 cells, not 2",
            "district 1 has 1 cells, not 2",
            "district 2 has 3 cells, not 2",
        ]
        with pytest.raises(grid.GridError, match="^district 0 has 0 cells, not 2; 4 cell"):
            grid.count_wins(g, (frozenset(),), Party.A)

    def test_hole_reported(self):
        g = make_grid([[0] * 4 for _ in range(4)], d=8)
        ring = frozenset(
            {(1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2), (3, 3)}
        )
        rest = frozenset({(2, 2), (1, 4), (2, 4), (3, 4), (4, 1), (4, 2), (4, 3), (4, 4)})
        violations = grid.validate_plan(g, (ring, rest))
        assert any("hole" in v for v in violations)

    def test_oversized_bounding_box_reported(self):
        g = make_grid([[0] * 4 for _ in range(4)], d=2)
        # a 1x4 strip cannot fit in the 2x2 compactness square for d=2
        plan = [frozenset({(1, 1), (1, 2), (1, 3), (1, 4)})]
        violations = grid.validate_plan(g, tuple(plan))
        assert any("exceeding 2x2" in v for v in violations)

    def test_quadrant_plan_for_single_band(self):
        g, _ = grid.make_geodelta(1)
        plan = geodelta_winning_plan(1)
        assert len(plan) == 4
        assert grid.validate_plan(g, plan) == ()


class TestCountWins:
    def test_domino_orientation_matters(self):
        g = make_grid([[1, 1], [0, 0]], d=2)
        horizontal = (frozenset({(1, 1), (1, 2)}), frozenset({(2, 1), (2, 2)}))
        vertical = (frozenset({(1, 1), (2, 1)}), frozenset({(1, 2), (2, 2)}))
        assert grid.count_wins(g, horizontal, Party.A) == 1
        assert grid.count_wins(g, vertical, Party.A) == 0

    def test_exact_half_counts_for_nobody(self):
        g = make_grid([[1, 0], [0, 1]], d=2)
        plan = (frozenset({(1, 1), (1, 2)}), frozenset({(2, 1), (2, 2)}))
        assert grid.count_wins(g, plan, Party.A) == 0
        assert grid.count_wins(g, plan, Party.B) == 0

    def test_win_partition_identity(self):
        rng = random.Random(4)
        for _ in range(20):
            rows = [[rng.choice([0, 1, Fraction(1, 2)]) for _ in range(2)] for _ in range(2)]
            g = make_grid(rows, d=2)
            plan = (frozenset({(1, 1), (2, 1)}), frozenset({(1, 2), (2, 2)}))
            a = grid.count_wins(g, plan, Party.A)
            b = grid.count_wins(g, plan, Party.B)
            ties = sum(
                1
                for district in plan
                if 2 * district_support(g, district, Party.A) == len(district)
            )
            assert a + b + ties == len(plan)

    def test_invalid_plan_rejected(self):
        g = make_grid([[1, 1], [0, 0]], d=2)
        with pytest.raises(grid.GridError):
            grid.count_wins(g, (frozenset({(1, 1), (1, 2)}),), Party.A)
        # every violation, joined by "; "
        overlapping = (frozenset({(1, 1), (1, 2)}), frozenset({(1, 2), (2, 2)}))
        with pytest.raises(grid.GridError) as exc:
            grid.count_wins(g, overlapping, Party.A)
        assert str(exc.value) == (
            "cell (1, 2) appears in districts 0 and 1; 1 cell(s) uncovered, e.g. (2, 1)"
        )


def oracle_regions(seed):
    """The whole grid of each of the oracle's 25 grids at ``seed``, and every
    non-empty side of the shrunk analogue."""
    regions = []
    for index in range(25):
        g = oracle.random_small_grid(random.Random(mix_seed(seed, index)))
        regions.append((g, g.all_cells()))
    analogue, splits, _ = grid.make_shrunk_analogue()
    universe = analogue.all_cells()
    for k in range(splits.split_count + 1):
        for side in (splits.left_cells(k), universe - splits.left_cells(k)):
            if side:
                regions.append((analogue, side))
    return regions


def random_subregions():
    """Fifteen random regions in the top-left 4x4 corner of a zero 12x12 grid
    for each d from 1 to 4, with every d dividing the region's size."""
    rng = random.Random(7)
    cells = [(i, j) for i in range(1, 5) for j in range(1, 5)]
    regions = []
    for d in (1, 2, 3, 4):
        g = make_grid([[0] * 12 for _ in range(12)], d=d)
        for _ in range(15):
            size = d * rng.randint(1, 12 // d)
            regions.append((g, frozenset(rng.sample(cells, size))))
    return regions


class TestBruteforce:
    def test_two_by_two_enumerates_both_plans(self):
        g = make_grid([[1, 1], [0, 0]], d=2)
        plans = list(grid.enumerate_region_plans(g, g.all_cells()))
        assert len(plans) == 2
        assert grid.max_wins_bruteforce(g, g.all_cells(), Party.A) == 1

    def test_single_supporter_cannot_win(self):
        g = make_grid([[1, 0], [0, 0]], d=2)
        assert grid.max_wins_bruteforce(g, g.all_cells(), Party.A) == 0

    def test_empty_region(self):
        g = make_grid([[0, 0], [0, 0]], d=2)
        assert grid.max_wins_bruteforce(g, frozenset(), Party.A) == 0

    def test_cap_enforced(self):
        g, _ = grid.make_geodelta(1)
        with pytest.raises(grid.GridError):
            grid.max_wins_bruteforce(g, g.all_cells(), Party.A)

    def test_region_must_divide(self):
        g = make_grid([[0, 0], [0, 0]], d=2)
        with pytest.raises(grid.GridError):
            grid.max_wins_bruteforce(g, frozenset({(1, 1)}), Party.A)

    def test_off_grid_region_rejected(self):
        g = make_grid([[1, 1], [1, 1]], d=2)
        region = frozenset({(0, 1), (1, 1), (1, 2), (2, 3)})
        message = r"region cell \(0, 1\) is off the 2x2 grid"
        with pytest.raises(grid.GridError, match=message):
            grid.max_wins_bruteforce(g, region, Party.A)
        with pytest.raises(grid.GridError, match=message):
            list(grid.enumerate_region_plans(g, region))

    def test_off_grid_district_is_a_violation(self):
        g = make_grid([[1, 1], [1, 1]], d=2)
        plan = (frozenset({(0, 1), (1, 1)}), frozenset({(2, 1), (2, 2)}))
        messages = grid.validate_plan(g, plan)
        assert "district 0 leaves the grid at [(0, 1)]" in messages
        with pytest.raises(grid.GridError, match="leaves the grid"):
            grid.count_wins(g, plan, Party.A)

    def test_every_enumerated_plan_validates(self):
        rng = random.Random(11)
        from lry.oracle import random_small_grid

        for _ in range(10):
            g = random_small_grid(rng)
            region = g.all_cells()
            best = -1
            for plan in grid.enumerate_region_plans(g, region):
                assert grid.validate_plan(g, plan) == ()
                best = max(best, grid.count_wins(g, plan, Party.A))
            assert best == grid.max_wins_bruteforce(g, region, Party.A)


    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_memoized_search_matches_enumeration(self, seed):
        for g, region in oracle_regions(seed):
            plans = list(grid.enumerate_region_plans(g, region))
            assert plans
            for party in Party:
                expected = max(grid.count_wins(g, plan, party, region) for plan in plans)
                assert grid.max_wins_bruteforce(g, region, party) == expected

    def test_region_without_a_plan(self):
        g = make_grid([[1] * 4 for _ in range(4)], d=8)
        ring = frozenset(
            {(1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2), (3, 3)}
        )
        assert list(grid.enumerate_region_plans(g, ring)) == []
        with pytest.raises(grid.GridError, match="region of 8 cells has no valid plan"):
            grid.max_wins_bruteforce(g, ring, Party.A)

    def test_wins_on_a_dead_end_do_not_count(self):
        # The first two districts, both won by A, leave two cells that
        # touch nothing: the search finds no plan, not a plan of two wins.
        g = make_grid([[1] * 4 for _ in range(4)], d=2)
        region = frozenset({(1, 1), (1, 2), (1, 3), (1, 4), (3, 1), (3, 3)})
        assert list(grid.enumerate_region_plans(g, region)) == []
        with pytest.raises(grid.GridError, match="region of 6 cells has no valid plan"):
            grid.max_wins_bruteforce(g, region, Party.A)

    @pytest.mark.parametrize("row", [1, 5])
    def test_one_row_side_of_a_five_by_five_grid(self, row):
        # Row-major splits of a 5x5 grid at d = 5 leave one-row sides; a row
        # of 5 cells is wider than z = 4, so such a side has no plan, where
        # a count of 0 once read as a gap of 5/2.
        g = make_grid([[1] * 5 for _ in range(5)], d=5)
        side = frozenset((row, j) for j in range(1, 6))
        assert grid.compactness_bound(5) == 4
        assert list(grid.enumerate_region_plans(g, side)) == []
        for party in Party:
            with pytest.raises(grid.GridError, match="region of 5 cells has no valid plan"):
                grid.max_wins_bruteforce(g, side, party)
        assert grid.max_wins_bruteforce(g, g.all_cells(), Party.A, cap=25) == 5

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_six_by_six(self, d):
        # Every 6x6 plan has 36/d districts: A wins all of them where every
        # cell backs A, none where no cell does, and nobody wins at 1/2.
        for support, wins_a, wins_b in ((1, 36 // d, 0), (0, 0, 36 // d), ("1/2", 0, 0)):
            g = make_grid([[support] * 6 for _ in range(6)], d=d)
            region = g.all_cells()
            assert grid.max_wins_bruteforce(g, region, Party.A, cap=36) == wins_a
            assert grid.max_wins_bruteforce(g, region, Party.B, cap=36) == wins_b


def reference_plans(g, region):
    """Reference plan enumeration by subset filtering: every d-subset holding
    the smallest unassigned cell, kept when it is connected, hole-free and
    inside the z-by-z box.  Exponential in the region, so small regions only."""

    def recurse(remaining):
        if not remaining:
            yield ()
            return
        anchor = min(remaining)
        for combo in combinations(sorted(remaining - {anchor}), g.d - 1):
            district = frozenset(combo) | {anchor}
            if not grid_reference._is_connected(district) or grid_reference._has_hole(district):
                continue
            height, width = grid_reference._bounding_box(district)
            if height > g.z or width > g.z:
                continue
            for rest in recurse(remaining - district):
                yield (district,) + rest

    yield from recurse(frozenset(region))


def assert_same_plans(g, region):
    plans = list(grid.enumerate_region_plans(g, region))
    assert len(plans) == len(set(plans))
    assert set(plans) == set(reference_plans(g, region))
    return len(plans)


class TestDirectEnumeration:
    # Among them: the domino tilings of the 2x2 and 4x4 squares (2 and 36),
    # the tetromino tilings of the 4x4 (117), the tromino tilings of the 3x3 (10).
    @pytest.mark.parametrize(
        "m, d, plans",
        [(2, 2, 2), (2, 4, 1), (4, 2, 36), (4, 4, 117), (3, 3, 10), (4, 8, 70)],
    )
    def test_whole_grid_matches_reference(self, m, d, plans):
        g = make_grid([[0] * m for _ in range(m)], d=d)
        assert assert_same_plans(g, g.all_cells()) == plans

    def test_shrunk_analogue_sides_match_reference(self):
        g, splits, _ = grid.make_shrunk_analogue()
        universe = g.all_cells()
        for k in range(splits.split_count + 1):
            assert_same_plans(g, splits.left_cells(k))
            assert_same_plans(g, universe - splits.left_cells(k))

    def test_random_subregions_match_reference(self):
        assert sum(assert_same_plans(g, region) for g, region in random_subregions()) > 0

    def test_hole_test_decides(self):
        g = make_grid([[0] * 4 for _ in range(4)], d=8)
        ring = frozenset(
            {(1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2), (3, 3)}
        )
        assert grid._is_connected(ring)
        assert assert_same_plans(g, ring) == 0
        assert assert_same_plans(g, (ring | {(2, 2)}) - {(1, 1)}) == 1

    def test_disconnected_plus_encloses_its_centre(self):
        # Four cells around (2, 2), none touching another: the hole test
        # still finds the centre walled in.  validate_plan stops at the
        # connectivity test, which fails first.
        plus = frozenset({(1, 2), (2, 1), (2, 3), (3, 2)})
        g = make_grid([[0] * 4 for _ in range(4)], d=4)
        assert grid._has_hole(plus)
        assert grid.validate_plan(g, (plus,), region=plus) == ("district 0 is not connected",)

    def test_seven_connected_cells_enclose_a_hole(self):
        # The fewest cells a connected district needs to wall in (2, 2): its
        # four neighbours and three corners joining them.
        hook = frozenset({(1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)})
        g = make_grid([[0] * 7 for _ in range(7)], d=7)
        assert grid.validate_plan(g, (hook,), region=hook) == ("district 0 encloses a hole",)
        square = frozenset((i, j) for i in range(1, 4) for j in range(1, 4))
        grown = grid._grow_districts((1, 1), square - {(1, 1)}, g.d, g.z)
        assert grown and hook not in grown
        assert all(not grid._has_hole(district) for district in grown)

    def test_growth_is_the_subset_filter(self):
        # Growth from each anchor of the 4x4 square over the cells after it:
        # exactly the d-subsets holding the anchor that are connected, fit
        # the z-by-z box and wall in no cell, in order of their sorted cells.
        # A district walls in a cell when its complement in the square, padded
        # by one cell all round, falls apart.
        padded = frozenset((i, j) for i in range(6) for j in range(6))
        cells = [(i, j) for i in range(1, 5) for j in range(1, 5)]  # row-major, so sorted
        walled = Counter()
        for d in range(1, 9):
            z = grid.compactness_bound(d)
            for index, anchor in enumerate(cells):
                later = cells[index + 1 :]
                expected = []
                for combo in combinations(later, d - 1):
                    district = frozenset((anchor, *combo))
                    rows = [i for i, _ in district]
                    cols = [j for _, j in district]
                    if not grid_reference._is_connected(district):
                        continue
                    if max(rows) - min(rows) >= z or max(cols) - min(cols) >= z:
                        continue
                    if not grid_reference._is_connected(padded - district):
                        walled[d] += 1
                        continue
                    expected.append(district)
                grown = grid._grow_districts(anchor, frozenset(later), d, z)
                assert grown == sorted(expected, key=sorted)
        assert set(walled) == {7, 8}

    def test_skipping_small_hole_tests_keeps_every_plan(self, monkeypatch):
        # The oracle's grids (d of 2 or 4) and every side of the analogue
        # (d = 4) yield the same plans, in the same order, when the hole test
        # also runs below 7 cells.
        regions = oracle_regions(0)
        calls = Counter()
        has_hole = grid._has_hole

        def counted(cells):
            calls[grid._HOLE_MIN_CELLS] += 1
            return has_hole(cells)

        def plans():
            # fresh growth and a fresh grid for each pass, since districts are
            # grown once per process and tabled once per grid
            grid._shape.cache_clear()
            return [
                list(grid.enumerate_region_plans(fresh(g), r))
                for g, r in regions
            ]

        monkeypatch.setattr(grid, "_has_hole", counted)
        skipped = plans()
        monkeypatch.setattr(grid, "_HOLE_MIN_CELLS", 0)
        tested = plans()
        assert tested == skipped
        assert sum(map(len, skipped)) > 0
        assert calls[7] == 0 and calls[0] > 0

    def test_validation_ignores_the_hole_threshold(self, monkeypatch):
        # validate_plan finds the same violations when it tests every
        # district for holes.
        cases = []
        for index in range(25):
            g = oracle.random_small_grid(random.Random(mix_seed(0, index)))
            cases += [(g, cells) for _, cells in grid._shape(g.m, g.d, g.all_cells()).districts]
        square = frozenset((i, j) for i in range(1, 4) for j in range(1, 4))
        plus = frozenset({(1, 2), (2, 1), (2, 3), (3, 2)})
        hook = frozenset({(1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)})
        four = make_grid([[0] * 4 for _ in range(4)], d=4)
        cases += [(four, frozenset(c)) for c in combinations(sorted(square), 4)]
        cases += [(four, plus), (four, square - {(2, 2)})]
        cases.append((make_grid([[0] * 7 for _ in range(7)], d=7), hook))

        def violations():
            return [
                grid.validate_plan(g, (cells,), cells)
                for g, cells in cases
            ]

        skipped = violations()
        monkeypatch.setattr(grid, "_HOLE_MIN_CELLS", 0)
        assert violations() == skipped
        holes = [v for found in skipped for v in found if v.endswith("hole")]
        assert len(holes) == 2 and len(cases) > 300

    def test_compactness_box_decides(self):
        # z = 4 for d = 5, so the straight pentomino is never a district
        g = make_grid([[0] * 10 for _ in range(10)], d=5)
        row = frozenset((1, j) for j in range(1, 6))
        assert assert_same_plans(g, row) == 0
        assert assert_same_plans(g, row | {(2, j) for j in range(1, 6)}) == 4


def box_subsets(rows, cols):
    """Every subset of the rows-by-cols box at the grid's top-left corner."""
    cells = [(i, j) for i in range(1, rows + 1) for j in range(1, cols + 1)]
    return [frozenset(compress(cells, pick)) for pick in product((0, 1), repeat=len(cells))]


def test_mask_floods_match_the_set_floods():
    # Connectivity on every subset of a 4x4 box and a 2x7 strip, holes on
    # every subset of the 3x4 and 4x3 boxes and on the plus and the hook.
    plus = frozenset({(1, 2), (2, 1), (2, 3), (3, 2)})
    hook = frozenset({(1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)})
    joined = box_subsets(4, 4) + box_subsets(2, 7)
    connected = list(map(grid._is_connected, joined))
    assert connected == list(map(grid_reference._is_connected, joined))
    walled = box_subsets(3, 4) + box_subsets(4, 3) + [plus, hook]
    holes = list(map(grid._has_hole, walled))
    assert holes == list(map(grid_reference._has_hole, walled))
    assert 0 < sum(connected) < len(joined) and 0 < sum(holes) < len(walled)
    assert holes[-2:] == [True, True]


def recursive_plans(g, region):
    """The plans of ``region`` walked by recursion over the districts its
    ``_shape`` files under each smallest cell, one generator per district
    taken: the reference for the order of ``enumerate_region_plans``."""
    shape = grid._shape(g.m, g.d, frozenset(region))
    districts, table = shape.districts, shape.by_anchor

    def recurse(remaining):
        if not remaining:
            yield ()
            return
        for index, mask in table.get(remaining & -remaining, ()):
            if mask & remaining == mask:
                for rest in recurse(remaining ^ mask):
                    yield (districts[index][1],) + rest

    yield from recurse(shape.mask)


class TestPlanOrder:
    """``enumerate_region_plans`` lists plans lazily, in the recursion's order."""

    def test_plans_come_in_the_recursive_order(self):
        cases = [
            (g, g.all_cells())
            for g in (make_grid([[0] * m for _ in range(m)], d) for m, d in SHAPES)
        ]
        g, sides = analogue_sides()
        cases += [(g, side) for side in sides]
        six = make_grid([[0] * 6 for _ in range(6)], 2)
        cases.append((six, six.all_cells()))
        for g, region in cases:
            plans = list(grid.enumerate_region_plans(g, region))
            assert plans == list(recursive_plans(g, region))
        assert len(plans) == 6728

    def test_a_generator_function(self):
        # the traced benchmark counts the plans of generator functions only
        assert inspect.isgeneratorfunction(grid.enumerate_region_plans)


def reference_validate(g, plan, region=None):
    """``validate_plan`` restated: every district of every plan checked with
    a hole test at any size, its messages built with its index."""
    if region is None:
        region = frozenset((i, j) for i in range(1, g.m + 1) for j in range(1, g.m + 1))
    found = []
    claimed = {}
    for index, district in enumerate(plan):
        for cell in district:
            if cell in claimed:
                found.append(f"cell {cell} appears in districts {claimed[cell]} and {index}")
            claimed[cell] = index
        found.extend(reference_district(g, index, district))
    missing = region - set(claimed)
    if missing:
        found.append(f"{len(missing)} cell(s) uncovered, e.g. {min(missing)}")
    extra = set(claimed) - region
    if extra:
        found.append(f"{len(extra)} cell(s) outside the region, e.g. {min(extra)}")
    return found


def reference_district(g, index, cells):
    cells = frozenset(cells)
    if len(cells) != g.d:
        yield f"district {index} has {len(cells)} cells, not {g.d}"
    bad = [c for c in cells if not (1 <= c[0] <= g.m and 1 <= c[1] <= g.m)]
    if bad:
        yield f"district {index} leaves the grid at {sorted(bad)}"
        return
    if not grid_reference._is_connected(cells):
        yield f"district {index} is not connected"
        return
    if grid_reference._has_hole(cells):
        yield f"district {index} encloses a hole"
    height, width = grid_reference._bounding_box(cells)
    if height > g.z or width > g.z:
        yield f"district {index} spans {height}x{width}, exceeding {g.z}x{g.z}"


def district_support(g, district, party):
    """A party's exact support in a district, summed in ``Fraction``s."""
    cells = (g.cells[(i - 1) * g.m + j - 1] for i, j in district)
    total = sum((Fraction(value, g.scale) for value in cells), Fraction(0))
    return total if party is Party.A else len(district) - total


def reference_wins(g, plan, party):
    """Wins from the ``Fraction`` sums on a freshly built grid."""
    return sum(
        2 * district_support(fresh(g), district, party) > len(district)
        for district in plan
    )


def reference_max_wins(g, region, party):
    """The best win count over the reference plans, None when there are none."""
    return max(
        (reference_wins(g, plan, party) for plan in reference_plans(g, region)),
        default=None,
    )


def assert_validates_like_reference(g, plan, region=None):
    got = list(grid.validate_plan(g, plan, region))
    assert got == reference_validate(g, plan, region)
    return got


class TestVerdictCache:
    """One grid validated and counted over many plans gives what checking
    every district afresh gives."""

    def test_random_plans_match_reference(self):
        rng = random.Random(5)
        checked = invalid = 0
        for _ in range(30):
            g = oracle.random_small_grid(rng)
            cells = sorted(g.all_cells())
            valid = list(grid.enumerate_region_plans(g, g.all_cells()))
            plans = rng.sample(valid, min(len(valid), 6))
            for _ in range(6):
                rng.shuffle(cells)
                plans.append(
                    tuple(frozenset(cells[i : i + g.d]) for i in range(0, len(cells), g.d))
                )
            for plan in list(plans):
                if len(plan) > 1:
                    twice = list(plan)
                    twice[-1] = twice[0]
                    plans += [tuple(twice), plan[1:]]
            for plan in plans:
                if assert_validates_like_reference(g, plan):
                    invalid += 1
                    continue
                checked += 1
                for party in Party:
                    assert grid.count_wins(g, plan, party) == reference_wins(g, plan, party)
        assert checked > 100 and invalid > 100

    def test_same_bad_district_at_two_indices(self):
        g = make_grid([[0] * 4 for _ in range(4)], d=4)
        scattered = frozenset({(1, 1), (1, 4), (4, 1), (4, 4)})
        short = frozenset({(2, 2), (2, 3), (3, 2)})
        off = frozenset({(0, 2), (1, 2), (1, 3), (2, 3)})
        plan = (scattered, short, off, scattered, short, off)
        messages = assert_validates_like_reference(g, plan)
        for index in (0, 3):
            assert f"district {index} is not connected" in messages
        for index in (1, 4):
            assert f"district {index} has 3 cells, not 4" in messages
        for index in (2, 5):
            assert f"district {index} leaves the grid at [(0, 2)]" in messages
        # a plan naming the same districts elsewhere reports its own indices
        assert_validates_like_reference(g, (short, scattered))

    def test_one_grid_for_both_parties_and_several_regions(self):
        g = make_grid(
            [
                [1, 0, Fraction(1, 2), 1],
                [Fraction(3, 4), 0, 1, 0],
                [0, Fraction(1, 4), 1, Fraction(1, 2)],
                [1, 1, 0, 0],
            ],
            d=2,
        )
        rng = random.Random(9)
        plans = list(grid.enumerate_region_plans(g, g.all_cells()))
        assert len(plans) == 36
        regions = [g.all_cells(), frozenset().union(*plans[0][:3])]
        cells = sorted(g.all_cells())
        regions += [frozenset(rng.sample(cells, 2 * rng.randint(1, 5))) for _ in range(6)]
        for region in regions:
            for party in Party:
                expected = reference_max_wins(g, region, party)
                if expected is None:
                    with pytest.raises(grid.GridError, match="has no valid plan"):
                        grid.max_wins_bruteforce(g, region, party)
                else:
                    assert grid.max_wins_bruteforce(g, region, party) == expected
        for plan in plans:
            assert_validates_like_reference(g, plan)
            for party in Party:
                assert grid.count_wins(g, plan, party) == reference_wins(g, plan, party)
        region = regions[1]
        subplan = plans[0][:3]
        assert_validates_like_reference(g, subplan, region)
        assert grid.count_wins(g, subplan, Party.B, region) == reference_wins(
            g, subplan, Party.B
        )

    def test_oracle_decides_each_district_once_per_grid(self, monkeypatch):
        # At most once per grid: each district of a shape (m, d) is validated
        # once per call, on the first grid of that shape, and again by the
        # next call, which keeps only the growth from this one.
        calls = []  # (grid, plan, region) of every validate_plan call
        validating = []  # the grid validate_plan is checking, if any
        checks = {"connected": Counter(), "hole": Counter()}
        validate_plan = grid.validate_plan

        def counting_validate(g, plan, region=None):
            calls.append((g, plan, region))
            validating.append(g)
            try:
                return validate_plan(g, plan, region)
            finally:
                validating.pop()

        def counted(name, check):
            def wrapper(cells):
                if validating:
                    shape = validating[-1].m, validating[-1].d
                    checks[name][shape, cells] += 1
                return check(cells)

            return wrapper

        monkeypatch.setattr(grid, "validate_plan", counting_validate)
        monkeypatch.setattr(grid, "_is_connected", counted("connected", grid._is_connected))
        monkeypatch.setattr(grid, "_has_hole", counted("hole", grid._has_hole))
        grids = [oracle.random_small_grid(random.Random(mix_seed(0, i))) for i in range(25)]
        first = {}  # each shape's first grid, in the oracle's order
        for g in grids:
            first.setdefault((g.m, g.d), g)
        expected = Counter()
        for shape, g in first.items():
            expected.update(
                (shape, district) for _, district in grid._shape(*shape, g.all_cells()).districts
            )
        assert len(first) == 4 and set(expected.values()) == {1}
        for repeat in (1, 2):
            assert oracle.grid_oracle_mismatches(25, seed=0, cap=16) == (25, True, [])
            assert all(region == plan[0] and len(plan) == 1 for _, plan, region in calls)
            assert all(g == first[g.m, g.d] for g, _, _ in calls)
            validated = Counter(((g.m, g.d), plan[0]) for g, plan, _ in calls)
            assert validated == Counter({key: repeat for key in expected})
            # Every oracle grid has d <= 4, below the fewest cells that wall
            # in a hole, so validation runs no hole test.
            assert checks["connected"] == validated
            assert checks["hole"] == Counter()


DIAGONAL_GRID = ((1, 0), (0, 1))
ROWS = (frozenset({(1, 1), (1, 2)}), frozenset({(2, 1), (2, 2)}))
COLUMNS = (frozenset({(1, 1), (2, 1)}), frozenset({(1, 2), (2, 2)}))


def list_random_small_grid(rng):
    """``oracle.random_small_grid`` as it drew its cells from a fresh list,
    kept as the reference for the module-level tuple."""
    m, d = rng.choice([(2, 2), (2, 4), (4, 2), (4, 4)])
    choices = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)]
    return make_grid([[rng.choice(choices) for _ in range(m)] for _ in range(m)], d)


def test_random_small_grid_draws_as_from_a_list():
    for seed in range(100):
        rng, reference = random.Random(seed), random.Random(seed)
        assert oracle.random_small_grid(rng) == list_random_small_grid(reference)
        assert rng.getstate() == reference.getstate()


class TestGridOracleMismatches:
    """Each kind of grid-oracle mismatch fires when its check fails.  Every
    instance is the 2x2 grid with A's support on the diagonal, whose two
    plans, rows and columns, both leave A with no win."""

    @pytest.fixture(autouse=True)
    def diagonal(self, monkeypatch):
        monkeypatch.setattr(
            oracle, "random_small_grid", lambda rng: make_grid(DIAGONAL_GRID, 2)
        )

    def kinds(self, count=2):
        instances, checked, mismatches = oracle.grid_oracle_mismatches(count, seed=0, cap=16)
        assert (instances, checked) == (count, True)
        return [(m["kind"], m["detail"]) for m in mismatches]

    def test_clean_run(self):
        assert self.kinds() == []

    def grow_diagonals(self, monkeypatch):
        # Growth also files each diagonal pair under its smaller cell.  A
        # wins the main diagonal, so the compiled search reports a win that
        # no valid plan witnesses.
        grow = grid._grow_districts
        diagonals = {(1, 1): frozenset({(1, 1), (2, 2)}), (1, 2): frozenset({(1, 2), (2, 1)})}

        def with_diagonal(anchor, allowed, d, z):
            found = grow(anchor, allowed, d, z)
            return found + [diagonals[anchor]] if anchor in diagonals else found

        monkeypatch.setattr(grid, "_grow_districts", with_diagonal)

    @staticmethod
    def diagonal_faults(index):
        return [
            ("invalid_plan", f"instance {index}: district 0 is not connected"),
            ("invalid_plan", f"instance {index}: district 0 is not connected"),
            ("invalid_plan", f"instance {index}: district 0 is not a valid district of the table"),
            ("unwitnessed_max", f"instance {index}: reported 1, best plan 0"),
        ]

    def test_disconnected_district(self, monkeypatch):
        self.grow_diagonals(monkeypatch)
        assert self.kinds(1) == self.diagonal_faults(0)

    def test_disconnected_district_in_every_instance(self, monkeypatch):
        # Both instances share one shape, validated once; each still reports
        # the shape's faults as its own.
        self.grow_diagonals(monkeypatch)
        assert self.kinds(2) == self.diagonal_faults(0) + self.diagonal_faults(1)

    def test_invalid_plans(self, monkeypatch):
        overlapping = (ROWS[0], COLUMNS[0])
        foreign = (ROWS[0], frozenset({(2, 1)}))
        plans = (ROWS, overlapping, ROWS[:1], foreign, COLUMNS)
        monkeypatch.setattr(grid, "enumerate_region_plans", lambda g, region: iter(plans))
        assert self.kinds(1) == [
            ("invalid_plan", "instance 0: district 1 overlaps an earlier one"),
            ("invalid_plan", "instance 0: the plan does not cover the region"),
            ("invalid_plan", "instance 0: district 1 is not a valid district of the table"),
        ]

    def test_no_plans(self, monkeypatch):
        # Nothing enumerated leaves the search's maximum unwitnessed; only
        # the search decides that a region has no plan.
        monkeypatch.setattr(grid, "enumerate_region_plans", lambda g, region: iter(()))
        assert self.kinds() == [
            ("unwitnessed_max", "instance 0: reported 0, best plan -1"),
            ("unwitnessed_max", "instance 1: reported 0, best plan -1"),
        ]

    def test_analogue_side_without_a_plan(self, monkeypatch):
        # Growth that drops the districts of corner (1, 1) at d = 4 leaves
        # every side of the analogue that holds the corner with no plan: a
        # mismatch naming the search's error, not a traceback.  (The grids'
        # no_plans mismatch is checked through the CLI, in test_cli.py.)
        grow = grid._grow_districts

        def without_corner(anchor, allowed, d, z):
            return [] if (anchor, d) == ((1, 1), 4) else grow(anchor, allowed, d, z)

        monkeypatch.setattr(grid, "_grow_districts", without_corner)
        error = "bruteforce=GridError(region of {} cells has no valid plan)"
        assert self.kinds() == [
            ("analogue", f"k={k} |side|={size} analytic={count} {error.format(size)}")
            for k, size, count in ((0, 16, 2), (1, 4, 0), (2, 8, 1), (3, 12, 2), (4, 16, 2))
        ]

    def test_unwitnessed_max(self, monkeypatch):
        search = grid.max_wins_bruteforce
        monkeypatch.setattr(
            grid, "max_wins_bruteforce", lambda *args, **kwargs: search(*args, **kwargs) + 1
        )
        found = self.kinds()
        assert found[:2] == [
            ("unwitnessed_max", "instance 0: reported 1, best plan 0"),
            ("unwitnessed_max", "instance 1: reported 1, best plan 0"),
        ]
        # the analogue is searched by the same function
        assert found[2:] and {kind for kind, _ in found[2:]} == {"analogue"}

    def test_analogue(self, monkeypatch):
        counts = grid.side_group_counts

        def off_by_one(groups, splits):
            left, right = counts(groups, splits)
            return tuple(c + 1 for c in left), right

        monkeypatch.setattr(grid, "side_group_counts", off_by_one)
        found = self.kinds()
        assert found and {kind for kind, _ in found} == {"analogue"}
        assert found[0] == ("analogue", "k=1 |side|=4 analytic=1 bruteforce=0")

    def test_analogue_partly_checked(self, monkeypatch):
        # Below 16 the cap skips the analogue's two whole-grid sides, so the
        # analogue reads as not checked; its smaller sides are still searched,
        # and a miscount on one of them is still reported.
        counts = grid.side_group_counts

        def one_more_at_split_1(groups, splits):
            left, right = counts(groups, splits)
            return (left[0], left[1] + 1, *left[2:]), right

        monkeypatch.setattr(grid, "side_group_counts", one_more_at_split_1)
        miscount = {"kind": "analogue", "detail": "k=1 |side|=4 analytic=1 bruteforce=0"}
        for cap, checked in ((15, False), (16, True)):
            assert oracle.grid_oracle_mismatches(2, seed=0, cap=cap) == (2, checked, [miscount])


def reference_grid_oracle(count, seed, cap):
    """The grids' part of ``oracle.grid_oracle_mismatches`` with no work
    shared between grids: each grid grows and validates its own districts
    and enumerates and checks its own plans."""
    mismatches = []
    instances = 0
    for index in range(count):
        g = oracle.random_small_grid(random.Random(mix_seed(seed, index)))
        region = g.all_cells()
        if len(region) > cap:
            continue
        instances += 1
        valid = {}  # each valid district of the grid: (mask, winner)
        faults = []
        for mask, district in grid._shape(g.m, g.d, region).districts:
            bad = grid.validate_plan(g, (district,), district)
            if bad:
                faults.append(bad[0])
            else:
                valid[district] = mask, reference_winner(g, district)
        # _plan_fault takes each district's (mask, bit); no bit is read here
        masks = {district: (mask, 0) for district, (mask, _) in valid.items()}
        best = -1
        for plan in grid.enumerate_region_plans(g, region):
            fault, _ = oracle._plan_fault(plan, masks, bits(g, region))
            if fault:
                faults.append(fault)
            else:
                best = max(best, sum(valid[district][1] is Party.A for district in plan))
        mismatches += (
            {"kind": "invalid_plan", "detail": f"instance {index}: {fault}"} for fault in faults
        )
        try:
            reported = grid.max_wins_bruteforce(g, region, Party.A, cap=cap)
        except grid.GridError as exc:
            mismatches.append({"kind": "no_plans", "detail": f"instance {index}: {exc}"})
            continue
        if best != reported:
            mismatches.append(
                {
                    "kind": "unwitnessed_max",
                    "detail": f"instance {index}: reported {reported}, best plan {best}",
                }
            )
    return instances, mismatches


def grid_instances_checked(count, seed, cap):
    """``oracle.grid_oracle_mismatches`` without its analogue mismatches."""
    instances, _, mismatches = oracle.grid_oracle_mismatches(count, seed, cap)
    return instances, [m for m in mismatches if m["kind"] != "analogue"]


class TestGridOracleReference:
    """The grid oracle, which shares each shape's districts and plans
    between its grids, reports what checking every grid afresh reports."""

    @pytest.mark.parametrize("cap", [4, 8, 16])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_the_per_grid_reference(self, monkeypatch, seed, cap):
        # The searched maxima must agree too: a grid handed another shape's
        # districts would search them consistently and report nothing.
        maxima = []
        search = grid.max_wins_bruteforce

        def recorded(*args, **kwargs):
            maxima.append(search(*args, **kwargs))
            return maxima[-1]

        monkeypatch.setattr(grid, "max_wins_bruteforce", recorded)
        instances, mismatches = grid_instances_checked(25, seed, cap)
        searched, maxima[:] = maxima[:], []
        assert (instances, mismatches) == reference_grid_oracle(25, seed, cap)
        assert searched[: len(maxima)] == maxima
        assert instances > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_witnessed_best_matches_the_reference(self, monkeypatch, seed):
        # A search that reports an impossible maximum makes every grid name
        # its best plan, which must be the one the Fraction winners give.
        monkeypatch.setattr(grid, "max_wins_bruteforce", lambda *args, **kwargs: -2)
        instances, mismatches = grid_instances_checked(25, seed, 16)
        assert (instances, mismatches) == reference_grid_oracle(25, seed, 16)
        assert [m["kind"] for m in mismatches] == ["unwitnessed_max"] * instances
        assert all(
            re.fullmatch(r"instance \d+: reported -2, best plan \d+", m["detail"])
            for m in mismatches
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_with_a_disconnected_district(self, monkeypatch, seed):
        # Corner (1, 1) also grows itself with the last d - 1 cells after it,
        # which no grid of the oracle's shapes connects but a 2x2 grid at
        # d = 4, where it is the whole grid.
        grow = grid._grow_districts

        def with_scattered(anchor, allowed, d, z):
            found = grow(anchor, allowed, d, z)
            scattered = frozenset({anchor, *sorted(allowed)[1 - d :]})
            return found + [scattered] if anchor == (1, 1) else found

        monkeypatch.setattr(grid, "_grow_districts", with_scattered)
        got = grid_instances_checked(25, seed, 16)
        assert got == reference_grid_oracle(25, seed, 16)
        faulty = {m["detail"].split(":")[0] for m in got[1] if m["kind"] == "invalid_plan"}
        grids = [oracle.random_small_grid(random.Random(mix_seed(seed, i))) for i in range(25)]
        assert faulty == {f"instance {i}" for i, g in enumerate(grids) if g.d < g.m * g.m}


def reference_winner(g, district):
    """The party with the larger ``Fraction`` support, None on a tie."""
    a, b = (district_support(g, district, party) for party in Party)
    return Party.A if a > b else Party.B if b > a else None


class TestMaskFastPath:
    """Plans of valid districts that overlap, miss a region cell or leave the
    region give the reference's violations."""

    def test_valid_districts_sharing_a_cell(self):
        g = make_grid([[1, 0], [0, 1]], d=2)
        plan = (frozenset({(1, 1), (1, 2)}), frozenset({(1, 2), (2, 2)}))
        assert assert_validates_like_reference(g, plan) == [
            "cell (1, 2) appears in districts 0 and 1",
            "1 cell(s) uncovered, e.g. (2, 1)",
        ]
        # together they cover the grid, so only the overlap can fail them
        covering = (*plan, frozenset({(2, 1), (2, 2)}))
        assert assert_validates_like_reference(g, covering) == [
            "cell (1, 2) appears in districts 0 and 1",
            "cell (2, 2) appears in districts 1 and 2",
        ]

    def test_one_region_cell_uncovered(self):
        g = make_grid([[0] * 4 for _ in range(4)], d=2)
        plan = (frozenset({(1, 1), (1, 2)}), frozenset({(2, 1), (2, 2)}))
        region = frozenset().union(*plan) | {(3, 1)}
        assert assert_validates_like_reference(g, plan, region) == [
            "1 cell(s) uncovered, e.g. (3, 1)"
        ]

    def test_whole_grid_plan_against_a_smaller_region(self):
        g = make_grid([[1, 0, 0, 1]] * 4, d=4)
        plan = tuple(frozenset((i, j) for j in range(1, 5)) for i in range(1, 5))
        assert assert_validates_like_reference(g, plan) == []
        region = plan[0] | plan[1]
        assert assert_validates_like_reference(g, plan, region) == [
            "8 cell(s) outside the region, e.g. (3, 1)"
        ]
        assert assert_validates_like_reference(g, plan[:2], region) == []

    def test_region_with_an_off_grid_cell(self):
        g = make_grid([[0, 0], [0, 0]], d=2)
        plan = (frozenset({(1, 1), (1, 2)}), frozenset({(2, 1), (2, 2)}))
        region = g.all_cells() | {(0, 1)}
        assert assert_validates_like_reference(g, plan, region) == [
            "1 cell(s) uncovered, e.g. (0, 1)"
        ]
        assert assert_validates_like_reference(g, plan, g.all_cells()) == []


def record_growths(monkeypatch):
    """Count each ``_grow_districts`` call by its anchor, d and allowed cells."""
    growths = Counter()
    grow = grid._grow_districts

    def counted(anchor, allowed, d, z):
        growths[anchor, d, allowed] += 1
        return grow(anchor, allowed, d, z)

    monkeypatch.setattr(grid, "_grow_districts", counted)
    return growths


def growths_for(keys):
    """The growths of each (m, d, region) in ``keys``: one per cell of the
    region, over the region's later cells."""
    growths = Counter()
    for _, d, region in keys:
        cells = sorted(region)
        growths.update((cell, d, frozenset(cells[i + 1 :])) for i, cell in enumerate(cells))
    return growths


def analogue_sides():
    """The shrunk analogue and its non-empty sides, in the oracle's order."""
    g, splits, _ = grid.make_shrunk_analogue()
    universe = g.all_cells()
    return g, [
        side
        for k in range(splits.split_count + 1)
        for side in (splits.left_cells(k), universe - splits.left_cells(k))
        if side
    ]


def oracle_growth_keys(seed, cap, count=25):
    """The (m, d, region) of every growth a ``grid_oracle_mismatches`` call
    of ``count`` grids at ``seed`` and ``cap`` needs: each grid shape within
    the cap over its whole grid, and each non-empty side of the analogue
    within it."""
    keys = set()
    for index in range(count):
        g = oracle.random_small_grid(random.Random(mix_seed(seed, index)))
        if len(g.all_cells()) <= cap:
            keys.add((g.m, g.d, g.all_cells()))
    g, sides = analogue_sides()
    return keys | {(g.m, g.d, side) for side in sides if len(side) <= cap}


def district_winners(g, region):
    """Each district's winner on ``g``, by index, read off the districts
    each party wins; no district is won by both."""
    shape = grid._shape(g.m, g.d, region)
    a, b = (grid._district_wins(g, shape, party) for party in Party)
    assert len(a) == len(b) == len(shape.districts)
    assert not any(x and y for x, y in zip(a, b))
    return tuple(Party.A if x else Party.B if y else None for x, y in zip(a, b))


class TestDistrictTable:
    """One growth of a region's districts serves every grid of its shape,
    and each grid reads which of them each party wins."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, "subregions"])
    def test_fitting_districts_are_the_regions_districts(self, seed):
        regions = random_subregions() if seed == "subregions" else oracle_regions(seed)
        for g, region in regions:
            shape = grid._shape(g.m, g.d, region)
            districts, table = shape.districts, shape.by_anchor
            assert shape.mask == bits(g, region)
            assert set(table) <= {bits(g, [cell]) for cell in region}
            cells = sorted(region)
            for index, anchor in enumerate(cells):
                found = table.get(bits(g, [anchor]), [])
                assert all(districts[i][0] == mask for i, mask in found)
                fitting = {districts[i][1] for i, _ in found if districts[i][1] <= region}
                later = frozenset(cells[index + 1 :])
                assert fitting == set(grid._grow_districts(anchor, later, g.d, g.z))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_masks_and_winners_of_the_oracle_grids(self, seed):
        for index in range(25):
            g = oracle.random_small_grid(random.Random(mix_seed(seed, index)))
            region = g.all_cells()
            shape = grid._shape(g.m, g.d, region)
            gathered = shape.gather(range(g.m * g.m))  # each position, read as itself
            districts, positions = shape.districts, [gathered[span] for span in shape.spans]
            winners = district_winners(g, region)
            for (mask, district), cells, winner in zip(districts, positions, winners, strict=True):
                assert mask == bits(g, district)
                assert mask & -mask == bits(g, [min(district)])
                assert sorted(1 << position for position in cells) == sorted(
                    bits(g, [cell]) for cell in district
                )
                assert winner == reference_winner(g, district)
            anchors = [min(district) for _, district in districts]
            assert anchors == sorted(anchors)

    def test_integer_winner_on_thirds_fifths_and_ties(self):
        third, fifth = Fraction(1, 3), Fraction(1, 5)
        g = make_grid(
            [
                [third, 2 * third, fifth, 4 * fifth],
                [2 * fifth, 3 * fifth, "1/2", "1/2"],
                [third, 3 * fifth, 0, 1],
                [2 * third, fifth, 4 * fifth, 2 * fifth],
            ],
            d=2,
        )
        assert g.scale == 30
        region = g.all_cells()
        districts = (district for _, district in grid._shape(g.m, g.d, region).districts)
        winners = dict(zip(districts, district_winners(g, region), strict=True))
        assert len(winners) == 24
        for district, winner in winners.items():
            assert winner == reference_winner(g, district)
        # exactly half: 1/3 + 2/3, 1/5 + 4/5, 1/2 + 1/2 and 0 + 1
        for tie in ({(1, 1), (1, 2)}, {(1, 3), (1, 4)}, {(2, 3), (2, 4)}, {(3, 3), (3, 4)}):
            assert winners[frozenset(tie)] is None
        assert winners[frozenset({(1, 1), (2, 1)})] is Party.B  # 1/3 + 2/5
        assert winners[frozenset({(1, 2), (2, 2)})] is Party.A  # 2/3 + 3/5
        assert winners[frozenset({(3, 2), (4, 2)})] is Party.B  # 3/5 + 1/5

    def test_grown_once_per_grid(self, monkeypatch):
        # At most once per grid, since once per process: searched in the
        # oracle's order, each side of the analogue is grown and compiled
        # once over its own cells, and a second grid of its shape grows and
        # compiles nothing and reads the same wins.
        growths = record_growths(monkeypatch)
        g, sides = analogue_sides()
        assert sides[0] == sides[-1] == g.all_cells()
        for side in sides:
            list(grid.enumerate_region_plans(g, side))
            grid.max_wins_bruteforce(g, side, Party.A)
        expected = growths_for((g.m, g.d, side) for side in set(sides))
        assert growths == expected
        masks = {bits(g, side) for side in sides}
        assert set(g.district_wins) == {(mask, Party.A) for mask in masks}
        assert grid._shape.cache_info().currsize == len(masks)
        other = fresh(g)
        for side in sides:
            grid.max_wins_bruteforce(other, side, Party.A)
        assert other.district_wins == g.district_wins
        assert growths == expected
        assert grid._shape.cache_info().misses == len(masks)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_grown_districts_serve_every_grid_of_the_shape(self, monkeypatch, seed):
        # Growth reads the shape alone, so the first grid of a shape grows its
        # districts, and every later grid of it grows nothing yet gets the
        # winners its own growth would give.
        grids = [oracle.random_small_grid(random.Random(mix_seed(seed, i))) for i in range(25)]
        first = {}
        for g in grids:
            first.setdefault((g.m, g.d), g)
        growths = record_growths(monkeypatch)
        grown = {
            shape: grid._shape(*shape, g.all_cells()).districts for shape, g in first.items()
        }
        expected = growths_for((g.m, g.d, g.all_cells()) for g in first.values())
        assert growths == expected
        tables = []
        for g in grids:
            assert grid._shape(g.m, g.d, g.all_cells()).districts is grown[g.m, g.d]
            tables.append(district_winners(g, g.all_cells()))
        assert growths == expected
        for g, table in zip(grids, tables):
            grid._shape.cache_clear()
            assert district_winners(fresh(g), g.all_cells()) == table
        assert len({g.cells for g in grids}) > len(first)

    def test_only_the_regions_cells_are_grown(self, monkeypatch):
        # a whole 20x20 grid of 100-cell districts would take far too long
        g, _ = grid.make_geodelta(1)
        assert grid.max_wins_bruteforce(g, frozenset(), Party.A) == 0
        assert list(grid.enumerate_region_plans(g, frozenset())) == [()]
        assert g.district_wins == {(0, Party.A): ()}
        empty = grid._shape(g.m, g.d, frozenset())
        assert (empty.mask, empty.districts, empty.by_anchor) == (0, (), {})
        assert (empty.gather(g.cells), empty.spans, empty.nodes) == ((), (), ((),))
        small = make_grid([[1] * 12 for _ in range(12)], d=2)
        region = frozenset({(5, 5), (5, 6), (6, 5), (6, 6)})
        assert grid.max_wins_bruteforce(small, region, Party.A) == 2
        districts = grid._shape(small.m, small.d, region).districts
        assert len(districts) == 4 and all(cells <= region for _, cells in districts)
        assert small.district_wins == {(bits(small, region), Party.A): (True,) * 4}
        # A 2x4 corner of a 12x12 grid at d = 8: grown over the whole grid,
        # each of its anchors would reach thousands of 8-cell districts.
        allowed_sets = []
        grow = grid._grow_districts

        def recorded(anchor, allowed, d, z):
            allowed_sets.append(allowed)
            return grow(anchor, allowed, d, z)

        monkeypatch.setattr(grid, "_grow_districts", recorded)
        wide = make_grid([[1] * 12 for _ in range(12)], d=8)
        corner = frozenset((i, j) for i in (1, 2) for j in range(1, 5))
        assert grid.max_wins_bruteforce(wide, corner, Party.A) == 1
        assert len(allowed_sets) == len(corner)
        assert all(allowed <= corner for allowed in allowed_sets)


def prefix_and_suffix_regions(g):
    """Every row-major prefix and suffix of ``g``'s cells whose size d divides."""
    cells = sorted(g.all_cells())
    sizes = range(g.d, len(cells) + 1, g.d)
    return [frozenset(cells[:n]) for n in sizes] + [frozenset(cells[-n:]) for n in sizes]


def shape_grids(seed):
    """The first of the oracle's grids at ``seed`` in each shape, and the
    shrunk analogue."""
    first = {}
    for index in range(25):
        g = oracle.random_small_grid(random.Random(mix_seed(seed, index)))
        first.setdefault((g.m, g.d), g)
    assert len(first) == 4
    return [*first.values(), grid.make_shrunk_analogue()[0]]


def fresh(g):
    return grid.GridState(g.m, g.d, g.scale, g.cells)


class TestSharedTablesAndMemo:
    """A region's wins and search on a grid that already searched another
    region, from the districts grown and the search compiled for the region
    earlier in the process, give what a fresh grid gives."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_derived_tables_are_the_regions_own(self, monkeypatch, seed):
        for g in shape_grids(seed):
            regions = prefix_and_suffix_regions(g)
            own = [district_winners(fresh(g), region) for region in regions]
            warm = fresh(g)
            grid.max_wins_bruteforce(warm, warm.all_cells(), Party.A)
            growths = []
            with monkeypatch.context() as patch:
                patch.setattr(grid, "_grow_districts", lambda *args: growths.append(args))
                derived = [district_winners(warm, region) for region in regions]
            assert growths == []
            assert derived == own  # each district's winner at the same index

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_shared_memo_matches_fresh_searches(self, seed):
        for g in shape_grids(seed):
            regions = prefix_and_suffix_regions(g)
            warm = fresh(g)
            for party in Party:
                expected = [grid.max_wins_bruteforce(fresh(g), region, party) for region in regions]
                forwards = [grid.max_wins_bruteforce(warm, region, party) for region in regions]
                backwards = [
                    grid.max_wins_bruteforce(warm, region, party) for region in reversed(regions)
                ]
                assert forwards == expected
                assert backwards == expected[::-1]


def reference_best_wins(table, party, remaining, memo):
    """The memoized recursion that searched plans before the compiled pass,
    kept as its reference: the most wins for ``party`` over the plans of the
    cells in the mask ``remaining``, -1 when it has none.  ``table`` files
    each district as (mask, cells, winner) under its lowest bit, and ``memo``
    maps each mask already searched to its answer."""
    best = memo.get(remaining)
    if best is None:
        best = -1
        for mask, _, winner in table.get(remaining & -remaining, ()):
            if mask & remaining == mask:
                rest = reference_best_wins(table, party, remaining ^ mask, memo)
                if rest >= 0:
                    best = max(best, rest + (winner is party))
        memo[remaining] = best
    return best


def reference_winners(g, region):
    """Each grown district of the region with its ``Fraction`` winner."""
    districts = grid._shape(g.m, g.d, region).districts
    return {cells: reference_winner(g, cells) for _, cells in districts}


def reference_search(g, region, party, winners=None):
    """``max_wins_bruteforce`` by the memoized recursion over the region's
    grown districts, each with its ``Fraction`` winner; -1 for no plan."""
    if winners is None:
        winners = reference_winners(g, region)
    table = {}
    for mask, cells in grid._shape(g.m, g.d, region).districts:
        table.setdefault(mask & -mask, []).append((mask, cells, winners[cells]))
    return reference_best_wins(table, party, bits(g, region), {0: 0})


SHAPES = ((2, 2), (2, 4), (4, 2), (4, 4))
SUPPORTS = st.sampled_from(
    (*(Fraction(q, 4) for q in oracle._CELL_VALUES),
     Fraction(1, 3), Fraction(2, 3), Fraction(2, 5), Fraction(5, 6))
)


@st.composite
def searched_regions(draw):
    """A grid of one of the oracle's four shapes with random supports and its
    whole grid, or the analogue's shape with random supports and one of its
    nested sides, or either with the empty region."""
    kind = draw(st.sampled_from(("shape", "analogue side", "empty")))
    m, d = (4, 4) if kind == "analogue side" else draw(st.sampled_from(SHAPES))
    rows = draw(st.lists(st.lists(SUPPORTS, min_size=m, max_size=m), min_size=m, max_size=m))
    g = make_grid(rows, d)
    if kind == "analogue side":
        return g, draw(st.sampled_from(analogue_sides()[1]))
    return g, g.all_cells() if kind == "shape" else frozenset()


class TestCompiledSearch:
    """The flat pass over a shape's compiled search gives what the memoized
    recursion and the enumerated plans give, and refuses what it refused."""

    @settings(deadline=None, max_examples=150)
    @given(searched_regions())
    @example((grid.make_shrunk_analogue()[0], frozenset()))
    def test_matches_the_recursion_and_the_plans(self, case):
        g, region = case
        plans = list(grid.enumerate_region_plans(g, region))
        winners = reference_winners(g, region)
        for party in Party:
            enumerated = max(
                (sum(winners[district] is party for district in plan) for plan in plans),
                default=0,
            )
            assert grid.max_wins_bruteforce(g, region, party) == enumerated
            assert reference_search(g, region, party, winners) == enumerated

    @pytest.mark.parametrize("d", [3, 4])
    def test_six_by_six_matches_the_recursion(self, d):
        # One compile serves both parties and a second grid of the shape.
        rng = random.Random(d)
        region = frozenset((i, j) for i in range(1, 7) for j in range(1, 7))
        for _ in range(2):
            quarters = tuple(rng.choice(oracle._CELL_VALUES) for _ in range(36))
            g = grid.GridState(6, d, 4, quarters)
            for party in Party:
                got = grid.max_wins_bruteforce(g, region, party, cap=36)
                assert got == reference_search(g, region, party)
        assert grid._shape.cache_info().misses == 1

    @pytest.mark.parametrize("d, plans", [(2, None), (3, 80_092), (4, 178_939), (6, 88_118)])
    def test_six_by_six_plan_counts(self, d, plans):
        # Node 0, the empty mask, has one plan, and every other node as many
        # as its children together; the whole grid's node is the last.  The
        # counts at d = 3, 4 and 6 are those of enumerate_region_plans; at
        # d = 2 Kasteleyn's product gives the 6x6 domino tilings (OEIS A004003).
        if d == 2:
            cos2 = [4 * math.cos(math.pi * j / 7) ** 2 for j in range(1, 4)]
            plans = round(math.prod(a + b for a in cos2 for b in cos2))
            assert plans == 6728
        whole = frozenset((i, j) for i in range(1, 7) for j in range(1, 7))
        counts = [1]
        for moves in grid._shape(6, d, whole).nodes[1:]:
            counts.append(sum(counts[child] for _, child in moves))
        assert counts[-1] == plans

    def test_every_oracle_region_has_a_plan(self):
        # So the search's no-plan error cannot fire on the oracle's own path:
        # each shape random_small_grid draws, over its whole grid (4, 2, 34
        # and 85 nodes), and each non-empty side of the analogue (2 to 85).
        rngs = map(random.Random, range(200))
        assert {(g.m, g.d) for g in map(oracle.random_small_grid, rngs)} == set(SHAPES)
        for m, d in SHAPES:
            whole = frozenset((i, j) for i in range(1, m + 1) for j in range(1, m + 1))
            assert grid._shape(m, d, whole).nodes, (m, d)
        g, sides = analogue_sides()
        for side in sides:
            assert grid._shape(g.m, g.d, side).nodes, sorted(side)

    def test_no_plan_raises(self):
        g = make_grid([[1] * 4 for _ in range(4)], d=2)
        region = frozenset({(1, 1), (1, 2), (1, 3), (1, 4), (3, 1), (3, 3)})
        assert grid._shape(g.m, g.d, region).nodes == ()
        with pytest.raises(grid.GridError, match="region of 6 cells has no valid plan"):
            grid.max_wins_bruteforce(g, region, Party.A)
        assert reference_search(g, region, Party.A) == -1
        # the empty region has its one plan, with no district
        assert grid._shape(g.m, g.d, frozenset()).nodes == ((),)
        assert grid.max_wins_bruteforce(g, frozenset(), Party.A) == 0

    @pytest.mark.parametrize(
        "region, cap, message",
        [
            (frozenset((i, j) for i in range(1, 5) for j in range(1, 5)), 8,
             "region of 16 cells exceeds the cap of 8"),
            (frozenset({(0, 1), (1, 1), (1, 2)}), 2, "region of 3 cells exceeds the cap of 2"),
            (frozenset({(1, 1), (1, 2), (1, 3)}), 16,
             "region of 3 cells cannot split into 2-cell districts"),
            (frozenset({(0, 1), (1, 1), (1, 2)}), 16,
             "region of 3 cells cannot split into 2-cell districts"),
            (frozenset({(0, 1), (1, 1), (4, 4), (4, 5)}), 16,
             r"region cell \(0, 1\) is off the 4x4 grid"),
        ],
    )
    def test_refused_regions_compile_nothing(self, monkeypatch, region, cap, message):
        g = make_grid([[1] * 4 for _ in range(4)], d=2)
        growths = record_growths(monkeypatch)
        for party in Party:
            with pytest.raises(grid.GridError, match=f"^{message}$"):
                grid.max_wins_bruteforce(g, region, party, cap=cap)
        if len(region) <= cap:  # refused by _shape itself, for every caller
            with pytest.raises(grid.GridError, match=f"^{message}$"):
                list(grid.enumerate_region_plans(g, region))
        assert growths == Counter()  # refused before any growth
        assert grid._shape.cache_info().currsize == 0
        assert g.district_wins == {}


class TestOracleGrowth:
    """How often ``grid_oracle_mismatches`` grows districts: once per process
    for each shape and region it searches."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_each_shape_and_side_once(self, monkeypatch, seed):
        growths = record_growths(monkeypatch)
        searches = []
        search = grid.max_wins_bruteforce

        def recorded(g, region, party, cap=grid.DEFAULT_BRUTEFORCE_CAP):
            searches.append((g, region))
            return search(g, region, party, cap)

        monkeypatch.setattr(grid, "max_wins_bruteforce", recorded)
        listings = Counter()  # enumerate_region_plans calls, by grid shape
        enumerate_plans = grid.enumerate_region_plans

        def listed(g, region):
            listings[g.m, g.d] += 1
            return enumerate_plans(g, region)

        monkeypatch.setattr(grid, "enumerate_region_plans", listed)
        keys = oracle_growth_keys(seed, 16)
        # the analogue's whole grid is the 4x4, d = 4 shape's, grown once
        assert len(keys) == 4 + len(set(analogue_sides()[1])) - 1
        for repeat in (1, 2):
            assert oracle.grid_oracle_mismatches(25, seed, 16) == (25, True, [])
            assert growths == growths_for(keys)  # the second call grows nothing
            assert len(searches) == repeat * (25 + 8)
            # but lists each shape's plans again: no plan outlives its call
            assert listings == Counter({shape: repeat for shape in SHAPES})
        assert grid._shape.cache_info().misses == len(keys)  # compiled once too
        grid._shape.cache_clear()
        for g, region in searches:
            own = grid._district_wins(fresh(g), grid._shape(g.m, g.d, region), Party.A)
            assert g.district_wins[bits(g, region), Party.A] == own
            # The oracle searched for A only; B's search must not read A's wins.
            assert search(g, region, Party.B) == search(fresh(g), region, Party.B)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_analogue_grows_only_the_sides_it_searches(self, monkeypatch, seed):
        # No 4x4 grid fits a cap of 8, so the analogue grows each side it
        # searches, those of 4 and 8 cells, and no other.
        growths = record_growths(monkeypatch)
        assert oracle.grid_oracle_mismatches(25, seed, 8)[1:] == (False, [])
        keys = oracle_growth_keys(seed, 8)
        assert sorted(len(region) for m, _, region in keys if m == 4) == [4, 4, 8, 8]
        assert growths == growths_for(keys)

    def test_cache_stays_bounded(self):
        # An unbounded cache holds one entry per (shape, region) the oracle
        # can reach: the 4 grid shapes and the analogue's 7 distinct sides,
        # one of which is the whole 4x4 grid of the 4x4, d = 4 shape.  Each
        # entry holds the region's districts and its compiled search alike.
        keys = set()
        for seed in range(10):
            for count, cap in ((25, 4), (25, 8), (25, 16), (40, 36)):
                assert oracle.grid_oracle_mismatches(count, seed, cap)[2] == []
                keys |= oracle_growth_keys(seed, cap, count)
        assert grid._shape.cache_info().currsize == len(keys) == 10


class TestGeodeltaConstruction:
    @pytest.mark.parametrize("delta", [1, 2, 3])
    def test_support_and_split_sizes(self, delta):
        g, splits = grid.make_geodelta(delta)
        assert g.m == 20 * delta
        assert g.d == 100
        assert splits.split_count == 4 * delta * delta
        assert g.scale == 1
        assert sum(g.cells) == 51 * delta
        for k in range(splits.split_count + 1):
            assert len(splits.left_cells(k)) == 100 * k

    def test_nested(self):
        _, splits = grid.make_geodelta(2)
        previous = frozenset()
        for k in range(splits.split_count + 1):
            current = splits.left_cells(k)
            assert previous <= current
            previous = current

    def test_delta_validation(self):
        with pytest.raises(grid.GridError):
            grid.make_geodelta(0)

    def test_groups_are_disjoint_51_cell_sets(self):
        groups = grid.geodelta_groups(3)
        assert len(groups) == 3
        assert all(len(g) == 51 for g in groups)
        assert len(frozenset().union(*groups)) == 153


# Dense references for the geodelta counts: every support cell mapped to its
# split, and count tuples with one entry per split.


def _step_counts(indices, length, above):
    """Entry k, for k below ``length``: how many of ``indices`` are at most
    k, or above k when ``above`` is set."""
    total = len(indices)
    counts = []
    for below, index in enumerate(sorted(indices)):
        counts += [total - below if above else below] * (index - len(counts))
    counts += [0 if above else total] * (length - len(counts))
    return tuple(counts)


def geodelta_group_counts(delta):
    """Per split of ``make_geodelta(delta)``: the groups wholly left and
    wholly right, from the split of every one of the 51 * delta support cells.
    A group lies wholly right until the split of its smallest index, and
    wholly left from the split of its largest."""
    first, last = [], []
    for group in grid.geodelta_groups(delta):
        indices = [grid.geodelta_split_index(delta, cell) for cell in group]
        first.append(min(indices))
        last.append(max(indices))
    length = 4 * delta * delta + 1
    return _step_counts(last, length, above=False), _step_counts(first, length, above=True)


def geodelta_total_wins(delta, k, party, side):
    """Total wins for ``party`` when it districts ``side`` of split ``k`` and
    the opponent districts the rest."""
    wholly_left, wholly_right = geodelta_group_counts(delta)
    split_count = len(wholly_left) - 1
    if not 0 <= k <= split_count:
        raise ValueError(f"split index {k} out of range 0..{split_count}")
    # A wins one district per support group wholly on the side it districts;
    # B splits every group on its side, leaving A nothing there.
    if party is Party.A:
        return wholly_left[k] if side is Side.LEFT else wholly_right[k]
    # B's total complements A's when A districts the opposite side.
    return split_count - (wholly_right[k] if side is Side.LEFT else wholly_left[k])


def dense_geodelta_report(delta, seed):
    """``geodelta_report`` over one preference per split of the dense counts."""
    wholly_left, wholly_right = geodelta_group_counts(delta)
    prefs = preferences_from_totals(wholly_left, wholly_right)
    run = resolve_from_totals(prefs, wholly_left, wholly_right, seed)
    target_a = Fraction(delta, 2)
    worst_wins = min(c.wins_a for c in run.candidates)
    return grid.GeodeltaReport(
        delta=delta,
        m=20 * delta,
        d=100,
        districts=len(wholly_left) - 1,
        total_support_a=51 * delta,
        target_a=target_a,
        run=run,
        worst_wins_a=worst_wins,
        worst_gap_a=target_a - worst_wins,
        gap_exceeds_unconstrained_bound=target_a - worst_wins > 2,
    )


class TestGeodeltaSideWins:
    # A wins one district per group wholly on the side it districts and
    # nothing where B districts, so A's totals count whole groups per side.
    def test_right_side_keeps_untouched_groups(self):
        assert geodelta_total_wins(3, 1, Party.A, Side.RIGHT) == 2

    def test_severed_left_side_wins_nothing(self):
        assert geodelta_total_wins(3, 1, Party.A, Side.LEFT) == 0

    def test_single_band_block(self):
        assert geodelta_total_wins(1, 1, Party.A, Side.LEFT) == 1

    def test_opponent_districting_denies_everything(self):
        # B districting the left leaves A only a group wholly on the right,
        # which exists at k = 0 alone; B carries every other district.
        for k in range(5):
            assert geodelta_total_wins(1, k, Party.B, Side.LEFT) == (3 if k == 0 else 4)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            geodelta_total_wins(1, 5, Party.A, Side.LEFT)

    def test_totals_for_two_bands(self):
        # A's total wins: 0 on L1, 1 on R1, 1 on L2, 0 on R2
        assert geodelta_total_wins(2, 1, Party.A, Side.LEFT) == 0
        assert geodelta_total_wins(2, 1, Party.A, Side.RIGHT) == 1
        assert geodelta_total_wins(2, 2, Party.A, Side.LEFT) == 1
        assert geodelta_total_wins(2, 2, Party.A, Side.RIGHT) == 0

    def test_totals_complement(self):
        districts = 16
        for k in range(districts + 1):
            for side in Side:
                other = Side.RIGHT if side is Side.LEFT else Side.LEFT
                a = geodelta_total_wins(2, k, Party.A, side)
                b = geodelta_total_wins(2, k, Party.B, other)
                assert a + b == districts


class TestSparseGeodelta:
    # The dense grid and split sequence of make_geodelta are the reference.
    @pytest.mark.parametrize("delta", range(1, 13))
    def test_counts_match_dense_grid(self, delta):
        _, splits = grid.make_geodelta(delta)
        dense = grid.side_group_counts(grid.geodelta_groups(delta), splits)
        assert geodelta_group_counts(delta) == dense

    @pytest.mark.parametrize("delta", range(1, 7))
    def test_every_cell_lands_in_its_split(self, delta):
        _, splits = grid.make_geodelta(delta)
        for k, chunk in enumerate(splits.increments, start=1):
            for cell in chunk:
                assert grid.geodelta_split_index(delta, cell) == k, cell

    def test_off_grid_cell_rejected(self):
        for cell in ((0, 1), (1, 0), (21, 1), (1, 21)):
            with pytest.raises(grid.GridError):
                grid.geodelta_split_index(1, cell)

    @pytest.mark.parametrize("delta", range(1, 5))
    def test_total_wins_match_dense_sides(self, delta):
        # A wins one district per group inside the side it districts and
        # none where B districts; B carries every district A does not.
        g, splits = grid.make_geodelta(delta)
        groups = grid.geodelta_groups(delta)
        universe = g.all_cells()
        for k in range(splits.split_count + 1):
            left_cells = splits.left_cells(k)
            inside = {
                Side.LEFT: sum(group <= left_cells for group in groups),
                Side.RIGHT: sum(group <= universe - left_cells for group in groups),
            }
            for side in Side:
                other = Side.RIGHT if side is Side.LEFT else Side.LEFT
                assert geodelta_total_wins(delta, k, Party.A, side) == inside[side]
                assert (
                    geodelta_total_wins(delta, k, Party.B, side)
                    == splits.split_count - inside[other]
                )


class TestGeodeltaReport:
    @pytest.mark.parametrize("delta", range(1, 41))
    def test_first_and_last_cells_bound_each_group(self, delta):
        # The report reads a group's first split at (base+1, 1) and its last
        # at (base+5, 10); every other cell of the group lies between them.
        for band, group in enumerate(grid.geodelta_groups(delta), start=1):
            base = 20 * (band - 1)
            indices = [grid.geodelta_split_index(delta, cell) for cell in group]
            assert min(indices) == grid.geodelta_split_index(delta, (base + 1, 1))
            assert max(indices) == grid.geodelta_split_index(delta, (base + 5, 10))

    @pytest.mark.parametrize("delta", range(1, 41))
    def test_matches_the_dense_counts(self, delta):
        for seed in range(4):
            assert grid.geodelta_report(delta, seed) == dense_geodelta_report(delta, seed)

    def test_delta_validation(self):
        with pytest.raises(grid.GridError, match="delta must be at least 1"):
            grid.geodelta_report(0, 0)

    @pytest.mark.parametrize("delta", [1, 2, 5])
    def test_gap_grows_linearly(self, delta):
        report = grid.geodelta_report(delta, seed=0)
        assert report.total_support_a == 51 * delta
        assert report.target_a == Fraction(delta, 2)
        assert report.run.outcome is OutcomeKind.COIN_FLIP
        assert report.run.trigger_k == delta
        assert [c.wins_a for c in report.run.candidates] == [0, 1, 1, 0]
        assert report.worst_gap_a == Fraction(delta, 2)
        assert report.gap_exceeds_unconstrained_bound == (delta >= 5)

    def test_target_follows_the_totals(self, monkeypatch):
        # A's target averages its totals when it districts the whole state
        # and none of it, so one more group wholly left at the last split
        # raises the target, and the worst gap, by a half.
        counts = grid._wholly_side_counts

        def one_more_at_the_end(firsts, lasts, ks):
            wholly_left, wholly_right = counts(firsts, lasts, ks)
            return (*wholly_left[:-1], wholly_left[-1] + 1), wholly_right

        monkeypatch.setattr(grid, "_wholly_side_counts", one_more_at_the_end)
        for delta in (1, 2, 5, 40):
            report = grid.geodelta_report(delta, seed=0)
            assert report.target_a == Fraction(delta + 1, 2)
            assert report.worst_gap_a == Fraction(delta + 1, 2)

    def test_seed_selects_candidate(self):
        for seed in range(4):
            report = grid.geodelta_report(2, seed=seed)
            assert report.run.assignment.wins_a == [0, 1, 1, 0][seed]

    def test_winning_plan_achieves_target_best_case(self):
        g, _ = grid.make_geodelta(2)
        plan = geodelta_winning_plan(2)
        assert grid.validate_plan(g, plan) == ()
        assert grid.count_wins(g, plan, Party.A) == 2


class TestShrunkAnalogue:
    def test_brute_force_confirms_group_counting(self):
        g, splits, groups = grid.make_shrunk_analogue()
        wholly_left, wholly_right = grid.side_group_counts(groups, splits)
        universe = g.all_cells()
        for k in range(splits.split_count + 1):
            left_cells = splits.left_cells(k)
            right_cells = universe - left_cells
            if left_cells:
                assert (
                    grid.max_wins_bruteforce(g, left_cells, Party.A) == wholly_left[k]
                )
            if right_cells:
                assert (
                    grid.max_wins_bruteforce(g, right_cells, Party.A) == wholly_right[k]
                )

    def test_mini_bands_mirror_the_large_family(self):
        _, splits, groups = grid.make_shrunk_analogue()
        wholly_left, wholly_right = grid.side_group_counts(groups, splits)
        assert wholly_left == (0, 0, 1, 2, 2)
        assert wholly_right == (2, 1, 0, 0, 0)

    def test_shifted_count_fails_the_oracle_and_geodelta(self, monkeypatch):
        # side_group_counts and geodelta_report share one counting rule, so
        # the analogue check guards the counts that geodelta reports.  The
        # shift hits split 2: a candidate of geodelta(3)'s crossing at (2, 3),
        # and an analogue side that brute force searches.
        counts = grid._wholly_side_counts

        def shifted(firsts, lasts, ks):
            wholly_left, wholly_right = counts(firsts, lasts, ks)
            return wholly_left, (*wholly_right[:2], wholly_right[2] + 1, *wholly_right[3:])

        monkeypatch.setattr(grid, "_wholly_side_counts", shifted)
        _, _, mismatches = oracle.grid_oracle_mismatches(1, 0, 16)
        assert "analogue" in {m["kind"] for m in mismatches}
        assert grid.geodelta_report(3, 0) != dense_geodelta_report(3, 0)


def brute_side_group_counts(groups, splits, universe):
    """Per split: the groups inside its left cells, and inside the rest of
    ``universe``."""
    lefts = [splits.left_cells(k) for k in range(splits.split_count + 1)]
    return (
        tuple(sum(group <= left for group in groups) for left in lefts),
        tuple(sum(group <= universe - left for group in groups) for left in lefts),
    )


class TestSideGroupCounts:
    UNIVERSE = frozenset((i, j) for i in range(1, 4) for j in range(1, 4))

    @pytest.mark.parametrize(
        "groups, increments, wholly_left",
        [
            # two groups sharing the cell (1, 2)
            (
                [{(1, 1), (1, 2)}, {(1, 2), (2, 2)}],
                [[(1, 1), (1, 2)], [(2, 1), (2, 2)]],
                (0, 1, 2),
            ),
            # a cell added twice lies left from the first increment adding it
            ([{(1, 1), (1, 2)}], [[(1, 1)], [(1, 1)], [(1, 2)]], (0, 0, 0, 1)),
            # no increment adds (2, 2), so its group never lies wholly left
            ([{(1, 1)}, {(1, 2), (2, 2)}], [[(1, 1)], [(1, 2), (2, 1)]], (0, 1, 1)),
            # no increment adds (3, 3), so its group stays wholly right
            ([{(1, 1), (1, 2)}, {(3, 3)}], [[(1, 2)], [(1, 1), (2, 1)]], (0, 0, 1)),
        ],
    )
    def test_matches_brute_force(self, groups, increments, wholly_left):
        groups = tuple(frozenset(g) for g in groups)
        splits = grid.GridSplitSequence(tuple(tuple(chunk) for chunk in increments))
        counts = grid.side_group_counts(groups, splits)
        assert counts == brute_side_group_counts(groups, splits, self.UNIVERSE)
        assert counts[0] == wholly_left

    def test_random_groups_match_brute_force(self):
        cells = sorted(self.UNIVERSE)
        for seed in range(200):
            rng = random.Random(seed)
            groups = tuple(
                frozenset(rng.sample(cells, rng.randint(0, 4)))
                for _ in range(rng.randint(1, 4))
            )
            splits = grid.GridSplitSequence(
                tuple(
                    tuple(rng.sample(cells, rng.randint(0, 3)))
                    for _ in range(rng.randint(0, 5))
                )
            )
            assert grid.side_group_counts(groups, splits) == brute_side_group_counts(
                groups, splits, self.UNIVERSE
            ), seed
