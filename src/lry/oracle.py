"""Brute-force cross-checks of the closed forms and of the grid's counting.

``strategy_oracle_mismatches`` compares the unconstrained closed forms, as
the production win table ``model.PartyWins`` computes them, with an
exhaustive allocation search, ``_most_held``, both in integer units;
``grid_oracle_mismatches`` checks the exhaustive plan search on small random
grids and ``geodelta``'s counting on the shrunk analogue, and says whether
its cap let it search every side of the analogue.  Each returns how much it
checked and a list of mismatches, every one a ``{"kind": ..., "detail": ...}``
dict; an empty list means every check held.  ``lry oracle`` reports both.
"""

from __future__ import annotations

import functools
import random
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations_with_replacement, compress

from . import grid as grid_mod
from .model import Party, PartyWins, ratio_str
from .protocol import mix_seed

# --- exhaustive allocation search -----------------------------------------
#
# Supports are discretized into units of 1/GRANULARITY.  A district holding
# exactly half its units counts for the party drawing the lines: the side
# total is never an exact half-integer, so the districter always has surplus
# somewhere to break such a tie in its own favor.  Exponential cost keeps
# this to tiny sides; it exists to cross-check the closed forms, not for
# production use.

GRANULARITY = 20
MAX_ORACLE_DISTRICTS = 4


@functools.cache
def _most_held(districts: int) -> dict[int, int]:
    """By unit total, the most of ``districts`` bins of ``GRANULARITY``
    units that the total can hold at least half of: the districting party's
    best win count.  Each split of the total is tried once per process, up
    to bin order, since no reordering changes how many bins are held.
    ``KeyError`` when a total is outside [0, districts * GRANULARITY]."""
    most: dict[int, int] = {}
    half = -(-GRANULARITY // 2)
    for loads in combinations_with_replacement(range(GRANULARITY + 1), districts):
        units, held = sum(loads), districts - bisect_left(loads, half)
        most[units] = max(held, most.get(units, 0))
    return most


def strategy_oracle_mismatches() -> tuple[int, list[dict]]:
    """Exhaustively compare the production win table with the allocation
    search for every side of up to ``MAX_ORACLE_DISTRICTS`` districts and
    every non-half-integer support on the 1/``GRANULARITY`` grid, all in
    those units.

    A side of ``size`` districts holding ``units`` is the last row of
    ``model.PartyWins.from_scaled`` on a profile of ``size`` segments
    that spread the units as evenly as they go, each in [0, 1]; its
    districting and opposed counts meet ``_most_held``.  A ``Fraction`` is
    built only for a mismatch's detail text."""
    checked = 0
    mismatches = []
    for size in range(1, MAX_ORACLE_DISTRICTS + 1):
        most = _most_held(size)
        for units in range(0, size * GRANULARITY + 1):
            if (2 * units) % GRANULARITY == 0:
                continue  # excluded by the half-integer convention
            checked += 1
            wins = PartyWins.from_scaled(
                GRANULARITY, [k * units // size for k in range(size + 1)]
            )
            for kind, expect, got in (
                ("districting", wins.left_districting[size], most[units]),
                # The opponent keeps the party out of a district by holding
                # at least half of it, so the party wins only the districts
                # where the opponent placed strictly less than half: all of
                # them but the opponent's best.
                ("opponent", wins.left_opposed[size], size - most[size * GRANULARITY - units]),
            ):
                if expect != got:
                    mismatches.append(
                        {
                            "kind": kind,
                            "detail": f"size={size}"
                            f" support={ratio_str(Fraction(units, GRANULARITY))}"
                            f" formula={expect} bruteforce={got}",
                        }
                    )
    return checked, mismatches


# A cell's support in quarters: 0, 1, 1/2, 1/4 and 3/4.
_CELL_VALUES = (0, 4, 2, 1, 3)


def random_small_grid(rng: random.Random) -> grid_mod.GridState:
    """A random grid of at most 16 cells with d of 2 or 4 dividing it."""
    m, d = rng.choice([(2, 2), (2, 4), (4, 2), (4, 4)])
    return grid_mod.GridState(m, d, 4, tuple(rng.choice(_CELL_VALUES) for _ in range(m * m)))


def grid_oracle_mismatches(count: int, seed: int, cap: int) -> tuple[int, bool, list[dict]]:
    """Random small grids: every grown district and every enumerated plan
    must be valid, the reported maximum must be witnessed, and the analytic
    group counting must match exhaustive search on the shrunk analogue.
    Returns the grids checked, whether every non-empty side of the analogue
    was within ``cap`` and so searched, and the mismatches.

    A grid's districts and plans depend on its shape (m, d) alone, so one
    call checks them once per shape (``_shape_checks``), which keeps each
    valid plan as a bitmask over district indices.  Each grid folds which
    districts A wins (``grid._district_wins``) into one such mask, counts
    the bits each plan shares with it, compares the best count with
    ``max_wins_bruteforce``, whose pass over the shape's compiled search
    lists no plans, and reports its shape's faults as its own; the search's
    ``GridError`` on a region with no plan is a mismatch too.  Growth and
    compiling run once per process for each shape and region, in
    ``grid._shape``; the checks run again on every call.
    """
    mismatches = []
    instances = 0
    shapes = {}  # (m, d): what _shape_checks found on the first such grid
    for index in range(count):
        grid = random_small_grid(random.Random(mix_seed(seed, index)))
        region = grid.all_cells()
        if len(region) > cap:
            continue
        instances += 1
        shape = grid_mod._shape(grid.m, grid.d, region)
        if (grid.m, grid.d) not in shapes:
            shapes[grid.m, grid.d] = _shape_checks(grid, shape, region)
        faults, plans = shapes[grid.m, grid.d]
        wins = grid_mod._district_wins(grid, shape, Party.A)
        won = sum(1 << i for i in compress(range(len(wins)), wins))
        best = max(((plan & won).bit_count() for plan in plans), default=-1)
        mismatches += (
            {"kind": "invalid_plan", "detail": f"instance {index}: {fault}"} for fault in faults
        )
        try:
            reported = grid_mod.max_wins_bruteforce(grid, region, Party.A, cap=cap)
        except grid_mod.GridError as exc:
            mismatches.append({"kind": "no_plans", "detail": f"instance {index}: {exc}"})
            continue
        if best != reported:
            mismatches.append(
                {
                    "kind": "unwitnessed_max",
                    "detail": f"instance {index}: reported {reported}, best plan {best}",
                }
            )
    analogue_grid, analogue_splits, analogue_groups = grid_mod.make_shrunk_analogue()
    wholly_left, wholly_right = grid_mod.side_group_counts(analogue_groups, analogue_splits)
    universe = analogue_grid.all_cells()
    analogue_checked = True
    for k in range(analogue_splits.split_count + 1):
        for side_cells, expected in (
            (analogue_splits.left_cells(k), wholly_left[k]),
            (universe - analogue_splits.left_cells(k), wholly_right[k]),
        ):
            analogue_checked &= len(side_cells) <= cap
            if not side_cells or len(side_cells) > cap:
                continue
            try:
                got = grid_mod.max_wins_bruteforce(analogue_grid, side_cells, Party.A, cap=cap)
            except grid_mod.GridError as exc:
                got = f"GridError({exc})"
            if got != expected:
                mismatches.append(
                    {
                        "kind": "analogue",
                        "detail": f"k={k} |side|={len(side_cells)}"
                        f" analytic={expected} bruteforce={got}",
                    }
                )
    return instances, analogue_checked, mismatches


def _shape_checks(grid: grid_mod.GridState, shape, region: frozenset) -> tuple:
    """What ``grid``'s shape alone decides, read off the region's ``shape``:
    the faults of its districts, then of its plans, and its valid plans,
    each as an int with bit i set for district index i."""
    valid = {}  # each valid district of the region: its mask
    faults = []
    for mask, district in shape.districts:
        bad = grid_mod.validate_plan(grid, (district,), district)
        if bad:
            faults.append(bad[0])
        else:
            valid[district] = mask
    index = {district: i for i, (_, district) in enumerate(shape.districts)}
    plans = []
    for plan in grid_mod.enumerate_region_plans(grid, region):
        fault = _plan_fault(plan, valid, shape.mask)
        if fault:
            faults.append(fault)
        else:
            plans.append(sum(1 << index[district] for district in plan))
    return faults, plans


def _plan_fault(plan: grid_mod.DistrictPlan, valid: dict, region_mask: int) -> str | None:
    """Why ``plan`` is no partition of the region's mask into the districts
    of ``valid``, read from their masks; None when it is one."""
    covered = 0
    for position, district in enumerate(plan):
        if district not in valid:
            return f"district {position} is not a valid district of the table"
        mask = valid[district]
        if covered & mask:
            return f"district {position} overlaps an earlier one"
        covered |= mask
    return None if covered == region_mask else "the plan does not cover the region"
