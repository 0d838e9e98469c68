"""Districting on a square grid under contiguity and compactness constraints.

Each cell is an indivisible unit of population; a district is a set of
exactly ``d`` cells that is 4-connected, has no holes, and fits inside a
z-by-z axis-aligned square with z = floor(2 * sqrt(d)).  A party wins a
district only with a strict majority of its cells' support; a district at
exactly half counts for nobody.

The plan search works on bitmasks: cell (i, j) is bit (i-1)*m + (j-1), so
the smallest cell of a set is its lowest set bit.  ``_shape`` is the one
cache of plan structure: once per process for each shape (m, d) and region,
it checks the region, grows its valid districts over its own cells, each
with its mask, in order of its smallest cell, files them by that cell, and
compiles the region's search over that filing: every set of cells a plan can
leave unassigned becomes a node listing the districts filed under its
smallest cell that fit in it, and the node each leaves.  Walking the same
filing, ``enumerate_region_plans`` lists every plan; ``max_wins_bruteforce``
lists none, but makes one flat pass over the compiled nodes with the districts
a party wins on this grid, computed once per grid, region and party
(``grid.district_wins``), and raises ``GridError`` on a region with no plan.

A grid holds each cell's support as an int on the grid's scale, row-major,
so cell (i, j) is ``cells[(i-1)*m + j-1]`` and its index is its bit number.
A district goes to A when twice its cells' sum exceeds its size times the
scale, to B when it falls short.  ``validate_plan`` checks a plan cell by
cell and lists one message per violation, naming its district where it has
one; ``count_wins`` validates the plan, then sums each district's winner.
One flood, ``_reach``, serves the connectivity test and the hole test, which
floods the district's complement within its bounding box grown by one cell
all round.
Growth builds each size's connected sets from those one cell smaller; the
hole test runs only on districts of ``_HOLE_MIN_CELLS`` cells or more, the
fewest that can wall one in.

The banded construction built here drives the protocol toward a coin flip
whose losing candidates fall arbitrarily far below the geometric target as
the band count grows.  ``geodelta_report`` and ``side_group_counts`` count
the groups wholly on each side of a split by one rule, from each group's
first and last split, and the oracle checks it on the shrunk analogue.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import repeat
from operator import sub
from typing import Iterator, Sequence

from .model import Party, _brief, ratio_str
from .protocol import TARGET_BOUND, OutcomeKind, ProtocolRun, resolve_optimal, run_to_dict

Cell = tuple[int, int]  # (row, column), 1-indexed from the top-left
District = frozenset[Cell]
DistrictPlan = tuple[District, ...]


class GridError(ValueError):
    pass


def compactness_bound(d: int) -> int:
    """Side of the smallest bounding square allowed for a d-cell district:
    floor(2 * sqrt(d)), computed exactly as isqrt(4d)."""
    if d < 1:
        raise GridError(f"district size must be positive, got {d}")
    return math.isqrt(4 * d)


def _bit(m: int, cell: Cell) -> int:
    """Cell (i, j)'s bit on an m-by-m grid, row-major: (i-1)*m + (j-1)."""
    return 1 << ((cell[0] - 1) * m + cell[1] - 1)


@dataclass(frozen=True)
class GridState:
    """An m-by-m grid of support for party A, districted in blocks of exactly
    ``d`` cells.  ``cells`` holds each cell's support times ``scale``, an int
    in 0..scale, row-major; the constructor divides the scale and the cells
    by their gcd, so grids are equal when their supports are."""

    m: int
    d: int
    scale: int
    cells: tuple[int, ...]

    def __post_init__(self):
        m, scale, cells = self.m, self.scale, tuple(self.cells)
        if m < 1:
            raise GridError(f"grid side must be positive, got {m}")
        compactness_bound(self.d)  # raises GridError on d < 1
        if (m * m) % self.d != 0:
            raise GridError(f"district size {self.d} does not divide {m}^2 cells")
        if not isinstance(scale, int) or scale < 1:
            raise GridError(f"grid scale must be a positive int, got {_brief(scale)}")
        if len(cells) != m * m:
            raise GridError(f"cell array has {len(cells)} cells, not {m}x{m}")
        for index, value in enumerate(cells):
            if not (isinstance(value, int) and 0 <= value <= scale):
                raise GridError(
                    f"cell ({index // m + 1},{index % m + 1}) support {_brief(value)}"
                    f" is not an int in 0..{_brief(scale)}"
                )
        common = math.gcd(scale, *cells) if scale > 1 else 1
        if common > 1:
            object.__setattr__(self, "scale", scale // common)
            cells = tuple([value // common for value in cells])
        object.__setattr__(self, "cells", cells)

    @property
    def z(self) -> int:
        return compactness_bound(self.d)

    def all_cells(self) -> frozenset[Cell]:
        return frozenset(
            (i, j) for i in range(1, self.m + 1) for j in range(1, self.m + 1)
        )

    @cached_property
    def district_wins(self) -> dict[tuple[int, Party], tuple[bool, ...]]:
        """Per (region mask, party): whether the party wins each district of
        the region, by index, filled by ``_district_wins``; it lives as long
        as the grid."""
        return {}


def _reach(start: Cell, inside: frozenset[Cell] | set[Cell]) -> set[Cell]:
    """The cells of ``inside`` that 4-neighbour steps within it join to
    ``start``, itself a cell of ``inside``."""
    reached = {start}
    stack = [start]
    while stack:
        i, j = stack.pop()
        for nb in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
            if nb in inside and nb not in reached:
                reached.add(nb)
                stack.append(nb)
    return reached


def _is_connected(cells: frozenset[Cell]) -> bool:
    return not cells or len(_reach(next(iter(cells)), cells)) == len(cells)


def _has_hole(cells: frozenset[Cell]) -> bool:
    """True when the district walls in a cell: flooded from the corner of the
    district's bounding box grown by one cell all round, the complement within
    that box leaves some cell unreached."""
    if not cells:
        return False
    rows = [i for i, _ in cells]
    cols = [j for _, j in cells]
    top, left = min(rows) - 1, min(cols) - 1
    box = {(i, j) for i in range(top, max(rows) + 2) for j in range(left, max(cols) + 2)}
    outside = box - cells
    return len(_reach((top, left), outside)) < len(outside)


def _bounding_box(cells: frozenset[Cell]) -> tuple[int, int]:
    rows = [c[0] for c in cells]
    cols = [c[1] for c in cells]
    return max(rows) - min(rows) + 1, max(cols) - min(cols) + 1


def _winner(grid: GridState, district: frozenset[Cell]) -> Party | None:
    """The party with a strict majority of an on-grid district's support:
    A wins when twice its cells' sum exceeds |D| times the grid's scale, B
    when it falls short."""
    m, cells = grid.m, grid.cells
    twice_a = 2 * sum(cells[(i - 1) * m + j - 1] for i, j in district)
    half = len(district) * grid.scale
    if twice_a == half:
        return None
    return Party.A if twice_a > half else Party.B


def _district_violations(grid: GridState, cells: frozenset[Cell]) -> Iterator[str]:
    if len(cells) != grid.d:
        yield f"has {len(cells)} cells, not {grid.d}"
        if not cells:
            return
    m = grid.m
    bad = [c for c in cells if not (1 <= c[0] <= m and 1 <= c[1] <= m)]
    if bad:
        yield f"leaves the grid at {sorted(bad)}"
        return
    if not _is_connected(cells):
        yield "is not connected"
        return
    if len(cells) >= _HOLE_MIN_CELLS and _has_hole(cells):
        yield "encloses a hole"
    height, width = _bounding_box(cells)
    z = grid.z
    if height > z or width > z:
        yield f"spans {height}x{width}, exceeding {z}x{z}"


def validate_plan(
    grid: GridState, plan: Sequence[frozenset[Cell]], region: frozenset[Cell] | None = None
) -> tuple[str, ...]:
    """Check that ``plan`` partitions ``region`` (the whole grid by default)
    into valid districts.  Violations are data, not exceptions: one message
    each, naming its district's index where it has one."""
    if region is None:
        region = grid.all_cells()
    violations: list[str] = []
    claimed: dict[Cell, int] = {}
    for index, district in enumerate(plan):
        for cell in district:
            if cell in claimed:
                violations.append(f"cell {cell} appears in districts {claimed[cell]} and {index}")
            claimed[cell] = index
        violations.extend(
            f"district {index} {reason}" for reason in _district_violations(grid, district)
        )
    missing = region - set(claimed)
    if missing:
        violations.append(f"{len(missing)} cell(s) uncovered, e.g. {min(missing)}")
    extra = set(claimed) - region
    if extra:
        violations.append(f"{len(extra)} cell(s) outside the region, e.g. {min(extra)}")
    return tuple(violations)


def count_wins(
    grid: GridState,
    plan: Sequence[frozenset[Cell]],
    party: Party,
    region: frozenset[Cell] | None = None,
) -> int:
    """Districts where ``party`` holds strictly more than half the support.
    An invalid plan raises ``GridError`` listing every violation."""
    violations = validate_plan(grid, plan, region)
    if violations:
        raise GridError("; ".join(violations))
    return sum(_winner(grid, district) is party for district in plan)


# --- exhaustive plan search -------------------------------------------------

DEFAULT_BRUTEFORCE_CAP = 16
# A connected district walls in a cell with its 4 neighbours and 3 corners.
_HOLE_MIN_CELLS = 7


def _grow_districts(
    anchor: Cell, allowed: frozenset[Cell], d: int, z: int
) -> list[District]:
    """Every valid d-cell district made of ``anchor`` and cells of ``allowed``,
    in order of their sorted cells.

    A connected set of s + 1 cells is a connected set of s cells plus one
    4-neighbour, so the sets of each size are grown from those of the size
    before, starting from ``{anchor}``.  A complete set is kept when it fits a
    z-by-z box and, from ``_HOLE_MIN_CELLS`` cells up, walls in no cell.
    """
    level = {frozenset((anchor,))}
    for _ in range(d - 1):
        level = {
            cells | {nb}
            for cells in level
            for i, j in cells
            for nb in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1))
            if nb in allowed and nb not in cells
        }
    found = []
    for cells in level:
        rows = [i for i, _ in cells]
        cols = [j for _, j in cells]
        if max(rows) - min(rows) < z and max(cols) - min(cols) < z:
            if d < _HOLE_MIN_CELLS or not _has_hole(cells):
                found.append(cells)
    return sorted(found, key=sorted)


@dataclass(frozen=True)
class _Shape:
    """One region's plan structure on one grid shape, built by ``_shape``."""
    mask: int  # the region's cells
    districts: tuple[tuple[int, District], ...]  # (mask, cells), by index
    positions: tuple[tuple[int, ...], ...]  # each district's bit numbers, by index
    by_anchor: dict[int, list[tuple[int, int]]]  # (index, mask), under the mask's lowest bit
    nodes: tuple[tuple[tuple[int, int], ...], ...]  # the compiled search


@cache
def _shape(m: int, d: int, region: frozenset[Cell]) -> _Shape:
    """``region``'s plan structure on an m-by-m grid of d-cell districts,
    once it is known to split into d-cell districts and to lie on the grid;
    ``GridError`` otherwise, before any growth and with no cache entry.  It
    reads the shape, never the supports, so it runs once per process for
    each shape and region, like ``oracle._most_held``; callers share it.

    The districts are grown from each cell of the region in turn over the
    region's cells after it, so that a district's position in the tuple is
    its index and its smallest cell its mask's lowest bit.

    The search is compiled into nodes.  Each set of cells that a plan can
    leave unassigned is a mask, and the masks reachable from the region's
    own are walked once, in post-order, so a node comes after every node it
    leads to.  A node is a tuple of (district index, child node), one for
    each district in ``by_anchor`` under the mask's lowest bit that fits in
    the mask and leaves a mask with a plan; node 0 is the empty mask.  Masks
    with no plan get no node, and no move leads to them; the nodes are empty
    when the region itself has no plan, and otherwise its node is the last."""
    if len(region) % d != 0:
        raise GridError(f"region of {len(region)} cells cannot split into {d}-cell districts")
    off = [cell for cell in region if not (1 <= cell[0] <= m and 1 <= cell[1] <= m)]
    if off:
        raise GridError(f"region cell {min(off)} is off the {m}x{m} grid")
    z = compactness_bound(d)
    cells = sorted(region)
    districts = tuple(
        (sum(_bit(m, cell) for cell in district), district)
        for i, anchor in enumerate(cells)
        for district in _grow_districts(anchor, frozenset(cells[i + 1 :]), d, z)
    )
    by_anchor: dict[int, list[tuple[int, int]]] = {}
    for index, (mask, _) in enumerate(districts):
        by_anchor.setdefault(mask & -mask, []).append((index, mask))
    nodes: list[tuple[tuple[int, int], ...]] = [()]
    node_of = {0: 0}  # each mask walked: its node, -1 when it has no plan

    def visit(remaining: int) -> int:
        moves = []
        for index, mask in by_anchor.get(remaining & -remaining, ()):
            if mask & remaining == mask:
                rest = remaining ^ mask
                child = node_of.get(rest)
                if child is None:
                    child = visit(rest)
                if child >= 0:
                    moves.append((index, child))
        node = -1
        if moves:
            node = len(nodes)
            nodes.append(tuple(moves))
        node_of[remaining] = node
        return node

    region_mask = sum(_bit(m, cell) for cell in region)
    has_plan = not region_mask or visit(region_mask) >= 0
    del visit  # it calls itself through its closure: free the walk now, not at a collection
    positions = tuple(tuple((i - 1) * m + j - 1 for i, j in cells) for _, cells in districts)
    return _Shape(region_mask, districts, positions, by_anchor, tuple(nodes) if has_plan else ())


def _district_wins(grid: GridState, shape: _Shape, party: Party) -> tuple[bool, ...]:
    """Whether ``party`` wins each district of ``shape``, a region's
    ``_shape`` on this grid, by index, kept in ``grid.district_wins`` once per
    grid, region and party.  A district's sum is read off ``grid.cells`` at
    its cells' positions, as ``_winner`` reads it."""
    key = shape.mask, party
    won = grid.district_wins.get(key)
    if won is None:
        half = grid.d * grid.scale
        get = grid.cells.__getitem__
        sums = [sum(map(get, cells)) for cells in shape.positions]
        won = grid.district_wins[key] = tuple(
            [2 * s > half for s in sums] if party is Party.A else [2 * s < half for s in sums]
        )
    return won


def enumerate_region_plans(
    grid: GridState, region: frozenset[Cell]
) -> Iterator[DistrictPlan]:
    """Every partition of ``region`` into valid districts, each plan once.

    A plan takes, for the smallest cell still unassigned, each district filed
    under that cell that uses only unassigned cells, and recurses on the rest.
    """
    shape = _shape(grid.m, grid.d, frozenset(region))
    districts, table = shape.districts, shape.by_anchor

    def recurse(remaining: int) -> Iterator[tuple[District, ...]]:
        if not remaining:
            yield ()
            return
        for index, mask in table.get(remaining & -remaining, ()):
            if mask & remaining == mask:
                for rest in recurse(remaining ^ mask):
                    yield (districts[index][1],) + rest

    yield from recurse(shape.mask)


def max_wins_bruteforce(
    grid: GridState,
    region: frozenset[Cell],
    party: Party,
    cap: int = DEFAULT_BRUTEFORCE_CAP,
) -> int:
    """Best win count for ``party`` over every valid plan of ``region``,
    ``GridError`` when it has none.  Exhaustive, so only for regions of at
    most ``cap`` cells.  One flat pass over the nodes of the region's
    ``_shape``, children first: a node's best is the most, over its moves, of
    the child's best plus the move's district won (``_district_wins``)."""
    if len(region) > cap:
        raise GridError(f"region of {len(region)} cells exceeds the cap of {cap}")
    shape = _shape(grid.m, grid.d, frozenset(region))
    if not shape.nodes:  # the empty region has node 0, the empty mask
        raise GridError(f"region of {len(region)} cells has no valid plan")
    won = _district_wins(grid, shape, party)
    best = []
    for moves in shape.nodes:
        top = 0  # every child has a plan, and a plan wins at least 0
        for index, child in moves:
            wins = best[child] + won[index]
            if wins > top:
                top = wins
        best.append(top)
    return best[-1]


# --- banded construction ----------------------------------------------------
#
# For a band count D ("delta"): the grid is 20D x 20D with 100-cell districts
# (z = 20).  Band L covers rows 20(L-1)+1 .. 20L.  Party A holds support 1 in
# the first 10 columns of each band's first five rows plus column 1 of its
# sixth row: 51 cells per band, so any winning district must capture one
# band's cells entirely.  The split sequence severs every band group except
# the last, forcing a coin flip whose losing candidates give A nothing.

BAND = 20
GROUP_SUPPORT = 51


@dataclass(frozen=True)
class GridSplitSequence:
    """Nested splits, stored as the cells each split adds on the left."""

    increments: tuple[tuple[Cell, ...], ...]

    @property
    def split_count(self) -> int:
        return len(self.increments)

    def left_cells(self, k: int) -> frozenset[Cell]:
        if not 0 <= k <= self.split_count:
            raise ValueError(f"split index {k} out of range 0..{self.split_count}")
        return frozenset(cell for chunk in self.increments[:k] for cell in chunk)


def _band_bases(delta: int) -> range:
    """The row just above each band, so that a band's top row is base + 1."""
    if delta < 1:
        raise GridError(f"delta must be at least 1, got {delta}")
    return range(0, BAND * delta, BAND)


def geodelta_groups(delta: int) -> tuple[frozenset[Cell], ...]:
    """The 51-cell support groups, one per band."""
    return tuple(
        frozenset({(base + i, j) for i in range(1, 6) for j in range(1, 11)})
        | {(base + 6, 1)}
        for base in _band_bases(delta)
    )


def _banded_grid(
    m: int, d: int, support: frozenset[Cell], increments: Sequence[tuple[Cell, ...]]
) -> tuple[GridState, GridSplitSequence]:
    """The m-by-m grid with support 1 on ``support`` and 0 elsewhere, and
    the split sequence that adds ``increments`` first and then the other
    cells row-major, ``d`` at a time."""
    cells = tuple([int((i, j) in support) for i in range(1, m + 1) for j in range(1, m + 1)])
    assigned = {cell for chunk in increments for cell in chunk}
    remaining = [
        (i, j)
        for i in range(1, m + 1)
        for j in range(1, m + 1)
        if (i, j) not in assigned
    ]
    chunks = (
        tuple(remaining[start : start + d]) for start in range(0, len(remaining), d)
    )
    return GridState(m, d, 1, cells), GridSplitSequence((*increments, *chunks))


def make_geodelta(delta: int) -> tuple[GridState, GridSplitSequence]:
    """The banded grid together with its group-severing split sequence.

    Splits 1..delta-1 peel off 20-row strips of the first five columns (100
    cells each, cutting one group per strip); split ``delta`` adds the 10x10
    block holding the last group intact; later splits sweep the remaining
    cells row-major in 100-cell chunks.
    """
    support = frozenset().union(*geodelta_groups(delta))
    increments = [
        tuple(
            (BAND * (k - 1) + i, j) for i in range(1, BAND + 1) for j in range(1, 6)
        )
        for k in range(1, delta)
    ]
    base = BAND * (delta - 1)
    increments.append(tuple((base + i, j) for i in range(1, 11) for j in range(1, 11)))
    return _banded_grid(BAND * delta, 100, support, increments)


def _wholly_side_counts(
    firsts: Sequence[int], lasts: Sequence[int], ks: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """At each split index of ``ks``: how many groups lie wholly left, and
    wholly right, given the split that adds each group's first cell and the
    one that adds its last.  A group lies wholly right until its first split
    and wholly left from its last."""
    firsts, lasts = sorted(firsts), sorted(lasts)
    return (
        tuple(map(bisect_right, repeat(lasts), ks)),
        tuple(map(sub, repeat(len(firsts)), map(bisect_right, repeat(firsts), ks))),
    )


def side_group_counts(
    groups: Sequence[frozenset[Cell]], splits: GridSplitSequence
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per split index: how many groups lie wholly left, and wholly right.

    A cell lies left from the first increment that adds it; a cell that no
    increment adds is never added, so its group never lies wholly left.
    """
    never = splits.split_count + 1
    added: dict[Cell, int] = {}
    for k, chunk in enumerate(splits.increments, start=1):
        for cell in chunk:
            added.setdefault(cell, k)
    indices = [[added.get(cell, never) for cell in group] for group in groups]
    return _wholly_side_counts(
        [min(ix, default=never) for ix in indices],
        [max(ix, default=0) for ix in indices],
        range(never),
    )


def geodelta_split_index(delta: int, cell: Cell) -> int:
    """The split of ``make_geodelta(delta)`` whose increment adds ``cell``.

    Computed from the layout alone: split k < delta is the five-column strip
    of band k, split ``delta`` the 10x10 block at the top-left of the last
    band, and every later split a 100-cell chunk of the remaining cells in
    row-major order.
    """
    i, j = cell
    m = BAND * delta
    if not (1 <= i <= m and 1 <= j <= m):
        raise GridError(f"cell {cell} is off the {m}x{m} grid")
    top = BAND * (delta - 1)  # rows above the last band, where the strips lie
    if i <= top and j <= 5:
        return (i - 1) // BAND + 1
    if top < i <= top + 10 and j <= 10:
        return delta
    # Strip and block cells up to (i, j) in row-major order: in row i they
    # all lie left of column j, or (i, j) would be one of them.
    taken = 5 * min(i, top) + 10 * min(max(i - top, 0), 10)
    return delta + 1 + ((i - 1) * m + j - 1 - taken) // 100


@dataclass(frozen=True)
class GeodeltaReport:
    delta: int
    m: int
    d: int
    districts: int
    total_support_a: int
    target_a: Fraction       # best/worst average under the grid constraints
    run: ProtocolRun
    worst_wins_a: int
    worst_gap_a: Fraction
    gap_exceeds_unconstrained_bound: bool


def geodelta_report(delta: int, seed: int) -> GeodeltaReport:
    """Run the protocol on the banded grid and measure the gap to the target.

    Preferences come from the constrained win counts; A's geometric target
    is the average of its totals when it districts the whole state and none
    of it.  The crossing lands at (delta-1, delta) and the four candidates
    give A (0, 1, 1, 0) wins, so the worst candidate sits delta/2 below that
    target.  Past delta 4 that gap breaks the bound that holds without
    geometric constraints.
    """
    # A carries one district per group wholly on its side.  A group lies
    # wholly right until the split adding its first cell, (base+1, 1), and
    # wholly left from the split adding its last, (base+5, 10).
    bases = _band_bases(delta)
    firsts = [geodelta_split_index(delta, (base + 1, 1)) for base in bases]
    lasts = [geodelta_split_index(delta, (base + 5, 10)) for base in bases]
    districts = 4 * delta * delta
    splits = sorted({0, 1, districts - 1, districts, *firsts, *lasts})
    wholly_left, wholly_right = _wholly_side_counts(firsts, lasts, splits)
    run = resolve_optimal(splits, wholly_left, wholly_right, seed)
    if run.outcome is not OutcomeKind.COIN_FLIP:
        raise GridError(
            f"expected a coin flip, protocol settled with {run.outcome.value}"
        )
    target_a = Fraction(wholly_left[-1] + wholly_left[0], 2)
    worst_wins = min(c.wins_a for c in run.candidates)
    worst_gap = target_a - worst_wins
    return GeodeltaReport(
        delta=delta,
        m=BAND * delta,
        d=100,
        districts=districts,
        total_support_a=GROUP_SUPPORT * delta,
        target_a=target_a,
        run=run,
        worst_wins_a=worst_wins,
        worst_gap_a=worst_gap,
        gap_exceeds_unconstrained_bound=worst_gap > TARGET_BOUND,
    )


# --- shrunk analogue --------------------------------------------------------


def make_shrunk_analogue() -> tuple[GridState, GridSplitSequence, tuple[frozenset[Cell], ...]]:
    """A 4x4, d=4 miniature of the banded construction, small enough to
    brute-force: two 2-row bands, each with a 3-cell group in its first row
    (columns 1..3), severed by a 2x2 strip and completed later.  Used to
    cross-check the analytic group counting against exhaustive search."""
    groups = (
        frozenset({(1, 1), (1, 2), (1, 3)}),
        frozenset({(3, 1), (3, 2), (3, 3)}),
    )
    increments = [
        ((1, 1), (1, 2), (2, 1), (2, 2)),  # strip: severs group 1
        ((3, 1), (3, 2), (3, 3), (3, 4)),  # block: contains group 2 whole
    ]
    grid, splits = _banded_grid(4, 4, groups[0] | groups[1], increments)
    return grid, splits, groups


# --- serialization ----------------------------------------------------------


def geodelta_report_to_dict(report: GeodeltaReport) -> dict:
    gap = report.worst_gap_a
    summary = (
        f"worst candidate {report.worst_wins_a} wins,"
        f" geo {ratio_str(report.target_a)}, gap {ratio_str(gap)}"
        f" {'>' if report.gap_exceeds_unconstrained_bound else '<='}"
        f" {ratio_str(TARGET_BOUND)}"
    )
    return {
        "delta": report.delta,
        "m": report.m,
        "d": report.d,
        "districts": report.districts,
        "totalSupportA": str(report.total_support_a),
        "geoA": ratio_str(report.target_a),
        "run": run_to_dict(report.run),
        "worstWinsA": report.worst_wins_a,
        "worstGapA": ratio_str(gap),
        "unconstrainedBound": ratio_str(TARGET_BOUND),
        "gapExceedsUnconstrainedBound": report.gap_exceeds_unconstrained_bound,
        "summary": summary,
    }
