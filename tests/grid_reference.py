"""The grid's cell-level district tests as sets of cells: the reference the
tests check ``grid``'s bitmask floods against, and the tests' own subset
filter of valid districts.  One flood, ``_reach``, serves the connectivity
test and the hole test, which floods the district's complement within its
bounding box grown by one cell all round."""

from __future__ import annotations

Cell = tuple[int, int]  # (row, column), 1-indexed from the top-left


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
