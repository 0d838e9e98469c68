"""Optimal-play win counts on either side of a split: the reference forms.

The closed forms assume districting is unconstrained: the party drawing the
lines may spread its support however it likes.  ``optimal_wins`` and
``opponent_wins`` state them in exact ``Fraction``s; they are the reference
that the tests check ``model.WinTable``, the doubled targets of ``targets``
and the invariant sweep's integer win identity against.  Production code
reads win counts from that table, the same closed forms on the profile's
integer sums, cached as ``SplitProfile.win_table``;
``wins_when_districting``, ``wins_when_opponent_districts`` and
``total_wins`` are reads of it.

A small exhaustive allocation search over discretized support, tabulated once
per side size, is an independent check on tiny sides.  It works in units of
the discretization (``_search_districting``, ``_search_opposed``), and the
``oracle`` command checks ``model.PartyWins.from_scaled`` against it in those
units; ``bruteforce_districting_wins`` and ``bruteforce_opponent_wins``
decode ``Fraction`` supports for it, and acceptance criterion 4 checks the
``Fraction`` closed forms through them.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations_with_replacement

from .model import Party, Side, SplitProfile, _check_split_index


def optimal_wins(support: Fraction, districts: int) -> int:
    """Districts a party carries when it draws the lines itself.

    With a majority it wins everything; otherwise it packs districts with
    just over half support each, for floor(2 * support) wins.
    """
    return min(math.floor(2 * support), districts)


def opponent_wins(support: Fraction, opponent_support: Fraction) -> int:
    """Districts a party carries when its opponent draws the lines."""
    return max(math.ceil(support - opponent_support), 0)


def wins_when_districting(profile: SplitProfile, party: Party, side: Side, k: int) -> int:
    wins = profile.win_table.party(party)
    _check_split_index(profile, k)
    counts = wins.left_districting if side is Side.LEFT else wins.right_districting
    return counts[k]


def wins_when_opponent_districts(profile: SplitProfile, party: Party, side: Side, k: int) -> int:
    wins = profile.win_table.party(party)
    _check_split_index(profile, k)
    counts = wins.left_opposed if side is Side.LEFT else wins.right_opposed
    return counts[k]


def total_wins(profile: SplitProfile, party: Party, side: Side, k: int) -> int:
    """Wins for ``party`` when it districts ``side`` of the k-split and the
    opponent districts the rest of the state."""
    wins = profile.win_table.party(party)
    _check_split_index(profile, k)
    counts = wins.left_total if side is Side.LEFT else wins.right_total
    return counts[k]


# --- exhaustive allocation oracle -----------------------------------------
#
# Supports are discretized into units of 1/DEFAULT_GRANULARITY.  ``_held_counts``
# spreads the units over the side's districts in every way, up to the order
# of the districts, once per process for each side size, and the searches
# read its table.  A district holding exactly half its units counts for the
# party drawing the lines: the side total is never an exact half-integer, so
# the districter always has surplus somewhere to break such a tie in its own
# favor.  Exponential cost keeps this to tiny sides; it exists to
# cross-check the closed forms, not for production use.

DEFAULT_GRANULARITY = 20
MAX_ORACLE_DISTRICTS = 4


@functools.cache
def _held_counts(parts: int, capacity: int) -> dict[int, frozenset[int]]:
    """By unit total, how many of ``parts`` bins of ``capacity`` hold at
    least half, for each split of the total: each split once, up to bin
    order, since no reordering changes how many bins are held."""
    table: dict[int, set[int]] = {}
    half = -(-capacity // 2)
    for loads in combinations_with_replacement(range(capacity + 1), parts):
        table.setdefault(sum(loads), set()).add(parts - bisect_left(loads, half))
    return {units: frozenset(held) for units, held in table.items()}


def _search_districting(units: int, districts: int) -> int:
    """The most of ``districts`` bins that ``units`` units of
    1/``DEFAULT_GRANULARITY`` can hold at least half of, over every
    allocation up to the order of the districts: the districting party's
    best win count.  ``KeyError`` when ``units`` is outside
    [0, districts * DEFAULT_GRANULARITY]."""
    return max(_held_counts(districts, DEFAULT_GRANULARITY)[units])


def _search_opposed(opponent_units: int, districts: int) -> int:
    """A party's worst-case win count when an opponent holding
    ``opponent_units`` units draws the lines on a side of ``districts``.

    The opponent keeps the party out of a district by holding at least half
    of it, so the party wins only districts where the opponent placed
    strictly less than half: all of them but the opponent's best.
    """
    return districts - _search_districting(opponent_units, districts)


def _units(support: Fraction, districts: int) -> int:
    """``support`` in units of 1/``DEFAULT_GRANULARITY``, for a side of
    ``districts`` the allocation searches cover; ``ValueError`` otherwise."""
    if districts > MAX_ORACLE_DISTRICTS:
        raise ValueError(
            f"oracle limited to sides of {MAX_ORACLE_DISTRICTS} districts, got {districts}"
        )
    num, den = support.as_integer_ratio()
    if not 0 <= num <= districts * den:
        raise ValueError(f"support {support} outside [0, {districts}]")
    units, rest = divmod(num * DEFAULT_GRANULARITY, den)
    if rest:
        raise ValueError(f"support {support} is not a multiple of 1/{DEFAULT_GRANULARITY}")
    return units


def bruteforce_districting_wins(support: Fraction, districts: int) -> int:
    """Best win count over every allocation of the districting party's
    ``support`` over ``districts``: ``_search_districting`` on its units."""
    return _search_districting(_units(support, districts), districts)


def bruteforce_opponent_wins(support: Fraction, opponent_support: Fraction) -> int:
    """Worst-case win count over every allocation of the opponent's
    ``opponent_support``: ``_search_opposed`` on its units, over the side's
    whole number of districts."""
    num, den = support.as_integer_ratio()
    opp_num, opp_den = opponent_support.as_integer_ratio()
    districts, rest = divmod(num * opp_den + opp_num * den, den * opp_den)
    if rest:
        raise ValueError("side supports must sum to a whole number of districts")
    return _search_opposed(_units(opponent_support, districts), districts)
