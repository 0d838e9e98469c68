"""Win counts on either side of a split, and decoders for the allocation
search.

``wins_when_districting``, ``wins_when_opponent_districts`` and
``total_wins`` read the production win table, ``SplitProfile.win_table``.
``bruteforce_districting_wins`` and ``bruteforce_opponent_wins`` decode
``Fraction`` supports into the units of the oracle's allocation search,
``oracle._most_held``, and read its table; acceptance criterion 4 checks the
``Fraction`` closed forms of the tests against them.  No command imports
this module: ``bench/traced.py`` wraps these five names.
"""

from __future__ import annotations

from fractions import Fraction

from . import oracle
from .model import Party, Side, SplitProfile, _check_split_index


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


def _units(support: Fraction, districts: int) -> int:
    """``support`` in units of 1/``oracle.GRANULARITY``, for a side of
    ``districts`` the allocation search covers; ``ValueError`` otherwise."""
    if districts > oracle.MAX_ORACLE_DISTRICTS:
        raise ValueError(
            f"oracle limited to sides of {oracle.MAX_ORACLE_DISTRICTS} districts, got {districts}"
        )
    num, den = support.as_integer_ratio()
    if not 0 <= num <= districts * den:
        raise ValueError(f"support {support} outside [0, {districts}]")
    units, rest = divmod(num * oracle.GRANULARITY, den)
    if rest:
        raise ValueError(f"support {support} is not a multiple of 1/{oracle.GRANULARITY}")
    return units


def bruteforce_districting_wins(support: Fraction, districts: int) -> int:
    """Best win count over every allocation of the districting party's
    ``support`` over ``districts``."""
    units = _units(support, districts)  # before the table: it rejects districts < 0
    return oracle._most_held(districts)[units]


def bruteforce_opponent_wins(support: Fraction, opponent_support: Fraction) -> int:
    """Worst-case win count over every allocation of the opponent's
    ``opponent_support``, over the side's whole number of districts: all of
    them but the opponent's best."""
    num, den = support.as_integer_ratio()
    opp_num, opp_den = opponent_support.as_integer_ratio()
    districts, rest = divmod(num * opp_den + opp_num * den, den * opp_den)
    if rest:
        raise ValueError("side supports must sum to a whole number of districts")
    units = _units(opponent_support, districts)
    return districts - oracle._most_held(districts)[units]
