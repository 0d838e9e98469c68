"""LRY's unconstrained closed forms in exact ``Fraction``s: the reference the
tests check the integer win table, the doubled targets and the invariant
sweep's win identity against.  Districting is unconstrained: the party
drawing the lines may spread its support however it likes."""

import math
from fractions import Fraction


def optimal_wins(support: Fraction, districts: int) -> int:
    """Districts a party carries when it draws the lines itself.

    With a majority it wins everything; otherwise it packs districts with
    just over half support each, for floor(2 * support) wins.
    """
    return min(math.floor(2 * support), districts)


def opponent_wins(support: Fraction, opponent_support: Fraction) -> int:
    """Districts a party carries when its opponent draws the lines."""
    return max(math.ceil(support - opponent_support), 0)
