"""Geometric fairness targets.

The geometric target for a party is the average of its best case (it
districts the whole state) and worst case (the opponent does).  The k-split
variant restricts both cases to plans where every district stays on one side
of the k-split.  Both are exact half-integers, returned as Fractions; the
invariant sweep compares them through their integer numerators and
denominators, so its checks stay exact without Fraction arithmetic.

``k_split_target`` reads the profile's ``model.WinTable``;
``geometric_target`` does not, but reads its integer sums, so the sweep's
``target_average_identity`` check compares two independent computations.
"""

from __future__ import annotations

from fractions import Fraction

from .model import Party, SplitProfile, _check_split_index, ensure_valid


def geometric_target(profile: SplitProfile, party: Party) -> Fraction:
    ensure_valid(profile)
    scale, prefix_a = profile.scale, profile.prefix_a
    whole = profile.n * scale  # every value below is scaled by L as well
    support = prefix_a[-1] if party is Party.A else whole - prefix_a[-1]
    doubled = 2 * support  # never equal to whole: a valid total is no half-integer
    if doubled > whole:
        return Fraction(-(-doubled // scale), 2)
    return Fraction(doubled // scale, 2)


def k_split_target(profile: SplitProfile, party: Party, k: int) -> Fraction:
    wins = profile.win_table.party(party)
    _check_split_index(profile, k)
    return Fraction(wins.left_total[k] + wins.right_total[k], 2)
