"""Geometric fairness targets.

The geometric target for a party is the average of its best case (it
districts the whole state) and worst case (the opponent does).  The k-split
variant restricts both cases to plans where every district stays on one side
of the k-split.  Both are exact half-integers, so each has one integer core
that returns twice the target (``doubled_geometric_target``,
``doubled_k_split_target``); the invariant sweep compares those integers and
builds no Fraction, and ``geometric_target`` and ``k_split_target`` wrap them
in Fractions for the reports.

``doubled_k_split_target`` reads the profile's ``model.WinTable``;
``doubled_geometric_target`` does not, but reads its integer sums, so the
sweep's ``target_average_identity`` check compares two independent
computations.
"""

from __future__ import annotations

from fractions import Fraction

from .model import Party, SplitProfile, _check_split_index, ensure_valid


def doubled_geometric_target(profile: SplitProfile, party: Party) -> int:
    """Twice ``party``'s geometric target, from the profile's integer sums."""
    ensure_valid(profile)
    scale, prefix_a = profile.scale, profile.prefix_a
    whole = profile.n * scale  # every value below is scaled by L as well
    support = prefix_a[-1] if party is Party.A else whole - prefix_a[-1]
    doubled = 2 * support  # never equal to whole: a valid total is no half-integer
    if doubled > whole:
        return -(-doubled // scale)
    return doubled // scale


def geometric_target(profile: SplitProfile, party: Party) -> Fraction:
    return Fraction(doubled_geometric_target(profile, party), 2)


def doubled_k_split_target(profile: SplitProfile, party: Party, k: int) -> int:
    """Twice ``party``'s k-split target, from the profile's win table."""
    wins = profile.win_table.party(party)
    _check_split_index(profile, k)
    return wins.left_total[k] + wins.right_total[k]


def k_split_target(profile: SplitProfile, party: Party, k: int) -> Fraction:
    return Fraction(doubled_k_split_target(profile, party, k), 2)
