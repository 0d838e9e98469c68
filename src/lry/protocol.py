"""The split-and-choose districting protocol.

For every split k each party states which side it would rather district.
The first matching outcome rule resolves the run:

1. agreement      - some k where both parties want the same assignment
2. deferred       - some k where exactly one party is indifferent
3. both indifferent at some k - the assignment there is drawn at random
4. coin flip      - preferences cross between consecutive splits; one of the
                    four (split, assignment) candidates is drawn at random

Under optimal play B always prefers the opposite of A, so rules 1 and 2
never fire and ``resolve_optimal`` settles a run in one pass over A's
totals; every command and the invariant sweep take their outcome from it.
``classify_outcome`` scans k = 0..n of any preference table and is its
reference.  Runs are deterministic given the totals and the seed.

A run's entries are ``Assignment`` records (split, option and both parties'
wins): the four coin-flip candidates, or the settled assignment alone.
``fairness_report`` checks each entry against the profile's win table and
computes each party's deltas per entry once; the CSV rows read them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from . import targets
from .model import (
    Party,
    SplitProfile,
    half_integer_sums,
    profile_to_dict,
    ratio_str,
)


class Preference(Enum):
    OPTION1 = "option1"  # A districts the left side, B the right
    OPTION2 = "option2"  # B districts the left side, A the right
    INDIFFERENT = "indifferent"


class OutcomeKind(Enum):
    AGREEMENT = "agreement"
    DEFERRED = "deferred"
    BOTH_INDIFFERENT = "both_indifferent"
    COIN_FLIP = "coin_flip"


class ProtocolError(ValueError):
    pass


@dataclass(frozen=True)
class Assignment:
    """The option adopted at split k, with each party's wins under it."""

    k: int
    option: Preference
    wins_a: int
    wins_b: int

    def __post_init__(self):
        if self.option is Preference.INDIFFERENT:
            raise ProtocolError("an assignment needs a concrete option")


@dataclass(frozen=True)
class ProtocolRun:
    outcome: OutcomeKind
    trigger_k: int
    assignment: Assignment
    candidates: tuple[Assignment, ...] | None  # coin flips only, canonical order
    seed: int | None  # None when no randomness was consumed


# (A, B) preference pairs.  Option 1 hands A the left side and B the right.
_A_LEFT = (Preference.OPTION1, Preference.OPTION2)
_A_RIGHT = (Preference.OPTION2, Preference.OPTION1)
_NEITHER = (Preference.INDIFFERENT, Preference.INDIFFERENT)


def preferences_from_totals(
    a_left: Sequence[int], a_right: Sequence[int]
) -> tuple[tuple[Preference, Preference], ...]:
    """The preference table, with the (A, B) pair of split k at index k, from
    A's total wins districting the left (``a_left[k]``) or right (``a_right[k]``).

    Every district goes to one party, so B's totals are the complements of
    A's and B always prefers the opposite of A.
    """
    n = len(a_left) - 1
    pairs = []
    for k in range(n + 1):
        # Both parties would rather district the side that is the whole
        # state, so k = 0 and k = n are fixed even when the win counts tie.
        if k == 0 or (k < n and a_left[k] < a_right[k]):
            pairs.append(_A_RIGHT)
        elif k == n or a_left[k] > a_right[k]:
            pairs.append(_A_LEFT)
        else:
            pairs.append(_NEITHER)
    return tuple(pairs)


def optimal_preferences(profile: SplitProfile) -> tuple[tuple[Preference, Preference], ...]:
    """Each party's preference per split when both maximize districts won."""
    wins = profile.win_table.a
    return preferences_from_totals(wins.left_total, wins.right_total)


def classify_outcome(
    prefs: Sequence[tuple[Preference, Preference]]
) -> tuple[OutcomeKind, int]:
    """First outcome rule that applies to a preference table, with the split
    index that fired it.  An empty table fires no rule."""
    for k, (pa, pb) in enumerate(prefs):
        if pa is pb and pa is not Preference.INDIFFERENT:
            return OutcomeKind.AGREEMENT, k
    for k, (pa, pb) in enumerate(prefs):
        if (pa is Preference.INDIFFERENT) != (pb is Preference.INDIFFERENT):
            return OutcomeKind.DEFERRED, k
    for k, pair in enumerate(prefs):
        if pair == _NEITHER:
            return OutcomeKind.BOTH_INDIFFERENT, k
    for k in range(1, len(prefs)):
        if prefs[k - 1] == _A_RIGHT and prefs[k] == _A_LEFT:
            return OutcomeKind.COIN_FLIP, k
    raise ProtocolError("no outcome rule applies to this preference table")


def _adopt(k: int, option: Preference, n: int, wins_left: int, wins_right: int) -> Assignment:
    """``option`` at split k, where A wins ``wins_left`` districting the left
    side and ``wins_right`` districting the right."""
    wins_a = wins_left if option is Preference.OPTION1 else wins_right
    return Assignment(k, option, wins_a, n - wins_a)


def _candidates(
    k: int, n: int, lefts: Sequence[int], rights: Sequence[int]
) -> tuple[Assignment, ...]:
    """The crossing's candidates from A's totals at k-1 and k, per side."""
    return tuple(
        _adopt(split, option, n, wins_left, wins_right)
        for split, wins_left, wins_right in zip((k - 1, k), lefts, rights)
        for option in (Preference.OPTION1, Preference.OPTION2)
    )


def coinflip_options(profile: SplitProfile, k: int) -> tuple[Assignment, ...]:
    """The four coin-flip candidates for a crossing at (k-1, k), in canonical
    order: option 1 then 2 of the (k-1)-split, then option 1 then 2 of the
    k-split."""
    wins = profile.win_table.a
    if not 1 <= k <= profile.n:
        raise ValueError(f"split index {k} out of range 1..{profile.n}")
    window = slice(k - 1, k + 1)
    return _candidates(k, profile.n, wins.left_total[window], wins.right_total[window])


def resolve_protocol(
    profile: SplitProfile, prefs: Sequence[tuple[Preference, Preference]], seed: int
) -> ProtocolRun:
    """Run the outcome rules on a profile under optimal play; see
    ``resolve_from_totals``."""
    wins = profile.win_table.a
    if len(prefs) != profile.n + 1:
        raise ProtocolError(
            f"preference table covers 0..{len(prefs) - 1} but profile has n={profile.n}"
        )
    return resolve_from_totals(prefs, wins.left_total, wins.right_total, seed)


def _drawn_run(
    kind: OutcomeKind, k: int, n: int, lefts: Sequence[int], rights: Sequence[int],
    seed: int,
) -> ProtocolRun:
    """Outcome 3 or 4 fired at split k, settled from ``seed``; ``lefts`` and
    ``rights`` are A's totals up to k, the last entry at k."""
    if kind is OutcomeKind.COIN_FLIP:
        candidates = _candidates(k, n, lefts, rights)
        return ProtocolRun(kind, k, candidates[seed % 4], candidates, seed)
    option = Preference.OPTION1 if seed % 2 == 0 else Preference.OPTION2
    return ProtocolRun(kind, k, _adopt(k, option, n, lefts[-1], rights[-1]), None, seed)


def resolve_from_totals(
    prefs: Sequence[tuple[Preference, Preference]], a_left: Sequence[int],
    a_right: Sequence[int], seed: int,
) -> ProtocolRun:
    """Run the outcome rules and settle any randomness from ``seed``, given
    A's total wins per split when it districts the left or the right side.

    Outcome 3 picks option 1 on even seeds and option 2 on odd seeds;
    outcome 4 picks candidate index ``seed % 4`` in canonical order.  The
    recorded seed is None when no randomness was consumed.
    """
    n = len(a_left) - 1
    kind, k = classify_outcome(prefs)
    if kind in (OutcomeKind.BOTH_INDIFFERENT, OutcomeKind.COIN_FLIP):
        window = slice(max(k - 1, 0), k + 1)
        return _drawn_run(kind, k, n, a_left[window], a_right[window], seed)
    pa, pb = prefs[k]  # agreement, or one party defers to the other
    option = pb if pa is Preference.INDIFFERENT else pa
    return ProtocolRun(kind, k, _adopt(k, option, n, a_left[k], a_right[k]), None, None)


def resolve_optimal(
    splits: Sequence[int], a_left: Sequence[int], a_right: Sequence[int], seed: int
) -> ProtocolRun:
    """``resolve_from_totals`` over ``preferences_from_totals``, in one pass.

    ``a_left[i]`` and ``a_right[i]`` are A's totals at split ``splits[i]``
    and hold until the next sampled split.  ``splits`` rises from 0 to n
    and holds 1 and n - 1, where a turn would hide behind the preferences
    pinned at 0 and n; a profile passes ``range(n + 1)``.  B prefers the
    opposite of A, so only the first interior tie (both indifferent) or else
    A's first turn from right to left (coin flip) can settle the run.
    """
    if not len(splits) == len(a_left) == len(a_right) > 0:
        counts = f"{len(splits)} splits, {len(a_left)} left and {len(a_right)} right totals"
        raise ProtocolError(f"{counts}: need one of each per split, and a split")
    last = len(splits) - 1
    n = splits[last]
    if splits[0] != 0 or n > 0 and (splits[1] != 1 or splits[last - 1] != n - 1):
        raise ProtocolError("sampled splits must include 0, 1, n-1 and n")
    if last == 0:
        raise ProtocolError("no outcome rule applies to this preference table")
    kind, fired = OutcomeKind.COIN_FLIP, last
    for i in range(1, last):
        if a_left[i] == a_right[i]:
            kind, fired = OutcomeKind.BOTH_INDIFFERENT, i
            break
        if fired == last and a_left[i] > a_right[i]:
            fired = i
    # Sample fired - 1 holds A's totals at the split just before splits[fired].
    window = slice(fired - 1, fired + 1)
    return _drawn_run(kind, splits[fired], n, a_left[window], a_right[window], seed)


def optimal_run(profile: SplitProfile, seed: int) -> ProtocolRun:
    """``resolve_optimal`` over every split of a profile."""
    wins = profile.win_table.a
    return resolve_optimal(range(profile.n + 1), wins.left_total, wins.right_total, seed)


# --- fairness ---------------------------------------------------------------

TARGET_BOUND = Fraction(2)
SPLIT_TARGET_BOUND = Fraction(3, 2)


@dataclass(frozen=True)
class PartyFairness:
    wins: int
    target: Fraction
    split_target: Fraction
    target_delta: Fraction        # target - wins
    split_target_delta: Fraction  # split target at the realized k - wins
    within_target_bound: bool
    within_split_target_bound: bool
    # Coin flips only: (min, max) deltas over the four candidates, each
    # candidate measured against the split target of its own split.
    candidate_target_deltas: tuple[Fraction, Fraction] | None
    candidate_split_target_deltas: tuple[Fraction, Fraction] | None
    # (target - wins, split target - wins) per entry of the run, in order.
    entry_deltas: tuple[tuple[Fraction, Fraction], ...]


@dataclass(frozen=True)
class FairnessReport:
    a: PartyFairness
    b: PartyFairness

    def party(self, party: Party) -> PartyFairness:
        return self.a if party is Party.A else self.b


def _entries(run: ProtocolRun) -> tuple[Assignment, ...]:
    """The run's coin-flip candidates, or its settled assignment alone."""
    return run.candidates or (run.assignment,)


def _party_fairness(
    profile: SplitProfile, run: ProtocolRun, party: Party
) -> PartyFairness:
    """One geometric target, one split target per distinct split of the
    entries, and every entry's deltas from them."""
    entries = _entries(run)
    target = targets.geometric_target(profile, party)
    split_targets = {
        k: targets.k_split_target(profile, party, k) for k in {e.k for e in entries}
    }
    deltas = []
    for entry in entries:
        won = entry.wins_a if party is Party.A else entry.wins_b
        deltas.append((target - won, split_targets[entry.k] - won))
    realized = run.assignment
    target_delta, split_delta = deltas[entries.index(realized)]
    spans = (None, None)
    if run.candidates is not None:
        spans = [(min(column), max(column)) for column in zip(*deltas)]
    return PartyFairness(
        wins=realized.wins_a if party is Party.A else realized.wins_b,
        target=target,
        split_target=split_targets[realized.k],
        target_delta=target_delta,
        split_target_delta=split_delta,
        within_target_bound=abs(target_delta) <= TARGET_BOUND,
        within_split_target_bound=abs(split_delta) <= SPLIT_TARGET_BOUND,
        candidate_target_deltas=spans[0],
        candidate_split_target_deltas=spans[1],
        entry_deltas=tuple(deltas),
    )


def fairness_report(profile: SplitProfile, run: ProtocolRun) -> FairnessReport:
    """Exact target deltas and bound flags for a finished run, whose every
    entry must match the profile's win table."""
    a, n = profile.win_table.a, profile.n
    entries = _entries(run)
    for entry in entries:
        k = entry.k
        if not 0 <= k <= n:
            raise ProtocolError(
                f"run does not belong to this profile: entry k={k} outside 0..{n}"
            )
        expected = _adopt(k, entry.option, n, a.left_total[k], a.right_total[k])
        if entry != expected:
            raise ProtocolError(
                f"run does not belong to this profile: entry k={k} {entry.option.value}"
                f" yields {(expected.wins_a, expected.wins_b)},"
                f" run records {(entry.wins_a, entry.wins_b)}"
            )
    if run.assignment not in entries:
        raise ProtocolError("the run's assignment is not one of its candidates")
    return FairnessReport(
        a=_party_fairness(profile, run, Party.A),
        b=_party_fairness(profile, run, Party.B),
    )


# --- property sweep ---------------------------------------------------------

_MASK64 = (1 << 64) - 1


def mix_seed(seed: int, index: int) -> int:
    """splitmix64 of (seed + (index+1) * golden gamma); gives every sweep
    instance an independent, order-free sub-seed."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _randbelow(rng: random.Random, width: int) -> int:
    """``rng.randrange(width)``, consuming the generator exactly as CPython's
    ``Random._randbelow_with_getrandbits`` does: draw k = width.bit_length()
    bits and redraw while the value is >= width."""
    if width < 1:
        raise ValueError(f"empty range of width {width}")
    k = width.bit_length()
    r = rng.getrandbits(k)
    while r >= width:
        r = rng.getrandbits(k)
    return r


_DRAW_SCALE = 27720  # lcm(2..12)


def random_profile(rng: random.Random, n_max: int) -> SplitProfile:
    """A random valid profile with 2 <= n <= n_max; ValueError if n_max < 2.

    Segments are p/q with 2 <= q <= 12 and 0 <= p <= q, drawn on
    ``rng.getrandbits`` exactly as ``rng.randint`` would draw them.  A whole
    candidate is drawn and summed on the scale 27720, then rejected while
    some cumulative sum is a half-integer (``model.half_integer_sums``), so a
    seed fixes the profile and the generator's state after it.  Segments lie
    in [0, 1] by construction, so the profile comes marked valid.
    """
    n = 2 + _randbelow(rng, n_max - 1)
    bits = rng.getrandbits
    while True:
        prefix = [0]
        for _ in range(n):
            d = bits(4)  # randint(2, 12): 11 values on 4 bits
            while d >= 11:
                d = bits(4)
            den, k = d + 2, (d + 3).bit_length()  # randint(0, den): den + 1 values
            num = bits(k)
            while num > den:
                num = bits(k)
            prefix.append(prefix[-1] + num * (_DRAW_SCALE // den))
        if next(half_integer_sums(_DRAW_SCALE, prefix), None) is None:
            profile = SplitProfile(n, _DRAW_SCALE, tuple(prefix))  # reduced to the least scale
            profile.__dict__["violations"] = ()
            return profile


@dataclass(frozen=True)
class SweepViolation:
    prop: str
    detail: str
    profile: dict | None


@dataclass
class SweepReport:
    instances: int
    checks: int
    outcomes: dict[str, int]
    violations: list[SweepViolation]


class _Recorder:
    """Counts the checks performed and collects the failed ones.

    Callers add each block's check count up front and call ``fail`` only for
    a failed check, so a detail text and its profile document are built
    only then.
    """

    def __init__(self, profile: SplitProfile | None):
        self.profile = profile
        self.checks = 0
        self.violations: list[SweepViolation] = []

    def fail(self, prop: str, detail: str) -> None:
        doc = profile_to_dict(self.profile) if self.profile is not None else None
        self.violations.append(SweepViolation(prop, detail, doc))


def _floor_ceiling_combos(
    r: tuple[int, int], s: tuple[int, int]
) -> tuple[tuple[str, int], ...]:
    """Floor/ceiling of r + s minus sums of floors/ceilings of r and s, for r
    and s given as (numerator, positive denominator) pairs, on integers."""
    (r_num, r_den), (s_num, s_den) = r, s
    t_num, t_den = r_num * s_den + s_num * r_den, r_den * s_den
    floor_r, floor_s, floor_t = r_num // r_den, s_num // s_den, t_num // t_den
    ceil_r, ceil_s, ceil_t = -(-r_num // r_den), -(-s_num // s_den), -(-t_num // t_den)
    return (
        ("ceil_ceil", ceil_t - (ceil_r + ceil_s)),
        ("ceil_mixed", ceil_t - (ceil_r + floor_s)),
        ("floor_mixed", floor_t - (ceil_r + floor_s)),
        ("floor_floor", floor_t - (floor_r + floor_s)),
    )


def check_floor_ceiling_bounds(
    r: tuple[int, int], s: tuple[int, int], rec: _Recorder
) -> None:
    """Floor/ceiling of a sum vs. sums of floors/ceilings differ by at most 1;
    r and s are (numerator, positive denominator) pairs."""
    combos = _floor_ceiling_combos(r, s)
    rec.checks += len(combos)
    for name, diff in combos:
        if abs(diff) > 1:
            detail = f"r={ratio_str(Fraction(*r))} s={ratio_str(Fraction(*s))} diff={diff}"
            rec.fail(f"floor_ceiling_sum.{name}", detail)


def _win_identity_total(x: int, y: int, den: int, size: int) -> int:
    """min(floor(2x), size) + max(ceil(y - x), 0) for x = ``x``/``den`` and
    y = ``y``/``den``, den > 0: the closed forms, on integers."""
    return min(2 * x // den, size) + max(-((x - y) // den), 0)


def check_win_identity(x: int, y: int, den: int, size: int, rec: _Recorder) -> None:
    """min(floor(2x), size) + max(ceil(y - x), 0) == size whenever x + y == size,
    for x = ``x``/``den`` and y = ``y``/``den``, den > 0."""
    total = _win_identity_total(x, y, den, size)
    rec.checks += 1
    if total != size:
        detail = (
            f"x={ratio_str(Fraction(x, den))} y={ratio_str(Fraction(y, den))}"
            f" size={size} got {total}"
        )
        rec.fail("win_identity", detail)


def check_profile(profile: SplitProfile) -> tuple[int, list[SweepViolation], OutcomeKind]:
    """Run every cross-module invariant on one profile.

    Returns (checks performed, violations, outcome kind under optimal play).
    The outcome comes from ``optimal_run``, the path every command takes.
    """
    table = profile.win_table
    rec = _Recorder(profile)
    n = profile.n
    a, b = table.a, table.b
    parties = ((Party.A, a), (Party.B, b))

    rec.checks += 4 * (n + 1)
    columns = zip(a.left_districting, b.left_opposed, b.right_districting, a.right_opposed,
                  a.left_total, b.right_total, a.right_total, b.left_total)
    for k, (ald, blo, brd, aro, alt, brt, art, blt) in enumerate(columns):
        # Districter plus shut-out opponent account for every district on a side.
        if ald + blo != k:
            rec.fail("win_identity", f"k={k} left: {ald}+{blo} != {k}")
        if brd + aro != n - k:
            rec.fail("win_identity", f"k={k} right: {brd}+{aro} != {n - k}")
        if alt + brt != n:
            rec.fail("conservation", f"k={k}: A(L)={alt} B(R)={brt}")
        if art + blt != n:
            rec.fail("conservation", f"k={k}: A(R)={art} B(L)={blt}")

    # Sign of A's support in each segment minus 1/2; B's is the opposite.
    prefix, scale = profile.prefix_a, profile.scale
    a_lean = [2 * (hi - lo) - scale for lo, hi in zip(prefix, prefix[1:])]
    for (party, wins), sign in zip(parties, (1, -1)):
        ld, ro = wins.left_districting, wins.right_opposed
        ltot, rtot = wins.left_total, wins.right_total
        steps = zip(a_lean, ld, ld[1:], ro, ro[1:], ltot, ltot[1:], rtot, rtot[1:])
        for k, (a_seg, d0, d1, o0, o1, lt0, lt1, rt0, rt1) in enumerate(steps, 1):
            lean = sign * a_seg
            d_step = d1 - d0
            o_step = o1 - o0
            # A minority segment steps both counts by 0 or 1; a majority one
            # steps the districter's by 1 or 2 and the opponent's by 0 or -1.
            # Segments of exactly 1/2 carry no step bound.
            rec.checks += 5 if lean else 3
            if lean:
                segment, d_low, o_low = (
                    ("minority", 0, 0) if lean < 0 else ("majority", 1, -1)
                )
                if not d_low <= d_step <= d_low + 1:
                    rec.fail(
                        f"{segment}_segment_districting_step",
                        f"{party.value} k={k} step={d_step}",
                    )
                if not o_low <= o_step <= o_low + 1:
                    rec.fail(
                        f"{segment}_segment_opponent_step",
                        f"{party.value} k={k} step={o_step}",
                    )
            if not lt0 <= lt1 <= lt0 + 2:
                rec.fail("left_total_step", f"{party.value} k={k}: {lt0} -> {lt1}")
            if not rt1 <= rt0 <= rt1 + 2:
                rec.fail("right_total_step", f"{party.value} k={k}: {rt0} -> {rt1}")
            if lt0 > rt0 and lt1 < rt1:
                rec.fail(
                    "crossing_direction",
                    f"{party.value} k={k}: left-preferring then right-preferring",
                )

    # Twice each party's geometric target, an integer, in the order of ``parties``.
    doubled_geo = [targets.doubled_geometric_target(profile, party) for party, _ in parties]
    for (party, wins), geo in zip(parties, doubled_geo):
        ltot, rtot = wins.left_total, wins.right_total
        rec.checks += 1 + 2 * (n + 1)
        if geo != ltot[n] + ltot[0]:
            rec.fail(
                "target_average_identity",
                f"{party.value}: geo={ratio_str(Fraction(geo, 2))}"
                f" best={ltot[n]} worst={ltot[0]}",
            )
        for k, (lt, rt) in enumerate(zip(ltot, rtot)):
            doubled_split_target = lt + rt
            if not -1 <= geo - doubled_split_target <= 1:
                rec.fail(
                    "target_vs_split_target",
                    f"{party.value} k={k}: geo={ratio_str(Fraction(geo, 2))}"
                    f" split target={ratio_str(Fraction(doubled_split_target, 2))}",
                )
            if 2 * (lt if lt > rt else rt) < doubled_split_target:
                rec.fail("good_choice", f"{party.value} k={k}")
    rec.checks += n + 1
    totals = zip(a.left_total, a.right_total, b.left_total, b.right_total)
    for k, (alt, art, blt, brt) in enumerate(totals):
        if alt + art + blt + brt != 2 * n:
            rec.fail("split_target_sum", f"k={k}")
    rec.checks += 3
    for k, party in ((0, Party.A), (n // 2, Party.B), (n, Party.A)):
        wins = table.party(party)
        doubled_split_target = targets.doubled_k_split_target(profile, party, k)
        if doubled_split_target != wins.left_total[k] + wins.right_total[k]:
            rec.fail("split_target_definition", f"{party.value} k={k}")
    # Split targets are halves of integer totals, so only the geometric
    # targets can leave the range of half-integers from 0 to n.
    rec.checks += 1
    if not all(0 <= geo <= 2 * n for geo in doubled_geo):
        rec.fail("target_half_integer", "a target is not an integer multiple of 1/2")

    # A's preference from A's totals against B's from B's own totals; at k = 0
    # and k = n each party is pinned to district the whole state, so they
    # cannot share an option there.
    rec.checks += n + 1
    inner = zip(a.left_total[1:n], a.right_total[1:n], b.left_total[1:n], b.right_total[1:n])
    for k, (alt, art, blt, brt) in enumerate(inner, 1):
        a_wants_left = alt - art  # > 0: A prefers option 1
        b_wants_right = brt - blt  # > 0: B prefers option 1
        if a_wants_left * b_wants_right > 0:
            shared = Preference.OPTION1 if a_wants_left > 0 else Preference.OPTION2
            rec.fail("shared_model_opposition", f"k={k}: both prefer {shared.value}")
    run = optimal_run(profile, 0)
    kind, trigger = run.outcome, run.trigger_k
    if kind is OutcomeKind.COIN_FLIP:
        for (party, wins), geo in zip(parties, doubled_geo):
            ltot, rtot = wins.left_total, wins.right_total
            rec.checks += 10
            # The party's margin for the right side, then the left, at the crossing.
            for i, high, low in ((trigger - 1, rtot, ltot), (trigger, ltot, rtot)):
                if high[i] - low[i] > 3:
                    detail = f"{party.value} at k={i}: {high[i]} - {low[i]}"
                    rec.fail("coinflip_gap_at_most_3", detail)
            for i in (trigger - 1, trigger):
                doubled_split_target = ltot[i] + rtot[i]
                for wins_i in (ltot[i], rtot[i]):
                    if abs(doubled_split_target - 2 * wins_i) > 3:
                        rec.fail(
                            "coinflip_split_target_bound",
                            f"{party.value} i={i} wins={wins_i}",
                        )
                    if abs(geo - 2 * wins_i) > 4:
                        rec.fail(
                            "coinflip_target_bound", f"{party.value} i={i} wins={wins_i}"
                        )
        order = [(c.k, c.option) for c in run.candidates]
        options = (Preference.OPTION1, Preference.OPTION2)
        rec.checks += 1 + len(run.candidates)
        if order != [(i, option) for i in (trigger - 1, trigger) for option in options]:
            rec.fail("coinflip_candidate_order", f"trigger={trigger}")
        for cand in run.candidates:
            if cand.wins_a + cand.wins_b != n:
                rec.fail("conservation", f"candidate k={cand.k} {cand.option.value}")
    else:
        # Otherwise both parties are indifferent at the trigger, so each wins
        # exactly its split target there, within 1/2 of its geometric target.
        for (party, wins), geo in zip(parties, doubled_geo):
            won = run.assignment.wins_a if party is Party.A else run.assignment.wins_b
            doubled_split_target = wins.left_total[trigger] + wins.right_total[trigger]
            rec.checks += 3
            if doubled_split_target != 2 * won:
                rec.fail(
                    "indifference_is_exact",
                    f"{party.value}: indifferent but wins differ from split target",
                )
            if doubled_split_target > 2 * won:
                rec.fail(
                    "good_choice_realized",
                    f"{party.value}: wins below split target in outcome {kind.value}",
                )
            if geo - 2 * won > 1:
                rec.fail(
                    "settled_outcome_target_gap",
                    f"{party.value}: gap {ratio_str(Fraction(geo - 2 * won, 2))}",
                )

    return rec.checks, rec.violations, kind


def property_sweep(count: int, n_max: int, seed: int) -> SweepReport:
    """Check every invariant on ``count`` random valid profiles.

    Instance ``i`` draws from a generator seeded with ``mix_seed(seed, i)``,
    so results do not depend on evaluation order.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    total_checks = 0
    violations: list[SweepViolation] = []
    outcomes = {kind.value: 0 for kind in OutcomeKind}
    rng = random.Random()
    for index in range(count):
        rng.seed(mix_seed(seed, index))
        profile = random_profile(rng, n_max)
        checks, bad, kind = check_profile(profile)
        total_checks += checks
        violations.extend(bad)
        outcomes[kind.value] += 1
        rec = _Recorder(None)
        r = (1 + _randbelow(rng, 400), 1 + _randbelow(rng, 20))
        s = (1 + _randbelow(rng, 400), 1 + _randbelow(rng, 20))
        check_floor_ceiling_bounds(r, s, rec)
        size = _randbelow(rng, n_max + 1)
        den = 1 + _randbelow(rng, 20)
        x = _randbelow(rng, size * den + 1)
        check_win_identity(x, size * den - x, den, size, rec)
        total_checks += rec.checks
        violations.extend(rec.violations)
    return SweepReport(count, total_checks, outcomes, violations)


# --- serialization ----------------------------------------------------------


def _entry_dict(entry: Assignment) -> dict:
    return {
        "k": entry.k, "option": entry.option.value, "winsA": entry.wins_a, "winsB": entry.wins_b
    }


def run_to_dict(run: ProtocolRun) -> dict:
    doc = {
        "outcome": run.outcome.value,
        "triggerK": run.trigger_k,
        "assignment": {"k": run.assignment.k, "option": run.assignment.option.value},
        "winsA": run.assignment.wins_a,
        "winsB": run.assignment.wins_b,
        "seedConsumed": run.seed is not None,
    }
    if run.seed is not None:
        doc["seed"] = run.seed
    if run.candidates is not None:
        doc["crossingPair"] = [run.trigger_k - 1, run.trigger_k]
        doc["candidates"] = [_entry_dict(c) for c in run.candidates]
    return doc


def _party_fairness_to_dict(stats: PartyFairness) -> dict:
    doc = {
        "wins": stats.wins,
        "geo": ratio_str(stats.target),
        "geoK": ratio_str(stats.split_target),
        "deltaGeo": ratio_str(stats.target_delta),
        "deltaGeoK": ratio_str(stats.split_target_delta),
        "withinGeoBound": stats.within_target_bound,
        "withinGeoKBound": stats.within_split_target_bound,
    }
    for name, span in (
        ("candidateDeltaGeo", stats.candidate_target_deltas),
        ("candidateDeltaGeoK", stats.candidate_split_target_deltas),
    ):
        if span is not None:
            doc[name + "Min"], doc[name + "Max"] = map(ratio_str, span)
    return doc


def fairness_to_dict(report: FairnessReport) -> dict:
    return {party.value: _party_fairness_to_dict(report.party(party)) for party in Party}


def candidate_rows(run: ProtocolRun, report: FairnessReport) -> list[dict]:
    """CSV-shaped rows: one per coin-flip candidate, or one for the resolved
    assignment when no coin flip happened, with ``report``'s deltas."""
    rows = [_entry_dict(entry) for entry in _entries(run)]
    for party in Party:
        for row, (geo, split) in zip(rows, report.party(party).entry_deltas):
            row["deltaGeo" + party.value] = ratio_str(geo)
            row["deltaGeoK" + party.value] = ratio_str(split)
    return rows


def sweep_to_dict(report: SweepReport) -> dict:
    return {
        "instances": report.instances,
        "checks": report.checks,
        "outcomes": dict(sorted(report.outcomes.items())),
        "violations": [
            {"property": v.prop, "detail": v.detail, "profile": v.profile}
            for v in report.violations
        ],
    }
