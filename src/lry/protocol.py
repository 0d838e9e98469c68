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
totals.  ``classify_outcome`` scans k = 0..n of any preference table and is
its reference.  Runs are deterministic given the totals and the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import strategy, targets
from .model import (
    Party,
    SplitProfile,
    ensure_valid,
    is_half_integer,
    left,
    profile_to_dict,
    ratio_str,
    right,
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
class PreferenceTable:
    """One (A, B) preference pair per split index 0..n."""

    entries: tuple[tuple[Preference, Preference], ...]

    def __post_init__(self):
        if not self.entries:
            raise ProtocolError("preference table is empty")

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, k: int) -> tuple[Preference, Preference]:
        return self.entries[k]

    @property
    def n(self) -> int:
        return len(self.entries) - 1


@dataclass(frozen=True)
class Assignment:
    """Which option was adopted at which split."""

    k: int
    option: Preference

    def __post_init__(self):
        if self.option is Preference.INDIFFERENT:
            raise ProtocolError("an assignment needs a concrete option")


@dataclass(frozen=True)
class CoinFlipCandidate:
    assignment: Assignment
    wins_a: int
    wins_b: int


@dataclass(frozen=True)
class ProtocolRun:
    outcome: OutcomeKind
    trigger_k: int
    assignment: Assignment
    wins_a: int
    wins_b: int
    candidates: tuple[CoinFlipCandidate, ...] | None
    seed: int | None  # None when no randomness was consumed

    @property
    def crossing_pair(self) -> tuple[int, int] | None:
        if self.outcome is OutcomeKind.COIN_FLIP:
            return (self.trigger_k - 1, self.trigger_k)
        return None


# (A, B) preference pairs.  Option 1 hands A the left side and B the right.
_A_LEFT = (Preference.OPTION1, Preference.OPTION2)
_A_RIGHT = (Preference.OPTION2, Preference.OPTION1)
_NEITHER = (Preference.INDIFFERENT, Preference.INDIFFERENT)


def preferences_from_totals(
    a_left: Sequence[int], a_right: Sequence[int]
) -> PreferenceTable:
    """Both parties' preferences per split from A's total wins when it
    districts the left side (``a_left[k]``) or the right side (``a_right[k]``).

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
    return PreferenceTable(tuple(pairs))


def optimal_preferences(profile: SplitProfile) -> PreferenceTable:
    """Each party's preference per split when both maximize districts won."""
    wins = profile.win_table.a
    return preferences_from_totals(wins.left_total, wins.right_total)


def classify_outcome(prefs: PreferenceTable) -> tuple[OutcomeKind, int]:
    """First outcome rule that applies, with the split index that fired it."""
    n = prefs.n
    for k in range(n + 1):
        pa, pb = prefs[k]
        if pa is pb and pa is not Preference.INDIFFERENT:
            return OutcomeKind.AGREEMENT, k
    for k in range(n + 1):
        pa, pb = prefs[k]
        if (pa is Preference.INDIFFERENT) != (pb is Preference.INDIFFERENT):
            return OutcomeKind.DEFERRED, k
    for k in range(n + 1):
        pa, pb = prefs[k]
        if pa is Preference.INDIFFERENT and pb is Preference.INDIFFERENT:
            return OutcomeKind.BOTH_INDIFFERENT, k
    for k in range(1, n + 1):
        if prefs[k - 1] == (Preference.OPTION2, Preference.OPTION1) and prefs[k] == (
            Preference.OPTION1,
            Preference.OPTION2,
        ):
            return OutcomeKind.COIN_FLIP, k
    raise ProtocolError("no outcome rule applies to this preference table")


def assignment_wins(profile: SplitProfile, assignment: Assignment) -> tuple[int, int]:
    """(A wins, B wins) under an assignment, both parties playing optimally."""
    side = left(assignment.k) if assignment.option is Preference.OPTION1 else right(
        assignment.k
    )
    wins_a = strategy.total_wins(profile, Party.A, side)
    return wins_a, profile.n - wins_a


def _candidates(
    k: int, n: int, lefts: Sequence[int], rights: Sequence[int]
) -> tuple[CoinFlipCandidate, ...]:
    """The crossing's candidates from A's totals at k-1 and k, per side."""
    return tuple(
        CoinFlipCandidate(Assignment(split, option), wins_a, n - wins_a)
        for split, wins_left, wins_right in zip((k - 1, k), lefts, rights)
        for option, wins_a in (
            (Preference.OPTION1, wins_left),
            (Preference.OPTION2, wins_right),
        )
    )


def coinflip_options(
    profile: SplitProfile, k: int
) -> tuple[CoinFlipCandidate, ...]:
    """The four coin-flip candidates for a crossing at (k-1, k), in canonical
    order: option 1 then 2 of the (k-1)-split, then option 1 then 2 of the
    k-split."""
    wins = profile.win_table.a
    if not 1 <= k <= profile.n:
        raise ValueError(f"split index {k} out of range 1..{profile.n}")
    window = slice(k - 1, k + 1)
    return _candidates(k, profile.n, wins.left_total[window], wins.right_total[window])


def resolve_protocol(
    profile: SplitProfile, prefs: PreferenceTable, seed: int
) -> ProtocolRun:
    """Run the outcome rules on a profile under optimal play; see
    ``resolve_from_totals``."""
    wins = profile.win_table.a
    if len(prefs) != profile.n + 1:
        raise ProtocolError(
            f"preference table covers 0..{prefs.n} but profile has n={profile.n}"
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
        chosen = candidates[seed % 4]
        return ProtocolRun(
            kind, k, chosen.assignment, chosen.wins_a, chosen.wins_b, candidates, seed
        )
    option = Preference.OPTION1 if seed % 2 == 0 else Preference.OPTION2
    wins_a = lefts[-1] if option is Preference.OPTION1 else rights[-1]
    return ProtocolRun(kind, k, Assignment(k, option), wins_a, n - wins_a, None, seed)


def resolve_from_totals(
    prefs: PreferenceTable, a_left: Sequence[int], a_right: Sequence[int], seed: int
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
    wins_a = a_left[k] if option is Preference.OPTION1 else a_right[k]
    return ProtocolRun(kind, k, Assignment(k, option), wins_a, n - wins_a, None, None)


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
    party: Party
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


@dataclass(frozen=True)
class FairnessReport:
    a: PartyFairness
    b: PartyFairness

    def party(self, party: Party) -> PartyFairness:
        return self.a if party is Party.A else self.b


def _party_fairness(
    profile: SplitProfile, run: ProtocolRun, party: Party
) -> PartyFairness:
    wins = run.wins_a if party is Party.A else run.wins_b
    target = targets.geometric_target(profile, party)
    split_target = targets.k_split_target(profile, party, run.assignment.k)
    target_delta = target - wins
    split_delta = split_target - wins
    candidate_target_deltas = None
    candidate_split_deltas = None
    if run.candidates is not None:
        split_targets = {
            k: targets.k_split_target(profile, party, k)
            for k in {c.assignment.k for c in run.candidates}
        }
        tds = []
        sds = []
        for cand in run.candidates:
            cand_wins = cand.wins_a if party is Party.A else cand.wins_b
            tds.append(target - cand_wins)
            sds.append(split_targets[cand.assignment.k] - cand_wins)
        candidate_target_deltas = (min(tds), max(tds))
        candidate_split_deltas = (min(sds), max(sds))
    return PartyFairness(
        party=party,
        wins=wins,
        target=target,
        split_target=split_target,
        target_delta=target_delta,
        split_target_delta=split_delta,
        within_target_bound=abs(target_delta) <= TARGET_BOUND,
        within_split_target_bound=abs(split_delta) <= SPLIT_TARGET_BOUND,
        candidate_target_deltas=candidate_target_deltas,
        candidate_split_target_deltas=candidate_split_deltas,
    )


def fairness_report(profile: SplitProfile, run: ProtocolRun) -> FairnessReport:
    """Exact target deltas and bound flags for a finished run."""
    ensure_valid(profile)
    try:
        expected = assignment_wins(profile, run.assignment)
    except ValueError as exc:
        raise ProtocolError(f"run does not belong to this profile: {exc}") from exc
    if expected != (run.wins_a, run.wins_b):
        raise ProtocolError(
            "run does not belong to this profile: assignment"
            f" k={run.assignment.k} {run.assignment.option.value} yields"
            f" {expected}, run records {(run.wins_a, run.wins_b)}"
        )
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


def random_profile(
    rng: random.Random, n_max: int, max_denominator: int = 12
) -> SplitProfile:
    """A random valid profile with 2 <= n <= n_max.

    Segments are p/q with q <= max_denominator; whole candidates are
    rejected until no cumulative sum lands on a half-integer.
    """
    n = rng.randint(2, n_max)
    while True:
        segments = []
        for _ in range(n):
            den = rng.randint(2, max_denominator)
            segments.append(Fraction(rng.randint(0, den), den))
        profile = SplitProfile(n, tuple(segments))
        if profile.is_valid:
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

    @property
    def ok(self) -> bool:
        return not self.violations


class _Recorder:
    """Collects failed checks and counts every check performed.

    Detail texts, and the profile document a violation carries, are built
    only for checks that fail.
    """

    def __init__(self, profile: SplitProfile | None):
        self.profile = profile
        self.checks = 0
        self.violations: list[SweepViolation] = []

    def expect(self, ok: bool, prop: str, detail: Callable[[], str] | str) -> None:
        self.checks += 1
        if not ok:
            text = detail() if callable(detail) else detail
            doc = profile_to_dict(self.profile) if self.profile is not None else None
            self.violations.append(SweepViolation(prop, text, doc))


def check_floor_ceiling_bounds(r: Fraction, s: Fraction, rec: _Recorder) -> None:
    """Floor/ceiling of a sum vs. sums of floors/ceilings differ by at most 1."""
    t = r + s
    combos = (
        ("ceil_ceil", math.ceil(t) - (math.ceil(r) + math.ceil(s))),
        ("ceil_mixed", math.ceil(t) - (math.ceil(r) + math.floor(s))),
        ("floor_mixed", math.floor(t) - (math.ceil(r) + math.floor(s))),
        ("floor_floor", math.floor(t) - (math.floor(r) + math.floor(s))),
    )
    for name, diff in combos:
        rec.expect(
            abs(diff) <= 1,
            f"floor_ceiling_sum.{name}",
            lambda: f"r={ratio_str(r)} s={ratio_str(s)} diff={diff}",
        )


def check_win_identity(x: Fraction, y: Fraction, size: int, rec: _Recorder) -> None:
    """min(floor(2x), size) + max(ceil(y - x), 0) == size whenever x + y == size."""
    total = strategy.optimal_wins(x, size) + strategy.opponent_wins(y, x)
    rec.expect(
        total == size,
        "win_identity",
        lambda: f"x={ratio_str(x)} y={ratio_str(y)} size={size} got {total}",
    )


def check_profile(
    profile: SplitProfile,
) -> tuple[int, list[SweepViolation], OutcomeKind | None]:
    """Run every cross-module invariant on one profile.

    Returns (checks performed, violations, outcome kind under optimal play).
    """
    table = profile.win_table
    rec = _Recorder(profile)
    n = profile.n
    a, b = table.a, table.b
    parties = ((Party.A, a), (Party.B, b))

    for k in range(n + 1):
        # Districter plus shut-out opponent account for every district on a side.
        rec.expect(
            a.left_districting[k] + b.left_opposed[k] == k,
            "win_identity",
            lambda: f"k={k} left: {a.left_districting[k]}+{b.left_opposed[k]} != {k}",
        )
        rec.expect(
            b.right_districting[k] + a.right_opposed[k] == n - k,
            "win_identity",
            lambda: f"k={k} right: {b.right_districting[k]}+{a.right_opposed[k]}"
            f" != {n - k}",
        )
        rec.expect(
            a.left_total[k] + b.right_total[k] == n,
            "conservation",
            lambda: f"k={k}: A(L)={a.left_total[k]} B(R)={b.right_total[k]}",
        )
        rec.expect(
            a.right_total[k] + b.left_total[k] == n,
            "conservation",
            lambda: f"k={k}: A(R)={a.right_total[k]} B(L)={b.left_total[k]}",
        )

    # Sign of A's support in each segment minus 1/2; B's is the opposite.
    a_lean = [2 * seg.numerator - seg.denominator for seg in profile.segments_a]
    for (party, wins), sign in zip(parties, (1, -1)):
        ld, ro = wins.left_districting, wins.right_opposed
        ltot, rtot = wins.left_total, wins.right_total
        for k in range(1, n + 1):
            lean = sign * a_lean[k - 1]
            d_step = ld[k] - ld[k - 1]
            o_step = ro[k] - ro[k - 1]
            if lean < 0:
                rec.expect(
                    0 <= d_step <= 1,
                    "minority_segment_districting_step",
                    lambda: f"{party.value} k={k} step={d_step}",
                )
                rec.expect(
                    0 <= o_step <= 1,
                    "minority_segment_opponent_step",
                    lambda: f"{party.value} k={k} step={o_step}",
                )
            elif lean > 0:
                rec.expect(
                    1 <= d_step <= 2,
                    "majority_segment_districting_step",
                    lambda: f"{party.value} k={k} step={d_step}",
                )
                rec.expect(
                    -1 <= o_step <= 0,
                    "majority_segment_opponent_step",
                    lambda: f"{party.value} k={k} step={o_step}",
                )
            # Segments of exactly 1/2 carry no step bound.
            rec.expect(
                ltot[k - 1] <= ltot[k] <= ltot[k - 1] + 2,
                "left_total_step",
                lambda: f"{party.value} k={k}: {ltot[k - 1]} -> {ltot[k]}",
            )
            rec.expect(
                rtot[k] <= rtot[k - 1] <= rtot[k] + 2,
                "right_total_step",
                lambda: f"{party.value} k={k}: {rtot[k - 1]} -> {rtot[k]}",
            )
            rec.expect(
                not (ltot[k - 1] > rtot[k - 1] and ltot[k] < rtot[k]),
                "crossing_direction",
                lambda: f"{party.value} k={k}: left-preferring then right-preferring",
            )

    geo = {p: targets.geometric_target(profile, p) for p in Party}
    # Twice each target as an exact ratio num/den, so that the bounds below
    # compare integers.
    twice_geo = {p: (2 * g).as_integer_ratio() for p, g in geo.items()}
    for party, wins in parties:
        ltot, rtot = wins.left_total, wins.right_total
        g_num, g_den = twice_geo[party]
        rec.expect(
            g_num == (ltot[n] + ltot[0]) * g_den,
            "target_average_identity",
            lambda: f"{party.value}: geo={ratio_str(geo[party])}"
            f" best={ltot[n]} worst={ltot[0]}",
        )
        for k in range(n + 1):
            doubled_split_target = ltot[k] + rtot[k]
            rec.expect(
                abs(g_num - doubled_split_target * g_den) <= g_den,
                "target_vs_split_target",
                lambda: f"{party.value} k={k}: geo={ratio_str(geo[party])}"
                f" split target={ratio_str(Fraction(doubled_split_target, 2))}",
            )
            rec.expect(
                2 * max(ltot[k], rtot[k]) >= doubled_split_target,
                "good_choice",
                lambda: f"{party.value} k={k}",
            )
    for k in range(n + 1):
        rec.expect(
            (a.left_total[k] + a.right_total[k]) + (b.left_total[k] + b.right_total[k])
            == 2 * n,
            "split_target_sum",
            lambda: f"k={k}",
        )
    for k, party in ((0, Party.A), (n // 2, Party.B), (n, Party.A)):
        wins = table.party(party)
        rec.expect(
            targets.k_split_target(profile, party, k)
            == Fraction(wins.left_total[k] + wins.right_total[k], 2),
            "split_target_definition",
            lambda: f"{party.value} k={k}",
        )
    rec.expect(
        k_targets_are_half_integers(profile, geo),
        "target_half_integer",
        "a target is not an integer multiple of 1/2",
    )

    prefs = optimal_preferences(profile)
    for k in range(n + 1):
        pa, pb = prefs[k]
        rec.expect(
            not (pa is pb and pa is not Preference.INDIFFERENT),
            "shared_model_opposition",
            lambda: f"k={k}: both prefer {pa.value}",
        )
    try:
        kind, trigger = classify_outcome(prefs)
    except ProtocolError:
        rec.expect(False, "outcome_exists", "no outcome under optimal play")
        return rec.checks, rec.violations, None

    if kind is OutcomeKind.COIN_FLIP:
        for party, wins in parties:
            ltot, rtot = wins.left_total, wins.right_total
            g_num, g_den = twice_geo[party]
            rec.expect(
                rtot[trigger - 1] - ltot[trigger - 1] <= 3,
                "coinflip_gap_at_most_3",
                lambda: f"{party.value} at k={trigger - 1}:"
                f" {rtot[trigger - 1]} - {ltot[trigger - 1]}",
            )
            rec.expect(
                ltot[trigger] - rtot[trigger] <= 3,
                "coinflip_gap_at_most_3",
                lambda: f"{party.value} at k={trigger}:"
                f" {ltot[trigger]} - {rtot[trigger]}",
            )
            for i in (trigger - 1, trigger):
                doubled_split_target = ltot[i] + rtot[i]
                for wins_i in (ltot[i], rtot[i]):
                    rec.expect(
                        abs(doubled_split_target - 2 * wins_i) <= 3,
                        "coinflip_split_target_bound",
                        lambda: f"{party.value} i={i} wins={wins_i}",
                    )
                    rec.expect(
                        abs(g_num - 2 * wins_i * g_den) <= 4 * g_den,
                        "coinflip_target_bound",
                        lambda: f"{party.value} i={i} wins={wins_i}",
                    )
        candidates = coinflip_options(profile, trigger)
        order_ok = tuple(
            (c.assignment.k, c.assignment.option) for c in candidates
        ) == (
            (trigger - 1, Preference.OPTION1),
            (trigger - 1, Preference.OPTION2),
            (trigger, Preference.OPTION1),
            (trigger, Preference.OPTION2),
        )
        rec.expect(order_ok, "coinflip_candidate_order", lambda: f"trigger={trigger}")
        for cand in candidates:
            rec.expect(
                cand.wins_a + cand.wins_b == n,
                "conservation",
                lambda: f"candidate k={cand.assignment.k}"
                f" {cand.assignment.option.value}",
            )
    else:
        # A satisfied party (preference honored, or indifferent between equal
        # options) reaches at least its split target, hence lands within 1/2
        # of the geometric target.
        run = resolve_protocol(profile, prefs, 0)
        report = fairness_report(profile, run)
        pa, pb = prefs[run.trigger_k]
        for party, pref in ((Party.A, pa), (Party.B, pb)):
            stats = report.party(party)
            if pref is Preference.INDIFFERENT:
                rec.expect(
                    stats.split_target_delta == 0,
                    "indifference_is_exact",
                    lambda: f"{party.value}: indifferent but wins differ from"
                    " split target",
                )
            rec.expect(
                stats.split_target_delta <= 0,
                "good_choice_realized",
                lambda: f"{party.value}: wins below split target in outcome"
                f" {kind.value}",
            )
            rec.expect(
                stats.target_delta <= Fraction(1, 2),
                "settled_outcome_target_gap",
                lambda: f"{party.value}: gap {ratio_str(stats.target_delta)}",
            )

    return rec.checks, rec.violations, kind


def k_targets_are_half_integers(profile: SplitProfile, geo: dict) -> bool:
    if not all(is_half_integer(g) and 0 <= g <= profile.n for g in geo.values()):
        return False
    for k in (0, profile.n):
        for party in Party:
            if not is_half_integer(targets.k_split_target(profile, party, k)):
                return False
    return True


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
    for index in range(count):
        rng = random.Random(mix_seed(seed, index))
        profile = random_profile(rng, n_max)
        checks, bad, kind = check_profile(profile)
        total_checks += checks
        violations.extend(bad)
        if kind is not None:
            outcomes[kind.value] += 1
        rec = _Recorder(None)
        r = Fraction(rng.randint(1, 400), rng.randint(1, 20))
        s = Fraction(rng.randint(1, 400), rng.randint(1, 20))
        check_floor_ceiling_bounds(r, s, rec)
        size = rng.randint(0, n_max)
        den = rng.randint(1, 20)
        x = Fraction(rng.randint(0, size * den), den)
        check_win_identity(x, size - x, size, rec)
        total_checks += rec.checks
        violations.extend(rec.violations)
    return SweepReport(count, total_checks, outcomes, violations)


# --- serialization ----------------------------------------------------------


def run_to_dict(run: ProtocolRun) -> dict:
    doc = {
        "outcome": run.outcome.value,
        "triggerK": run.trigger_k,
        "assignment": {"k": run.assignment.k, "option": run.assignment.option.value},
        "winsA": run.wins_a,
        "winsB": run.wins_b,
        "seedConsumed": run.seed is not None,
    }
    if run.seed is not None:
        doc["seed"] = run.seed
    if run.crossing_pair is not None:
        doc["crossingPair"] = list(run.crossing_pair)
    if run.candidates is not None:
        doc["candidates"] = [
            {
                "k": c.assignment.k,
                "option": c.assignment.option.value,
                "winsA": c.wins_a,
                "winsB": c.wins_b,
            }
            for c in run.candidates
        ]
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
    if stats.candidate_target_deltas is not None:
        lo, hi = stats.candidate_target_deltas
        doc["candidateDeltaGeoMin"] = ratio_str(lo)
        doc["candidateDeltaGeoMax"] = ratio_str(hi)
    if stats.candidate_split_target_deltas is not None:
        lo, hi = stats.candidate_split_target_deltas
        doc["candidateDeltaGeoKMin"] = ratio_str(lo)
        doc["candidateDeltaGeoKMax"] = ratio_str(hi)
    return doc


def fairness_to_dict(report: FairnessReport) -> dict:
    return {
        "A": _party_fairness_to_dict(report.a),
        "B": _party_fairness_to_dict(report.b),
    }


def candidate_rows(
    profile: SplitProfile, run: ProtocolRun
) -> list[dict]:
    """CSV-shaped rows: one per coin-flip candidate, or one for the resolved
    assignment when no coin flip happened."""
    geo = {p: targets.geometric_target(profile, p) for p in Party}
    entries: Iterable[tuple[Assignment, int, int]]
    if run.candidates is not None:
        entries = [(c.assignment, c.wins_a, c.wins_b) for c in run.candidates]
    else:
        entries = [(run.assignment, run.wins_a, run.wins_b)]
    rows = []
    for assignment, wins_a, wins_b in entries:
        split_a = targets.k_split_target(profile, Party.A, assignment.k)
        split_b = targets.k_split_target(profile, Party.B, assignment.k)
        rows.append(
            {
                "k": assignment.k,
                "option": assignment.option.value,
                "winsA": wins_a,
                "winsB": wins_b,
                "deltaGeoA": ratio_str(geo[Party.A] - wins_a),
                "deltaGeoKA": ratio_str(split_a - wins_a),
                "deltaGeoB": ratio_str(geo[Party.B] - wins_b),
                "deltaGeoKB": ratio_str(split_b - wins_b),
            }
        )
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
