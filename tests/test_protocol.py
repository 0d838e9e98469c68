import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from closed_forms import opponent_wins, optimal_wins
from lry import model, protocol, targets
from lry.model import Party, Side, SplitProfile, ratio_str
from lry.protocol import (
    Assignment,
    OutcomeKind,
    Preference,
    ProtocolError,
    classify_outcome,
    coinflip_options,
    fairness_report,
    mix_seed,
    optimal_preferences,
    optimal_run,
    preferences_from_totals,
    property_sweep,
    resolve_from_totals,
    resolve_optimal,
    resolve_protocol,
)

OPT1 = Preference.OPTION1
OPT2 = Preference.OPTION2
INDIFF = Preference.INDIFFERENT


@pytest.fixture
def two_gap():
    return model.two_gap_profile()


def table(*pairs):
    """A hand-built preference table: the (A, B) pair of split k at index k."""
    return pairs


class TestOptimalPreferences:
    def test_example_crossing(self, two_gap):
        prefs = optimal_preferences(two_gap)
        assert prefs[5] == (OPT2, OPT1)
        assert prefs[6] == (OPT1, OPT2)

    def test_boundary_splits_are_anchored(self, two_gap):
        prefs = optimal_preferences(two_gap)
        assert prefs[0] == (OPT2, OPT1)
        assert prefs[two_gap.n] == (OPT1, OPT2)

    def test_equal_totals_mean_both_indifferent(self):
        profile = SplitProfile.of(2, (Fraction("0.3"), Fraction("0.3")))
        prefs = optimal_preferences(profile)
        assert prefs[1] == (INDIFF, INDIFF)

    def test_never_same_option(self, two_gap):
        prefs = optimal_preferences(two_gap)
        for k in range(two_gap.n + 1):
            pa, pb = prefs[k]
            assert not (pa is pb and pa is not INDIFF)


class TestClassifyOutcome:
    def test_example_is_coin_flip(self, two_gap):
        assert classify_outcome(optimal_preferences(two_gap)) == (OutcomeKind.COIN_FLIP, 6)

    def test_agreement_beats_everything(self):
        prefs = table((OPT2, OPT1), (OPT2, OPT1), (OPT2, OPT1), (OPT1, OPT1), (OPT1, OPT2))
        assert classify_outcome(prefs) == (OutcomeKind.AGREEMENT, 3)

    def test_single_indifference_defers(self):
        prefs = table((OPT2, OPT1), (OPT2, OPT1), (INDIFF, OPT2), (OPT1, OPT2))
        assert classify_outcome(prefs) == (OutcomeKind.DEFERRED, 2)

    def test_double_indifference(self):
        prefs = table((OPT2, OPT1), (INDIFF, INDIFF), (OPT1, OPT2))
        assert classify_outcome(prefs) == (OutcomeKind.BOTH_INDIFFERENT, 1)

    def test_smallest_k_wins(self):
        prefs = table((OPT1, OPT1), (OPT2, OPT2), (OPT1, OPT2))
        assert classify_outcome(prefs) == (OutcomeKind.AGREEMENT, 0)

    def test_no_rule_is_an_error(self):
        # opposed everywhere and crossing in the direction the rules ignore
        prefs = table((OPT1, OPT2), (OPT2, OPT1))
        with pytest.raises(ProtocolError):
            classify_outcome(prefs)

    def test_empty_table_is_an_error(self):
        with pytest.raises(ProtocolError, match="no outcome rule"):
            classify_outcome(())


class TestCoinflipOptions:
    def test_canonical_order_and_values(self, two_gap):
        cands = coinflip_options(two_gap, 6)
        assert [(c.k, c.option) for c in cands] == [
            (5, OPT1),
            (5, OPT2),
            (6, OPT1),
            (6, OPT2),
        ]
        assert [c.wins_a for c in cands] == [3, 4, 5, 2]
        assert [c.wins_b for c in cands] == [7, 6, 5, 8]

    def test_pairs_sum_to_n(self, two_gap):
        for k in range(1, two_gap.n + 1):
            for cand in coinflip_options(two_gap, k):
                assert cand.wins_a + cand.wins_b == two_gap.n

    def test_k_zero_rejected(self, two_gap):
        with pytest.raises(ValueError):
            coinflip_options(two_gap, 0)


class TestResolve:
    def test_seed_three_picks_worst_candidate(self, two_gap):
        run = resolve_protocol(two_gap, optimal_preferences(two_gap), 3)
        assert run.outcome is OutcomeKind.COIN_FLIP
        assert protocol.run_to_dict(run)["crossingPair"] == [5, 6]
        assert (run.assignment.wins_a, run.assignment.wins_b) == (2, 8)
        assert run.seed == 3

    def test_seed_two_even_split(self, two_gap):
        run = resolve_protocol(two_gap, optimal_preferences(two_gap), 2)
        assert (run.assignment.wins_a, run.assignment.wins_b) == (5, 5)

    def test_seeds_cycle_candidates(self, two_gap):
        prefs = optimal_preferences(two_gap)
        winners = [resolve_protocol(two_gap, prefs, s).assignment.wins_a for s in range(8)]
        assert winners == [3, 4, 5, 2, 3, 4, 5, 2]

    def test_agreement_ignores_seed(self, two_gap):
        prefs = [(OPT2, OPT1)] * 11
        prefs[3] = (OPT1, OPT1)
        injected = table(*prefs)
        runs = {resolve_protocol(two_gap, injected, s) for s in range(10)}
        assert len(runs) == 1
        run = runs.pop()
        assert run.outcome is OutcomeKind.AGREEMENT
        assert run.seed is None
        assert run.candidates is None

    def test_deferred_adopts_the_decided_party(self, two_gap):
        prefs = [(OPT2, OPT1)] * 11
        prefs[2] = (INDIFF, OPT2)
        run = resolve_protocol(two_gap, table(*prefs), 0)
        assert run.outcome is OutcomeKind.DEFERRED
        assert run.assignment == Assignment(2, OPT2, 6, 4)

    def test_both_indifferent_uses_parity(self):
        profile = SplitProfile.of(2, (Fraction("0.3"), Fraction("0.3")))
        prefs = optimal_preferences(profile)
        even = resolve_protocol(profile, prefs, 4)
        odd = resolve_protocol(profile, prefs, 7)
        assert even.outcome is OutcomeKind.BOTH_INDIFFERENT
        assert even.assignment.option is OPT1
        assert odd.assignment.option is OPT2

    def test_table_must_cover_profile(self, two_gap):
        with pytest.raises(ProtocolError):
            resolve_protocol(two_gap, table((OPT2, OPT1), (OPT1, OPT2)), 0)


def reference_runs(a_left, a_right):
    """The runs for seeds 0..3 through the preference table and all four
    outcome rules, or the ``ProtocolError`` they raise."""
    try:
        prefs = preferences_from_totals(a_left, a_right)
        return [resolve_from_totals(prefs, a_left, a_right, s) for s in range(4)]
    except ProtocolError:
        return ProtocolError


def one_pass_runs(splits, a_left, a_right):
    try:
        return [resolve_optimal(splits, a_left, a_right, s) for s in range(4)]
    except ProtocolError:
        return ProtocolError


# Totals drawn from 0..3, so that ties are common everywhere, also at k = 0
# and k = n, where the preference is pinned.
tied_totals = st.integers(0, 12).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 3), min_size=n + 1, max_size=n + 1),
        st.lists(st.integers(0, 3), min_size=n + 1, max_size=n + 1),
    )
)


@st.composite
def step_totals(draw):
    """Totals on 0..n that change only at the drawn breakpoints, with the
    breakpoints and the values there."""
    n = draw(st.integers(0, 60))
    inner = draw(st.sets(st.integers(0, n), max_size=8))
    splits = sorted({0, 1, n - 1, n, *inner} & set(range(n + 1)))
    lefts = draw(st.lists(st.integers(0, 4), min_size=len(splits), max_size=len(splits)))
    rights = draw(st.lists(st.integers(0, 4), min_size=len(splits), max_size=len(splits)))
    dense_left, dense_right = [], []
    for i, k in enumerate(splits):
        run = (splits[i + 1] if i + 1 < len(splits) else n + 1) - k
        dense_left += [lefts[i]] * run
        dense_right += [rights[i]] * run
    return splits, lefts, rights, dense_left, dense_right


class TestResolveOptimal:
    @settings(max_examples=400)
    @given(tied_totals)
    @example(([2], [2]))  # n = 0
    @example(([1, 2], [1, 2]))  # ties at k = 0 and k = n only
    @example(([3, 0, 3], [3, 2, 3]))  # ties at both ends, a turn nowhere inside
    @example(([0, 2, 2, 1], [1, 1, 2, 2]))  # a turn before the first tie
    def test_every_split_matches_the_preference_table(self, totals):
        a_left, a_right = totals
        expected = reference_runs(a_left, a_right)
        assert one_pass_runs(range(len(a_left)), a_left, a_right) == expected

    @settings(max_examples=300)
    @given(step_totals())
    def test_breakpoints_match_the_dense_totals(self, drawn):
        splits, lefts, rights, dense_left, dense_right = drawn
        expected = reference_runs(dense_left, dense_right)
        assert one_pass_runs(range(len(dense_left)), dense_left, dense_right) == expected
        assert one_pass_runs(splits, lefts, rights) == expected

    @pytest.mark.parametrize("splits", [[0, 2, 3], [0, 1, 3], [1, 2, 3], [0, 3]])
    def test_samples_must_hold_the_pinned_neighbours(self, splits):
        # n = 3: splits 0, 1, 2 and 3 must all be sampled
        totals = [0] * len(splits)
        with pytest.raises(ProtocolError, match="must include"):
            resolve_optimal(splits, totals, totals, 0)

    @pytest.mark.parametrize(
        "splits, a_left, a_right",
        [
            ([], [], []),
            ([0, 1, 2], [0, 1], [1, 0]),  # a coin flip from short totals
            ([0, 1, 2], [0, 1, 1], [1, 0]),
            ([0, 1, 2], [0, 1], [1, 0, 0]),
            ([0, 1], [0, 1, 1], [1, 0, 0]),
        ],
    )
    def test_totals_must_match_the_splits(self, splits, a_left, a_right):
        with pytest.raises(ProtocolError, match="need one of each per split, and a split"):
            resolve_optimal(splits, a_left, a_right, 0)

    def test_profiles_match_resolve_protocol(self, two_gap):
        profiles = [two_gap, SplitProfile.of(2, (Fraction("0.3"), Fraction("0.3")))]
        profiles += [
            protocol.random_profile(random.Random(mix_seed(5, i)), 30) for i in range(60)
        ]
        for profile in profiles:
            prefs = optimal_preferences(profile)
            for seed in range(4):
                assert optimal_run(profile, seed) == resolve_protocol(profile, prefs, seed)


class TestFairness:
    def test_worst_candidate_hits_both_bounds(self, two_gap):
        run = resolve_protocol(two_gap, optimal_preferences(two_gap), 3)
        report = fairness_report(two_gap, run)
        assert report.a.target_delta == 2
        assert report.a.split_target_delta == Fraction(3, 2)
        assert report.a.within_target_bound
        assert report.a.within_split_target_bound
        assert report.b.target_delta == -2

    def test_zero_delta_candidate(self, two_gap):
        run = resolve_protocol(two_gap, optimal_preferences(two_gap), 1)
        report = fairness_report(two_gap, run)
        assert report.a.wins == 4
        assert report.a.target_delta == 0

    def test_candidate_ranges(self, two_gap):
        run = resolve_protocol(two_gap, optimal_preferences(two_gap), 0)
        report = fairness_report(two_gap, run)
        assert report.a.candidate_target_deltas == (Fraction(-1), Fraction(2))
        assert report.a.candidate_split_target_deltas == (
            Fraction(-3, 2),
            Fraction(3, 2),
        )

    def test_mismatched_run_rejected(self, two_gap):
        run = resolve_protocol(two_gap, optimal_preferences(two_gap), 0)
        other = SplitProfile.of(2, (Fraction("0.3"), Fraction("0.4")))
        with pytest.raises(ProtocolError):
            fairness_report(other, run)
        # Candidate 1 (k=5, option 2) truly gives A 4 and B 6; swapped, A's
        # span would read (-2, 2) and that row's deltaGeoKA -5/2.
        cands = list(run.candidates)
        cands[1] = dataclasses.replace(cands[1], wins_a=6, wins_b=4)
        tampered = dataclasses.replace(run, candidates=tuple(cands))
        with pytest.raises(ProtocolError, match="entry k=5 option2 yields"):
            fairness_report(two_gap, tampered)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_deltas_match_the_targets_computed_directly(self, seed):
        # Every entry's deltas, CSV row and span against the targets
        # computed from scratch, over both outcomes optimal play reaches.
        seen = set()
        for index in range(200):
            profile = protocol.random_profile(random.Random(mix_seed(seed, index)), 20)
            run = optimal_run(profile, seed)
            seen.add(run.outcome)
            report = fairness_report(profile, run)
            entries = run.candidates or (run.assignment,)
            rows = protocol.candidate_rows(run, report)
            for party in Party:
                stats = report.party(party)
                geo = targets.geometric_target(profile, party)
                expected = []
                for entry in entries:
                    won = entry.wins_a if party is Party.A else entry.wins_b
                    split = targets.k_split_target(profile, party, entry.k)
                    expected.append((geo - won, split - won))
                assert list(stats.entry_deltas) == expected
                assert [
                    (row["deltaGeo" + party.value], row["deltaGeoK" + party.value])
                    for row in rows
                ] == [(ratio_str(g), ratio_str(k)) for g, k in expected]
                realized = expected[entries.index(run.assignment)]
                assert (stats.target_delta, stats.split_target_delta) == realized
                assert stats.target == geo
                spans = (stats.candidate_target_deltas, stats.candidate_split_target_deltas)
                if run.candidates is None:
                    assert spans == (None, None)
                else:
                    assert spans == tuple((min(c), max(c)) for c in zip(*expected))
        assert seen == {OutcomeKind.COIN_FLIP, OutcomeKind.BOTH_INDIFFERENT}


class ExpectRecorder(protocol._Recorder):
    def expect(self, ok, prop, detail):
        self.checks += 1
        if not ok:
            self.fail(prop, detail() if callable(detail) else detail)


def targets_are_half_integers(profile, geo):
    if not all((2 * g).denominator == 1 and 0 <= g <= profile.n for g in geo.values()):
        return False
    for k in (0, profile.n):
        for party in Party:
            if (2 * targets.k_split_target(profile, party, k)).denominator != 1:
                return False
    return True


def reference_check_profile(profile):
    """``protocol.check_profile`` as it was before it took its outcome from
    ``optimal_run``: the outcome through the preference table and every
    outcome rule, and each check through ``expect`` with a lazy detail."""
    table = profile.win_table
    rec = ExpectRecorder(profile)
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
        targets_are_half_integers(profile, geo),
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
            (c.k, c.option) for c in candidates
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
                lambda: f"candidate k={cand.k} {cand.option.value}",
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


def corrupted_profiles(deltas, count=2000):
    """Seeded random profiles, nine in ten with one win-table entry of one
    party moved by a step drawn from ``deltas``."""
    for i in range(count):
        rng = random.Random(mix_seed(11, i))
        profile = protocol.random_profile(rng, 12)
        if rng.random() < 0.9:
            table = profile.win_table
            party = rng.choice(table._fields)
            wins = getattr(table, party)
            field = rng.choice(wins._fields)
            values = list(getattr(wins, field))
            values[rng.randrange(len(values))] += rng.choice(deltas)
            wins = wins._replace(**{field: tuple(values)})
            profile.__dict__["win_table"] = table._replace(**{party: wins})
        yield profile


def checked(result):
    checks, violations, kind = result
    return checks, [(v.prop, v.detail) for v in violations], kind


# Every property that the off-by-one corpus below makes fail.
OFF_BY_ONE_PROPERTIES = {
    "coinflip_gap_at_most_3", "coinflip_split_target_bound", "coinflip_target_bound",
    "conservation", "good_choice_realized", "indifference_is_exact", "left_total_step",
    "majority_segment_districting_step", "majority_segment_opponent_step",
    "minority_segment_districting_step", "minority_segment_opponent_step",
    "right_total_step", "settled_outcome_target_gap", "split_target_sum",
    "target_average_identity", "target_vs_split_target", "win_identity",
}


class TestCheckProfileReference:
    def test_off_by_one_tables_match_the_reference(self):
        fired = set()
        for profile in corrupted_profiles((-1, 1)):
            result = checked(protocol.check_profile(profile))
            assert result == checked(reference_check_profile(profile))
            fired.update(prop for prop, _ in result[1])
        assert fired == OFF_BY_ONE_PROPERTIES

    def test_wider_errors_add_only_the_opposition_check(self):
        # The reference reads B's preference off A's totals, so it cannot
        # see B's totals disagree; with one entry moved by 2 or 3 they can.
        opposed = 0
        for profile in corrupted_profiles((-3, -2, 2, 3)):
            checks, violations, kind = checked(protocol.check_profile(profile))
            kept = [v for v in violations if v[0] != "shared_model_opposition"]
            opposed += len(violations) - len(kept)
            assert (checks, kept, kind) == checked(reference_check_profile(profile))
        assert opposed > 0


class TestSweep:
    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            property_sweep(0, 10, 1)

    def test_n_max_floor(self):
        with pytest.raises(ValueError):
            property_sweep(5, 1, 1)

    def test_small_sweep_is_clean(self):
        report = property_sweep(200, 12, seed=7)
        assert report.instances == 200
        assert report.violations == []
        assert report.checks > 10000
        assert sum(report.outcomes.values()) == 200
        assert report.outcomes["agreement"] == 0
        assert report.outcomes["deferred"] == 0

    def test_fixed_profile_checks_clean(self, two_gap):
        checks, violations, kind = protocol.check_profile(two_gap)
        assert violations == []
        assert kind is OutcomeKind.COIN_FLIP
        assert checks > 100

    def test_sweep_is_deterministic(self):
        a = property_sweep(50, 8, seed=3)
        b = property_sweep(50, 8, seed=3)
        assert protocol.sweep_to_dict(a) == protocol.sweep_to_dict(b)

    def test_mix_seed_spreads(self):
        values = {mix_seed(0, i) for i in range(1000)}
        assert len(values) == 1000
        assert mix_seed(1, 0) != mix_seed(0, 1)
        assert all(0 <= v < 2**64 for v in values)

    def test_random_profiles_are_valid(self):
        rng = random.Random(123)
        for _ in range(50):
            profile = protocol.random_profile(rng, 15)
            assert not profile.violations
            assert 2 <= profile.n <= 15


class TestDrawnProfiles:
    def test_draws_are_valid_on_the_least_scale(self):
        # The draw marks its profile valid; the full check must agree.
        for seed in range(4):
            for n_max in (2, 3, 20, 60):
                for index in range(100):
                    rng = random.Random(mix_seed(seed, index))
                    profile = protocol.random_profile(rng, n_max)
                    assert profile.violations == ()
                    assert tuple(model._check(profile)) == (), (seed, n_max, index)
                    assert profile == SplitProfile.of(profile.n, profile.segments_a)


def reference_floor_ceiling_bounds(r, s, rec):
    """``protocol.check_floor_ceiling_bounds`` on ``math.floor`` and
    ``math.ceil`` of Fractions, as it was before it took integer floors."""
    t = r + s
    combos = (
        ("ceil_ceil", math.ceil(t) - (math.ceil(r) + math.ceil(s))),
        ("ceil_mixed", math.ceil(t) - (math.ceil(r) + math.floor(s))),
        ("floor_mixed", math.floor(t) - (math.ceil(r) + math.floor(s))),
        ("floor_floor", math.floor(t) - (math.floor(r) + math.floor(s))),
    )
    rec.checks += len(combos)
    for name, diff in combos:
        if abs(diff) > 1:
            detail = f"r={ratio_str(r)} s={ratio_str(s)} diff={diff}"
            rec.fail(f"floor_ceiling_sum.{name}", detail)
    return combos


ratios = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=30),
    st.fractions(max_denominator=10**12),
    st.integers(-10**20, 10**20).map(Fraction),
)


class TestFloorCeilingBounds:
    @settings(max_examples=500, deadline=None)
    @given(ratios, ratios)
    @example(Fraction(0), Fraction(0))
    @example(Fraction(-7, 3), Fraction(7, 3))  # the sum is the integer 0
    @example(Fraction(-1, 2), Fraction(-1, 2))
    @example(Fraction(5, 4), Fraction(-3))
    def test_integer_floors_match_math_floor_and_ceil(self, r, s):
        rec, ref = protocol._Recorder(None), protocol._Recorder(None)
        combos = reference_floor_ceiling_bounds(r, s, ref)
        pairs = r.as_integer_ratio(), s.as_integer_ratio()
        assert protocol._floor_ceiling_combos(*pairs) == combos
        protocol.check_floor_ceiling_bounds(*pairs, rec)
        assert (rec.checks, rec.violations) == (ref.checks, ref.violations)

    @settings(max_examples=200, deadline=None)
    @given(ratios, ratios, st.integers(1, 30), st.integers(1, 30))
    def test_pairs_need_not_be_in_lowest_terms(self, r, s, r_factor, s_factor):
        # The sweep hands over its draws as drawn, such as (4, 2) for 2.
        r_num, r_den = r.as_integer_ratio()
        s_num, s_den = s.as_integer_ratio()
        unreduced = (r_factor * r_num, r_factor * r_den), (s_factor * s_num, s_factor * s_den)
        assert protocol._floor_ceiling_combos(*unreduced) == protocol._floor_ceiling_combos(
            (r_num, r_den), (s_num, s_den)
        )

    def test_a_wide_combo_fails_with_its_detail(self, monkeypatch):
        # Exact floors and ceilings never differ by more than 1, so the
        # failure path is reached through a wrong combo.
        wrong = (("ceil_ceil", 0), ("ceil_mixed", 2), ("floor_mixed", -1), ("floor_floor", -3))
        monkeypatch.setattr(protocol, "_floor_ceiling_combos", lambda r, s: wrong)
        rec = protocol._Recorder(None)
        protocol.check_floor_ceiling_bounds(
            Fraction(-7, 3).as_integer_ratio(), Fraction(5).as_integer_ratio(), rec
        )
        assert rec.checks == 4
        assert [(v.prop, v.detail, v.profile) for v in rec.violations] == [
            ("floor_ceiling_sum.ceil_mixed", "r=-7/3 s=5 diff=2", None),
            ("floor_ceiling_sum.floor_floor", "r=-7/3 s=5 diff=-3", None),
        ]


def reference_random_profile(
    rng: random.Random, n_max: int, max_denominator: int = 12
) -> SplitProfile:
    """The draw ``random_profile`` must match, RNG state included: it builds
    Fractions and a ``SplitProfile`` for every candidate and asks
    for its ``violations``."""
    n = rng.randint(2, n_max)
    while True:
        segments = []
        for _ in range(n):
            den = rng.randint(2, max_denominator)
            segments.append(Fraction(rng.randint(0, den), den))
        profile = SplitProfile.of(n, tuple(segments))
        if not profile.violations:
            return profile


def scaled_sums(segments: list[tuple[int, int]]) -> tuple[int, list[int]]:
    """``(L, P)`` for segments given as ``(p, q)`` pairs, in lowest terms or
    not: L is the lcm of the q's and ``P[k]`` is L times the sum of the first
    k segments."""
    scale = math.lcm(*[den for _, den in segments])
    sums = [0]
    for num, den in segments:
        sums.append(sums[-1] + num * (scale // den))
    return scale, sums


@st.composite
def unreduced_pairs(draw):
    """Segments as (p, q) with 0 <= p <= q, often not in lowest terms."""
    pairs = []
    for _ in range(draw(st.integers(1, 8))):
        q = draw(st.integers(1, 12))
        factor = draw(st.integers(1, 4))
        pairs.append((factor * draw(st.integers(0, q)), factor * q))
    return pairs


class TestRandomProfileReference:
    def test_draws_match_the_reference(self):
        for index in range(20000):
            n_max = (2, 3, 20, 60)[index % 4]
            rng = random.Random(mix_seed(17, index))
            ref_rng = random.Random(mix_seed(17, index))
            profile = protocol.random_profile(rng, n_max)
            expected = reference_random_profile(ref_rng, n_max)
            assert (profile.n, profile.segments_a) == (expected.n, expected.segments_a)
            assert rng.getstate() == ref_rng.getstate(), index
            assert not profile.violations

    @settings(max_examples=300, deadline=None)
    @given(unreduced_pairs())
    @example([(2, 4), (1, 3), (1, 5)])  # only the first prefix, 1/2
    @example([(1, 3), (1, 5), (3, 6)])  # only the last suffix, 1/2
    @example([(1, 4), (3, 4)])  # only the whole sum, 1
    def test_integer_rule_matches_fractions(self, pairs):
        n = len(pairs)
        scale, prefix = scaled_sums(pairs)
        found = list(model.half_integer_sums(scale, prefix))
        profile = SplitProfile.of(n, tuple(Fraction(p, q) for p, q in pairs))
        sums = [sum((Fraction(p, q) for p, q in pairs[:k]), Fraction(0)) for k in range(n + 1)]
        expected = [
            (Side.LEFT, k, sums[k]) for k in range(1, n + 1) if (2 * sums[k]).denominator == 1
        ] + [
            (Side.RIGHT, k, sums[n] - sums[k])
            for k in range(n)
            if (2 * (sums[n] - sums[k])).denominator == 1
        ]
        assert [(side, k, Fraction(v, scale)) for side, k, v in found] == expected
        assert (not found) == (not profile.violations)


def reference_tail_draws(count, n_max, seed):
    """The arguments ``property_sweep`` must hand its two scalar checks,
    drawn with ``rng.randint`` after ``reference_random_profile`` on each
    instance's sub-seed: r and s as the (numerator, denominator) pairs drawn,
    and x, y = size - x, their common denominator and size."""
    calls = []
    for index in range(count):
        rng = random.Random(mix_seed(seed, index))
        reference_random_profile(rng, n_max)
        r = (rng.randint(1, 400), rng.randint(1, 20))
        s = (rng.randint(1, 400), rng.randint(1, 20))
        calls.append(("floor_ceiling", r, s))
        size = rng.randint(0, n_max)
        den = rng.randint(1, 20)
        x = rng.randint(0, size * den)
        calls.append(("win_identity", x, size * den - x, den, size))
    return calls


def reference_win_identity(x, y, size, rec):
    """``protocol.check_win_identity`` on the ``Fraction`` closed forms of
    ``closed_forms``, as it was before it took integer numerators; returns
    the total."""
    total = optimal_wins(x, size) + opponent_wins(y, x)
    rec.checks += 1
    if total != size:
        rec.fail("win_identity", f"x={ratio_str(x)} y={ratio_str(y)} size={size} got {total}")
    return total


@st.composite
def win_identity_args(draw):
    """(x, y, den, size): x and y numerators over den > 0, often with
    x + y != size, negative ones included."""
    den = draw(st.one_of(st.integers(1, 30), st.integers(1, 10**12)))
    size = draw(st.integers(0, 60))
    x = draw(st.integers(-den * (size + 2), den * (size + 2)))
    y = size * den - x + draw(st.one_of(st.just(0), st.integers(-3 * den, 3 * den)))
    return x, y, den, size


class TestWinIdentity:
    """``protocol.check_win_identity`` on integers against the ``Fraction``
    closed forms of ``closed_forms``, which stay the reference."""

    @settings(max_examples=500, deadline=None)
    @given(win_identity_args())
    @example((0, 0, 1, 1))  # x + y < size: min(0, 1) + max(0, 0) = 0
    @example((2, 4, 4, 3))  # x = 1/2, y = 1
    @example((-3, 5, 2, 4))  # x = -3/2, y = 5/2
    @example((7, 3, 5, 2))  # x + y == size exactly
    def test_integers_match_the_fraction_reference(self, args):
        x, y, den, size = args
        rec, ref = protocol._Recorder(None), protocol._Recorder(None)
        total = reference_win_identity(Fraction(x, den), Fraction(y, den), size, ref)
        assert protocol._win_identity_total(x, y, den, size) == total
        protocol.check_win_identity(x, y, den, size, rec)
        assert (rec.checks, rec.violations) == (ref.checks, ref.violations)

    def test_every_tail_draw_matches_the_closed_forms(self):
        for seed in range(4):
            for n_max in (2, 3, 20, 60):
                for call in reference_tail_draws(30, n_max, seed):
                    if call[0] != "win_identity":
                        continue
                    _, x, y, den, size = call
                    expected = optimal_wins(Fraction(x, den), size) + (
                        opponent_wins(Fraction(y, den), Fraction(x, den))
                    )
                    assert protocol._win_identity_total(x, y, den, size) == expected == size


class TestSweepDrawReference:
    """The sweep draws on ``rng.getrandbits`` as ``randrange`` would.  Both
    tests depend on CPython's ``Random._randbelow_with_getrandbits`` (the same
    in 3.10 to 3.13, and the project requires 3.10 or later); they must run,
    never skipped or expected to fail, on every interpreter, since a change
    there would change every sweep."""

    def test_randbelow_matches_randrange(self):
        for seed in range(12):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            for width in range(1, 1025):
                assert protocol._randbelow(rng, width) == ref_rng.randrange(width)
                assert rng.getstate() == ref_rng.getstate(), (seed, width)

    def test_empty_width_raises(self):
        rng = random.Random(0)
        for width in (0, -1):
            with pytest.raises(ValueError):
                protocol._randbelow(rng, width)
        for n_max in (1, 0):
            with pytest.raises(ValueError):
                protocol.random_profile(rng, n_max)

    def test_tail_draws_match_the_reference(self, monkeypatch):
        calls = []
        floor_ceiling = protocol.check_floor_ceiling_bounds
        win_identity = protocol.check_win_identity

        def record_floor_ceiling(r, s, rec):
            calls.append(("floor_ceiling", r, s))
            floor_ceiling(r, s, rec)

        def record_win_identity(x, y, den, size, rec):
            calls.append(("win_identity", x, y, den, size))
            win_identity(x, y, den, size, rec)

        monkeypatch.setattr(protocol, "check_floor_ceiling_bounds", record_floor_ceiling)
        monkeypatch.setattr(protocol, "check_win_identity", record_win_identity)
        for seed in range(4):
            for n_max in (2, 3, 20, 60):
                calls.clear()
                property_sweep(30, n_max, seed)
                assert calls == reference_tail_draws(30, n_max, seed), (seed, n_max)


class TestSerialization:
    def test_run_dict_round_shape(self, two_gap):
        run = resolve_protocol(two_gap, optimal_preferences(two_gap), 3)
        doc = protocol.run_to_dict(run)
        assert doc["winsA"] == 2
        assert doc["crossingPair"] == [5, 6]
        assert doc["seed"] == 3
        assert len(doc["candidates"]) == 4

    def test_fairness_dict_values_are_ratio_strings(self, two_gap):
        run = resolve_protocol(two_gap, optimal_preferences(two_gap), 3)
        doc = protocol.fairness_to_dict(fairness_report(two_gap, run))
        assert doc["A"]["geo"] == "4"
        assert doc["A"]["deltaGeo"] == "2"
        assert doc["A"]["deltaGeoK"] == "3/2"
        assert doc["B"]["geoK"] == "13/2"

    def test_candidate_rows(self, two_gap):
        run = resolve_protocol(two_gap, optimal_preferences(two_gap), 0)
        rows = protocol.candidate_rows(run, fairness_report(two_gap, run))
        assert len(rows) == 4
        assert rows[3] == {
            "k": 6,
            "option": "option2",
            "winsA": 2,
            "winsB": 8,
            "deltaGeoA": "2",
            "deltaGeoKA": "3/2",
            "deltaGeoB": "-2",
            "deltaGeoKB": "-3/2",
        }

    def test_single_row_for_settled_runs(self, two_gap):
        prefs = [(OPT2, OPT1)] * 11
        prefs[4] = (OPT1, OPT1)
        run = resolve_protocol(two_gap, table(*prefs), 0)
        rows = protocol.candidate_rows(run, fairness_report(two_gap, run))
        assert len(rows) == 1
        assert rows[0]["k"] == 4
