import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lry import model, protocol
from lry.model import SplitProfile
from lry.protocol import (
    Assignment,
    OutcomeKind,
    Preference,
    PreferenceTable,
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
    return PreferenceTable(tuple(pairs))


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
        profile = SplitProfile(2, (Fraction("0.3"), Fraction("0.3")))
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


class TestCoinflipOptions:
    def test_canonical_order_and_values(self, two_gap):
        cands = coinflip_options(two_gap, 6)
        assert [(c.assignment.k, c.assignment.option) for c in cands] == [
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
        assert run.crossing_pair == (5, 6)
        assert (run.wins_a, run.wins_b) == (2, 8)
        assert run.seed == 3

    def test_seed_two_even_split(self, two_gap):
        run = resolve_protocol(two_gap, optimal_preferences(two_gap), 2)
        assert (run.wins_a, run.wins_b) == (5, 5)

    def test_seeds_cycle_candidates(self, two_gap):
        prefs = optimal_preferences(two_gap)
        winners = [resolve_protocol(two_gap, prefs, s).wins_a for s in range(8)]
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
        assert run.assignment == Assignment(2, OPT2)

    def test_both_indifferent_uses_parity(self):
        profile = SplitProfile(2, (Fraction("0.3"), Fraction("0.3")))
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

    def test_profiles_match_resolve_protocol(self, two_gap):
        profiles = [two_gap, SplitProfile(2, (Fraction("0.3"), Fraction("0.3")))]
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
        other = SplitProfile(2, (Fraction("0.3"), Fraction("0.4")))
        with pytest.raises(ProtocolError):
            fairness_report(other, run)


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
            assert profile.is_valid
            assert 2 <= profile.n <= 15


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
        rows = protocol.candidate_rows(two_gap, run)
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
        rows = protocol.candidate_rows(two_gap, run)
        assert len(rows) == 1
        assert rows[0]["k"] == 4
