import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from closed_forms import opponent_wins, optimal_wins
from lry import model, strategy, targets
from lry.model import Party, Side, SplitProfile
from lry.protocol import mix_seed, random_profile


@pytest.fixture
def two_gap():
    return model.two_gap_profile()


def test_example_target(two_gap):
    assert targets.geometric_target(two_gap, Party.A) == 4
    assert targets.geometric_target(two_gap, Party.B) == 6


def test_tiny_minority():
    profile = SplitProfile.of(1, (Fraction("0.2"),))
    assert targets.geometric_target(profile, Party.A) == 0


def test_majority_target_from_best_and_worst():
    profile = SplitProfile.of(10, (Fraction("0.53"),) * 10)
    assert model.validate_profile(profile) == ()
    # best case 10 wins, worst case ceil(5.3 - 4.7) = 1
    total_a = Fraction(profile.prefix_a[-1], profile.scale)
    best = optimal_wins(total_a, 10)
    worst = opponent_wins(total_a, profile.n - total_a)
    assert (best, worst) == (10, 1)
    assert targets.geometric_target(profile, Party.A) == Fraction(11, 2)


def test_split_target_examples(two_gap):
    assert targets.k_split_target(two_gap, Party.A, 5) == Fraction(7, 2)
    assert targets.k_split_target(two_gap, Party.A, 6) == Fraction(7, 2)


def test_degenerate_split_equals_target(two_gap):
    for party in Party:
        assert targets.k_split_target(two_gap, party, 0) == targets.geometric_target(
            two_gap, party
        )
        assert targets.k_split_target(two_gap, party, two_gap.n) == targets.geometric_target(
            two_gap, party
        )


def test_invalid_profile_refused():
    bad = SplitProfile.of(2, (Fraction(1, 2), Fraction(1, 4)))
    with pytest.raises(model.ProfileError):
        targets.geometric_target(bad, Party.A)


@given(st.integers(0, 2**32))
def test_target_is_best_worst_average(seed):
    rng = random.Random(mix_seed(seed, 1))
    profile = random_profile(rng, 10)
    for party in Party:
        best = strategy.total_wins(profile, party, Side.LEFT, profile.n)
        worst = strategy.total_wins(profile, party, Side.LEFT, 0)
        assert targets.geometric_target(profile, party) == Fraction(best + worst, 2)


@given(st.integers(0, 2**32))
def test_doubled_targets_are_the_fraction_closed_forms_as_ints(seed):
    # Best plus worst case on each party's whole-state support as an exact
    # Fraction, through the closed forms of ``closed_forms``.
    profile = random_profile(random.Random(mix_seed(seed, 3)), 20)
    n = profile.n
    total_a = Fraction(profile.prefix_a[-1], profile.scale)
    for party, support in ((Party.A, total_a), (Party.B, n - total_a)):
        doubled = targets.doubled_geometric_target(profile, party)
        best = optimal_wins(support, n)
        worst = opponent_wins(support, n - support)
        assert type(doubled) is int and doubled == best + worst
        assert targets.geometric_target(profile, party) == Fraction(doubled, 2)
        for k in range(n + 1):
            doubled_split = targets.doubled_k_split_target(profile, party, k)
            assert type(doubled_split) is int
            assert targets.k_split_target(profile, party, k) == Fraction(doubled_split, 2)


@given(st.integers(0, 2**32))
def test_split_target_properties(seed):
    rng = random.Random(mix_seed(seed, 2))
    profile = random_profile(rng, 10)
    n = profile.n
    for k in range(n + 1):
        split_a = targets.k_split_target(profile, Party.A, k)
        split_b = targets.k_split_target(profile, Party.B, k)
        assert split_a + split_b == n
        assert (2 * split_a).denominator == 1
        for party, split in ((Party.A, split_a), (Party.B, split_b)):
            geo = targets.geometric_target(profile, party)
            assert abs(geo - split) <= Fraction(1, 2)
            best_option = max(
                strategy.total_wins(profile, party, Side.LEFT, k),
                strategy.total_wins(profile, party, Side.RIGHT, k),
            )
            assert best_option >= split


@given(
    st.fractions(min_value=0, max_value=1000, max_denominator=999).filter(lambda f: f > 0),
    st.fractions(min_value=0, max_value=1000, max_denominator=999).filter(lambda f: f > 0),
)
def test_floor_ceiling_sum_bounds(r, s):
    """Rounding a sum differs from summing roundings by at most one."""
    t = r + s
    assert abs(math.ceil(t) - (math.ceil(r) + math.ceil(s))) <= 1
    assert abs(math.ceil(t) - (math.ceil(r) + math.floor(s))) <= 1
    assert abs(math.floor(t) - (math.ceil(r) + math.floor(s))) <= 1
    assert abs(math.floor(t) - (math.floor(r) + math.floor(s))) <= 1
