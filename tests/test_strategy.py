import math
import random
from collections import defaultdict
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from lry import model, oracle, strategy, targets
from lry.model import Party, Side, SplitProfile, Violation
from lry.protocol import mix_seed, random_profile


@pytest.fixture
def two_gap():
    return model.two_gap_profile()


def segment_support(profile, party, k):
    """Support for ``party`` in the segment between the (k-1)- and k-splits."""
    seg = profile.segments_a[k - 1]
    return seg if party is Party.A else 1 - seg


class TestDistrictingWins:
    def test_minority_packs_three_of_five(self, two_gap):
        # A holds 1.9 of the 5 left districts
        assert strategy.wins_when_districting(two_gap, Party.A, Side.LEFT, 5) == 3

    def test_larger_left_side(self, two_gap):
        assert strategy.wins_when_districting(two_gap, Party.A, Side.LEFT, 6) == 5

    def test_majority_sweeps_side(self):
        profile = SplitProfile.of(3, (Fraction("0.8"), Fraction("0.9"), Fraction("0.9")))
        assert model.validate_profile(profile) == ()
        # 2.6 of 3: a statewide majority wins every district it draws
        assert strategy.wins_when_districting(profile, Party.A, Side.LEFT, 3) == 3

    def test_matches_enumeration_on_small_side(self):
        # 1.3 of 3 districts at twentieth granularity
        support = Fraction("1.3")
        assert strategy.optimal_wins(support, 3) == 2
        assert strategy.bruteforce_districting_wins(support, 3) == 2

    def test_invalid_profile_refused(self):
        bad = SplitProfile.of(2, (Fraction(1, 4), Fraction(1, 4)))
        with pytest.raises(model.ProfileError):
            strategy.wins_when_districting(bad, Party.A, Side.LEFT, 1)


class TestOpponentWins:
    def test_opponent_majority_erases(self, two_gap):
        # B outweighs A 2.6 to 1.4 on the right of split 6
        assert strategy.wins_when_opponent_districts(two_gap, Party.A, Side.RIGHT, 6) == 0

    def test_leftover_seats_survive(self, two_gap):
        assert strategy.wins_when_opponent_districts(two_gap, Party.B, Side.LEFT, 5) == 2

    def test_minority_gets_nothing(self):
        assert strategy.opponent_wins(Fraction(1, 3), Fraction(2, 3)) == 0


class TestTotalWins:
    def test_example_totals(self, two_gap):
        assert strategy.total_wins(two_gap, Party.A, Side.LEFT, 5) == 3
        assert strategy.total_wins(two_gap, Party.A, Side.RIGHT, 5) == 4
        assert strategy.total_wins(two_gap, Party.A, Side.LEFT, 6) == 5
        assert strategy.total_wins(two_gap, Party.A, Side.RIGHT, 6) == 2

    def test_full_state_side(self, two_gap):
        n = two_gap.n
        expected = strategy.optimal_wins(Fraction(two_gap.prefix_a[-1], two_gap.scale), n)
        assert strategy.total_wins(two_gap, Party.A, Side.LEFT, n) == expected

    def test_conservation(self, two_gap):
        n = two_gap.n
        for k in range(n + 1):
            assert (
                strategy.total_wins(two_gap, Party.A, Side.LEFT, k)
                + strategy.total_wins(two_gap, Party.B, Side.RIGHT, k)
                == n
            )


@given(
    st.integers(1, 12),
    st.fractions(min_value=0, max_value=12, max_denominator=100),
)
def test_win_identity(size, x):
    """The districter's wins plus the shut-out opponent's wins fill the side."""
    x = min(x, Fraction(size))
    y = size - x
    assert strategy.optimal_wins(x, size) + strategy.opponent_wins(y, x) == size


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32))
def test_step_bounds_on_random_profiles(seed):
    """Adding one segment moves each win count by a bounded step whose range
    depends on which party carries the segment."""
    rng = random.Random(mix_seed(seed, 0))
    profile = random_profile(rng, 8)
    half = Fraction(1, 2)
    for party in Party:
        for k in range(1, profile.n + 1):
            seg = segment_support(profile, party, k)
            d_step = strategy.wins_when_districting(
                profile, party, Side.LEFT, k
            ) - strategy.wins_when_districting(profile, party, Side.LEFT, k - 1)
            o_step = strategy.wins_when_opponent_districts(
                profile, party, Side.RIGHT, k
            ) - strategy.wins_when_opponent_districts(profile, party, Side.RIGHT, k - 1)
            if seg < half:
                assert 0 <= d_step <= 1
                assert 0 <= o_step <= 1
            elif seg > half:
                assert 1 <= d_step <= 2
                assert -1 <= o_step <= 0
            lhs = strategy.total_wins(profile, party, Side.LEFT, k - 1)
            rhs = strategy.total_wins(profile, party, Side.LEFT, k)
            assert lhs <= rhs <= lhs + 2
            r_new = strategy.total_wins(profile, party, Side.RIGHT, k)
            r_old = strategy.total_wins(profile, party, Side.RIGHT, k - 1)
            assert r_new <= r_old <= r_new + 2


# Large primes: denominators drawn from them without repeats are pairwise
# coprime, so the table's scale L is their product, up to about 500 digits.
LARGE_PRIMES = (
    2**31 - 1, 2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1,
    10**9 + 7, 10**9 + 9, 998244353,
)


@st.composite
def coprime_profiles(draw):
    dens = draw(st.permutations(LARGE_PRIMES))[: draw(st.integers(1, len(LARGE_PRIMES)))]
    # Numerators strictly inside (0, den): a sum of such terms keeps every
    # prime in its denominator, so it is never a half-integer and the
    # profile is valid.
    segs = tuple(Fraction(draw(st.integers(1, d - 1)), d) for d in dens)
    return SplitProfile.of(len(segs), segs)


@settings(deadline=None, max_examples=150)
@given(coprime_profiles())
def test_win_table_matches_fraction_closed_forms(profile):
    """Every integer table entry equals the Fraction closed form evaluated on
    the Fraction side supports."""
    n = profile.n
    for party in Party:
        wins = profile.win_table.party(party)
        for k in range(n + 1):
            for side, other, size, districting, opposed, total in (
                (
                    (Side.LEFT, k), (Side.RIGHT, k), k,
                    wins.left_districting, wins.left_opposed, wins.left_total,
                ),
                (
                    (Side.RIGHT, k), (Side.LEFT, k), n - k,
                    wins.right_districting, wins.right_opposed, wins.right_total,
                ),
            ):
                mine = model.side_support(profile, party, *side)
                theirs = model.side_support(profile, party.opponent, *side)
                drawing = strategy.optimal_wins(mine, size)
                assert districting[k] == drawing
                assert opposed[k] == strategy.opponent_wins(mine, theirs)
                assert total[k] == drawing + strategy.opponent_wins(
                    model.side_support(profile, party, *other),
                    model.side_support(profile, party.opponent, *other),
                )


def closed_form_wins(prefix):
    """``PartyWins`` from the Fraction closed forms, given a party's support
    left of each split as Fractions."""
    n = len(prefix) - 1
    rows = []
    for k, x in enumerate(prefix):
        y = prefix[n] - x
        ld, rd = strategy.optimal_wins(x, k), strategy.optimal_wins(y, n - k)
        lo, ro = strategy.opponent_wins(x, k - x), strategy.opponent_wins(y, n - k - y)
        rows.append((ld, rd, lo, ro, ld + ro, rd + lo))
    return model.PartyWins(*map(tuple, zip(*rows)))


@st.composite
def scaled_prefixes(draw):
    """A scale and a non-decreasing prefix from 0 with steps in [0, scale]:
    small, non-minimal or 27720 = lcm(2..12) scales, with steps often landing
    the sums on exact multiples of scale/2."""
    scale = draw(st.sampled_from((1, 2, 3, 4, 5, 6, 12, 27720))) * draw(st.integers(1, 4))
    half = scale // 2 if scale % 2 == 0 else scale
    step = st.one_of(st.sampled_from((0, half, scale)), st.integers(0, scale))
    prefix = [0]
    for _ in range(draw(st.integers(1, 10))):
        prefix.append(prefix[-1] + draw(step))
    return scale, prefix


@settings(deadline=None, max_examples=300)
@given(scaled_prefixes())
@example((2, [0, 1, 2, 3]))  # every sum an exact half
@example((27720, [0, 13860, 27720, 27721]))  # halves on the draw scale
@example((12, [0, 0, 12, 24]))  # whole sums after an empty segment
def test_scaled_table_matches_fraction_closed_forms(scaled):
    scale, prefix = scaled
    expected = closed_form_wins([Fraction(p, scale) for p in prefix])
    assert model.PartyWins.from_scaled(scale, prefix) == expected


@settings(deadline=None, max_examples=300)
@given(scaled_prefixes(), st.integers(1, 10**30))
@example((27720, [0, 13860, 27720, 27721]), 7)
@example((5, [0, 3, 4]), 27720)  # a valid profile
def test_scaled_results_do_not_depend_on_the_scale(scaled, c):
    """The win table, the half-integer verdicts, the whole validation and the
    geometric target are the same at scale L and at c * L."""
    scale, prefix = scaled
    big = [c * x for x in prefix]
    assert model.WinTable.from_scaled(c * scale, big) == model.WinTable.from_scaled(
        scale, prefix
    )
    assert list(model.half_integer_sums(c * scale, big)) == [
        (side, k, c * x) for side, k, x in model.half_integer_sums(scale, prefix)
    ]
    n = len(prefix) - 1
    small_profile = SplitProfile(n, scale, tuple(prefix))
    big_profile = SplitProfile(n, c * scale, tuple(big))
    assert big_profile.violations == small_profile.violations
    if not small_profile.violations:
        for party in Party:
            assert targets.geometric_target(big_profile, party) == targets.geometric_target(
                small_profile, party
            )


def test_random_profile_tables_match_fraction_closed_forms():
    for index in range(300):
        profile = random_profile(random.Random(mix_seed(23, index)), 12)
        segments = profile.segments_a
        # The draw's sums are on the least scale, so they are the segments'.
        assert profile == SplitProfile.of(profile.n, segments)
        assert profile.scale == math.lcm(*[seg.denominator for seg in segments])
        assert model.profile_from_dict(model.profile_to_dict(profile)) == profile
        prefix_a = [sum(segments[:k], Fraction(0)) for k in range(profile.n + 1)]
        prefix_b = [k - x for k, x in enumerate(prefix_a)]
        assert profile.win_table.a == closed_form_wins(prefix_a)
        assert profile.win_table.b == closed_form_wins(prefix_b)


def fraction_violations(profile: SplitProfile) -> list[Violation]:
    """The profile rules checked on Fraction sums: a sum s is an integer
    multiple of 1/2 when 2s is an integer."""
    found = []
    for k, seg in enumerate(profile.segments_a, start=1):
        if not 0 <= seg <= 1:
            found.append(Violation(
                None, k, f"segment {k} support {model.ratio_str(seg)} outside [0, 1]"
            ))
    prefix = [sum(profile.segments_a[:k], Fraction(0)) for k in range(profile.n + 1)]
    for k in range(1, profile.n + 1):
        if (2 * prefix[k]).denominator == 1:
            found.append(Violation(
                Side.LEFT, k, f"support left of split {k} is"
                f" {model.ratio_str(prefix[k])}, an integer multiple of 1/2",
            ))
    for k in range(profile.n):
        suffix = prefix[-1] - prefix[k]
        if (2 * suffix).denominator == 1:
            found.append(Violation(
                Side.RIGHT, k, f"support right of split {k} is"
                f" {model.ratio_str(suffix)}, an integer multiple of 1/2",
            ))
    return found


@st.composite
def mixed_profiles(draw):
    """Small denominators, so that half-integer sums occur, mixed with large
    coprime ones; numerators may leave [0, 1]."""
    size = draw(st.integers(1, 8))
    dens = draw(st.lists(
        st.sampled_from((1, 2, 3, 4, 6, 10) + LARGE_PRIMES), min_size=size, max_size=size
    ))
    segs = tuple(Fraction(draw(st.integers(-1, d + 1)), d) for d in dens)
    return SplitProfile.of(size, segs)


@settings(deadline=None, max_examples=300)
@given(mixed_profiles())
def test_integer_validation_matches_fraction_check(profile):
    assert list(model.validate_profile(profile)) == fraction_violations(profile)


class TestBruteforceOracle:
    def test_rejects_large_sides(self):
        with pytest.raises(ValueError):
            strategy.bruteforce_districting_wins(Fraction(1), 5)

    def test_rejects_off_grid_support(self):
        with pytest.raises(ValueError):
            strategy.bruteforce_districting_wins(Fraction(1, 3), 2)

    def test_opponent_requires_integral_side(self):
        with pytest.raises(ValueError):
            strategy.bruteforce_opponent_wins(Fraction(1, 4), Fraction(1, 2))

    def test_exhaustive_agreement_sample(self):
        for size in (1, 2, 3):
            for units in range(0, 20 * size + 1, 3):
                if (2 * units) % 20 == 0:
                    continue
                x = Fraction(units, 20)
                assert strategy.bruteforce_districting_wins(x, size) == strategy.optimal_wins(
                    x, size
                )
                assert strategy.bruteforce_opponent_wins(
                    x, size - x
                ) == strategy.opponent_wins(x, size - x)


@pytest.mark.parametrize("granularity", [20, 7])
@pytest.mark.parametrize("parts", [1, 2, 3, 4])
def test_allocations_are_every_ordered_split_up_to_order(parts, granularity):
    # The held-count table against every ordered allocation of the units.
    held = defaultdict(set)
    for ordered in product(range(granularity + 1), repeat=parts):
        held[sum(ordered)].add(sum(2 * u >= granularity for u in ordered))
    assert strategy._held_counts(parts, granularity) == held


class TestImpossibleSupports:
    def test_districting_support_above_the_side(self):
        with pytest.raises(ValueError, match=r"support 3 outside \[0, 2\]"):
            strategy.bruteforce_districting_wins(Fraction(3), 2)

    def test_districting_support_below_zero(self):
        with pytest.raises(ValueError, match="outside"):
            strategy.bruteforce_districting_wins(Fraction(-1, 20), 2)

    def test_opponent_support_below_zero(self):
        # The closed form would give 4 wins out of 2 districts.
        assert strategy.opponent_wins(Fraction(3), Fraction(-1)) == 4
        with pytest.raises(ValueError, match=r"support -1 outside \[0, 2\]"):
            strategy.bruteforce_opponent_wins(Fraction(3), Fraction(-1))

    def test_opponent_support_above_the_side(self):
        with pytest.raises(ValueError, match="outside"):
            strategy.bruteforce_opponent_wins(Fraction(-1, 20), Fraction(41, 20))

    def test_table_has_no_default(self):
        table = strategy._held_counts(2, 20)
        assert set(table) == set(range(41))
        for units in (-1, 41):
            with pytest.raises(KeyError):
                table[units]


def fraction_districting_wins(support, districts):
    """``bruteforce_districting_wins`` as it decoded its arguments in
    ``Fraction`` arithmetic, kept as the reference for the integer decoding."""
    if districts > strategy.MAX_ORACLE_DISTRICTS:
        raise ValueError(
            f"oracle limited to sides of {strategy.MAX_ORACLE_DISTRICTS} districts,"
            f" got {districts}"
        )
    if not 0 <= support <= districts:
        raise ValueError(f"support {support} outside [0, {districts}]")
    units = support * strategy.DEFAULT_GRANULARITY
    if units.denominator != 1:
        raise ValueError(
            f"support {support} is not a multiple of 1/{strategy.DEFAULT_GRANULARITY}"
        )
    return max(strategy._held_counts(districts, strategy.DEFAULT_GRANULARITY)[units.numerator])


def fraction_opponent_wins(support, opponent_support):
    total = support + opponent_support
    if total.denominator != 1:
        raise ValueError("side supports must sum to a whole number of districts")
    districts = total.numerator
    return districts - fraction_districting_wins(opponent_support, districts)


def outcome(function, *args):
    try:
        return "value", function(*args)
    except ValueError as error:
        return "error", str(error)


oracle_supports = st.one_of(
    st.integers(-2, 6),
    st.builds(Fraction, st.integers(-130, 330), st.integers(1, 60)),
)


@st.composite
def opponent_arguments(draw):
    """A support and an opponent support, summing to a whole number of
    districts from -1 to 4 or to anything at all."""
    support = draw(oracle_supports)
    if draw(st.booleans()):
        return support, draw(st.integers(-1, 4)) - support
    return support, draw(oracle_supports)


@settings(deadline=None, max_examples=500)
@given(oracle_supports, st.integers(-1, 4))
@example(Fraction(1, 40), 1)
@example(4, 4)
def test_integer_districting_decoding_matches_fractions(support, districts):
    assert outcome(strategy.bruteforce_districting_wins, support, districts) == outcome(
        fraction_districting_wins, support, districts
    )


@settings(deadline=None, max_examples=500)
@given(opponent_arguments())
@example((Fraction(1, 4), Fraction(1, 2)))
@example((3, -1))
def test_integer_opponent_decoding_matches_fractions(arguments):
    assert outcome(strategy.bruteforce_opponent_wins, *arguments) == outcome(
        fraction_opponent_wins, *arguments
    )


@pytest.mark.parametrize(
    "field, kind", [("left_districting", "districting"), ("left_opposed", "opponent")]
)
def test_oracle_catches_a_wrong_closed_form(monkeypatch, field, kind):
    # The production table, one win off in one field on every left side of
    # 3 districts.
    right = model.PartyWins.from_scaled

    def off_by_one_at_size_3(cls, scale, left_support):
        wins = right(scale, left_support)
        counts = getattr(wins, field)
        if len(counts) <= 3:
            return wins
        return wins._replace(**{field: counts[:3] + (counts[3] + 1,) + counts[4:]})

    monkeypatch.setattr(model.PartyWins, "from_scaled", classmethod(off_by_one_at_size_3))
    checked, mismatches = oracle.strategy_oracle_mismatches()
    assert checked == 180
    assert mismatches and {m["kind"] for m in mismatches} == {kind}
    assert all("size=3 " in m["detail"] for m in mismatches)


def test_oracle_catches_a_wrong_allocation_search(monkeypatch):
    # The size-2 held-count table read one unit off: the entry for u units
    # is the one for u + 1.
    right = strategy._held_counts

    def one_unit_off(parts, capacity):
        table = right(parts, capacity)
        if parts != 2:
            return table
        return {units: table.get(units + 1, held) for units, held in table.items()}

    monkeypatch.setattr(strategy, "_held_counts", one_unit_off)
    checked, mismatches = oracle.strategy_oracle_mismatches()
    assert checked == 180
    assert {m["kind"] for m in mismatches} == {"districting", "opponent"}
    assert all("size=2 " in m["detail"] for m in mismatches)
    assert mismatches[0]["detail"] == "size=2 support=9/20 formula=0 bruteforce=1"


def test_strategy_oracle_builds_no_fraction(monkeypatch):
    # A Fraction is built only for a mismatch's detail text.
    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} built by a passing strategy oracle")

    monkeypatch.setattr(oracle, "Fraction", no_fraction)
    assert oracle.strategy_oracle_mismatches() == (180, [])
