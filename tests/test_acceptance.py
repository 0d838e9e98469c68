"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
happen; every check is exact, with runtime ceilings where stated.
"""

import io
import json
import time
from fractions import Fraction

from closed_forms import opponent_wins, optimal_wins
from lry import cli, grid, model, oracle, protocol, strategy, targets
from lry.model import Party
from lry.protocol import OutcomeKind


def _report(label, fn):
    try:
        fn()
    except BaseException:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label}")


def _run_cli(*argv):
    out = io.StringIO()
    code = cli.main(list(argv), stdout=out)
    return code, out.getvalue()


def test_criterion_1_example_reproduction():
    def check():
        start = time.perf_counter()
        profile = model.two_gap_profile()
        assert model.validate_profile(profile) == ()
        cands = protocol.coinflip_options(profile, 6)
        assert [(c.wins_a, c.wins_b) for c in cands] == [(3, 7), (4, 6), (5, 5), (2, 8)]
        assert targets.k_split_target(profile, Party.A, 5) == Fraction(7, 2)
        assert targets.k_split_target(profile, Party.A, 6) == Fraction(7, 2)
        assert targets.geometric_target(profile, Party.A) == 4
        prefs = protocol.optimal_preferences(profile)
        kind, k = protocol.classify_outcome(prefs)
        assert kind is OutcomeKind.COIN_FLIP and (k - 1, k) == (5, 6)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"

    _report("criterion 1: built-in example reproduced exactly", check)


def test_criterion_2_bound_tightness():
    def check():
        profile = model.two_gap_profile()
        prefs = protocol.optimal_preferences(profile)
        run = protocol.resolve_protocol(profile, prefs, 3)  # the worst candidate for A
        report = protocol.fairness_report(profile, run)
        assert abs(report.a.target_delta) == 2
        assert abs(report.a.split_target_delta) == Fraction(3, 2)

    _report("criterion 2: both fairness bounds are attained exactly", check)


def test_criterion_3_property_sweep():
    def check():
        start = time.perf_counter()
        report = protocol.property_sweep(10000, 20, seed=1)
        elapsed = time.perf_counter() - start
        assert report.instances == 10000
        assert report.violations == [], report.violations[:3]
        assert elapsed < 60.0, f"took {elapsed:.1f}s"

    _report("criterion 3: 10,000-profile invariant sweep, zero violations", check)


def test_criterion_4_unconstrained_oracle():
    def check():
        granularity = oracle.GRANULARITY
        checked = 0
        for size in range(1, 5):
            for units in range(0, granularity * size + 1):
                if (2 * units) % granularity == 0:
                    continue  # half-integer side supports are excluded
                support = Fraction(units, granularity)
                other = size - support
                assert strategy.bruteforce_districting_wins(
                    support, size
                ) == optimal_wins(support, size), (size, support)
                assert strategy.bruteforce_opponent_wins(
                    support, other
                ) == opponent_wins(support, other), (size, support)
                checked += 1
        assert checked >= 180

    _report("criterion 4: closed forms equal exhaustive allocation search", check)


def test_criterion_5_constrained_gap_family():
    def check():
        for delta in (1, 2, 5, 10):
            start = time.perf_counter()
            report = grid.geodelta_report(delta, seed=0)
            elapsed = time.perf_counter() - start
            assert report.total_support_a == 51 * delta
            assert report.target_a == Fraction(delta, 2)
            assert protocol.run_to_dict(report.run)["crossingPair"] == [delta - 1, delta]
            if delta >= 2:
                assert [c.wins_a for c in report.run.candidates] == [0, 1, 1, 0]
            assert report.worst_gap_a == Fraction(delta, 2)
            assert report.gap_exceeds_unconstrained_bound == (delta >= 5)
            if delta == 10:
                assert elapsed < 10.0, f"delta=10 took {elapsed:.1f}s"
        g, _ = grid.make_geodelta(1)
        # the four 10x10 quadrants: one win for A, the best case per band
        plan = tuple(
            frozenset((bi + i, bj + j) for i in range(1, 11) for j in range(1, 11))
            for bi in (0, 10)
            for bj in (0, 10)
        )
        assert grid.validate_plan(g, plan) == ()
        assert grid.count_wins(g, plan, Party.A) == 1

    _report("criterion 5: constrained family misses the target by delta/2", check)


def test_criterion_6_grid_oracle():
    def check():
        instances, analogue_checked, mismatches = oracle.grid_oracle_mismatches(100, seed=0, cap=16)
        assert instances >= 100
        assert analogue_checked
        assert mismatches == []

    _report("criterion 6: grid search consistent and analogue counting exact", check)


def test_criterion_7_determinism():
    def check():
        for argv in (
            ["example-2gap", "--seed", "3"],
            ["example-2gap", "--seed", "2", "--format", "csv"],
            ["verify", "--count", "25", "--n-max", "8", "--seed", "6"],
            ["geodelta", "--delta", "3", "--seed", "1"],
            ["oracle", "--count", "3", "--seed", "0"],
        ):
            assert _run_cli(*argv) == _run_cli(*argv), argv
        wins = []
        for seed in range(4):
            code, text = _run_cli("example-2gap", "--seed", str(seed))
            assert code == 0
            doc = json.loads(text)
            wins.append((doc["run"]["assignment"]["k"], doc["run"]["assignment"]["option"], doc["run"]["winsA"]))
        assert wins == [
            (5, "option1", 3),
            (5, "option2", 4),
            (6, "option1", 5),
            (6, "option2", 2),
        ]

    _report("criterion 7: byte-identical reruns; seeds 0..3 walk the candidates", check)
