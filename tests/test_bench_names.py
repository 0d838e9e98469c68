"""The benchmark's traced run replaces lry's public functions by name, so a
refactor that drops or renames one of them, or changes how one is called,
must fail here, not only when the benchmark runs."""

import importlib
import io
import json
from pathlib import Path

import pytest

import lry
import lry.cli  # noqa: F401  (check_names reads lry.cli and lry.grid)
import lry.grid  # noqa: F401

BENCH = Path(__file__).resolve().parent.parent / "bench"

# A five-district profile whose optimal play settles with both parties
# indifferent, so its report has one entry and no candidate spans.
SETTLED_PROFILE = {"n": 5, "segments_a": ["3/10", "4/5", "1/5", "2/5", "1/5"]}


@pytest.fixture
def traced(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("traced")


def test_traced_run_finds_every_public_name(traced):
    traced.check_names(lry)


def _stdout(argv):
    out = io.StringIO()
    code = lry.cli.main(list(argv), stdout=out)
    return code, out.getvalue()


def test_traced_stdout_equals_untraced(traced, tmp_path):
    settled = tmp_path / "settled.json"
    settled.write_text(json.dumps(SETTLED_PROFILE))
    requests = (
        ("example-2gap",),
        ("example-2gap", "--format", "csv"),
        ("simulate", "--input", str(settled)),
        ("simulate", "--input", str(settled), "--format", "csv"),
        ("geodelta", "--delta", "6", "--format", "csv"),
        ("verify", "--count", "20"),
        ("oracle", "--count", "3"),
    )
    tracer = traced.Tracer()
    for argv in requests:
        untraced = _stdout(argv)
        with traced.instrumented(lry, tracer):
            assert _stdout(argv) == untraced, argv
        assert untraced[0] == 0, argv
    for layer in ("protocol.candidate_rows", "protocol.fairness_report",
                  "grid.geodelta_report", "protocol.check_profile",
                  "grid.max_wins_bruteforce", "grid.validate_plan",
                  "grid.enumerate_region_plans", "cli.serialize"):
        assert tracer.layers[layer].calls > 0, layer
