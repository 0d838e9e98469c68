"""The benchmark's traced run replaces lry's public functions by name, so a
refactor that drops or renames one of them must fail here, not only when the
benchmark runs."""

import importlib
from pathlib import Path

import lry
import lry.cli  # noqa: F401  (check_names reads lry.cli and lry.grid)
import lry.grid  # noqa: F401

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_run_finds_every_public_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    traced = importlib.import_module("traced")
    traced.check_names(lry)
