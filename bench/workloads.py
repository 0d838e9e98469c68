"""The four benchmark workloads: the requests each one sends and the check
each response must pass.

A request is one ``lry`` CLI invocation, given as its argv with every flag
spelled out, so that a change of a CLI default (``--oracle-cap`` is slated
to grow) cannot silently change what a workload measures.  The workload seed
chooses where in its cyclic list of requests a run starts and, where the
check needs no recorded answer, the CLI seeds; the inputs a check compares
with recorded answers come from fixed pools in ``reference.json`` (see
``record.py``).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

SWEEP_COUNT = 20
SWEEP_N_MAX = 20

# Distinct band counts in the tens, 10 and 40 (the acceptance sizes) among
# them.  There is one more of them than the geodelta table cache holds, and
# each run sends them in one fixed cyclic order, so a delta comes back only
# after its cache entry is gone and every request pays a cold start, as a
# CLI user does.  Small deltas keep a pass short: the more passes a run
# makes, the more repeats each latency quantile rests on.
GEODELTA_DELTAS = (10, 12, 14, 16, 18, 20, 24, 30, 40)

ORACLE_COUNT = 25
ORACLE_CAP = 16
ORACLE_STRATEGY_CONFIGS = 180
# A run cycles through this many consecutive seeds of the pool, so that
# each oracle latency rests on several repeats of its request.
ORACLE_CYCLE = 3

# The simulate profiles are fixed: their recorded stdout digests are the
# check.  Half use decimals and small denominators, half one shared odd
# 332-digit denominator, at the same district counts.
SIMULATE_PROFILE_SEED = 1811_05705
SIMULATE_SIZES = (16, 40, 100, 250, 600, 1500)
SIMULATE_LARGE_DIGITS = 332
SIMULATE_FORMATS = ("json", "csv")
EXAMPLE_SEEDS = (0, 1, 2, 3)


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    items: int  # units of work the request completes, for items_per_s
    key: str  # names the request in reference.json and in failure messages
    cls: str = ""  # simulate only: denominator class of the input profile


@dataclass(frozen=True)
class Workload:
    name: str
    window: int  # requests per throughput sample
    make_requests: Callable[[random.Random, dict, Path], list[Request]]
    check: Callable[[Request, str, dict], str | None]  # error text or None


def stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile: the smallest value with at least ``q`` of the
    values at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


# --- sweep ------------------------------------------------------------------


def sweep_argv(seed: int) -> tuple[str, ...]:
    return (
        "verify", "--count", str(SWEEP_COUNT), "--n-max", str(SWEEP_N_MAX),
        "--seed", str(seed), "--format", "json",
    )


def _sweep_requests(rng: random.Random, ref: dict, workdir: Path) -> list[Request]:
    seeds = rotated(list(range(len(ref["sweep"]["histograms"]))), rng)
    return [Request(sweep_argv(seed), SWEEP_COUNT, str(seed)) for seed in seeds]


def _sweep_check(req: Request, text: str, ref: dict) -> str | None:
    doc = json.loads(text)
    if doc["violations"]:
        first = doc["violations"][0]
        return f"{len(doc['violations'])} violation(s), first {first['property']}"
    if doc["instances"] != SWEEP_COUNT:
        return f"{doc['instances']} instances, expected {SWEEP_COUNT}"
    kinds = ref["sweep"]["kinds"]
    expected = dict(zip(kinds, ref["sweep"]["histograms"][int(req.key)]))
    if doc["outcomes"] != expected:
        return f"outcomes {doc['outcomes']}, recorded {expected}"
    return None


# --- geodelta ---------------------------------------------------------------


def rotated(items: list, rng: random.Random) -> list:
    """``items`` in their cyclic order from a seeded starting point.

    Workloads that cycle through a fixed set keep its order for every seed:
    how long a request takes depends on the requests before it (the heap
    they leave, the cache entries they evict), and a fixed order keeps that
    the same from run to run.
    """
    start = rng.randrange(len(items))
    return items[start:] + items[:start]


def _geodelta_requests(rng: random.Random, ref: dict, workdir: Path) -> list[Request]:
    deltas = rotated(list(GEODELTA_DELTAS), rng)
    return [
        Request(
            ("geodelta", "--delta", str(d), "--seed", str(rng.randrange(2**32)),
             "--format", "json"),
            1,
            str(d),
        )
        for d in deltas
    ]


def _geodelta_check(req: Request, text: str, ref: dict) -> str | None:
    delta = int(req.key)
    doc = json.loads(text)
    run = doc["run"]
    if run.get("crossingPair") != [delta - 1, delta]:
        return f"crossing pair {run.get('crossingPair')}, expected {[delta - 1, delta]}"
    gap = str(Fraction(delta, 2)) if delta % 2 else str(delta // 2)
    if doc["worstGapA"] != gap:
        return f"worstGapA {doc['worstGapA']}, expected {gap}"
    wins = [c["winsA"] for c in run["candidates"]]
    if wins != [0, 1, 1, 0]:
        return f"candidate winsA {wins}, expected [0, 1, 1, 0]"
    return None


# --- oracle -----------------------------------------------------------------


def oracle_argv(seed: int) -> tuple[str, ...]:
    return (
        "oracle", "--count", str(ORACLE_COUNT), "--oracle-cap", str(ORACLE_CAP),
        "--seed", str(seed), "--format", "json",
    )


def _oracle_requests(rng: random.Random, ref: dict, workdir: Path) -> list[Request]:
    seeds = rotated(ref["oracle"]["seeds"], rng)[:ORACLE_CYCLE]
    return [Request(oracle_argv(seed), 1, str(seed)) for seed in seeds]


def _oracle_check(req: Request, text: str, ref: dict) -> str | None:
    doc = json.loads(text)
    strategy, grid = doc["strategy"], doc["grid"]
    if strategy["mismatches"] or grid["mismatches"]:
        bad = strategy["mismatches"] + grid["mismatches"]
        return f"{len(bad)} mismatch(es), first {bad[0]['detail']}"
    if strategy["configs"] != ORACLE_STRATEGY_CONFIGS:
        return f"{strategy['configs']} strategy configs, expected {ORACLE_STRATEGY_CONFIGS}"
    if grid["instances"] != ORACLE_COUNT:
        return f"{grid['instances']} grid instances, expected {ORACLE_COUNT}"
    return None


# --- simulate ---------------------------------------------------------------


def _is_half_integer(value: Fraction) -> bool:
    return (2 * value).denominator == 1


def _half_integer_free(segments: list[Fraction]) -> bool:
    """No sum of a prefix or a suffix of the segments is a multiple of 1/2."""
    total = sum(segments, Fraction(0))
    prefix = Fraction(0)
    for seg in segments:
        if _is_half_integer(total - prefix):
            return False
        prefix += seg
        if _is_half_integer(prefix):
            return False
    return True


def _small_segments(rng: random.Random, n: int) -> list[str]:
    """Two-place decimals and fractions with denominators up to 12, between
    two guard segments in sevenths.  Every prefix and suffix holds one or
    both guards, whose sevenths no other segment can cancel, so no such sum
    is a multiple of 1/2."""
    first = rng.randint(1, 6)
    last = rng.choice([p for p in range(1, 7) if (first + p) % 7])
    middle = []
    for i in range(n - 2):
        if i % 2:
            hundredths = rng.randint(0, 100)
            middle.append(f"{hundredths // 100}.{hundredths % 100:02d}")
        else:
            den = rng.choice((2, 3, 4, 5, 6, 8, 9, 10, 12))
            middle.append(f"{rng.randint(0, den)}/{den}")
    return [f"{first}/7"] + middle + [f"{last}/7"]


def _large_segments(rng: random.Random, n: int) -> list[str]:
    """Fractions p/q in lowest terms over one shared odd q of 332 digits."""
    q = rng.randrange(10 ** (SIMULATE_LARGE_DIGITS - 1), 10**SIMULATE_LARGE_DIGITS) | 1
    segments = []
    while len(segments) < n:
        p = rng.randrange(1, q)
        if math.gcd(p, q) == 1:
            segments.append(f"{p}/{q}")
    return segments


def simulate_profiles() -> dict[str, tuple[str, dict]]:
    """The fixed profile documents by file stem, with their denominator class."""
    rng = random.Random(SIMULATE_PROFILE_SEED)
    profiles = {}
    for cls, make in (("small", _small_segments), ("large", _large_segments)):
        for n in SIMULATE_SIZES:
            while True:
                segments = make(rng, n)
                if _half_integer_free([Fraction(s) for s in segments]):
                    break
            profiles[f"{cls}-n{n}"] = (cls, {"n": n, "segments_a": segments})
    return profiles


def simulate_requests(workdir: Path) -> list[Request]:
    """Every simulate request in canonical order; writes the profile files.

    Each file runs once per format, the two formats with different seeds so
    that the seed-dependent outcome rules vary too.
    """
    requests = []
    for index, (stem, (cls, doc)) in enumerate(simulate_profiles().items()):
        path = workdir / f"{stem}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for offset, fmt in enumerate(SIMULATE_FORMATS):
            seed = (index + offset) % 4
            requests.append(
                Request(
                    ("simulate", "--input", str(path), "--seed", str(seed), "--format", fmt),
                    1,
                    f"{stem} {fmt} {seed}",
                    cls,
                )
            )
    for seed in EXAMPLE_SEEDS:
        for fmt in SIMULATE_FORMATS:
            requests.append(
                Request(
                    ("example-2gap", "--seed", str(seed), "--format", fmt),
                    1,
                    f"example-2gap {fmt} {seed}",
                    "example",
                )
            )
    return requests


def _simulate_requests(rng: random.Random, ref: dict, workdir: Path) -> list[Request]:
    return rotated(simulate_requests(workdir), rng)


def _simulate_check(req: Request, text: str, ref: dict) -> str | None:
    digest = stdout_digest(text)
    expected = ref["simulate"]["digests"][req.key]
    if digest != expected:
        return f"stdout sha256 {digest[:12]}..., recorded {expected[:12]}..."
    return None


WORKLOADS = {
    w.name: w
    for w in (
        # 20 requests of 20 profiles: throughput samples of 400 profiles.
        Workload("sweep", 20, _sweep_requests, _sweep_check),
        # One sample per pass over all the deltas, whose sizes span 16x in cells.
        Workload("geodelta", len(GEODELTA_DELTAS), _geodelta_requests, _geodelta_check),
        Workload("oracle", 1, _oracle_requests, _oracle_check),
        # One sample per pass over all files, formats and example seeds.
        Workload(
            "simulate",
            len(SIMULATE_SIZES) * 2 * len(SIMULATE_FORMATS)
            + len(EXAMPLE_SEEDS) * len(SIMULATE_FORMATS),
            _simulate_requests,
            _simulate_check,
        ),
    )
}
