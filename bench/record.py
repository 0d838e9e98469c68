#!/usr/bin/env python3
"""Write bench/reference.json: the answers the benchmark's checks compare with.

Run from the repository root, at the commit whose CLI output is the
contract (the outputs must stay byte-identical for fixed seeds)::

    python3 bench/record.py

It records, for the sweep's pool of seeds, each request's outcome
histogram; for the oracle, a pool of seeds whose grids all have the same
mix of 4x4 grids, so that every oracle request does the same work; and for
simulate, the SHA-256 of every request's stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import sys
from collections import Counter

from run import BENCH, WORKDIR, load_lry
from workloads import ORACLE_COUNT, simulate_requests, stdout_digest, sweep_argv

SWEEP_POOL = 1000
ORACLE_POOL = 64
ORACLE_SCAN = 4000


def cli_stdout(lry, argv) -> str:
    out = io.StringIO()
    code = lry.cli.main(list(argv), stdout=out)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return out.getvalue()


def record_sweep(lry) -> dict:
    kinds = sorted(kind.value for kind in lry.protocol.OutcomeKind)
    histograms = []
    for seed in range(SWEEP_POOL):
        outcomes = json.loads(cli_stdout(lry, sweep_argv(seed)))["outcomes"]
        histograms.append([outcomes[k] for k in kinds])
    return {"kinds": kinds, "histograms": histograms}


def grid_mix(lry, seed: int) -> tuple:
    """How many of an oracle request's grids are 4x4 with each district
    size; the 2x2 grids take next to no time."""
    sizes = Counter()
    for index in range(ORACLE_COUNT):
        rng = random.Random(lry.protocol.mix_seed(seed, index))
        grid = lry.cli.random_small_grid(rng)
        if grid.m == 4:
            sizes[grid.d] += 1
    return tuple(sorted(sizes.items()))


def record_oracle(lry) -> dict:
    mixes = {seed: grid_mix(lry, seed) for seed in range(ORACLE_SCAN)}
    common, _ = Counter(mixes.values()).most_common(1)[0]
    seeds = [seed for seed, mix in mixes.items() if mix == common][:ORACLE_POOL]
    return {"grid_mix_4x4": dict(common), "seeds": seeds}


def record_simulate(lry) -> dict:
    workdir = WORKDIR / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return {
            "digests": {
                req.key: stdout_digest(cli_stdout(lry, req.argv))
                for req in simulate_requests(workdir)
            }
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a benchmark run
            WORKDIR.rmdir()


def main() -> int:
    lry = load_lry()
    reference = {
        "sweep": record_sweep(lry),
        "oracle": record_oracle(lry),
        "simulate": record_simulate(lry),
    }
    path = BENCH / "reference.json"
    path.write_text(json.dumps(reference, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
