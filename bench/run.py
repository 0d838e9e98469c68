#!/usr/bin/env python3
"""Benchmark of the lry command-line interface.

Run from the repository root::

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --seed 1 --out BENCH_x.json   # every workload

One client sends one request at a time (a closed loop): each request is one
``lry.cli.main(argv)`` call with stdout captured in memory, and the next is
sent when it returns.  Every response is checked.  With ``--trace 0`` the run
reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
reports the per-layer metrics, measured by sending the same requests again
with lry's public functions wrapped in timers (see traced.py).  The last line of stdout is the
result as one JSON object; the lines before it, starting with ``#``, give
the sample counts and the environment.  Without ``--workload`` every
workload runs, untraced and traced, each in a fresh interpreter, and a table
of all metrics is printed.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import traced
from speed import Speed
from workloads import WORKLOADS, Request, Workload, quantile, stdout_digest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
LRY_MODULES = ("cli", "grid", "model", "protocol", "strategy", "targets")
# Set-up runs this many times per run; setup_s is the median.
SETUP_REPEATS = 5


class SetupError(Exception):
    pass


def load_lry() -> SimpleNamespace:
    """Import lry afresh from this checkout's ``src``; its modules by name.

    Earlier imports of lry are dropped first, so every call re-executes the
    package's modules.  The standard-library modules they use stay imported.
    """
    if not (SRC / "lry" / "__init__.py").is_file():
        raise SetupError(f"no lry package under {SRC}; run from a checkout of the repository")
    for name in [m for m in sys.modules if m == "lry" or m.startswith("lry.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"lry.{name}") for name in LRY_MODULES}
    origin = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"lry was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**modules)


def load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SetupError(f"cannot read {path}: {exc}") from exc


def set_up(workload: Workload, seed: int, ref: dict, workdir: Path):
    """Import lry and generate the workload's requests; (lry, requests)."""
    lry = load_lry()
    return lry, workload.make_requests(random.Random(seed), ref, workdir)


@dataclass
class Sample:
    request: Request
    latency: float  # seconds, as measured
    digest: str  # sha256 of stdout
    error: str | None
    scale: float = 1.0  # machine-speed factor, see speed.py

    @property
    def scaled_ms(self) -> float:
        return self.latency * self.scale * 1000


def send(lry, workload: Workload, request: Request, ref: dict, speed: Speed) -> Sample:
    """One request through ``lry.cli.main``; only the call itself is timed."""
    out = io.StringIO()
    try:
        code = speed.call(lry.cli.main, list(request.argv), stdout=out)
    except Exception:  # a request that raises is a failed request
        error = traceback.format_exc(limit=3)
        return Sample(request, speed.elapsed, "", error, speed.factor)
    text = out.getvalue()
    error = f"exit status {code}" if code != 0 else workload.check(request, text, ref)
    return Sample(request, speed.elapsed, stdout_digest(text), error, speed.factor)


def closed_loop(lry, workload, requests, ref, seconds, after_window=None):
    """Send requests in order, cycling, in windows of ``workload.window``
    until ``seconds`` have passed; the window under way finishes.
    ``after_window``, if given, is called with each window's samples; the
    speed is then sampled only between calls, as the traced calls need.

    Returns every sample and each window's items per second of busy time,
    both scaled to the reference machine speed.
    """
    samples: list[Sample] = []
    rates = []
    deadline = perf_counter() + seconds
    while True:
        speed = Speed(sample_during_calls=after_window is None)
        window = []
        for _ in range(workload.window):
            sample = send(lry, workload, requests[len(samples) % len(requests)], ref, speed)
            window.append(sample)
            samples.append(sample)
        busy = sum(s.scaled_ms for s in window) / 1000
        rates.append(sum(s.request.items for s in window if s.error is None) / busy)
        if after_window is not None:
            after_window(window)
        if perf_counter() >= deadline:
            return samples, rates


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    """sha256 over lry's source files, which names the code measured even
    where there is no git history."""
    h = hashlib.sha256()
    for path in sorted((SRC / "lry").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def declared(spec: dict, section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[section]}


def result_line(spec: dict, section: str, values: dict, attempted: int, failed: int) -> str:
    units = declared(spec, section)
    if set(values) != set(units):
        extra = sorted(set(values) - set(units))
        absent = sorted(set(units) - set(values))
        raise SetupError(f"metrics differ from BENCHMARK.json {section}: extra {extra}, absent {absent}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    return json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def report_failures(samples: list[Sample]) -> int:
    failed = [s for s in samples if s.error is not None]
    for s in failed[:5]:
        print(f"FAILED {s.request.key}: {s.error}", file=sys.stderr)
    return len(failed)


def request_latencies_ms(samples: list[Sample], scaled: bool = True) -> list[float]:
    """Each sample's latency replaced by the median latency of its request
    over the run.  A request that recurs (geodelta and simulate cycle
    through fixed sets) is thus timed by all its repeats, which keeps a
    quantile that falls on one request from resting on one noisy sample."""
    by_key = defaultdict(list)
    for s in samples:
        by_key[s.request.key].append(s.scaled_ms if scaled else s.latency * 1000)
    return [statistics.median(v) for v in by_key.values() for _ in v]


def untraced_metrics(samples, rates, setups) -> dict:
    latencies_ms = request_latencies_ms(samples)
    raw_ms = request_latencies_ms(samples, scaled=False)
    distinct = len({s.request.key for s in samples})
    print(f"# samples: {len(samples)} requests ({distinct} distinct),"
          f" {len(rates)} throughput windows, {len(setups)} set-ups")
    failed = sum(s.error is not None for s in samples)
    print(f"# failed_ratio {failed / len(samples)} ({failed} of {len(samples)} requests)")
    print(f"# unscaled: latency_p50_ms {statistics.median(raw_ms)} latency_p90_ms"
          f" {quantile(raw_ms, 0.9)}; median speed scale"
          f" {statistics.median(s.scale for s in samples)}")
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": statistics.median(rates),
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_p90_ms": quantile(latencies_ms, 0.9),
        "peak_rss_mb": peak_rss_mb(),
    }


def run_workload(args, spec: dict) -> int:
    workload = WORKLOADS[args.workload]
    ref = load_json(BENCH / "reference.json")
    env = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }
    workdir = WORKDIR / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        speed = Speed()
        for _ in range(SETUP_REPEATS):
            lry, requests = speed.call(set_up, workload, args.seed, ref, workdir)
            setups.append(speed.elapsed * speed.factor)
        if args.trace:
            traced_run = traced.TracedRun(lry, workload)
            untraced, _ = closed_loop(
                lry, workload, requests, ref, args.seconds, traced_run.send_window
            )
            attempted, failed, values = traced_run.finish(untraced)
            failed += report_failures(untraced)
            section = "per_layer"
        else:
            samples, rates = closed_loop(lry, workload, requests, ref, args.seconds)
            values = untraced_metrics(samples, rates, setups)
            attempted, failed = len(samples), report_failures(samples)
            section = "end_to_end"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORKDIR.rmdir()
    env["loadavg_end"] = loadavg()
    print("# env " + json.dumps(env, sort_keys=True))
    print(result_line(spec, section, values, attempted, failed))
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    seconds = args.seconds or spec["run_seconds"]
    rows, runs = [], []
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"error: {name} --trace {trace} exited {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            env = next(json.loads(l[6:]) for l in lines if l.startswith("# env "))
            runs.append({"env": env, "notes": lines[:-1], "result": result})
            ratio = result["failed"] / result["attempted"]
            rows.append((name, "traced.failed_ratio" if trace else "failed_ratio", ratio, "ratio"))
            for metric, m in result["metrics"].items():
                if trace == 0 or m["value"]:  # 0: a layer the workload does not use
                    rows.append((name, metric, m["value"], m["unit"]))
    for name, metric, value, unit in rows:
        print(f"{name:9} {metric:48} {value:>14.6g} {unit}")
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs}, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="without --workload: also write every result here")
    args = parser.parse_args(argv)
    try:
        spec = load_json(ROOT / "BENCHMARK.json")
        if args.workload is None:
            return run_all(args, spec)
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        return run_workload(args, spec)
    except (SetupError, traced.TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
