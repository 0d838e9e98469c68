"""The traced run: per-layer time, measured inside the real CLI call.

After each window of untraced requests, the same requests go through
``lry.cli.main`` again, with lry's public functions replaced by timing
wrappers.  A wrapper is set on every lry module that binds the function
(``targets`` imports ``strategy.total_wins`` by name), and every original
is put back when the window ends, so untraced requests never meet a
wrapper.  The traced stdout must equal the untraced stdout byte for byte,
or the request counts as failed.

Spans nest and are inclusive: ``strategy.total_wins`` includes the
``strategy.wins_when_*`` calls it makes.  A function that calls itself is
timed once, at its outermost call.  A span with no span around it is
top-level.  ``trace.top_share_sum`` is the top-level time over the traced
CLI time; it falls when the CLI does work outside every timed function.

The CLI's own steps are timed through what the CLI calls:

- ``cli.parse_args``: ``cli.build_parser`` and the parser's ``parse_args``;
- ``cli.load_input``: the ``json.load`` of the input file;
- ``cli.serialize``: the public ``*_to_dict`` functions, ``json.dumps`` and
  the CSV writer.  For the last two, ``cli.json`` and ``cli.csv`` are
  replaced by stand-ins that forward to the standard modules.

Only public names are used.  Each is looked up before the run, so a name
that moved (``cli.random_small_grid`` is slated to leave ``cli``) stops the
run with an error instead of dropping a layer.
"""

from __future__ import annotations

import csv
import functools
import inspect
import io
import json
import sys
import tracemalloc
from contextlib import contextmanager
from time import perf_counter

from speed import Speed
from workloads import Request, quantile, stdout_digest

# Public lry functions timed under their own names.  A class is timed
# through its __init__.
FUNCTIONS = (
    "protocol.random_profile", "protocol.check_profile",
    "protocol.check_floor_ceiling_bounds", "protocol.check_win_identity",
    "strategy.total_wins", "strategy.wins_when_districting",
    "strategy.wins_when_opponent_districts",
    "targets.geometric_target", "targets.k_split_target",
    "protocol.optimal_preferences", "protocol.classify_outcome",
    "protocol.resolve_protocol", "protocol.fairness_report",
    "protocol.coinflip_options", "protocol.candidate_rows",
    "model.profile_from_dict", "model.validate_profile",
    "grid.make_geodelta", "grid.GridState", "grid.side_group_counts",
    "grid.geodelta_report", "grid.geodelta_report_to_dict",
    "strategy.bruteforce_districting_wins", "strategy.bruteforce_opponent_wins",
    "cli.random_small_grid", "grid.enumerate_region_plans", "grid.validate_plan",
    "grid.count_wins", "grid.max_wins_bruteforce",
)

# Public lry functions timed as part of cli.serialize.
SERIALIZERS = (
    "model.profile_to_dict", "protocol.run_to_dict", "protocol.fairness_to_dict",
    "protocol.sweep_to_dict",
)

CLI_STEPS = ("cli.parse_args", "cli.load_input", "cli.serialize")

LAYERS = FUNCTIONS + CLI_STEPS


class TraceError(Exception):
    pass


def lry_modules() -> list:
    """The package and every module of it, the bindings a wrapper replaces."""
    return [m for name, m in sys.modules.items() if name == "lry" or name.startswith("lry.")]


def check_names(lry) -> None:
    missing = []
    for dotted in FUNCTIONS + SERIALIZERS + ("cli.build_parser",):
        module, name = dotted.split(".")
        if name.startswith("_") or not hasattr(getattr(lry, module), name):
            missing.append(f"lry.{dotted}")
    for stdlib in (json, csv):
        if getattr(lry.cli, stdlib.__name__, None) is not stdlib:
            missing.append(f"lry.cli.{stdlib.__name__} (the {stdlib.__name__} module)")
    if missing:
        raise TraceError("the traced run uses names lry no longer has: " + ", ".join(missing))


class Layer:
    """Calls, inclusive busy time and, for a generator, items yielded of
    one layer."""

    __slots__ = ("calls", "busy_s", "open", "yielded")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.open = 0  # its spans under way
        self.yielded = 0


class Tracer:
    """Per-layer calls and busy time, and the top-level time."""

    def __init__(self):
        self.layers = {name: Layer() for name in LAYERS}
        self.depth = 0  # spans under way
        self.top_s = 0.0

    def timed(self, name, fn, count: bool = True):
        """``fn`` wrapped in a span under ``name`` that counts one call, or
        none when ``count`` is false.  A generator function's span covers
        its creation and each step, not the time the caller spends between
        steps."""
        if not inspect.isgeneratorfunction(fn):
            return self.spanned(name, fn, count)
        layer = self.layers[name]
        create = self.spanned(name, fn, count)
        step = self.spanned(name, next, count=False)

        @functools.wraps(fn)
        def steps(*args, **kwargs):
            it = create(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                layer.yielded += 1
                yield item
        return steps

    def spanned(self, name, fn, count: bool):
        layer = self.layers[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            layer.calls += count
            layer.open += 1
            self.depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                layer.open -= 1
                self.depth -= 1
                if not layer.open:
                    layer.busy_s += elapsed
                if not self.depth:
                    self.top_s += elapsed
        return wrapper


class StandIn:
    """Forwards to ``module``, except for the attributes given."""

    def __init__(self, module, **attributes):
        self.module = module
        self.__dict__.update(attributes)

    def __getattr__(self, name):
        return getattr(self.module, name)


@contextmanager
def instrumented(lry, tr: Tracer):
    """Within the block, lry's calls to the timed functions go through ``tr``."""
    saved = []

    def put(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(dotted, layer):
        module, name = dotted.split(".")
        original = getattr(getattr(lry, module), name)
        if isinstance(original, type):
            put(original, "__init__", tr.timed(layer, original.__init__))
            return
        wrapper = tr.timed(layer, original)
        for mod in lry_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    put(mod, attr, wrapper)

    def build_parser(original):
        @functools.wraps(original)
        def wrapper():
            parser = original()
            parser.parse_args = tr.timed("cli.parse_args", parser.parse_args, count=False)
            return parser
        return wrapper

    class DictWriter(csv.DictWriter):
        def writeheader(self):
            return tr.timed("cli.serialize", super().writeheader, count=False)()

        def writerows(self, rows):
            return tr.timed("cli.serialize", super().writerows, count=False)(rows)

    try:
        for dotted in FUNCTIONS:
            wrap(dotted, dotted)
        for dotted in SERIALIZERS:
            wrap(dotted, "cli.serialize")
        cli = lry.cli
        put(cli, "build_parser", tr.timed("cli.parse_args", build_parser(cli.build_parser)))
        put(cli, "json", StandIn(json, load=tr.timed("cli.load_input", json.load),
                                 dumps=tr.timed("cli.serialize", json.dumps)))
        put(cli, "csv", StandIn(csv, DictWriter=DictWriter))
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def latency_ms(samples, keep, q: float) -> float:
    """Latency quantile of the samples ``keep`` selects; 0 when there are none."""
    values = [s.scaled_ms for s in samples if keep(s.request)]
    return quantile(values, q) if values else 0.0


class TracedRun:
    """Sends each window of untraced requests again, traced, right after
    it, so that both see the same machine speed and the same warm-up; then
    gathers the per-layer metrics."""

    def __init__(self, lry, workload):
        check_names(lry)
        self.lry = lry
        self.workload = workload
        self.tr = Tracer()
        self.traced_s = 0.0  # as measured, the base of the shares
        self.traced_scaled_s = 0.0  # scaled to the reference machine speed
        self.failed = 0
        self.checks = 0  # sweep: the checks the traced reports count

    def send_window(self, window) -> None:
        speed = Speed(sample_during_calls=False)
        with instrumented(self.lry, self.tr):
            for sample in window:
                key = sample.request.key
                out = io.StringIO()
                try:
                    code = speed.call(self.lry.cli.main, list(sample.request.argv), stdout=out)
                except Exception as exc:  # a traced request that raises has failed
                    print(f"FAILED traced {key}: {exc!r}", file=sys.stderr)
                    self.failed += 1
                    continue
                self.traced_s += speed.elapsed
                self.traced_scaled_s += speed.elapsed * speed.factor
                text = out.getvalue()
                if code != 0 or stdout_digest(text) != sample.digest:
                    print(f"FAILED traced {key}: exit {code} or stdout differs from the"
                          " untraced request's", file=sys.stderr)
                    self.failed += 1
                elif self.workload.name == "sweep":
                    self.checks += json.loads(text)["checks"]

    def peak_mb(self, untraced) -> float:
        """Peak traced memory, in MiB, of building the geodelta workload's
        largest grid; 0 on the other workloads."""
        if self.workload.name != "geodelta":
            return 0.0
        tracemalloc.start()
        try:
            self.lry.grid.make_geodelta(max(int(s.request.key) for s in untraced))
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def finish(self, untraced) -> tuple[int, int, dict]:
        """(requests attempted, failed, per-layer metrics)."""
        tr, name = self.tr, self.workload.name
        values = {}
        for layer_name, layer in tr.layers.items():
            values[f"{layer_name}.calls"] = layer.calls
            values[f"{layer_name}.busy_s"] = layer.busy_s
            values[f"{layer_name}.share"] = layer.busy_s / self.traced_s
        values["grid.make_geodelta.peak_mb"] = self.peak_mb(untraced)
        values["grid.plans"] = tr.layers["grid.enumerate_region_plans"].yielded
        values["protocol.checks"] = self.checks
        untraced_scaled_s = sum(s.latency * s.scale for s in untraced)
        values["trace.traced_s"] = self.traced_scaled_s
        values["trace.untraced_s"] = untraced_scaled_s
        values["trace.overhead_share"] = self.traced_scaled_s / untraced_scaled_s - 1
        values["trace.top_share_sum"] = tr.top_s / self.traced_s
        for cls in ("small", "large"):
            def keep(req: Request, cls=cls) -> bool:
                return req.cls == cls
            values[f"simulate.{cls}_den.latency_p50_ms"] = latency_ms(untraced, keep, 0.5)
            values[f"simulate.{cls}_den.latency_p90_ms"] = latency_ms(untraced, keep, 0.9)
        for delta in (10, 40):
            values[f"geodelta.delta{delta}.latency_ms"] = latency_ms(
                untraced, lambda req: name == "geodelta" and req.key == str(delta), 0.5
            )
        used = [layer_name for layer_name, layer in tr.layers.items() if layer.calls]
        print(f"# traced {len(untraced)} requests; layers called: {', '.join(used)}")
        return 2 * len(untraced), self.failed, values
