"""Command-line front end.

Commands: ``simulate`` a profile file, ``verify`` the invariant sweep,
``example-2gap`` for the built-in coin-flip profile, ``geodelta`` for the
constrained-grid gap demonstration, and ``oracle`` for the brute-force
cross-checks.  Reports embed the seed and a digest of the canonical input so
any run can be reproduced from its output alone.  Identical inputs and seed
produce byte-identical output.

The parser refuses every bad value, ``--input``'s file included, with one
line, ``lry <command>: error: <message>``.  Each ``_cmd_*`` function only
returns its ``_Report``; ``_write`` prints every report, as JSON or CSV.

Exit status: 0 on success, 1 when violations or mismatches were found, 2 on
bad input, 141 (128 + SIGPIPE) when the reader closed stdout early.

``main`` may be called any number of times in one process: every call
shares one parser, built on the first call, and each call's output depends
only on its own arguments.  ``build_parser`` returns a new parser each time.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, NoReturn

from . import grid as grid_mod
from . import model, oracle, protocol
from .oracle import random_small_grid  # noqa: F401  (bench/ looks it up on cli)

MAX_SEED = 2**64 - 1
# geodelta's time and memory grow as delta: it reads O(delta) breakpoints.
MAX_DELTA = 1000
MAX_N_MAX = model.MAX_DISTRICTS  # verify holds up to --n-max + 1 integer sums per profile
_MAX_INPUT_BYTES = 64 * 2**20  # simulate's --input; the largest benchmark profile is 1 MB


def _canonical_json(doc: object) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _digest(doc: object) -> str:
    return hashlib.sha256(_canonical_json(doc).encode("utf-8")).hexdigest()


@dataclass
class _Report:
    """What a command found: the value ``inputDigest`` hashes, the JSON body, the CSV preamble,
    field names (None: no table, so JSON) and rows (made only for CSV), and the exit status."""

    digested: object
    body: dict
    preamble: dict = field(default_factory=dict)
    fields: list[str] | None = None
    rows: Callable[[], list[dict]] = list
    code: int = 0


def _write(report: _Report, args, stream) -> int:
    """Writes ``report`` with the command, seed and input digest added."""
    header = {"seed": args.seed, "inputDigest": _digest(report.digested)}
    if args.format == "json" or report.fields is None:
        doc = {"command": args.command, **header, **report.body}
        stream.write(json.dumps(doc, sort_keys=True, indent=2))
        stream.write("\n")
    else:
        preamble = {**header, **report.preamble}
        stream.writelines(f"# {key}: {preamble[key]}\n" for key in sorted(preamble))
        writer = csv.DictWriter(stream, fieldnames=report.fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(report.rows())
    return report.code


def _echo(text: str) -> str:
    """``text`` cut by ``model._brief``, unquoted when quoting is all it would change."""
    brief = model._brief(text)
    return text if brief[1:-1] == text else brief


def _load_profile(path: str) -> model.SplitProfile:
    """``--input``'s type: the profile in file ``path``; a refusal echoes the path once."""
    try:
        with open(path, "rb") as handle:
            # Sized by st_size, as read() would be; a device or a pipe reports 0.
            hint = min(os.fstat(handle.fileno()).st_size, _MAX_INPUT_BYTES) + 1
            data = handle.read(hint)
            if len(data) == hint:
                data += handle.read(_MAX_INPUT_BYTES + 1 - hint)
    except OSError as exc:
        reason = exc.strerror or type(exc).__name__  # str(exc) repeats the path
        raise argparse.ArgumentTypeError(f"cannot read {_echo(path)}: {reason}") from exc
    except ValueError as exc:  # open() refuses a path holding a NUL
        raise argparse.ArgumentTypeError(f"cannot read {_echo(path)}: {exc}") from exc
    if len(data) > _MAX_INPUT_BYTES:
        raise argparse.ArgumentTypeError(f"{_echo(path)} is longer than {_MAX_INPUT_BYTES} bytes")
    try:
        doc = json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        # Bad JSON, bad UTF-8, an integer past str()'s limit, or nesting
        # deeper than the decoder's recursion allows.
        raise argparse.ArgumentTypeError(f"{_echo(path)} is not valid JSON: {exc}") from exc
    try:
        return model.profile_from_dict(doc)
    except model.FormatError as exc:
        raise argparse.ArgumentTypeError(f"{_echo(path)}: {exc}") from exc


_SIM_FIELDS = "k option winsA winsB deltaGeoA deltaGeoKA deltaGeoB deltaGeoKB".split()


def _cmd_simulate(args) -> _Report:
    """``simulate`` and ``example-2gap``: the profile is the parsed
    ``--input``, or ``example-2gap``'s built-in one."""
    profile_doc = model.profile_to_dict(args.profile)
    body = {"profile": profile_doc}
    violations = model.validate_profile(args.profile)
    if violations:
        body["profileViolations"] = [
            {"side": v.side.value if v.side else None, "k": v.k, "message": v.message}
            for v in violations
        ]
        return _Report(profile_doc, body, code=1)
    run = protocol.optimal_run(args.profile, args.seed)
    fairness = protocol.fairness_report(args.profile, run)
    body["run"] = protocol.run_to_dict(run)
    body["fairness"] = protocol.fairness_to_dict(fairness)
    rows = functools.partial(protocol.candidate_rows, run, fairness)
    return _Report(profile_doc, body, fields=_SIM_FIELDS, rows=rows)


def _cmd_verify(args) -> _Report:
    sweep = protocol.property_sweep(args.count, args.n_max, args.seed)
    body = {"count": args.count, "nMax": args.n_max, **protocol.sweep_to_dict(sweep)}
    return _Report(
        {"count": args.count, "n_max": args.n_max},
        body,
        {"instances": sweep.instances, "checks": sweep.checks},
        ["property", "detail", "profile"],
        lambda: [
            {**v, "profile": _canonical_json(v["profile"]) if v["profile"] else ""}
            for v in body["violations"]
        ],
        1 if sweep.violations else 0,
    )


def _cmd_geodelta(args) -> _Report:
    report = grid_mod.geodelta_report(args.delta, args.seed)
    body = grid_mod.geodelta_report_to_dict(report)
    return _Report(
        {"delta": args.delta},
        body,
        {"geoA": body["geoA"]},
        ["k", "option", "winsA", "winsB", "gapA"],
        lambda: [
            {**c, "gapA": model.ratio_str(report.target_a - c["winsA"])}
            for c in body["run"]["candidates"]
        ],
    )


def _cmd_oracle(args) -> _Report:
    strategy_checked, strategy_bad = oracle.strategy_oracle_mismatches()
    grid_checked, analogue_checked, grid_bad = oracle.grid_oracle_mismatches(
        args.count, args.seed, args.oracle_cap
    )
    body = {
        "strategy": {"configs": strategy_checked, "mismatches": strategy_bad},
        "grid": {
            "instances": grid_checked,
            "analogueChecked": analogue_checked,
            "mismatches": grid_bad,
        },
    }
    bad = strategy_bad + grid_bad
    return _Report(
        {"count": args.count, "oracle_cap": args.oracle_cap},
        body,
        {"strategyConfigs": strategy_checked, "gridInstances": grid_checked},
        ["kind", "detail"],
        lambda: bad,
        1 if bad else 0,
    )


class _Parser(argparse.ArgumentParser):
    """Refuses in one line, ``<prog>: error: <message>``, and exit 2; so do its subparsers.
    Every value it echoes is cut by ``model._brief``."""

    def error(self, message: str) -> NoReturn:
        text = " ".join(message.splitlines())  # one line, whatever value it echoes
        self.exit(2, f"{self.prog}: error: {text}\n")

    def parse_args(self, args=None, namespace=None):
        namespace, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {_echo(' '.join(extras))}")
        return namespace

    def _check_value(self, action, value):
        # argparse's check of a choice (a command, --format), echoing it through _brief
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {model._brief(value)} (choose from {choices})"
            )


def _int_in(low: int, high: int | None = None) -> Callable[[str], int]:
    """An argparse type: an integer from ``low`` to ``high``, or with no upper bound,
    written in the digits ``model._digits`` reads on every interpreter."""
    wanted = f"from {low} to {high}" if high is not None else f"of at least {low}"

    def parse(text: str) -> int:
        try:
            value = model._digits(text.strip(), signed=True)
            if low <= value and (high is None or value <= high):
                return value
        except ValueError:  # not an integer, or too many digits for int()
            pass
        raise argparse.ArgumentTypeError(f"must be an integer {wanted}, got {model._brief(text)}")

    return parse


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed",
        type=_int_in(0, MAX_SEED),
        default=0,
        help="64-bit seed for any randomness (default: %(default)s)",
    )
    parser.add_argument(
        "--format",
        choices=["json", "csv"],
        default="json",
        help="report format (default: %(default)s)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lry",
        description="Split-and-choose districting protocol with exact arithmetic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the protocol on a profile JSON file")
    p.add_argument(
        "--input",
        type=_load_profile,
        required=True,
        dest="profile",
        metavar="INPUT",
        help="path to a profile JSON file",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "example-2gap",
        help="run the built-in profile whose worst coin-flip candidate sits"
        " two districts below the geometric target",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_simulate, profile=model.two_gap_profile())

    p = sub.add_parser("verify", help="property-sweep every invariant")
    p.add_argument(
        "--count", type=_int_in(1), default=10000, help="profiles to check (default: %(default)s)"
    )
    p.add_argument(
        "--n-max",
        type=_int_in(2, MAX_N_MAX),
        default=20,
        help=f"largest district count, 2..{MAX_N_MAX} (default: %(default)s)",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("geodelta", help="constrained-grid run that misses the geometric target")
    p.add_argument(
        "--delta",
        type=_int_in(1, MAX_DELTA),
        default=1,
        help=f"band count, 1..{MAX_DELTA} (default: %(default)s)",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_geodelta)

    p = sub.add_parser("oracle", help="brute-force cross-checks of the closed forms")
    p.add_argument(
        "--count", type=_int_in(1), default=100, help="random grids to check (default: %(default)s)"
    )
    p.add_argument(
        "--oracle-cap",
        type=_int_in(1),
        default=grid_mod.DEFAULT_BRUTEFORCE_CAP,
        help="largest region, in cells, the exhaustive search accepts (default: %(default)s)",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_oracle)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser ``main`` uses in this process.  ``parse_args`` leaves
    a parser as it found it, and building one costs more than most requests
    that use it."""
    return build_parser()


def main(argv: list[str] | None = None, stdout: io.TextIOBase | None = None) -> int:
    stream = stdout if stdout is not None else sys.stdout
    try:
        args = _parser().parse_args(argv)
        return _write(args.func(args), args, stream)
    except SystemExit as exc:  # the parser has written its refusal or help; keep its code
        return int(exc.code or 0)
    except BrokenPipeError:
        # The reader is gone (``| head``).  Point stdout at devnull, so that
        # the interpreter's final flush of what is left stays quiet.
        if stream is sys.stdout:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 141
