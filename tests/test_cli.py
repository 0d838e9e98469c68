import contextlib
import fractions
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import check_goldens
from lry import cli, grid, model, oracle, protocol, targets


def run_cli(*argv):
    out = io.StringIO()
    code = cli.main(list(argv), stdout=out)
    return code, out.getvalue()


def assert_one_line(err, prefix):
    """A refusal's stderr: one line that starts with ``prefix``, and no usage block."""
    assert err.startswith(prefix), err[:300]
    assert err.endswith("\n") and err.count("\n") == 1, err[:300]
    assert "usage:" not in err


def assert_refused(capsys, argv, flag):
    """``argv`` exits 2 within a second, with no stdout and one stderr line
    under 200 characters that names ``flag``."""
    start = time.perf_counter()
    code, text = run_cli(*argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert_one_line(err, f"lry {argv[0]}: error: argument {flag}:")
    assert len(err) < 200


def test_example_2gap_fields():
    code, text = run_cli("example-2gap", "--seed", "3")
    assert code == 0
    doc = json.loads(text)
    assert doc["command"] == "example-2gap"
    assert doc["seed"] == 3
    assert doc["run"]["winsA"] == 2
    assert doc["fairness"]["A"]["geo"] == "4"
    assert doc["fairness"]["A"]["deltaGeo"] == "2"
    assert doc["profile"]["n"] == 10
    assert len(doc["inputDigest"]) == 64


def test_byte_identical_reruns():
    for argv in (
        ["example-2gap", "--seed", "3"],
        ["example-2gap", "--seed", "1", "--format", "csv"],
        ["verify", "--count", "20", "--n-max", "6", "--seed", "5"],
        ["geodelta", "--delta", "2", "--seed", "9"],
        ["oracle", "--count", "3", "--seed", "2"],
    ):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second, argv


# Strings a report may hold: the specials drawn often, then any code point,
# lone surrogates included.
json_strings = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\xe9\u2028\ud800\udfff\U0001f600a')
    | st.characters(exclude_categories=())
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([2**64, -(2**64)]) | json_strings,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(json_strings, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=50, deadline=None)
@given(json_values)
@example({"a": [], "b": {}, "c": (), "d": [[], {}, ()], "e": [None, True, False, -1, 2**64]})
def test_indented_json_is_json_dumps(value):
    assert cli._indented_json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "value, name",
    [
        (1.0, "float"),
        ({"a": [0.5]}, "float"),
        (fractions.Fraction(1, 3), "Fraction"),
        ({1}, "set"),
        (b"x", "bytes"),
        ({1: "a"}, "int"),
    ],
)
def test_indented_json_refuses_other_types(value, name):
    with pytest.raises(TypeError, match=name):
        cli._indented_json(value)


def test_json_reports_have_json_dumps_layout(tmp_path):
    """Each command's JSON report, and a refused profile's, whose first violation
    has no side, is its own re-parse dumped with sort_keys=True, indent=2."""
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(SIMULATE_PROFILE))
    bad.write_text(json.dumps({"n": 2, "segments_a": ["3/2", "0.2"]}))
    docs = []
    for argv in (
        ["simulate", "--input", str(good)],
        ["simulate", "--input", str(bad)],
        ["example-2gap", "--seed", "1"],
        ["verify", "--count", "20", "--n-max", "6"],
        ["geodelta", "--delta", "3"],
        ["oracle", "--count", "3"],
    ):
        _, text = run_cli(*argv)
        docs.append(json.loads(text))
        assert text == json.dumps(docs[-1], sort_keys=True, indent=2) + "\n", argv
    assert docs[1]["profileViolations"][0] == {
        "k": 1, "message": "segment 1 support 3/2 outside [0, 1]", "side": None
    }


@pytest.fixture
def fresh_parser():
    """Each test starts and ends without the process's cached parser."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_main_builds_the_parser_once(fresh_parser, monkeypatch, tmp_path):
    built = []
    original = cli.build_parser

    def counting():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(model.profile_to_dict(model.two_gap_profile())))
    requests = [
        ["simulate", "--input", str(path)],
        ["example-2gap", "--format", "csv"],
        ["verify", "--count", "2", "--n-max", "5"],
        ["geodelta", "--delta", "3"],
        ["oracle", "--count", "1", "--oracle-cap", "4"],
    ]
    for seed in range(10):
        for argv in requests:
            assert run_cli(*argv, "--seed", str(seed))[0] == 0, argv
    assert len(built) == 1


def test_failed_and_help_requests_leave_the_parser_unchanged(fresh_parser, capsys):
    requests = [
        ["geodelta", "--delta", "3", "--format", "csv", "--seed", "5"],
        ["verify", "--count", "4", "--n-max", "7"],
        ["example-2gap"],
    ]
    fresh = []
    for argv in requests:
        cli._parser.cache_clear()
        fresh.append(run_cli(*argv))
    assert run_cli("geodelta", "--delta", "x")[0] == 2
    assert run_cli("--help")[0] == 0
    assert run_cli("verify", "--help")[0] == 0
    capsys.readouterr()
    for argv, expected in zip(requests, fresh):
        assert run_cli(*argv) == expected, argv


def test_build_parser_returns_a_new_parser():
    assert cli.build_parser() is not cli.build_parser()


def test_seeds_walk_the_candidates():
    wins = []
    for seed in range(4):
        _, text = run_cli("example-2gap", "--seed", str(seed))
        wins.append(json.loads(text)["run"]["winsA"])
    assert wins == [3, 4, 5, 2]


def test_simulate_profile_file(tmp_path):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(model.profile_to_dict(model.two_gap_profile())))
    code, text = run_cli("simulate", "--input", str(path), "--seed", "2")
    assert code == 0
    doc = json.loads(text)
    assert doc["command"] == "simulate"
    assert doc["run"]["winsA"] == 5
    # same profile, same digest as the built-in command
    _, builtin = run_cli("example-2gap", "--seed", "2")
    assert doc["inputDigest"] == json.loads(builtin)["inputDigest"]


def test_simulate_invalid_profile_exits_one(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "segments_a": ["0.25", "0.25"]}))
    code, text = run_cli("simulate", "--input", str(path))
    assert code == 1
    doc = json.loads(text)
    assert doc["profileViolations"]
    assert "run" not in doc


def test_simulate_district_bound(tmp_path, capsys):
    # Past the bound the document is refused (2); within it a segment count
    # that differs from n stays a profile violation (1).
    path = tmp_path / "big.json"
    for n, want in ((model.MAX_DISTRICTS + 1, 2), (model.MAX_DISTRICTS, 1)):
        path.write_text(json.dumps({"n": n, "segments_a": ["0.3"]}))
        code, text = run_cli("simulate", "--input", str(path))
        assert code == want, n
    assert "'n'" in capsys.readouterr().err
    path.write_text(json.dumps({"n": 5, "segments_a": ["0.3"] * (model.MAX_DISTRICTS + 1)}))
    code, text = run_cli("simulate", "--input", str(path))
    assert code == 2
    assert text == ""
    assert "'segments_a'" in capsys.readouterr().err


def test_closed_stdout_exits_141_quietly(tmp_path):
    # The report of this profile outgrows a 64 KiB pipe buffer, so the
    # writer meets the closed pipe after the reader has gone.
    n = model.MAX_DISTRICTS
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": n, "segments_a": ["1/5"] + ["1/3"] * (n - 2) + ["1/7"]}))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "lry", "simulate", "--input", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_simulate_missing_file_exits_two(tmp_path, capsys):
    code, _ = run_cli("simulate", "--input", str(tmp_path / "nope.json"))
    assert code == 2
    err = capsys.readouterr().err
    assert "--input" in err
    assert_one_line(err, "lry simulate: error: argument --input: cannot read ")
    code, _ = run_cli("simulate", "--input", str(tmp_path / "two\nlines.json"))
    assert code == 2
    assert_one_line(capsys.readouterr().err, "lry simulate: error: argument --input: cannot read ")
    code, text = run_cli("simulate")
    assert (code, text) == (2, "")
    err = capsys.readouterr().err
    assert_one_line(err, "lry simulate: error: the following arguments are required: --input")


def test_simulate_echoes_a_long_input_path_once_and_cut(capsys):
    # The OSError's own text would repeat the 5,010-character path.
    path = "/tmp/" + "p" * 5000 + ".json"
    assert cli.main(["simulate", "--input", path]) == 2
    err = capsys.readouterr().err
    assert_one_line(err, "lry simulate: error: argument --input: cannot read '/tmp/ppppppp...")
    assert len(err.encode()) < 200


def test_simulate_schema_error_names_field(tmp_path, capsys):
    path = tmp_path / "weird.json"
    path.write_text(json.dumps({"n": 3, "segments_a": ["0.3", "x", "0.3"]}))
    code, _ = run_cli("simulate", "--input", str(path))
    assert code == 2
    err = capsys.readouterr().err
    assert "segments_a[2]" in err
    assert_one_line(err, "lry simulate: error: argument --input: ")


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"n": 1, "segments_a": [" " * 3_000_000 + "x"]}, "segments_a[1]"),
        ({"n": "9" * 3_000_000, "segments_a": []}, "'n'"),
        ({"n": 1, "segments_a": ["1/3"], "k" * 3_000_000: 0}, "unknown profile field"),
    ],
    ids=["padded-entry", "long-n", "long-key"],
)
def test_simulate_errors_echo_a_bounded_prefix(tmp_path, capsys, doc, field):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, text = run_cli("simulate", "--input", str(path))
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert field in err
    assert len(err) < 10_000


def test_simulate_hostile_exponent_exits_two(tmp_path, capsys):
    # 1e-3000000 would scale by 10**3000000 and outgrow str()
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps({"n": 2, "segments_a": ["1e-3000000", "0.3"]}))
    code, text = run_cli("simulate", "--input", str(path))
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert "segments_a[1]" in err
    assert_one_line(err, "lry simulate: error: argument --input: ")


def test_simulate_overlong_ratio_exits_two(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"n": 2, "segments_a": ["0.3", "1/" + "7" * 3000]}))
    code, _ = run_cli("simulate", "--input", str(path))
    assert code == 2
    err = capsys.readouterr().err
    assert "segments_a[2]" in err
    assert_one_line(err, "lry simulate: error: argument --input: ")


def test_simulate_oversized_json_integer_exits_two(tmp_path, capsys):
    path = tmp_path / "bigint.json"
    path.write_text('{"n": 2, "segments_a": [' + "1" * 5000 + ', "0.3"]}')
    code, _ = run_cli("simulate", "--input", str(path))
    assert code == 2
    err = capsys.readouterr().err
    assert "--input" in err
    assert_one_line(err, "lry simulate: error: argument --input: ")


def test_simulate_long_json_integer_exits_two(tmp_path, capsys):
    # json.load accepts 4300 digits, past the 2000 a ratio may have
    path = tmp_path / "longint.json"
    path.write_text('{"n": 2, "segments_a": [' + "1" * 4300 + ', "0.3"]}')
    code, text = run_cli("simulate", "--input", str(path))
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert "segments_a[1]" in err
    assert len(err) < 200
    assert_one_line(err, "lry simulate: error: argument --input: ")


# Entries that make a profile invalid or unreadable, whatever surrounds them.
_hostile_entries = st.one_of(
    st.integers(min_value=2),
    st.integers(max_value=-1),
    st.sampled_from([10**2000, 10**4299, -(10**4299)]),
    st.sampled_from(["1e-3000000", "1e2001", "1/" + "7" * 3000, "2", "-1/3", "x", "1/0", ""]),
    st.floats(),
    st.booleans(),
    st.none(),
    st.lists(st.integers(0, 1), max_size=2),
)
_plain_entries = st.sampled_from(["0.3", "1/7", "0.25", "0.9", 0, 1])


@st.composite
def hostile_profiles(draw):
    segments = draw(st.lists(st.one_of(_plain_entries, _hostile_entries), max_size=6))
    segments.insert(draw(st.integers(0, len(segments))), draw(_hostile_entries))
    n = draw(st.one_of(st.just(len(segments)), st.integers(), _hostile_entries))
    return {"n": n, "segments_a": segments}


@settings(deadline=None, max_examples=100)
@given(hostile_profiles())
def test_fuzzed_simulate_input_exits_one_or_two(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        code, text = run_cli("simulate", "--input", str(path))
    assert time.perf_counter() - start < 2.0
    assert code in (1, 2)
    if code == 2:
        assert text == ""
        assert "--input" in err.getvalue()
    else:
        assert json.loads(text)["profileViolations"]


def test_simulate_accepts_thousand_digit_denominators(tmp_path):
    den = 10**999 + 1  # odd, so no cumulative sum is a half-integer
    segments = [f"{den // 3}/{den}", f"{den // 5}/{den}", f"{den // 7}/{den}"]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"n": 3, "segments_a": segments}))
    code, text = run_cli("simulate", "--input", str(path))
    assert code == 0
    echoed = json.loads(text)["profile"]["segments_a"]
    assert [model.parse_ratio(v) for v in echoed] == [
        model.parse_ratio(v) for v in segments
    ]


def test_simulate_rejects_a_huge_common_denominator(tmp_path, capsys):
    # Distinct 998-digit denominators: their lcm, the win table's scale,
    # passes 2000 digits at the third segment.
    dens = [10**997 + 2 * i + 1 for i in range(300)]
    path = tmp_path / "lcm.json"
    path.write_text(json.dumps({"n": 300, "segments_a": [f"1/{d}" for d in dens]}))
    start = time.perf_counter()
    code, text = run_cli("simulate", "--input", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert text == ""
    assert "segments_a[3]" in capsys.readouterr().err


def test_simulate_endless_input_exits_two(capsys):
    start = time.perf_counter()
    code, text = run_cli("simulate", "--input", "/dev/zero")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert "--input" in err
    assert f"longer than {cli._MAX_INPUT_BYTES} bytes" in err
    assert_one_line(err, "lry simulate: error: argument --input: /dev/zero is longer than ")


def test_simulate_reads_a_pipe(tmp_path):
    # A pipe reports a size of 0, so the read must go on past that hint.
    fifo = tmp_path / "profile.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(
        target=fifo.write_text, args=(json.dumps(SIMULATE_PROFILE),), daemon=True
    )
    writer.start()
    code, text = run_cli("simulate", "--input", str(fifo))
    writer.join(timeout=5)
    assert not writer.is_alive()
    assert code == 0
    assert json.loads(text)["profile"] == SIMULATE_PROFILE


def test_simulate_input_size_bound(tmp_path, monkeypatch, capsys):
    doc = json.dumps(SIMULATE_PROFILE)
    monkeypatch.setattr(cli, "_MAX_INPUT_BYTES", len(doc))
    path = tmp_path / "profile.json"
    path.write_text(doc)
    code, text = run_cli("simulate", "--input", str(path))
    assert code == 0
    assert json.loads(text)["profile"] == SIMULATE_PROFILE
    path.write_text(doc + " ")  # still valid JSON, one byte over the bound
    code, text = run_cli("simulate", "--input", str(path))
    assert code == 2
    assert text == ""
    assert "--input" in capsys.readouterr().err


def test_simulate_deeply_nested_input_exits_two(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, text = run_cli("simulate", "--input", str(path))
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert "--input" in err
    assert "not valid JSON" in err
    assert_one_line(err, "lry simulate: error: argument --input: ")


def test_bad_seed_exits_two(capsys):
    code, _ = run_cli("example-2gap", "--seed", "-1")
    assert code == 2
    assert "--seed" in capsys.readouterr().err
    code, text = run_cli("example-2gap", "--seed", "18446744073709551615")
    assert code == 0
    assert json.loads(text)["seed"] == 2**64 - 1
    for argv in (
        ["example-2gap", "--seed", "18446744073709551616"],
        ["example-2gap", "--seed", "-1", "--seed", "5"],  # each occurrence is checked
        *([command, "--seed", "9" * 4000] for command in ("example-2gap", "verify", "geodelta")),
        *([command, "--seed", "x" * 5000] for command in ("example-2gap", "verify", "oracle")),
    ):
        assert_refused(capsys, argv, "--seed")


def test_unknown_flag_exits_two(capsys):
    code, _ = run_cli("example-2gap", "--bogus")
    assert code == 2
    assert_one_line(capsys.readouterr().err, "lry: error: unrecognized arguments: --bogus")


@pytest.mark.parametrize(
    "argv, line",
    [
        (["verify", "--format", "xml"],
         "lry verify: error: argument --format: invalid choice: 'xml' (choose from 'json', 'csv')"),
        (["frob"], "lry: error: argument command: invalid choice: 'frob' (choose from 'simulate',"
         " 'example-2gap', 'verify', 'geodelta', 'oracle')"),
        (["example-2gap", "--bogus", "it's"], "lry: error: unrecognized arguments: --bogus it's"),
        (["verify", "--format", "x" * 5000], "lry verify: error: argument --format: invalid"
         " choice: 'xxxxxxxxxxxx...xxxxxxxxxxxxx' (choose from 'json', 'csv')"),
        (["x" * 5000], "lry: error: argument command: invalid choice:"
         " 'xxxxxxxxxxxx...xxxxxxxxxxxxx' (choose from"),
        (["example-2gap", "x" * 5000],
         "lry: error: unrecognized arguments: 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
        (["example-2gap", "--bogus", "é"],
         "lry: error: unrecognized arguments: '--bogus \\xe9'"),
    ],
    ids=["format", "command", "arguments", "long-format", "long-command", "long-arguments",
         "non-ascii-arguments"],
)
def test_refused_choices_and_arguments_echo_in_brief(capsys, argv, line):
    # Short ASCII values read as argparse writes them; a long one is cut as
    # model._brief cuts it, so the refusal stays one short line.
    assert run_cli(*argv) == (2, "")
    err = capsys.readouterr().err
    assert_one_line(err, line)
    assert len(err.encode("utf-8")) <= 200


# Each command's flags.  Letters, control characters and other symbols hold
# no digit, so no value drawn from them is an integer.
_COMMAND_FLAGS = {
    "simulate": ("--input", "--seed", "--format"),
    "example-2gap": ("--seed", "--format"),
    "verify": ("--count", "--n-max", "--seed", "--format"),
    "geodelta": ("--delta", "--seed", "--format"),
    "oracle": ("--count", "--oracle-cap", "--seed", "--format"),
}
_refused_chars = st.characters(categories=("Cc", "L", "So"))
# A short text, or that text repeated to up to 5000 characters; never a --format choice.
_refused_text = (
    st.text(_refused_chars, max_size=40)
    .flatmap(lambda part: st.sampled_from([part, part * (5000 // max(len(part), 1))]))
    .filter(lambda text: text not in ("json", "csv"))
)


@settings(deadline=None, max_examples=40)
@given(value=_refused_text)
@example(value="a\0b" * 2000)
def test_every_flag_refuses_in_one_short_line(tmp_path_factory, value):
    # Every flag of every command gets the value; --input gets it as a file
    # in a directory that does not exist.  A NUL makes open() raise
    # ValueError, not OSError, whose path argparse would echo whole.
    missing = tmp_path_factory.getbasetemp() / "missing"
    for command, flags in _COMMAND_FLAGS.items():
        for flag in flags:
            argv = [command, flag, str(missing / value) if flag == "--input" else value]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert run_cli(*argv) == (2, ""), ascii(argv)[:300]
            line = err.getvalue()
            assert line.endswith("\n") and len(line.splitlines()) == 1, ascii(line[:300])
            assert len(line.encode("utf-8")) <= 200, ascii(line[:300])


def test_integer_options_refuse_digits_after_unicode_13(capsys):
    # int() reads the Tangsa digit (Unicode 14.0) from 3.11 and the Kawi digit
    # (15.0) from 3.12; the options read the digits of Unicode 13.0 alone.
    for digit in ("\U00016ac3", "\U00011f53"):
        for argv, flag in (
            (["geodelta", "--delta", digit], "--delta"),
            (["verify", "--count", digit], "--count"),
            (["example-2gap", "--seed", f"1{digit}"], "--seed"),
            (["oracle", "--oracle-cap", f"+{digit}"], "--oracle-cap"),
        ):
            assert_refused(capsys, argv, flag)
    assert list(check_goldens.refusal_mismatches()) == []
    # Spaces around the number, a sign and a Unicode 13.0 digit still read.
    three = run_cli("geodelta", "--delta", "3")
    for delta in (" 3 ", "+3", "٣"):
        assert run_cli("geodelta", "--delta", delta) == three


def test_verify_small_run():
    code, text = run_cli("verify", "--count", "30", "--n-max", "6", "--seed", "1")
    assert code == 0
    doc = json.loads(text)
    assert doc["instances"] == 30
    assert doc["violations"] == []
    assert doc["nMax"] == 6


def test_a_passing_sweep_builds_no_fraction(monkeypatch):
    # The first call builds the parser, and with it example-2gap's profile
    # and its Fractions; after that, a sweep whose checks all pass builds none.
    argv = ("verify", "--count", "500", "--n-max", "60", "--seed", "3")
    expected = run_cli(*argv)
    assert expected[0] == 0

    def refuse(cls, *args, **kwargs):
        raise AssertionError(f"Fraction{args} built on a passing sweep")

    monkeypatch.setattr(fractions.Fraction, "__new__", refuse)
    assert run_cli(*argv) == expected


def test_verify_output_is_golden():
    # The digests live in check_goldens.py, which CI also runs without pytest.
    assert list(check_goldens.verify_mismatches()) == []


def test_verify_rejects_bad_count(capsys):
    code, _ = run_cli("verify", "--count", "0")
    assert code == 2
    assert "--count" in capsys.readouterr().err
    # Never an in-range huge count: that is a long sweep, not a refusal.
    for count in ("0", "-1", "x" * 5000):
        assert_refused(capsys, ["verify", "--count", count], "--count")


def test_verify_rejects_oversized_n_max(capsys):
    # the bound is checked before any profile is drawn
    for n_max in (cli.MAX_N_MAX + 1, 10**9):
        start = time.perf_counter()
        code, text = run_cli("verify", "--count", "1", "--n-max", str(n_max))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert text == ""
        assert "--n-max" in capsys.readouterr().err
    for n_max in ("1", "9" * 4000, "x" * 5000):
        assert_refused(capsys, ["verify", "--count", "1", "--n-max", n_max], "--n-max")


def test_verify_accepts_n_max_at_the_bound():
    code, text = run_cli("verify", "--count", "1", "--n-max", str(cli.MAX_N_MAX))
    assert code == 0
    assert json.loads(text)["nMax"] == cli.MAX_N_MAX


def test_geodelta_at_max_delta_is_fast_and_small():
    argv = ("geodelta", "--delta", str(cli.MAX_DELTA))
    start = time.perf_counter()
    code, text = run_cli(*argv)
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        traced = run_cli(*argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert traced == (code, text)
    doc = json.loads(text)
    assert doc["run"]["crossingPair"] == [999, 1000]
    assert doc["worstGapA"] == "500"
    assert elapsed < 1.0
    assert peak < 40 * 2**20


def test_geodelta_json_report():
    code, text = run_cli("geodelta", "--delta", "6", "--seed", "0")
    assert code == 0
    doc = json.loads(text)
    assert doc["geoA"] == "3"
    assert doc["worstWinsA"] == 0
    assert doc["worstGapA"] == "3"
    assert doc["gapExceedsUnconstrainedBound"] is True
    assert "worst candidate 0 wins, geo 3, gap 3 > 2" == doc["summary"]


def test_geodelta_output_is_golden():
    # The digests live in check_goldens.py, which CI also runs without pytest.
    for (fmt, delta), digests in check_goldens.GEODELTA_GOLDEN.items():
        for seed, digest in enumerate(digests):
            code, text = run_cli(
                "geodelta", "--delta", str(delta), "--seed", str(seed), "--format", fmt
            )
            assert code == 0
            got = hashlib.sha256(text.encode("utf-8")).hexdigest()
            assert got == digest, (fmt, delta, seed)


def test_geodelta_rejects_zero(capsys):
    code, _ = run_cli("geodelta", "--delta", "0")
    assert code == 2
    assert "--delta" in capsys.readouterr().err


def test_geodelta_rejects_oversized_delta(capsys):
    # 4 * delta^2 splits would exhaust memory; the bound is checked first
    for delta in (cli.MAX_DELTA + 1, 10**9):
        start = time.perf_counter()
        code, text = run_cli("geodelta", "--delta", str(delta))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert text == ""
        assert "--delta" in capsys.readouterr().err
    for delta in ("9" * 4000, "x" * 5000):
        assert_refused(capsys, ["geodelta", "--delta", delta], "--delta")


def test_csv_candidates():
    code, text = run_cli("example-2gap", "--seed", "0", "--format", "csv")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0].startswith("# inputDigest:")
    assert lines[1] == "# seed: 0"
    assert lines[2] == "k,option,winsA,winsB,deltaGeoA,deltaGeoKA,deltaGeoB,deltaGeoKB"
    assert lines[3] == "5,option1,3,7,1,1/2,-1,-1/2"
    assert len(lines) == 7


def test_oracle_clean_run():
    code, text = run_cli("oracle", "--count", "5", "--seed", "4")
    assert code == 0
    doc = json.loads(text)
    assert doc["strategy"]["configs"] == 180
    assert doc["strategy"]["mismatches"] == []
    assert doc["grid"]["mismatches"] == []
    assert doc["grid"]["analogueChecked"] is True


def test_oracle_rejects_cap_below_one(capsys):
    for cap in ("0", "-3"):
        code, text = run_cli("oracle", "--count", "3", "--oracle-cap", cap)
        assert code == 2
        assert text == ""
        assert "--oracle-cap" in capsys.readouterr().err
    for flag in ("--count", "--oracle-cap"):
        for value in ("0", "x" * 5000):
            assert_refused(capsys, ["oracle", flag, value], flag)
    code, text = run_cli("oracle", "--count", "3", "--oracle-cap", "1")
    assert code == 0
    assert json.loads(text)["grid"]["mismatches"] == []


def test_oracle_reports_skipped_analogue():
    # the shrunk analogue's largest side is its whole 4x4 grid
    for cap, checked in (("15", False), ("16", True)):
        code, text = run_cli("oracle", "--count", "3", "--oracle-cap", cap)
        assert code == 0
        assert json.loads(text)["grid"]["analogueChecked"] is checked


def test_oracle_reports_a_shape_without_a_plan(monkeypatch, capsys):
    # Growth that drops the districts of corner (1, 1) on the 2x2 grid at
    # d = 2 leaves that shape with no plan: each such grid is a no_plans
    # mismatch carrying the search's error, and the other shapes are clean.
    grow = grid._grow_districts
    after_corner = frozenset({(1, 2), (2, 1), (2, 2)})

    def without_corner(anchor, allowed, d, z):
        return [] if (allowed, d) == (after_corner, 2) else grow(anchor, allowed, d, z)

    monkeypatch.setattr(grid, "_grow_districts", without_corner)
    grid._shape.cache_clear()
    try:
        code, text = run_cli("oracle", "--count", "12", "--seed", "5")
    finally:
        grid._shape.cache_clear()
    assert code == 1
    assert capsys.readouterr().err == ""
    drawn = [oracle.random_small_grid(random.Random(protocol.mix_seed(5, i))) for i in range(12)]
    no_plan = [i for i, g in enumerate(drawn) if (g.m, g.d) == (2, 2)]
    assert no_plan and len(no_plan) < len(drawn)
    assert json.loads(text)["grid"]["mismatches"] == [
        {"kind": "no_plans", "detail": f"instance {i}: region of 4 cells has no valid plan"}
        for i in no_plan
    ]


def test_oracle_output_is_golden():
    # The digests live in check_goldens.py, which CI also runs without pytest.
    assert list(check_goldens.oracle_mismatches()) == []


# A valid five-district profile whose optimal play ends in a coin flip.
SIMULATE_PROFILE = {"n": 5, "segments_a": ["4/9", "3/10", "1", "8/9", "7/10"]}
# Invalid: the cumulative sum 0.5 at split 2 is a half-integer.
INVALID_PROFILE = {"n": 2, "segments_a": ["0.25", "0.25"]}

# SHA-256 of the stdout of `simulate` on SIMULATE_PROFILE at seeds 1 and 3,
# and of `simulate` on INVALID_PROFILE (a JSON report whatever --format
# says), recorded while `example-2gap` still had its own copy of the simulate
# command.  The `example-2gap` digests live in check_goldens.py.
SIMULATE_GOLDEN = {
    ("json", 1): "c1548aff3a4f2cde7406e3969ebd5c152f30f51c4d49bf048b8995b5374cc424",
    ("json", 3): "d887710bcbf4109f4c2d31a0c1e7083754baa78c971d28f8bf216555aa69a4fb",
    ("csv", 1): "568d14697d1bddc049334504fc09c1816ae61f13bcb4fe612bb1a5c27a50ad14",
    ("csv", 3): "f092b5ad6f15c6119bf723904ffa2d3d985e6fa3f121f505c9ac578b15eb7df0",
}
SIMULATE_INVALID_GOLDEN = "af33d7162349037a503b1174ba3ae6f871d07497ece3c9ae7ff756023dbc6dd1"
# A valid five-district profile whose optimal play ends with both parties
# indifferent at k = 2: a settled run, one CSV row and no candidate spans.
SETTLED_PROFILE = {"n": 5, "segments_a": ["3/10", "4/5", "1/5", "2/5", "1/5"]}
# SHA-256 of the stdout of `simulate` on SETTLED_PROFILE, recorded while the
# report rows, candidates and fairness deltas were still built separately.
SIMULATE_SETTLED_GOLDEN = {
    ("json", 0): "fdf1b95fe69e33ce09486c561a0cb1e667197c4bef7fc090af9cc52d7244fe84",
    ("json", 1): "6aab6e751cb783a685d7cf7679d488cd20f333a5dc8aaeba4978517579c4a5a5",
    ("csv", 0): "a20fc559f60cec58693c829d9907f860c78db29b8b8bc63aada1df5df6bbaf93",
    ("csv", 1): "6cdba3bd623dff5c1a860b5103c6115f8a79c8872948febf29b96846a223da8e",
}

def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_example_2gap_output_is_golden():
    for fmt, digests in check_goldens.EXAMPLE_2GAP_GOLDEN.items():
        for seed, digest in enumerate(digests):
            code, text = run_cli("example-2gap", "--seed", str(seed), "--format", fmt)
            assert code == 0
            assert sha256(text) == digest, (fmt, seed)


def test_simulate_output_is_golden(tmp_path):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(SIMULATE_PROFILE))
    for (fmt, seed), digest in SIMULATE_GOLDEN.items():
        code, text = run_cli(
            "simulate", "--input", str(path), "--seed", str(seed), "--format", fmt
        )
        assert code == 0
        assert sha256(text) == digest, (fmt, seed)


def test_simulate_parse_output_is_golden():
    assert list(check_goldens.simulate_mismatches()) == []


def test_stdlib_grammar_check_passes():
    # -S leaves site-packages out, so the check must need the stdlib alone;
    # as in CI, a warning or an unclosed resource fails it.
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-X", "dev", "-S",
         os.path.join(tests, "check_goldens.py")],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert b" 0 mismatches" in proc.stdout


def test_python_m_lry_runs_the_cli():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "lry", "example-2gap", "--seed", "0"],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == check_goldens.EXAMPLE_2GAP_GOLDEN["json"][0]


def test_fairness_targets_are_computed_once(monkeypatch):
    # One geometric target per party, one split target per party and
    # distinct split (5 and 6), shared by the JSON body and the CSV rows.
    calls = {"geometric_target": 0, "k_split_target": 0}
    for name in calls:
        original = getattr(targets, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(targets, name, counted)
    code, _ = run_cli("example-2gap", "--format", "csv")
    assert code == 0
    assert calls == {"geometric_target": 2, "k_split_target": 4}


def test_simulate_settled_output_is_golden(tmp_path):
    path = tmp_path / "settled.json"
    path.write_text(json.dumps(SETTLED_PROFILE))
    for (fmt, seed), digest in SIMULATE_SETTLED_GOLDEN.items():
        code, text = run_cli(
            "simulate", "--input", str(path), "--seed", str(seed), "--format", fmt
        )
        assert code == 0
        if fmt == "json":
            assert json.loads(text)["run"]["outcome"] == "both_indifferent"
        assert sha256(text) == digest, (fmt, seed)


def test_simulate_invalid_profile_output_is_golden(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(INVALID_PROFILE))
    for fmt in ("json", "csv"):
        code, text = run_cli("simulate", "--input", str(path), "--format", fmt)
        assert code == 1
        assert "profileViolations" in json.loads(text)
        assert sha256(text) == SIMULATE_INVALID_GOLDEN, fmt


def test_help_mentions_defaults(capsys):
    code, _ = run_cli("verify", "--help")
    assert code == 0
    out = capsys.readouterr().out
    assert "default: 10000" in out
    assert "default: 0" in out


def _sweep_with_violations(real):
    """``property_sweep`` as it is, plus one violation with a profile and
    one without."""

    def sweep(count, n_max, seed):
        report = real(count, n_max, seed)
        report.violations.append(
            protocol.SweepViolation("conservation", "winsA + winsB = 4 != 5", {"n": 5})
        )
        report.violations.append(protocol.SweepViolation("geo_target", "r=3/2", None))
        return report

    return sweep


# SHA-256 of the stdout of `verify --count 20 --n-max 6 --seed 2` and of
# `oracle --count 3 --seed 5` when each reports a failure, recorded before
# the commands shared one report writer.
VERIFY_VIOLATION_GOLDEN = {
    "json": "735fe831615bb8acf5a83abd14f4d48d7a231fc511ee99740b41b6d89e463d25",
    "csv": "1a2ce3170a0102a423f894e4bc7433e5414501a37c84080b27f5665aa8b08151",
}
ORACLE_MISMATCH_GOLDEN = {
    "json": "9473cc0d16bd93d23a925adf0b21b41df920ac70bea1476940ce72076f2cc5e0",
    "csv": "73fb82bb2ebbac965a2eb0cc12237e214b4e1d28f8d10f12e91b143cdce77906",
}


def test_verify_violation_output_is_golden(monkeypatch):
    monkeypatch.setattr(
        protocol, "property_sweep", _sweep_with_violations(protocol.property_sweep)
    )
    for fmt, digest in VERIFY_VIOLATION_GOLDEN.items():
        code, text = run_cli(
            "verify", "--count", "20", "--n-max", "6", "--seed", "2", "--format", fmt
        )
        assert code == 1
        if fmt == "json":
            assert [v["property"] for v in json.loads(text)["violations"]] == [
                "conservation",
                "geo_target",
            ]
        else:
            assert text.splitlines()[-3:] == [
                "property,detail,profile",
                'conservation,winsA + winsB = 4 != 5,"{""n"":5}"',
                "geo_target,r=3/2,",
            ]
        assert sha256(text) == digest, fmt


def test_oracle_mismatch_output_is_golden(monkeypatch):
    bad = [
        {"kind": "unwitnessed_max", "detail": "instance 1: reported 3, best plan 2"},
        {"kind": "analogue", "detail": "k=2 |side|=8 analytic=3 bruteforce=2"},
    ]
    monkeypatch.setattr(
        oracle, "grid_oracle_mismatches", lambda count, seed, cap: (count, True, bad)
    )
    for fmt, digest in ORACLE_MISMATCH_GOLDEN.items():
        code, text = run_cli("oracle", "--count", "3", "--seed", "5", "--format", fmt)
        assert code == 1
        if fmt == "json":
            doc = json.loads(text)
            assert doc["grid"]["mismatches"] == bad
            assert doc["strategy"]["mismatches"] == []
        else:
            assert text.splitlines()[-3:] == [
                "kind,detail",
                'unwitnessed_max,"instance 1: reported 3, best plan 2"',
                "analogue,k=2 |side|=8 analytic=3 bruteforce=2",
            ]
        assert sha256(text) == digest, fmt
