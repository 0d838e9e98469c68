"""Check the ratio grammar and the CLI's golden reports with nothing but
the standard library.

Replays every recorded verdict in ``ratio_corpus.json`` through
``model.parse_ratio``, the ``simulate`` reports of two profiles whose
entries come in many written forms, the ``verify`` sweep report in both
formats and three ``oracle`` reports, against their SHA-256 digests.
Each of the two profiles must also read back unchanged from
``profile_to_dict`` and equal ``SplitProfile.of`` its parsed entries.  So
an interpreter without pytest can be checked too:

    PYTHONPATH=src python -S tests/check_goldens.py

Prints each mismatch and exits 1, or exits 0 when everything agrees.
"""

import hashlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from lry import cli, model

CORPUS = Path(__file__).with_name("ratio_corpus.json")

# A valid six-district profile over one shared odd denominator of 313 digits,
# each numerator prime to it.
LARGE_DEN = 7**370
LARGE_DEN_PROFILE = {
    "n": 6,
    "segments_a": [f"{LARGE_DEN // 13 * k + 2}/{LARGE_DEN}" for k in (5, 9, 2, 11, 7, 4)],
}
# A valid eight-district profile of entries that reports echo in another form:
# not in lowest terms, leading zeros, padding, a sign, an underscore, a
# decimal, an exponent and a JSON integer.
NONCANONICAL_PROFILE = {
    "n": 8,
    "segments_a": ["6/9", "007/10", 0, " 3/7 ", "+1/3", "1_0/21", "0.35", "45e-2"],
}
PROFILES = {"large": LARGE_DEN_PROFILE, "noncanonical": NONCANONICAL_PROFILE}
# SHA-256 of the stdout of `simulate` on the two profiles above, recorded
# while every ratio string still went through Fraction's string parser.
SIMULATE_PARSE_GOLDEN = {
    ("large", "json", 0): "ebf45d8822f816f034a507d87cdc48bd846cdae9e875a1855bc1c2bf7a910d35",
    ("large", "json", 1): "6d2de4bc95c58dc45fcd156accc2e8c483b96359e428693eb5b6cd85204979aa",
    ("large", "csv", 0): "4baf5f5aabc3f1f313b33b31145728c766c9fba1f9a1ee6ee0ddd849a62decfc",
    ("large", "csv", 1): "28e9e7b197634290469a0d44aa1fcbc707a36371e7558d2e3d15d4a4e849459e",
    ("noncanonical", "json", 0): "8c3c938d78a2494bfccced4da55bc97f2e7db8a1fa20276af70b6f59e32059d8",
    ("noncanonical", "json", 1): "6890a4e491bd0da29cce087a2c62c695ab485cd2eca02412ab377e158d7a4ea2",
    ("noncanonical", "csv", 0): "8602d4561bf78a6e07ed70eabfed5cd34e62c0868faf9596815b7ac94e6ca947",
    ("noncanonical", "csv", 1): "0b19440bf01c728f441004cd84e9a6ef1ef7630fb48a5b32745146f54a1a6719",
}
# SHA-256 of the stdout of `verify --count 200 --n-max 20 --seed 1`, recorded
# before the win counts moved to the integer win table.  They pin the report
# byte for byte, the `checks` count and the outcome histogram included.
VERIFY_GOLDEN = {
    "json": "87765a4380364a47ed77b837118b0bfb8004459cd618d7a1b6ba02bb8ecfb914",
    "csv": "8afc55b7a601e08898d8c1210e1574138e4794d664b5db9f1b306be715edbc7e",
}
# SHA-256 of the stdout of `oracle` with these arguments, recorded while the
# districts were still found by filtering subsets and the allocation search
# still tried every bin order.
ORACLE_GOLDEN = {
    ("--count", "25", "--oracle-cap", "16", "--format", "json", "--seed", "38"):
        "d2870ffb589983951703000236b72bdb46946e65c6a07a7a561cc1a0800a3178",
    ("--count", "25", "--oracle-cap", "16", "--format", "json", "--seed", "39"):
        "e123ffcfead75d5708f208199831a17fe7b5e6660c5fc617ed5e0e6a7a3e6241",
    ("--count", "5", "--seed", "4", "--format", "csv"):
        "d17752eace71af3943adaa4c1c332f7458d3a3647f013f8ef36f4c4fb5cf4919",
}


def verdict(text: str, parse=model.parse_ratio) -> list[str]:
    """``["value", ratio_str]`` or ``["error", FormatError text]``, as the
    corpus records them."""
    try:
        value = parse(text)
    except model.FormatError as exc:
        return ["error", str(exc)]
    if type(value) is not Fraction:
        return ["type", type(value).__name__]
    return ["value", model.ratio_str(value)]


def corpus_cases() -> list[list[str]]:
    """The corpus's ``[text, kind, expected]`` entries."""
    return json.loads(CORPUS.read_text(encoding="ascii"))["cases"]


def corpus_mismatches(cases):
    for text, *expected in cases:
        got = verdict(text)
        if got != expected:
            yield f"parse_ratio({text[:60]!r}): expected {expected}, got {got}"


def profile_mismatches():
    for name, doc in PROFILES.items():
        profile = model.profile_from_dict(doc)
        if model.profile_from_dict(model.profile_to_dict(profile)) != profile:
            yield f"{name} profile: changed by profile_to_dict and profile_from_dict"
        segments = [model.parse_ratio(entry) for entry in doc["segments_a"]]
        if model.SplitProfile.of(doc["n"], segments) != profile:
            yield f"{name} profile: differs from SplitProfile.of its parsed entries"


def simulate_mismatches():
    with tempfile.TemporaryDirectory() as tmp:
        for (name, fmt, seed), digest in SIMULATE_PARSE_GOLDEN.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(PROFILES[name]))
            out = io.StringIO()
            argv = ["simulate", "--input", str(path), "--seed", str(seed), "--format", fmt]
            code = cli.main(argv, stdout=out)
            got = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
            if code != 0 or got != digest:
                yield f"simulate {name} {fmt} seed {seed}: exit {code}, sha256 {got}"


def verify_mismatches():
    for fmt, digest in VERIFY_GOLDEN.items():
        out = io.StringIO()
        argv = ["verify", "--count", "200", "--n-max", "20", "--seed", "1", "--format", fmt]
        code = cli.main(argv, stdout=out)
        got = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        if code != 0 or got != digest:
            yield f"verify {fmt}: exit {code}, sha256 {got}"


def oracle_mismatches():
    for args, digest in ORACLE_GOLDEN.items():
        out = io.StringIO()
        code = cli.main(["oracle", *args], stdout=out)
        got = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        if code != 0 or got != digest:
            yield f"oracle {' '.join(args)}: exit {code}, sha256 {got}"


def main() -> int:
    cases = corpus_cases()
    failures = [
        *corpus_mismatches(cases), *profile_mismatches(), *simulate_mismatches(),
        *verify_mismatches(), *oracle_mismatches(),
    ]
    for line in failures:
        print(line)
    print(
        f"Python {sys.version.split()[0]}: {len(cases)} ratio strings, "
        f"{len(PROFILES)} profiles, {len(SIMULATE_PARSE_GOLDEN)} simulate digests, "
        f"{len(VERIFY_GOLDEN)} verify digests, {len(ORACLE_GOLDEN)} oracle digests, "
        f"{len(failures)} mismatches"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
