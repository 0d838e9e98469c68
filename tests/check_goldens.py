"""Check the ratio grammar and the CLI's golden reports with nothing but
the standard library.

Replays every recorded verdict in ``ratio_corpus.json`` through
``model.parse_ratio``, refuses two digits that Unicode added after 13.0,
and checks the error text of profiles that echo them.  Then it replays
every command's reports against their SHA-256 digests: ``simulate`` on
three profiles, two whose entries come in many written forms and a plain
one that ``model.profile_from_dict`` reads on integer pairs, ``example-2gap``,
``verify`` at n up to 20 and 60 and ``geodelta`` in both formats, and
``oracle`` at caps 4, 16 and 36.  Each JSON report among them must also
read back and dump with ``json.dumps(doc, sort_keys=True, indent=2)`` to
itself plus a newline, so the CLI's own writer is checked on every
interpreter.  ``geodelta --delta`` must refuse the two
later digits with one golden line on stderr, exit 2 and nothing on stdout,
and so must a 5000-letter ``verify --format`` and a ``geodelta --delta``
whose echo is cut between escapes.  Each of the three profiles must also read back unchanged
from ``profile_to_dict`` and equal ``SplitProfile.of`` its parsed entries,
and the plain one must read the same with ``model.parse_ratio`` raising.
Last, the plans of the whole 6x6 grid at d = 2, 3, 4 and 6 are counted over
the search ``grid._shape`` compiles.  So an interpreter without pytest can be
checked too:

    PYTHONPATH=src python -W error -X dev -S tests/check_goldens.py

Prints each mismatch and exits 1, or exits 0 when everything agrees.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from lry import cli, grid, model

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
# A valid eight-district profile of plain "p/q" entries that reaches every
# echo of the plain path: a certified shared denominator (sevenths, one with a
# leading zero), a failed certificate (ninths), numerator 0, denominator 1 and
# a denominator with a leading zero.
PLAIN_PROFILE = {
    "n": 8,
    "segments_a": ["2/7", "03/7", "6/9", "1/9", "0/5", "1/1", "1/011", "4/7"],
}
PROFILES = {
    "large": LARGE_DEN_PROFILE, "noncanonical": NONCANONICAL_PROFILE, "plain": PLAIN_PROFILE
}
# Digits that Unicode added after 13.0, Python 3.10's database: a Tangsa digit
# (14.0) and a Kawi digit (15.0).  Each must be refused on every interpreter,
# though 3.11 and later know them as digits.
POST_13_DIGIT_STRINGS = ("\U00016ac1/3", "\U00011f51/3")
# The FormatError text of profiles that echo those digits, the same on every
# interpreter whatever characters its Unicode database prints: each echo is
# escaped to ASCII before reprlib's cut, which keeps 13 characters, "..." and 14.
ECHO_GOLDEN = (
    ({"n": 1, "segments_a": ["\U00016ac1/3"]},
     "segments_a[1]: not a valid ratio: '\\U00016ac1/3'"),
    ({"n": 1, "segments_a": ["1/3"], "\U00016ac1": 0},
     "unknown profile field(s): ['\\U00016ac1']"),
    ({"n": 1, "segments_a": ["x" * 50 + "\U00011f51"]},
     "segments_a[1]: not a valid ratio: 'xxxxxxxxxxxx...xxx\\U00011f51'"),
)
# SHA-256 of the stdout of `simulate` on the three profiles above.  Those of
# the first two were recorded while every ratio string still went through
# Fraction's string parser, those of the plain one while every entry still
# went through `model.parse_ratio`.
SIMULATE_PARSE_GOLDEN = {
    ("large", "json", 0): "ebf45d8822f816f034a507d87cdc48bd846cdae9e875a1855bc1c2bf7a910d35",
    ("large", "json", 1): "6d2de4bc95c58dc45fcd156accc2e8c483b96359e428693eb5b6cd85204979aa",
    ("large", "csv", 0): "4baf5f5aabc3f1f313b33b31145728c766c9fba1f9a1ee6ee0ddd849a62decfc",
    ("large", "csv", 1): "28e9e7b197634290469a0d44aa1fcbc707a36371e7558d2e3d15d4a4e849459e",
    ("noncanonical", "json", 0): "8c3c938d78a2494bfccced4da55bc97f2e7db8a1fa20276af70b6f59e32059d8",
    ("noncanonical", "json", 1): "6890a4e491bd0da29cce087a2c62c695ab485cd2eca02412ab377e158d7a4ea2",
    ("noncanonical", "csv", 0): "8602d4561bf78a6e07ed70eabfed5cd34e62c0868faf9596815b7ac94e6ca947",
    ("noncanonical", "csv", 1): "0b19440bf01c728f441004cd84e9a6ef1ef7630fb48a5b32745146f54a1a6719",
    ("plain", "json", 0): "c9120bbf258c1d79785730dae222713e1bb01c4ad53ac7486ef4bbfde62943cd",
    ("plain", "json", 1): "aee647c22410dcc80f113e4aaa7d73ce0b564c411ca2ed560a49e0287e9eeb52",
    ("plain", "csv", 0): "bdd4a362bb0eba9444a621d3b6c03f5e9ec4a425584683c261c1ee3a6d696c17",
    ("plain", "csv", 1): "9d41aab1a5431f89d76912bd32fabd79c86dd8ee2f9a377de163c4d1bc26e2de",
}
# SHA-256 of the stdout of `verify` with these arguments in each format.  The
# sweep at n up to 20 was recorded before the win counts moved to the integer
# win table, the one at n up to 60 while the sweep's targets and scalar checks
# still built Fractions.  They pin each report byte for byte, the `checks`
# count and the outcome histogram included.
VERIFY_GOLDEN = {
    (("--count", "200", "--n-max", "20", "--seed", "1"), "json"):
        "87765a4380364a47ed77b837118b0bfb8004459cd618d7a1b6ba02bb8ecfb914",
    (("--count", "200", "--n-max", "20", "--seed", "1"), "csv"):
        "8afc55b7a601e08898d8c1210e1574138e4794d664b5db9f1b306be715edbc7e",
    (("--count", "2000", "--n-max", "60", "--seed", "7"), "json"):
        "94f6c95c82809cfd7c870ba6866e3b821d336c765621475113f7fb15958d391e",
    (("--count", "2000", "--n-max", "60", "--seed", "7"), "csv"):
        "0898133f1a40f4a66c360c7b60d8810e4a17d2a3f60d5d4be6a2165b1b5a8344",
}
# SHA-256 of the stdout of `example-2gap --seed S --format F` for seeds 0-3,
# recorded while `example-2gap` still had its own copy of the simulate command.
EXAMPLE_2GAP_GOLDEN = {
    "json": (
        "5593869318bf06d18f36107e686eb777a8af0453cd928928c87120f765e3cf54",
        "e273f64634535821d541b67360f7eeab926bcc52a2f6b04984b1b360d81d220a",
        "c76de86ec3113a0c047890e30d5e719577131e4c24e4877d388b2eefd175244c",
        "cd4cd11512ce5f9d3bdee90e38c875c9b8a881842a1a20103cf078b09c50083d",
    ),
    "csv": (
        "60b4e7c4634d8b3a872cca76fea5af9c2843c029072de7020b28d54c55879157",
        "25475ac0e64d4de419d27a4ef454588f433b21fe788da454ff7900f56c8c2eb8",
        "c4bad814c8b8a8e578b822737b04a8962517ba9dd45b41cc52cdddd66b137d06",
        "82064166677ff25004adf7db27165c2c008a6f8be26997ae575cae865196722f",
    ),
}
# SHA-256 of the stdout of `geodelta --delta D --seed S --format F`, recorded
# while the group counts still came from the dense grid of `make_geodelta`.
GEODELTA_GOLDEN = {
    ("json", 1): (
        "02bf4a29a933227deace620c9a688333bf9bd7b9d9cd5909b128942d9a8b58ad",
        "5b0316b5562153ec0ca8dd66996c6fa6ce787a78481a4f2330687b88e92df415",
        "d2d0fd7f871e7c49484338721b90f45035867274e88eef8bd3f0ddc2149758c4",
        "f36b7d7b334b53150059c08e05b7b145f6a76742dda6235f69594a32387eb799",
    ),
    ("json", 7): (
        "342a4f5ea9e7718906563127d805fdc6ae32cba5fd5d5e2150d2f75d83f4eea3",
        "5ec489e7e4b85dc53e90851a9bce617acf4bfd3313996abbb92b3dd9a2ea6389",
        "8ad4b60c006edf31305e542bdf7bc023c549c4c002b61ddfc0fcfb9f724c8435",
        "5b426c99c6d61c2bb825b8db32216fe8d1ff07f90e101e8708b6a04fa4da0197",
    ),
    ("json", 40): (
        "adec3c5a4520cde87d629c442545a3a9ac43239e32cbbbf16fb0b42c1bdc08ad",
        "b6bd2ab9efa1c599fa212155b815e6604cce014088a00f37555d761eeb03dd57",
        "97163106889888eb420d43d70935dd69b7d8b693085255fa9f6cbe3bec3bf789",
        "21e0c7a312774c2880a2a713a49649c17f4e7317be10c9c70bc57eed8b9003fc",
    ),
    ("csv", 1): (
        "c8e2b6488e501a7b6e899746c769edcc234fad2c82f414ee741a59d72d2cd1ba",
        "19b55cc18ffe0b5df035be4cdd8a93404336ef71e26ac82e177b6c7c799bb6ee",
        "297363c3e83ba43e9541c9719597d4949c82eb4079d26655526dbe48e57e8199",
        "c6b277eefda9b3d17e93375484e2a9776ec86f41ad54aeac8eeda3df7073c34e",
    ),
    ("csv", 7): (
        "20308c46abd123c784846f3ed165b98f52bf168d6e1ef57224460b3fece4b16d",
        "8a2d8eabd3fdd462e04f8a4f051d4e44e26706950cf849f233e43f4ed4b114a6",
        "96db563c12384b459c4f22e8bcb77b0a509a8bc8799c090672b7af9fac874130",
        "ea28fefe70d45b27f989cc741431edd7ed3df8066d094c482ecbeaea4099821c",
    ),
    ("csv", 40): (
        "832353427e3c9da07077e272c369cdc276c072393ce250ec0e909cabf89270cf",
        "cb46b3b1bb0eecbc0f7963bc184a75d1c01da22ecae04c7ef6f3cbbc06cfeeb0",
        "d3875db8ae2f1915ffc06fc53fe98e209ce6c0275f71f05d92b49e50f4169c86",
        "12ab7ceffb8b8e52f1171b7b712a0ccd8d4246882202296aac5cf533c6adeed1",
    ),
}
# SHA-256 of the stdout of `oracle` with these arguments, recorded while the
# districts were still found by filtering subsets and the allocation search
# still tried every bin order; those at caps 4 and 36 while each shape still
# kept its districts and its compiled search in two caches.
ORACLE_GOLDEN = {
    ("--count", "25", "--oracle-cap", "16", "--format", "json", "--seed", "38"):
        "d2870ffb589983951703000236b72bdb46946e65c6a07a7a561cc1a0800a3178",
    ("--count", "25", "--oracle-cap", "16", "--format", "json", "--seed", "39"):
        "e123ffcfead75d5708f208199831a17fe7b5e6660c5fc617ed5e0e6a7a3e6241",
    ("--count", "5", "--seed", "4", "--format", "csv"):
        "d17752eace71af3943adaa4c1c332f7458d3a3647f013f8ef36f4c4fb5cf4919",
    ("--count", "25", "--oracle-cap", "4", "--format", "json", "--seed", "40"):
        "e35ac9c1e9cfb39c24bf103379fb7551fa93a1cdde20a322e281dd426d103f22",
    ("--count", "40", "--oracle-cap", "36", "--format", "json", "--seed", "41"):
        "08b2e06f2812a0d67d9062318ffd818f9e3a9ea5015b369ecd0f6148ce371327",
    ("--count", "40", "--oracle-cap", "36", "--format", "csv", "--seed", "41"):
        "095f9eae824041e4f0d672b4280e3b0e8603ef03ba1fd7ccfec9e41010f3d28d",
}

# SHA-256 of the stderr of each refused call, with its exit code.  First
# `geodelta --delta D`, D one digit that Unicode added after 13.0 (Tangsa 3,
# 14.0; Kawi 3, 15.0): refused on every interpreter, as `--delta` reads its
# digits through `model._digits`.
REFUSAL_GOLDEN = {
    ("geodelta", "--delta", "\U00016ac3"):
        (2, "359c9c1b7e1181c394c6e9c9d256e0a964c1a3fab0b6e7456becdb0a061dafd8"),
    ("geodelta", "--delta", "\U00011f53"):
        (2, "06b4e0539fa0c3bb4f1568712214db5803abc097afda73cd7292c63088400122"),
    # a 5000-letter choice and an echo whose control characters cross
    # model._brief's cut: each refused in one line, 113 and 109 bytes
    ("verify", "--format", "x" * 5000):
        (2, "8e54d04990bf111986f84cdca3fa9a3a1a11ed53924b187d2099ed2d940fabea"),
    ("geodelta", "--delta", "0000" + "\x1f" * 6 + "0"):
        (2, "791e99bb7898bb169d4b4aad6caa1e0b7689926f77013e54f13822ae00268a90"),
}
# The plans of the whole 6x6 grid at each district size d, as counted over the
# nodes ``grid._shape`` compiles.  Each was recorded by listing every plan with
# ``grid.enumerate_region_plans``; d = 2 is the number of domino tilings of the
# 6x6 square (OEIS A004003).
PLAN_COUNTS_6X6 = {2: 6728, 3: 80092, 4: 178939, 6: 88118}


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


def digit_mismatches():
    for text in POST_13_DIGIT_STRINGS:
        got = verdict(text)
        if got[0] != "error":
            yield f"parse_ratio({ascii(text)}): expected a FormatError, got {got}"


def echo_mismatches():
    for doc, expected in ECHO_GOLDEN:
        try:
            model.profile_from_dict(doc)
            got = "no FormatError"
        except model.FormatError as exc:
            got = str(exc)
        if got != expected:
            yield f"profile_from_dict({ascii(doc)}): expected {ascii(expected)}, got {ascii(got)}"


def profile_mismatches():
    for name, doc in PROFILES.items():
        profile = model.profile_from_dict(doc)
        if model.profile_from_dict(model.profile_to_dict(profile)) != profile:
            yield f"{name} profile: changed by profile_to_dict and profile_from_dict"
        segments = [model.parse_ratio(entry) for entry in doc["segments_a"]]
        if model.SplitProfile.of(doc["n"], segments) != profile:
            yield f"{name} profile: differs from SplitProfile.of its parsed entries"
    parse_ratio, refused = model.parse_ratio, None

    def refuse(value):
        raise AssertionError(f"parse_ratio called on {value!r}")

    model.parse_ratio = refuse
    try:
        model.profile_from_dict(PLAIN_PROFILE)
    except AssertionError as exc:
        refused = exc
    finally:
        model.parse_ratio = parse_ratio
    if refused:
        yield f"plain profile: not read on integer pairs, {refused}"


def digest_mismatches(argv, digest):
    """The mismatches, if any, of ``lry`` run with ``argv`` against its
    SHA-256 ``digest`` and, for a JSON report, against the layout of
    ``json.dumps(..., sort_keys=True, indent=2)``."""
    out = io.StringIO()
    code = cli.main(argv, stdout=out)
    text = out.getvalue()
    got = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if code != 0 or got != digest:
        yield f"{' '.join(argv)}: exit {code}, sha256 {got}"
    if "csv" in argv:
        return
    try:
        relaid = json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    except ValueError:
        relaid = None
    if text != relaid:
        yield f"{' '.join(argv)}: not laid out as json.dumps(sort_keys=True, indent=2)"


def simulate_mismatches():
    with tempfile.TemporaryDirectory() as tmp:
        for (name, fmt, seed), digest in SIMULATE_PARSE_GOLDEN.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(PROFILES[name]))
            argv = ["simulate", "--input", str(path), "--seed", str(seed), "--format", fmt]
            yield from digest_mismatches(argv, digest)


def verify_mismatches():
    for (args, fmt), digest in VERIFY_GOLDEN.items():
        yield from digest_mismatches(["verify", *args, "--format", fmt], digest)


def example_2gap_mismatches():
    for fmt, digests in EXAMPLE_2GAP_GOLDEN.items():
        for seed, digest in enumerate(digests):
            yield from digest_mismatches(
                ["example-2gap", "--seed", str(seed), "--format", fmt], digest
            )


def geodelta_mismatches():
    for (fmt, delta), digests in GEODELTA_GOLDEN.items():
        for seed, digest in enumerate(digests):
            argv = ["geodelta", "--delta", str(delta), "--seed", str(seed), "--format", fmt]
            yield from digest_mismatches(argv, digest)


def oracle_mismatches():
    for args, digest in ORACLE_GOLDEN.items():
        yield from digest_mismatches(["oracle", *args], digest)


def refusal_mismatches():
    for argv, (code, digest) in REFUSAL_GOLDEN.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            got_code = cli.main(list(argv), stdout=out)
        got = hashlib.sha256(err.getvalue().encode("utf-8")).hexdigest()
        stdout = out.getvalue()
        if (got_code, got, stdout) != (code, digest, ""):
            yield f"{ascii(argv)}: exit {got_code}, stderr sha256 {got}, stdout {stdout[:60]!r}"


def plan_count_mismatches():
    region = frozenset((i, j) for i in range(1, 7) for j in range(1, 7))
    for d, expected in PLAN_COUNTS_6X6.items():
        # Node 0, the empty mask, has one plan; any other node, the sum of its children's.
        counts = []
        for moves in grid._shape(6, d, region).nodes:
            counts.append(sum(counts[child] for _, child in moves) if moves else 1)
        if counts[-1] != expected:
            yield f"6x6 grid at d={d}: {counts[-1]} plans, expected {expected}"


def main() -> int:
    cases = corpus_cases()
    failures = [
        *corpus_mismatches(cases), *digit_mismatches(), *echo_mismatches(),
        *profile_mismatches(), *simulate_mismatches(), *example_2gap_mismatches(),
        *verify_mismatches(), *geodelta_mismatches(), *oracle_mismatches(),
        *refusal_mismatches(), *plan_count_mismatches(),
    ]
    for line in failures:
        print(line)
    print(
        f"Python {sys.version.split()[0]}: {len(cases)} ratio strings, "
        f"{len(POST_13_DIGIT_STRINGS)} post-13.0 digits, {len(ECHO_GOLDEN)} echoes, "
        f"{len(PROFILES)} profiles (1 plain), "
        f"{len(SIMULATE_PARSE_GOLDEN)} simulate, "
        f"{sum(map(len, EXAMPLE_2GAP_GOLDEN.values()))} example-2gap, "
        f"{len(VERIFY_GOLDEN)} verify, {sum(map(len, GEODELTA_GOLDEN.values()))} geodelta "
        f"and {len(ORACLE_GOLDEN)} oracle digests, {len(REFUSAL_GOLDEN)} refusals, "
        f"{len(PLAN_COUNTS_6X6)} 6x6 plan counts, {len(failures)} mismatches"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
