import itertools
import math
import re
import reprlib
import sys
import time
import unicodedata
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import check_goldens
from lry import model
from lry.model import Party, Side, SplitProfile


def frac(text):
    return Fraction(text)


def segment_support(profile, party, k):
    """Support for ``party`` in the segment between the (k-1)- and k-splits."""
    seg = profile.segments_a[k - 1]
    return seg if party is Party.A else 1 - seg


class TestParseRatio:
    def test_decimal_and_fraction_forms_agree(self):
        assert model.parse_ratio("1.9") == model.parse_ratio("19/10") == Fraction(19, 10)

    def test_int_accepted(self):
        assert model.parse_ratio(3) == Fraction(3)

    @pytest.mark.parametrize("bad", ["", "abc", "1/0", "1.2.3"])
    def test_garbage_rejected(self, bad):
        with pytest.raises(model.FormatError):
            model.parse_ratio(bad)

    @pytest.mark.parametrize(
        "text",
        # a Tangsa digit (Unicode 14.0) and a Kawi digit (15.0), alone, inside
        # a run, after a sign and in an exponent
        [
            "\U00016ac1/3", "\U00011f51/3",
            "1\U00016ac1", "1/3\U00011f51", "-\U00016ac1", "1e\U00011f51",
        ],
    )
    def test_digits_after_unicode_13_rejected(self, text):
        # Python 3.11 and later know these as digits; 3.10 does not.
        with pytest.raises(model.FormatError, match="not a valid ratio"):
            model.parse_ratio(text)

    def test_unicode_13_digits_accepted(self):
        digits = map(chr, range(sys.maxunicode + 1))
        zeros = {ord(c) for c in digits if c.isdecimal() and int(c) == 0}
        assert len(model._UNICODE_13_ZEROS) == 65
        assert model._UNICODE_13_ZEROS <= zeros
        if unicodedata.unidata_version == "13.0.0":
            assert model._UNICODE_13_ZEROS == zeros
        for zero in model._UNICODE_13_ZEROS:
            run = "".join(map(chr, range(zero, zero + 10)))
            assert model.parse_ratio(run) == 123456789
            assert model.parse_ratio(f"1_{chr(zero + 7)}/{chr(zero + 3)}") == Fraction(17, 3)

    def test_float_rejected(self):
        with pytest.raises(model.FormatError):
            model.parse_ratio(0.38)

    def test_integer_digits_bounded(self):
        limit = 10**model.MAX_RATIO_LENGTH
        assert model.parse_ratio(limit - 1) == limit - 1
        assert model.parse_ratio(1 - limit // 10) == 1 - limit // 10
        for bad in (limit, -limit, 10**4299):
            with pytest.raises(model.FormatError, match="digits"):
                model.parse_ratio(bad)
        # 2000 digits and a sign: 2001 characters as a report echoes it
        with pytest.raises(model.FormatError, match="lowest terms"):
            model.parse_ratio(1 - limit)

    def test_lowest_terms_bounded(self):
        # 7 characters, but 1/10^1999 takes 2002
        for bad in ("1e-1999", "1e2000", "0." + "0" * 1997 + "1"):
            with pytest.raises(model.FormatError, match="lowest terms"):
                model.parse_ratio(bad)
        assert model.parse_ratio("1e-1997") == Fraction(1, 10**1997)
        assert model.parse_ratio("1e1999") == 10**1999

    def test_length_bound_holds_at_digit_count_changes(self):
        for k in sorted({*range(1, 4300, 37), *range(1990, 2010)}):
            for value in (10**k - 1, 10**k, -(10**k), Fraction(10**k - 1, 10**k)):
                value = Fraction(value)
                assert model._ratio_length_bound(value) >= len(model.ratio_str(value))

    @given(st.fractions())
    def test_roundtrip(self, value):
        assert model.parse_ratio(model.ratio_str(value)) == value

    @given(st.integers(0, 10**6), st.integers(1, 6))
    def test_decimal_strings_are_exact(self, digits, places):
        raw = str(digits).rjust(places + 1, "0")
        text = raw[:-places] + "." + raw[-places:]
        assert model.parse_ratio(text) == Fraction(digits, 10**places)


# Printable ASCII that ``ascii()`` shows as itself, whatever quote it picks.
_PLAIN_ASCII = "".join(chr(c) for c in range(32, 127) if chr(c) not in "\\'")


class TestEchoedInput:
    """Error messages quote input through ``model._brief``: plain ASCII input
    as ``reprlib.repr`` quotes it, and every other character escaped before
    the cut, which keeps whole escapes, so that a message is the same on
    every interpreter."""

    @pytest.mark.parametrize("doc, expected", check_goldens.ECHO_GOLDEN)
    def test_profile_errors_read_the_same_everywhere(self, doc, expected):
        with pytest.raises(model.FormatError) as info:
            model.profile_from_dict(doc)
        assert str(info.value) == expected

    @pytest.mark.parametrize(
        "text, echo",
        [
            ("\U00016ac1/3", "'\\U00016ac1/3'"),
            ("x" * 50 + "\U00011f51", "'xxxxxxxxxxxx...xxx\\U00011f51'"),
            ("\U00011f51" + "x" * 50, "'\\U00011f51xx...xxxxxxxxxxxxx'"),
        ],
    )
    def test_ratio_errors_read_the_same_everywhere(self, text, echo):
        with pytest.raises(model.FormatError) as info:
            model.parse_ratio(text)
        assert str(info.value) == f"not a valid ratio: {echo}"

    @given(st.text(_PLAIN_ASCII, max_size=60))
    def test_ascii_is_quoted_as_reprlib_quotes_it(self, text):
        assert model._brief(text) == reprlib.repr(text)
        assert model._brief([text, {text: 1}]) == reprlib.repr([text, {text: 1}])

    @given(st.text(max_size=60))
    def test_every_echo_is_ascii_and_bounded(self, text):
        echo = model._brief(text)
        assert echo.isascii()
        if len(ascii(text)) <= 30:
            assert echo == ascii(text)
        else:
            assert len(echo) <= 30

    @given(
        st.text(
            st.one_of(
                st.characters(max_codepoint=31),
                st.characters(min_codepoint=127),
                st.sampled_from("0x'\"\\"),
            ),
            max_size=60,
        )
    )
    @example("0000\x1f\x1f\x1f\x1f\x1f\x1f0")  # reprlib's cut showed "x1f0", and 0 twice
    @example("\x1f" * 3 + "\U00011f51" * 3)
    def test_cut_keeps_whole_escapes(self, text):
        """Past 30 characters, the echo is the most whole escapes of
        ``ascii(text)`` that fit in 12 characters, "...", and the most that
        fit in 13 from the back, each character shown at most once."""
        whole = ascii(text)
        echo = model._brief(text)
        if len(whole) <= 30:
            assert echo == whole
            return
        quote = whole[0]
        escapes = ["\\" + c if c == quote else ascii(c)[1:-1] for c in text]
        assert quote + "".join(escapes) + quote == whole
        front = max(i for i in range(len(text) + 1) if len("".join(escapes[:i])) <= 12)
        back = max(i for i in range(len(text) + 1) if len("".join(escapes[len(text) - i :])) <= 13)
        assert front + back < len(text)
        shown = escapes[:front] + ["..."] + escapes[len(text) - back :]
        assert echo == quote + "".join(shown) + quote
        if all(c in _PLAIN_ASCII for c in text):
            assert echo == reprlib.repr(text)  # today's cut, on plain text


# Fraction's parser scales by 10**exp, so the exponent bound ran first, on
# the trailing exponent this pattern finds.
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\Z", re.IGNORECASE)


def reference_parse_ratio(value: str) -> Fraction:
    """``parse_ratio`` on strings as every string went through Fraction's own
    parser, whose grammar is the recorded one on Python 3.11 only."""
    text = value.strip()
    if len(text) > model.MAX_RATIO_LENGTH:
        raise model.FormatError(
            f"ratio string of {len(text)} characters exceeds {model.MAX_RATIO_LENGTH}"
        )
    exponent = ("e" in text or "E" in text) and _EXPONENT.search(text)
    if exponent and abs(int(exponent.group(1))) > model.MAX_RATIO_EXPONENT:
        raise model.FormatError(
            f"decimal exponent outside -{model.MAX_RATIO_EXPONENT}..{model.MAX_RATIO_EXPONENT}"
        )
    try:
        result = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise model.FormatError(f"not a valid ratio: {model._brief(text)}") from exc
    if model._ratio_length_bound(result) > model.MAX_RATIO_LENGTH:
        length = len(str(result))
        if length > model.MAX_RATIO_LENGTH:
            raise model.FormatError(
                f"ratio of {length} characters in lowest terms exceeds {model.MAX_RATIO_LENGTH}"
            )
    return result


def reference_ratio_str(value) -> str:
    """``ratio_str`` before it read numerator and denominator directly."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_outcome(parse, text):
    """The value with its type, or the FormatError text."""
    try:
        value = parse(text)
    except model.FormatError as exc:
        return "FormatError", str(exc)
    return type(value), value


_RATIO_ALPHABET = "0123456789/._+-eE \t١²"
_digit_runs = st.text("0123456789", max_size=6)
_ratio_strings = st.one_of(
    st.text(_RATIO_ALPHABET, max_size=16),
    # Near the fast path's forms: digit runs joined by one or two separators,
    # with optional signs and padding.
    st.tuples(
        st.sampled_from(["", " ", "\t", "+", "-", " -"]),
        _digit_runs,
        st.sampled_from(["", "/", ".", "e", "E-", "_", "/-", "./", "/_", "١", "²", " /"]),
        _digit_runs,
        st.sampled_from(["", " ", ".", "/", "e1", "_0", "²", "\t"]),
    ).map("".join),
    # Long ASCII "p/q", the shape of a large shared denominator.
    st.tuples(
        st.sampled_from(["", "0", "000", " "]),
        st.integers(10**299, 10**400),
        st.integers(10**299, 10**400),
        st.sampled_from(["", " ", "\t"]),
    ).map(lambda t: f"{t[0]}{t[1]}/{t[2]}{t[3]}"),
    st.integers(0, 10**400).map(lambda p: f"{p}/0"),
    st.integers(10**599, 10**1999).map(str),
)


# Strings whose verdict the Hypothesis strategies above rarely reach.
LISTED_RATIO_STRINGS = [
    "0", "007", "1/0", "0/7", "007/10", " 3/7 ", "\t5\t", "6/9", "+1/3", "-1/3",
    "1_0/21", "1.5", "0.35", "5.", ".5", "5.5.5", "1/2/3", "1.5/2", "45e-2",
    "5e-1", "1/ 3", "1 /3", "", "/", ".", "1/", "/1", "0." + "0" * 1997 + "1",
    "1/" + "7" * 1998, "1/" + "7" * 1999, "9" * 2000, "9" * 2001,
    # not ASCII: a lone surrogate cannot even be encoded
    "١/٣", "1/²", "1.²", "\ud800", "1/\ud800",
    # underscores, exponents and signs where the grammar allows none
    "5.5__0", ".6__0", "1_0.2_5", "1.5e1_0", "1_", "_1",
    "1/2e0", "1e", "e5", ".e5", "1.e5", "1e+-1",
    "+-1", "-1/-3", "1/+3", "1 / 3", "١.٥",
]

# Fraction's string grammar changed in Python 3.11 and again in 3.12; the
# corpus, replayed by check_goldens.py, covers the other interpreters.
fraction_grammar = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="Fraction(text) is the reference on 3.11 only"
)


class TestFastPathDifferential:
    @fraction_grammar
    @settings(max_examples=600, deadline=None)
    @given(_ratio_strings)
    def test_parse_ratio_matches_fraction_parser(self, text):
        assert parse_outcome(model.parse_ratio, text) == parse_outcome(
            reference_parse_ratio, text
        )

    @fraction_grammar
    @pytest.mark.parametrize("text", LISTED_RATIO_STRINGS)
    def test_listed_strings_match_fraction_parser(self, text):
        assert parse_outcome(model.parse_ratio, text) == parse_outcome(
            reference_parse_ratio, text
        )

    @fraction_grammar
    def test_corpus_records_the_fraction_parser(self):
        cases = check_goldens.corpus_cases()
        assert set(LISTED_RATIO_STRINGS) <= {text for text, *_ in cases}
        for text, *expected in cases:
            assert check_goldens.verdict(text, reference_parse_ratio) == expected, text

    @given(st.one_of(st.integers(-(10**700), 10**700), st.booleans(), st.fractions()))
    def test_ratio_str_matches_fraction_copy(self, value):
        assert model.ratio_str(value) == reference_ratio_str(value)

    @pytest.mark.parametrize("value", [0.1, 1.0, float("nan"), Decimal("0.1"), "1/3", None])
    def test_ratio_str_rejects_other_types(self, value):
        with pytest.raises(TypeError, match="int or a Fraction"):
            model.ratio_str(value)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(0, 3),
                st.integers(0, 3).map(Fraction),
                st.tuples(
                    st.integers(0, 10**40), st.sampled_from([3, 10**30 + 1, 7**50])
                ).map(lambda t: Fraction(*t)),
                st.fractions(),
            ),
            max_size=12,
        )
    )
    def test_profile_to_dict_matches_per_segment_ratio_str(self, segments):
        profile = SplitProfile.of(len(segments), tuple(segments))
        doc = model.profile_to_dict(profile)
        assert doc == {"n": len(segments), "segments_a": [model.ratio_str(s) for s in segments]}


def test_party_opponent_involution():
    for party in Party:
        assert party.opponent.opponent is party


class TestValidation:
    def test_two_gap_profile_is_valid(self):
        profile = model.two_gap_profile()
        assert model.validate_profile(profile) == ()
        assert model.side_support(profile, Party.A, Side.LEFT, 5) == frac("1.9")
        assert segment_support(profile, Party.A, 6) == frac("0.9")
        assert model.side_support(profile, Party.A, Side.RIGHT, 6) == frac("1.4")

    def test_half_integer_prefix_reported(self):
        profile = SplitProfile.of(2, (frac("0.25"), frac("0.25")))
        violations = model.validate_profile(profile)
        assert any(v.side is Side.LEFT and v.k == 2 for v in violations)

    def test_all_sums_clean(self):
        profile = SplitProfile.of(3, (frac("0.3"), frac("0.3"), frac("0.3")))
        # prefixes 0.3, 0.6, 0.9 and suffixes 0.6, 0.3: nothing half-integer
        assert model.validate_profile(profile) == ()

    def test_segment_outside_unit_interval(self):
        profile = SplitProfile.of(2, (frac("1.2"), frac("-0.1")))
        messages = [v.message for v in model.validate_profile(profile)]
        assert any("outside [0, 1]" in m for m in messages)

    def test_segment_count_mismatch(self):
        profile = SplitProfile.of(3, (frac("0.3"),))
        assert model.validate_profile(profile)

    @pytest.mark.parametrize("scale, prefix", [(0, (0, 1)), (-6, (0, 1)), (6, (1, 4)), (6, ())])
    def test_raw_profile_needs_a_positive_scale_and_sums_from_0(self, scale, prefix):
        profile = SplitProfile(1, scale, prefix)
        assert [v.message for v in model.validate_profile(profile)] == [
            "scale must be positive and prefix_a must start at 0"
        ]

    @pytest.mark.parametrize(
        "scale, prefix, segments",
        [(20, (0, 6, 12), ("3/10", "3/10")), (6, (0, 0, 0), ("0", "0")), (4, (0, -2), ("-1/2",))],
    )
    def test_raw_profile_is_reduced_to_the_least_scale(self, scale, prefix, segments):
        raw = SplitProfile(len(prefix) - 1, scale, prefix)
        least = SplitProfile.of(len(segments), [frac(seg) for seg in segments])
        assert raw == least
        assert hash(raw) == hash(least)
        assert (raw.scale, raw.prefix_a) == (least.scale, least.prefix_a)

    def test_raw_profile_from_a_list_is_the_profile_from_a_tuple(self):
        listed, tupled = SplitProfile(2, 10, [0, 3, 6]), SplitProfile(2, 10, (0, 3, 6))
        assert listed == tupled and hash(listed) == hash(tupled)
        assert listed.prefix_a == (0, 3, 6)
        assert listed.violations == tupled.violations == ()
        assert SplitProfile(2, 20, [0, 6, 12]) == tupled

    def test_ensure_valid_raises(self):
        profile = SplitProfile.of(2, (frac("0.25"), frac("0.25")))
        with pytest.raises(model.ProfileError):
            model.ensure_valid(profile)


class TestSupports:
    def test_empty_side_is_zero(self):
        profile = model.two_gap_profile()
        assert model.side_support(profile, Party.A, Side.LEFT, 0) == 0
        assert model.side_support(profile, Party.B, Side.RIGHT, profile.n) == 0

    def test_b_side_support_from_example(self):
        profile = model.two_gap_profile()
        assert model.side_support(profile, Party.B, Side.RIGHT, 6) == frac("2.6")
        assert model.side_support(profile, Party.B, Side.LEFT, 5) == frac("3.1")

    def test_segment_complement(self):
        profile = model.two_gap_profile()
        for k in range(1, profile.n + 1):
            a = segment_support(profile, Party.A, k)
            b = segment_support(profile, Party.B, k)
            assert a + b == 1

    def test_side_totals_are_exact(self):
        profile = model.two_gap_profile()
        for k in range(profile.n + 1):
            for party in Party:
                total = model.side_support(profile, party, Side.LEFT, k) + model.side_support(
                    profile, party, Side.RIGHT, k
                )
                total_a = Fraction(profile.prefix_a[-1], profile.scale)
                assert total == (total_a if party is Party.A else profile.n - total_a)
            a = model.side_support(profile, Party.A, Side.LEFT, k)
            b = model.side_support(profile, Party.B, Side.LEFT, k)
            assert a + b == k

    def test_prefix_differences_recover_segments(self):
        profile = model.two_gap_profile()
        for k in range(1, profile.n + 1):
            diff = model.side_support(profile, Party.A, Side.LEFT, k) - model.side_support(
                profile, Party.A, Side.LEFT, k - 1
            )
            assert diff == segment_support(profile, Party.A, k)

    def test_out_of_range_indices(self):
        profile = model.two_gap_profile()
        with pytest.raises(ValueError):
            model.side_support(profile, Party.A, Side.LEFT, 11)


segments_strategy = st.lists(
    st.fractions(min_value=0, max_value=1, max_denominator=12), min_size=1, max_size=8
)


@given(segments_strategy)
def test_side_support_additivity_random(segs):
    profile = SplitProfile.of(len(segs), tuple(segs))
    total_a = Fraction(profile.prefix_a[-1], profile.scale)
    for k in range(profile.n + 1):
        for party in Party:
            assert model.side_support(profile, party, Side.LEFT, k) + model.side_support(
                profile, party, Side.RIGHT, k
            ) == (total_a if party is Party.A else profile.n - total_a)


class TestProfileJson:
    def test_roundtrip(self):
        profile = model.two_gap_profile()
        doc = model.profile_to_dict(profile)
        assert model.profile_from_dict(doc) == profile

    def test_accepts_decimal_strings(self):
        doc = {"n": 2, "segments_a": ["0.3", "3/10"]}
        profile = model.profile_from_dict(doc)
        assert profile.segments_a == (frac("0.3"), frac("0.3"))

    @pytest.mark.parametrize(
        "doc, needle",
        [
            ({"segments_a": []}, "'n'"),
            ({"n": 2}, "'segments_a'"),
            ({"n": 0, "segments_a": []}, "'n'"),
            ({"n": 2, "segments_a": "0.3"}, "list"),
            ({"n": 2, "segments_a": ["0.3", "bogus"]}, "segments_a[2]"),
            ({"n": 2, "segments_a": ["0.3", "0.3"], "extra": 1}, "extra"),
            ([1, 2], "object"),
            ({"n": model.MAX_DISTRICTS + 1, "segments_a": ["0.3"]}, "'n' must be at most"),
        ],
    )
    def test_schema_errors_name_the_field(self, doc, needle):
        with pytest.raises(model.FormatError, match=None) as err:
            model.profile_from_dict(doc)
        assert needle in str(err.value)

    def test_rejects_an_overlong_segment_list_before_parsing_it(self):
        # Entries that fail to parse: the error names the list, not its first
        # entry, so no entry was read.
        doc = {"n": 5, "segments_a": ["bogus"] * (model.MAX_DISTRICTS + 1)}
        start = time.perf_counter()
        with pytest.raises(model.FormatError) as err:
            model.profile_from_dict(doc)
        assert time.perf_counter() - start < 1.0
        assert f"'segments_a' must be a list of at most {model.MAX_DISTRICTS}" in str(
            err.value
        )

    def test_accepts_the_bound(self):
        n = model.MAX_DISTRICTS
        # Sums left of each split are 1/5 + j/3 and right of it 1/7 + j/3:
        # never an integer multiple of 1/2.
        doc = {"n": n, "segments_a": ["1/5"] + ["1/3"] * (n - 2) + ["1/7"]}
        profile = model.profile_from_dict(doc)
        assert profile.n == n
        assert not profile.violations


@st.composite
def _plain_documents(draw):
    """A profile document of ``"p/q"`` entries in ASCII digits, over one or
    several denominators, 300-digit ones included: numerators that share a
    factor with their denominator, numerator 0, denominator 1, p > q, leading
    zeros in either run, repeated entries, and an ``n`` that may differ from
    the entry count."""
    dens = draw(
        st.lists(st.one_of(st.integers(1, 30), st.integers(10**299, 10**300)), min_size=1, max_size=3)
    )
    pool = []
    for _ in range(draw(st.integers(1, 6))):
        q = draw(st.sampled_from(dens))
        factor = draw(st.sampled_from(sorted({1, q, math.gcd(q, 6), math.gcd(q, 10)})))
        p = factor * draw(st.integers(0, 2 * q // factor))
        zeros = draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
        pool.append(f"{'0' * zeros[0]}{p}/{'0' * zeros[1]}{q}")
    entries = draw(st.lists(st.sampled_from(pool), max_size=10))
    n = max(1, len(entries) + draw(st.integers(-1, 1)))
    return {"n": n, "segments_a": entries}


# A 1500-entry document over one odd 332-digit denominator, each numerator
# prime to it: the shape of the simulate workload's large profiles.
_LARGE_DEN = 3**694
_LARGE_DOC = {
    "n": 1500,
    "segments_a": [f"{_LARGE_DEN // 4501 * 3 * k + 1}/{_LARGE_DEN}" for k in range(1, 1501)],
}


class TestPlainProfiles:
    @settings(max_examples=300, deadline=None)
    @given(_plain_documents())
    @example({"n": 3, "segments_a": ["0/1", "7/1", "6/9"]})
    @example({"n": 2, "segments_a": [f"{10**299 + 1}/{10**300 + 1}", f"00{10**299 + 1}/{10**300 + 1}"]})
    def test_plain_documents_match_the_fraction_reference(self, doc):
        entries = doc["segments_a"]
        with mock.patch.object(model, "parse_ratio", side_effect=AssertionError("general path")):
            profile = model.profile_from_dict(doc)
        reference = SplitProfile.of(doc["n"], [Fraction(e) for e in entries])
        assert (profile.n, profile.scale, profile.prefix_a) == (
            reference.n, reference.scale, reference.prefix_a
        )
        assert profile.violations == reference.violations
        assert model.profile_to_dict(profile) == {
            "n": doc["n"], "segments_a": [model.ratio_str(Fraction(e)) for e in entries]
        }

    def test_shared_denominator_is_read_without_fractions(self, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"parse_ratio or Fraction{args} called on a plain document")

        calls = []

        def counting_gcd(*args, gcd=math.gcd):
            calls.append(len(args))
            return gcd(*args)

        monkeypatch.setattr(model, "parse_ratio", refuse)
        monkeypatch.setattr(model, "Fraction", refuse)
        monkeypatch.setattr(math, "gcd", counting_gcd)
        profile = model.profile_from_dict(_LARGE_DOC)
        echoed = model.profile_to_dict(profile)["segments_a"]
        assert len(calls) <= 2  # one distinct denominator, plus SplitProfile's own
        assert profile.scale == _LARGE_DEN and len(profile.prefix_a) == 1501
        assert echoed == _LARGE_DOC["segments_a"]
        assert all(out is entry for out, entry in zip(echoed, _LARGE_DOC["segments_a"]))

    def test_a_last_lookalike_alone_reaches_parse_ratio(self):
        # The large document with one space before its last entry: the plain
        # entries before it are read on pairs, and only it by parse_ratio.
        raw = [*_LARGE_DOC["segments_a"][:-1], " " + _LARGE_DOC["segments_a"][-1]]
        with mock.patch.object(model, "parse_ratio", wraps=model.parse_ratio) as parse:
            profile = model.profile_from_dict({"n": 1500, "segments_a": raw})
        assert parse.call_args_list == [mock.call(raw[-1])]
        assert profile == model.profile_from_dict(_LARGE_DOC)
        assert profile == SplitProfile.of(1500, [model.parse_ratio(entry) for entry in raw])
        assert model.profile_to_dict(profile)["segments_a"] == _LARGE_DOC["segments_a"]

    @pytest.mark.parametrize(
        "raw, expected",
        [
            (["1/0"], "segments_a[1]: not a valid ratio: '1/0'"),
            (["0/0"], "segments_a[1]: not a valid ratio: '0/0'"),
            (
                ["1/3"] + [f"1/{10**449 + i}" for i in range(5)],
                "segments_a[6]: common denominator of more than 2000 digits",
            ),
            # the lcm refusal comes before a later entry's parse refusal, and
            # after an earlier one's
            (
                ["1/3"] + [f"1/{10**449 + i}" for i in range(5)] + ["x"],
                "segments_a[6]: common denominator of more than 2000 digits",
            ),
            (
                ["1/3", f"1/{10**449}", "x"] + [f"1/{10**449 + i}" for i in range(1, 5)],
                "segments_a[3]: not a valid ratio: 'x'",
            ),
        ],
    )
    def test_refusals_read_as_at_the_general_path(self, raw, expected):
        with pytest.raises(model.FormatError) as err:
            model.profile_from_dict({"n": len(raw), "segments_a": raw})
        assert str(err.value) == expected

    @pytest.mark.parametrize(
        "raw, scale, scaled, echo",
        [
            # an entry of exactly 1000 characters
            (["1/" + "0" * 997 + "3"], 3, [1], ["1/3"]),
            (["1/3"] * 999 + [" 1/3"], 3, [1] * 1000, ["1/3"] * 1000),
            (["1/3"] * 999 + ["+1/3"], 3, [1] * 1000, ["1/3"] * 1000),
            (["1/3"] * 999 + ["1_0/3"], 3, [1] * 999 + [10], ["1/3"] * 999 + ["10/3"]),
            (["1/3"] * 999 + ["0.5"], 6, [2] * 999 + [3], ["1/3"] * 999 + ["1/2"]),
            # lcms as written past 10**2000, of 900- and of 450-digit x, the
            # latter under 1000 characters; in lowest terms every entry is 1
            ([f"{x}/{x}" for x in (10**899 + 1, 10**899 + 2, 10**899 + 3)], 1, [1] * 3, ["1"] * 3),
            ([f"{x}/{x}" for x in range(10**449, 10**449 + 5)], 1, [1] * 5, ["1"] * 5),
        ],
    )
    def test_lookalikes_take_the_general_path(self, raw, scale, scaled, echo):
        with mock.patch.object(model, "parse_ratio", wraps=model.parse_ratio) as parse:
            profile = model.profile_from_dict({"n": len(raw), "segments_a": raw})
        # Only the entries that are not plain reach parse_ratio: 1, 1, 1, 1, 1,
        # 3 and 0 by row; the last row's plain entries are read again on pairs.
        plain = [e for e in raw if len(e) < 1000 and re.fullmatch(r"[0-9]+/0*[1-9][0-9]*", e)]
        assert parse.call_count == len(raw) - len(plain)
        assert profile == SplitProfile(len(raw), scale, (0, *itertools.accumulate(scaled)))
        assert model.profile_to_dict(profile)["segments_a"] == echo


def _reference_profile(doc):
    """``profile_from_dict`` of a document as a reader that parses every entry
    would give it, with ``SplitProfile.of`` and ``ratio_str``: the profile and
    its echo, or the FormatError text of the first entry refused."""
    segments, scale = [], 1
    for idx, entry in enumerate(doc["segments_a"], start=1):
        try:
            segments.append(model.parse_ratio(entry))
            if scale % segments[-1].denominator:
                scale = math.lcm(scale, segments[-1].denominator)
            if scale >= 10**2000:
                raise model.FormatError("common denominator of more than 2000 digits")
        except model.FormatError as exc:
            return f"segments_a[{idx}]: {exc}"
    return SplitProfile.of(doc["n"], segments), [model.ratio_str(seg) for seg in segments]


_BIG_DENS = [10**449 + i for i in range(6)]


@st.composite
def _mixed_entries(draw):
    kind = draw(st.sampled_from(["plain", "zeros", "big", "decimal", "lookalike", "int", "unicode"]))
    if kind in ("plain", "zeros", "big"):
        q = draw(st.sampled_from(_BIG_DENS) if kind == "big" else st.integers(1, 12))
        p = draw(st.integers(0, q) if kind == "big" else st.integers(0, 2 * q))
        zeros = draw(st.tuples(st.integers(0, 2), st.integers(0, 2))) if kind == "zeros" else (0, 0)
        return f"{'0' * zeros[0]}{p}/{'0' * zeros[1]}{q}"
    if kind == "decimal":
        return draw(st.decimals(0, 1, places=draw(st.integers(0, 3))).map(str))
    if kind == "int":
        return draw(st.integers(-1, 2))
    return draw(st.sampled_from(
        {
            "lookalike": ["+1/3", " 1/3", "1/3 ", "1_0/3", "1/0", "0/0", "1/03", "x"],
            "unicode": ["\u0661/3", "1/\u0663", "\uff11/2", "\u0661\u0662"],
        }[kind]
    ))


class TestMixedProfiles:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(_mixed_entries(), max_size=10), st.integers(-1, 1))
    @example(["1/3", "0.5", "2/4", "1/1", "007/10"], 0)
    @example([f"1/{x}" for x in _BIG_DENS] + ["x"], 0)
    @example(["1/3", "x"] + [f"1/{x}" for x in _BIG_DENS], 0)
    @example([f"{x}/{x}" for x in _BIG_DENS] + ["1/0"], 0)
    def test_mixed_documents_match_the_entry_by_entry_reference(self, entries, extra):
        doc = {"n": max(1, len(entries) + extra), "segments_a": entries}
        expected = _reference_profile(doc)
        try:
            profile = model.profile_from_dict(doc)
        except model.FormatError as exc:
            assert str(exc) == expected
            return
        reference, echo = expected
        assert (profile.n, profile.scale, profile.prefix_a) == (
            reference.n, reference.scale, reference.prefix_a
        )
        assert profile.violations == reference.violations
        assert model.profile_to_dict(profile) == {"n": doc["n"], "segments_a": echo}


# JSON-shaped ratios, hostile ones included: integers past the digit bound,
# decimal exponents past theirs, overlong strings, floats and non-numbers.
_ratio_docs = st.one_of(
    st.integers(),
    st.sampled_from([10**2000 - 1, 10**2000, -(10**4299), 10**4299]),
    st.fractions().map(model.ratio_str),
    st.sampled_from(["1e-3000000", "1e2000", "1E-2001", "1_0/3", "nan", "1/0", " 0.5 "]),
    st.sampled_from(["1/" + "7" * 1998, "1/" + "7" * 1999]),
    st.text(max_size=8),
    st.floats(),
    st.booleans(),
    st.none(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
_profile_docs = st.one_of(
    st.fixed_dictionaries(
        {"n": st.one_of(st.integers(), _ratio_docs), "segments_a": st.lists(_ratio_docs, max_size=6)}
    ),
    st.dictionaries(
        st.sampled_from(["n", "segments_a", "m"]),
        st.one_of(_ratio_docs, st.lists(_ratio_docs, max_size=3)),
        max_size=3,
    ),
    _ratio_docs,
)


@settings(deadline=None, max_examples=300)
@given(_profile_docs)
@example({"n": 10**4400, "segments_a": []})  # too long for str()
@example({"n": -(10**4400), "segments_a": []})
@example({"n": 2, "segments_a": [], "x": 1, 5: 2})  # unknown keys that do not sort
@example({"n": 2, "segments_a": [], 10**4400: 1})
def test_fuzzed_profile_documents_raise_only_format_error(doc):
    try:
        profile = model.profile_from_dict(doc)
    except model.FormatError:
        return
    assert model.profile_from_dict(model.profile_to_dict(profile)) == profile
