"""Domain types for two-party district splitting.

A state with ``n`` equal-population districts is described by the support
party A holds in each of the ``n`` population segments between consecutive
nested splits.  All supports are exact rationals; nothing in this package
ever rounds.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:
    from .strategy import WinTable


class Party(Enum):
    A = "A"
    B = "B"

    @property
    def opponent(self) -> "Party":
        return Party.B if self is Party.A else Party.A


class Side(Enum):
    LEFT = "L"
    RIGHT = "R"


class FormatError(ValueError):
    """Malformed ratio string or profile document."""


class ProfileError(ValueError):
    """An operation was handed a profile that fails validation."""

    def __init__(self, violations: tuple["Violation", ...]):
        self.violations = violations
        detail = "; ".join(v.message for v in violations)
        super().__init__(f"invalid profile: {detail}")


# Bounds on ratios.  An exponent scales by 10**exp, so "1e-3000000" alone
# would cost megabytes; within these bounds every parsed value has at most
# 4000 digits.  Integers are held to MAX_RATIO_LENGTH digits by comparison
# with _INT_LIMIT, as str() refuses integers past 4300 digits.  So is the
# canonical form that reports echo, so that every report can be read back:
# "1e-1999" is 7 characters, its "1/10...0" 2002.
MAX_RATIO_LENGTH = 2000
MAX_RATIO_EXPONENT = 2000
_INT_LIMIT = 10**MAX_RATIO_LENGTH

MAX_DISTRICTS = 10000  # a profile's n, and verify --n-max: a profile holds n Fractions


def parse_ratio(value: str | int) -> Fraction:
    """Parse a ratio string ("1.9", "19/10", "-19e-1") or an int.

    The string grammar: surrounding whitespace is stripped (``str.strip``);
    an optional sign follows; then either ``p/q``, or a decimal ``w.f`` (the
    point is optional; ``w`` or ``f`` may be empty, not both) with an optional
    exponent ``[eE][+-]?x``.  Every run is decimal digits (``str.isdecimal``,
    whose Unicode data alone varies with the interpreter), with single
    underscores allowed only between two digits.

    Floats are inexact, and rejected.  So are strings of more than
    ``MAX_RATIO_LENGTH`` characters after stripping, integers of more than
    ``MAX_RATIO_LENGTH`` digits, values whose ``ratio_str`` is longer, and a
    trailing exponent beyond ``MAX_RATIO_EXPONENT``: that message comes first,
    even when the rest of the string is malformed.
    """
    if isinstance(value, str):
        text = value.strip()
        if len(text) > MAX_RATIO_LENGTH:
            raise FormatError(
                f"ratio string of {len(text)} characters exceeds {MAX_RATIO_LENGTH}"
            )
        try:
            result = _parse_text(text)
        except FormatError:
            raise
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"not a valid ratio: {reprlib.repr(text)}") from exc
        # Without an exponent, ratio_str is at most 2 * len(text) + 1 long.
        if 2 * len(text) < MAX_RATIO_LENGTH and "e" not in text and "E" not in text:
            return result
    elif isinstance(value, bool):
        raise FormatError(f"not a ratio: {value!r}")
    elif isinstance(value, int):
        if not -_INT_LIMIT < value < _INT_LIMIT:
            raise FormatError(f"integer of more than {MAX_RATIO_LENGTH} digits")
        result = Fraction(value)
    elif isinstance(value, float):
        raise FormatError(
            f"floats are inexact; write {value!r} as a string like '0.38' or '19/50'"
        )
    else:
        raise FormatError(f"cannot parse a ratio from {type(value).__name__}")
    if _ratio_length_bound(result) > MAX_RATIO_LENGTH:
        length = len(ratio_str(result))
        if length > MAX_RATIO_LENGTH:
            raise FormatError(
                f"ratio of {length} characters in lowest terms exceeds {MAX_RATIO_LENGTH}"
            )
    return result


def _parse_text(text: str) -> Fraction:
    """``parse_ratio`` of a stripped string.  Raises ValueError or
    ZeroDivisionError on a string outside the grammar."""
    exponent = None
    if "e" in text or "E" in text:
        text, _, tail = text.replace("E", "e").rpartition("e")
        exponent = _digits(tail, signed=True)
        if abs(exponent) > MAX_RATIO_EXPONENT:
            raise FormatError(
                f"decimal exponent outside -{MAX_RATIO_EXPONENT}..{MAX_RATIO_EXPONENT}"
            )
    num, slash, den = text.partition("/")
    if slash and exponent is None:
        num, den = _digits(num, signed=True), _digits(den)
    else:
        # int() reads the sign off the joined parts, where a sign or an
        # underscore next to the point would pass unseen.
        whole, _, places = num.partition(".")
        if slash or whole.endswith("_") or places[:1] in ("_", "+", "-"):
            raise ValueError("not a decimal")
        num = _digits(whole + places, signed=True)
        shift = len(places) - places.count("_") - (exponent or 0)
        num, den = (num, 10**shift) if shift >= 0 else (num * 10**-shift, 1)
    return Fraction(num, den)


def _digits(run: str, signed: bool = False) -> int:
    """``int(run)`` for a grammar run, after a sign if ``signed``: ``int``
    alone also takes spaces, and a sign where none may be."""
    head = run[:1].isdecimal() or signed and run.lstrip("+-")[:1].isdecimal()
    if head and run[-1:].isdecimal():
        return int(run)
    raise ValueError("not a run of digits")


def _ratio_length_bound(value: Fraction) -> int:
    """An upper bound on ``len(ratio_str(value))`` from bit lengths alone: an
    integer of b bits has at most int(0.30103 * b) + 1 digits."""
    num, den = value.numerator, value.denominator
    length = (num < 0) + int(0.30103 * num.bit_length()) + 1
    if den != 1:
        length += 2 + int(0.30103 * den.bit_length())
    return length


def ratio_str(value: Fraction | int) -> str:
    """Render an exact value as "p" or "p/q" in lowest terms.

    Anything but an int or a Fraction raises TypeError: a float would be
    rendered as its binary value, "3602879701896397/36028797018963968" for
    0.1.
    """
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"ratio_str takes an int or a Fraction, not {type(value).__name__}")
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def is_half_integer(value: Fraction) -> bool:
    """True when ``value`` is an integer multiple of 1/2 (0 included)."""
    return (2 * value).denominator == 1


@dataclass(frozen=True)
class SideRef:
    """One side of the k-split: the left region holds k districts' worth of
    population, the right region the remaining n - k."""

    side: Side
    k: int


def left(k: int) -> SideRef:
    return SideRef(Side.LEFT, k)


def right(k: int) -> SideRef:
    return SideRef(Side.RIGHT, k)


@dataclass(frozen=True)
class Violation:
    """One failed profile invariant; ``side``/``k`` locate the offending sum."""

    side: Side | None
    k: int | None
    message: str


@dataclass(frozen=True)
class SplitProfile:
    """Per-segment supports for party A over a state of ``n`` districts.

    ``segments_a[k-1]`` is A's support between the (k-1)- and k-splits, a
    value in [0, 1].  B's support in the same segment is the complement.
    Storing segments rather than running sums makes the splits nested by
    construction.
    """

    n: int
    segments_a: tuple[Fraction, ...]

    @cached_property
    def prefix_a(self) -> tuple[Fraction, ...]:
        """A's support left of each split: prefix_a[k] covers segments 1..k."""
        sums = [Fraction(0)]
        for seg in self.segments_a:
            sums.append(sums[-1] + seg)
        return tuple(sums)

    @cached_property
    def scaled_prefix_a(self) -> tuple[int, tuple[int, ...]]:
        """``(L, P)``: L is the lcm of the segment denominators and
        ``P[k] = L * prefix_a[k]``, so every sum is an exact integer."""
        pairs = [(seg.numerator, seg.denominator) for seg in self.segments_a]
        scale, sums = scaled_sums(pairs)
        return scale, tuple(sums)

    @cached_property
    def win_table(self) -> WinTable:
        """Optimal-play win counts at every split, computed once; raises
        ProfileError on an invalid profile."""
        from .strategy import WinTable  # strategy imports this module

        ensure_valid(self)
        return WinTable.from_scaled(*self.scaled_prefix_a)

    @property
    def total_a(self) -> Fraction:
        return self.prefix_a[-1]

    @property
    def total_b(self) -> Fraction:
        return self.n - self.total_a

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        return tuple(_check(self))

    @property
    def is_valid(self) -> bool:
        return not self.violations


def _check(profile: SplitProfile):
    if profile.n < 1:
        yield Violation(None, None, f"n must be positive, got {profile.n}")
        return
    if len(profile.segments_a) != profile.n:
        detail = f"expected {profile.n} segments, got {len(profile.segments_a)}"
        yield Violation(None, None, detail)
        return
    for k, seg in enumerate(profile.segments_a, start=1):
        if not 0 <= seg.numerator <= seg.denominator:
            yield Violation(
                None, k, f"segment {k} support {ratio_str(seg)} outside [0, 1]"
            )
    scale, prefix = profile.scaled_prefix_a
    for side, k, scaled in half_integer_sums(scale, prefix):
        where = "left" if side is Side.LEFT else "right"
        value = ratio_str(Fraction(scaled, scale))
        yield Violation(
            side,
            k,
            f"support {where} of split {k} is {value}, an integer multiple of 1/2",
        )


def scaled_sums(segments: list[tuple[int, int]]) -> tuple[int, list[int]]:
    """``(L, P)`` for segments given as ``(p, q)`` pairs, in lowest terms or
    not: L is the lcm of the q's and ``P[k]`` is L times the sum of the first
    k segments, so every sum is an exact integer."""
    # Unpacking a list, not a generator: CPython grows a generator's
    # argument tuple by resizing, and every resized tuple it frees stays on a
    # free list; over a sweep that adds megabytes of peak memory.
    scale = math.lcm(*[den for _, den in segments])
    sums = [0]
    for num, den in segments:
        sums.append(sums[-1] + num * (scale // den))
    return scale, sums


def half_integer_sums(
    scale: int, prefix: Sequence[int]
) -> Iterator[tuple[Side, int, int]]:
    """Yield ``(side, k, L * sum)`` for each cumulative sum that is an integer
    multiple of 1/2, left sums first, from the ``(L, P)`` of ``scaled_sums``.

    A valid profile has none; only the empty sides (left of split 0, right of
    split n) are exempt.  A sum P/L is one exactly when L divides 2P, which
    holds for any common multiple L of the denominators.
    """
    n = len(prefix) - 1
    for k in range(1, n + 1):
        if 2 * prefix[k] % scale == 0:
            yield Side.LEFT, k, prefix[k]
    for k in range(n):
        suffix = prefix[n] - prefix[k]
        if 2 * suffix % scale == 0:
            yield Side.RIGHT, k, suffix


def validate_profile(profile: SplitProfile) -> tuple[Violation, ...]:
    """Return every invariant violation; an empty tuple means the profile is ok."""
    return profile.violations


def ensure_valid(profile: SplitProfile) -> None:
    if profile.violations:
        raise ProfileError(profile.violations)


def _check_split_index(profile: SplitProfile, k: int) -> None:
    if not 0 <= k <= profile.n:
        raise ValueError(f"split index {k} out of range 0..{profile.n}")


def side_support(profile: SplitProfile, party: Party, side: SideRef) -> Fraction:
    """Total support for ``party`` on one side of the k-split, as an exact
    Fraction: the input of the reference closed forms in ``strategy``."""
    _check_split_index(profile, side.k)
    a_left = profile.prefix_a[side.k]
    if side.side is Side.LEFT:
        return a_left if party is Party.A else side.k - a_left
    a_right = profile.total_a - a_left
    return a_right if party is Party.A else (profile.n - side.k) - a_right


def profile_to_dict(profile: SplitProfile) -> dict:
    """The ``{"n": ..., "segments_a": [...]}`` document, each segment as
    ``ratio_str`` renders it.  Profiles often share one long denominator, so
    each distinct denominator is converted to decimal once."""
    suffixes = {1: ""}
    segments = []
    for seg in profile.segments_a:
        suffix = suffixes.get(seg.denominator)
        if suffix is None:
            suffix = suffixes[seg.denominator] = f"/{seg.denominator}"
        segments.append(f"{seg.numerator}{suffix}")
    return {"n": profile.n, "segments_a": segments}


def profile_from_dict(doc: object) -> SplitProfile:
    """Build a profile from the ``{"n": ..., "segments_a": [...]}`` document."""
    if not isinstance(doc, dict):
        raise FormatError("profile document must be a JSON object")
    unknown = set(doc) - {"n", "segments_a"}
    if unknown:
        raise FormatError(f"unknown profile field(s): {reprlib.repr(sorted(unknown))}")
    if "n" not in doc:
        raise FormatError("profile field 'n' is missing")
    if "segments_a" not in doc:
        raise FormatError("profile field 'segments_a' is missing")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise FormatError(f"profile field 'n' must be a positive integer, got {reprlib.repr(n)}")
    if n > MAX_DISTRICTS:
        raise FormatError(f"profile field 'n' must be at most {MAX_DISTRICTS}, got {n}")
    raw = doc["segments_a"]
    if not isinstance(raw, list) or len(raw) > MAX_DISTRICTS:
        raise FormatError(
            f"profile field 'segments_a' must be a list of at most {MAX_DISTRICTS} entries"
        )
    segments = []
    scale = 1  # the win table's scale: the lcm of the denominators so far
    for idx, entry in enumerate(raw, start=1):
        try:
            segments.append(parse_ratio(entry))
            if scale % segments[-1].denominator:
                scale = math.lcm(scale, segments[-1].denominator)
            if scale >= _INT_LIMIT:
                raise FormatError(
                    f"common denominator of more than {MAX_RATIO_LENGTH} digits"
                )
        except FormatError as exc:
            raise FormatError(f"segments_a[{idx}]: {exc}") from exc
    return SplitProfile(n, tuple(segments))


def two_gap_profile() -> SplitProfile:
    """Built-in ten-district profile whose optimal play ends in a coin flip
    between the 5- and 6-splits, with a worst candidate two districts below
    the geometric target.

    A holds 1.9 left of split 5, 0.9 in segment 6, and 1.4 right of split 6;
    the tail segments are uneven so no cumulative sum lands on a half-integer.
    """
    hundredths = [38] * 5 + [90, 32, 34, 36, 38]
    return SplitProfile(10, tuple(Fraction(h, 100) for h in hundredths))
