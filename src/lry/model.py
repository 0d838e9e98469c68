"""Domain types for two-party district splitting.

A state with ``n`` equal-population districts is described by the support
party A holds in each of the ``n`` population segments between consecutive
nested splits.  All supports are exact rationals, held as integer running
sums over one common denominator; nothing in this package ever rounds.
The module also holds the profile document's schema and the ``WinTable``,
both parties' win counts at every split; it imports no other ``lry`` module.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence


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

MAX_DISTRICTS = 10000  # a profile's n, and verify --n-max: a profile holds n + 1 integer sums


def parse_ratio(value: str | int) -> Fraction:
    """Parse a ratio string ("1.9", "19/10", "-19e-1") or an int.

    The string grammar: surrounding whitespace is stripped (``str.strip``);
    an optional sign follows; then either ``p/q``, or a decimal ``w.f`` (the
    point is optional; ``w`` or ``f`` may be empty, not both) with an optional
    exponent ``[eE][+-]?x``.  Every run is decimal digits of Unicode 13.0, on
    every interpreter, with single underscores allowed only between two
    digits.

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
            raise FormatError(f"not a valid ratio: {_brief(text)}") from exc
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


# The code points of the 65 zeros of Unicode 13.0, Python 3.10's database:
# each decimal digit c is its zero plus int(c), and a later version's digits
# have zeros of their own.  Generated by listing every c with c.isdecimal()
# and unicodedata.decimal(c) == 0 under Python 3.10.13.
_UNICODE_13_ZEROS = frozenset((
    0x30, 0x660, 0x6F0, 0x7C0, 0x966, 0x9E6, 0xA66, 0xAE6, 0xB66, 0xBE6, 0xC66,
    0xCE6, 0xD66, 0xDE6, 0xE50, 0xED0, 0xF20, 0x1040, 0x1090, 0x17E0, 0x1810,
    0x1946, 0x19D0, 0x1A80, 0x1A90, 0x1B50, 0x1BB0, 0x1C40, 0x1C50, 0xA620,
    0xA8D0, 0xA900, 0xA9D0, 0xA9F0, 0xAA50, 0xABF0, 0xFF10, 0x104A0, 0x10D30,
    0x11066, 0x110F0, 0x11136, 0x111D0, 0x112F0, 0x11450, 0x114D0, 0x11650,
    0x116C0, 0x11730, 0x118E0, 0x11950, 0x11C50, 0x11D50, 0x11DA0, 0x16A60,
    0x16B50, 0x1D7CE, 0x1D7D8, 0x1D7E2, 0x1D7EC, 0x1D7F6, 0x1E140, 0x1E2F0,
    0x1E950, 0x1FBF0,
))


def _digits(run: str, signed: bool = False) -> int:
    """``int(run)`` for a grammar run, after a sign if ``signed``: ``int``
    alone also takes spaces, a sign where none may be, and the digits of
    whatever Unicode version the interpreter has, where only those of
    Unicode 13.0 may be.  An ASCII run needs no table lookup."""
    head = run[:1].isdecimal() or signed and run.lstrip("+-")[:1].isdecimal()
    if head and run[-1:].isdecimal() and (
        run.isascii() or all(c.isascii() or ord(c) - int(c) in _UNICODE_13_ZEROS for c in run)
    ):
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


@dataclass(frozen=True)
class Violation:
    """One failed profile invariant; ``side``/``k`` locate the offending sum."""

    side: Side | None
    k: int | None
    message: str


class PartyWins(NamedTuple):
    """One party's optimal-play win counts, indexed by split k = 0..n."""

    left_districting: tuple[int, ...]  # it draws the lines left of split k
    right_districting: tuple[int, ...]
    left_opposed: tuple[int, ...]  # its opponent draws them
    right_opposed: tuple[int, ...]
    left_total: tuple[int, ...]  # it districts the left, the opponent the right
    right_total: tuple[int, ...]

    @classmethod
    def from_scaled(cls, scale: int, left_support: Sequence[int]) -> "PartyWins":
        """Win counts from the party's support left of each split, scaled by
        ``scale``: for support x against the opponent's y on a side of
        ``size`` districts, min(floor(2x), size) when the party draws the
        lines and max(ceil(x - y), 0) when the opponent does, with every
        value multiplied by ``scale``, so ``divmod(2X, scale)`` gives
        floor(2x) and, by its remainder, ceil(2x).  The right side's 2T - 2X
        needs no divmod of its own: with (ft, rt) the total's and (fx, rx)
        the left side's, its quotient is ft - fx, less one when rt < rx, and
        its remainder is 0 only when rt == rx."""
        n = len(left_support) - 1
        ft, rt = divmod(2 * left_support[n], scale)
        rows = []
        for k, x in enumerate(left_support):
            j = n - k
            # The opponent's wins, ceil(x - (k - x)), are ceil(2x) - k.
            fx, rx = divmod(2 * x, scale)
            fy = ft - fx if rt >= rx else ft - fx - 1
            ox = fx - k + 1 if rx else fx - k
            oy = fy - j + 1 if rt != rx else fy - j
            d_left = fx if fx < k else k
            d_right = fy if fy < j else j
            o_left = ox if ox > 0 else 0
            o_right = oy if oy > 0 else 0
            rows.append((d_left, d_right, o_left, o_right, d_left + o_right, d_right + o_left))
        return cls(*zip(*rows))  # one tuple per field


class WinTable(NamedTuple):
    """Both parties' optimal-play win counts at every split of one profile."""

    a: PartyWins
    b: PartyWins

    @classmethod
    def from_scaled(cls, scale: int, prefix_a: tuple[int, ...]) -> "WinTable":
        """The table of a profile whose A-support left of split k is
        ``prefix_a[k] / scale``.  B's counts come from B's own support,
        ``k - prefix_a[k] / scale``, not from A's counts."""
        return cls(
            PartyWins.from_scaled(scale, prefix_a),
            PartyWins.from_scaled(scale, [k * scale - x for k, x in enumerate(prefix_a)]),
        )

    def party(self, party: Party) -> PartyWins:
        return self.a if party is Party.A else self.b


@dataclass(frozen=True)
class SplitProfile:
    """Party A's support over a state of ``n`` districts.

    ``prefix_a[k]`` is ``scale`` times A's support left of split k, from
    ``prefix_a[0] == 0``; segment k, between the (k-1)- and k-splits, holds
    a value in [0, 1], and B the complement.  ``scale`` is the lcm of the
    segments' denominators, so profiles are equal when their segments are:
    a larger scale is divided by its gcd with the sums at construction.
    """

    n: int
    scale: int
    prefix_a: tuple[int, ...]

    def __post_init__(self):
        scale, prefix = self.scale, tuple(self.prefix_a)
        common = math.gcd(scale, *prefix) if scale > 1 and prefix[:1] == (0,) else 1
        if common > 1:
            object.__setattr__(self, "scale", scale // common)
            prefix = tuple([p // common for p in prefix])
        object.__setattr__(self, "prefix_a", prefix)

    @classmethod
    def of(cls, n: int, segments: Sequence[Fraction]) -> SplitProfile:
        """The profile whose segment k holds ``segments[k-1]``."""
        pairs = [(seg.numerator, seg.denominator, None) for seg in segments]
        return _profile_of(n, pairs, math.lcm(*[q for _, q, _ in pairs]))

    @cached_property
    def segments_a(self) -> tuple[Fraction, ...]:
        """A's support in each segment, as reports print it."""
        prefix, scale = self.prefix_a, self.scale
        return tuple([Fraction(hi - lo, scale) for lo, hi in zip(prefix, prefix[1:])])

    @cached_property
    def segment_texts(self) -> tuple[str, ...]:
        """Each of ``segments_a`` as ``ratio_str`` renders it, as reports echo it."""
        suffixes = _Suffixes()
        return tuple([f"{seg.numerator}{suffixes[seg.denominator]}" for seg in self.segments_a])

    @cached_property
    def win_table(self) -> WinTable:
        """Optimal-play win counts at every split, computed once; raises
        ProfileError on an invalid profile."""
        ensure_valid(self)
        return WinTable.from_scaled(self.scale, self.prefix_a)

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        return tuple(_check(self))


def _profile_of(n: int, pairs: list, scale: int) -> SplitProfile:
    """The profile of segments given as ``(p, q, text)``, each p/q, on
    ``scale``, a common multiple of the q, with its ``segment_texts``.

    The segments over one q are certified in lowest terms by one gcd, of q
    and the product of their numerators mod q; only where that fails is each
    reduced, one gcd apiece.  ``SplitProfile`` divides the sums down to the
    least scale.  A certified segment whose text is already canonical, with
    no leading zero and q above 1, is echoed as it was written.
    """
    shares = {q: scale // q for q in {q for _, q, _ in pairs}}
    products = dict.fromkeys(shares, 1)
    prefix = [0]
    for p, q, _ in pairs:
        products[q] = products[q] * p % q
        prefix.append(prefix[-1] + p * shares[q])
    certified = {q for q, product in products.items() if math.gcd(product, q) == 1}
    texts, suffixes = [], _Suffixes()
    for p, q, text in pairs:
        if q not in certified:
            common = math.gcd(p, q)
            p, q = p // common, q // common
        elif text is not None and q > 1 and text[0] != "0" and "/0" not in text:
            texts.append(text)
            continue
        texts.append(f"{p}{suffixes[q]}")
    profile = SplitProfile(n, scale, tuple(prefix))
    profile.__dict__["segment_texts"] = tuple(texts)
    return profile


class _Suffixes(dict):
    """``"/q"`` by denominator q, and "" for 1: profiles often share one long
    denominator, so each distinct one is converted to decimal once."""

    def __missing__(self, q: int) -> str:
        self[q] = suffix = f"/{q}" if q != 1 else ""
        return suffix


class _Denominators(dict):
    """q by its ASCII digits, each distinct text converted once."""

    def __missing__(self, text: bytes) -> int:
        self[text] = q = int(text)
        return q


def _read_segments(raw: list, lowest: bool = False) -> tuple[list, int]:
    """``profile_from_dict``'s entries as ``(p, q, text)``, and the lcm of the q.

    A ``"p/q"`` string of ASCII digits under 1000 characters, with q nonzero,
    is read here and keeps its text: ``parse_ratio`` would refuse no such
    string.  Any other entry is read by ``parse_ratio`` and has no text.  The
    lcm is taken of the q as written, once per distinct q; should it reach
    ``_INT_LIMIT``, the entries are read again in lowest terms, so that a
    refusal names the entry where the lcm of the least denominators passes
    the bound.
    """
    pairs, dens, seen, scale = [], _Denominators(), set(), 1
    for idx, entry in enumerate(raw, start=1):
        num = den = b""
        if type(entry) is str and 2 * len(entry) < MAX_RATIO_LENGTH and entry.isascii():
            num, _, den = entry.encode().partition(b"/")  # bytes.isdigit is 0-9 alone
        if num.isdigit() and den.isdigit() and (q := dens[den]):
            p, text = int(num), entry
        else:
            try:
                value = parse_ratio(entry)
            except FormatError as exc:
                raise FormatError(f"segments_a[{idx}]: {exc}") from exc
            p, q, text = value.numerator, value.denominator, None
        if lowest and (common := math.gcd(p, q)) > 1:
            p, q, text = p // common, q // common, None
        pairs.append((p, q, text))
        if q in seen:
            continue
        seen.add(q)
        if scale % q and (scale := math.lcm(scale, q)) >= _INT_LIMIT:
            if not lowest:
                return _read_segments(raw, lowest=True)
            raise FormatError(
                f"segments_a[{idx}]: common denominator of more than {MAX_RATIO_LENGTH} digits"
            )
    return pairs, scale


def _check(profile: SplitProfile):
    n, scale, prefix = profile.n, profile.scale, profile.prefix_a
    if n < 1:
        yield Violation(None, None, f"n must be positive, got {n}")
        return
    if scale < 1 or prefix[:1] != (0,):
        yield Violation(None, None, "scale must be positive and prefix_a must start at 0")
        return
    if len(prefix) != n + 1:
        yield Violation(None, None, f"expected {n} segments, got {len(prefix) - 1}")
        return
    for k, (lo, hi) in enumerate(zip(prefix, prefix[1:]), start=1):
        if not 0 <= hi - lo <= scale:
            value = ratio_str(Fraction(hi - lo, scale))
            yield Violation(None, k, f"segment {k} support {value} outside [0, 1]")
    for side, k, scaled in half_integer_sums(scale, prefix):
        where = "left" if side is Side.LEFT else "right"
        value = ratio_str(Fraction(scaled, scale))
        detail = f"support {where} of split {k} is {value}, an integer multiple of 1/2"
        yield Violation(side, k, detail)


def half_integer_sums(
    scale: int, prefix: Sequence[int]
) -> Iterator[tuple[Side, int, int]]:
    """Yield ``(side, k, L * sum)`` for each cumulative sum that is an integer
    multiple of 1/2, left sums first, from a profile's ``scale`` L and ``prefix_a`` P.

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


def side_support(profile: SplitProfile, party: Party, side: Side, k: int) -> Fraction:
    """Total support for ``party`` on ``side`` of the k-split, as an exact
    Fraction: the left holds k districts' worth of population, the right the
    remaining n - k.  The input of the reference ``Fraction`` closed forms
    in ``tests/closed_forms.py``."""
    _check_split_index(profile, k)
    scale, prefix = profile.scale, profile.prefix_a
    a_side = prefix[k] if side is Side.LEFT else prefix[-1] - prefix[k]
    size = k if side is Side.LEFT else profile.n - k
    return Fraction(a_side if party is Party.A else size * scale - a_side, scale)


def profile_to_dict(profile: SplitProfile) -> dict:
    """The ``{"n": ..., "segments_a": [...]}`` document, each segment as
    ``ratio_str`` renders it: ``profile.segment_texts``, which
    ``profile_from_dict`` fills with the document's plain entries where they
    are already canonical."""
    return {"n": profile.n, "segments_a": list(profile.segment_texts)}


def profile_from_dict(doc: object) -> SplitProfile:
    """Build a profile from the ``{"n": ..., "segments_a": [...]}`` document.

    Each plain entry, ``"p/q"`` in ASCII digits, is read on an integer pair,
    and every other through ``parse_ratio`` (``_read_segments``); the first
    entry refused is named."""
    if not isinstance(doc, dict):
        raise FormatError("profile document must be a JSON object")
    unknown = set(doc) - {"n", "segments_a"}
    if unknown:
        raise FormatError(f"unknown profile field(s): {_brief(sorted(unknown, key=_brief))}")
    if "n" not in doc:
        raise FormatError("profile field 'n' is missing")
    if "segments_a" not in doc:
        raise FormatError("profile field 'segments_a' is missing")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise FormatError(f"profile field 'n' must be a positive integer, got {_brief(n)}")
    if n > MAX_DISTRICTS:
        raise FormatError(f"profile field 'n' must be at most {MAX_DISTRICTS}, got {_brief(n)}")
    raw = doc["segments_a"]
    if not isinstance(raw, list) or len(raw) > MAX_DISTRICTS:
        raise FormatError(
            f"profile field 'segments_a' must be a list of at most {MAX_DISTRICTS} entries"
        )
    return _profile_of(n, *_read_segments(raw))


class _AsciiRepr(reprlib.Repr):
    """``reprlib.Repr`` cutting ``ascii()``, not ``repr()``: the same on every Unicode database."""

    def repr_str(self, x: str, level: int) -> str:
        """``ascii(x)`` if it is at most 30 characters.  Otherwise whole
        escapes of its body, at most 12 characters' worth from the front and
        13 from the back, around "...": reprlib's cut at its maxstring, 30,
        which on plain text it matches, but never through an escape."""
        if len(x) <= 28 and len(s := ascii(x)) <= 30:
            return s
        quote = '"' if "'" in x and '"' not in x else "'"
        front, back = [], []
        for part, chars, room in ((front, x, 12), (back, reversed(x), 13)):
            for c in chars:
                escape = "\\" + c if c == quote else ascii(c)[1:-1]
                room -= len(escape)
                if room < 0:
                    break
                part.append(escape)
        return quote + "".join(front) + "..." + "".join(reversed(back)) + quote


def _brief(value: object) -> str:
    """``_AsciiRepr().repr(value)``, or a placeholder if it holds an int too long for ``repr``."""
    try:
        return _AsciiRepr().repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to show>"


def two_gap_profile() -> SplitProfile:
    """Built-in ten-district profile whose optimal play ends in a coin flip
    between the 5- and 6-splits, with a worst candidate two districts below
    the geometric target.

    A holds 1.9 left of split 5, 0.9 in segment 6, and 1.4 right of split 6;
    the tail segments are uneven so no cumulative sum lands on a half-integer.
    """
    hundredths = [38] * 5 + [90, 32, 34, 36, 38]
    return SplitProfile.of(10, [Fraction(h, 100) for h in hundredths])

