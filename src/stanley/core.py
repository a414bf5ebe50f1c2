"""Greedy 3-AP-free sequences and empirical self-similarity detection.

A prefix is grown one term at a time: the next term is the least integer
above the current maximum that keeps the whole list free of three-term
arithmetic progressions.  Sequences grown this way from well-behaved seeds
settle into a doubling pattern; ``detect_character`` recovers the constant
that governs it.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Sequence, Union

from .errors import FormatError, MalformedInputError, PrefixTooShortError, ResourceLimitError

#: Hard ceiling on greedy extension length, generous for desk-scale runs.
DEFAULT_TERM_CAP = 1 << 20

#: Checked integer width for every module; ``check_int`` raises beyond it instead of growing.
INT_LIMIT = (1 << 63) - 1

#: Widest span or modulus a bit mask may cover; ``check_bits`` raises beyond it before allocating.
BIT_LIMIT = 1 << 28

#: Most elements a residue-set product may build; larger products raise before building.
ELEMENT_LIMIT = 1 << 24

_LOG2_3 = math.log2(3.0)

#: One machine word of ones: greedy reads the next gap from the low word of its mask.
_WORD = (1 << 64) - 1


def check_int(value: int, what: str) -> int:
    """Return ``value`` if it is an int (not a bool) in 0..INT_LIMIT.

    A non-integer or negative value raises MalformedInputError; one above
    ``INT_LIMIT`` raises ResourceLimitError.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedInputError(f"{what} {value!r} is not an integer")
    if value < 0:
        raise MalformedInputError(f"{what} {value} is negative")
    if value > INT_LIMIT:
        raise ResourceLimitError(f"{what} {value} exceeds the checked 64-bit range")
    return value


def check_bits(width: int, what: str) -> int:
    """Return ``width`` if a bit mask that wide fits the budget; above ``BIT_LIMIT``
    raise ResourceLimitError before any mask is built."""
    if width > BIT_LIMIT:
        raise ResourceLimitError(f"{what} {width} exceeds the {BIT_LIMIT}-bit mask budget")
    return width


def read_int(text: str, what: str = "number") -> int:
    """The int that ``text`` spells in plain ASCII decimal, checked like ``check_int``.

    Surrounding whitespace is ignored.  Anything but ASCII digits (a sign, ``_``,
    a digit from another script) or a leading zero raises FormatError; a value
    above ``INT_LIMIT`` raises ResourceLimitError before a long run is converted.
    """
    body = text.strip()
    if not (body.isascii() and body.isdigit()) or (len(body) > 1 and body[0] == "0"):
        raise FormatError(f"bad {what}: {text!r}")
    if len(body) > len(str(INT_LIMIT)):
        raise ResourceLimitError(f"a {len(body)}-digit {what} exceeds the checked 64-bit range")
    return check_int(int(body), what)


def set_bits(mask: int, limit: int | None = None) -> tuple[int, ...]:
    """Positions of the set bits of a nonnegative ``mask``, ascending; with
    ``limit``, only the lowest ``limit`` of them.

    A limited read lists a window of low bits, doubled from one word until it
    holds ``limit`` set bits, so its cost follows the position of the last bit
    listed, not the width of the mask.
    """
    if limit is not None:
        width = 64
        while width < mask.bit_length() and (mask & ((1 << width) - 1)).bit_count() < limit:
            width <<= 1
        mask &= (1 << width) - 1
    found = re.finditer("1", bin(mask)[:1:-1])
    return tuple(m.start() for m in islice(found, limit))


def check_terms(terms: Iterable[int], what: str = "term") -> tuple[int, ...]:
    """``terms`` as a nonempty, strictly increasing tuple of ``check_int`` values.

    One pass tests only type and order; then ``check_int`` reads the last term,
    which bounds every other.  On any failure the checks rerun term by term, so
    the first bad term names the error.
    """
    out = tuple(terms)
    if not out:
        raise MalformedInputError(f"{what} list is empty")
    last = -1
    for value in out:
        if type(value) is not int or value <= last:
            break
        last = value
    else:
        try:
            check_int(last, what)
            return out
        except ResourceLimitError:
            pass
    last = -1
    for value in out:
        check_int(value, what)
        if value <= last:
            raise MalformedInputError(f"{what}s must be strictly increasing")
        last = value
    return out


def _cover(terms: Sequence[int], stop: int | None = None) -> tuple[int, int, int, int]:
    """Shift-OR pass over the terms below ``stop``, or all: ``(last, rev, fwd, cover)``.

    With base = terms[0], each term x sets bit last - x of rev and x - base of fwd;
    at y, rev's bits read y - x, so ``rev << (y - base)`` sets every 2y - x - base.
    A pair x < y covers a value below ``stop`` only if y - x < stop - y, a window
    that only shrinks as y grows; so from the midpoint on, 2y >= stop + base, rev is
    cut to its low stop - y bits and cover stays under stop - base bits wide.
    Without ``stop`` nothing is cut, so the returned rev holds every term.
    """
    base = last = terms[0]
    rev = fwd = cover = 0
    split = len(terms) if stop is None else bisect_right(terms, (stop + base - 1) // 2)
    for y in terms[:split]:
        rev <<= y - last
        cover |= rev << (y - base)
        rev |= 1
        fwd |= 1 << (y - base)
        last = y
    for y in terms[split:]:
        if y >= stop:
            break
        rev = (rev << (y - last)) & ((1 << (stop - y)) - 1)
        cover |= rev << (y - base)
        rev |= 1
        fwd |= 1 << (y - base)
        last = y
    return last, rev, fwd, cover


def _has_progression(seq: Sequence[int]) -> bool:
    # Any 3-term AP in an increasing list appears as terms[k] = 2*terms[j] - terms[i]
    # with i < j, so probing pair sums against the member set is complete.
    members = set(seq)
    for j in range(1, len(seq)):
        doubled = 2 * seq[j]
        for i in range(j):
            if doubled - seq[i] in members:
                return True
    return False


@dataclass(frozen=True)
class StanleyPrefix:
    """A finite greedy prefix: strictly increasing, 3-AP-free terms.

    ``settled`` promises that every value in [settled, last] is a term or is
    2y - x for terms x < y, so ``omitted_set`` need not scan above it.  A prefix
    built from terms claims nothing, so it is ``last``.  ``greedy_extend`` keeps
    its seed's point, the top of a plain seed (greedy skips a value only when a
    pair covers it), and ``doubled_prefix`` sets max A.  It cannot be passed in
    and takes no part in equality, hashing or repr.
    """

    terms: tuple[int, ...]
    settled: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", check_terms(self.terms))
        if _has_progression(self.terms):
            raise MalformedInputError("terms contain a 3-term arithmetic progression")
        object.__setattr__(self, "settled", self.terms[-1])

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def last(self) -> int:
        return self.terms[-1]


SeedLike = Union[StanleyPrefix, Sequence[int]]


def _terms_of(prefix: SeedLike) -> tuple[int, ...]:
    """Terms of a prefix, validated unless a StanleyPrefix already was."""
    return prefix.terms if isinstance(prefix, StanleyPrefix) else check_terms(prefix)


def _trusted(terms: tuple[int, ...], settled: int) -> StanleyPrefix:
    """A StanleyPrefix over terms already known to be valid, without re-validation."""
    prefix = object.__new__(StanleyPrefix)
    object.__setattr__(prefix, "terms", terms)
    object.__setattr__(prefix, "settled", settled)
    return prefix


def greedy_extend(seed: SeedLike, target_len: int) -> StanleyPrefix:
    """Extend ``seed`` greedily until it has ``target_len`` terms.

    The seed is checked by the same shift-OR pass that starts the extension:
    it holds a progression exactly when a covered value is a term.
    The next term is the lowest value above the last that no pair covers.  Its
    gap is read from the low word of the covered-ahead mask, and from the whole
    mask only after a covered run of 64 values or more.  Each accepted term then
    costs two shifts over the span: one of the reflected mask of earlier terms,
    whose new bits are the values the term covers, and one of the ahead mask.
    """
    terms = _terms_of(seed)
    check_bits(terms[-1] - terms[0], "seed span")
    last, rev, fwd, cover = _cover(terms)
    if cover & fwd:
        raise MalformedInputError("terms contain a 3-term arithmetic progression")
    if check_int(target_len, "target_len") < len(terms):
        raise MalformedInputError(f"target_len {target_len} below seed length {len(terms)}")
    if target_len > DEFAULT_TERM_CAP:
        raise ResourceLimitError(f"target_len {target_len} exceeds cap {DEFAULT_TERM_CAP}")

    grown = list(terms)
    ahead = cover >> (last - terms[0] + 1)  # bit i: last + 1 + i is covered
    pairs = rev >> 1  # bit last - 1 - x for each earlier term x
    for _ in range(target_len - len(terms)):
        low = ahead & _WORD
        if low != _WORD:
            gap = (low ^ (low + 1)).bit_length()  # trailing ones of ahead, plus one
        else:  # a covered run of 64 values or more
            gap = (ahead ^ (ahead + 1)).bit_length()
        last += gap
        # the new term t covers each 2t - x, at bit t - x - 1 of the shifted ahead
        pairs = (pairs << gap) | (1 << (gap - 1))
        ahead = (ahead >> gap) | pairs
        grown.append(last)
    check_int(last, "term")
    # greedy terms are 3-free, and every value above the seed's top is decided;
    # a seed's own settled point is never above its top
    settled = seed.settled if isinstance(seed, StanleyPrefix) else terms[-1]
    return _trusted(tuple(grown), settled)


@dataclass(frozen=True)
class CharacterProfile:
    """Outcome of an empirical doubling-identity scan.

    For every level ``k`` from ``settle_level`` through
    ``verified_up_to_level`` the prefix satisfied both
    ``a[2^k + i] == a[2^k] + a[i]`` (0 <= i < 2^k) and
    ``a[2^k] == 2*a[2^k - 1] - character + 1``.
    """

    character: int
    settle_level: int
    repeat_factor: int
    verified_up_to_level: int

    def __post_init__(self) -> None:
        for what in ("character", "settle_level", "repeat_factor", "verified_up_to_level"):
            check_int(getattr(self, what), what)
        if self.settle_level > self.verified_up_to_level:
            raise MalformedInputError("settle_level outside verified range")

    @property
    def levels_verified(self) -> int:
        return self.verified_up_to_level - self.settle_level + 1


def detect_character(prefix: SeedLike) -> CharacterProfile | None:
    """Scan the doubling identities empirically; None when they never settle.

    Returns the profile with the least settle level such that a single
    character value satisfies both identities on every checkable level from
    there up.  A level ``k`` is checkable when the prefix holds at least
    ``2^(k+1)`` terms.  The agreeing levels form an unbroken run ending at
    the top level, so the scan walks down from the top and stops at the
    first level that disagrees.
    """
    terms = _terms_of(prefix)
    if len(terms) < 4:
        raise PrefixTooShortError("need at least 4 terms to check one doubling level")
    top = len(terms).bit_length() - 2  # largest k with 2^(k+1) <= len(terms)

    def agrees(k: int, character: int) -> bool:
        block = 1 << k
        head = terms[block]
        return (
            2 * terms[block - 1] - head + 1 == character
            and terms[block : 2 * block] == tuple([head + x for x in terms[:block]])
        )

    character = 2 * terms[(1 << top) - 1] - terms[1 << top] + 1
    if character < 0 or not agrees(top, character):
        return None
    settle = top
    while settle > 0 and agrees(settle - 1, character):
        settle -= 1
    return CharacterProfile(character, settle, terms[1 << settle], top)


@dataclass(frozen=True)
class OmittedSet:
    """Integers below ``scan_bound`` that are neither terms nor covered.

    Bit v of ``mask`` is set when v is omitted.  ``omega`` (the largest omitted
    value, or None) and ``count`` read the mask; ``elements`` lists it on each
    read.  The repr shows ``omega`` and ``count`` instead of the mask, which can
    be wider than Python prints as a decimal int.
    """

    mask: int
    scan_bound: int

    def __repr__(self) -> str:
        return f"OmittedSet(omega={self.omega}, count={self.count}, scan_bound={self.scan_bound})"

    @property
    def omega(self) -> int | None:
        return self.mask.bit_length() - 1 if self.mask else None

    @property
    def count(self) -> int:
        return self.mask.bit_count()

    @property
    def elements(self) -> tuple[int, ...]:
        return set_bits(self.mask)


def _omitted(decided: int, base: int, below: int, scan_bound: int) -> OmittedSet:
    """The OmittedSet over ``scan_bound`` whose mask is the values in [0, below)
    that ``decided`` (bit i: base + i is a term or covered) leaves unset."""
    return OmittedSet(~(decided << base) & ((1 << below) - 1), scan_bound)


def omitted_set(prefix: SeedLike, bound: int) -> OmittedSet:
    """The omitted integers in [0, bound), as a mask.

    The prefix must reach ``bound`` so that every pair able to cover a value
    below the bound is present; otherwise the answer would be provisional.
    Values from ``prefix.settled`` on are decided already, so the scan stops
    at below = min(bound, settled): on a greedy prefix its cost follows the
    seed, not the prefix, and a plain term list gets the whole scan.
    The omitted values are the zero bits of one shift-OR pass over the terms
    under below (larger y cover only values above it), kept as the mask of the
    OmittedSet; only its ``elements`` lists them.  From the midpoint
    on, at y with 2y >= below + terms[0], the reversed term mask is cut to its low
    below - y bits, so no mask grows wider than below.
    A bound above ``BIT_LIMIT`` raises ResourceLimitError before any mask is built.
    """
    terms = _terms_of(prefix)
    check_bits(check_int(bound, "bound"), "scan bound")
    if terms[-1] < bound:
        raise PrefixTooShortError(f"last term {terms[-1]} below scan bound {bound}")

    below = min(bound, prefix.settled) if isinstance(prefix, StanleyPrefix) else bound
    _, _, fwd, cover = _cover(terms, below)
    return _omitted(fwd | cover, terms[0], below, bound)


def doubled_prefix(seed: Sequence[int], modulus: int) -> tuple[StanleyPrefix, OmittedSet] | None:
    """The greedy extension of a fully modular ``seed`` A mod N to 4|A| terms, and
    its omitted set, proved from two passes over A; None when the proof fails.

    Self-similarity predicts the prefix P = A + {0, N, 3N, 4N}.  P is the greedy
    extension exactly when it is 3-free and every value in (max A, max P) outside
    P is 2y - x for terms x < y of P.  If so, by induction each next term of P is
    admissible (it joins a subset of the 3-free P), and each value skipped before
    it is covered by two terms below that value, so already grown; greedy growth
    is unique, so it grows P.  Conversely greedy skips a value only when a pair
    covers it.  No omitted value lies above max A: every value there is a term or
    covered.  So the omitted set's mask is the zero bits of the same masks below
    max A, equal to ``omitted_set(P, P.last)`` field for field.

    The pairs of P follow its blocks A + iN, each wholly below the next as
    N > max A.  A pair a + iN < b + iN inside a block covers 2b - a + iN, so these
    pairs cover D< + {0, N, 3N, 4N} with D< = {2b - a : a < b in A}.  A pair
    a + iN < b + jN across blocks covers 2b - a + (2j - i)N, so these pairs cover
    D + {2, 5, 6, 7, 8}N with D = {2b - a : a, b in A}.  The check reads values
    up to max P = max A + 4N.  D + 6N starts at 6N + 2 min A - max A, above max P
    because N > max A, and 7N and 8N lie higher still.  D + 5N can reach max P
    (when N < 2 max A) but decides nothing.  Take v = 2b - a + 5N <= max P and
    w = v - 4N, which lies in (min A, max A].  If w is in A, the pair a, b + N
    covers the term w + N, and P fails anyway.  If w is in D<, v is in D< + 4N.
    Otherwise w + 3N is a value in (max A, max P) outside P that only D + 2N can
    cover; if it does, w + N is a value of D above max A, so in D<, and v is in
    D< + 3N; if not, P fails anyway.  So, up to max P, cover(P) is
    D< + {0, N, 3N, 4N} with D + 2N, and fwd(P) = fwd(A) + {0, N, 3N, 4N}.  One
    shift-OR pass over A gives fwd(A), its reversed mask and D<; one shift of the
    reversed mask per b in A, by 2(b - min A), gives D.

    A modulus not above max A raises MalformedInputError; a prefix ending above
    ``BIT_LIMIT`` raises ResourceLimitError before any tuple or mask is built.
    """
    terms = check_terms(seed)
    base, top = terms[0], terms[-1]
    if check_int(modulus, "modulus") <= top:
        raise MalformedInputError(f"modulus {modulus} does not exceed the seed maximum {top}")
    end = check_bits(top + 4 * modulus, "prefix end")

    _, rev, fwd_a, within = _cover(terms)  # rev: bit top - a; fwd_a, within: bit v - base
    across = 0
    for b in terms:  # bit 2b - a - (2 base - top), for every a
        across |= rev << 2 * (b - base)
    blocks = (0, modulus, 3 * modulus, 4 * modulus)
    cover = across << (2 * modulus - (top - base))  # D + 2N, at bit v - base
    fwd = 0
    for k in blocks:
        cover |= within << k
        fwd |= fwd_a << k
    decided = fwd | cover
    gaps = (1 << (end - base)) - (1 << (top - base + 1))  # bits of (top, end)
    if cover & fwd or gaps & ~decided:
        return None
    predicted = tuple([x + k for k in blocks for x in terms])
    return _trusted(predicted, top), _omitted(decided, base, top, end)


def growth_diagnostic(prefix: SeedLike) -> tuple[float, ...]:
    """The ratios a_n / n**log2(3) for n over the prefix's second half, ascending in n."""
    terms = _terms_of(prefix)
    if len(terms) < 8:
        raise PrefixTooShortError("need at least 8 terms for a growth window")
    return tuple([terms[n] / n ** _LOG2_3 for n in range(len(terms) // 2, len(terms))])
