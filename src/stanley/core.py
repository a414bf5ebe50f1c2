"""Greedy 3-AP-free sequences and empirical self-similarity detection.

A prefix is grown one term at a time: the next term is the least integer
above the current maximum that keeps the whole list free of three-term
arithmetic progressions.  Sequences grown this way from well-behaved seeds
settle into a doubling pattern; ``detect_character`` recovers the constant
that governs it.
"""

from __future__ import annotations

import math
import operator
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Sequence, Union

from .errors import (
    FormatError,
    MalformedInputError,
    PreconditionError,
    PrefixTooShortError,
    ResourceLimitError,
)

#: Checked integer width for every module; ``check_int`` raises beyond it instead of growing.
INT_LIMIT = (1 << 63) - 1

#: Widest span or modulus a bit mask may cover; ``check_bits`` raises beyond it before allocating.
#: A shift-OR pass over terms within it may build a cover mask up to twice as wide.
BIT_LIMIT = 1 << 28

#: Most elements a residue-set product may hold; ``check_count`` raises beyond it before building.
ELEMENT_LIMIT = 1 << 24

_LOG2_3 = math.log2(3.0)

#: Values above the last term that greedy places on small masks before folding them into the span.
_REACH = 1 << 10


def check_int(value: int, what: str) -> int:
    """Return ``value`` if it is an int (not a bool) in 0..INT_LIMIT.

    A non-integer or negative value raises MalformedInputError; one above
    ``INT_LIMIT`` raises ResourceLimitError.
    """
    if type(value) is int and 0 <= value <= INT_LIMIT:
        return value  # the branches below only classify a failure
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


def check_count(count: int) -> int:
    """Return ``count`` if a set of that many elements fits the budget; above
    ``ELEMENT_LIMIT`` raise ResourceLimitError before any is built."""
    if count > ELEMENT_LIMIT:
        budget = f"the {ELEMENT_LIMIT}-element budget"
        raise ResourceLimitError(f"product of {count} elements exceeds {budget}")
    return count


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
    try:
        out = tuple(terms)
    except TypeError:
        raise MalformedInputError(f"{what} list {terms!r} is not iterable") from None
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


def _cover(terms: Sequence[int]) -> tuple[int, int]:
    """Shift-OR pass over ``terms``: ``(rev, cover)``.

    With base = terms[0], each term x sets bit last - x of rev (last: the latest term);
    at y, rev's bits read y - x, so ``rev << (y - base)`` sets every 2y - x - base of cover.
    """
    base = last = terms[0]
    rev = cover = 0
    for y in terms:
        rev <<= y - last
        cover |= rev << (y - base)
        rev |= 1
        last = y
    return rev, cover


#: Byte i with its eight bits in reverse order, for ``bytes.translate``.
_FLIPPED = bytes(sum((i >> j & 1) << (7 - j) for j in range(8)) for i in range(256))


def _reflect(mask: int) -> int:
    """``mask`` read backwards (bit i from bit ``mask.bit_length() - 1 - i``): bytes in
    the other order, bits flipped, padding cut.  Bit last - x of terms x gives x - first."""
    width = mask.bit_length()
    size = (width + 7) // 8
    flipped = mask.to_bytes(size, "big").translate(_FLIPPED)
    return int.from_bytes(flipped, "little") >> (8 * size - width)


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
    pair covers it).  It cannot be passed in and takes no part in equality,
    hashing or repr.
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
    """Extend ``seed`` greedily until it has ``target_len`` terms, each the lowest
    value above the last that no pair covers (README, "Greedy growth"): placed in
    windows of ``_REACH`` values on the low bits of the masks, then folded into the
    span-wide masks with one shift and one OR per term, unless nothing was cut off.
    A seed with a progression raises MalformedInputError; a span above ``BIT_LIMIT``
    raises ResourceLimitError, checked before the seed pass, at each gap above 64
    and at the end."""
    terms = _terms_of(seed)
    base = terms[0]
    target = check_int(target_len, "target_len")
    check_bits(terms[-1] - base + max(target - len(terms), 0), "prefix span")
    last = terms[-1]
    rev, cover = _cover(terms)
    if cover & _reflect(rev):
        raise MalformedInputError("terms contain a 3-term arithmetic progression")
    if target < len(terms):
        raise MalformedInputError(f"target_len {target_len} below seed length {len(terms)}")

    grown = list(terms)
    ahead = cover >> (last - base + 1)  # bit i: last + 1 + i is covered
    pairs = rev >> 1  # bit last - 1 - x for each earlier term x
    window = (1 << _REACH) - 1
    while len(grown) < target:
        # a new term t pairs up to end only with terms within _REACH below t
        start, placed, end = last, len(grown), last + _REACH
        near, near_pairs = ahead & window, pairs & window
        if near == window:  # a covered run past the window: one step read off the whole mask
            near, end = ahead, last + (ahead ^ (ahead + 1)).bit_length()
        for _ in range(target - placed):
            gap = (near ^ (near + 1)).bit_length()  # trailing ones of near, plus one
            if last + gap > end:
                break
            if gap > 64:
                check_bits(last + gap - base, "prefix span")
            last += gap
            # the new term t covers each 2t - x, at bit t - x - 1 of the shifted mask
            near_pairs = (near_pairs << gap) | (1 << (gap - 1))
            near = (near >> gap) | near_pairs
            grown.append(last)
        if ahead <= window:  # nothing was cut off; ahead holds 2 last - base, so pairs fits too
            ahead, pairs = near, near_pairs
            continue
        pairs, ahead = (pairs << (last - start)) | near_pairs, ahead >> (last - start)
        for t in grown[placed:]:
            ahead |= pairs >> 2 * (last - t)  # 2t - x for each earlier term x
    check_bits(last - base, "prefix span")
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


def _settle(terms: Sequence[int], level: int, character: int) -> int:
    """Walk down from ``level``: the least k <= level such that both doubling
    identities hold with ``character`` at every level from k to level - 1.

    Level j holds when a[2^j + i] == a[2^j] + a[i] for 0 <= i < 2^j and
    a[2^j] == 2*a[2^j - 1] - character + 1; it reads only the first 2^(j+1) terms.
    """
    while level > 0:
        block = 1 << (level - 1)
        head = terms[block]
        if (
            2 * terms[block - 1] - head + 1 != character
            or terms[block : 2 * block] != tuple([head + x for x in terms[:block]])
        ):
            break
        level -= 1
    return level


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
    character = 2 * terms[(1 << top) - 1] - terms[1 << top] + 1
    if character < 0:
        return None
    settle = _settle(terms, top + 1, character)
    if settle > top:  # the top level disagrees
        return None
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
    """The omitted integers in [0, bound), as a mask (README, "Greedy growth").
    A prefix ending below ``bound`` raises PrefixTooShortError, as the answer would
    be provisional; a bound above ``BIT_LIMIT`` raises ResourceLimitError first."""
    terms = _terms_of(prefix)
    check_bits(check_int(bound, "bound"), "scan bound")
    if terms[-1] < bound:
        raise PrefixTooShortError(f"last term {terms[-1]} below scan bound {bound}")

    below = min(bound, prefix.settled) if isinstance(prefix, StanleyPrefix) else bound
    head = terms[: bisect_left(terms, below)]
    rev, cover = _cover(head) if head else (0, 0)
    return _omitted(_reflect(rev) | cover, terms[0], below, bound)


def sumset(terms: Sequence[int], shifts: Sequence[int]) -> tuple[int, ...]:
    """{x + t : x in terms, t in shifts}, ascending.  More than ``ELEMENT_LIMIT``
    sums raise ResourceLimitError before any is built, and two equal sums raise
    PreconditionError: an input set repeats a residue class."""
    check_count(len(terms) * len(shifts))
    sums = [x + t for t in shifts for x in terms]
    sums.sort()
    if not all(map(operator.lt, sums, sums[1:])):
        raise PreconditionError("product sums collided; an input set repeats a residue class")
    return tuple(sums)


def doubling_reduction(top: int, modulus: int) -> tuple[int, int]:
    """``(steps, N)`` for a maximum ``top`` mod ``modulus``: each step adds the modulus
    to the maximum and triples the modulus, until the maximum lies below N.  Checked
    inputs (a modulus of at least 1), unchecked steps: N may pass ``INT_LIMIT``."""
    check_int(top, "top")
    if check_int(modulus, "modulus") < 1:
        raise MalformedInputError(f"modulus {modulus} is not positive")
    steps = 0
    while top >= modulus:
        top, modulus, steps = top + modulus, 3 * modulus, steps + 1
    return steps, modulus


def doubled_terms(seed: Sequence[int], modulus: int) -> tuple[int, ...]:
    """A = seed + modulus*B_s, ascending, mod N = modulus*3^s (``doubling_reduction``),
    where B_s, the sums of distinct 3^i for i < s, is the first 2^s terms of S(0):
    ``sumset`` of the seed and modulus*B_s, with its checks, the element budget first."""
    steps = doubling_reduction(seed[-1], modulus)[0]
    check_count(len(seed) << steps)
    shifts, q = [0], modulus
    for _ in range(steps):
        shifts += [t + q for t in shifts]
        q *= 3
    return sumset(seed, shifts)


def _doubled_profile(terms: tuple[int, ...], modulus: int) -> CharacterProfile | None:
    """``detect_character`` of P = A + {0, N, 3N, 4N}, read off A (see ``doubled_prefix``)."""
    level = len(terms).bit_length() - 1
    character = 2 * terms[-1] + 1 - modulus
    if terms[0] or len(terms) != 1 << level or character < 0:
        return None
    settle = _settle(terms, level, character)  # levels level + 1 and level hold
    head = terms[1 << settle] if settle < level else modulus
    return CharacterProfile(character, settle, head, level + 1)


def doubled_prefix(
    seed: Sequence[int], modulus: int
) -> tuple[CharacterProfile | None, OmittedSet] | None:
    """Prove that greedy growth extends A = seed + modulus*B_s (``doubled_terms``), fully
    modular mod N = modulus*3^s for the s of ``doubling_reduction``, to P = A + {0, N,
    3N, 4N}, without building P.  Returns ``(profile, omitted)``, ``detect_character(P)``
    and P's omitted set read off A, or None when the proof fails (README, "Deep certificate").

    Up to max P, P is covered by D< + {0, N, 3N, 4N} and D + 2N.  D = {2b - a} and
    fwd(A) follow from the seed by the step rule; only D< = {2b - a : a < b} walks A.
    A modulus of 0 raises MalformedInputError; a prefix ending above ``BIT_LIMIT``
    raises ResourceLimitError before any mask is built, and A is built as
    ``doubled_terms`` builds it, with its checks.
    """
    seed = check_terms(seed)
    steps, n = doubling_reduction(seed[-1], modulus)
    base, top = seed[0], seed[-1] + (n - modulus) // 2  # max A: a step adds its modulus
    end = check_bits(top + 4 * n, "prefix end")
    terms = doubled_terms(seed, modulus)

    rev, across = sum(1 << (seed[-1] - a) for a in seed), 0  # rev: bit max seed - a
    for b in seed:  # D(seed), at bit 2b - a - (2 base - max seed)
        across |= rev << 2 * (b - base)
    fwd_a, q = _reflect(rev), modulus
    for _ in range(steps):  # X | X + q: D gains D - q, D + q, D + 2q; fwd gains fwd + q
        across |= across << q
        across |= across << 2 * q
        fwd_a |= fwd_a << q
        q *= 3
    _, within = _cover(terms)  # D<, at bit v - base
    cover = across << (2 * n - (top - base))  # D + 2N, at bit v - base
    fwd = 0
    for k in (0, n, 3 * n, 4 * n):
        cover |= within << k
        fwd |= fwd_a << k
    decided = fwd | cover
    gaps = (1 << (end - base)) - (1 << (top - base + 1))  # bits of (top, end)
    if cover & fwd or gaps & ~decided:
        return None
    return _doubled_profile(terms, n), _omitted(decided, base, top, end)


def growth_diagnostic(prefix: SeedLike) -> tuple[float, ...]:
    """The ratios a_n / n**log2(3) for n over the prefix's second half, ascending in n."""
    terms = _terms_of(prefix)
    if len(terms) < 8:
        raise PrefixTooShortError("need at least 8 terms for a growth window")
    return tuple([terms[n] / n ** _LOG2_3 for n in range(len(terms) // 2, len(terms))])
