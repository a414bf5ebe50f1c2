"""Residue-set calculus: verification, products, transforms, and file I/O.

A :class:`ResidueSet` is a finite set of nonnegative integers containing 0,
tagged with a modulus N.  It is *near-modular* when, modulo N, no triple of
elements that are not all identical forms an arithmetic progression and
every residue class is covered by some 2y - x with x <= y.  It is *modular*
when additionally every element lies below N.  Elements of near-modular
sets may exceed the modulus; only their residues matter to verification.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import ELEMENT_LIMIT, check_bits, check_int, check_terms, read_int, set_bits
from .errors import (
    FormatError,
    MalformedInputError,
    NegativeCharacterError,
    PreconditionError,
    ResourceLimitError,
)


@dataclass(frozen=True)
class ResidueSet:
    """Ascending element tuple plus modulus; 0 is always a member."""

    modulus: int
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        check_int(self.modulus, "modulus")
        if self.modulus < 1:
            raise MalformedInputError("modulus must be at least 1")
        object.__setattr__(self, "elements", check_terms(self.elements, "element"))
        if self.elements[0] != 0:
            raise MalformedInputError("0 must be an element")

    @classmethod
    def of(cls, modulus: int, elements: Iterable[int]) -> "ResidueSet":
        """Build from any iterable; duplicates are still rejected."""
        return cls(modulus, tuple(sorted(elements)))

    @property
    def max_element(self) -> int:
        return self.elements[-1]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)


def _trusted(modulus: int, elements: tuple[int, ...]) -> ResidueSet:
    """A ResidueSet over a modulus and elements already known to be valid (a
    modulus of at least 1, and ascending checked ints from 0), without re-validation."""
    a = object.__new__(ResidueSet)
    object.__setattr__(a, "modulus", modulus)
    object.__setattr__(a, "elements", elements)
    return a


#: Most uncovered residues a VerificationReport lists; it counts all of them.
UNCOVERED_SHOWN = 16


@dataclass(frozen=True)
class VerificationReport:
    """``uncovered_residues`` holds the lowest ``UNCOVERED_SHOWN`` uncovered
    residues and ``uncovered_count`` how many there are, so a report stays the
    same size whatever the modulus."""

    is_three_free_mod: bool
    uncovered_residues: tuple[int, ...]
    uncovered_count: int
    is_near_modular: bool
    is_modular: bool
    witness_violation: tuple[int, int, int] | None


def verify(a: ResidueSet) -> VerificationReport:
    """Full near-modular / modular verdict with a first violating triple.

    A violation is any ordered triple (x, y, z) of elements, not all three
    identical, with x + z == 2y (mod N).  Degenerate triples are screened
    first: two elements sharing a residue, or sharing a doubled residue,
    each yield a violation on their own.

    The rest is word-parallel over residue masks of at most 2N bits, so it
    costs O(|A|) big-int operations of 2N bits.  Bit (-x) % N of a mask,
    shifted left by 2y % N, lands on a bit whose residue is (2y - x) % N.
    Walking y upward, ``cover`` collects those bits for x <= y, and y is a
    middle term exactly when the shifted bits of every element hit the
    residue mask, repeated over 2N bits, more than once (x = y always
    hits).  A modulus above ``BIT_LIMIT`` raises ResourceLimitError before
    any mask is built.
    """
    n = check_bits(a.modulus, "modulus")
    elements = a.elements
    violation: tuple[int, int, int] | None = None

    by_residue: dict[int, int] = {}
    residues = neg_all = 0
    for e in elements:
        r = e % n
        if r in by_residue:
            other = by_residue[r]
            violation = (other, other, e)  # x = y, z in the same class
            break
        by_residue[r] = e
        residues |= 1 << r
        neg_all |= 1 << (-r % n)

    if violation is None:
        by_doubled: dict[int, int] = {}
        for e in elements:
            d = (2 * e) % n
            if d in by_doubled:
                violation = (by_doubled[d], e, by_doubled[d])  # x = z, middle y
                break
            by_doubled[d] = e

    residues_2n = residues | residues << n
    neg = cover = 0
    for y in elements:
        s = 2 * y % n
        neg |= 1 << (-y % n)
        cover |= neg << s
        # Residues are distinct once the screens pass, so each hit is one x.
        if violation is None and ((neg_all << s) & residues_2n).bit_count() != 1:
            for x in elements:
                if x == y:
                    continue
                z = by_residue.get((2 * y - x) % n)
                if z is not None:
                    violation = (x, y, z)
                    break

    free = ~(cover | cover >> n) & ((1 << n) - 1)

    three_free = violation is None
    near = three_free and not free
    return VerificationReport(
        is_three_free_mod=three_free,
        uncovered_residues=set_bits(free, UNCOVERED_SHOWN) if free else (),
        uncovered_count=free.bit_count(),
        is_near_modular=near,
        is_modular=near and a.max_element < n,
        witness_violation=violation,
    )


def product(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """Combine as {x + N*y : x in A, y in B} with modulus N*M.

    Near-modularity of both inputs makes every sum distinct.  A collision
    means an input repeats a residue class, which breaks that precondition,
    so it raises PreconditionError rather than being silently deduplicated.
    More than ``ELEMENT_LIMIT`` sums raise ResourceLimitError before any is
    built.  The inputs are valid sets, so sorted strictly increasing sums from 0,
    with the largest checked, are a valid set and skip re-validation.
    """
    n = a.modulus
    new_modulus = check_int(n * b.modulus, "product modulus")
    check_int(a.max_element + n * b.max_element, "product element")
    count = len(a.elements) * len(b.elements)
    if count > ELEMENT_LIMIT:
        raise ResourceLimitError(
            f"product of {count} elements exceeds the {ELEMENT_LIMIT}-element budget"
        )
    sums = sorted([x + n * y for x in a.elements for y in b.elements])
    if not all(map(operator.lt, sums, sums[1:])):
        raise PreconditionError("product sums collided; an input set repeats a residue class")
    return _trusted(new_modulus, tuple(sums))


def scale(a: ResidueSet, c: int) -> ResidueSet:
    """Multiply every element by c; requires gcd(c, N) = 1."""
    check_int(c, "scale factor")
    if c < 1:
        raise PreconditionError("scale factor must be positive")
    if math.gcd(c, a.modulus) != 1:
        raise PreconditionError(f"gcd({c}, {a.modulus}) != 1")
    check_int(a.max_element * c, "scaled element")
    return ResidueSet(a.modulus, tuple(c * e for e in a.elements))


def shift_max(a: ResidueSet, multiples: int = 1) -> ResidueSet:
    """Raise the largest element by ``multiples`` times the modulus.

    Residues are unchanged, so every verification verdict is preserved;
    only the maximum (and with it the character) moves.  The raised maximum
    stays the largest element, so the valid input gives a valid set unchecked.
    """
    check_int(multiples, "multiples")
    if multiples < 1:
        raise PreconditionError("multiples must be positive")
    if a.max_element == 0:
        raise PreconditionError("cannot shift a set whose only element is 0")
    new_max = check_int(a.max_element + multiples * a.modulus, "shifted element")
    return _trusted(a.modulus, a.elements[:-1] + (new_max,))


#: The two-element doubling block used to convert near-modular to modular.
DOUBLING_BLOCK = ResidueSet(3, (0, 1))


def power(a: ResidueSet, block: ResidueSet, n: int) -> ResidueSet:
    """``a`` times n copies of ``block``, by repeated squaring.

    ``product`` is associative (both groupings of A x B x C hold every
    x + N*y + N*M*z), so this equals n successive products.  Each set built
    on the way is no larger than the answer, and ``product`` checks its
    budget before it builds any sums, so an answer over budget is refused
    by the product that would build it, before any larger set exists.
    """
    check_int(n, "power exponent")
    while n:
        if n & 1:
            a = product(a, block)
        n >>= 1
        if n:
            block = product(block, block)
    return a


def doubling_reduction(a: ResidueSet) -> tuple[int, int]:
    """``(steps, modulus)`` of ``to_modular(a)``, by arithmetic alone: each step
    adds the modulus to the maximum and triples the modulus."""
    top, modulus, steps = a.max_element, a.modulus, 0
    while top >= modulus:
        top, modulus, steps = top + modulus, 3 * modulus, steps + 1
    return steps, modulus


def to_modular(a: ResidueSet) -> tuple[ResidueSet, int]:
    """The fully modular form of ``a`` and its number of doubling steps.

    ``doubling_reduction`` counts the least number of products with {0,1}
    mod 3 that bring the maximum below the modulus, before any set is built;
    ``power`` then builds them, equal by associativity to successive ones.
    So a form over the element budget is refused after O(log steps) small
    products, where successive ones would first build every step that fits.
    """
    steps, _ = doubling_reduction(a)
    return power(a, DOUBLING_BLOCK, steps), steps


def character_of(a: ResidueSet) -> int:
    """2*max + 1 - modulus; the character its greedy extension settles on."""
    value = 2 * a.max_element + 1 - a.modulus
    if value < 0:
        raise NegativeCharacterError(
            f"2*{a.max_element} + 1 < {a.modulus}; no nonnegative character"
        )
    return value


# --- set file format -------------------------------------------------------
#
# One set per line:  N=<modulus>; <e1>,<e2>,...,<ek>
# Elements are ascending ASCII decimals; '#' starts a comment line.

def format_set(a: ResidueSet) -> str:
    return f"N={a.modulus}; " + ",".join(str(e) for e in a.elements)


def parse_set(line: str) -> ResidueSet:
    """Parse one canonical set line (whitespace-tolerant, format-strict)."""
    body = line.strip()
    head, sep, tail = body.partition(";")
    name, eq, number = head.partition("=")
    if not sep or not eq or name.strip() != "N":
        raise FormatError(f"expected 'N=<modulus>; <elements>', got {body!r}")
    what = f"number in {body!r}"
    modulus = read_int(number, what)
    if not tail.strip():
        raise FormatError(f"no elements in {body!r}")
    elements = tuple(read_int(item, what) for item in tail.split(","))
    return ResidueSet(modulus, elements)


def read_sets(lines: Iterable[str]) -> list[ResidueSet]:
    """Parse every non-comment, non-blank line."""
    out = []
    for line in lines:
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        out.append(parse_set(body))
    return out


def load_set_file(source: str | os.PathLike) -> list[ResidueSet]:
    """Sets from the ASCII file at path ``source``; an unreadable file, or a
    source that is not a path (a file descriptor, a stream), is malformed input."""
    if not isinstance(source, (str, os.PathLike)):
        raise MalformedInputError(f"set file {source!r} is not a path")
    try:
        with open(source, "r", encoding="ascii") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{source}: non-ASCII byte at offset {exc.start}") from None
    except OSError as exc:
        raise MalformedInputError(f"cannot read {source}: {exc.strerror or exc}") from None
    return read_sets(text.splitlines())
