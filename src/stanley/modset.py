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
import os
from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import (check_bits, check_int, check_terms, doubled_terms, doubling_reduction,
                   read_int, set_bits, sumset)
from .errors import (FormatError, InvariantViolationError, MalformedInputError,
                     NegativeCharacterError, PreconditionError)


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
        try:
            ordered = tuple(sorted(elements))
        except TypeError:
            raise MalformedInputError(f"element list {elements!r} cannot be sorted") from None
        return cls(modulus, ordered)

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


def _first_violation(elements: tuple[int, ...], n: int) -> tuple[int, int, int]:
    """The first violating triple of a set that is not 3-free mod n: a repeated
    residue, else a repeated doubled residue, else the least middle y with its
    least x != y."""
    by_residue: dict[int, int] = {}
    for e in elements:
        other = by_residue.setdefault(e % n, e)
        if other != e:
            return (other, other, e)  # x = y, z in the same class
    by_doubled: dict[int, int] = {}
    for e in elements:
        other = by_doubled.setdefault(2 * e % n, e)
        if other != e:
            return (other, e, other)  # x = z, middle y
    for y in elements:
        for x in elements:
            z = by_residue.get((2 * y - x) % n)
            if z is not None and x != y:
                return (x, y, z)
    raise InvariantViolationError(f"no progression in a set the masks rejected mod {n}")


def verify(a: ResidueSet) -> VerificationReport:
    """Full near-modular / modular verdict with a first violating triple.

    A violation is any ordered triple (x, y, z) of elements, not all three
    identical, with x + z == 2y (mod N).  The masks decide, in O(|A|) big-int
    operations of at most 2N bits.  Bit (-x) % N of a mask, shifted left by
    2y % N, lands on a bit whose residue is (2y - x) % N.  Walking y upward,
    ``cover`` collects those bits for x <= y, and ``hits`` counts how many
    shifted bits of every element land on the residue mask repeated over 2N
    bits.  y always hits itself, so A is 3-free exactly when its residues are
    distinct (a popcount of |A|) and the hits number |A|.  A doubled residue
    shared by y != y' needs no test of its own: x = y' lands on 2y - y' = y'
    (mod N), a second hit for y.  Only a set that is not 3-free walks its
    elements once more, in ``_first_violation``, to name the triple.  A modulus
    above ``BIT_LIMIT`` raises ResourceLimitError before any mask is built.
    """
    n = check_bits(a.modulus, "modulus")
    elements = a.elements

    residues = neg_all = 0
    for e in elements:
        r = e % n
        residues |= 1 << r
        neg_all |= 1 << (-r % n)

    residues_2n = residues | residues << n
    neg = cover = hits = 0
    for y in elements:
        s = 2 * y % n
        neg |= 1 << (-y % n)
        cover |= neg << s
        hits += ((neg_all << s) & residues_2n).bit_count()

    free = ~(cover | cover >> n) & ((1 << n) - 1)
    three_free = residues.bit_count() == len(elements) == hits
    near = three_free and not free
    return VerificationReport(
        is_three_free_mod=three_free,
        uncovered_residues=set_bits(free, UNCOVERED_SHOWN) if free else (),
        uncovered_count=free.bit_count(),
        is_near_modular=near,
        is_modular=near and a.max_element < n,
        witness_violation=None if three_free else _first_violation(elements, n),
    )


def product(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """Combine as {x + N*y : x in A, y in B} with modulus N*M.

    Near-modularity of both inputs makes every sum distinct.  A collision
    means an input repeats a residue class, which breaks that precondition,
    so it raises PreconditionError rather than being silently deduplicated.
    More than ``ELEMENT_LIMIT`` sums raise ResourceLimitError before any is
    built.
    """
    n = a.modulus
    new_modulus = check_int(n * b.modulus, "product modulus")
    check_int(a.max_element + n * b.max_element, "product element")
    return _trusted(new_modulus, sumset(a.elements, [n * y for y in b.elements]))


def scale(a: ResidueSet, c: int) -> ResidueSet:
    """Multiply every element by c; requires gcd(c, N) = 1.  Only the new top is checked."""
    check_int(c, "scale factor")
    if c < 1:
        raise PreconditionError("scale factor must be positive")
    if math.gcd(c, a.modulus) != 1:
        raise PreconditionError(f"gcd({c}, {a.modulus}) != 1")
    check_int(a.max_element * c, "scaled element")
    return _trusted(a.modulus, tuple(c * e for e in a.elements))


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


def to_modular(a: ResidueSet) -> tuple[ResidueSet, int]:
    """The fully modular form of ``a`` and its number of doubling steps s.

    ``doubling_reduction`` counts the products with {0,1} mod 3 that bring the
    maximum below the modulus N; they give a + M*B_s for a's modulus M, built by
    ``doubled_terms`` once N is checked (the top of the form lies below N).
    """
    steps, modulus = doubling_reduction(a.max_element, a.modulus)
    check_int(modulus, "product modulus")
    return _trusted(modulus, doubled_terms(a.elements, a.modulus)), steps


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
    if not isinstance(line, str):
        raise MalformedInputError(f"set line {line!r} is not a string")
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
    """Parse every non-comment, non-blank line; a line that is not a string is malformed."""
    try:
        items = iter(lines)
    except TypeError:
        raise MalformedInputError(f"set lines {lines!r} are not iterable") from None
    out = []
    for line in items:
        if isinstance(line, str) and line.strip()[:1] in ("", "#"):
            continue
        out.append(parse_set(line))
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
