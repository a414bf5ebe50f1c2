"""Exhaustive search for near-modular sets.

The searcher enumerates candidate sets {0, t} plus middle elements from
[1, t-1] in colexicographic order.  It places 0, then t, then the middles in
descending order, each in one step on a few residue masks mod N: a fixed
number of big-int shifts however many elements are placed (README,
"Search").  New elements come from unblocked residues only.  Violations are
monotone under supersets, so pruning never skips a witness; tests compare
the pruned scan against a full enumeration on tiny instances and its node
counts against a plain depth-first walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .core import check_bits, check_int
from .errors import InvariantViolationError, MalformedInputError
from .modset import ResidueSet, verify

DEFAULT_NODE_BUDGET = 1_000_000_000


@dataclass(frozen=True)
class SearchSpec:
    """Parameters of one search space.

    The space is every ``cardinality``-element set holding 0 and
    ``max_element``, whose other members (the middles) lie strictly between
    them.  ``budget`` bounds the number of candidate values examined.
    The search's masks are ``modulus`` bits wide (up to 4 * ``modulus``) and
    each of its ``cardinality`` frames holds some, so ``modulus * cardinality``
    above ``BIT_LIMIT`` raises ResourceLimitError before any is built.
    """

    modulus: int
    max_element: int
    cardinality: int
    budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self) -> None:
        for what in ("modulus", "max_element", "cardinality", "budget"):
            check_int(getattr(self, what), what)
        if self.modulus < 1:
            raise MalformedInputError("modulus must be at least 1")
        if self.cardinality < 2:
            raise MalformedInputError("cardinality must be at least 2")
        check_bits(self.modulus * self.cardinality, "search masks")
        if self.max_element < self.cardinality - 1:
            raise MalformedInputError("max_element too small for the cardinality")
        if self.budget < 1:
            raise MalformedInputError("budget must be positive")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a scan: first witness in search order, or a verdict."""

    status: str  # "found" | "exhausted" | "budget_exceeded"
    witness: ResidueSet | None
    nodes: int


def _row(n: int, value: int) -> tuple[int, int, int, int, int, int]:
    """Shift counts that place ``value`` mod ``n``; they depend on value mod 2n only.

    value, -value and 2 value mod n; n - (2 value mod n), the right shift that
    turns a doubled mask by 2 value; value's entry in the halving mask and the
    right shift that turns that mask by value's half.  For even n the halving
    mask of odd values sits 2n bits up, and both carry that offset.
    """
    minus, twice = -value % n, 2 * value % n
    if n % 2:
        entry = shift = value * (n + 1) // 2 % n  # value * 2^-1
        offset = 0
    else:
        entry, shift = value // 2 % (n // 2), (value + 1) // 2 % n
        offset = 2 * n * (value % 2)
    return value % n, minus, twice, n - twice, entry + offset, n - shift + offset


def _partitions(free: int, n: int, first: int, top: int) -> Iterator[int]:
    """The largest middle elements from ``first`` below ``top`` whose residue is free."""
    for outer in range(first, top):
        if free >> outer % n & 1:
            yield outer


def _searcher(n: int, top: int, need: list[int], budget: int) -> tuple[Callable, Callable]:
    """The node visitor of one search and a reader of its progress (README, "Search").

    ``visit(value, depth, blocked, cov, neg, dbl, halves)`` places ``value`` as
    element ``depth`` (0, then ``top``, then the middles, descending) on the
    masks of the elements before it, all 0 before 0.  It returns None when
    ``cov`` falls short of ``need[depth]`` or nothing below completes a
    witness.  At the last depth, ``len(need) - 1``, it returns the masks after
    the value; before it, it visits the values the next element may take and
    returns the first witness's last masks.  Each middle visited is a node,
    and so is a middle proved a dead end before it is placed, which is counted
    without a visit; node ``budget + 1`` and every frame above it return None.
    ``progress()`` reads the elements placed and the node count.
    """
    n2 = 2 * n
    full = (1 << n) - 1
    rep = 1 | 1 << n  # a residue bit, doubled
    hrep = rep if n % 2 else rep | rep << n // 2  # a halving entry, doubled
    last = len(need) - 1
    rows: dict[int, tuple[int, ...]] = {}  # _row by value mod 2n, for the values reached
    chosen: list[int] = []
    nodes = 0
    repunit, reach = 1, n  # one bit every n places, below reach

    def visit(value: int, depth: int, blocked: int, cov: int, neg: int, dbl: int, halves: int):
        nonlocal nodes, repunit, reach
        if depth > 1:  # a middle: partitions at depth 2, the rest below
            nodes += 1
            if nodes > budget:
                return None
        key = value % n2
        row = rows.get(key)
        if row is None:
            row = rows[key] = _row(n, key)
        at, minus, twice, back, entry, turn = row
        up = dbl >> at & full  # 2q - value for q != 0
        cov |= up | 1 << twice | 1 << at  # twice: 2 value - 0; at: value itself
        if cov.bit_count() < need[depth]:
            return None
        halves |= hrep << entry
        # minus: 2q - value for q = 0; then 2 value - q, and the r with 2r = q + value
        blocked |= up | 1 << minus | (neg >> back | halves >> turn) & full
        neg |= rep << minus
        if value:
            dbl |= rep << twice
        chosen.append(value)
        if depth == last:
            return blocked, cov, neg, dbl, halves
        free = ~blocked & full
        depth += 1
        if depth > 2:  # the next middle: from the least that leaves room for the rest
            low = last + 1 - depth
            window = (free * repunit & (1 << value) - 1) >> low << low
            # A child's free values are a subset of free, so the middle after it is
            # a free value below it, at least low - 1.  Below the least child only
            # low - 1 is left: if that is blocked too, the least child is a dead end.
            if window and depth < last and not free >> (low - 1) % n & 1:
                window &= window - 1
                nodes += 1
                if nodes > budget:
                    return None
            while window:
                bit = window & -window
                window ^= bit
                got = visit(bit.bit_length() - 1, depth, blocked, cov, neg, dbl, halves)
                if got or nodes > budget:
                    return got
        elif depth == 2:  # a start that blocks every residue leaves no partition to walk
            for outer in _partitions(free, n, last - 1, top) if free else ():
                while reach < outer:
                    repunit |= repunit << reach
                    reach *= 2
                got = visit(outer, 2, blocked, cov, neg, dbl, halves)
                if got or nodes > budget:
                    return got
        elif free >> top % n & 1:
            got = visit(top, 1, blocked, cov, neg, dbl, halves)
            if got:
                return got
        chosen.pop()
        return None

    def progress() -> tuple[list[int], int]:
        return chosen, nodes

    return visit, progress


def search_near_modular(spec: SearchSpec) -> SearchResult:
    """First near-modular witness in colex order over the middle elements.

    The space splits into partitions by the largest middle element, scanned
    in ascending order from ``cardinality - 2``; each may spend what the
    earlier ones left of the budget.
    """
    n, t, s = spec.modulus, spec.max_element, spec.cardinality
    # Element d places (d + 1)(d + 2)/2 of the s(s + 1)/2 pairs; cov must reach n
    # even if every pair to come is new.  The fixed pair 0, t is not pruned, only
    # checked when it is the whole set.
    pairs = s * (s + 1) // 2
    need = [0, 0][: s - 1] + [n - pairs + (d + 1) * (d + 2) // 2 for d in range(min(2, s - 1), s)]
    visit, progress = _searcher(n, t, need, spec.budget)
    found = visit(0, 0, 0, 0, 0, 0, 0)
    chosen, nodes = progress()
    if nodes > spec.budget:
        return SearchResult("budget_exceeded", None, nodes)
    if not found:
        return SearchResult("exhausted", None, nodes)
    witness = ResidueSet(n, tuple(sorted(chosen)))
    if not verify(witness).is_near_modular:
        raise InvariantViolationError(f"search produced a non-witness {witness}")
    return SearchResult("found", witness, nodes)
