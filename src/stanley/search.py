"""Exhaustive search for near-modular sets, and the process-pool helper.

The searcher enumerates candidate sets {0, t} plus middle elements from
[1, t-1] in colexicographic order.  It places 0, then t, then the middles in
descending order, so 0 is the only placed element below a new value.  Each
node keeps two residue masks mod N, ``blocked`` (where a new element would
close a progression, as an endpoint 2y - x or as a midpoint r with
2r = x + z) and ``cov`` (the residues 2y - x covered so far), beside summary
masks of the placed elements q: -q, 2q for q != 0, and q halved.  Placing a
value rotates the summaries, a fixed number of big-int operations however
many elements are placed.  New elements come from unblocked residues only.
Violations are monotone under supersets, so pruning never skips a witness;
tests compare the pruned scan against a full enumeration on tiny instances.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator

from .core import check_bits, check_int
from .errors import InvariantViolationError, MalformedInputError
from .modset import ResidueSet, verify

DEFAULT_NODE_BUDGET = 1_000_000_000


@dataclass(frozen=True)
class SearchSpec:
    """Parameters of one search space.

    The space is every ``cardinality``-element set holding 0 and
    ``max_element``, whose other members (the middles) lie strictly between
    them.  ``budget`` bounds the number of candidate placements examined.
    Every search mask is ``modulus`` bits wide, so a modulus above
    ``BIT_LIMIT`` raises ResourceLimitError.
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
        check_bits(self.modulus, "modulus")
        if self.cardinality < 2:
            raise MalformedInputError("cardinality must be at least 2")
        if self.max_element < self.cardinality - 1:
            raise MalformedInputError("max_element too small for the cardinality")
        if self.budget < 1:
            raise MalformedInputError("budget must be positive")

    @property
    def first_partition(self) -> int:
        """The least largest middle element, where a scan without ``resume`` starts."""
        return self.cardinality - 2


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a scan: first witness in search order, or a verdict."""

    status: str  # "found" | "exhausted" | "budget_exceeded"
    witness: ResidueSet | None
    nodes: int
    resume_token: int | None


def check_threads(threads: int) -> None:
    """Reject a worker-process count that is not an integer, is below 1 or
    exceeds the host's CPU count."""
    if check_int(threads, "threads") < 1:
        raise MalformedInputError("threads must be positive")
    limit = os.cpu_count() or 1
    if threads > limit:
        raise MalformedInputError(f"threads {threads} exceeds the {limit} CPUs of this host")


def ordered_map(fn: Callable, *iterables: Iterable, threads: int) -> Iterator:
    """``map(fn, *iterables)`` across ``threads`` worker processes, in input order.

    With one thread this is the lazy built-in ``map``, which reads each input
    only when its result is asked for.  A pool reads every input at once and
    hands out chunks of four tasks; closing the iterator early cancels the
    queued chunks and waits for the running ones.  ``fn`` must be picklable.
    """
    if threads == 1:
        yield from map(fn, *iterables)
        return
    pool = ProcessPoolExecutor(max_workers=threads)
    try:
        yield from pool.map(fn, *iterables, chunksize=4)
    finally:
        pool.shutdown(cancel_futures=True)


class _BudgetHit(Exception):
    pass


def _add(n: int, value: int, masks: tuple[int, ...]) -> tuple[int, ...]:
    """The search masks mod ``n`` after placing ``value``.

    ``masks`` is ``(blocked, cov, neg, dbl, even, odd)``, all zero before 0 is
    placed.  ``blocked`` and ``cov`` are the module's two residue masks; the
    rest summarise the placed elements q.  ``neg`` holds -q and ``dbl`` holds
    2q for q != 0.  The halving masks hold q * 2^-1 for odd n (``even`` and
    ``odd`` alike) and, for even n, q // 2 mod n/2 in both halves of the mask
    of q's parity.  0 is placed first and every later value below all placed
    elements but 0, so the pairs of ``value`` with them are these masks
    rotated.
    """
    blocked, cov, neg, dbl, even, odd = masks
    full = (1 << n) - 1
    if n % 2:
        shift = entry = value * (n + 1) // 2 % n
        half = even = odd = even | 1 << entry
    else:
        entry, shift = value // 2 % (n // 2), (value + 1) // 2 % n
        if value % 2:
            half = odd = odd | 1 << entry | 1 << entry + n // 2
        else:
            half = even = even | 1 << entry | 1 << entry + n // 2
    minus, twice = -value % n, 2 * value % n
    up = (dbl << minus | dbl >> n - minus) & full  # 2q - value for q != 0
    # 2 value - q, then the r with 2r = q + value (half holds value, so r = value too)
    rotated = neg << twice | neg >> n - twice | half << shift | half >> n - shift
    blocked |= up | 1 << minus | rotated & full  # minus: 2q - value for q = 0
    cov |= up | 1 << twice | 1 << value % n  # twice: 2 value - 0
    if value:
        dbl |= 1 << twice
    return blocked, cov, neg | 1 << minus, dbl, even, odd


def _scan_partition(
    n: int,
    cardinality: int,
    fixed: tuple[int, ...],
    masks: tuple[int, ...],
    outer_value: int,
    budget: int,
) -> tuple[tuple[int, ...] | None, int]:
    """Scan every candidate whose largest middle element is ``outer_value``.

    ``masks`` are ``_add``'s masks of the ``fixed`` elements 0 and t.  Middles
    are placed in descending order, so 0 is the only placed element below a
    new value and each placement is a fixed number of mask rotations.  The
    values a slot may take are the unblocked residues, repeated over the
    slot's value range by one multiply with a repunit (one bit every ``n``
    places).  Returns (witness elements or None, nodes examined); the count
    is ``budget + 1`` when the budget ran out.
    """
    total_pairs = cardinality * (cardinality + 1) // 2
    full = (1 << n) - 1
    repunit = ((1 << n * (outer_value // n + 1)) - 1) // full
    chosen = list(fixed)
    nodes = 0

    def rec(slot: int, lo: int, hi: int, masks: tuple[int, ...]) -> tuple[int, ...] | None:
        nonlocal nodes
        # Prune a node whose cov cannot reach n even if every pair still to come is new.
        depth = cardinality - slot + 1
        need = n - total_pairs + depth * (depth + 1) // 2
        window = ((~masks[0] & full) * repunit & (2 << hi) - 1) >> lo << lo
        while window:
            bit = window & -window
            window ^= bit
            value = bit.bit_length() - 1
            nodes += 1
            if nodes > budget:
                raise _BudgetHit
            placed = _add(n, value, masks)
            if placed[1].bit_count() >= need:
                chosen.append(value)
                got = tuple(sorted(chosen)) if slot == 1 else rec(slot - 1, slot - 1, value - 1, placed)
                if got is not None:
                    return got
                chosen.pop()
        return None

    try:
        return rec(cardinality - len(fixed), outer_value, outer_value, masks), nodes
    except _BudgetHit:
        return None, nodes


def _finish(elements: tuple[int, ...], spec: SearchSpec, nodes: int, token: int | None) -> SearchResult:
    witness = ResidueSet.of(spec.modulus, elements)
    if not verify(witness).is_near_modular:
        raise InvariantViolationError(f"search produced a non-witness {witness}")
    return SearchResult("found", witness, nodes, token)


def search_near_modular(
    spec: SearchSpec,
    *,
    threads: int = 1,
    resume: int | None = None,
) -> SearchResult:
    """First near-modular witness in colex order over the middle elements.

    The space splits into partitions by the largest middle element;
    partitions are scanned in ascending order (possibly in parallel), and
    "first" always means search order, not wall clock.  ``threads`` may not
    exceed ``os.cpu_count()``; it changes only the speed, never the result.
    ``resume`` is the token of an earlier budget stop, a partition below
    ``max_element``; one at or above it raises MalformedInputError.
    """
    check_threads(threads)
    n, t, s = spec.modulus, spec.max_element, spec.cardinality
    if resume is not None and check_int(resume, "resume") >= t:
        raise MalformedInputError(f"resume {resume} is not below max_element {t}")
    fixed = (0, t)

    masks = (0,) * 6
    for e in fixed:
        if masks[0] >> (e % n) & 1:
            return SearchResult("exhausted", None, 0, None)
        masks = _add(n, e, masks)

    if s == len(fixed):
        if masks[1].bit_count() == n:
            return _finish(fixed, spec, 0, None)
        return SearchResult("exhausted", None, 0, None)

    partitions = range(max(spec.first_partition, resume or 0), t)

    # Each partition may spend what the earlier ones left.  A lazy map reads
    # these after the previous result; a pool reads them all at the start, and
    # a result past the shared budget is cut to what a sequential scan returns.
    nodes_total = 0
    budgets = (spec.budget - nodes_total for _ in partitions)
    scan = partial(_scan_partition, n, s, fixed, masks)
    with closing(ordered_map(scan, partitions, budgets, threads=threads)) as results:
        for outer, (witness, used) in zip(partitions, results):
            if nodes_total + used > spec.budget:
                return SearchResult("budget_exceeded", None, spec.budget + 1, outer)
            nodes_total += used
            if witness is not None:
                return _finish(witness, spec, nodes_total, outer)
    return SearchResult("exhausted", None, nodes_total, None)
