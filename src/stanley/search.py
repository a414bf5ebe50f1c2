"""Exhaustive search for near-modular sets, and the process-pool helper.

The searcher enumerates candidate sets {0, t} plus middle elements from
[1, t-1] in colexicographic order.  Each node keeps two residue masks mod N:
``blocked`` (where a new element would close a progression, as an endpoint
2y - x or as a midpoint r with 2r = x + z) and ``cov`` (the residues 2y - x
covered so far).  New elements come from unblocked residues only.  Violations
are monotone under supersets, so pruning never skips a witness; tests compare
the pruned scan against a full enumeration on tiny instances.
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


def _halves(p: int, n: int) -> int:
    """Bitmask of the residues r with 2r = p (mod n)."""
    if n % 2:
        return 1 << (p * ((n + 1) // 2) % n)
    if p % 2:
        return 0
    r = p // 2 % (n // 2)
    return (1 << r) | (1 << (r + n // 2))


def _place(n: int, placed: Iterable[int], value: int, blocked: int, cov: int) -> tuple[int, int]:
    """The ``blocked`` and ``cov`` masks mod ``n`` after adding ``value`` to ``placed``.

    A residue is blocked when a new element there would close a progression:
    as an endpoint (2y - x for placed x, y) or as the midpoint of two placed
    elements (its double is x + z).
    """
    for q in placed:
        blocked |= (1 << ((2 * value - q) % n)) | (1 << ((2 * q - value) % n))
        blocked |= _halves(q + value, n)
        hi, lo = (q, value) if q > value else (value, q)
        cov |= 1 << ((2 * hi - lo) % n)
    blocked |= _halves(2 * value, n)  # value itself is one of these
    cov |= 1 << (value % n)
    return blocked, cov


def _value_window(pattern: int, modulus: int, lo: int, hi: int) -> int:
    """Replicate a residue bitmask over the value range [lo, hi]."""
    out = 0
    for shift in range(0, hi + 1, modulus):
        out |= pattern << shift
    out &= (1 << (hi + 1)) - 1
    return out >> lo << lo


def _scan_partition(
    n: int,
    cardinality: int,
    fixed: tuple[int, ...],
    masks: tuple[int, int],
    outer_value: int,
    budget: int,
) -> tuple[tuple[int, ...] | None, int]:
    """Scan every candidate whose largest middle element is ``outer_value``.

    Returns (witness elements or None, nodes examined); the count is
    ``budget + 1`` when the budget ran out.
    """
    total_pairs = cardinality * (cardinality + 1) // 2
    middle = cardinality - len(fixed)
    full = (1 << n) - 1
    chosen = list(fixed)
    nodes = 0

    def rec(slot: int, lo: int, hi: int, blocked: int, cov: int) -> tuple[int, ...] | None:
        nonlocal nodes
        window = _value_window(~blocked & full, n, lo, hi)
        while window:
            bit = window & -window
            window ^= bit
            value = bit.bit_length() - 1
            nodes += 1
            if nodes > budget:
                raise _BudgetHit
            nblocked, ncov = _place(n, chosen, value, blocked, cov)
            chosen.append(value)
            depth = len(chosen)
            # Remaining placements can add at most the missing pair count.
            if ncov.bit_count() + total_pairs - depth * (depth + 1) // 2 >= n:
                if slot == 1:
                    if ncov.bit_count() == n:
                        return tuple(sorted(chosen))
                else:
                    got = rec(slot - 1, slot - 1, value - 1, nblocked, ncov)
                    if got is not None:
                        return got
            chosen.pop()
        return None

    try:
        return rec(middle, outer_value, outer_value, *masks), nodes
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

    blocked = cov = 0
    for i, e in enumerate(fixed):
        if blocked >> (e % n) & 1:
            return SearchResult("exhausted", None, 0, None)
        blocked, cov = _place(n, fixed[:i], e, blocked, cov)

    middle = s - len(fixed)
    if middle == 0:
        if cov.bit_count() == n:
            return _finish(fixed, spec, 0, None)
        return SearchResult("exhausted", None, 0, None)

    partitions = range(max(middle, resume or 0), t)

    # Each partition may spend what the earlier ones left.  A lazy map reads
    # these after the previous result; a pool reads them all at the start, and
    # a result past the shared budget is cut to what a sequential scan returns.
    nodes_total = 0
    budgets = (spec.budget - nodes_total for _ in partitions)
    scan = partial(_scan_partition, n, s, fixed, (blocked, cov))
    with closing(ordered_map(scan, partitions, budgets, threads=threads)) as results:
        for outer, (witness, used) in zip(partitions, results):
            if nodes_total + used > spec.budget:
                return SearchResult("budget_exceeded", None, spec.budget + 1, outer)
            nodes_total += used
            if witness is not None:
                return _finish(witness, spec, nodes_total, outer)
    return SearchResult("exhausted", None, nodes_total, None)
