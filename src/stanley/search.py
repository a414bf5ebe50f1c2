"""Exhaustive search for near-modular sets, plus naive cross-check oracles.

The searcher enumerates candidate sets {0, t} plus middle elements from
[1, t-1] in colexicographic order and prunes any partial set that already
contains a violating triple modulo N.  Violations are monotone under
supersets, so pruning never skips a witness; tests compare the pruned
scan against a full enumeration on tiny instances.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .core import CharacterProfile
from .errors import InvariantViolationError, MalformedInputError, PreconditionError
from .modset import ResidueSet, verify

DEFAULT_NODE_BUDGET = 1_000_000_000


@dataclass(frozen=True)
class SearchSpec:
    """Parameters of one search space.

    The space is every ``cardinality``-element set containing
    ``max_element`` (and 0 unless ``require_zero`` is off) whose remaining
    members come from the open interval below the maximum.  ``budget``
    bounds the number of candidate placements examined.
    """

    modulus: int
    max_element: int
    cardinality: int
    require_zero: bool = True
    budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise MalformedInputError("modulus must be at least 1")
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
    """Reject a worker-process count below 1 or above the host's CPU count."""
    if threads < 1:
        raise MalformedInputError("threads must be positive")
    limit = os.cpu_count() or 1
    if threads > limit:
        raise MalformedInputError(f"threads {threads} exceeds the {limit} CPUs of this host")


class _BudgetHit(Exception):
    pass


def _admissible_residues(modulus: int, dbl: int, pair: int) -> int:
    """Bitmask of residues a new element may occupy given the masks.

    ``dbl`` holds residues of 2y - x over ordered pairs already placed (a
    new element equal to one of them closes a triple as endpoint); ``pair``
    holds residues of x + z (a new element whose double lands there closes
    a triple as midpoint).
    """
    mask = 0
    for r in range(modulus):
        if not (dbl >> r) & 1 and not (pair >> ((2 * r) % modulus)) & 1:
            mask |= 1 << r
    return mask


def _value_window(pattern: int, modulus: int, lo: int, hi: int) -> int:
    """Replicate a residue bitmask over the value range [lo, hi]."""
    out = 0
    shift = 0
    while shift <= hi:
        out |= pattern << shift
        shift += modulus
    out &= (1 << (hi + 1)) - 1
    return out >> lo << lo


def _scan_partition(
    modulus: int,
    max_element: int,
    cardinality: int,
    fixed: tuple[int, ...],
    masks: tuple[int, int, int],
    lo_base: int,
    outer_value: int,
    budget: int,
) -> tuple[tuple[int, ...] | None, int, bool]:
    """Scan every candidate whose largest middle element is ``outer_value``.

    Returns (witness elements or None, nodes examined, budget hit flag).
    """
    n = modulus
    total_pairs = cardinality * (cardinality + 1) // 2
    middle = cardinality - len(fixed)
    chosen = list(fixed)
    nodes = 0

    def place(value: int, dbl: int, pair: int, cov: int) -> tuple[int, int, int]:
        for q in chosen:
            dbl |= 1 << ((2 * value - q) % n)
            dbl |= 1 << ((2 * q - value) % n)
            pair |= 1 << ((q + value) % n)
            hi, lo = (q, value) if q > value else (value, q)
            cov |= 1 << ((2 * hi - lo) % n)
        dbl |= 1 << (value % n)
        pair |= 1 << ((2 * value) % n)
        cov |= 1 << (value % n)
        return dbl, pair, cov

    def rec(slot: int, lo: int, hi: int, dbl: int, pair: int, cov: int) -> tuple[int, ...] | None:
        nonlocal nodes
        window = _value_window(_admissible_residues(n, dbl, pair), n, lo, hi)
        while window:
            bit = window & -window
            window ^= bit
            value = bit.bit_length() - 1
            nodes += 1
            if nodes > budget:
                raise _BudgetHit
            ndbl, npair, ncov = place(value, dbl, pair, cov)
            chosen.append(value)
            depth = len(chosen)
            # Remaining placements can add at most the missing pair count.
            if ncov.bit_count() + total_pairs - depth * (depth + 1) // 2 >= n:
                if slot == 1:
                    # a witness must contain 0; with require_zero off it can
                    # only arrive as a middle element
                    if ncov.bit_count() == n and 0 in chosen:
                        found = tuple(sorted(chosen))
                        chosen.pop()
                        return found
                else:
                    got = rec(slot - 1, lo_base + slot - 2, value - 1, ndbl, npair, ncov)
                    if got is not None:
                        chosen.pop()
                        return got
            chosen.pop()
        return None

    try:
        witness = rec(middle, outer_value, outer_value, *masks)
    except _BudgetHit:
        return None, nodes, True
    return witness, nodes, False


def _seed_masks(modulus: int, fixed: tuple[int, ...]) -> tuple[int, int, int] | None:
    """Masks after placing the fixed elements; None when they already clash."""
    dbl = pair = cov = 0
    placed: list[int] = []
    for e in fixed:
        if (dbl >> (e % modulus)) & 1 or (pair >> ((2 * e) % modulus)) & 1:
            return None
        for q in placed:
            dbl |= 1 << ((2 * e - q) % modulus)
            dbl |= 1 << ((2 * q - e) % modulus)
            pair |= 1 << ((q + e) % modulus)
            hi, lo = (q, e) if q > e else (e, q)
            cov |= 1 << ((2 * hi - lo) % modulus)
        dbl |= 1 << (e % modulus)
        pair |= 1 << ((2 * e) % modulus)
        cov |= 1 << (e % modulus)
        placed.append(e)
    return dbl, pair, cov


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
    "first" always means search order, not wall clock.  With ``threads``
    above 1 the node budget is enforced per partition, so the combined
    count can overshoot.  ``threads`` may not exceed ``os.cpu_count()``.
    """
    check_threads(threads)
    n, t, s = spec.modulus, spec.max_element, spec.cardinality
    fixed = (0, t) if spec.require_zero else (t,)
    lo_base = 1 if spec.require_zero else 0

    masks = _seed_masks(n, fixed)
    if masks is None:
        return SearchResult("exhausted", None, 0, None)

    middle = s - len(fixed)
    if middle == 0:
        if masks[2].bit_count() == n:
            return _finish(fixed, spec, 0, None)
        return SearchResult("exhausted", None, 0, None)

    first_partition = lo_base + middle - 1
    if resume is not None:
        first_partition = max(first_partition, resume)
    partitions = range(first_partition, t)

    nodes_total = 0
    if threads == 1:
        for outer in partitions:
            witness, used, hit = _scan_partition(
                n, t, s, fixed, masks, lo_base, outer, spec.budget - nodes_total
            )
            nodes_total += used
            if witness is not None:
                return _finish(witness, spec, nodes_total, outer)
            if hit:
                return SearchResult("budget_exceeded", None, nodes_total, outer)
        return SearchResult("exhausted", None, nodes_total, None)

    with ProcessPoolExecutor(max_workers=threads) as pool:
        futures = [
            pool.submit(_scan_partition, n, t, s, fixed, masks, lo_base, outer, spec.budget)
            for outer in partitions
        ]
        try:
            for outer, future in zip(partitions, futures):
                witness, used, hit = future.result()
                nodes_total += used
                if witness is not None:
                    return _finish(witness, spec, nodes_total, outer)
                if hit:
                    return SearchResult("budget_exceeded", None, nodes_total, outer)
        finally:
            for future in futures:
                future.cancel()
    return SearchResult("exhausted", None, nodes_total, None)


# --- naive oracles ---------------------------------------------------------


def _naive_recheck(terms: list[int]) -> bool:
    """Whole-list 3-freeness test, written independently of core."""
    members = set(terms)
    for j in range(1, len(terms)):
        for i in range(j):
            if 2 * terms[j] - terms[i] in members:
                return False
    return True


def naive_greedy(seed: list[int], length: int) -> list[int]:
    """Greedy extension by full recheck of every candidate; O(n^3) total."""
    terms = list(seed)
    while len(terms) < length:
        candidate = terms[-1] + 1
        while not _naive_recheck(terms + [candidate]):
            candidate += 1
        terms.append(candidate)
    return terms


def brute_character(seed: list[int], levels: int) -> CharacterProfile | None:
    """Character detection by the naive path; cross-validates the fast one.

    Extends the seed far enough to expose ``levels`` doubling levels past
    the seed's scale and scans the two identities directly.
    """
    if not 1 <= levels <= 6:
        raise PreconditionError("levels must be between 1 and 6")
    if sorted(set(seed)) != list(seed) or (seed and seed[0] < 0):
        raise PreconditionError("seed must be strictly increasing and nonnegative")
    if not seed:
        raise PreconditionError("seed is empty")
    if not _naive_recheck(list(seed)):
        raise PreconditionError("seed contains a 3-term arithmetic progression")

    base_level = (len(seed) - 1).bit_length()  # least k with 2^k >= len(seed)
    terms = naive_greedy(list(seed), 1 << (base_level + levels))

    top = len(terms).bit_length() - 2
    for settle in range(top + 1):
        block = 1 << settle
        value = 2 * terms[block - 1] - terms[block] + 1
        if value < 0:
            continue
        consistent = True
        for k in range(settle, top + 1):
            block_k = 1 << k
            if 2 * terms[block_k - 1] - terms[block_k] + 1 != value:
                consistent = False
                break
            for i in range(block_k):
                if terms[block_k + i] != terms[block_k] + terms[i]:
                    consistent = False
                    break
            if not consistent:
                break
        if consistent:
            return CharacterProfile(value, settle, terms[1 << settle], top)
    return None
