"""Shared corpus fixtures and tiny brute-force oracles.

The oracles here recompute predicates with no shared code or cleverness so
the optimized paths always have something independent to disagree with.
"""

from __future__ import annotations

import pytest

import stanley as st
from stanley.core import check_int
from stanley.modset import UNCOVERED_SHOWN


def naive_check_terms(terms, what="term") -> tuple[int, ...]:
    """``core.check_terms`` as one ``check_int`` and one order test per element."""
    out = tuple(terms)
    if not out:
        raise st.MalformedInputError(f"{what} list is empty")
    last = -1
    for value in out:
        check_int(value, what)
        if value <= last:
            raise st.MalformedInputError(f"{what}s must be strictly increasing")
        last = value
    return out


def naive_is_3_free(terms) -> bool:
    terms = list(terms)
    n = len(terms)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if terms[i] + terms[k] == 2 * terms[j]:
                    return False
    return True


def naive_is_covered(z, terms) -> bool:
    return any(
        z == 2 * y - x for x in terms for y in terms if x < y
    )


def naive_greedy_table(seed, target_len) -> tuple[int, ...]:
    """Greedy extension over a growable bytearray of covered integers.

    Each accepted term marks its O(n) pairs one at a time.
    """
    terms = list(seed)
    covered = bytearray(max(2 * terms[-1] + 4, 64))

    def mark(value: int) -> None:
        nonlocal covered
        if value >= len(covered):
            covered.extend(bytes(max(len(covered), value + 1 - len(covered))))
        covered[value] = 1

    for j in range(1, len(terms)):
        doubled = 2 * terms[j]
        for i in range(j):
            mark(doubled - terms[i])

    while len(terms) < target_len:
        candidate = terms[-1] + 1
        while candidate < len(covered) and covered[candidate]:
            candidate += 1
        for x in terms:
            mark(2 * candidate - x)
        terms.append(candidate)
    return tuple(terms)


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


def brute_character(seed: list[int], levels: int) -> st.CharacterProfile | None:
    """Character detection by the naive path; cross-validates the fast one.

    Extends the seed with ``naive_greedy_table`` far enough to expose
    ``levels`` doubling levels past the seed's scale and scans the two
    identities directly.
    """
    if not 1 <= levels <= 6:
        raise st.PreconditionError("levels must be between 1 and 6")
    if sorted(set(seed)) != list(seed) or (seed and seed[0] < 0):
        raise st.PreconditionError("seed must be strictly increasing and nonnegative")
    if not seed:
        raise st.PreconditionError("seed is empty")
    if not _naive_recheck(list(seed)):
        raise st.PreconditionError("seed contains a 3-term arithmetic progression")

    base_level = (len(seed) - 1).bit_length()  # least k with 2^k >= len(seed)
    terms = naive_greedy_table(list(seed), 1 << (base_level + levels))
    return naive_detect_character(terms)


def naive_detect_character(terms) -> st.CharacterProfile | None:
    """The doubling-identity scan level by level: every level's character
    candidate and additive check, then each settle level tried from the bottom
    against every level above it."""
    top = len(terms).bit_length() - 2  # largest k with 2^(k+1) <= len(terms)
    candidates = []
    additive_ok = []
    for k in range(top + 1):
        block = 1 << k
        candidates.append(2 * terms[block - 1] - terms[block] + 1)
        additive_ok.append(all(terms[block + i] == terms[block] + terms[i] for i in range(block)))
    for settle in range(top + 1):
        value = candidates[settle]
        if value < 0:
            continue
        if all(additive_ok[k] and candidates[k] == value for k in range(settle, top + 1)):
            return st.CharacterProfile(value, settle, terms[1 << settle], top)
    return None


def naive_omitted(terms, bound) -> tuple[int, ...]:
    """Integers below ``bound`` that are neither terms nor 2y - x, pair by pair."""
    decided = bytearray(bound)
    for value in terms:
        if value >= bound:
            break
        decided[value] = 1
    for j in range(1, len(terms)):
        y = terms[j]
        if y >= bound:  # 2y - x > y, so later pairs cannot land below bound
            break
        doubled = 2 * y
        for i in range(j):
            z = doubled - terms[i]
            if z < bound:
                decided[z] = 1
    return tuple(z for z in range(bound) if not decided[z])


def predicted_prefix(seed, modulus) -> tuple[int, ...]:
    """P = A + {0, N, 3N, 4N}, the prefix ``doubled_prefix`` certifies, written out."""
    return tuple(x + k * modulus for k in (0, 1, 3, 4) for x in seed)


def naive_certificate(terms, top) -> st.OmittedSet | None:
    """``omitted_set(terms, terms[-1])`` if ``terms`` are the greedy extension of
    their terms up to ``top``, else None, from one shift-OR pass over every term.

    Bit v - terms[0] of ``fwd`` marks a term v and of ``cover`` a value 2y - x
    with x < y; the terms are greedy exactly when no term is covered and every
    value in (top, terms[-1]) is a term or covered.
    """
    base, last = terms[0], terms[-1]
    rev = fwd = cover = 0
    prev = base
    for y in terms:
        rev <<= y - prev  # bit y - x for each earlier x
        cover |= rev << (y - base)
        rev |= 1
        fwd |= 1 << (y - base)
        prev = y
    decided = fwd | cover
    gaps = (1 << (last - base)) - (1 << (top - base + 1))
    if cover & fwd or gaps & ~decided:
        return None
    elements = [z for z in range(top) if z < base or not (decided >> (z - base)) & 1]
    return st.OmittedSet(sum(1 << z for z in elements), last)


def naive_to_modular(a: st.ResidueSet) -> tuple[st.ResidueSet, int]:
    """Fold products with {0,1} mod 3 one step at a time, each written out as
    the sums x + N*y, until the maximum lies below the modulus."""
    steps = 0
    while a.max_element >= a.modulus:
        a = st.ResidueSet.of(3 * a.modulus, [x + a.modulus * y for x in a for y in (0, 1)])
        steps += 1
    return a, steps


def naive_ladder(t: int) -> st.ResidueSet:
    """A_t mod 3**t written out digit by digit, with no family or product helper.

    A units digit of 0 (odd t) or 0 or 2 (even t); (t - 1) // 2 base-9 digits
    from {0, 1, 6, 7} at place values 9**i (odd t) or 3 * 9**i (even t); a top
    digit of 0 or 1 at 3**(t-1), where the element 3**(t-1) itself becomes
    2 * 3**(t-1).
    """
    place = 1 if t % 2 else 3
    values = [0] if t % 2 else [0, 2]
    for i in range((t - 1) // 2):
        values = [v + d * place * 9**i for v in values for d in (0, 1, 6, 7)]
    top = 3 ** (t - 1)
    values = [v + d * top for v in values for d in (0, 1)]
    return st.ResidueSet(3**t, tuple(sorted(2 * top if v == top else v for v in values)))


def naive_place(n: int, placed, value) -> tuple[int, int]:
    """The search's ``blocked`` and ``cov`` masks mod ``n`` once ``value`` joins
    ``placed``, rebuilt pair by pair over the whole list.

    A residue is blocked when a new element there would close a progression:
    as an endpoint (2y - x for elements x, y) or as a midpoint r, found by
    trying every r with 2r = x + z.  ``cov`` holds 2y - x for x <= y.
    """
    elements = [*placed, value]

    def halves(p: int) -> int:
        return sum(1 << r for r in range(n) if (2 * r - p) % n == 0)

    blocked = cov = 0
    for i, y in enumerate(elements):
        for x in elements[:i]:
            blocked |= (1 << ((2 * y - x) % n)) | (1 << ((2 * x - y) % n)) | halves(x + y)
            lo, hi = sorted((x, y))
            cov |= 1 << ((2 * hi - lo) % n)
        blocked |= halves(2 * y)
        cov |= 1 << (y % n)
    return blocked, cov


class _BudgetSpent(Exception):
    pass


def naive_search(spec: st.SearchSpec, resume: int | None = None):
    """``search_near_modular`` as a plain colex walk: (status, witness, nodes, token).

    Partitions (the largest middle) ascend from ``resume`` or the first; inside
    one the middles descend, each tried from the least that leaves room for
    the rest.  Every candidate off the residues ``naive_place`` blocks is a
    node and is kept when its ``naive_place`` coverage can still reach n with
    every pair to come new.  Node ``budget + 1`` stops the walk.
    """
    n, top, size, budget = spec.modulus, spec.max_element, spec.cardinality, spec.budget
    pairs = size * (size + 1) // 2
    if naive_place(n, [], 0)[0] >> top % n & 1:
        return "exhausted", None, 0, None
    if size == 2:
        covered = naive_place(n, [0], top)[1] == (1 << n) - 1
        return ("found", st.ResidueSet.of(n, (0, top)), 0, None) if covered else ("exhausted", None, 0, None)
    nodes = 0

    def walk(placed, candidates):
        nonlocal nodes
        blocked = naive_place(n, placed[:-1], placed[-1])[0]
        for value in candidates:
            if blocked >> value % n & 1:
                continue
            nodes += 1
            if nodes > budget:
                raise _BudgetSpent
            count = len(placed) + 1
            if bin(naive_place(n, placed, value)[1]).count("1") < n - pairs + count * (count + 1) // 2:
                continue
            if count == size:
                return [*placed, value]
            got = walk([*placed, value], range(size - count, value))
            if got:
                return got
        return None

    for outer in range(max(size - 2, resume or 0), top):
        try:
            got = walk([0, top], [outer])
        except _BudgetSpent:
            return "budget_exceeded", None, nodes, outer
        if got:
            return "found", st.ResidueSet.of(n, got), nodes, outer
    return "exhausted", None, nodes, None


def naive_admissible(n: int, placed) -> int:
    """Bitmask of residues mod ``n`` a new element may take beside ``placed``.

    Two masks built pair by pair, then combined residue by residue.  ``dbl``
    holds residues of 2y - x over ordered pairs already placed (a new element
    equal to one of them closes a triple as endpoint); ``pair`` holds residues
    of x + z (a new element whose double lands there closes a triple as
    midpoint).
    """
    dbl = pair = 0
    for i, value in enumerate(placed):
        for q in placed[:i]:
            dbl |= 1 << ((2 * value - q) % n)
            dbl |= 1 << ((2 * q - value) % n)
            pair |= 1 << ((q + value) % n)
        dbl |= 1 << (value % n)
        pair |= 1 << ((2 * value) % n)
    mask = 0
    for r in range(n):
        if not (dbl >> r) & 1 and not (pair >> ((2 * r) % n)) & 1:
            mask |= 1 << r
    return mask


def naive_is_mod_ap(x: int, y: int, z: int, modulus: int) -> bool:
    """True iff x + z == 2y modulo ``modulus``."""
    return (x + z - 2 * y) % modulus == 0


def naive_is_mod_covered(z: int, a: st.ResidueSet) -> bool:
    """True iff 2y - x lands on z's residue for some elements x <= y."""
    return any(
        (2 * y - x) % a.modulus == z % a.modulus
        for i, x in enumerate(a.elements)
        for y in a.elements[i:]
    )


def naive_mod_3_free(a: st.ResidueSet) -> bool:
    return not any(
        naive_is_mod_ap(x, y, z, a.modulus)
        for x in a.elements
        for y in a.elements
        for z in a.elements
        if not x == y == z
    )


def naive_mod_covers_all(a: st.ResidueSet) -> bool:
    return all(naive_is_mod_covered(r, a) for r in range(a.modulus))


def naive_verify(a: st.ResidueSet) -> st.VerificationReport:
    """Full near-modular / modular verdict with a first violating triple.

    Pair by pair: a dict probe for every (y, x) and a bytearray(N) coverage scan,
    listing the first ``UNCOVERED_SHOWN`` uncovered residues and counting them all.

    A violation is any ordered triple (x, y, z) of elements, not all three
    identical, with x + z == 2y (mod N).  Degenerate triples are screened
    first: two elements sharing a residue, or sharing a doubled residue,
    each yield a violation on their own.
    """
    n = a.modulus
    elements = a.elements
    violation: tuple[int, int, int] | None = None

    by_residue: dict[int, int] = {}
    for e in elements:
        r = e % n
        if r in by_residue:
            other = by_residue[r]
            violation = (other, other, e)  # x = y, z in the same class
            break
        by_residue[r] = e

    if violation is None:
        by_doubled: dict[int, int] = {}
        for e in elements:
            d = (2 * e) % n
            if d in by_doubled:
                violation = (by_doubled[d], e, by_doubled[d])  # x = z, middle y
                break
            by_doubled[d] = e

    if violation is None:
        # Residues are now distinct, so any hit here is a genuine triple.
        for y in elements:
            doubled = 2 * y
            for x in elements:
                if x == y:
                    continue
                z = by_residue.get((doubled - x) % n)
                if z is not None:
                    violation = (x, y, z)
                    break
            if violation is not None:
                break

    covered = bytearray(n)
    for i, x in enumerate(elements):
        for y in elements[i:]:
            covered[(2 * y - x) % n] = 1
    uncovered = tuple(r for r in range(n) if not covered[r])

    three_free = violation is None
    near = three_free and not uncovered
    return st.VerificationReport(
        is_three_free_mod=three_free,
        uncovered_residues=uncovered[:UNCOVERED_SHOWN],
        uncovered_count=len(uncovered),
        is_near_modular=near,
        is_modular=near and a.max_element < n,
        witness_violation=violation,
    )


def family_names() -> list[str]:
    names = []
    for n in (0, 1, 2):
        names.append(f"Acal:{n}")
    for n in (1, 2):
        names += [f"T:{n}", f"Ttilde:{n}", f"U:{n}", f"Utilde:{n}", f"Bcal:{n}"]
    for t in range(1, 9):
        names.append(f"At:{t}")
    for t in (1, 2, 3, 4):
        for k in (2, 4, 5, 7, 8, 10):
            names.append(f"Atk:{t},{k}")
    for n in (0, 1, 2):
        for letter in ("C", "D", "E", "F"):
            names.append(f"{letter}:{n}")
    return names


def build_corpus() -> list[st.ResidueSet]:
    """Every named family member at desk scale plus all bundled table rows."""
    sets = [st.build_family(name) for name in family_names()]
    # the factors C..F widen: A_(n+1,k) for k = 2, 7 and 11, then A_(n+1) scaled by 8
    for n in (0, 1, 2):
        sets += [st.build_Atk(n + 1, k) for k in (2, 7, 11)] + [st.scale(st.build_At(n + 1), 8)]
    tables = st.load_appendix()
    sets += list(tables.mod28) + list(tables.mod30)
    return sets


@pytest.fixture(scope="session")
def corpus() -> list[st.ResidueSet]:
    return build_corpus()


@pytest.fixture(scope="session")
def small_corpus(corpus) -> list[st.ResidueSet]:
    """Corpus members with modulus at most 30 (product-suite operands)."""
    return [a for a in corpus if a.modulus <= 30]
