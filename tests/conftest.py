"""Shared corpus fixtures and tiny brute-force oracles.

The oracles here recompute predicates with no shared code or cleverness so
the optimized paths always have something independent to disagree with.
"""

from __future__ import annotations

import pytest

import stanley as st
from stanley.families import R_VARIANTS


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


def naive_mod_3_free(a: st.ResidueSet) -> bool:
    for x in a.elements:
        for y in a.elements:
            for z in a.elements:
                if x == y == z:
                    continue
                if (x + z - 2 * y) % a.modulus == 0:
                    return False
    return True


def naive_mod_covers_all(a: st.ResidueSet) -> bool:
    hit = set()
    for x in a.elements:
        for y in a.elements:
            if x <= y:
                hit.add((2 * y - x) % a.modulus)
    return len(hit) == a.modulus


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
    for n in (0, 1, 2):
        for variant in R_VARIANTS:
            sets.append(st.build_R(n, variant))
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
