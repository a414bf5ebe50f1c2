"""Naive near-modularity oracle for the search-scan output check.

Written without any code from ``stanley`` so that a wrong verdict in the
library's pruned search or in ``verify`` cannot hide behind a shared bug.
Cubic in the set size, which is fine for the 4..10-element sets the
search workload produces.
"""

from __future__ import annotations

from typing import Sequence


def mod_3_free(elements: Sequence[int], modulus: int) -> bool:
    """No triple (x, y, z), not all the same element, has x + z == 2y mod N."""
    for x in elements:
        for y in elements:
            for z in elements:
                if x == y == z:
                    continue
                if (x + z - 2 * y) % modulus == 0:
                    return False
    return True


def covers_all(elements: Sequence[int], modulus: int) -> bool:
    """Every residue mod N equals 2y - x for some elements x <= y."""
    hit = {(2 * y - x) % modulus for x in elements for y in elements if x <= y}
    return len(hit) == modulus


def is_near_modular(elements: Sequence[int], modulus: int) -> bool:
    return mod_3_free(elements, modulus) and covers_all(elements, modulus)
