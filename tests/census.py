"""Longer census of the six excluded characters; not part of the tier-1 suite.

Usage, from the root of a checkout:  python3 tests/census.py

For each excluded character and each size c in ``BOUNDS`` it runs every search
``SearchSpec(N, (N + character - 1)/2, c)`` over even N up to the bound, the walk
``census_walk`` of tests/test_search.py.  Each search must come back exhausted,
and the node total of each (character, c) must equal the one in ``NODES``.  As a
control, the same walk must first find character 7 at the modulus in
``CONTROL``.  Last, every bundled small-case row is re-derived by the rule that
tier-1 states (``first_small_case_hit``).  This is bounded evidence for the
exclusions, not a proof.  Prints one line per check and exits 1 on any mismatch;
about 35 s on a 2-vCPU host.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stanley.witness import FORBIDDEN_CHARACTERS, SMALL_CASE_BASES  # noqa: E402
from test_search import (  # noqa: E402
    SMALL_CASE_SEARCHES,
    census_nodes,
    census_walk,
    first_small_case_hit,
)

#: size c -> largest even modulus N of the census
BOUNDS = {2: 4000, 4: 1500, 8: 4000, 16: 80}

#: (excluded character, c) -> search nodes of its census walk
NODES = {
    (1, 2): 0, (1, 4): 0, (1, 8): 0, (1, 16): 0,
    (3, 2): 0, (3, 4): 278258, (3, 8): 1986976, (3, 16): 854706,
    (5, 2): 0, (5, 4): 278261, (5, 8): 1989132, (5, 16): 1247785,
    (9, 2): 0, (9, 4): 279757, (9, 8): 1991391, (9, 16): 1890893,
    (11, 2): 0, (11, 4): 280500, (11, 8): 1993403, (11, 16): 2245659,
    (15, 2): 0, (15, 4): 281986, (15, 8): 1996130, (15, 16): 3334672,
}

#: c -> the first modulus at which the census walk finds character 7
CONTROL = {4: 10, 8: 30}


def check() -> int:
    started = time.perf_counter()
    results: list[bool] = []

    def report(ok: bool, text: str) -> None:
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {text}", flush=True)

    for character in sorted(FORBIDDEN_CHARACTERS):
        for cardinality, max_modulus in BOUNDS.items():
            text = f"character {character} size {cardinality} to N={max_modulus}:"
            try:
                nodes = census_nodes(character, cardinality, max_modulus)
            except AssertionError as exc:  # (character, N, size) of a search that did not exhaust
                report(False, f"{text} not exhausted at {exc}")
                continue
            want = NODES.get((character, cardinality))
            report(nodes == want, f"{text} exhausted, {nodes} nodes (recorded {want})")
    for cardinality, want in CONTROL.items():
        walk = census_walk(7, cardinality, BOUNDS[cardinality])
        found = next((n for n, got in walk if got.status == "found"), None)
        report(found == want, f"control: character 7 size {cardinality} found at N={found} (recorded {want})")
    hits = {character: first_small_case_hit(character) for character in SMALL_CASE_BASES}
    report(sorted(hits) == sorted(SMALL_CASE_SEARCHES) and all(
        (got.witness, got.nodes) == (SMALL_CASE_BASES[c], SMALL_CASE_SEARCHES[c])
        for c, got in hits.items()
    ), f"{len(hits)} small-case rows re-derived by their rule")
    failures = results.count(False)
    print(f"{len(results) - failures}/{len(results)} match in {time.perf_counter() - started:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(check())
