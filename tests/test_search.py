"""Search engine vs. unpruned enumeration, budget stops and pinned node counts."""

import random
import tracemalloc
from itertools import combinations

import pytest

import stanley as st
from stanley.core import BIT_LIMIT
from stanley.witness import SMALL_CASE_BASES

from conftest import brute_character, naive_greedy, naive_search


def brute_first_witness(spec: st.SearchSpec) -> st.ResidueSet | None:
    """Filter the whole space with verify() and take the colex-least set.

    Colex on the middle elements: compare descending-sorted tuples
    lexicographically.  No pruning, no masks - pure oracle.
    """
    best = None
    for middles in combinations(range(1, spec.max_element), spec.cardinality - 2):
        candidate = st.ResidueSet(spec.modulus, (0, *middles, spec.max_element))
        if st.verify(candidate).is_near_modular:
            key = tuple(sorted(middles, reverse=True))
            if best is None or key < best[0]:
                best = (key, candidate)
    return None if best is None else best[1]


@pytest.mark.parametrize(
    "modulus,top,size",
    [
        (10, 8, 4),
        (10, 14, 4),
        (10, 16, 4),
        (9, 4, 3),
        (9, 6, 4),
        (12, 10, 4),
        (14, 12, 4),
        (13, 11, 4),
        (16, 13, 5),
    ],
)
def test_engine_matches_unpruned_enumeration(modulus, top, size):
    spec = st.SearchSpec(modulus, top, size)
    expected = brute_first_witness(spec)
    got = st.search_near_modular(spec)
    if expected is None:
        assert got.status == "exhausted"
        assert got.witness is None
    else:
        assert got.status == "found"
        assert got.witness == expected


def test_found_witnesses_verify():
    result = st.search_near_modular(st.SearchSpec(28, 57, 8))
    assert result.status == "found"
    report = st.verify(result.witness)
    assert report.is_near_modular
    assert st.character_of(result.witness) == 87


def test_search_reproduces_bundled_row():
    # the bundled mod-30 top-46 row is itself the colex-least witness
    result = st.search_near_modular(st.SearchSpec(30, 46, 8))
    assert result.witness == st.load_appendix().row(30, 46)


def test_fixed_only_space():
    assert st.search_near_modular(st.SearchSpec(3, 2, 2)).status == "found"
    assert st.search_near_modular(st.SearchSpec(4, 3, 2)).status == "exhausted"


def test_budget_stop():
    cut = st.search_near_modular(st.SearchSpec(28, 57, 8, budget=300))
    assert cut.status == "budget_exceeded"
    assert cut.witness is None
    assert cut.nodes <= 301


def test_budget_stop_on_a_dead_end():
    # node 2 of this space, the middle 2 after 0, 9 and 5, is a dead end: no free
    # value is left below it, so it is counted without being placed
    assert st.search_near_modular(st.SearchSpec(10, 9, 5)) == st.SearchResult("exhausted", None, 5)
    spec = st.SearchSpec(10, 9, 5, budget=1)
    got = st.search_near_modular(spec)
    assert (got.status, got.witness, got.nodes) == ("budget_exceeded", None, 2) == naive_search(spec)


def test_search_matches_the_plain_walk_at_sizes_7_and_8():
    # dead ends are most common at these sizes; about 0.4 s
    rng = random.Random(8)
    for _ in range(30):
        modulus = rng.randint(20, 36)
        top = rng.randint(modulus // 2, 3 * modulus // 2)
        spec = st.SearchSpec(modulus, top, rng.choice((7, 8)), budget=rng.choice((50, 400)))
        got = st.search_near_modular(spec)
        assert (got.status, got.witness, got.nodes) == naive_search(spec), spec


@pytest.mark.parametrize(
    "spec,status,nodes,witness",
    [
        (st.SearchSpec(31, 45, 8), "found", 11233, "N=31; 0,3,10,13,32,35,42,45"),
        (st.SearchSpec(25, 40, 7), "exhausted", 2548, None),
        (st.SearchSpec(33, 50, 8, budget=1000), "budget_exceeded", 1001, None),
    ],
)
def test_odd_modulus_node_counts_are_pinned(spec, status, nodes, witness):
    # odd moduli halve by 2^-1 mod N; the even, per-parity branch is pinned in test_cli
    got = st.search_near_modular(spec)
    assert (got.status, got.nodes) == (status, nodes)
    assert (got.witness and st.format_set(got.witness)) == witness


#: nodes of the search that first finds each bundled small-case row
SMALL_CASE_SEARCHES = {
    7: 2,
    13: 76,
    17: 200,
    19: 4,
    21: 401,
    23: 3,
    25: 1027,
    27: 2,
    29: 1232,
    31: 666,
    33: 1860,
    35: 5,
    37: 417,
    39: 4,
    41: 1333,
    43: 3,
    45: 2478,
    47: 2,
    49: 1233,
    51: 891,
    53: 2776,
    55: 5,
    57: 1348,
    59: 4,
    61: 867,
}


def first_small_case_hit(character: int) -> st.SearchResult:
    """The rule SMALL_CASE_BASES states: even N ascending, size 4 then 8."""
    for modulus in range(2, 201, 2):
        top = (modulus + character - 1) // 2
        for cardinality in (4, 8):
            if top >= cardinality - 1:
                got = st.search_near_modular(st.SearchSpec(modulus, top, cardinality))
                if got.status == "found":
                    return got
    raise AssertionError(f"no hit for character {character}")


def test_small_case_searches_are_pinned():
    # about 0.1 s: every bundled row is the rule's first hit, with its search pinned
    assert sorted(SMALL_CASE_SEARCHES) == sorted(SMALL_CASE_BASES)
    for character, row in SMALL_CASE_BASES.items():
        got = first_small_case_hit(character)
        assert got.witness == row
        assert got.nodes == SMALL_CASE_SEARCHES[character]


#: excluded character -> search nodes of its bounded census
FORBIDDEN_CENSUS_NODES = {1: 0, 3: 21651, 5: 21958, 9: 22890, 11: 23300, 15: 24909}


#: size -> largest even modulus of the tier-1 census; ``tests/census.py`` runs further
CENSUS_BOUNDS = {2: 2000, 4: 400, 8: 120, 16: 40}


def census_walk(character: int, cardinality: int, max_modulus: int):
    """(N, result) of the search of this size with top (N + character - 1)/2,
    for each even N up to max_modulus whose top has room for the size."""
    for modulus in range(2, max_modulus + 1, 2):
        top = (modulus + character - 1) // 2
        if top >= cardinality - 1:
            yield modulus, st.search_near_modular(st.SearchSpec(modulus, top, cardinality))


def census_nodes(character: int, cardinality: int, max_modulus: int) -> int:
    """Nodes of the census walk; each search must come back exhausted."""
    nodes = 0
    for modulus, got in census_walk(character, cardinality, max_modulus):
        assert got.status == "exhausted", (character, modulus, cardinality)
        nodes += got.nodes
    return nodes


def test_forbidden_characters_bounded_census():
    # about 0.3 s of bounded evidence, not a proof, for the six exclusions
    assert sorted(FORBIDDEN_CENSUS_NODES) == sorted(st.FORBIDDEN_CHARACTERS)
    for character, nodes in FORBIDDEN_CENSUS_NODES.items():
        assert sum(census_nodes(character, *bound) for bound in CENSUS_BOUNDS.items()) == nodes
    # control: the same walk finds character 7 at once
    for modulus, cardinality in ((10, 4), (30, 8)):
        got = st.search_near_modular(st.SearchSpec(modulus, (modulus + 6) // 2, cardinality))
        assert got.status == "found"


@pytest.mark.parametrize(
    "spec,nodes",
    [(st.SearchSpec(7, 80001, 3), 22858), (st.SearchSpec(11, 20001, 4, budget=200000), 10909)],
)
def test_large_top_searches_are_pinned(spec, nodes):
    # tens of thousands of partitions, each read from one residue bit
    got = st.search_near_modular(spec)
    assert (got.status, got.nodes) == ("exhausted", nodes)


def test_large_modulus_search_memory():
    # the table holds shift counts only; masks of 2^22 + 1 bits are placed
    # one partition at a time and every partition is pruned at its first node
    tracemalloc.start()
    try:
        got = st.search_near_modular(st.SearchSpec(2**22 + 1, 57, 8, budget=1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (got.status, got.nodes) == ("exhausted", 51)
    assert peak < 40 * 2**20


def test_blocked_start_is_exhausted_before_any_partition(monkeypatch):
    # 0 and 10^5 block every residue mod 3, so no middle can ever be placed;
    # the 99,999 partitions are not walked
    def no_scan(*args):
        raise AssertionError("a partition was scanned")

    monkeypatch.setattr("stanley.search._partitions", no_scan)
    got = st.search_near_modular(st.SearchSpec(3, 10**5, 3))
    assert got == st.SearchResult("exhausted", None, 0)


def test_budget_validation():
    with pytest.raises(st.MalformedInputError):
        st.SearchSpec(10, 8, 4, budget=0)
    with pytest.raises(st.MalformedInputError):
        st.SearchSpec(10, 2, 4)  # top below cardinality - 1


def test_spec_integers_are_checked():
    # each of the search's cardinality frames holds masks of modulus bits and more,
    # so modulus * cardinality has the bit budget
    # a bool budget, such as a stale positional zero flag, is not an integer
    for args in ((28.5, 57, 8), (28, 57.0, 8), (28, 57, 8.0), (28, 57, True), (28, 57, 8, True)):
        with pytest.raises(st.MalformedInputError):
            st.SearchSpec(*args)
    with pytest.raises(st.MalformedInputError):
        st.SearchSpec(28, 57, 8, budget=10.0)
    with pytest.raises(st.ResourceLimitError):
        st.SearchSpec(BIT_LIMIT + 1, 57, 8)
    with pytest.raises(st.ResourceLimitError):
        st.SearchSpec(10**15, 57, 8)
    with pytest.raises(st.ResourceLimitError):
        st.SearchSpec(28, 1 << 63, 8)
    assert st.SearchSpec(BIT_LIMIT // 8, 57, 8).modulus == BIT_LIMIT // 8
    with pytest.raises(st.ResourceLimitError):
        st.SearchSpec(BIT_LIMIT // 8 + 1, 57, 8)


def test_naive_greedy_matches_fast():
    assert naive_greedy([0], 12) == list(st.greedy_extend([0], 12).terms)


def test_brute_character_validation():
    with pytest.raises(st.PreconditionError):
        brute_character([0], 0)
    with pytest.raises(st.PreconditionError):
        brute_character([0], 7)
    with pytest.raises(st.PreconditionError):
        brute_character([], 2)
    with pytest.raises(st.PreconditionError):
        brute_character([2, 1], 2)
    with pytest.raises(st.PreconditionError):
        brute_character([0, 1, 2], 2)


def test_brute_character_block_seed():
    profile = brute_character([0, 2, 5, 6], 3)
    assert profile is not None
    assert (profile.character, profile.settle_level) == (4, 2)


def test_engine_matches_brute_on_small_grid():
    # full sweep of tiny spaces: identical verdicts and identical first
    # witnesses against the unpruned enumeration
    for modulus in range(3, 10):
        for size in (3, 4):
            for top in range(size - 1, 11):
                spec = st.SearchSpec(modulus, top, size)
                got = st.search_near_modular(spec)
                want = brute_first_witness(spec)
                if want is None:
                    assert got.status == "exhausted", (modulus, top, size)
                else:
                    assert got.status == "found"
                    assert got.witness == want


def test_brute_character_agrees_with_set_character(corpus):
    rng = random.Random(11)
    eligible = [
        a for a in corpus if a.modulus <= 270 and len(a) & (len(a) - 1) == 0
    ]
    for member in rng.sample(eligible, 50):
        reduced, _steps = st.to_modular(member)
        profile = brute_character(sorted(reduced.elements), 2)
        assert profile is not None
        assert profile.character == st.character_of(member)
