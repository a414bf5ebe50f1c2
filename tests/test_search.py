"""Search engine vs. unpruned enumeration, plus budget/resume plumbing."""

import os
import random
from itertools import combinations

import pytest

import stanley as st
from stanley.core import BIT_LIMIT

from conftest import brute_character, naive_greedy


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


def test_budget_and_resume():
    full = st.search_near_modular(st.SearchSpec(28, 57, 8))
    cut = st.search_near_modular(st.SearchSpec(28, 57, 8, budget=300))
    assert cut.status == "budget_exceeded"
    assert cut.witness is None
    assert cut.nodes <= 301
    assert cut.resume_token is not None
    resumed = st.search_near_modular(
        st.SearchSpec(28, 57, 8), resume=cut.resume_token
    )
    assert resumed.status == "found"
    assert resumed.witness == full.witness
    assert resumed.nodes <= full.nodes


def test_resume_past_the_space_raises():
    # a budget stop's token is a partition below max_element; one past it
    # would otherwise report an empty scan as exhausted
    spec = st.SearchSpec(28, 57, 8)
    with pytest.raises(st.MalformedInputError, match="resume 57"):
        st.search_near_modular(spec, resume=57)
    # the last partition: its only middle value 56 shares 0's residue
    assert st.search_near_modular(spec, resume=56).status == "exhausted"
    assert st.search_near_modular(spec, resume=54).resume_token == 54
    # tokens below the first partition are clamped to it
    assert st.search_near_modular(spec, resume=0) == st.search_near_modular(spec)


@pytest.mark.parametrize(
    "spec,status,nodes,token,witness",
    [
        (st.SearchSpec(31, 45, 8), "found", 11233, 42, "N=31; 0,3,10,13,32,35,42,45"),
        (st.SearchSpec(25, 40, 7), "exhausted", 2548, None, None),
        (st.SearchSpec(33, 50, 8, budget=1000), "budget_exceeded", 1001, 22, None),
    ],
)
def test_odd_modulus_node_counts_are_pinned(spec, status, nodes, token, witness):
    # odd moduli halve by 2^-1 mod N; the even, per-parity branch is pinned in test_cli
    got = st.search_near_modular(spec)
    assert (got.status, got.nodes, got.resume_token) == (status, nodes, token)
    assert (got.witness and st.format_set(got.witness)) == witness


def test_budget_validation():
    with pytest.raises(st.MalformedInputError):
        st.SearchSpec(10, 8, 4, budget=0)
    with pytest.raises(st.MalformedInputError):
        st.SearchSpec(10, 2, 4)  # top below cardinality - 1
    with pytest.raises(st.MalformedInputError):
        st.search_near_modular(st.SearchSpec(10, 8, 4), threads=0)


def test_spec_integers_are_checked():
    # every search mask is modulus bits wide, so the modulus has a bit budget
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
    assert st.SearchSpec(BIT_LIMIT, 57, 8).modulus == BIT_LIMIT


def test_threads_capped_at_cpu_count(two_cpus, monkeypatch):
    spec = st.SearchSpec(28, 57, 8)
    with pytest.raises(st.MalformedInputError):
        st.search_near_modular(spec, threads=3)
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown count: one worker
    with pytest.raises(st.MalformedInputError):
        st.search_near_modular(spec, threads=2)


def test_threads_agree_with_sequential(reports_two_cpus):
    spec = st.SearchSpec(28, 57, 8)
    solo = st.search_near_modular(spec)
    pooled = st.search_near_modular(spec, threads=2)
    assert pooled.status == "found"
    assert pooled.witness == solo.witness


def test_threads_agree_on_an_odd_modulus(reports_two_cpus):
    # the pooled partitions receive the start masks pickled
    spec = st.SearchSpec(31, 45, 8)
    assert st.search_near_modular(spec, threads=2) == st.search_near_modular(spec)


@pytest.mark.parametrize("budget", [50, 100])
def test_threads_share_the_node_budget(budget, reports_two_cpus):
    spec = st.SearchSpec(28, 57, 8, budget=budget)
    solo = st.search_near_modular(spec)
    pooled = st.search_near_modular(spec, threads=2)
    assert solo.status == "budget_exceeded"
    assert pooled == solo  # same status, node count and resume token


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
