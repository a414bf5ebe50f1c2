"""Randomized checks of the structural laws the package relies on.

The product law is exercised part by part: the result keeps 0, keeps the
no-progression property, and keeps full coverage.  Transforms must preserve
the near-modular verdict, and the greedy generator must be prefix-stable.
The shift-OR sequence core, on seeds within one greedy window and spread
past it, the residue-mask ``verify`` and the search's
rotated placement masks must agree with the pair-by-pair oracles in
``conftest`` on dense and sparse inputs, with and without 0, valid or not;
the search returns the status, witness and node count of a
plain colex walk over those oracles; and ``detect_character`` must match
the level-by-level scan on greedy and tampered prefixes.  ``check_terms``
returns or raises what its per-element oracle does, and every value of a
greedy prefix above its ``settled`` point is a term or covered, so
``omitted_set`` may stop there.  Every mask-backed
``OmittedSet`` reads the oracle's elements, largest value and count, and the
sets ``product``, ``power`` and ``shift_max`` build unchecked equal their
re-validated copies.
The deep check's certificate accepts a predicted prefix exactly when greedy
growth yields it, and then agrees with ``omitted_set``; built from masks over
the seed, it equals the whole-prefix shift-OR pass of ``conftest`` field for field.
The character profile it reads off the seed is ``detect_character`` of the
predicted prefix, accepted or not.  Given W mod M instead of A = W + M*B_s, it
works out s, builds D(A) and fwd(A) by the step rule and answers as the
certificate of A does.
The text parsers either answer or raise a ``StanleyError`` on any input, and
every reader of a number (set element, family parameter, seed term) gives
the same answer for the same text.
"""

import math
from enum import IntEnum
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as hs

import stanley as st
from stanley import core
from stanley.cli import _parse_terms
from stanley.core import INT_LIMIT, _doubled_profile, _reflect, check_terms, set_bits
from stanley.families import FAMILY_NAMES
from stanley.search import _searcher

from conftest import (
    naive_admissible,
    naive_certificate,
    naive_check_terms,
    naive_detect_character,
    naive_greedy_table,
    naive_is_3_free,
    naive_omitted,
    naive_place,
    naive_search,
    naive_to_modular,
    naive_verify,
    predicted_prefix,
)

# small verified near-modular operands for product/transform properties
POOL = (
    st.ResidueSet(1, (0,)),
    st.ResidueSet(3, (0, 1)),
    st.ResidueSet(3, (0, 2)),
    st.ResidueSet(9, (0, 1, 6, 7)),
    st.ResidueSet(9, (0, 2, 3, 5)),
    st.ResidueSet(9, (0, 2, 5, 6)),
    st.ResidueSet(10, (0, 1, 7, 8)),
    st.ResidueSet(10, (0, 7, 9, 16)),
)

operand = hs.sampled_from(POOL)
increasing = hs.lists(
    hs.integers(min_value=0, max_value=80), min_size=1, max_size=10, unique=True
).map(lambda xs: tuple(sorted(xs)))
# scaled and shifted copies keep their progressions: sparse spans up to the
# checked limit, and term lists that do not start at 0
spread = hs.builds(
    lambda xs, scale, shift: tuple(scale * x + shift for x in xs),
    increasing,
    hs.sampled_from((1, 2, 1000, 10**15)),
    hs.sampled_from((0, 7, INT_LIMIT - 10**17)),
)
any_terms = hs.one_of(increasing, spread)
# greedy seeds: small spans, so the byte-table oracle stays cheap
seeds = hs.builds(
    lambda xs, shift: tuple(sorted(x + shift for x in xs)),
    hs.lists(hs.integers(min_value=0, max_value=300), min_size=1, max_size=8, unique=True),
    hs.sampled_from((0, 0, 3, 50)),
)

# sparse copies that stay inside the mask budget, so greedy validates them too
scaled = hs.builds(
    lambda xs, scale: tuple(scale * x for x in xs), increasing, hs.sampled_from((1, 3, 1000, 10**4))
)


@hs.composite
def residue_sets(draw):
    """Small moduli (N = 1 included) and elements up to 3N: residues and
    doubled residues repeat often; an even N may also pair x with x + N/2."""
    n = draw(hs.one_of(hs.just(1), hs.integers(min_value=2, max_value=40)))
    xs = draw(hs.lists(hs.integers(min_value=0, max_value=3 * n), max_size=12))
    if n % 2 == 0 and xs and draw(hs.booleans()):
        xs.append(xs[0] + n // 2)  # same doubled residue as xs[0]
    return st.ResidueSet.of(n, {0, *xs})


def assert_omitted(gaps, expected):
    """An OmittedSet's mask-backed fields against the oracle's element list."""
    assert gaps.elements == expected
    assert gaps.omega == (expected[-1] if expected else None)
    assert gaps.count == len(expected)


@given(bits=hs.sets(hs.integers(min_value=0, max_value=3000)),
       limit=hs.integers(min_value=0, max_value=40))
def test_limited_set_bits_lists_the_lowest(bits, limit):
    # sparse high bits make the window grow past its first word
    assert set_bits(sum(1 << b for b in bits), limit) == tuple(sorted(bits))[:limit]


@given(bits=hs.sets(hs.integers(min_value=0, max_value=3000)))
def test_reflect_reads_a_mask_backwards(bits):
    # greedy's seed check and omitted_set read their term masks this way
    top = max(bits, default=0)
    assert _reflect(sum(1 << b for b in bits)) == sum(1 << (top - b) for b in bits)


def edited(a, edit, k):
    """Corpus member with its top element dropped, moved up k moduli, or k added."""
    elements = set(a.elements)
    if edit == "add":
        elements.add(k)
    elif len(a) > 1:
        elements.discard(a.max_element)
        if edit == "shift":
            elements.add(a.max_element + k * a.modulus)
    return st.ResidueSet.of(a.modulus, elements)


def brute_mod_3_free(a):
    for x in a.elements:
        for y in a.elements:
            for z in a.elements:
                if x == y == z:
                    continue
                if (x + z - 2 * y) % a.modulus == 0:
                    return False
    return True


def brute_mod_covers_all(a):
    reached = {
        (2 * y - x) % a.modulus for x in a.elements for y in a.elements if x <= y
    }
    return len(reached) == a.modulus


@given(terms=any_terms)
def test_three_free_matches_brute(terms):
    # StanleyPrefix accepts exactly the progression-free term lists
    if naive_is_3_free(terms):
        assert st.StanleyPrefix(terms).terms == terms
    else:
        with pytest.raises(st.MalformedInputError, match="progression"):
            st.StanleyPrefix(terms)


@given(terms=hs.one_of(increasing, seeds, scaled), grow=hs.integers(min_value=0, max_value=3))
@settings(deadline=None)
def test_greedy_rejects_exactly_the_progressions(terms, grow):
    if naive_is_3_free(terms):
        assert len(st.greedy_extend(terms, len(terms) + grow)) == len(terms) + grow
    else:
        with pytest.raises(st.MalformedInputError):
            st.greedy_extend(terms, len(terms) + grow)


@given(data=hs.data())
def test_verify_matches_oracle(small_corpus, data):
    corpus_edit = hs.builds(
        edited,
        hs.sampled_from(small_corpus),
        hs.sampled_from(("keep", "drop", "shift", "add")),
        hs.integers(min_value=1, max_value=90),
    )
    a = data.draw(hs.one_of(residue_sets(), corpus_edit))
    assert st.verify(a) == naive_verify(a)


@hs.composite
def paired_even_sets(draw):
    """Even N and distinct residues, among them some r and r + N/2, each
    residue but 0 lifted by up to two moduli."""
    half = draw(hs.integers(min_value=1, max_value=40))
    r = draw(hs.integers(min_value=0, max_value=half - 1))
    more = draw(hs.sets(hs.integers(min_value=1, max_value=2 * half - 1), max_size=6))
    residues = sorted({0, r, r + half} | more)
    lifts = draw(hs.lists(hs.integers(min_value=0, max_value=2),
                          min_size=len(residues), max_size=len(residues)))
    return st.ResidueSet.of(2 * half, {x + 2 * half * k if x else 0 for x, k in zip(residues, lifts)})


@given(a=paired_even_sets())
def test_verify_matches_oracle_on_a_shared_doubled_residue(a):
    # 2r = 2(r + N/2) mod N, so x = r + N/2 is a second hit for the middle r:
    # the hit count alone rejects the set
    report = st.verify(a)
    assert report == naive_verify(a)
    assert not report.is_three_free_mod


@given(terms=increasing, grow=hs.integers(min_value=0, max_value=6),
       more=hs.integers(min_value=0, max_value=6))
@settings(deadline=None)
def test_greedy_is_prefix_stable(terms, grow, more):
    assume(naive_is_3_free(terms))
    shorter = st.greedy_extend(terms, len(terms) + grow)
    longer = st.greedy_extend(terms, len(terms) + grow + more)
    assert longer.terms[: len(shorter)] == shorter.terms
    # restarting from any produced prefix must land on the same sequence
    assert st.greedy_extend(shorter, len(longer)) == longer


@given(seed=seeds, grow=hs.integers(min_value=0, max_value=40))
@settings(deadline=None)
def test_greedy_matches_table_oracle(seed, grow):
    assume(naive_is_3_free(seed))
    target = len(seed) + grow
    assert st.greedy_extend(seed, target).terms == naive_greedy_table(seed, target)


# greedy seeds spread past the 1024 values greedy places before a fold, so
# growth folds from its first window on
spread_seeds = hs.builds(
    lambda xs, top: tuple(sorted({*xs, top})),
    hs.lists(hs.integers(min_value=0, max_value=1500), min_size=1, max_size=7),
    hs.integers(min_value=1100, max_value=4000),
)


@given(
    seed=spread_seeds,
    grow=hs.integers(min_value=100, max_value=400),
    cut=hs.floats(0, 1),
    reach=hs.sampled_from((8, 100, 1 << 10)),
)
@settings(deadline=None, max_examples=60)
def test_greedy_matches_table_oracle_across_folds(seed, grow, cut, reach):
    # a narrower window only folds more often: the terms are the same
    assume(naive_is_3_free(seed))
    target = len(seed) + grow
    with mock.patch.object(core, "_REACH", reach):
        once = st.greedy_extend(seed, target)
        assert once.terms == naive_greedy_table(seed, target)
        assert once.settled == seed[-1]
        # growth stopped mid-window and restarted lands on the same prefix
        step = st.greedy_extend(seed, len(seed) + int(cut * grow))
        assert st.greedy_extend(step, target) == once


@given(seed=seeds, grow=hs.integers(min_value=0, max_value=40))
@settings(deadline=None)
def test_greedy_result_revalidates(seed, grow):
    assume(naive_is_3_free(seed))
    prefix = st.greedy_extend(seed, len(seed) + grow)
    rebuilt = st.StanleyPrefix(prefix.terms)
    assert rebuilt == prefix
    # settled is derived: a rebuilt prefix claims nothing, and it is not compared
    assert rebuilt.settled == prefix.last
    assert hash(rebuilt) == hash(prefix) and repr(rebuilt) == repr(prefix)


@given(
    seed=seeds,
    grow=hs.integers(min_value=0, max_value=40),
    cut=hs.floats(0, 1),
    first=hs.floats(0, 1),
)
@settings(deadline=None)
def test_omitted_matches_oracle_on_greedy_prefixes(seed, grow, cut, first):
    # a greedy prefix scans only below its seed's top; bounds around that top,
    # and a prefix grown in two steps, must match the oracle and the whole scan
    # of the same terms as a plain list
    assume(naive_is_3_free(seed))
    target = len(seed) + grow
    once = st.greedy_extend(seed, target)
    chained = st.greedy_extend(st.greedy_extend(seed, len(seed) + int(first * grow)), target)
    assert chained == once
    top = seed[-1]
    for prefix in (once, chained):
        for bound in (0, int(cut * prefix.last), prefix.last, top - 1, top, top + 1):
            bound = min(max(bound, 0), prefix.last)
            gaps = st.omitted_set(prefix, bound)
            assert_omitted(gaps, naive_omitted(prefix.terms, bound))
            assert gaps == st.omitted_set(list(prefix.terms), bound)


def naive_settles(terms, settled) -> bool:
    """Every value in (settled, terms[-1]] is a term or 2y - x for terms x < y, pair by pair."""
    decided = set(terms)
    for j, y in enumerate(terms):
        for x in terms[:j]:
            decided.add(2 * y - x)
    return all(v in decided for v in range(settled + 1, terms[-1] + 1))


@given(seed=seeds, grow=hs.integers(min_value=0, max_value=40), first=hs.floats(0, 1))
@settings(deadline=None)
def test_greedy_prefix_is_settled_above_its_seed(seed, grow, first):
    assume(naive_is_3_free(seed))
    step = st.greedy_extend(seed, len(seed) + int(first * grow))
    for prefix in (st.greedy_extend(seed, len(seed) + grow), st.greedy_extend(step, len(seed) + grow)):
        assert prefix.settled == seed[-1]
        assert naive_settles(prefix.terms, prefix.settled)


# check_terms inputs: short tuples of valid and invalid terms, and increasing
# runs of ints with one bad value put in, so both the fast pass and its fallback run
over_range = hs.sampled_from((INT_LIMIT, INT_LIMIT + 1, 2 * INT_LIMIT + 2))
term_values = hs.one_of(
    hs.integers(min_value=0, max_value=40),
    hs.integers(min_value=-5, max_value=-1),
    over_range,
    hs.booleans(),
    hs.floats(),
    # a fixed alphabet: full unicode text builds hypothesis's character map on
    # first use, seconds that count as draw time in a fresh checkout
    hs.text(alphabet="07a", max_size=2),
)


@hs.composite
def term_tuples(draw):
    if draw(hs.booleans()):
        return tuple(draw(hs.lists(term_values, max_size=6)))
    # an increasing run from cumulative positive gaps
    gaps = draw(hs.lists(hs.integers(min_value=1, max_value=9), max_size=5))
    values = list(accumulate(gaps, initial=-1))[1:] + sorted(set(draw(hs.lists(over_range, max_size=2))))
    if values and draw(hs.booleans()):
        at = draw(hs.integers(min_value=0, max_value=len(values)))
        if draw(hs.booleans()):  # a repeat
            values.insert(at, values[draw(hs.integers(min_value=0, max_value=len(values) - 1))])
        else:  # anything
            values.insert(at, draw(term_values))
    return tuple(values)


class Rung(IntEnum):  # an int subclass: check_int accepts it, check_terms' type pass does not
    ONE = 1
    THREE = 3


@given(terms=term_tuples(), what=hs.sampled_from(("term", "element")))
@example(terms=(0, True, 2), what="term")  # a bool in increasing position
@example(terms=(0, Rung.ONE, Rung.THREE), what="term")  # accepted by the per-element rerun
@example(terms=(3, INT_LIMIT + 1, 2 * INT_LIMIT + 2), what="term")  # the first term over names it
def test_check_terms_matches_the_per_element_oracle(terms, what):
    try:
        expected = naive_check_terms(terms, what)
    except st.StanleyError as error:
        with pytest.raises(type(error)) as raised:
            check_terms(terms, what)
        assert type(raised.value) is type(error) and str(raised.value) == str(error)
    else:
        assert check_terms(terms, what) == expected


@given(
    seed=hs.one_of(seeds, operand.map(lambda a: a.elements)),
    grow=hs.integers(min_value=0, max_value=200),
    at=hs.floats(0, 1),
    bump=hs.integers(min_value=0, max_value=3),
)
@settings(deadline=None)
def test_detect_character_matches_oracle(seed, grow, at, bump):
    # bump > 0 tampers: every term from index at * len on moves up by bump
    assume(naive_is_3_free(seed))
    terms = list(st.greedy_extend(seed, max(4, len(seed) + grow)).terms)
    start = int(at * (len(terms) - 1))
    terms[start:] = [t + bump for t in terms[start:]]
    assert st.detect_character(terms) == naive_detect_character(terms)


@given(terms=hs.one_of(increasing, seeds), cut=hs.floats(0, 1), upper=hs.booleans())
def test_omitted_matches_oracle_on_any_terms(terms, cut, upper):
    # omitted_set does not require 3-freeness of a plain term list; upper draws
    # the bound past the midpoint (terms[0] + terms[-1]) / 2, where the scan is cut
    low = (terms[0] + terms[-1] + 1) // 2 if upper else 0
    bound = low + int(cut * (terms[-1] - low))
    assert_omitted(st.omitted_set(terms, bound), naive_omitted(terms, bound))


# fully modular forms, for which the certificate must accept, and arbitrary
# 3-free seeds under a modulus just above their maximum, for which it mostly rejects
modular_forms = hs.builds(
    lambda a, b, k: st.to_modular(st.product(st.shift_max(a, k) if k and len(a) > 1 else a, b))[0],
    operand,
    operand,
    hs.integers(min_value=0, max_value=2),
).map(lambda form: (form.elements, form.modulus))
certificate_cases = hs.one_of(
    modular_forms,
    hs.tuples(seeds, hs.integers(min_value=1, max_value=40)).map(
        lambda case: (case[0], case[0][-1] + case[1])
    ),
)


@given(case=certificate_cases)
@settings(deadline=None)
def test_certificate_accepts_exactly_the_greedy_prefix(case):
    seed, modulus = case
    assume(naive_is_3_free(seed))
    grown = st.greedy_extend(seed, 4 * len(seed))
    assert grown.terms == naive_greedy_table(seed, 4 * len(seed))
    certified = st.doubled_prefix(seed, modulus)
    assert (certified is not None) == (grown.terms == predicted_prefix(seed, modulus))
    if certified is not None:
        profile, gaps = certified
        assert profile == st.detect_character(predicted_prefix(seed, modulus))
        assert gaps == st.omitted_set(grown, grown.last)
        assert_omitted(gaps, naive_omitted(grown.terms, grown.last))


@given(form=modular_forms)
@settings(deadline=None)
def test_doubled_prefix_is_settled_above_max_a(form):
    seed, modulus = form
    profile, _ = st.doubled_prefix(seed, modulus)
    assert profile == st.detect_character(predicted_prefix(seed, modulus))
    assert naive_settles(predicted_prefix(seed, modulus), seed[-1])


@hs.composite
def edited_forms(draw):
    """A modular form with one element moved, dropped or added, or its modulus
    moved by one: arbitrary 3-free seeds almost always fail the certificate, so
    these edits are what reach the boundary between accepting and rejecting."""
    seed, modulus = draw(modular_forms)
    elements = set(seed)
    edit = draw(hs.sampled_from(("move", "drop", "add", "modulus")))
    if edit == "modulus":
        modulus += draw(hs.sampled_from((-1, 1)))
    if edit in ("move", "drop") and len(seed) > 1:
        elements.discard(draw(hs.sampled_from(seed)))
    if edit in ("move", "add"):
        elements.add(draw(hs.integers(min_value=0, max_value=modulus)))
    seed = tuple(sorted(elements))
    return seed, max(modulus, seed[-1] + 1)


# seeds that do not start at 0: translated modular forms (accepted exactly when
# the form is) and arbitrary seeds under a modulus just above their maximum
offset_seeds = hs.one_of(
    hs.tuples(modular_forms, hs.integers(min_value=1, max_value=30)).map(
        lambda case: (
            tuple(x + case[1] for x in case[0][0]),
            max(case[0][1], case[0][0][-1] + case[1] + 1),
        )
    ),
    hs.tuples(seeds.filter(lambda seed: seed[0] > 0), hs.integers(min_value=1, max_value=40)).map(
        lambda case: (case[0], case[0][-1] + case[1])
    ),
)


@given(case=hs.one_of(modular_forms, edited_forms(), offset_seeds))
@settings(deadline=None)
def test_block_certificate_equals_the_whole_prefix_pass(case):
    seed, modulus = case
    predicted = predicted_prefix(seed, modulus)
    certified = st.doubled_prefix(seed, modulus)
    expected = naive_certificate(predicted, seed[-1])
    assert (certified is None) == (expected is None)
    if certified is not None:
        profile, gaps = certified
        assert profile == st.detect_character(predicted)
        assert gaps == expected


@hs.composite
def doubling_seeds(draw):
    """A near-modular W = product of two operands, its top shifted up to 100
    moduli (up to seven doubling steps), or W with one nonzero element moved,
    dropped or added, so that some A = W + M*B_s fail the certificate."""
    w = st.product(draw(operand), draw(operand))
    k = draw(hs.integers(min_value=0, max_value=100))
    if k and len(w) > 1:
        w = st.shift_max(w, k)
    edit = draw(hs.sampled_from((None, "move", "drop", "add")))
    elements = set(w.elements)
    if edit in ("move", "drop") and len(w) > 1:
        elements.discard(draw(hs.sampled_from(w.elements[1:])))
    if edit in ("move", "add"):
        elements.add(draw(hs.integers(min_value=1, max_value=2 * w.modulus)))
    return st.ResidueSet.of(w.modulus, elements)


@given(w=doubling_seeds())
@settings(deadline=None)
def test_seed_form_certificate_equals_the_modular_form_one(w):
    # D(A) and fwd(A) by the step rule from W and s, against the certificate of
    # A = W + M*B_s written out one doubling at a time
    try:
        reference, steps = naive_to_modular(w)
    except st.MalformedInputError:  # an edit made two sums collide
        with pytest.raises(st.PreconditionError, match="collided"):
            st.doubled_prefix(w.elements, w.modulus)
        with pytest.raises(st.PreconditionError, match="collided"):
            st.to_modular(w)
        return
    assert st.to_modular(w) == (reference, steps)
    got = st.doubled_prefix(w.elements, w.modulus)
    want = st.doubled_prefix(reference.elements, reference.modulus)
    assert (got is None) == (want is None)
    if got is not None:
        assert got[0] == want[0]
        assert got[1].mask == want[1].mask and got[1].scan_bound == want[1].scan_bound


@hs.composite
def profile_cases(draw):
    """Any increasing A, of any size and minimum, under any modulus N above
    max A, accepted or not.  Greedy blocks, some moved off 0, reach the levels
    below log2 |A| when N leaves a small character 2 max A + 1 - N."""
    if draw(hs.booleans()):
        gaps = draw(hs.lists(hs.integers(min_value=1, max_value=9), max_size=16))
        seed = tuple(accumulate(gaps, initial=draw(hs.integers(min_value=0, max_value=6))))
    else:
        start = draw(hs.sampled_from(((0,), (0, 1), (0, 2), (0, 1, 6, 7))))
        grown = st.greedy_extend(start, len(start) << draw(hs.integers(min_value=0, max_value=5)))
        shift = draw(hs.sampled_from((0, 0, 1, 2)))
        seed = tuple(x + shift for x in grown.terms)
    top = seed[-1]
    return seed, draw(hs.integers(min_value=top + 1, max_value=2 * top + 4))


@given(case=hs.one_of(modular_forms, edited_forms(), offset_seeds, profile_cases()))
@settings(deadline=None)
def test_doubled_profile_is_the_scan_of_the_predicted_prefix(case):
    seed, modulus = case
    assert _doubled_profile(seed, modulus) == st.detect_character(predicted_prefix(seed, modulus))


@given(form=modular_forms, data=hs.data())
@settings(deadline=None)
def test_certificate_rejects_a_prefix_with_one_term_moved_dropped_or_added(form, data):
    # mutate the accepted prefix above the seed; a mutant passes the acceptance
    # check only when it is still a greedy prefix (the last term dropped, or the
    # next greedy term added), which the oracle decides
    seed, modulus = form
    terms = list(predicted_prefix(seed, modulus))
    top = seed[-1]
    i = data.draw(hs.integers(min_value=len(seed), max_value=len(terms) - 1))
    edit = data.draw(hs.sampled_from(("move", "drop", "add")))
    if edit == "drop":
        del terms[i]
    else:
        value = data.draw(hs.integers(min_value=top + 1, max_value=terms[-1] + modulus))
        assume(value not in terms)
        if edit == "move":
            del terms[i]
        terms = sorted(terms + [value])
    greedy = naive_greedy_table(seed, len(terms))
    accepted = naive_certificate(tuple(terms), top)
    assert (accepted is not None) == (tuple(terms) == greedy)
    if accepted is not None:
        assert accepted == st.omitted_set(terms, terms[-1])


@given(a=operand, b=operand)
def test_product_keeps_zero(a, b):
    assert 0 in st.product(a, b).elements


@given(a=operand, b=operand)
@settings(deadline=None)
def test_product_keeps_no_progression(a, b):
    assert brute_mod_3_free(st.product(a, b))


@given(a=operand, b=operand)
@settings(deadline=None)
def test_product_keeps_coverage(a, b):
    assert brute_mod_covers_all(st.product(a, b))


@given(a=operand, b=operand)
def test_product_geometry(a, b):
    p = st.product(a, b)
    assert p.modulus == a.modulus * b.modulus
    assert len(p) == len(a) * len(b)
    assert p.max_element == a.max_element + a.modulus * b.max_element


@given(a=residue_sets(), b=residue_sets(), c=operand, d=operand,
       k=hs.integers(min_value=1, max_value=3), n=hs.integers(min_value=0, max_value=3))
@settings(deadline=None)
def test_package_built_sets_equal_their_validated_copies(a, b, c, d, k, n):
    # product, power, scale and shift_max skip re-validation: the checked
    # constructor rebuilds each result unchanged, and colliding sums raise the one error
    sums = sorted(x + a.modulus * y for x in a for y in b)
    built = [st.power(c, d, n), st.scale(a, k * a.modulus + 1)]
    if len(set(sums)) < len(sums):
        with pytest.raises(st.PreconditionError) as raised:
            st.product(a, b)
        assert str(raised.value) == "product sums collided; an input set repeats a residue class"
    else:
        built.append(st.product(a, b))
        assert built[-1].elements == tuple(sums)
    if len(a) > 1:
        built.append(st.shift_max(a, k))
    for r in built:
        assert r == st.ResidueSet(r.modulus, r.elements)


@given(a=operand, b=operand, c=operand)
@settings(deadline=None)
def test_product_associates(a, b, c):
    assert st.product(st.product(a, b), c) == st.product(a, st.product(b, c))


@given(
    n=hs.integers(min_value=1, max_value=64),
    placed=hs.lists(hs.integers(min_value=0, max_value=200), max_size=8),
)
def test_blocked_mask_matches_two_mask_rule(n, placed):
    blocked = naive_place(n, placed[:-1], placed[-1])[0] if placed else 0
    assert ~blocked & ((1 << n) - 1) == naive_admissible(n, placed)


@given(
    n=hs.integers(min_value=1, max_value=64),
    # 0, the top t, then up to 8 distinct middles in (0, t), as the search places them
    placed=hs.sets(hs.integers(min_value=1, max_value=200), min_size=1, max_size=9).map(
        lambda values: [0, *sorted(values, reverse=True)]
    ),
)
def test_placement_rotations_match_the_pair_loop(n, placed):
    # with one coverage bound of 0 every visit is the last: it places its value
    # on the masks given and returns the masks after it
    visit, _progress = _searcher(n, placed[-1] + 1, [0], 1)
    masks = (0,) * 5
    for i, value in enumerate(placed):
        masks = visit(value, 0, *masks)
        assert masks[:2] == naive_place(n, placed[:i], value)


@given(data=hs.data())
@settings(deadline=None)
def test_search_matches_the_plain_walk(data):
    # both moduli parities, spaces from fixed-only to four middles, budgets that
    # stop inside a partition
    n = data.draw(hs.integers(min_value=1, max_value=24), label="n")
    size = data.draw(hs.integers(min_value=2, max_value=6), label="size")
    top = data.draw(hs.integers(min_value=size - 1, max_value=max(2 * n, size - 1)), label="top")
    # small budgets half the time: most of these spaces take under a hundred nodes
    budget = data.draw(hs.integers(1, 50) | hs.integers(1, 3000), label="budget")
    spec = st.SearchSpec(n, top, size, budget)
    got = st.search_near_modular(spec)
    assert (got.status, got.witness, got.nodes) == naive_search(spec)


# near-miss numbers: non-ASCII digits, signs, separators, leading zeros, long runs
number_text = hs.text(alphabet="0123456789 +-_.\u00b2\u0663\uff11", max_size=30)


@given(text=hs.one_of(
    hs.text(),
    hs.builds("N={}; {}".format, number_text, number_text),
    hs.builds("N={}; 0,{}".format, number_text, hs.lists(number_text).map(",".join)),
))
def test_parse_set_answers_or_raises_a_stanley_error(text):
    try:
        st.parse_set(text)
    except st.StanleyError:
        pass


@given(text=hs.one_of(
    hs.text(),
    hs.builds("{}:{}".format, hs.sampled_from(FAMILY_NAMES + ("Nope",)), number_text),
))
def test_parse_family_answers_or_raises_a_stanley_error(text):
    try:
        st.parse_family(text)
    except st.StanleyError:
        pass


def read_outcome(read, text):
    """What ``read(text)`` gives: an int, or the class of the StanleyError it raises."""
    try:
        return read(text)
    except st.StanleyError as exc:
        return type(exc)


NUMBER_READERS = (
    lambda text: st.parse_set(f"N=1; 0,{text}").elements[1],
    lambda text: st.parse_family(f"T:{text}").params[0],
    lambda text: _parse_terms(text)[0],
)


# "0" would repeat the set's 0
@given(text=hs.one_of(
    number_text.filter(lambda t: t.strip() != "0"),
    hs.integers(min_value=1, max_value=2 * INT_LIMIT).map(str),
))
def test_every_number_reader_agrees(text):
    first, *rest = (read_outcome(read, text) for read in NUMBER_READERS)
    assert all(outcome == first for outcome in rest)


@given(a=operand, c=hs.integers(min_value=1, max_value=12))
def test_scale_preserves_verdict(a, c):
    assume(math.gcd(c, a.modulus) == 1)
    assert st.verify(st.scale(a, c)).is_near_modular


@given(a=operand, k=hs.integers(min_value=1, max_value=4))
def test_shift_preserves_verdict_and_character(a, k):
    assume(len(a) > 1)
    shifted = st.shift_max(a, k)
    assert st.verify(shifted).is_near_modular
    assert shifted.max_element == a.max_element + k * a.modulus
    if 2 * a.max_element + 1 >= a.modulus:
        assert st.character_of(shifted) == st.character_of(a) + 2 * k * a.modulus


@given(a=operand)
@settings(deadline=None)
def test_to_modular_reaches_modular_form(a):
    reduced, steps = st.to_modular(a)
    assert st.verify(reduced).is_modular
    assert reduced.modulus == a.modulus * 3**steps
    if 2 * a.max_element + 1 >= a.modulus:
        assert st.character_of(reduced) == st.character_of(a)


@given(a=operand, b=operand, k=hs.integers(min_value=0, max_value=300))
@settings(deadline=None)
def test_to_modular_matches_step_by_step_fold(a, b, k):
    near = st.product(a, b)
    if k and len(near) > 1:
        near = st.shift_max(near, k)
    assert st.to_modular(near) == naive_to_modular(near)


@given(a=operand, k=hs.integers(min_value=0, max_value=3))
def test_set_format_round_trip(a, k):
    shifted = st.shift_max(a, k) if k and len(a) > 1 else a
    assert st.parse_set(st.format_set(shifted)) == shifted
