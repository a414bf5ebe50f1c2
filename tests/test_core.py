"""Greedy machinery: frozen worked examples plus oracle cross-checks."""

import enum

import pytest

import stanley as st
from stanley import core
from stanley.core import INT_LIMIT, check_int, read_int

from conftest import (
    brute_character,
    naive_greedy,
    naive_greedy_table,
    naive_is_3_free,
    naive_is_covered,
    naive_omitted,
    predicted_prefix,
)


def test_is_3_free_examples():
    # StanleyPrefix accepts a term list exactly when it holds no progression
    assert naive_is_3_free([0, 1, 3, 4])
    assert st.StanleyPrefix([0, 1, 3, 4]).terms == (0, 1, 3, 4)
    for terms in ([0, 1, 2], [0, 1, 3, 5]):  # 0,1,2 and 1,3,5
        assert not naive_is_3_free(terms)
        with pytest.raises(st.MalformedInputError, match="progression"):
            st.StanleyPrefix(terms)


def test_is_covered_examples():
    assert naive_is_covered(5, [0, 1, 3, 4])  # 2*3-1
    assert naive_is_covered(7, [0, 1, 3, 4])  # 2*4-1
    assert not naive_is_covered(9, [0, 1, 3, 4])
    assert not naive_is_covered(3, [0, 1, 3, 4])  # being a term is not coverage


def test_greedy_terms_are_the_least_uncovered_values():
    terms = st.greedy_extend([0], 20).terms
    for k in range(1, len(terms)):
        gap = range(terms[k - 1] + 1, terms[k])
        assert all(naive_is_covered(z, terms[:k]) for z in gap)
        assert not naive_is_covered(terms[k], terms[:k])


@pytest.mark.parametrize("text,value", [("0", 0), (" 42\n", 42), (str(INT_LIMIT), INT_LIMIT)])
def test_read_int_reads_plain_ascii_decimals(text, value):
    assert read_int(text) == value


@pytest.mark.parametrize(
    "text", ["", " ", "+1", "-1", "1_0", "007", "1.0", "0x1", "1 2", "\u0663", "\uff11", "\u00b2"]
)
def test_read_int_rejects_anything_else(text):
    with pytest.raises(st.FormatError):
        read_int(text)


@pytest.mark.parametrize("text", [str(INT_LIMIT + 1), "9" * 20, "1" * 5000])
def test_read_int_over_range_is_a_resource_limit(text):
    with pytest.raises(st.ResourceLimitError, match="64-bit range"):
        read_int(text)


def test_check_int_returns_in_range_ints_unchanged():
    class Size(enum.IntEnum):
        SEVEN = 7

    assert check_int(Size.SEVEN, "size") is Size.SEVEN  # an int subclass passes
    assert check_int(0, "size") == 0
    assert check_int(INT_LIMIT, "size") == INT_LIMIT


@pytest.mark.parametrize("value", [True, 2.5, "3"])
def test_check_int_rejects_non_integers(value):
    with pytest.raises(st.MalformedInputError, match="size .* is not an integer"):
        check_int(value, "size")


def test_check_int_rejects_negatives_and_values_over_range():
    with pytest.raises(st.MalformedInputError, match="size -1 is negative"):
        check_int(-1, "size")
    with pytest.raises(st.ResourceLimitError, match="exceeds the checked 64-bit range"):
        check_int(2**63, "size")


def test_term_validation():
    for bad in ([], [0, 0], [1, 0], [-1, 2], [0, 1.5], [0, True]):
        with pytest.raises(st.MalformedInputError):
            st.StanleyPrefix(bad)


def test_prefix_rejects_progressions():
    with pytest.raises(st.MalformedInputError):
        st.StanleyPrefix([0, 1, 2])
    prefix = st.StanleyPrefix([0, 1, 3, 4])
    assert len(prefix) == 4 and prefix.last == 4


def test_settled_is_derived_not_passed():
    # a prefix built from terms claims nothing; greedy growth claims its seed's top
    assert st.StanleyPrefix([0, 1, 3, 4]).settled == 4
    assert st.greedy_extend([0, 1, 3, 4], 16).settled == 4
    assert st.greedy_extend(st.greedy_extend([0, 2], 5), 9).settled == 2
    with pytest.raises(TypeError):
        st.StanleyPrefix([0, 1, 3, 4], settled=0)


def test_greedy_from_zero():
    assert st.greedy_extend([0], 8).terms == (0, 1, 3, 4, 9, 10, 12, 13)
    # Odlyzko & Stanley: S(0) is the integers with no digit 2 in base 3.  Its
    # covered runs reach thousands of values, far past the 1024-value window
    # the gap is read from first; from two terms on each level doubles by certificate.
    for k in range(17):
        expected = tuple(int(bin(n)[2:], 3) for n in range(2**k))
        assert st.greedy_extend([0], 2**k).terms == expected


def test_greedy_doubles_the_modular_form_of_every_witness(monkeypatch):
    # greedy grows A to A + {0, N, 3N, 4N} (doubled_prefix's certificate); the
    # second half, 3N + (A | A + N), is one doubling by greedy's own certificate
    doubled, real = [], core._doubled

    def spy(grown, target):
        doubled.append(real(grown, target))
        return doubled[-1]

    monkeypatch.setattr(core, "_doubled", spy)
    for lam in range(301):
        if lam in st.FORBIDDEN_CHARACTERS:
            continue
        form, _ = st.to_modular(st.execute_and_verify(st.witness_for(lam)).witness)
        a, n = form.elements, form.modulus
        doubled.clear()
        assert st.greedy_extend(a, 4 * len(a)).terms == tuple(x + k * n for k in (0, 1, 3, 4) for x in a)
        assert doubled[-1] is not None, lam


def test_greedy_across_covered_runs_longer_than_a_word():
    # the seed's first greedy gap is one, but its growth skips runs of 64 and more
    grown = st.greedy_extend([0, 1, 200], 100).terms
    assert max(b - a for a, b in zip(grown[2:], grown[3:])) > 64
    assert grown == naive_greedy_table([0, 1, 200], 100)
    # and a seed whose very first gap is 122: S(0) up to (3^5 - 1) / 2
    s0 = st.greedy_extend([0], 32).terms
    assert st.greedy_extend(s0, 40).terms == naive_greedy_table(s0, 40)
    assert st.greedy_extend(s0, 33).last - s0[-1] == 122


def test_greedy_zero_two():
    # 4 would close the progression 0,2,4; then 5 is free
    assert st.greedy_extend([0, 2], 4).terms == (0, 2, 3, 5)


def test_greedy_seeded_block():
    prefix = st.greedy_extend([0, 2, 5, 6], 16)
    assert prefix.terms[:9] == (0, 2, 5, 6, 9, 11, 14, 15, 27)


def test_greedy_matches_naive_oracle():
    for seed in ([0], [0, 2], [0, 4], [0, 5], [0, 1, 6, 7, 10, 15, 16, 18]):
        fast = st.greedy_extend(seed, 40).terms
        assert list(fast) == naive_greedy(list(seed), 40)
        assert naive_is_3_free(fast)


def test_greedy_idempotent_on_prefixes():
    long = st.greedy_extend([0], 64).terms
    for cut in (1, 2, 5, 17, 33):
        assert st.greedy_extend(long[:cut], 64).terms == long


def test_greedy_translates_with_the_seed():
    # progressions are translation invariant, so a shifted seed shifts
    # the whole sequence
    for seed, shift in (([0], 7), ([0, 2], 1), ([0, 2], 5), ([0, 1, 5], 4)):
        base = st.greedy_extend(seed, 12).terms
        moved = st.greedy_extend([x + shift for x in seed], 12).terms
        assert moved == tuple(x + shift for x in base)


def test_greedy_argument_errors(monkeypatch):
    with pytest.raises(st.MalformedInputError):
        st.greedy_extend([0, 1, 2], 5)  # seed already has a progression
    with pytest.raises(st.MalformedInputError):
        st.greedy_extend([0, 2], 1)  # shorter than the seed
    # 2**40 terms span at least 2**40 - 1, so no mask budget holds them: the
    # request raises before the seed pass, let alone any growth
    monkeypatch.setattr(core, "_cover", lambda terms: pytest.fail("the seed pass ran"))
    with pytest.raises(st.ResourceLimitError, match="mask budget"):
        st.greedy_extend([0], 2**40)


def test_greedy_seed_errors_in_order():
    # terms first, then the progression, then target_len
    with pytest.raises(st.MalformedInputError, match="strictly increasing"):
        st.greedy_extend([0, 2, 1], 1)
    with pytest.raises(st.MalformedInputError, match="progression"):
        st.greedy_extend([0, 1, 2], 1)
    with pytest.raises(st.MalformedInputError, match="target_len"):
        st.greedy_extend([0, 1, 3], 2)


def test_greedy_mask_budget(monkeypatch):
    monkeypatch.setattr(core, "BIT_LIMIT", 100)
    assert st.greedy_extend([0, 99], 3).terms == (0, 99, 100)
    assert st.greedy_extend([0, 100], 2).terms == (0, 100)
    with pytest.raises(st.ResourceLimitError):  # one more term spans 101
        st.greedy_extend([0, 100], 3)
    with pytest.raises(st.ResourceLimitError):
        st.greedy_extend([0, 101], 3)
    with pytest.raises(st.ResourceLimitError):  # a validated prefix is budgeted too
        st.greedy_extend(st.StanleyPrefix([5, 106]), 3)


def test_greedy_growth_budget(monkeypatch):
    # S(0) reaches 94 in 24 terms, then 108; it reaches 121 in 32 terms, and
    # then a covered run of 121 values jumps to 243 (and 256 at 40 terms)
    monkeypatch.setattr(core, "BIT_LIMIT", 108)
    assert st.greedy_extend([0], 25).last == 108
    monkeypatch.setattr(core, "BIT_LIMIT", 107)
    assert st.greedy_extend([0], 24).last == 94
    with pytest.raises(st.ResourceLimitError, match="prefix span 108 "):  # where growth ends
        st.greedy_extend([0], 25)
    monkeypatch.setattr(core, "BIT_LIMIT", 243)
    assert st.greedy_extend([0], 33).last == 243
    monkeypatch.setattr(core, "BIT_LIMIT", 242)
    with pytest.raises(st.ResourceLimitError, match="prefix span 243 "):  # at the jump
        st.greedy_extend([0], 40)


def test_greedy_doubling_past_the_budget_grows_term_by_term(monkeypatch):
    # S(0) doubles from 32 terms (span 121) to 64 (span 364) only where 364 fits;
    # otherwise growth goes on term by term and stops where it always did
    monkeypatch.setattr(core, "BIT_LIMIT", 364)
    assert st.greedy_extend([0], 64).last == 364
    monkeypatch.setattr(core, "BIT_LIMIT", 363)
    assert st.greedy_extend([0], 63).last == 363
    with pytest.raises(st.ResourceLimitError, match="prefix span 364 "):
        st.greedy_extend([0], 64)
    monkeypatch.setattr(core, "BIT_LIMIT", 242)
    with pytest.raises(st.ResourceLimitError, match="prefix span 243 "):
        st.greedy_extend([0], 64)


def test_greedy_stops_at_the_checked_range():
    assert st.greedy_extend([INT_LIMIT - 1], 2).terms == (INT_LIMIT - 1, INT_LIMIT)
    with pytest.raises(st.ResourceLimitError):
        st.greedy_extend([INT_LIMIT], 2)
    with pytest.raises(st.ResourceLimitError):
        st.greedy_extend([INT_LIMIT - 1, INT_LIMIT], 3)


def test_detect_character_base_sequence():
    profile = st.detect_character(st.greedy_extend([0], 16))
    assert profile == st.CharacterProfile(0, 0, 1, 3)
    assert profile.levels_verified == 4


def test_detect_character_seeded():
    profile = st.detect_character(st.greedy_extend([0, 1, 6, 7, 10, 15, 16, 18], 64))
    assert (profile.character, profile.settle_level, profile.repeat_factor) == (10, 3, 27)


def test_detect_character_two_seed():
    profile = st.detect_character(st.greedy_extend([0, 2], 8))
    assert (profile.character, profile.settle_level, profile.repeat_factor) == (2, 1, 3)


def test_detect_character_tampered():
    assert st.detect_character([0, 1, 3, 5]) is None


def test_detect_character_too_short():
    with pytest.raises(st.PrefixTooShortError):
        st.detect_character([0, 1, 3])


def test_detect_agrees_with_brute_oracle():
    for seed in ([0], [0, 2], [0, 2, 5, 6], [0, 1, 6, 7, 10, 15, 16, 18]):
        brute = brute_character(list(seed), 3)
        fast = st.detect_character(st.greedy_extend(seed, 1 << ((len(seed) - 1).bit_length() + 3)))
        assert (brute is None) == (fast is None)
        if brute is not None:
            assert brute.character == fast.character
            assert brute.settle_level == fast.settle_level


def test_omitted_set_base():
    gaps = st.omitted_set(st.greedy_extend([0], 12), 20)
    assert gaps.elements == () and gaps.omega is None


def test_omitted_set_seeded():
    prefix = st.greedy_extend([0, 1, 6, 7, 10, 15, 16, 18], 16)
    gaps = st.omitted_set(prefix, 27)
    assert gaps.elements == (3, 4, 5, 9)
    assert gaps.omega == 9
    assert gaps.scan_bound == 27


def test_omitted_bound_below_character():
    # largest omitted value stays under the detected character
    prefix = st.greedy_extend([0, 1, 6, 7, 10, 15, 16, 18], 64)
    profile = st.detect_character(prefix)
    gaps = st.omitted_set(prefix, prefix.last)
    assert gaps.omega is not None and gaps.omega < profile.character


@pytest.mark.parametrize("lam", [100, 1001])
def test_omitted_set_past_the_midpoint_on_a_long_prefix(lam):
    # the `character --omitted` path on a witness's modular form: past the
    # midpoint (last + base) / 2 the reversed mask is cut to bound - y bits
    form, _ = st.to_modular(st.execute_and_verify(st.witness_for(lam)).witness)
    prefix = st.greedy_extend(form.elements, 512)
    base, last = prefix.terms[0], prefix.last
    middle = (last + base) // 2
    for bound in (last, middle + 1, middle + 2, (middle + last) // 2, last - 1):
        gaps = st.omitted_set(prefix, bound)
        assert gaps.elements == naive_omitted(prefix.terms, bound)
        assert gaps.omega == (gaps.elements[-1] if gaps.elements else None)


def test_omitted_mask_budget(monkeypatch):
    # the bound is checked before any mask is built, so a lowered limit shows it
    monkeypatch.setattr(core, "BIT_LIMIT", 100)
    assert st.omitted_set([0, 100, 101], 100).elements == tuple(range(1, 100))
    with pytest.raises(st.ResourceLimitError, match="mask budget"):
        st.omitted_set([0, 101, 102], 101)


def test_omitted_requires_scanned_range():
    with pytest.raises(st.PrefixTooShortError):
        st.omitted_set([0, 1, 3, 4], 10)  # prefix only decides values up to 4


def test_doubled_prefix_is_the_greedy_prefix():
    seed = (0, 1, 6, 7, 10, 15, 16, 18)  # Acal:1, modular mod 27
    profile, gaps = st.doubled_prefix(seed, 27)
    prefix = st.greedy_extend(seed, 32)
    assert prefix.terms == predicted_prefix(seed, 27)
    assert prefix.terms[8:10] == (27, 28) and prefix.terms[16:18] == (81, 82)
    # levels 4 and 3 hold by construction; level 2 of A does not, so N repeats
    assert profile == st.detect_character(prefix) == st.CharacterProfile(10, 3, 27, 4)
    assert gaps == st.omitted_set(prefix, prefix.last)
    assert gaps == st.omitted_set(list(prefix.terms), prefix.last)  # the whole scan
    assert gaps.elements == (3, 4, 5, 9) and gaps.scan_bound == 18 + 4 * 27


def test_doubled_profile_walks_below_the_constructed_levels():
    # S(0) to 16 terms: every level of A = (0, 1, 3, 4) holds with character 0
    profile, gaps = st.doubled_prefix((0, 1, 3, 4), 9)
    assert profile == st.detect_character(predicted_prefix((0, 1, 3, 4), 9))
    assert profile == st.CharacterProfile(0, 0, 1, 3)
    assert gaps.omega is None


def test_doubled_prefix_rejects_what_greedy_does_not_grow():
    assert st.doubled_prefix([0, 1], 5) is None  # greedy takes 3, not 5
    assert st.doubled_prefix([0, 1], 2) is None  # 0,1,2 is a progression
    assert st.doubled_prefix([0, 1, 2], 9) is None  # so is the seed itself
    profile, _ = st.doubled_prefix([0], 1)
    assert profile == st.detect_character(predicted_prefix((0,), 1)) == st.CharacterProfile(0, 0, 1, 1)


def test_doubled_prefix_argument_errors():
    with pytest.raises(st.MalformedInputError, match="modulus 0 is not positive"):
        st.doubled_prefix([0, 3], 0)
    with pytest.raises(st.MalformedInputError):
        st.doubled_prefix([0, 3], -4)
    with pytest.raises(st.MalformedInputError):
        st.doubled_prefix([3, 0], 9)


@pytest.mark.parametrize("lam", [1500, 1999, 20000])
def test_doubled_prefix_from_the_seed_and_its_steps(lam):
    # D(A) and fwd(A) from W by the step rule, with s worked out and A built from W
    # inside, agree with the certificate of A alone
    w = st.execute_and_verify(st.witness_for(lam)).witness
    form, steps = st.to_modular(w)
    assert steps > 0
    certified = st.doubled_prefix(w.elements, w.modulus)
    assert certified == st.doubled_prefix(form.elements, form.modulus)
    assert certified[0].character == lam
    assert st.doubled_prefix(list(w.elements), w.modulus) == certified


def test_doubled_prefix_reduces_the_seed_and_refuses_one_whose_a_repeats(monkeypatch):
    near = st.shift_max(st.build_family("T:1"), 2)  # N=9; 0,1,6,25: two steps to mod 81
    form, steps = st.to_modular(near)
    assert steps == 2 and form.modulus == 81
    certified = st.doubled_prefix(near.elements, 9)
    assert certified == st.doubled_prefix(form.elements, 81)
    assert certified[0].character == st.character_of(near) == 42
    # 0 and 3 share a class mod 3, so A = (0, 3) + {0, 3} holds 3 twice
    with pytest.raises(st.PreconditionError, match="collided"):
        st.doubled_prefix([0, 3], 3)
    # the element budget is checked before A is built: 4 * 2^2 elements
    monkeypatch.setattr(core, "ELEMENT_LIMIT", 15)
    with pytest.raises(st.ResourceLimitError, match="element budget"):
        st.doubled_prefix(near.elements, 9)


def test_doubled_terms_refuses_the_size_of_its_own_steps():
    # 2^62 mod 1 takes 40 steps: 2 << 40 elements, refused before any is built,
    # and the certificate refuses its prefix end before that
    assert core.doubling_reduction(2**62, 1)[0] == 40
    with pytest.raises(st.ResourceLimitError, match="element budget"):
        core.doubled_terms([0, 2**62], 1)
    with pytest.raises(st.ResourceLimitError, match="mask budget"):
        st.doubled_prefix([0, 2**62], 1)


def test_doubled_prefix_mask_budget(monkeypatch):
    # checked before any tuple or mask: max A + 4N, the end of the prefix
    with pytest.raises(st.ResourceLimitError, match="mask budget"):
        st.doubled_prefix([0, 1], 2**26)
    monkeypatch.setattr(core, "BIT_LIMIT", 14)
    assert predicted_prefix((0, 2), 3) == (0, 2, 3, 5, 9, 11, 12, 14)
    profile, _ = st.doubled_prefix([0, 2], 3)
    assert profile == st.detect_character(predicted_prefix((0, 2), 3)) == st.CharacterProfile(2, 1, 3, 2)
    monkeypatch.setattr(core, "BIT_LIMIT", 13)
    with pytest.raises(st.ResourceLimitError, match="mask budget"):
        st.doubled_prefix([0, 2], 3)
