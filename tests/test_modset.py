"""Residue-set predicates, products, transforms, and the file format."""

import io
import math

import pytest

import stanley as st
from stanley import core, modset

from conftest import naive_is_mod_ap, naive_is_mod_covered, naive_mod_3_free, naive_mod_covers_all

ACAL1 = st.ResidueSet(27, (0, 1, 6, 7, 10, 15, 16, 18))


def test_residue_set_validation():
    with pytest.raises(st.MalformedInputError):
        st.ResidueSet(9, (1, 2))  # 0 must be a member
    with pytest.raises(st.MalformedInputError):
        st.ResidueSet(9, (0, 2, 2))
    with pytest.raises(st.MalformedInputError):
        st.ResidueSet(9, (0, 3, 2))
    with pytest.raises(st.MalformedInputError):
        st.ResidueSet(0, (0,))
    assert st.ResidueSet.of(9, [6, 0, 2]).elements == (0, 2, 6)


def test_elements_may_exceed_modulus():
    row = st.ResidueSet(30, (0, 10, 13, 21, 27, 31, 34, 48))
    assert row.max_element == 48
    assert st.verify(row).is_near_modular


def test_is_mod_ap_examples():
    assert not naive_is_mod_ap(0, 1, 3, 9)
    assert naive_is_mod_ap(0, 2, 4, 9)
    assert naive_is_mod_ap(0, 5, 1, 9)  # 0+1 == 2*5 mod 9


def test_is_mod_covered_allows_self_pairs():
    a = st.ResidueSet(3, (0, 2))
    # residue 1 needs the pair x = y = 2
    assert naive_is_mod_covered(1, a)
    assert all(naive_is_mod_covered(r, ACAL1) for r in range(27))


def test_verify_modular_fixture():
    report = st.verify(ACAL1)
    assert report.is_near_modular and report.is_modular
    assert report.uncovered_residues == ()
    assert report.witness_violation is None


def test_verify_detects_progression():
    report = st.verify(st.ResidueSet(9, (0, 1, 2, 7)))
    assert not report.is_near_modular
    assert report.witness_violation is not None


def test_verify_detects_uncovered():
    report = st.verify(st.ResidueSet(5, (0, 1)))
    assert not report.is_near_modular
    assert report.uncovered_residues == (3, 4) and report.uncovered_count == 2
    # past UNCOVERED_SHOWN the report lists the lowest and counts them all
    report = st.verify(st.ResidueSet(2**20, (0, 1)))
    assert report.uncovered_residues == tuple(range(3, 3 + modset.UNCOVERED_SHOWN))
    assert report.uncovered_count == 2**20 - 3


def test_verify_rejects_repeated_residue():
    report = st.verify(st.ResidueSet(5, (0, 5)))
    assert not report.is_near_modular


def test_verify_rejects_half_modulus_collision():
    # for even N, x and x + N/2 double to the same residue
    report = st.verify(st.ResidueSet(6, (0, 3)))
    assert not report.is_near_modular


def test_verify_near_but_not_modular():
    shifted = st.shift_max(st.ResidueSet(3, (0, 2)), 1)
    report = st.verify(shifted)
    assert report.is_near_modular and not report.is_modular


def test_verify_mask_budget(monkeypatch):
    monkeypatch.setattr(core, "BIT_LIMIT", 27)
    assert st.verify(ACAL1).is_modular
    with pytest.raises(st.ResourceLimitError):
        st.verify(st.ResidueSet(28, (0, 1)))


def test_verify_matches_naive_oracles(small_corpus):
    for a in small_corpus:
        report = st.verify(a)
        assert report.is_near_modular
        assert naive_mod_3_free(a)
        assert naive_mod_covers_all(a)


def test_product_block():
    got = st.product(st.ResidueSet(3, (0, 1)), st.ResidueSet(3, (0, 2)))
    assert got == st.ResidueSet(9, (0, 1, 6, 7))


def test_product_identity():
    unit = st.ResidueSet(1, (0,))
    assert st.product(unit, ACAL1) == ACAL1
    assert st.product(ACAL1, unit) == ACAL1


def test_product_cardinality_and_verdict(small_corpus):
    a, b = small_corpus[1], small_corpus[2]
    ab = st.product(a, b)
    assert ab.modulus == a.modulus * b.modulus
    assert len(ab) == len(a) * len(b)
    assert st.verify(ab).is_near_modular


def test_product_element_budget(monkeypatch):
    # refused before any sum is built, so the limit can be tested small
    monkeypatch.setattr(modset, "ELEMENT_LIMIT", 16)
    block = st.ResidueSet(9, (0, 1, 6, 7))
    assert len(st.product(block, block)) == 16
    with pytest.raises(st.ResourceLimitError):
        st.product(block, st.product(block, st.ResidueSet(3, (0, 1))))
    assert len(st.build_family("T:2")) == 16  # no block is built past the result
    with pytest.raises(st.ResourceLimitError):
        st.build_family("T:3")


def test_product_collision_rejected():
    with pytest.raises(st.PreconditionError, match="product sums collided"):
        st.product(st.ResidueSet(2, (0, 2)), st.ResidueSet(3, (0, 1)))


def test_scale_preserves_structure():
    doubled = st.scale(st.ResidueSet(3, (0, 2)), 2)
    assert doubled == st.ResidueSet(3, (0, 4))
    assert st.verify(doubled).is_near_modular


def test_scale_requires_coprime_factor():
    with pytest.raises(st.PreconditionError):
        st.scale(st.ResidueSet(3, (0, 2)), 3)
    with pytest.raises(st.PreconditionError):
        st.scale(st.ResidueSet(9, (0, 1, 6, 7)), 6)


def test_shift_max_moves_only_the_top():
    shifted = st.shift_max(st.ResidueSet(3, (0, 2)), 2)
    assert shifted == st.ResidueSet(3, (0, 8))
    assert st.character_of(shifted) == st.character_of(st.ResidueSet(3, (0, 2))) + 2 * 2 * 3
    with pytest.raises(st.PreconditionError):
        st.shift_max(st.ResidueSet(3, (0, 2)), 0)


def test_to_modular_single_step():
    reduced, steps = st.to_modular(st.ResidueSet(3, (0, 4)))
    assert steps == 1
    assert reduced == st.ResidueSet(9, (0, 3, 4, 7))
    assert st.verify(reduced).is_modular


def test_to_modular_already_modular():
    reduced, steps = st.to_modular(ACAL1)
    assert steps == 0 and reduced == ACAL1


def test_to_modular_two_steps():
    row = st.load_appendix().row(30, 74)
    reduced, steps = st.to_modular(row)
    assert steps == 2 and reduced.modulus == 270
    assert st.verify(reduced).is_modular
    assert st.character_of(reduced) == st.character_of(row)


def test_power_equals_successive_products():
    for a, block in ((ACAL1, st.ResidueSet(3, (0, 1))), (st.ResidueSet(3, (0, 2)), st.build_T(1))):
        folded = a
        for n in range(6):
            assert st.power(a, block, n) == folded
            folded = st.product(folded, block)
    with pytest.raises(st.MalformedInputError):
        st.power(ACAL1, ACAL1, -1)


def test_doubling_reduction_counts_without_building():
    row = st.load_appendix().row(30, 74)
    assert st.doubling_reduction(row) == (2, 270)
    assert st.doubling_reduction(ACAL1) == (0, 27)
    huge = st.shift_max(st.build_T(1), 10**11)
    steps, modulus = st.doubling_reduction(huge)
    assert modulus == 9 * 3**steps and huge.max_element + 9 * (3**steps - 1) // 2 < modulus


def test_to_modular_over_budget_builds_little(monkeypatch):
    # a form of 4 * 2^10 elements under a budget of 2^10 sums; one product
    # at a time would build 8 + 16 + ... + 1024 = 2040 sums before the refusal
    near = st.shift_max(st.build_T(1), 10**4)  # ten doubling steps
    built = []
    real = modset.product

    def counting(a, b):
        out = real(a, b)
        built.append(len(out))
        return out

    monkeypatch.setattr(modset, "ELEMENT_LIMIT", 1 << 10)
    monkeypatch.setattr(modset, "product", counting)
    with pytest.raises(st.ResourceLimitError, match="element budget"):
        st.to_modular(near)
    assert sum(built) < modset.ELEMENT_LIMIT


def test_to_modular_takes_no_extra_steps(corpus):
    # each doubling adds the old modulus to the max, so after j steps the
    # max is max + N*(3^j - 1)/2; minimality means the second-to-last
    # stage still had max >= modulus
    for member in corpus:
        reduced, steps = st.to_modular(member)
        assert st.verify(reduced).is_modular
        if steps:
            prior_max = member.max_element + member.modulus * (3 ** (steps - 1) - 1) // 2
            assert prior_max >= member.modulus * 3 ** (steps - 1)


def test_character_of_examples():
    assert st.character_of(ACAL1) == 10
    assert st.character_of(st.ResidueSet(3, (0, 2))) == 2
    assert st.character_of(st.ResidueSet(1, (0,))) == 0
    with pytest.raises(st.NegativeCharacterError):
        st.character_of(st.ResidueSet(9, (0, 1)))


def test_format_and_parse_round_trip(small_corpus):
    for a in small_corpus:
        assert st.parse_set(st.format_set(a)) == a


def test_parse_is_whitespace_tolerant():
    assert st.parse_set("  N = 27 ;  0 , 1,6, 7,10,15 ,16,18 ") == ACAL1


def test_parse_rejects_malformed_lines():
    for line in (
        "27; 0,1",
        "N=27 0,1",
        "N=27;",
        "N=27; 0,1,",
        "N=27; 0,-1",
        "N=27; 0,1x",
        "N=09; 0,1",
        "N=9; 0,011",  # leading zeros make the token ambiguous
        "N=\u00b2; 0",  # digits are ASCII only
        "N=\u0663; 0,\u0661",
        "N=3; 0,\uff11",
        "N=1_0; 0",
        "N=2 7; 0,1,6,7,10,15,16,18",  # a gap inside the modulus, as inside an element
        "M=27; 0,1",
        "N 27; 0,1",
    ):
        with pytest.raises(st.FormatError):
            st.parse_set(line)


def test_parse_rejects_unsorted_elements():
    with pytest.raises(st.MalformedInputError):
        st.parse_set("N=9; 0,7,6")


def test_read_sets_skips_comments_and_blanks():
    text = "# header\n\nN=3; 0,1\n  # inline comment line\nN=9; 0,1,6,7\n"
    sets = st.read_sets(text.splitlines())
    assert [a.modulus for a in sets] == [3, 9]


def test_parse_long_number_is_a_resource_limit():
    # longer than 2^63 - 1 has digits: over the checked range, like 2^63 itself
    for line in ("N=1; 0," + "1" * 5000, "N=" + "9" * 20 + "; 0", "N=1; 0,9223372036854775808"):
        with pytest.raises(st.ResourceLimitError):
            st.parse_set(line)
    assert st.parse_set("N=1; 0,9223372036854775807").max_element == (1 << 63) - 1


def test_load_set_file_errors(tmp_path):
    with pytest.raises(st.MalformedInputError):
        st.load_set_file(str(tmp_path / "missing.txt"))
    with pytest.raises(st.MalformedInputError):
        st.load_set_file(str(tmp_path))  # a directory
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"N=3; 0,1\nN=3; 0,\xc2\xb2\n")
    with pytest.raises(st.FormatError):
        st.load_set_file(str(bad))


@pytest.mark.parametrize("source", [0, io.StringIO("N=3; 0,2\n"), b"sets.txt"])
def test_load_set_file_takes_only_a_path(source):
    # an int would be read as a file descriptor and closed; a stream is no path
    with pytest.raises(st.MalformedInputError, match="not a path"):
        st.load_set_file(source)


def test_load_set_file_path_and_handle(tmp_path):
    target = tmp_path / "sets.txt"
    target.write_text("N=3; 0,2\nN=27; 0,1,6,7,10,15,16,18\n", encoding="ascii")
    from_path = st.load_set_file(str(target))
    assert st.load_set_file(target) == from_path  # an os.PathLike path
    # the CLI reads '-' the same way: read_sets over stdin's lines
    with open(target, encoding="ascii") as handle:
        from_handle = st.read_sets(handle.read().splitlines())
    assert from_path == from_handle
    assert from_path[1] == ACAL1
