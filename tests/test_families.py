"""Named families: exact fixtures, scaling laws, and builder validation."""

import pytest

import stanley as st
from stanley.families import BLOCK, DOUBLING_BLOCK, MOD10_A, MOD10_B, R_VARIANTS, SEED_02, UNIT

from conftest import naive_ladder


def test_elementary_blocks():
    assert BLOCK == st.ResidueSet(9, (0, 1, 6, 7))
    for block in (DOUBLING_BLOCK, SEED_02, MOD10_A, MOD10_B, BLOCK):
        assert st.verify(block).is_near_modular


def test_T_tower():
    assert st.build_T(0) == UNIT
    assert st.build_T(1) == BLOCK
    for n, top in ((1, 7), (2, 70), (3, 637)):
        tn = st.build_T(n)
        assert tn.modulus == 9**n
        assert len(tn) == 4**n
        assert tn.max_element == top  # 7 * (9**n - 1) / 8
        assert st.verify(tn).is_modular


def test_T_recurrence():
    for n in (0, 1, 2):
        assert st.build_T(n + 1) == st.product(st.build_T(n), BLOCK)


def test_T_max_has_alternating_digits():
    # base-3 digits of max(T_n) alternate 1,2,1,2,... from the units place
    for n in range(1, 5):
        want = sum((2 if i % 2 else 1) * 3**i for i in range(2 * n))
        assert st.build_T(n).max_element == want


def test_Acal_fixtures():
    assert st.build_Acal(0) == st.ResidueSet(3, (0, 2))
    assert st.build_Acal(1) == st.ResidueSet(27, (0, 1, 6, 7, 10, 15, 16, 18))
    for n in (0, 1, 2):
        a = st.build_Acal(n)
        assert a.modulus == 3 ** (2 * n + 1)
        assert len(a) == 2 * 4**n
        assert a.max_element == 2 * 9**n
        assert st.verify(a).is_modular
        assert st.character_of(a) == 9**n + 1


def test_Bcal_fixtures():
    assert st.build_Bcal(1) == st.ResidueSet(9, (0, 2, 5, 6))
    for n in (1, 2):
        b = st.build_Bcal(n)
        assert b.modulus == 9**n
        assert len(b) == 4**n
        assert b.max_element == 2 * 3 ** (2 * n - 1)
        assert st.verify(b).is_modular


def test_U_trail():
    assert st.build_U(1) == st.ResidueSet(3, (0, 2))
    assert st.build_Utilde(1) == st.ResidueSet(9, (0, 2, 3, 5))
    for n in (1, 2):
        u = st.build_U(n)
        assert u.modulus == 3 ** (2 * n - 1)
        assert st.verify(u).is_modular


def test_At_ladder():
    for t in range(1, 9):
        a = st.build_At(t)
        report = st.verify(a)
        assert report.is_modular
        assert a.modulus == 3**t
        assert len(a) == 2**t
        assert a.max_element == 2 * 3 ** (t - 1)
        assert st.character_of(a) == 3 ** (t - 1) + 1
    for t in range(1, 11):
        assert st.build_At(t) == naive_ladder(t)
    for n in range(5):
        assert st.build_Acal(n) == st.build_At(2 * n + 1)
    for n in range(1, 6):
        assert st.build_Bcal(n) == st.build_At(2 * n)
    for build in (st.build_Acal, st.build_Bcal):
        with pytest.raises(st.ResourceLimitError):
            build(2**62)


def test_At_alternates_between_swap_families():
    assert st.build_At(1) == st.build_Acal(0)
    assert st.build_At(2) == st.build_Bcal(1)
    assert st.build_At(3) == st.build_Acal(1)
    assert st.build_At(4) == st.build_Bcal(2)


def test_Atk_grid():
    for t in (1, 2, 3, 4):
        for k in (2, 4, 5, 7, 8, 10, 11, 13):
            a = st.build_Atk(t, k)
            assert st.verify(a).is_near_modular
            assert a.modulus == 3**t
            assert a.max_element == k * 3 ** (t - 1)
            assert st.character_of(a) == (2 * k - 3) * 3 ** (t - 1) + 1


def test_Atk_base_case_is_At():
    for t in (1, 2, 3):
        assert st.build_Atk(t, 2) == st.build_At(t)


def test_Atk_rejects_bad_k():
    with pytest.raises(st.PreconditionError):
        st.build_Atk(2, 1)
    with pytest.raises(st.PreconditionError):
        st.build_Atk(2, 3)
    with pytest.raises(st.PreconditionError):
        st.build_Atk(2, 6)


def test_R_variant_maxima():
    tops = {"plain": 2, "prime": 7, "doubleprime": 11, "tripleprime": 16}
    for n in (0, 1, 2):
        for variant in R_VARIANTS:
            r = st.build_R(n, variant)
            assert r.modulus == 3 ** (n + 1)
            assert r.max_element == tops[variant] * 3**n
            assert st.verify(r).is_near_modular
    with pytest.raises(st.MalformedInputError):
        st.build_R(1, "quadrupleprime")


def test_R_variants_are_Atk_members():
    # the constructions build_R used before it called build_Atk
    direct = {
        "plain": (2, lambda at: at),
        "prime": (7, lambda at: st.shift_max(st.scale(at, 2), 1)),
        "doubleprime": (11, lambda at: st.shift_max(at, 3)),
    }
    for n in range(9):
        for variant, (k, build) in direct.items():
            r = st.build_R(n, variant)
            assert r == st.build_Atk(n + 1, k) == build(st.build_At(n + 1))
    with pytest.raises(st.MalformedInputError, match=r"unknown R variant \['plain'\]"):
        st.build_R(1, ["plain"])


def test_CDEF_geometry():
    tops = {"C": 50, "D": 55, "E": 35, "F": 40}
    chars = {"C": 70, "D": 80, "E": 40, "F": 50}
    for n in (0, 1, 2):
        for letter in ("C", "D", "E", "F"):
            s = st.build_CDEF(n, letter)
            assert s.modulus == 10 * 3 ** (n + 1)
            assert len(s) == 2 ** (n + 1) * 4
            assert s.max_element == tops[letter] * 3**n
            assert st.character_of(s) == chars[letter] * 3**n + 1
            assert st.verify(s).is_near_modular


def test_family_id_round_trip():
    fid = st.parse_family("Atk:3,7")
    assert fid == st.FamilyId("Atk", (3, 7))
    assert str(fid) == "Atk:3,7"
    assert st.build_family("Atk:3,7") == st.build_family(fid) == st.build_Atk(3, 7)


def test_family_id_validation():
    with pytest.raises(st.MalformedInputError):
        st.FamilyId("Q", (1,))
    with pytest.raises(st.MalformedInputError):
        st.FamilyId("Atk", (3,))  # wrong arity
    with pytest.raises(st.MalformedInputError):
        st.parse_family("Acal")  # missing parameters
    with pytest.raises(st.MalformedInputError):
        st.parse_family("Acal:x")
    with pytest.raises(st.MalformedInputError):
        st.build_family("Acal:-1")
