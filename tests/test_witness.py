"""Recipe dispatch, bundled tables, and the execute/verify pipeline."""

import dataclasses
import os

import pytest

import stanley as st
from stanley import witness
from stanley.witness import SMALL_CASE_PARAMS, _split_pow3


def test_forbidden_characters_rejected():
    for lam in (1, 3, 5, 9, 11, 15):
        with pytest.raises(st.ForbiddenCharacterError):
            st.witness_for(lam)


def test_bad_targets_rejected():
    with pytest.raises(st.NegativeCharacterError):
        st.witness_for(-1)
    with pytest.raises(st.MalformedInputError):
        st.witness_for(2.5)
    with pytest.raises(st.MalformedInputError):
        st.witness_for(True)


def test_dispatch_trivial_zero():
    recipe = st.witness_for(0)
    assert recipe.strategy == "trivial-zero"
    assert recipe.base == st.ResidueSet(1, (0,))


def test_dispatch_even_ladder():
    recipe = st.witness_for(100)  # 99 = 11 * 9
    assert recipe.strategy == "even-ladder"
    assert recipe.base == st.FamilyId("Atk", (3, 7))
    assert (recipe.expected_max, recipe.expected_modulus) == (63, 27)


def test_dispatch_mod30_table():
    recipe = st.witness_for(63)  # (63-1)/2 + 15 = 46
    assert recipe.strategy == "mod30-table"
    assert recipe.base == st.TableRef(30, 46)
    assert recipe.shift_count == 0


def test_dispatch_mod28_table():
    recipe = st.witness_for(91)  # 10*9 + 1; (91-1)/2 + 14 = 59
    assert recipe.strategy == "mod28-table"
    assert recipe.base == st.TableRef(28, 59)
    assert recipe.shift_count == 0
    shifted = st.witness_for(181)  # same track, one band higher
    assert shifted.base == st.TableRef(28, 76)
    assert shifted.shift_count == 1


def test_dispatch_mod60_family():
    recipe = st.witness_for(121)  # (40 + 60*0) * 3 + 1
    assert recipe.strategy == "mod60-family"
    assert recipe.base == st.FamilyId("E", (1,))
    assert recipe.shift_count == 0
    assert recipe.expected_modulus == 90


def test_dispatch_small_cases():
    for lam in (7, 31, 61):
        recipe = st.witness_for(lam)
        assert recipe.strategy == "small-case-search"
        assert isinstance(recipe.base, st.SearchSpec)
    assert sorted(SMALL_CASE_PARAMS) == [
        v for v in range(7, 62, 2) if v not in (9, 11, 15)
    ]


def test_dispatch_totality_to_ten_thousand():
    # pure arithmetic sweep; the recipe invariant is enforced on construction
    for lam in range(10_001):
        if lam in st.FORBIDDEN_CHARACTERS:
            continue
        recipe = st.witness_for(lam)
        assert 2 * recipe.expected_max + 1 - recipe.expected_modulus == lam
        assert recipe.strategy in st.STRATEGIES


def test_even_ladder_parameters_to_two_thousand():
    for lam in range(2, 2001, 2):
        recipe = st.witness_for(lam)
        assert recipe.strategy == "even-ladder"
        t, k = recipe.base.params
        assert k >= 2 and k % 3 != 0
        assert (2 * k - 3) * 3 ** (t - 1) + 1 == lam


def test_mod60_selection_formulas():
    starts = {"C": 70, "D": 80, "E": 40, "F": 50}
    seen = set()
    for lam in range(31, 10_001, 30):
        recipe = st.witness_for(lam)
        if recipe.strategy != "mod60-family":
            continue
        letter = recipe.base.name
        (n,) = recipe.base.params
        k = recipe.shift_count
        assert (starts[letter] + 60 * k) * 3**n + 1 == lam
        seen.add(letter)
    assert seen == {"C", "D", "E", "F"}


def test_recipe_invariant_enforced():
    with pytest.raises(st.InvariantViolationError):
        st.WitnessRecipe(5, "even-ladder", st.FamilyId("Atk", (1, 2)), 0, 3, 3)
    with pytest.raises(st.MalformedInputError):
        st.WitnessRecipe(2, "no-such-strategy", st.FamilyId("Atk", (1, 2)), 0, 2, 3)
    with pytest.raises(st.MalformedInputError):
        st.TableRef(29, 57)


def test_split_pow3():
    assert _split_pow3(99) == (2, 11)
    assert _split_pow3(1) == (0, 1)
    assert _split_pow3(54) == (3, 2)


def test_load_appendix_shape():
    tables = st.load_appendix()
    assert len(tables.mod28) == 26
    assert len(tables.mod30) == 28
    assert tables.row(28, 57).elements == (0, 5, 11, 13, 16, 18, 24, 57)
    assert tables.row(30, 46).elements == (0, 7, 9, 10, 17, 19, 26, 46)
    with pytest.raises(st.PreconditionError):
        tables.row(28, 70)
    with pytest.raises(st.PreconditionError):
        tables.row(29, 57)


def test_appendix_rows_all_verify():
    tables = st.load_appendix()
    for modulus, rows in ((28, tables.mod28), (30, tables.mod30)):
        for row in rows:
            assert st.verify(row).is_near_modular
            assert st.character_of(row) == 2 * row.max_element + 1 - modulus


def test_appendix_rows_survive_one_shift():
    tables = st.load_appendix()
    for row in tables.mod28 + tables.mod30:
        assert st.verify(st.shift_max(row, 1)).is_near_modular


def test_appendix_erratum_entry():
    report = st.appendix_check()
    assert (report.rows_mod28, report.rows_mod30) == (26, 28)
    assert len(report.errata) == 1
    entry = report.errata[0]
    assert (entry.modulus, entry.max_element) == (28, 61)
    assert entry.resolution == "natural-reading-verified"
    assert "011" in entry.note
    assert entry.row == (0, 11, 13, 18, 24, 29, 44, 61)
    # the served row is the one the dispatcher will use
    assert st.load_appendix().row(28, 61).elements == entry.row


@pytest.fixture
def fresh_appendix():
    """Tables parsed anew in the test, and again by whoever loads them next."""
    st.load_appendix.cache_clear()
    yield
    st.load_appendix.cache_clear()


def test_flagged_row_that_fails_verify_raises(monkeypatch, fresh_appendix):
    real_verify = witness.verify

    def rejects_the_flagged_row(a):
        report = real_verify(a)
        if (a.modulus, a.max_element) == (28, 61):
            return dataclasses.replace(report, is_near_modular=False, is_modular=False)
        return report

    monkeypatch.setattr(witness, "verify", rejects_the_flagged_row)
    with pytest.raises(st.VerificationError, match="appendix"):
        st.load_appendix()


def test_table_that_leaves_its_band_fails_to_load(monkeypatch, fresh_appendix):
    bands = dict(witness._BANDS)
    bands[30] = bands[30][1:] + (75,)  # the file's first row, top 46, is now out of band
    monkeypatch.setattr(witness, "_BANDS", bands)
    with pytest.raises(st.VerificationError, match="mod 30 table tops") as caught:
        st.load_appendix()
    assert caught.value.check == "appendix"


def test_every_table_row_is_reached_and_shifts_to_the_expected_top():
    tables = st.load_appendix()
    reached = set()
    for lam in range(63, 100_001):
        recipe = st.witness_for(lam)
        if recipe.strategy not in ("mod28-table", "mod30-table"):
            continue
        row = tables.row(recipe.base.modulus, recipe.base.max_element)
        assert row.modulus == recipe.expected_modulus
        assert row.max_element + recipe.shift_count * row.modulus == recipe.expected_max
        reached.add((row.modulus, row.max_element))
    # every mod-30 row is reached; the mod-28 table serves only 10*3**n + 1 and
    # 20*3**n + 1, whose tops 5*3**n + 14 and 10*3**n + 14 take 12 residues mod
    # 28 (3 has order 6 mod 28), so 12 of its 26 rows are reached
    served28 = {(c * 3**n + 14) % 28 for c in (5, 10) for n in range(6)}
    assert reached == {(30, row.max_element) for row in tables.mod30} | {
        (28, row.max_element) for row in tables.mod28 if row.max_element % 28 in served28
    }
    assert len(reached) == 28 + 12


def test_execute_smallest_even():
    result = st.execute_and_verify(st.witness_for(2), deep=True)
    assert result.witness == st.ResidueSet(3, (0, 2))
    assert result.character == 2
    assert result.deep_verified
    assert result.profile.character == 2
    assert result.profile.settle_level == 1
    assert result.omitted.omega == 1


def test_execute_trivial_zero_deep():
    result = st.execute_and_verify(st.witness_for(0), deep=True)
    assert result.character == 0
    assert result.profile.character == 0
    assert result.omitted.omega is None


def test_execute_table_row_deep():
    result = st.execute_and_verify(st.witness_for(63), deep=True)
    assert result.modular_form.modulus == 90
    assert result.doubling_steps == 1
    assert result.profile.character == 63
    assert result.profile.levels_verified >= 2
    assert result.omitted.omega is not None and result.omitted.omega < 63


def test_repr_of_a_wide_omitted_mask():
    # the omitted mask at this character is 20,006 bits, past the 4,300 digits
    # Python prints as a decimal int; the repr shows omega, not the mask
    result = st.execute_and_verify(st.witness_for(40000), deep=True)
    assert result.omitted.mask.bit_length() > 20000
    assert f"OmittedSet(omega={result.omitted.omega}, count=" in repr(result)


def test_execute_search_strategy():
    result = st.execute_and_verify(st.witness_for(7), deep=True)
    assert result.witness == st.ResidueSet(10, (0, 1, 7, 8))
    assert result.search_nodes > 0
    assert result.profile.character == 7


def test_execute_respects_deep_cap():
    result = st.execute_and_verify(st.witness_for(63), deep=True, deep_cap=50)
    assert not result.deep_verified
    assert result.profile is None
    assert "doubling-structure" not in result.checks
    assert result.checks == ("near-modular", "max-element", "modulus", "character")


#: Atk:1,21523363 mod 3 reduces to 131072 elements mod 3**17, so max A + 4N passes BIT_LIMIT
OVER_BUDGET_CHARACTER = 43046724


def test_deep_prefix_over_the_mask_budget_raises_before_building_it():
    recipe = st.witness_for(OVER_BUDGET_CHARACTER)
    assert not st.execute_and_verify(recipe, deep=True).deep_verified  # default deep_cap
    with pytest.raises(st.ResourceLimitError, match="mask budget"):
        st.execute_and_verify(recipe, deep=True, deep_cap=10**9)


@pytest.mark.parametrize("lam", [600, 1999])
def test_accepted_certificate_regrows_nothing(monkeypatch, lam):
    def no_regrowth(*args, **kwargs):
        raise AssertionError("greedy_extend was called")

    monkeypatch.setattr(witness, "greedy_extend", no_regrowth)
    result = st.execute_and_verify(st.witness_for(lam), deep=True)
    assert result.deep_verified
    assert result.checks[-2:] == ("doubling-structure", "omitted-bound")


def test_rejected_certificate_names_the_first_departing_term(monkeypatch):
    # no verified witness fails the certificate, so hand the deep phase a form
    # whose greedy extension takes 3 where A + {0, N, 3N, 4N} predicts 5
    monkeypatch.setattr(witness, "to_modular", lambda a: (st.ResidueSet(5, (0, 1)), 0))
    with pytest.raises(st.VerificationError, match="at term 2: 3, not 5") as err:
        st.execute_and_verify(st.witness_for(10), deep=True)
    assert err.value.check == "doubling-structure"


def test_execute_rejects_wrong_geometry():
    base = st.load_appendix().row(28, 58)  # max 58, not the expected 57
    recipe = st.WitnessRecipe(87, "mod28-table", base, 0, 57, 28)
    with pytest.raises(st.VerificationError) as err:
        st.execute_and_verify(recipe)
    assert err.value.check == "max-element"

    other = st.load_appendix().row(30, 46)  # modulus 30, not 28
    recipe = st.WitnessRecipe(65, "mod30-table", other, 0, 46, 28)
    with pytest.raises(st.VerificationError) as err:
        st.execute_and_verify(recipe)
    assert err.value.check == "modulus"


def test_execute_rejects_non_witness():
    bad = st.ResidueSet(9, (0, 1, 2, 7))  # (2, 0, 7) is a mod-AP, so not near-modular
    recipe = st.WitnessRecipe(6, "small-case-search", bad, 0, 7, 9)
    with pytest.raises(st.VerificationError) as err:
        st.execute_and_verify(recipe)
    assert err.value.check == "near-modular"


def test_execute_search_budget_surfaces():
    starved = st.WitnessRecipe(
        7, "small-case-search", st.SearchSpec(10, 8, 4, budget=1), 0, 8, 10
    )
    with pytest.raises(st.BudgetExceededError):
        st.execute_and_verify(starved)


def test_execute_search_exhausted_surfaces():
    barren = st.WitnessRecipe(
        0, "small-case-search", st.SearchSpec(9, 4, 3), 0, 4, 9
    )
    with pytest.raises(st.VerificationError) as err:
        st.execute_and_verify(barren)
    assert err.value.check == "search"


def test_coverage_matches_documented_small_sweep():
    report = st.coverage_report(16, deep=False)
    verified = [e.character for e in report.entries if e.status == "verified"]
    excluded = [e.character for e in report.entries if e.status == "excluded"]
    assert verified == [0, 2, 4, 6, 7, 8, 10, 12, 13, 14, 16]
    assert excluded == [1, 3, 5, 9, 11, 15]
    assert report.all_admissible_verified


def test_coverage_precondition():
    with pytest.raises(st.PreconditionError):
        st.coverage_report(10)


def test_coverage_threads_capped_at_cpu_count(two_cpus, monkeypatch):
    with pytest.raises(st.MalformedInputError):
        st.coverage_report(16, threads=3)
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown count: one worker
    with pytest.raises(st.MalformedInputError):
        st.coverage_report(16, threads=2)


def test_coverage_threads_agree(reports_two_cpus):
    solo = st.coverage_report(24, deep=True)
    pooled = st.coverage_report(24, deep=True, threads=2)
    assert solo.entries == pooled.entries


def test_coverage_report_rendering():
    report = st.coverage_report(16, deep=True)
    lines = report.to_text_lines()
    assert lines[-1] == "characters 0..16: 11 verified, 6 excluded, 0 failed"
    assert any("excluded" in line for line in lines)
    blob = report.to_json_dict()
    assert blob["verified"] == 11 and blob["excluded"] == 6 and blob["failed"] == 0
    assert len(blob["entries"]) == 17
