"""Recipe dispatch, bundled tables, and the execute/verify pipeline."""

import dataclasses
import importlib.resources

import pytest

import stanley as st
from stanley import cli, core, modset, witness
from stanley.witness import SMALL_CASE_BASES, _split_pow3


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
    for lam, row in SMALL_CASE_BASES.items():
        recipe = st.witness_for(lam)
        assert recipe.strategy == "small-case-search"
        assert recipe.base == row
        assert recipe.shift_count == 0
    assert sorted(SMALL_CASE_BASES) == [
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


def test_appendix_check_proves_every_row_deep(monkeypatch):
    # no character dispatches to the erratum row (top 61), so only the audit
    # proves its greedy character and omitted bound
    row = st.load_appendix().row(28, 61)
    real = witness.doubled_prefix

    def rejects_the_flagged_row(seed, modulus, *form):
        certified = real(seed, modulus, *form)
        if (tuple(seed), modulus) == (row.elements, row.modulus):
            return None, certified[1]  # no doubling profile
        return certified

    monkeypatch.setattr(witness, "doubled_prefix", rejects_the_flagged_row)
    with pytest.raises(st.VerificationError) as err:
        st.appendix_check()
    assert str(err.value) == (
        "doubling-structure: greedy extension of N=252; 0,11,13,18,24,28,29,39,41,44,46,"
        "52,57,61,72,84,89,95,97,102,108,112,113,123,125,128,130,136,141,145,156,173"
        " does not repeat with character 95"
    )


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


def _serve_tables(monkeypatch, tmp_path, edit):
    """Serve the bundled tables from ``tmp_path``, mod28.txt passed through ``edit``."""
    (tmp_path / "data").mkdir()
    for name in ("mod28.txt", "mod30.txt"):
        text = (importlib.resources.files("stanley") / "data" / name).read_text("ascii")
        (tmp_path / "data" / name).write_text(edit(text) if name == "mod28.txt" else text)
    monkeypatch.setattr(importlib.resources, "files", lambda package: tmp_path)


def test_table_row_with_another_modulus_fails_to_load(monkeypatch, tmp_path, fresh_appendix):
    _serve_tables(monkeypatch, tmp_path, lambda text: text.replace(
        "N=28; 0,5,11,13,16,18,24,57", "N=29; 0,5,11,13,16,18,24,57"))
    with pytest.raises(st.FormatError, match="^mod28.txt: expected modulus 28, got 29$"):
        st.load_appendix()


def test_blank_line_ends_an_erratum_note(monkeypatch, tmp_path, capsys, fresh_appendix):
    # a blank line between the flag comment and its row leaves the row unflagged
    _serve_tables(monkeypatch, tmp_path, lambda text: text.replace(
        "loading the table fails.\n", "loading the table fails.\n\n"))
    tables = st.load_appendix()
    assert tables.errata == ()
    assert tables.row(28, 61).elements == (0, 11, 13, 18, 24, 29, 44, 61)
    assert cli.main(["erratum-report"]) == 0
    assert capsys.readouterr().out == "no errata\n"


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


def test_table_recipe_starts_from_the_band_row_of_its_residue():
    # the arithmetic low + (top - low) % N picks the one band row per residue
    for modulus in (28, 30):
        by_residue = {top % modulus: top for top in witness._BANDS[modulus]}
        assert len(by_residue) == modulus - 2
        for base_top in by_residue.values():
            for shifts in range(4):
                top = base_top + shifts * modulus
                recipe = witness._table_recipe(2 * top + 1 - modulus, modulus)
                assert recipe.base.max_element == by_residue[top % modulus] == base_top
                assert (recipe.shift_count, recipe.expected_max) == (shifts, top)


def test_deep_character_is_the_witness_character_for_every_strategy():
    # execute_and_verify takes the character from the recipe and compares neither
    # the witness's nor the profile's with it; both must still equal the target
    strategies = set()
    for lam in range(0, 3001, 7):
        if lam in st.FORBIDDEN_CHARACTERS:
            continue
        result = st.execute_and_verify(st.witness_for(lam), deep=True)
        strategies.add(result.recipe.strategy)
        assert result.profile.character == st.character_of(result.witness) == lam
        assert result.character == lam
        assert result.checks == ("near-modular", "max-element", "modulus", "character",
                                 "doubling-structure", "omitted-bound")
    assert strategies == set(witness.STRATEGIES)


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


def test_execute_search_strategy(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("a bundled small-case row ran a search")

    monkeypatch.setattr("stanley.search.search_near_modular", no_search)
    result = st.execute_and_verify(st.witness_for(7), deep=True)
    assert result.witness == st.ResidueSet(10, (0, 1, 7, 8))
    assert result.search_nodes == 0
    assert result.profile.character == 7


def test_deep_verifies_fully_modular_forms_above_100000():
    # one row of each of four strategies whose N passes 10**5; about 0.1 s together
    cases = {59050: "even-ladder", 65611: "mod28-table", 72901: "mod60-family",
             100001: "mod30-table"}
    for lam, strategy in cases.items():
        result = st.execute_and_verify(st.witness_for(lam), deep=True)
        assert result.recipe.strategy == strategy
        top, modulus = result.witness.max_element, result.witness.modulus
        assert st.doubling_reduction(top, modulus)[1] > 10**5
        assert result.deep_verified and result.checks == witness.DEEP_CHECKS
        assert result.omitted.omega < lam


#: Atk:1,21523363 mod 3 reduces to 131072 elements mod 3**17, so max A + 4N passes BIT_LIMIT
OVER_BUDGET_CHARACTER = 43046724


def test_deep_prefix_over_the_mask_budget_raises_before_building_it():
    recipe = st.witness_for(OVER_BUDGET_CHARACTER)
    with pytest.raises(st.ResourceLimitError, match="mask budget"):
        st.execute_and_verify(recipe, deep=True)


@pytest.mark.parametrize("lam", [600, 1999])
def test_accepted_certificate_regrows_nothing(monkeypatch, lam):
    def no_regrowth(*args, **kwargs):
        raise AssertionError("greedy_extend was called")

    def no_rescan(*args, **kwargs):
        raise AssertionError("detect_character was called")

    # the profile is read off the certificate, so P is never built or scanned
    monkeypatch.setattr(core, "greedy_extend", no_regrowth)
    monkeypatch.setattr(core, "detect_character", no_rescan)
    monkeypatch.setattr(witness, "detect_character", no_rescan, raising=False)
    result = st.execute_and_verify(st.witness_for(lam), deep=True)
    assert result.deep_verified
    assert result.profile.character == lam
    assert result.checks[-2:] == ("doubling-structure", "omitted-bound")


def test_rejected_certificate_names_the_form_without_regrowing(monkeypatch):
    # no verified witness fails the certificate, so let through a set that is
    # not near-modular: N=5; 0,1,3 (character 2) is already modular, and its
    # greedy extension takes 4 where A + {0, N, 3N, 4N} predicts 5
    def no_regrowth(*args, **kwargs):
        raise AssertionError("greedy_extend was called")

    real_verify = witness.verify
    monkeypatch.setattr(
        witness, "verify", lambda a: dataclasses.replace(real_verify(a), is_near_modular=True)
    )
    monkeypatch.setattr(core, "greedy_extend", no_regrowth)
    monkeypatch.setattr(witness, "greedy_extend", no_regrowth, raising=False)
    recipe = st.WitnessRecipe(2, "even-ladder", st.ResidueSet(5, (0, 1, 3)), 0, 3, 5)
    with pytest.raises(st.VerificationError) as err:
        st.execute_and_verify(recipe, deep=True)
    assert err.value.check == "doubling-structure"
    assert str(err.value) == (
        "doubling-structure: greedy extension of N=5; 0,1,3 leaves A+{0,N,3N,4N}"
    )


def _omitted_at(monkeypatch, omega):
    """Let the certificate report an omitted value ``omega`` beside the real ones."""
    real = witness.doubled_prefix

    def with_omitted(seed, modulus):
        profile, omitted = real(seed, modulus)
        return profile, core.OmittedSet(omitted.mask | 1 << omega, omitted.scan_bound)

    monkeypatch.setattr(witness, "doubled_prefix", with_omitted)


def test_omitted_value_at_the_character_fails_the_bound(monkeypatch):
    _omitted_at(monkeypatch, 63)
    with pytest.raises(st.VerificationError) as err:
        st.execute_and_verify(st.witness_for(63), deep=True)
    assert err.value.check == "omitted-bound"
    assert str(err.value) == (
        "omitted-bound: largest omitted value 63 reaches the character 63"
    )


def test_omitted_value_below_the_character_passes_the_bound(monkeypatch):
    _omitted_at(monkeypatch, 62)
    result = st.execute_and_verify(st.witness_for(63), deep=True)
    assert result.checks == witness.DEEP_CHECKS and result.omitted.omega == 62


def test_witness_cli_exits_1_on_a_failed_bound(monkeypatch, capsys):
    _omitted_at(monkeypatch, 63)
    assert cli.main(["witness", "--lambda", "63", "--deep"]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("lam", [1500, 1999, 20000])
def test_deep_path_builds_no_modular_form(monkeypatch, lam):
    # the certificate builds A from W and s itself; only modular_form builds it again,
    # through to_modular, so it is read once to_modular is restored
    def no_modular_form(*args, **kwargs):
        raise AssertionError("to_modular was called")

    monkeypatch.setattr(witness, "to_modular", no_modular_form)
    monkeypatch.setattr(modset, "to_modular", no_modular_form)
    result = st.execute_and_verify(st.witness_for(lam), deep=True)
    assert result.deep_verified and result.doubling_steps > 0
    report = st.coverage_report(200)
    assert report.count("verified") == 195 and report.all_admissible_verified
    monkeypatch.undo()
    assert result.modular_form == st.to_modular(result.witness)[0]


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


def test_static_coverage_rows_are_verified():
    # a static sweep asked for no deep phase, so its rows are "verified" without one
    static = st.coverage_report(100, deep=False)
    assert static.count("verified") == 95
    assert not any(e.deep_verified for e in static.entries)
    assert set(static.to_json_dict()) == {"lambda_max", "verified", "excluded", "failed", "entries"}
    assert static.summary_line() == "characters 0..100: 95 verified, 6 excluded, 0 failed"


def test_coverage_report_rendering():
    report = st.coverage_report(16, deep=True)
    lines = report.to_text_lines()
    assert lines[-1] == "characters 0..16: 11 verified, 6 excluded, 0 failed"
    assert any("excluded" in line for line in lines)
    blob = report.to_json_dict()
    assert blob["verified"] == 11 and blob["excluded"] == 6 and blob["failed"] == 0
    assert len(blob["entries"]) == 17
