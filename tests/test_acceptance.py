"""Acceptance gate.

Each numbered check prints exactly one PASS/FAIL line (with elapsed time)
straight to the terminal, so the gate's verdict reads off a plain pytest
run.  Checks that feed later ones stash their products in module state.
"""

import math
import random
import time
from contextlib import contextmanager

import pytest

import stanley as st

from conftest import naive_mod_3_free, naive_mod_covers_all

# products handed from one criterion to a later one
_state: dict[str, object] = {}


@contextmanager
def criterion(capsys, number, limit, description):
    start = time.perf_counter()
    verdict = "FAIL"
    try:
        yield
        elapsed = time.perf_counter() - start
        if limit is not None:
            assert elapsed < limit, f"took {elapsed:.2f}s, limit {limit}s"
        verdict = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            print(f"criterion {number}: {verdict} - {description} [{elapsed:.2f}s]")


def test_criterion_1_pivot_fixtures(capsys):
    with criterion(capsys, 1, 1.0, "pivot-family fixtures are modular with exact shape"):
        expected = [
            ("Acal", 0, 3, 2, 2),
            ("Acal", 1, 27, 8, 18),
            ("Bcal", 1, 9, 4, 6),
            ("Bcal", 2, 81, 16, 54),
        ]
        for name, n, modulus, size, top in expected:
            fam = st.build_family(st.FamilyId(name, (n,)))
            assert (fam.modulus, len(fam), fam.max_element) == (modulus, size, top)
            assert st.verify(fam).is_modular


def test_criterion_2_odd_ladder(capsys):
    with criterion(capsys, 2, 10.0, "At ladder t=1..8 is modular with exact shape"):
        for t in range(1, 9):
            fam = st.build_At(t)
            assert fam.modulus == 3**t
            assert len(fam) == 2**t
            assert fam.max_element == 2 * 3 ** (t - 1)
            assert st.verify(fam).is_modular


def test_criterion_3_appendix_integrity(capsys):
    with criterion(capsys, 3, 1.0, "54 bundled rows verify; one erratum, resolved"):
        report = st.appendix_check()
        assert report.rows_mod28 == 26
        assert report.rows_mod30 == 28
        # exactly one row required intervention: the garbled top-61 row
        assert len(report.errata) == 1
        entry = report.errata[0]
        assert (entry.modulus, entry.max_element) == (28, 61)
        assert entry.resolution == "natural-reading-verified"
        served = st.load_appendix().row(28, 61)
        assert st.verify(served).is_near_modular
        assert served.max_element == 61


def test_criterion_4_pipeline_equivalence(capsys, corpus):
    with criterion(capsys, 4, 120.0, "greedy character equals set character on the corpus"):
        runs = []
        for member in corpus:
            if len(member) & (len(member) - 1):
                continue  # the doubling argument needs a power-of-two block
            reduced, _steps = st.to_modular(member)
            if reduced.modulus > 10_000:
                continue
            prefix = st.greedy_extend(sorted(reduced.elements), 4 * len(reduced))
            profile = st.detect_character(prefix)
            assert profile is not None, st.format_set(member)
            assert profile.character == st.character_of(member)
            assert profile.levels_verified >= 2
            runs.append((prefix, profile.character))
        assert runs, "corpus produced no pipeline candidates"
        _state["pipeline_runs"] = runs


def test_criterion_5_flagship_coverage(capsys):
    with criterion(capsys, 5, 600.0, "coverage 0..200 deep-verifies every admissible character"):
        report = st.coverage_report(200, deep=True)
        assert report.count("failed") == 0
        excluded = [e.character for e in report.entries if e.status == "excluded"]
        assert excluded == [1, 3, 5, 9, 11, 15]
        verified = [e for e in report.entries if e.status == "verified"]
        assert len(verified) == 195
        assert report.all_admissible_verified
        assert all(e.deep_verified for e in verified)
        assert all(e.modulus <= 100_000 for e in verified)
        # arithmetic stand-in for the unbounded statement: the dispatcher
        # covers every admissible character to 10^4 without a gap
        for target in range(10_001):
            if target in st.FORBIDDEN_CHARACTERS:
                with pytest.raises(st.ForbiddenCharacterError):
                    st.witness_for(target)
            else:
                recipe = st.witness_for(target)
                assert 2 * recipe.expected_max + 1 - recipe.expected_modulus == target
        _state["coverage"] = report


def test_criterion_6_product_suite(capsys, small_corpus):
    with criterion(capsys, 6, 60.0, "200 random products are near-modular; assoc. holds"):
        for member in small_corpus:
            assert st.verify(member).is_near_modular
        rng = random.Random(87)
        for _ in range(200):
            a, b, c = (rng.choice(small_corpus) for _ in range(3))
            p = st.product(a, b)
            assert p.modulus == a.modulus * b.modulus
            assert len(p) == len(a) * len(b)
            assert st.verify(p).is_near_modular
            assert st.product(p, c) == st.product(a, st.product(b, c))


def test_criterion_7_transform_suite(capsys, corpus):
    with criterion(capsys, 7, None, "scale/shift preserve verdicts; bad gcd rejected"):
        for member in corpus:
            good = next(c for c in range(2, 60) if math.gcd(c, member.modulus) == 1)
            bad = next(c for c in range(2, 60) if math.gcd(c, member.modulus) > 1)
            assert st.verify(st.scale(member, good)).is_near_modular
            assert st.verify(st.shift_max(member)).is_near_modular
            with pytest.raises(st.PreconditionError):
                st.scale(member, bad)


def test_criterion_8_search_reproduction(capsys):
    with criterion(capsys, 8, 300.0, "search mod 28 top 57 size 8 finds a verified witness"):
        spec = st.SearchSpec(28, 57, 8, budget=10**8)
        result = st.search_near_modular(spec)
        assert result.status == "found"
        assert result.nodes <= 10**8
        witness = result.witness
        # independent re-check: brute-force predicates, no engine code
        assert naive_mod_3_free(witness)
        assert naive_mod_covers_all(witness)
        assert witness.max_element == 57 and witness.modulus == 28
        assert st.character_of(witness) == 2 * 57 + 1 - 28


def test_criterion_9_omitted_bound(capsys):
    with criterion(capsys, 9, None, "largest omitted value stays below the character"):
        runs = _state.get("pipeline_runs")
        report = _state.get("coverage")
        assert runs and report is not None, "needs criteria 4 and 5 products"
        for prefix, character in runs:
            omitted = st.omitted_set(prefix, prefix.last)
            assert omitted.omega is None or omitted.omega < character
        for entry in report.entries:
            if entry.status != "verified":
                continue
            done = st.execute_and_verify(st.witness_for(entry.character), deep=True)
            assert "omitted-bound" in done.checks
            assert done.omitted is not None
            assert done.omitted.omega is None or done.omitted.omega < entry.character
