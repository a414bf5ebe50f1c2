"""Exact CLI behavior: outputs, exit codes, and stream separation."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as hs

from stanley.cli import main
from stanley.errors import InvariantViolationError
from stanley.modset import VerificationReport

from golden_cli import CASES, run as run_golden


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage error
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_family_exact_output(capsys):
    code, out, err = run(capsys, "family", "Acal:1")
    assert code == 0
    assert out == "N=27; 0,1,6,7,10,15,16,18\n"


def test_family_list_and_character(capsys):
    code, out, _ = run(capsys, "family", "--list")
    assert code == 0
    assert "Atk" in out.split()
    code, out, _ = run(capsys, "family", "At:3", "--character")
    assert code == 0
    assert out.endswith("character: 10\n")


def test_family_usage_errors(capsys):
    code, _, err = run(capsys, "family", "Nope:1")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "family")
    assert code == 2


def test_generate_exact(capsys):
    code, out, _ = run(capsys, "generate", "--count", "8")
    assert code == 0
    assert out == "0,1,3,4,9,10,12,13\n"


def test_generate_warns_on_nonzero_seed(capsys):
    code, out, err = run(capsys, "generate", "--seed", "4,5", "--count", "4")
    assert code == 0
    assert "does not start at 0" in err
    assert out.startswith("4,5,")


def test_generate_bad_input(capsys):
    code, _, err = run(capsys, "generate", "--seed", "0,x", "--count", "4")
    assert code == 2 and "error:" in err
    code, _, _ = run(capsys, "generate", "--seed", "0,2", "--count", "1")
    assert code == 2


@pytest.mark.parametrize("seed", ["0,,2", "0,2,", "0 2"])
def test_generate_seed_items_are_set_elements(capsys, seed):
    # every comma-separated item is one number, as in a set line
    code, out, err = run(capsys, "generate", "--seed", seed, "--count", "4")
    assert code == 2 and out == "" and "bad seed term" in err


def test_generate_past_the_checked_range(capsys):
    code, out, err = run(capsys, "generate", "--seed", str((1 << 63) - 1), "--count", "2")
    assert code == 3 and out == "" and "resource limit:" in err


def test_over_range_seed_is_a_resource_limit(capsys):
    # the same exit code as an over-range or 5000-digit set element or scale factor
    code, out, err = run(capsys, "generate", "--seed", f"0,{1 << 63}", "--count", "3")
    assert code == 3 and out == "" and "64-bit range" in err
    code, out, err = run(capsys, "character", "--seed", f"0,{1 << 63}")
    assert code == 3 and out == "" and "64-bit range" in err
    code, out, err = run(capsys, "generate", "--seed", "0," + "1" * 5000, "--count", "4")
    assert code == 3 and out == "" and "64-bit range" in err
    code, out, err = run(capsys, "generate", "--count", str(1 << 63))
    assert code == 3 and out == "" and "64-bit range" in err


def test_mask_budget_is_a_resource_limit(capsys):
    # both stop at the bit budget, before the first mask is built
    code, out, err = run(capsys, "generate", "--seed", "0,1000000000000", "--count", "3")
    assert code == 3 and out == "" and "mask budget" in err
    code, out, err = run(capsys, "verify", "N=1000000000000000000; 0,1")
    assert code == 3 and out == "" and "mask budget" in err


def test_character_verb(capsys):
    code, out, _ = run(
        capsys, "character", "--seed", "0,1,6,7,10,15,16,18", "--count", "64", "--omitted"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "terms: 64"
    assert lines[1].startswith("empirically independent from level 3")
    assert "character: 10" in lines
    assert "repeat factor: 27" in lines
    assert any(line.startswith("omitted values") and "3,4,5,9" in line for line in lines)


def test_character_failure_prints_nothing_to_stdout(capsys):
    # three terms are too few to detect a character: exit 2, and no partial report
    code, out, err = run(capsys, "character", "--seed", "0", "--count", "3")
    assert code == 2 and out == "" and err
    code, out, err = run(capsys, "character", "--seed", "0", "--count", "3", "--omitted")
    assert code == 2 and out == "" and err


def test_character_no_detection(capsys):
    code, out, _ = run(capsys, "character", "--seed", "0,1,5", "--count", "8")
    assert code == 1
    assert "no stable character" in out


def test_verify_literal(capsys):
    code, out, _ = run(capsys, "verify", "N=27; 0,1,6,7,10,15,16,18")
    assert code == 0
    assert out == "N=27; 0,1,6,7,10,15,16,18  => modular, character 10\n"


def test_verify_literal_with_spaced_head(capsys):
    code, out, _ = run(capsys, "verify", " N = 27 ; 0,1,6,7,10,15,16,18")
    assert code == 0
    assert out == "N=27; 0,1,6,7,10,15,16,18  => modular, character 10\n"


def test_verify_failure_exit(capsys):
    code, out, _ = run(capsys, "verify", "N=9; 0,1,2,7")
    assert code == 1
    assert "FAIL" in out


def test_verify_file(tmp_path, capsys):
    target = tmp_path / "sets.txt"
    target.write_text("# two sets\nN=3; 0,2\nN=9; 0,2,5,6\n", encoding="ascii")
    code, out, _ = run(capsys, "verify", str(target))
    assert code == 0
    assert out.count("=>") == 2
    code, out, _ = run(capsys, "verify", str(target), "N=3; 0,1")
    assert code == 0
    assert out.count("=>") == 3


def test_verify_lists_few_uncovered_residues_as_before(capsys):
    code, out, _ = run(capsys, "verify", "N=5; 0,1")
    assert code == 1
    assert out == "N=5; 0,1  => FAIL, uncovered 3,4\n"


def test_verify_of_a_wide_modulus_stays_small():
    # 2^24 - 3 uncovered residues: the report lists 16 and counts the rest, and
    # the process that verifies peaks under 100 MiB (it listed all at 735 MiB)
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = (
        f"import resource, sys; sys.path.insert(0, {src!r}); from stanley.cli import main; "
        "code = main(['verify', 'N=16777216; 0,1']); "
        "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=120
    )
    line, status = done.stdout.splitlines()
    assert line == (
        "N=16777216; 0,1  => FAIL, uncovered 3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18"
        " (first 16 of 16777213)"
    )
    code, peak_kib = map(int, status.split())
    assert code == 1 and peak_kib < 100 * 1024


def test_verify_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("N=3; 0,2\n# comment\n\nN=9; 0,2,5,6\n"))
    code, out, _ = run(capsys, "verify", "-")
    assert code == 0
    assert out == "N=3; 0,2  => modular, character 2\nN=9; 0,2,5,6  => modular, character 4\n"


@pytest.mark.parametrize(
    "argv",
    [("verify", "--file", "sets.txt"), ("generate", "--len", "8"), ("character", "--len", "8")],
    ids=["verify-file", "generate-len", "character-len"],
)
def test_each_input_has_one_spelling(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 2 and out == ""


def test_verify_modular_strictness(capsys):
    near_only = "N=30; 0,7,9,10,17,19,26,46"
    code, out, _ = run(capsys, "verify", near_only)
    assert code == 0
    code, out, _ = run(capsys, "verify", "--modular", near_only)
    assert code == 1
    assert "not modular" in out
    code, _, _ = run(capsys, "verify", "--modular", "N=9; 0,2,5,6")
    assert code == 0


def test_verify_needs_a_source(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2 and "no sets" in err


def test_verify_source_with_no_sets_is_usage_error(tmp_path, monkeypatch, capsys):
    # nothing was checked, so this is no success; a later empty source fails the whole run
    target = tmp_path / "comment.txt"
    target.write_text("# only a comment\n", encoding="ascii")
    code, out, err = run(capsys, "verify", "N=9; 0,1,6,7", str(target))
    assert code == 2 and out == ""
    assert err.splitlines()[0] == f"error: {str(target)!r} holds no sets"
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code, out, err = run(capsys, "verify", "-")
    assert code == 2 and out == ""
    assert err.splitlines()[0] == "error: '-' holds no sets"


def test_family_verify_round_trip(tmp_path, capsys):
    code = main(["family", "Atk:3,7"])
    saved = capsys.readouterr().out
    target = tmp_path / "fam.txt"
    target.write_text(saved, encoding="ascii")
    code, out, _ = run(capsys, "verify", str(target))
    assert code == 0
    assert "=>" in out


def test_product_verb(capsys):
    code, out, _ = run(capsys, "product", "N=3; 0,1", "N=3; 0,2")
    assert code == 0
    assert out == "N=9; 0,1,6,7\n"


def test_product_transform_chain(capsys):
    code, out, err = run(
        capsys, "product", "N=3; 0,2", "--scale", "2", "--to-modular", "--character"
    )
    assert code == 0
    assert out == "N=9; 0,3,4,7\ncharacter: 6\n"
    assert "doubling steps: 1" in err


def test_product_usage_error(capsys):
    code, _, err = run(capsys, "product", "N=3; 0,2", "--scale", "3")
    assert code == 2 and "error:" in err


def test_product_collision_is_usage_error(capsys):
    # 0 and 3 share a residue class mod 3, so two sums collide
    code, out, err = run(capsys, "product", "N=3; 0,3", "N=3; 0,1")
    assert code == 2 and out == ""
    assert "error: product sums collided" in err


def test_product_of_a_file_with_two_sets_is_usage_error(tmp_path, capsys):
    target = tmp_path / "two.txt"
    target.write_text("N=3; 0,1\nN=3; 0,2\n", encoding="ascii")
    code, out, err = run(capsys, "product", str(target))
    assert code == 2 and out == ""
    assert err.splitlines()[0] == f"error: {str(target)!r} holds 2 sets, need exactly one"


def test_witness_verb_deep(capsys):
    code, out, _ = run(capsys, "witness", "--lambda", "63", "--deep")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "strategy: mod30-table"
    assert lines[1] == "base: table mod 30 top 46"
    assert "N=30; 0,7,9,10,17,19,26,46" in lines
    assert "character: 63" in lines
    assert any(line.startswith("modular form: N=90;") for line in lines)
    assert "doubled levels verified: 2" in lines
    assert lines[-1] == "verified: deep"


@pytest.mark.parametrize(
    "lam,strategy,steps,omega,digest",
    [
        (50000, "even-ladder", 9, 26392,
         "7186c1e4a4b816858bcc37e4780fc595ca51383aa921450dbedeb926b89ed248"),
        (50001, "mod30-table", 7, 25229,
         "a810d8328eb417dd688d1b6d08607bc3e38deffdf3e19d25717dbf1cbfb7ac37"),
        (50011, "mod60-family", 6, 25247,
         "f56971eea4ffe65fa8651bb94a813e4d68aa688682c71b1409c5561fc822ec93"),
        (43741, "mod28-table", 7, 21856,
         "e89de09d35dde3a445b4841c2b415ccdf88399e0cc7445f878b894aa575cd216"),
    ],
)
def test_witness_deep_is_pinned_past_five_doubling_steps(capsys, lam, strategy, steps, omega, digest):
    # the whole stdout, the 1024-element modular form included, byte for byte
    code, out, _ = run(capsys, "witness", "--lambda", str(lam), "--deep")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"strategy: {strategy}"
    assert f"doubling steps: {steps}" in lines
    assert f"largest omitted value: {omega}" in lines
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_witness_deep_verifies_a_modulus_above_100000(capsys):
    # Atk:11,2 is already modular, mod 3**11 = 177147; --deep proves it with no cap
    code, out, _ = run(capsys, "witness", "--lambda", "59050", "--deep")
    assert code == 0 and out.splitlines()[-1] == "verified: deep"
    code, out, _ = run(capsys, "witness", "--lambda", "59050")
    assert code == 0 and out.splitlines()[-1] == "verified: static"
    code, out, _ = run(capsys, "witness", "--lambda", "59050", "--deep", "--deep-cap", "5")
    assert code == 2 and out == ""


def test_witness_deep_prefix_over_the_mask_budget_exits_3(capsys):
    # Atk:1,21523363 reduces to mod 3**17, where max A + 4N passes the bit budget
    code, out, err = run(capsys, "witness", "--lambda", "43046724", "--deep")
    assert code == 3 and out == "" and "mask budget" in err


def test_witness_small_case_search_exact_output(capsys):
    # a bundled small-case row prints its own set as the base
    code, out, _ = run(capsys, "witness", "--lambda", "7")
    assert code == 0
    assert out == (
        "strategy: small-case-search\n"
        "base: N=10; 0,1,7,8\n"
        "N=10; 0,1,7,8\n"
        "character: 7\n"
        "checks: near-modular max-element modulus character\n"
        "verified: static\n"
    )


def reject_every_set(a):
    """A stand-in for verify that finds no set near-modular."""
    return VerificationReport(False, (), 0, False, False, (0, 1, 2))


def break_an_invariant(a):
    raise InvariantViolationError("verify broke")


@pytest.mark.parametrize(
    "stub,message",
    [
        (reject_every_set, "verification failed: near-modular: N=10; 0,1,7,8 violates (0, 1, 2)"),
        (break_an_invariant, "internal error: verify broke"),
    ],
)
def test_witness_failures_exit_1(monkeypatch, capsys, stub, message):
    monkeypatch.setattr("stanley.witness.verify", stub)
    code, out, err = run(capsys, "witness", "--lambda", "7")
    assert code == 1 and out == ""
    assert err.splitlines()[0] == message


def test_coverage_reports_failed_rows(monkeypatch, capsys):
    monkeypatch.setattr("stanley.witness.verify", reject_every_set)
    code, out, _ = run(capsys, "coverage", "--max", "16", "--no-deep")
    assert code == 1
    lines = out.splitlines()
    assert lines[8] == (
        "    7  failed    small-case-search  N=10; 0,1,7,8"
        "                         -      -    -      -"
    )
    assert lines[-1] == "characters 0..16: 0 verified, 6 excluded, 11 failed"
    code, out, _ = run(capsys, "coverage", "--max", "16", "--no-deep", "--json")
    assert code == 1
    blob = json.loads(out)
    assert (blob["verified"], blob["excluded"], blob["failed"]) == (0, 6, 11)
    assert blob["entries"][7] == {
        "base": "N=10; 0,1,7,8",
        "character": 7,
        "deep_verified": False,
        "detail": "near-modular: N=10; 0,1,7,8 violates (0, 1, 2)",
        "doubling_levels": None,
        "max_element": None,
        "modulus": None,
        "omega": None,
        "status": "failed",
        "strategy": "small-case-search",
    }


def test_witness_forbidden_is_usage_error(capsys):
    code, _, err = run(capsys, "witness", "--lambda", "15")
    assert code == 2
    assert "unattainable" in err


def test_coverage_verb(capsys):
    code, out, _ = run(capsys, "coverage", "--max", "16")
    assert code == 0
    assert out.splitlines()[-1] == "characters 0..16: 11 verified, 6 excluded, 0 failed"


def test_coverage_json(capsys):
    code, out, _ = run(capsys, "coverage", "--max", "16", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["verified"] == 11 and blob["failed"] == 0


def test_coverage_to_1000_is_pinned(capsys):
    # every row of the deep sweep, lvl and omega cells included, byte for byte
    code, out, _ = run(capsys, "coverage", "--max", "1000")
    assert code == 0
    digest = hashlib.sha256(out.encode("ascii")).hexdigest()
    assert digest == "16d99cd2ae0dd7876dfa14bc7ff259a919effcab59443dde9b9eebf410a3f6ea"


def test_coverage_json_to_1000_is_pinned(capsys):
    # the --json form of the same sweep: every entry and total, byte for byte
    code, out, _ = run(capsys, "coverage", "--max", "1000", "--json")
    assert code == 0
    digest = hashlib.sha256(out.encode("ascii")).hexdigest()
    assert digest == "eb0fb88a986975dfed5223d69167b6309cba0ebda14b128ea4d1fd025fb356fa"


def test_coverage_is_deterministic(capsys):
    _, first, _ = run(capsys, "coverage", "--max", "20")
    _, second, _ = run(capsys, "coverage", "--max", "20")
    assert first == second


def test_search_verb_found(capsys):
    code, out, _ = run(capsys, "search", "--mod", "28", "--max", "57", "--size", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "nodes: 666"
    assert lines[1] == "N=28; 0,5,11,13,16,18,24,57"
    assert lines[2] == "character: 87"


@pytest.mark.parametrize(
    "argv,code,lines",
    [
        (("search", "--mod", "28", "--max", "57", "--size", "8", "--budget", "300"), 3,
         ["nodes: 301", "budget exceeded"]),
        # search always pins 0; the old --no-zero flag is a usage error
        (("search", "--mod", "28", "--max", "57", "--size", "8", "--no-zero"), 2, []),
        (("search", "--mod", "30", "--max", "46", "--size", "8"), 0, ["nodes: 680"]),
        (("search", "--mod", "32", "--max", "27", "--size", "8"), 1,
         ["nodes: 1104", "exhausted: no witness in this space"]),
        # search and coverage run in one process; neither takes --threads
        (("search", "--mod", "28", "--max", "57", "--size", "8", "--threads", "2"), 2, []),
        (("coverage", "--max", "16", "--threads", "2"), 2, []),
    ],
)
def test_search_node_counts_are_pinned(capsys, argv, code, lines):
    # the default space's 666 nodes are pinned in test_search_verb_found
    got, out, _ = run(capsys, *argv)
    assert got == code
    assert out.splitlines()[: len(lines) or None] == lines  # [] pins an empty stdout


def test_search_modulus_budget(capsys):
    code, out, err = run(capsys, "search", "--mod", str(10**15), "--max", "57", "--size", "8")
    assert code == 3 and out == "" and "mask budget" in err


def test_product_element_budget(capsys):
    # 4^13 elements: refused before the large products are built
    code, out, err = run(capsys, "family", "T:13")
    assert code == 3 and out == "" and "element budget" in err


def test_to_modular_element_budget(capsys):
    # 2^26 elements: refused before the doubling reduction builds any large step
    code, out, err = run(
        capsys, "product", "N=9; 0,1,6,7", "--shift-max", "100000000000", "--to-modular"
    )
    assert code == 3 and out == "" and "element budget" in err


@pytest.mark.parametrize(
    "literal,code",
    [
        ("N=\u00b2; 0", 2),
        ("N=\u0663; 0,\u0661", 2),
        ("N=1; 0," + "1" * 5000, 3),
        ("N=1; 0,9223372036854775808", 3),
        ("N=2 7; 0,1,6,7,10,15,16,18", 2),
    ],
    ids=["superscript", "arabic-indic", "5000-digits", "2^63", "split-modulus"],
)
def test_verify_bad_numbers(capsys, literal, code):
    got, out, err = run(capsys, "verify", literal)
    assert got == code and out == ""
    assert ("error:" if code == 2 else "resource limit:") in err


def test_verify_unreadable_files(tmp_path, capsys):
    code, out, err = run(capsys, "verify", str(tmp_path / "missing.txt"))
    assert code == 2 and out == "" and "missing.txt" in err
    bad = tmp_path / "bad.txt"
    bad.write_bytes("N=3; 0,1\nN=9; 0,2,5,6 # \u00e9\n".encode("utf-8"))
    code, out, err = run(capsys, "verify", str(bad))
    assert code == 2 and out == "" and "non-ASCII" in err


def test_search_verb_exhausted(capsys):
    code, out, _ = run(capsys, "search", "--mod", "9", "--max", "4", "--size", "3")
    assert code == 1
    assert "exhausted" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "--seed", "0,\u0663", "--count", "4"),
        ("family", "T:\u0663"),
        ("witness", "--lambda", "\u0666\u0663"),
        ("generate", "--count", "1_0"),
        ("generate", "--count", "08"),
        ("search", "--mod", "\u0662\u0668", "--max", "57", "--size", "8"),
    ],
    ids=["seed", "family", "lambda", "underscore", "leading-zero", "option"],
)
def test_numbers_are_plain_ascii_decimals(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "error: bad " in err


def test_appendix_check_verb(capsys):
    code, out, _ = run(capsys, "appendix-check")
    assert code == 0
    assert out == (
        "mod 28: 26 rows ok\nmod 30: 28 rows ok\nerrata: 1\n"
        "mod 28 top 61: natural-reading-verified\n"
        '  note: upstream listing reads "011,13,18,24,29,44,61" (seven tokens, ambiguous'
        " leading digits); the natural reading below is served only if it verifies,"
        " otherwise loading the table fails.\n"
        "  served: N=28; 0,11,13,18,24,29,44,61\n"
    )


def test_timing_goes_to_stderr(capsys):
    _, out, err = run(capsys, "family", "Acal:0")
    assert "elapsed" in err
    assert "elapsed" not in out


#: The golden cases tier-1 skips: the two long coverage sweeps, which take most
#: of the golden file's time.  ``tests/golden_cli.py`` still checks them.
SLOW_GOLDEN = {("coverage", "--max", "10000", "--json"), ("coverage", "--max", "40000", "--no-deep")}


def test_cheap_golden_cases_match_their_recorded_hashes():
    cases = [case for case in CASES if case[0] not in SLOW_GOLDEN]
    assert len(cases) == len(CASES) - len(SLOW_GOLDEN)
    assert {argv: run_golden(argv) for argv, _, _ in cases} == {
        argv: (code, digest) for argv, code, digest in cases
    }


#: Per verb, tokens that keep every run to a few milliseconds: small counts and
#: characters, moduli past the mask budget that are refused before any work, and
#: bad values.  ``search`` always gets ``--budget 50``.
CLI_TOKENS = {
    "generate": ("--count", "--seed", "--diagnostic", "8", "16", "0,2", "-1", "x"),
    "character": ("--count", "--seed", "--omitted", "16", "0,4", "0", "-1", "x"),
    "verify": ("--modular", "N=9; 0,1,6,7", "N=8; 0,1,3", "N=300000000; 0,1", "-1", "N=x"),
    "product": ("N=3; 0,1", "N=9; 0,1,6,7", "N=300000000; 0,1", "--scale", "--shift-max",
                "--to-modular", "--character", "2", "-1"),
    "family": ("--list", "--character", "Acal:1", "Atk:3,7", "C:3", "Nope:1", "-1"),
    "witness": ("--lambda", "--deep", "0", "7", "16", "63", "3", "-1", "9223372036854775807", "x"),
    "coverage": ("--max", "--no-deep", "--json", "16", "20", "-1", "x"),
    "search": ("--mod", "--max", "--size", "--resume", "28", "57", "8", "3", "-1", "300000000"),
    "appendix-check": ("-1",),
    "erratum-report": ("-1",),
    "nope": ("-1",),
}


@hs.composite
def cli_argv(draw):
    verb = draw(hs.sampled_from(sorted(CLI_TOKENS)))
    argv = [verb] + draw(hs.lists(hs.sampled_from(CLI_TOKENS[verb]), max_size=6))
    return argv + ["--budget", "50"] if verb == "search" else argv


@given(argv=cli_argv())
@example(argv=["verify", "N=9; 0,1,6,7", "-1"])  # a later source unreadable: exit 2
@example(argv=["verify", "N=9; 0,1,6,7", "N=300000000; 0,1"])  # a later one too wide: exit 3
@example(argv=["witness", "--lambda", "9223372036854775807", "--deep"])  # past the mask budget
@example(argv=["product", "N=300000000; 0,1", "--character"])  # a negative character: exit 2
@settings(deadline=None)
def test_cli_exits_with_a_documented_code(argv):
    # only SystemExit may escape main; a usage or resource exit prints no data,
    # apart from the progress lines of a search stopped by its node budget
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage error, --help or --version
            code = exc.code
    assert code in (0, 1, 2, 3)
    if code == 2 or (code == 3 and argv[0] != "search"):
        assert out.getvalue() == ""
