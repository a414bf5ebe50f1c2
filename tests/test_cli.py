"""Exact CLI behavior: outputs, exit codes, and stream separation."""

import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from stanley.cli import main


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


def test_generate_diagnostic_table(capsys):
    code, out, _ = run(capsys, "generate", "--count", "16", "--diagnostic")
    assert code == 0
    assert "ratio min" in out and "1.000000" in out


def test_generate_diagnostic_too_short_prints_nothing(capsys):
    # the growth window needs 8 terms; the failure comes before the terms are printed
    code, out, err = run(capsys, "generate", "--count", "7", "--diagnostic")
    assert code == 2 and out == "" and "at least 8 terms" in err


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


def test_witness_deep_prefix_over_the_mask_budget_exits_3(capsys):
    # Atk:1,21523363 reduces to mod 3**17, where max A + 4N passes the bit budget
    code, out, err = run(
        capsys, "witness", "--lambda", "43046724", "--deep", "--deep-cap", "1000000000"
    )
    assert code == 3 and out == "" and "mask budget" in err


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
    assert digest == "634856330de75179f49809c069fbd1eed7cbc3494eeaf6dde67416807cd5db06"


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
        (("--mod", "28", "--max", "57", "--size", "8", "--budget", "300"), 3,
         ["nodes: 301", "budget exceeded", "resume: 20"]),
        # search always pins 0; the old --no-zero flag is a usage error
        (("--mod", "28", "--max", "57", "--size", "8", "--no-zero"), 2, []),
        (("--mod", "30", "--max", "46", "--size", "8"), 0, ["nodes: 680"]),
        (("--mod", "32", "--max", "27", "--size", "8"), 1,
         ["nodes: 1104", "exhausted: no witness in this space"]),
        # search runs in one process; only coverage takes --threads
        (("--mod", "28", "--max", "57", "--size", "8", "--threads", "2"), 2, []),
    ],
)
def test_search_node_counts_are_pinned(capsys, argv, code, lines):
    # the default space's 666 nodes are pinned in test_search_verb_found
    got, out, _ = run(capsys, "search", *argv)
    assert got == code
    assert out.splitlines()[: len(lines) or None] == lines  # [] pins an empty stdout


def test_search_resume_past_the_space_is_usage_error(capsys):
    # every token a budget stop prints is a partition below --max
    code, out, err = run(
        capsys, "search", "--mod", "28", "--max", "57", "--size", "8", "--resume", "100"
    )
    assert code == 2 and out == "" and "resume 100" in err


@pytest.mark.parametrize(
    "argv,lines",
    [
        # partitions 6..54 hold witnesses; a token above 6 scanned only its tail
        (("--mod", "28", "--max", "57", "--size", "8", "--resume", "55"),
         ["nodes: 0", "exhausted: no witness from partition 55 on"]),
        (("--mod", "32", "--max", "27", "--size", "8", "--resume", "7"),
         ["nodes: 1103", "exhausted: no witness from partition 7 on"]),
        # tokens at or below the first partition scan the whole space
        (("--mod", "32", "--max", "27", "--size", "8", "--resume", "6"),
         ["nodes: 1104", "exhausted: no witness in this space"]),
    ],
)
def test_search_resumed_exhaustion_names_the_partition(capsys, argv, lines):
    code, out, _ = run(capsys, "search", *argv)
    assert code == 1 and out.splitlines() == lines


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


def test_threads_above_cpu_count_are_usage_errors(capsys, two_cpus):
    code, out, err = run(capsys, "coverage", "--max", "16", "--threads", "3")
    assert code == 2 and out == "" and "threads 3" in err


def test_search_verb_exhausted(capsys):
    code, out, _ = run(capsys, "search", "--mod", "9", "--max", "4", "--size", "3")
    assert code == 1
    assert "exhausted" in out


def test_search_budget_stop_then_resume(capsys):
    code, out, _ = run(capsys, "search", "--mod", "28", "--max", "57", "--size", "8", "--budget", "50")
    assert code == 3
    assert "budget exceeded" in out
    resume = next(int(l.split()[-1]) for l in out.splitlines() if l.startswith("resume:"))
    code, out, _ = run(
        capsys,
        "search", "--mod", "28", "--max", "57", "--size", "8", "--resume", str(resume),
    )
    assert code == 0
    assert "N=28; 0,5,11,13,16,18,24,57" in out


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
    assert out == "mod 28: 26 rows ok\nmod 30: 28 rows ok\nerrata: 1\n"


def test_erratum_report_verb(capsys):
    code, out, _ = run(capsys, "erratum-report")
    assert code == 0
    assert "mod 28 top 61: natural-reading-verified" in out
    assert '"011,13,18,24,29,44,61"' in out
    assert "served: N=28; 0,11,13,18,24,29,44,61" in out


def test_timing_goes_to_stderr(capsys):
    _, out, err = run(capsys, "family", "Acal:0")
    assert "elapsed" in err
    assert "elapsed" not in out
