"""Command-line front end.

Exit codes: 0 success, 1 verification failure or a negative analysis
result, 2 usage error (including a forbidden character), 3 resource
limit.  Data goes to stdout and is deterministic for a given invocation;
timing and warnings go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import reduce
from typing import Sequence

from . import __version__
from .core import detect_character, greedy_extend, omitted_set, read_int
from .errors import (
    MalformedInputError,
    PreconditionError,
    ResourceLimitError,
    StanleyError,
    VerificationError,
)
from .families import FAMILY_NAMES, build_family
from .modset import (
    ResidueSet,
    character_of,
    format_set,
    load_set_file,
    parse_set,
    product,
    read_sets,
    scale,
    shift_max,
    to_modular,
    verify,
)
from .search import DEFAULT_NODE_BUDGET, SearchSpec, search_near_modular
from .witness import (
    appendix_check,
    coverage_report,
    describe_base,
    execute_and_verify,
    witness_for,
)

def _parse_terms(text: str) -> list[int]:
    """Comma-separated seed terms, read like the elements of a set line."""
    return [read_int(part, "seed term") for part in text.split(",")]


def _load_sets(source: str) -> list[ResidueSet]:
    """A literal 'N=...; ...' string (a ';', and only N before the first '='),
    a file path, or '-' for stdin."""
    if ";" in source and source.partition("=")[0].strip() == "N":
        return [parse_set(source)]
    sets = read_sets(sys.stdin.read().splitlines()) if source == "-" else load_set_file(source)
    if not sets:
        raise MalformedInputError(f"{source!r} holds no sets")
    return sets


def _load_one(source: str) -> ResidueSet:
    sets = _load_sets(source)
    if len(sets) != 1:
        raise MalformedInputError(f"{source!r} holds {len(sets)} sets, need exactly one")
    return sets[0]


def _warn_seed(seed: Sequence[int]) -> None:
    if seed and seed[0] != 0:
        print("note: seed does not start at 0", file=sys.stderr)


def _cmd_generate(args: argparse.Namespace) -> int:
    seed = _parse_terms(args.seed)
    _warn_seed(seed)
    print(",".join(str(t) for t in greedy_extend(seed, args.count).terms))
    return 0


def _cmd_character(args: argparse.Namespace) -> int:
    seed = _parse_terms(args.seed)
    _warn_seed(seed)
    count = args.count if args.count is not None else max(16, 4 * len(seed))
    prefix = greedy_extend(seed, count)
    profile = detect_character(prefix)
    # everything that can raise runs first, so a failure prints nothing to stdout
    gaps = omitted_set(prefix, prefix.last) if profile is not None and args.omitted else None
    print(f"terms: {len(prefix)}")
    if profile is None:
        print("no stable character: the doubled levels disagree")
        return 1
    print(
        f"empirically independent from level {profile.settle_level}"
        f" (levels {profile.settle_level}..{profile.verified_up_to_level} agree)"
    )
    print(f"character: {profile.character}")
    print(f"repeat factor: {profile.repeat_factor}")
    if gaps is not None:
        shown = ",".join(map(str, gaps.elements)) or "none"
        print(f"omitted values up to {gaps.scan_bound}: {shown}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if not args.sources:
        raise MalformedInputError("no sets given (pass literals, paths or '-')")
    # every source is read and verified first, so a later failure leaves stdout empty
    checked = [(rs, verify(rs)) for source in args.sources for rs in _load_sets(source)]
    failures = 0
    for rs, report in checked:
        if report.is_modular:
            verdict = "modular"
        elif report.is_near_modular:
            verdict = "near-modular"
        else:
            verdict = "FAIL"
        line = f"{format_set(rs)}  => {verdict}"
        if report.is_near_modular and 2 * rs.max_element + 1 >= rs.modulus:
            line += f", character {character_of(rs)}"
        failed = not report.is_near_modular
        if args.modular and report.is_near_modular and not report.is_modular:
            failed = True
            line += ", not modular"
        if not report.is_near_modular:
            if report.witness_violation is not None:
                line += f", progression {report.witness_violation}"
            shown, count = report.uncovered_residues, report.uncovered_count
            if shown:
                line += ", uncovered " + ",".join(str(r) for r in shown)
                if len(shown) < count:
                    line += f" (first {len(shown)} of {count})"
        if failed:
            failures += 1
        print(line)
    return 1 if failures else 0


def _cmd_product(args: argparse.Namespace) -> int:
    acc = reduce(product, [_load_one(source) for source in args.sets])
    if args.scale is not None:
        acc = scale(acc, args.scale)
    if args.shift_max:
        acc = shift_max(acc, args.shift_max)
    if args.to_modular:
        acc, steps = to_modular(acc)
        print(f"doubling steps: {steps}", file=sys.stderr)
    character = character_of(acc) if args.character else None  # a negative one prints nothing
    print(format_set(acc))
    if character is not None:
        print(f"character: {character}")
    return 0


def _cmd_family(args: argparse.Namespace) -> int:
    if args.list:
        for name in FAMILY_NAMES:
            print(name)
        return 0
    if args.family is None:
        raise MalformedInputError("family name required (or use --list)")
    rs = build_family(args.family)
    print(format_set(rs))
    if args.character:
        print(f"character: {character_of(rs)}")
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    recipe = witness_for(args.target)
    result = execute_and_verify(recipe, deep=args.deep)
    print(f"strategy: {recipe.strategy}")
    print(f"base: {describe_base(recipe.base)}")
    if recipe.shift_count:
        print(f"shifts: {recipe.shift_count}")
    print(format_set(result.witness))
    print(f"character: {result.character}")
    print("checks: " + " ".join(result.checks))
    if result.deep_verified:
        print(f"modular form: {format_set(result.modular_form)}")
        print(f"doubling steps: {result.doubling_steps}")
        print(f"doubled levels verified: {result.profile.levels_verified}")
        omega = "none" if result.omitted.omega is None else str(result.omitted.omega)
        print(f"largest omitted value: {omega}")
        print("verified: deep")
    else:
        print("verified: static")
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    report = coverage_report(args.max, deep=not args.no_deep)
    if args.json:
        json.dump(report.to_json_dict(), sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        for line in report.to_text_lines():
            print(line)
    return 0 if report.all_admissible_verified else 1


def _cmd_search(args: argparse.Namespace) -> int:
    result = search_near_modular(SearchSpec(args.mod, args.max, args.size, args.budget))
    print(f"nodes: {result.nodes}")
    if result.status == "found":
        print(format_set(result.witness))
        print(f"character: {character_of(result.witness)}")
        return 0
    if result.status == "exhausted":
        print("exhausted: no witness in this space")
        return 1
    print("budget exceeded")
    return 3


def _cmd_appendix_check(args: argparse.Namespace) -> int:
    report = appendix_check()
    print(f"mod 28: {report.rows_mod28} rows ok")
    print(f"mod 30: {report.rows_mod30} rows ok")
    print(f"errata: {len(report.errata)}")
    for entry in report.errata:
        print(f"mod {entry.modulus} top {entry.max_element}: {entry.resolution}")
        print(f"  note: {entry.note}")
        print(f"  served: {format_set(ResidueSet(entry.modulus, entry.row))}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stanley",
        description="Greedy progression-free sequences and their residue-set witnesses.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="greedily extend a seed")
    p.add_argument("--seed", default="0", help="comma-separated starting terms")
    p.add_argument("--count", type=read_int, required=True, help="total terms to produce")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("character", help="detect the repeat structure of a greedy sequence")
    p.add_argument("--seed", default="0", help="comma-separated starting terms")
    p.add_argument("--count", type=read_int, default=None, help="terms to examine (default max(16, 4x seed))")
    p.add_argument("--omitted", action="store_true", help="also list omitted values")
    p.set_defaults(func=_cmd_character)

    p = sub.add_parser("verify", help="check sets from files, stdin (-), or literals")
    p.add_argument("sources", nargs="*", help="file paths, '-', or literal 'N=...; ...' lines")
    p.add_argument("--modular", action="store_true", help="require fully modular, not just near-modular")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("product", help="multiply sets and apply transforms")
    p.add_argument("sets", nargs="+", help="sets to fold left-to-right")
    p.add_argument("--scale", type=read_int, default=None, help="scale by a coprime factor")
    p.add_argument("--shift-max", type=read_int, default=0, help="raise the top element this many moduli")
    p.add_argument("--to-modular", action="store_true", help="double until fully modular")
    p.add_argument("--character", action="store_true", help="print the character too")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("family", help="build a named family member")
    p.add_argument("family", nargs="?", default=None, help="e.g. Acal:1 or Atk:3,7")
    p.add_argument("--character", action="store_true", help="print the character too")
    p.add_argument("--list", action="store_true", help="list family names")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("witness", help="construct and verify a witness for one character")
    p.add_argument("--lambda", dest="target", type=read_int, required=True, help="target character")
    p.add_argument("--deep", action="store_true", help="also verify the greedy extension")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("coverage", help="verify witnesses for every character up to a bound")
    p.add_argument("--max", type=read_int, required=True, help="largest character to cover")
    p.add_argument("--no-deep", action="store_true", help="static checks only")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_coverage)

    p = sub.add_parser("search", help="exhaustive scan for a near-modular set")
    p.add_argument("--mod", type=read_int, required=True, help="modulus")
    p.add_argument("--max", type=read_int, required=True, help="required top element")
    p.add_argument("--size", type=read_int, required=True, help="cardinality")
    p.add_argument("--budget", type=read_int, default=DEFAULT_NODE_BUDGET, help=f"node budget (default {DEFAULT_NODE_BUDGET})")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("appendix-check", help="audit the bundled witness tables and list their errata")
    p.set_defaults(func=_cmd_appendix_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    started = time.perf_counter()
    try:
        args = build_parser().parse_args(argv)  # option values go through read_int
        return args.func(args)
    except (MalformedInputError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except StanleyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    finally:
        print(f"elapsed {time.perf_counter() - started:.3f}s", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
