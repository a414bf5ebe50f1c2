"""Character coverage: pick a construction for any admissible character, run
it, and machine-check the result.

The dispatcher (`witness_for`) never does heavy work; it only routes a target
character to one of six strategies and records the expected geometry in a
`WitnessRecipe`.  `execute_and_verify` then builds the set and refuses to
return it until it has re-derived every claimed property, optionally all the
way down to a greedy extension of the fully modular form.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import ClassVar, Union

from .core import (
    CharacterProfile,
    OmittedSet,
    check_int,
    doubled_prefix,
    doubling_reduction,
)
from .errors import (
    ForbiddenCharacterError,
    FormatError,
    InvariantViolationError,
    MalformedInputError,
    NegativeCharacterError,
    PreconditionError,
    StanleyError,
    VerificationError,
)
from .families import UNIT, FamilyId, build_family
from .modset import (
    ResidueSet,
    character_of,
    format_set,
    parse_set,
    shift_max,
    to_modular,
    verify,
)

#: No sequence with the doubling structure attains these six characters.
FORBIDDEN_CHARACTERS = frozenset({1, 3, 5, 9, 11, 15})

STRATEGIES = (
    "trivial-zero",
    "even-ladder",
    "mod60-family",
    "mod28-table",
    "mod30-table",
    "small-case-search",
)

#: modulus -> the top elements of the rows of ``data/mod<N>.txt``, in file
#: order: one row per top residue, skipping the residue of N/2 and of 0.
#: Recipes, loading and row lookup all read the bundled tables from here.
_BANDS = {
    28: tuple(x for x in range(57, 84) if x != 70),
    30: tuple(x for x in range(46, 75) if x != 60),
}


@dataclass(frozen=True)
class TableRef:
    """Pointer into a bundled table: the row mod ``modulus`` whose top
    element is ``max_element``."""

    modulus: int
    max_element: int

    def __post_init__(self) -> None:
        check_int(self.max_element, "max_element")
        if check_int(self.modulus, "modulus") not in _BANDS:
            raise MalformedInputError(f"no bundled table mod {self.modulus}")


BaseSpec = Union[FamilyId, TableRef, ResidueSet]


@dataclass(frozen=True)
class WitnessRecipe:
    """How to reach one character: a base set plus top-element shifts.

    Every shift raises the top element by one modulus and hence the
    character by two, so the target pins the expected geometry exactly;
    ``2*expected_max + 1 - expected_modulus == target_character`` is
    enforced here so a dispatch bug cannot survive construction.
    """

    target_character: int
    strategy: str
    base: BaseSpec
    shift_count: int = 0
    expected_max: int = 0
    expected_modulus: int = 1

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise MalformedInputError(f"unknown strategy {self.strategy!r}")
        for what in ("target_character", "shift_count", "expected_max", "expected_modulus"):
            check_int(getattr(self, what), what)
        if 2 * self.expected_max + 1 - self.expected_modulus != self.target_character:
            raise InvariantViolationError(
                f"recipe geometry off: 2*{self.expected_max}+1-{self.expected_modulus}"
                f" != {self.target_character}"
            )


#: character -> witness for the odd values below the table bands.  Each row is
#: the first hit of `search_near_modular` over even moduli N ascending, size 4
#: then 8, top (N + character - 1)/2; tier-1 re-derives every row by that rule.
SMALL_CASE_BASES: dict[int, ResidueSet] = {
    7: ResidueSet(10, (0, 1, 7, 8)),
    13: ResidueSet(30, (0, 1, 3, 4, 10, 13, 14, 21)),
    17: ResidueSet(28, (0, 4, 5, 9, 15, 17, 20, 22)),
    19: ResidueSet(10, (0, 3, 11, 14)),
    21: ResidueSet(30, (0, 1, 3, 4, 21, 22, 24, 25)),
    23: ResidueSet(10, (0, 7, 9, 16)),
    25: ResidueSet(32, (0, 2, 3, 5, 23, 25, 26, 28)),
    27: ResidueSet(10, (0, 1, 7, 18)),
    29: ResidueSet(30, (0, 7, 9, 16, 17, 20, 26, 29)),
    31: ResidueSet(28, (0, 5, 11, 13, 16, 18, 24, 29)),
    33: ResidueSet(30, (0, 3, 7, 10, 21, 24, 28, 31)),
    35: ResidueSet(10, (0, 9, 13, 22)),
    37: ResidueSet(28, (0, 1, 3, 19, 20, 22, 23, 32)),
    39: ResidueSet(10, (0, 3, 11, 24)),
    41: ResidueSet(30, (0, 3, 11, 14, 21, 24, 32, 35)),
    43: ResidueSet(10, (0, 7, 9, 26)),
    45: ResidueSet(30, (0, 3, 13, 16, 21, 24, 34, 37)),
    47: ResidueSet(10, (0, 1, 7, 28)),
    49: ResidueSet(28, (0, 1, 9, 12, 13, 31, 32, 38)),
    51: ResidueSet(28, (0, 5, 13, 16, 18, 24, 29, 39)),
    53: ResidueSet(30, (0, 3, 20, 21, 23, 24, 34, 41)),
    55: ResidueSet(10, (0, 9, 13, 32)),
    57: ResidueSet(30, (0, 3, 9, 12, 20, 22, 29, 43)),
    59: ResidueSet(10, (0, 3, 11, 34)),
    61: ResidueSet(28, (0, 5, 11, 13, 18, 24, 29, 44)),
}


def _split_pow3(n: int) -> tuple[int, int]:
    """n = cofactor * 3**exponent with 3 not dividing cofactor."""
    exponent = 0
    while n % 3 == 0:
        n //= 3
        exponent += 1
    return exponent, n


#: u % 6 -> (family letter, the u of its base set, its top element / 3**n)
#: for the characters 10*u*3**n + 1 routed to the mod-60 families
_MOD60_FAMILIES = {1: ("C", 7, 50), 2: ("D", 8, 55), 4: ("E", 4, 35), 5: ("F", 5, 40)}


def _table_recipe(target: int, table_modulus: int) -> WitnessRecipe:
    # top = (target-1)/2 + N/2 makes 2*top+1-N == target; the bundled rows
    # hold one top per residue from the band's first, so shifting down by whole
    # moduli lands on a row (top is never 0 or N/2 mod N for targets routed here).
    top = (target - 1) // 2 + table_modulus // 2
    low = _BANDS[table_modulus][0]
    base_top = low + (top - low) % table_modulus
    return WitnessRecipe(
        target,
        f"mod{table_modulus}-table",
        TableRef(table_modulus, base_top),
        (top - base_top) // table_modulus,
        top,
        table_modulus,
    )


def witness_for(target: int) -> WitnessRecipe:
    """Pick a construction recipe for the given character.

    Raises ForbiddenCharacterError for the six unattainable values and
    NegativeCharacterError below zero.  Every other nonnegative integer
    gets a recipe; running it through `execute_and_verify` is what turns
    the claim into a checked fact.
    """
    if isinstance(target, int) and target < 0:  # a bool is never negative
        raise NegativeCharacterError(f"no sequence has character {target}")
    check_int(target, "character")
    if target in FORBIDDEN_CHARACTERS:
        raise ForbiddenCharacterError(f"character {target} is unattainable")

    if target == 0:
        return WitnessRecipe(0, "trivial-zero", UNIT, 0, 0, 1)

    if target % 2 == 0:
        # (2k-3)*3**(t-1) + 1 sweeps every even value exactly once over the
        # ladder k >= 2, 3 not dividing k.
        exponent, m = _split_pow3(target - 1)
        k = (m + 3) // 2
        return WitnessRecipe(
            target,
            "even-ladder",
            FamilyId("Atk", (exponent + 1, k)),
            0,
            k * 3**exponent,
            3 ** (exponent + 1),
        )

    if target % 30 == 1:
        n, u = _split_pow3((target - 1) // 10)  # n >= 1 here
        if u not in (1, 2):
            letter, start, base_top = _MOD60_FAMILIES[u % 6]
            shifts = (u - start) // 6
            modulus = 10 * 3 ** (n + 1)
            return WitnessRecipe(
                target,
                "mod60-family",
                FamilyId(letter, (n,)),
                shifts,
                base_top * 3**n + shifts * modulus,
                modulus,
            )
        if target >= 87:
            # 10*3**n + 1 and 20*3**n + 1 never collide with the two top
            # residues the mod-28 table is missing.
            return _table_recipe(target, 28)
        # targets 31 and 61 fall through to the bundled small-case rows
    elif target >= 63:
        return _table_recipe(target, 30)

    if target in SMALL_CASE_BASES:
        base = SMALL_CASE_BASES[target]
        return WitnessRecipe(
            target, "small-case-search", base, 0, base.max_element, base.modulus
        )

    raise InvariantViolationError(f"dispatch gap at character {target}")


# ---------------------------------------------------------------------------
# bundled tables


@dataclass(frozen=True)
class ErratumEntry:
    """One bundled-table row that needed intervention at load time."""

    modulus: int
    max_element: int
    note: str  # flag text from the data file, describing the defect
    row: tuple[int, ...]  # elements actually served
    #: a flagged row is served as read, and only if it verifies
    resolution: ClassVar[str] = "natural-reading-verified"


def _read_table(modulus: int) -> tuple[tuple[ResidueSet, ...], list[ErratumEntry]]:
    """Rows of ``data/mod<N>.txt``; their tops must run through the band exactly."""
    name = f"mod{modulus}.txt"
    text = (importlib.resources.files("stanley") / "data" / name).read_text("ascii")
    rows: list[ResidueSet] = []
    errata: list[ErratumEntry] = []
    note: list[str] | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            note = None
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("erratum:"):
                note = [body[len("erratum:") :].strip()]
            elif note is not None:
                note.append(body)  # continuation of a flag comment
            continue
        row = parse_set(line)
        if row.modulus != modulus:
            raise FormatError(f"{name}: expected modulus {modulus}, got {row.modulus}")
        if note is not None:
            if not verify(row).is_near_modular:
                raise VerificationError("appendix", f"flagged row {format_set(row)} does not verify")
            errata.append(ErratumEntry(modulus, row.max_element, " ".join(note), row.elements))
            note = None
        rows.append(row)
    tops = tuple(row.max_element for row in rows)
    if tops != _BANDS[modulus]:
        raise VerificationError(
            "appendix", f"mod {modulus} table tops {tops} break the expected band"
        )
    return tuple(rows), errata


@dataclass(frozen=True)
class AppendixTables:
    """The two bundled witness tables plus any load-time interventions."""

    mod28: tuple[ResidueSet, ...]
    mod30: tuple[ResidueSet, ...]
    errata: tuple[ErratumEntry, ...]

    def row(self, modulus: int, max_element: int) -> ResidueSet:
        band = _BANDS.get(check_int(modulus, "modulus"), ())
        if check_int(max_element, "max_element") not in band:
            raise PreconditionError(f"no bundled row mod {modulus} with top {max_element}")
        return getattr(self, f"mod{modulus}")[band.index(max_element)]


@lru_cache(maxsize=1)
def load_appendix() -> AppendixTables:
    """Parse the bundled tables once.  A table whose tops leave its band, or a
    flagged row that fails ``verify``, raises VerificationError."""
    mod28, errata28 = _read_table(28)
    mod30, errata30 = _read_table(30)
    return AppendixTables(mod28, mod30, tuple(errata28 + errata30))


@dataclass(frozen=True)
class AppendixReport:
    rows_mod28: int
    rows_mod30: int
    errata: tuple[ErratumEntry, ...]


def appendix_check() -> AppendixReport:
    """Audit every bundled row deep, as the unshifted table witness for its
    character, whether a dispatched character reaches the row or not.

    Loading has already checked each table's band of tops, which the
    dispatcher's shift arithmetic relies on.
    """
    tables = load_appendix()
    for row in tables.mod28 + tables.mod30:
        execute_and_verify(_table_recipe(character_of(row), row.modulus), deep=True)
    return AppendixReport(len(tables.mod28), len(tables.mod30), tables.errata)


# ---------------------------------------------------------------------------
# execution

#: Every failed check raises, so a result passed the static checks, or all six if deep.
#: "character" holds once max-element and modulus pass: the recipe fixes 2*max+1-M.
STATIC_CHECKS = ("near-modular", "max-element", "modulus", "character")
DEEP_CHECKS = STATIC_CHECKS + ("doubling-structure", "omitted-bound")


@dataclass(frozen=True)
class VerifiedWitness:
    """A recipe's output set together with everything checked about it.

    A deep run keeps the witness's doubling steps s, not its fully modular form
    A = W + M*B_s: ``modular_form`` builds A from the witness on each read.
    No recipe runs a search, so ``search_nodes`` stays 0; it is kept because the
    benchmark's sweeps still sum it as a counter.
    """

    recipe: WitnessRecipe
    witness: ResidueSet
    character: int
    checks: tuple[str, ...]
    search_nodes: int = 0
    doubling_steps: int | None = None
    profile: CharacterProfile | None = None
    omitted: OmittedSet | None = None

    @property
    def deep_verified(self) -> bool:
        return self.profile is not None

    @property
    def modular_form(self) -> ResidueSet | None:
        """The fully modular form the deep phase proved, or None without one."""
        return None if self.doubling_steps is None else to_modular(self.witness)[0]


def _resolve_base(base: BaseSpec) -> ResidueSet:
    if isinstance(base, ResidueSet):
        return base
    if isinstance(base, FamilyId):
        return build_family(base)
    if isinstance(base, TableRef):
        return load_appendix().row(base.modulus, base.max_element)
    raise MalformedInputError(f"unsupported recipe base {base!r}")


def execute_and_verify(recipe: WitnessRecipe, *, deep: bool = False) -> VerifiedWitness:
    """Build the recipe's set and refuse to hand it over unchecked.

    Static checks always run: near-modularity and the expected top element and
    modulus, which settle the character 2*max+1-M (the recipe pins it to the
    target).  With ``deep``, ``doubling_reduction`` of the top and modulus M of
    the witness W gives the s steps to its fully modular form A = W + M*B_s mod
    N = M*3^s, and ``doubled_prefix`` proves from W alone, never regrowing A, that
    greedy growth from A yields P = A + {0, N, 3N, 4N}, and reads P's character
    profile (two levels at least) and omitted set off A.  Doubling keeps
    2*max+1-N equal to W's character, so only the omitted-value bound is checked
    against the target.  The result keeps s and builds A again only when
    ``modular_form`` is read.  Any failed check raises VerificationError; a
    rejected certificate names A and grows no greedy term to explain itself, and
    a prefix past the mask budget raises ResourceLimitError.
    """
    base = _resolve_base(recipe.base)
    witness = shift_max(base, recipe.shift_count) if recipe.shift_count else base
    report = verify(witness)
    if not report.is_near_modular:
        raise VerificationError(
            "near-modular", f"{format_set(witness)} violates {report.witness_violation}"
        )
    if witness.max_element != recipe.expected_max:
        raise VerificationError(
            "max-element", f"expected {recipe.expected_max}, got {witness.max_element}"
        )
    if witness.modulus != recipe.expected_modulus:
        raise VerificationError(
            "modulus", f"expected {recipe.expected_modulus}, got {witness.modulus}"
        )

    if not deep:
        return VerifiedWitness(recipe, witness, recipe.target_character, STATIC_CHECKS)
    profile, omitted = doubled_prefix(witness.elements, witness.modulus) or (None, None)
    if profile is None:
        tail = ("leaves A+{0,N,3N,4N}" if omitted is None
                else f"does not repeat with character {recipe.target_character}")
        raise VerificationError(
            "doubling-structure", f"greedy extension of {format_set(to_modular(witness)[0])} {tail}"
        )
    if omitted.omega is not None and omitted.omega >= recipe.target_character:
        raise VerificationError(
            "omitted-bound",
            f"largest omitted value {omitted.omega} reaches the character"
            f" {recipe.target_character}",
        )
    steps = doubling_reduction(witness.max_element, witness.modulus)[0]
    return VerifiedWitness(recipe, witness, recipe.target_character, DEEP_CHECKS,
                           doubling_steps=steps, profile=profile, omitted=omitted)


# ---------------------------------------------------------------------------
# coverage sweeps


def describe_base(base: BaseSpec) -> str:
    """One-line description of a recipe base, as shown in coverage and witness output."""
    if isinstance(base, FamilyId):
        return str(base)
    if isinstance(base, TableRef):
        return f"table mod {base.modulus} top {base.max_element}"
    return format_set(base)


@dataclass(frozen=True)
class CoverageEntry:
    """One character's row in a coverage sweep."""

    character: int
    status: str  # "verified" | "excluded" | "failed"
    strategy: str | None = None
    base: str | None = None
    max_element: int | None = None
    modulus: int | None = None
    deep_verified: bool = False
    doubling_levels: int | None = None
    omega: int | None = None
    detail: str | None = None


def _coverage_entry(target: int, deep: bool) -> CoverageEntry:
    if target in FORBIDDEN_CHARACTERS:
        return CoverageEntry(target, "excluded")
    recipe = witness_for(target)
    try:
        result = execute_and_verify(recipe, deep=deep)
    except StanleyError as exc:
        return CoverageEntry(
            target,
            "failed",
            recipe.strategy,
            describe_base(recipe.base),
            detail=str(exc),
        )
    return CoverageEntry(
        target,
        "verified",
        recipe.strategy,
        describe_base(recipe.base),
        result.witness.max_element,
        result.witness.modulus,
        result.deep_verified,
        result.profile.levels_verified if result.profile else None,
        result.omitted.omega if result.omitted else None,
    )


@dataclass(frozen=True)
class CoverageReport:
    """Outcome of sweeping every character in 0..lambda_max."""

    lambda_max: int
    entries: tuple[CoverageEntry, ...]

    def count(self, status: str) -> int:
        return sum(1 for e in self.entries if e.status == status)

    @property
    def all_admissible_verified(self) -> bool:
        return self.count("failed") == 0

    def summary_line(self) -> str:
        return (
            f"characters 0..{self.lambda_max}: {self.count('verified')} verified,"
            f" {self.count('excluded')} excluded, {self.count('failed')} failed"
        )

    def to_text_lines(self) -> list[str]:
        lines = [
            f"{'char':>5}  {'status':<8}  {'strategy':<17}  "
            f"{'base':<30}  {'max':>7}  {'mod':>5}  {'lvl':>3}  {'omega':>5}"
        ]
        for e in self.entries:
            if e.status == "excluded":
                lines.append(f"{e.character:>5}  excluded")
                continue
            levels = "-" if e.doubling_levels is None else str(e.doubling_levels)
            omega = "-" if e.omega is None else str(e.omega)
            top = "-" if e.max_element is None else str(e.max_element)
            modulus = "-" if e.modulus is None else str(e.modulus)
            lines.append(
                f"{e.character:>5}  {e.status:<8}  {e.strategy:<17}  "
                f"{e.base:<30}  {top:>7}  {modulus:>5}  {levels:>3}  {omega:>5}"
            )
        lines.append(self.summary_line())
        return lines

    def to_json_dict(self) -> dict:
        return {
            "lambda_max": self.lambda_max,
            "verified": self.count("verified"),
            "excluded": self.count("excluded"),
            "failed": self.count("failed"),
            "entries": [asdict(e) for e in self.entries],
        }


def coverage_report(lambda_max: int, *, deep: bool = True) -> CoverageReport:
    """Sweep characters 0..lambda_max in order, in this process, and verify a
    witness for each admissible one."""
    if check_int(lambda_max, "lambda_max") < 16:
        raise PreconditionError("lambda_max must be at least 16")
    entries = tuple(_coverage_entry(c, deep) for c in range(lambda_max + 1))
    return CoverageReport(lambda_max, entries)
