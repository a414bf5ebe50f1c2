"""Greedy 3-AP-free sequences, residue-set calculus, and character witnesses."""

from .core import (
    CharacterProfile,
    OmittedSet,
    StanleyPrefix,
    detect_character,
    doubled_prefix,
    doubling_reduction,
    greedy_extend,
    growth_diagnostic,
    omitted_set,
)
from .errors import (
    ForbiddenCharacterError,
    FormatError,
    InvariantViolationError,
    MalformedInputError,
    NegativeCharacterError,
    PreconditionError,
    PrefixTooShortError,
    ResourceLimitError,
    StanleyError,
    VerificationError,
)
from .families import (
    FamilyId,
    build_Acal,
    build_At,
    build_Atk,
    build_Bcal,
    build_CDEF,
    build_R,
    build_T,
    build_Ttilde,
    build_U,
    build_Utilde,
    build_family,
    parse_family,
)
from .modset import (
    ResidueSet,
    VerificationReport,
    character_of,
    format_set,
    load_set_file,
    parse_set,
    power,
    product,
    read_sets,
    scale,
    shift_max,
    to_modular,
    verify,
)
from .search import SearchResult, SearchSpec, search_near_modular
from .witness import (
    FORBIDDEN_CHARACTERS,
    STRATEGIES,
    AppendixReport,
    AppendixTables,
    CoverageEntry,
    CoverageReport,
    ErratumEntry,
    TableRef,
    VerifiedWitness,
    WitnessRecipe,
    appendix_check,
    coverage_report,
    execute_and_verify,
    load_appendix,
    witness_for,
)

__version__ = "0.1.0"

