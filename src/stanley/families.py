"""Builders for the named product-construction families.

Every member is assembled from near-modular leaves with ``product``,
``scale`` and ``shift_max`` alone: the elementary blocks, and the ladder
A_t, a leaf of its own because its pivot edit is no such law.
``family_leaves`` names a member's leaves.  The letter names (T, Acal, At,
C..F, ...) are the stable addressing scheme used by the CLI and the witness
recipes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .core import check_int, read_int
from .errors import MalformedInputError, PreconditionError
from .modset import ResidueSet, power, product, scale, shift_max

#: The unit set and the four elementary blocks; the tests verify each block
#: near-modular.
UNIT = ResidueSet(1, (0,))
DOUBLING_BLOCK = ResidueSet(3, (0, 1))
SEED_02 = ResidueSet(3, (0, 2))
MOD10_A = ResidueSet(10, (0, 7, 9, 16))
MOD10_B = ResidueSet(10, (0, 1, 7, 8))

#: The repeated factor of the T family: {0,1,6,7} mod 9.
BLOCK = product(DOUBLING_BLOCK, SEED_02)


def build_T(n: int) -> ResidueSet:
    """n-fold product of {0,1,6,7} mod 9; modulus 9**n, 4**n elements."""
    check_int(n, "T parameter n")
    return power(UNIT, BLOCK, n)


def build_Ttilde(n: int) -> ResidueSet:
    """T_n widened by a doubling block: modulus 3**(2n+1)."""
    return product(build_T(n), DOUBLING_BLOCK)


def build_Acal(n: int) -> ResidueSet:
    """Modular set mod 3**(2n+1) with 2*4**n elements and max 2*9**n."""
    check_int(n, "Acal parameter n")
    return build_At(2 * n + 1)


def _u_blocks(n: int) -> int:
    """The n - 1 copies of the T block in U_n; n must be at least 1."""
    if check_int(n, "U parameter n") < 1:
        raise MalformedInputError("U requires n >= 1")
    return n - 1


def build_U(n: int) -> ResidueSet:
    """{0,2} stacked under n-1 copies of the T block; modulus 3**(2n-1)."""
    return power(SEED_02, BLOCK, _u_blocks(n))


def build_Utilde(n: int) -> ResidueSet:
    """U_n widened by a doubling block: modulus 3**(2n)."""
    return product(build_U(n), DOUBLING_BLOCK)


def build_Bcal(n: int) -> ResidueSet:
    """Modular set mod 3**(2n) with 4**n elements and max 2*3**(2n-1)."""
    if check_int(n, "Bcal parameter n") < 1:
        raise MalformedInputError("Bcal requires n >= 1")
    return build_At(2 * n)


#: ``build_At`` keeps the ladders with t <= 17, under 2**18 elements in all: 3**17
#: is the last modulus within the 2**28-bit mask budget, so no larger one can be verified.
_MEMO_T = 17
_LADDERS: dict[int, ResidueSet] = {}


def build_At(t: int) -> ResidueSet:
    """Modular mod 3**t: Ttilde or Utilde by parity of t, pivot 3**(t-1) replaced by 2*3**(t-1).

    ``t`` is checked on every call; then a ladder with t <= 17 (modulus within
    the mask budget) is built once per process and the same object returned after.
    """
    if check_int(t, "At parameter t") < 1:
        raise MalformedInputError("At requires t >= 1")
    ladder = _LADDERS.get(t)
    if ladder is None:
        wide = build_Ttilde((t - 1) // 2) if t % 2 else build_Utilde(t // 2)
        pivot = 3 ** (t - 1)
        ladder = ResidueSet(wide.modulus, tuple(e for e in wide.elements if e != pivot) + (2 * pivot,))
        if t <= _MEMO_T:
            _LADDERS[t] = ladder
    return ladder


def build_Atk(t: int, k: int) -> ResidueSet:
    """Near-modular mod 3**t with max k*3**(t-1), for k >= 2, 3 not | k.

    k = 2 is the base set, k = 4 its doubling by scale 2, and every +3 in
    k is one modulus added onto the maximum.
    """
    if check_int(t, "Atk parameter t") < 1:
        raise MalformedInputError("Atk requires t >= 1")
    if check_int(k, "Atk parameter k") < 2:
        raise PreconditionError("Atk requires k >= 2")
    if k % 3 == 0:
        raise PreconditionError("Atk requires k not divisible by 3")
    if k % 3 == 2:
        base, start = build_At(t), 2
    else:
        base, start = scale(build_At(t), 2), 4
    steps = (k - start) // 3
    return shift_max(base, steps) if steps else base


def build_CDEF(n: int, which: str) -> ResidueSet:
    """Near-modular mod 10*3**(n+1) with max (50|55|35|40)*3**n.

    C and D widen A_(n+1,k) for k = 2 and 7 by {0,7,9,16} mod 10; E widens
    k = 11 and F widens A_(n+1) scaled by 8 (max 16*3**n) by {0,1,7,8}.
    """
    check_int(n, "C/D/E/F parameter n")
    if not isinstance(which, str) or which not in ("C", "D", "E", "F"):
        raise MalformedInputError(f"unknown family letter {which!r}")
    if which == "F":
        return product(scale(build_At(n + 1), 8), MOD10_B)
    k, widener = {"C": (2, MOD10_A), "D": (7, MOD10_A), "E": (11, MOD10_B)}[which]
    return product(build_Atk(n + 1, k), widener)


#: name -> (parameter count, builder, leaves).  The builder assembles a member
#: from its leaves by ``product``, ``scale`` (gcd 1) and ``shift_max`` alone;
#: ``leaves`` lists each leaf with the number of times the member uses it.
_FAMILY_BUILDERS = {
    "T": (1, build_T, lambda n: ((UNIT, 1), (DOUBLING_BLOCK, n), (SEED_02, n))),
    "Ttilde": (1, build_Ttilde, lambda n: ((UNIT, 1), (DOUBLING_BLOCK, n + 1), (SEED_02, n))),
    "Acal": (1, build_Acal, lambda n: ((build_Acal(n), 1),)),
    "U": (1, build_U, lambda n: ((SEED_02, n), (DOUBLING_BLOCK, _u_blocks(n)))),
    "Utilde": (1, build_Utilde, lambda n: ((SEED_02, n), (DOUBLING_BLOCK, _u_blocks(n) + 1))),
    "Bcal": (1, build_Bcal, lambda n: ((build_Bcal(n), 1),)),
    "At": (1, build_At, lambda t: ((build_At(t), 1),)),
    "Atk": (2, build_Atk, lambda t, k: ((build_At(t), 1),)),
    "C": (1, lambda n: build_CDEF(n, "C"), lambda n: ((build_At(n + 1), 1), (MOD10_A, 1))),
    "D": (1, lambda n: build_CDEF(n, "D"), lambda n: ((build_At(n + 1), 1), (MOD10_A, 1))),
    "E": (1, lambda n: build_CDEF(n, "E"), lambda n: ((build_At(n + 1), 1), (MOD10_B, 1))),
    "F": (1, lambda n: build_CDEF(n, "F"), lambda n: ((build_At(n + 1), 1), (MOD10_B, 1))),
}

FAMILY_NAMES = tuple(_FAMILY_BUILDERS)


@dataclass(frozen=True)
class FamilyId:
    """A family letter plus its integer parameters, e.g. Atk:3,7."""

    name: str
    params: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or self.name not in _FAMILY_BUILDERS:
            raise MalformedInputError(f"unknown family {self.name!r}")
        arity = _FAMILY_BUILDERS[self.name][0]
        try:
            params = tuple(self.params)
        except TypeError:
            raise MalformedInputError(f"family parameters {self.params!r} are not iterable") from None
        object.__setattr__(self, "params", params)
        if len(params) != arity:
            raise MalformedInputError(
                f"family {self.name} takes {arity} parameter(s), got {len(params)}"
            )
        for value in params:
            check_int(value, "family parameter")

    def __str__(self) -> str:
        return f"{self.name}:" + ",".join(str(p) for p in self.params)


def parse_family(text: str) -> FamilyId:
    """Parse 'Name:p1,p2,...' as printed by str(FamilyId)."""
    if not isinstance(text, str) or ":" not in text:
        raise MalformedInputError(f"expected 'Name:params', got {text!r}")
    name, _, tail = text.strip().partition(":")
    params = tuple(read_int(p, "family parameter") for p in tail.split(","))
    return FamilyId(name.strip(), params)


def build_family(family: Union[FamilyId, str]) -> ResidueSet:
    fid = family if isinstance(family, FamilyId) else parse_family(family)
    return _FAMILY_BUILDERS[fid.name][1](*fid.params)


def family_leaves(family: Union[FamilyId, str]) -> tuple[tuple[ResidueSet, int], ...]:
    """Each leaf a member is assembled from, with the number of times it is used.

    Only the leaves are built.  ``build_family`` assembles the member from them
    by ``product``, ``scale`` with gcd(c, N) = 1 and ``shift_max`` alone, and each
    of these keeps a near-modular set near-modular, so the member is near-modular
    when every leaf is.  The ladder A_t is a leaf: its pivot edit is no such law.
    """
    fid = family if isinstance(family, FamilyId) else parse_family(family)
    return _FAMILY_BUILDERS[fid.name][2](*fid.params)
