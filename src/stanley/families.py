"""Builders for the named product-construction families.

Everything here is assembled from four elementary near-modular blocks with
``product``, ``scale`` and ``shift_max``; the letter names (T, Acal, At,
C..F, ...) are the stable addressing scheme used by the CLI and the
witness recipes.
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


def build_U(n: int) -> ResidueSet:
    """{0,2} stacked under n-1 copies of the T block; modulus 3**(2n-1)."""
    if check_int(n, "U parameter n") < 1:
        raise MalformedInputError("U requires n >= 1")
    return power(SEED_02, BLOCK, n - 1)


def build_Utilde(n: int) -> ResidueSet:
    """U_n widened by a doubling block: modulus 3**(2n)."""
    return product(build_U(n), DOUBLING_BLOCK)


def build_Bcal(n: int) -> ResidueSet:
    """Modular set mod 3**(2n) with 4**n elements and max 2*3**(2n-1)."""
    if check_int(n, "Bcal parameter n") < 1:
        raise MalformedInputError("Bcal requires n >= 1")
    return build_At(2 * n)


def build_At(t: int) -> ResidueSet:
    """Modular mod 3**t: Ttilde or Utilde by parity of t, pivot 3**(t-1) replaced by 2*3**(t-1)."""
    if check_int(t, "At parameter t") < 1:
        raise MalformedInputError("At requires t >= 1")
    wide = build_Ttilde((t - 1) // 2) if t % 2 else build_Utilde(t // 2)
    pivot = 3 ** (t - 1)
    return ResidueSet(wide.modulus, tuple(e for e in wide.elements if e != pivot) + (2 * pivot,))


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


R_VARIANTS = ("plain", "prime", "doubleprime", "tripleprime")


def build_R(n: int, variant: str = "plain") -> ResidueSet:
    """Near-modular mod 3**(n+1) with max (2|7|11|16)*3**n by variant.

    The plain, prime and doubleprime variants are build_Atk(n + 1, k) for
    k = 2, 7 and 11; tripleprime, k = 16, is build_At(n + 1) scaled by 8.
    """
    check_int(n, "R parameter n")
    if not isinstance(variant, str) or variant not in R_VARIANTS:
        raise MalformedInputError(f"unknown R variant {variant!r}")
    if variant == "tripleprime":
        return scale(build_At(n + 1), 8)
    return build_Atk(n + 1, {"plain": 2, "prime": 7, "doubleprime": 11}[variant])


def build_CDEF(n: int, which: str) -> ResidueSet:
    """Near-modular mod 10*3**(n+1) with max (50|55|35|40)*3**n.

    C and D widen the plain and prime R variants by {0,7,9,16} mod 10;
    E and F widen the doubleprime and tripleprime variants by {0,1,7,8}.
    """
    check_int(n, "C/D/E/F parameter n")
    table = {
        "C": ("plain", MOD10_A),
        "D": ("prime", MOD10_A),
        "E": ("doubleprime", MOD10_B),
        "F": ("tripleprime", MOD10_B),
    }
    if not isinstance(which, str) or which not in table:
        raise MalformedInputError(f"unknown family letter {which!r}")
    variant, widener = table[which]
    return product(build_R(n, variant), widener)


#: name -> (parameter count, builder)
_FAMILY_BUILDERS = {
    "T": (1, build_T),
    "Ttilde": (1, build_Ttilde),
    "Acal": (1, build_Acal),
    "U": (1, build_U),
    "Utilde": (1, build_Utilde),
    "Bcal": (1, build_Bcal),
    "At": (1, build_At),
    "Atk": (2, build_Atk),
    "C": (1, lambda n: build_CDEF(n, "C")),
    "D": (1, lambda n: build_CDEF(n, "D")),
    "E": (1, lambda n: build_CDEF(n, "E")),
    "F": (1, lambda n: build_CDEF(n, "F")),
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
