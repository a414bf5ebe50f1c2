"""Exception types shared across the package."""

from __future__ import annotations


class StanleyError(Exception):
    """Base class for every error raised by this library."""


class MalformedInputError(StanleyError):
    """Input violates a structural requirement (ordering, sign, shape)."""


class FormatError(MalformedInputError):
    """A number or a set line could not be parsed."""


class PrefixTooShortError(MalformedInputError):
    """The sequence prefix is too short for the requested analysis."""


class PreconditionError(StanleyError):
    """A documented operation precondition does not hold."""


class NegativeCharacterError(PreconditionError):
    """2*max + 1 - modulus is negative; the set has no character."""


class ForbiddenCharacterError(PreconditionError):
    """The requested character value is one of the six unattainable ones."""


class ResourceLimitError(StanleyError):
    """A configured limit (integer width, mask budget, element or node budget) was hit."""


class VerificationError(StanleyError):
    """A witness failed one of its verification checks."""

    def __init__(self, check: str, message: str) -> None:
        super().__init__(f"{check}: {message}")
        self.check = check


class InvariantViolationError(StanleyError):
    """An internal invariant broke; this signals a bug, not bad input."""
