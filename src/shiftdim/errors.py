"""Exception hierarchy shared across the package.

Construction routines raise rather than return partial objects; every
exception carries the failing clause or witness so certificates can echo it.
"""

from __future__ import annotations


class ShiftDimError(Exception):
    """Base class for all package errors.  ``stage`` names the chain stage
    that raised it, when it was raised inside one."""

    stage: str | None = None


class InvalidSpec(ShiftDimError):
    """A subshift presentation is unusable (non-primitive substitution,
    empty language at the requested length, malformed alphabet, ...)."""


class EmptyLanguage(ShiftDimError):
    """No words of the requested length exist."""


class NotSurjective(ShiftDimError):
    """The operation needs every state to have a predecessor."""


class PeriodicWitness(ShiftDimError):
    """A cycle shorter than the required aperiodicity window was found;
    ``length`` is its length."""

    def __init__(self, message: str, length: int):
        self.length = length
        super().__init__(message)


class DepthInsufficient(ShiftDimError):
    """A clopen choice is impossible at the current resolution; retry with a
    deeper graph.  Mapped to the ``inconclusive-at-depth`` verdict."""


class HypothesisViolated(ShiftDimError):
    """An input set fails one of the stated preconditions.  ``clause`` names
    the failing condition."""

    def __init__(self, clause: str, detail: str = ""):
        self.clause = clause
        super().__init__(f"hypothesis violated: {clause}" + (f" ({detail})" if detail else ""))


class ConstructionFailed(ShiftDimError):
    """No admissible cover of the residual set exists at this resolution."""


class HeightMismatch(ShiftDimError):
    """Tower height does not match the formula required by the conversion."""


class NTooSmall(ShiftDimError):
    """Resolution parameter too small for the target accuracy; a bad
    parameter, whose message names the least value that works."""


class TailMassTooLarge(ShiftDimError):
    """Finite-support projection would move a point farther than allowed."""


class TowerPairsInsufficient(ShiftDimError):
    """The supplied tower pairs do not certify the coverage margin needed by
    the map construction (lower-bound witness H < 1 at some state)."""


class MissingEquivarianceCertificate(ShiftDimError):
    """A construction that consumes an equivariant map was handed one
    without a matching certificate."""


class ConfigError(ShiftDimError):
    """Malformed configuration file; carries line/key information."""
