"""Exception types shared across the package.

Every failure that a caller might want to branch on gets its own class; all
inherit from GrowthcertError so CLI entry points can catch one thing.
"""

from __future__ import annotations


class GrowthcertError(Exception):
    """Base class for all package-specific errors."""


class WordIndexError(GrowthcertError):
    """A word letter references a generator index outside the alphabet."""


class BudgetExceeded(GrowthcertError):
    """An enumeration hit its element budget before finishing.

    May carry a partial result in .partial so callers can still report it.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class ZeroDiscriminant(GrowthcertError):
    """Squarefree part unexpectedly has vanishing discriminant."""


class RamifiedSlopes(GrowthcertError):
    """Newton polygon has a non-integral slope; moduli are irrational."""


class PrecisionExhausted(GrowthcertError):
    """Interval refinement hit the precision cap without certifying."""


class Inconclusive(GrowthcertError):
    """A certified check could decide neither true nor false."""


class PairNotFound(GrowthcertError):
    """Ball search exhausted without a regular, generic pair."""


class InsufficientData(GrowthcertError):
    """Not enough ball radii to estimate growth."""


class BalanceFailed(GrowthcertError):
    """B itself certifies neither the norm relation nor the trace relation."""


class SwapFailed(GrowthcertError):
    """Role swap preconditions could not be certified."""


class NoGap(GrowthcertError):
    """No place/wedge combination certifies the top-eigenvalue gap."""


class NotConnected(GrowthcertError):
    """Large-entry graph has no path between the requested indices."""


class L2Unreachable(GrowthcertError):
    """No word within the cap certifies the corner condition."""


class ExponentSearchExhausted(GrowthcertError):
    """No exponent within the cap certifies the cone inclusions."""


class NoStabilization(GrowthcertError):
    """Subspace closure kept growing past the dimension cap."""


class BadExponent(GrowthcertError):
    """Wedge or power exponent outside the valid range."""


class SingularEnclosure(GrowthcertError):
    """Interval matrix could not be certified invertible."""


class PipelineFailure(GrowthcertError):
    """A certification stage failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage
        self.detail = message
