"""Exception hierarchy shared across the package."""


class RankMomentsError(Exception):
    """Base class for all package errors."""


class TieError(RankMomentsError):
    """Duplicate values found where tie-free data is required."""

    def __init__(self, coordinate: str, values):
        self.coordinate = coordinate
        self.values = tuple(values)
        super().__init__(f"tied values in {coordinate}: {self.values}")


class SizeError(RankMomentsError):
    """Sample too small for the requested operation."""


class DegenerateError(RankMomentsError):
    """Zero-variance coordinate."""


class DomainError(RankMomentsError):
    """Argument outside the mathematical domain (e.g. |corr| > 1, non-PSD matrix)."""


class ConvergenceError(RankMomentsError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class NegativeVarianceError(RankMomentsError):
    """A theoretical variance evaluated below the roundoff clamp window."""


class CrossCheckError(RankMomentsError):
    """Two independent forms of one exact quantity disagree."""


class DerivationError(RankMomentsError):
    """A derived pattern correlation matrix failed its anchor checks."""


class ResourceError(RankMomentsError):
    """Simulation request exceeds the configured work budget."""
