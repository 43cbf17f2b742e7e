"""Exception and warning types shared across the package."""


class GafError(Exception):
    """Base class for all library errors."""


class DomainError(GafError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class NormalizationError(GafError, ValueError):
    """A spectral measure does not have total mass one."""


class PrecisionError(GafError, ArithmeticError):
    """The requested tolerance cannot be met.

    Attributes
    ----------
    achievable : float or None
        Rough estimate of the tolerance that could be met instead.
    """

    def __init__(self, message, achievable=None):
        super().__init__(message)
        self.achievable = achievable


class DegenerateDenominator(GafError, ZeroDivisionError):
    """A variance/denominator underflowed to zero; the ratio is meaningless."""


class MethodUnavailable(GafError, ValueError):
    """The chosen evaluation route does not apply to this measure."""


class CaseMismatch(GafError, ValueError):
    """The degeneracy pattern of the density does not match the requested formula."""


class SolverError(GafError, RuntimeError):
    """Iterative solver failed to converge.

    Partial results, when meaningful, are attached as ``partial``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class TruncationBiasWarning(UserWarning):
    """Polynomial truncation bias may be non-negligible near the outer radius."""


class TailWarning(UserWarning):
    """The variance tail did not settle; the extrapolated value may be off."""


class BoundaryTieWarning(UserWarning):
    """A root sits on a region boundary within tie tolerance; counted as inside."""
