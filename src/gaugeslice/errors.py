"""Exception types shared across the package."""


class GaugesliceError(Exception):
    """Base class for all package-specific errors."""


class SingularNodeError(GaugesliceError):
    """A field evaluation was requested at (or too close to) a registered singular point."""


class NonFiniteError(GaugesliceError):
    """An evaluator returned a non-finite value away from its registered singular set,
    or the reference's spectral interval is not a finite range with hi > lo."""


class GridMismatchError(GaugesliceError):
    """Two wavefunctions that must share a grid do not."""


class QuadratureDivergenceError(GaugesliceError):
    """A line integral off the registered singular set is non-finite or unresolved.

    Raised when the integrand is non-finite at a quadrature node, or when the
    15-point Kronrod and 7-point Gauss-Legendre values of the nested
    Gauss-Kronrod pair on some segment still differ by more than the tolerance
    after the fixed number of bisection rounds.
    """


class EigenFailureError(GaugesliceError):
    """Dense Hermitian eigendecomposition failed."""


class CapExceededError(GaugesliceError):
    """A quadrature run would exceed the configured evaluation cap, or the
    reference's Chebyshev series would exceed its radius bound."""

    def __init__(self, message, suggested_slices=None):
        super().__init__(message)
        self.suggested_slices = suggested_slices


class ScheduleError(GaugesliceError):
    """A route-3 schedule is invalid or absent, or a gap excises a whole axis.

    A schedule needs t > 0, r_start > 0, at least one step, a positive tail
    window, gap >= 0 and a gap_final equal to gap or in (0, gap).
    """
