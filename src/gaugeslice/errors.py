"""Exception types shared across the package."""


class GaugesliceError(Exception):
    """Base class for all package-specific errors."""


class SingularNodeError(GaugesliceError):
    """A field evaluation was requested at (or too close to) a registered singular point."""


class NonFiniteError(GaugesliceError):
    """An evaluator returned a non-finite value away from its registered singular set."""


class GridMismatchError(GaugesliceError):
    """Two wavefunctions that must share a grid do not."""


class QuadratureDivergenceError(GaugesliceError):
    """A line integral off the registered singular set is non-finite or unresolved.

    Raised when the integrand is non-finite at a quadrature node, or when the
    order-15 and order-7 Gauss-Legendre values on some segment still differ by
    more than the tolerance after the fixed number of bisection rounds.
    """


class EigenFailureError(GaugesliceError):
    """Dense Hermitian eigendecomposition failed."""


class CapExceededError(GaugesliceError):
    """A quadrature run would exceed the configured evaluation cap."""

    def __init__(self, message, suggested_slices=None):
        super().__init__(message)
        self.suggested_slices = suggested_slices


class ScheduleError(GaugesliceError):
    """A box/gap schedule is not monotone, or a gap excises a whole axis."""
