"""Gauge-split slice operator and its k-fold iteration.

One slice of duration eps applies, right to left,

    exp(-i eps V) * prod_l  e^{i lam_l} exp(-i eps H0_l) e^{-i lam_l}

where H0_l = -d^2/dx_l^2 acts spectrally (periodic boundary) and lam_l is the
per-axis gauge phase.  Every factor is a unit-modulus multiplier or a spectral
unitary, so each slice preserves the L2 norm to rounding.  A phase that
overflows is NaN, and applying the map raises :class:`NonFiniteError`.

Neither lam_l nor the samples of V and a depend on eps, so a
:class:`SliceOperator` tabulates them once per field and grid:
:func:`scenarios.run` builds one per run, and every slice count of its
studies and the gauge study's residual share it; a field too large to
square is refused before any table is built.
``SliceOperator.slice(eps)`` builds exp(-i eps V) and the kinetic multipliers
for one eps and returns the one-slice map.  The operator's tables are never
written after construction, so one operator serves every evolution in turn.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import GridMismatchError
from . import gauge
from .fields import (
    Grid,
    ScalarPotentialSpec,
    VectorPotentialSpec,
    WaveFunction,
    fourier_multiply,
    sample_field,
    sample_vector_potential,
)

BOUNDARY_MASS_WARN = 1e-6


def kinetic_multiplier(grid: Grid, axis: int, eps: float) -> np.ndarray:
    """Spectral multiplier exp(-i eps xi^2) for free propagation along one axis."""
    _, d2 = grid.derivative_symbols(axis)
    return np.exp(1j * (eps * d2))


class SliceOperator:
    """The eps-free data of the gauge-split slice: field samples and gauge phases.

    Neither depends on the slice length, so one operator serves every eps;
    :meth:`slice` builds the one-slice map for a given eps.  The axis product
    is written left to right, axis 0 first; the rightmost factor acts first,
    so axis n-1 is applied first and axis 0 last.
    """

    def __init__(
        self,
        grid: Grid,
        scalar: ScalarPotentialSpec | None,
        vector: VectorPotentialSpec | None,
    ):
        if vector is not None and vector.ndim != grid.ndim:
            raise ValueError("vector potential dimension must match the grid")
        self.grid = grid
        # a field too large to square is refused before anything else is sampled or tabulated
        self.a_vals = None if vector is None else sample_vector_potential(vector, grid)
        self.potential = None if scalar is None else sample_field(scalar, grid)

        # per axis the pair (e^{+i lam_l}, e^{-i lam_l})
        self.gauge_phases: list[tuple[np.ndarray, np.ndarray]] | None = None
        if vector is not None:
            phases = [np.exp(1j * gauge.gauge_phase_table(vector, l, grid)) for l in range(grid.ndim)]
            self.gauge_phases = [(phase, np.conj(phase)) for phase in phases]

    def slice(self, eps: float):
        """The one-slice map of wavefunctions for slice length eps; eps = 0 is the identity.

        exp(-i eps V) and the kinetic multipliers are built once here, so each
        application only multiplies and transforms.
        """
        if not eps >= 0:
            raise ValueError(f"eps must be nonnegative, got {eps}")
        grid, gauge_phases = self.grid, self.gauge_phases
        potential_phase = None
        if self.potential is not None:
            potential_phase = np.exp(1j * (-eps * self.potential))
        kinetic = [kinetic_multiplier(grid, l, eps) for l in range(grid.ndim)]

        def apply(psi: WaveFunction) -> WaveFunction:
            if psi.grid != grid:
                raise GridMismatchError("wavefunction grid does not match the slice operator grid")
            v = psi.values
            for l in reversed(range(grid.ndim)):
                if gauge_phases is not None:
                    v = gauge_phases[l][1] * v
                v = fourier_multiply(v, kinetic[l], l)
                if gauge_phases is not None:
                    v = gauge_phases[l][0] * v
            if potential_phase is not None:
                v = potential_phase * v
            return WaveFunction(grid, v)

        return apply


def boundary_mass_fraction(psi: WaveFunction) -> float:
    """Fraction of |psi|^2 mass in the outermost cell layer."""
    prob = np.abs(psi.values) ** 2
    total = float(np.sum(prob))
    if total == 0.0:
        return 0.0
    inner = prob
    for axis in range(psi.grid.ndim):
        sl = [slice(None)] * psi.grid.ndim
        sl[axis] = slice(1, -1)
        inner = inner[tuple(sl)]
    return float((total - np.sum(inner)) / total)


def evolve(op: SliceOperator, psi: WaveFunction, t: float, slices: int) -> WaveFunction:
    """``slices``-fold application of the slice of length ``t / slices``."""
    if not t > 0:
        raise ValueError("total time must be positive")
    if slices < 1:
        raise ValueError("slice count must be a positive integer")
    if boundary_mass_fraction(psi) > BOUNDARY_MASS_WARN:
        warnings.warn(
            "wavepacket carries significant mass in the boundary cells; "
            "periodic wrap-around will contaminate the evolution",
            stacklevel=2,
        )
    step = op.slice(t / slices)
    out = psi
    for _ in range(slices):
        out = step(out)
    return out
