"""Gauge-split slice operator and its k-fold iteration.

One slice of duration eps is :func:`gauge.staircase_sweep` with the free step
exp(-i eps H0_l), H0_l = -d^2/dx_l^2 acting spectrally (periodic boundary),
between the per-axis gauge phases, followed by exp(-i eps V).  Every factor
is a unit-modulus multiplier or a spectral unitary, so each slice preserves
the L2 norm to rounding.  A phase that overflows is NaN, and applying the map
raises :class:`NonFiniteError`.

Neither lam_l nor the samples of V and a depend on eps, so a
:class:`SliceOperator` tabulates them once per field and grid:
:func:`scenarios.run` builds one per run, and every slice count of its
studies and the gauge study's residual share it; a field too large to
square is refused before any table is built.  The operator's tables are
never written after construction, so one operator serves every evolution in
turn; :meth:`SliceOperator.slice` builds the one-slice map for one eps.
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


def _kinetic_step(grid: Grid, axis: int, eps: float):
    """Free propagation for time eps along one axis, by its :func:`kinetic_multiplier`."""
    multiplier = kinetic_multiplier(grid, axis, eps)
    return lambda values: fourier_multiply(values, multiplier, axis)


class SliceOperator:
    """The eps-free data of the gauge-split slice: field samples and gauge phases."""

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
            self.gauge_phases = [gauge.phase_pair(gauge.gauge_phase_table(vector, l, grid))
                                 for l in range(grid.ndim)]

    def slice(self, eps: float):
        """The one-slice map of wavefunctions for slice length eps; eps = 0 is the identity.

        exp(-i eps V) and the kinetic multipliers are built once here, so each
        application only multiplies and transforms.
        """
        if not eps >= 0:
            raise ValueError(f"eps must be nonnegative, got {eps}")
        grid = self.grid
        potential_phase = None
        if self.potential is not None:
            potential_phase = np.exp(1j * (-eps * self.potential))
        phases = self.gauge_phases or [None] * grid.ndim
        axes = [(_kinetic_step(grid, l, eps), phases[l]) for l in range(grid.ndim)]

        def apply(psi: WaveFunction) -> WaveFunction:
            if psi.grid != grid:
                raise GridMismatchError("wavefunction grid does not match the slice operator grid")
            return WaveFunction(grid, gauge.staircase_sweep(psi.values, axes, potential_phase))

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
