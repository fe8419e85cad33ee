"""Gauge-split slice operator and its k-fold iteration.

One slice of duration eps applies, right to left,

    exp(-i eps V) * prod_l  e^{i lam_l} exp(-i eps H0_l) e^{-i lam_l}

where H0_l = -d^2/dx_l^2 acts spectrally (periodic boundary) and lam_l is the
per-axis gauge phase.  Every factor is a unit-modulus multiplier or a spectral
unitary, so each slice preserves the L2 norm to rounding.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError
from . import gauge
from .fields import (
    Grid,
    ScalarPotentialSpec,
    VectorPotentialSpec,
    WaveFunction,
    l2_norm,
    sample_field,
)

PHASE_MODULUS_TOL = 1e-12
BOUNDARY_MASS_WARN = 1e-6


@dataclass(frozen=True)
class TimeSlicing:
    """Total time split into an integer number of equal slices."""

    total_time: float
    slices: int

    def __post_init__(self):
        if not self.total_time > 0:
            raise ValueError("total time must be positive")
        if self.slices < 1:
            raise ValueError("slice count must be a positive integer")

    @property
    def eps(self) -> float:
        return self.total_time / self.slices


def kinetic_multiplier(grid: Grid, axis: int, eps: float) -> np.ndarray:
    """Spectral multiplier exp(-i eps xi^2) for free propagation along one axis."""
    xi = grid.frequencies(axis)
    return np.exp(-1j * eps * xi**2)


def free_propagate_axis(psi: WaveFunction, axis: int, eps: float) -> WaveFunction:
    """Apply exp(-i eps H0_axis) spectrally; eps = 0 is the identity."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    grid = psi.grid
    mult = kinetic_multiplier(grid, axis, eps)
    shape = [1] * grid.ndim
    shape[axis] = grid.shape[axis]
    spec = np.fft.fft(psi.values, axis=axis)
    out = np.fft.ifft(mult.reshape(shape) * spec, axis=axis)
    return WaveFunction(grid, out)


def _check_unit_modulus(table: np.ndarray, label: str) -> None:
    dev = float(np.max(np.abs(np.abs(table) - 1.0)))
    if dev > PHASE_MODULUS_TOL:
        raise ValueError(f"{label} phase table deviates from unit modulus by {dev}")


class SliceOperator:
    """Precomputed phase tables and spectral multipliers for one time slice.

    ``axis_order`` lists the axes in product order (leftmost first); the
    rightmost factor acts first, so application iterates the order reversed.
    The default matches left-to-right product notation: axis n-1 applied
    first, axis 0 last.
    """

    def __init__(
        self,
        grid: Grid,
        scalar: ScalarPotentialSpec | None,
        vector: VectorPotentialSpec | None,
        slicing: TimeSlicing,
        axis_order: tuple[int, ...] | None = None,
    ):
        if vector is not None and vector.ndim != grid.ndim:
            raise ValueError("vector potential dimension must match the grid")
        self.grid = grid
        self.scalar = scalar
        self.vector = vector
        self.slicing = slicing
        if axis_order is None:
            axis_order = tuple(range(grid.ndim))
        if sorted(axis_order) != list(range(grid.ndim)):
            raise ValueError("axis_order must be a permutation of the grid axes")
        self.axis_order = tuple(axis_order)

        eps = slicing.eps
        if scalar is not None:
            v_vals = sample_field(scalar, grid)
            self.potential_phase = np.exp(-1j * eps * v_vals)
        else:
            self.potential_phase = None
        if self.potential_phase is not None:
            _check_unit_modulus(self.potential_phase, "potential")

        # gauge phase tables are eps-independent, so they are sampled once here
        self.gauge_tables: list[np.ndarray] | None
        if vector is not None:
            self.gauge_tables = [gauge.gauge_phase_table(vector, l, grid) for l in range(grid.ndim)]
            for l, tab in enumerate(self.gauge_tables):
                _check_unit_modulus(np.exp(1j * tab), f"gauge axis {l}")
        else:
            self.gauge_tables = None

        self.kinetic_multipliers = [
            kinetic_multiplier(grid, l, eps) for l in range(grid.ndim)
        ]
        for l, mult in enumerate(self.kinetic_multipliers):
            _check_unit_modulus(mult, f"kinetic axis {l}")

    @property
    def eps(self) -> float:
        return self.slicing.eps


def apply_slice(op: SliceOperator, psi: WaveFunction) -> WaveFunction:
    """Apply one gauge-split slice; rightmost product factor acts first."""
    if psi.grid != op.grid:
        raise GridMismatchError("wavefunction grid does not match the slice operator grid")
    grid = op.grid
    v = psi.values
    for l in reversed(op.axis_order):
        if op.gauge_tables is not None:
            v = np.exp(-1j * op.gauge_tables[l]) * v
        shape = [1] * grid.ndim
        shape[l] = grid.shape[l]
        v = np.fft.ifft(
            op.kinetic_multipliers[l].reshape(shape) * np.fft.fft(v, axis=l), axis=l
        )
        if op.gauge_tables is not None:
            v = np.exp(1j * op.gauge_tables[l]) * v
    if op.potential_phase is not None:
        v = op.potential_phase * v
    return WaveFunction(grid, v)


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


def evolve(op: SliceOperator, psi: WaveFunction, warn_boundary: bool = True) -> WaveFunction:
    """k-fold application of the slice operator."""
    if warn_boundary and boundary_mass_fraction(psi) > BOUNDARY_MASS_WARN:
        warnings.warn(
            "wavepacket carries significant mass in the boundary cells; "
            "periodic wrap-around will contaminate the evolution",
            stacklevel=2,
        )
    out = psi
    for _ in range(op.slicing.slices):
        out = apply_slice(op, out)
    return out


def chernoff_derivative_residual(psi: WaveFunction, op: SliceOperator, hamiltonian) -> float:
    """L2 norm of (slice(psi) - psi)/eps + i H psi; O(eps) for smooth data."""
    if psi.grid != op.grid:
        raise GridMismatchError("wavefunction grid does not match the slice operator grid")
    eps = op.eps
    sliced = apply_slice(op, psi)
    h_psi = (hamiltonian.matrix @ psi.values.ravel()).reshape(psi.grid.shape)
    resid = (sliced.values - psi.values) / eps + 1j * h_psi
    return l2_norm(WaveFunction(psi.grid, resid))
