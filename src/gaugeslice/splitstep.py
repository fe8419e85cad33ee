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
    fourier_multiply,
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
    _, d2 = grid.derivative_symbols(axis)
    return np.exp(1j * eps * d2)


def free_propagate_axis(psi: WaveFunction, axis: int, eps: float) -> WaveFunction:
    """Apply exp(-i eps H0_axis) spectrally; eps = 0 is the identity."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    mult = kinetic_multiplier(psi.grid, axis, eps)
    return WaveFunction(psi.grid, fourier_multiply(psi.values, mult, axis))


def _check_unit_modulus(table: np.ndarray, label: str) -> None:
    dev = float(np.max(np.abs(np.abs(table) - 1.0)))
    if dev > PHASE_MODULUS_TOL:
        raise ValueError(f"{label} phase table deviates from unit modulus by {dev}")


class SliceOperator:
    """Precomputed phase tables and spectral multipliers for one time slice.

    The axis product is written left to right, axis 0 first; the rightmost
    factor acts first, so axis n-1 is applied first and axis 0 last.
    """

    def __init__(
        self,
        grid: Grid,
        scalar: ScalarPotentialSpec | None,
        vector: VectorPotentialSpec | None,
        slicing: TimeSlicing,
    ):
        if vector is not None and vector.ndim != grid.ndim:
            raise ValueError("vector potential dimension must match the grid")
        self.grid = grid
        self.slicing = slicing

        eps = slicing.eps
        if scalar is not None:
            v_vals = sample_field(scalar, grid)
            self.potential_phase = np.exp(-1j * eps * v_vals)
        else:
            self.potential_phase = None
        if self.potential_phase is not None:
            _check_unit_modulus(self.potential_phase, "potential")

        # gauge phases are eps-independent, so e^{+i lam_l} and e^{-i lam_l}
        # are built once here and a slice only multiplies and transforms
        self.gauge_phases: list[tuple[np.ndarray, np.ndarray]] | None
        if vector is not None:
            self.gauge_phases = []
            for l in range(grid.ndim):
                phase = np.exp(1j * gauge.gauge_phase_table(vector, l, grid))
                _check_unit_modulus(phase, f"gauge axis {l}")
                self.gauge_phases.append((phase, np.conj(phase)))
        else:
            self.gauge_phases = None

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
    for l in reversed(range(grid.ndim)):
        if op.gauge_phases is not None:
            v = op.gauge_phases[l][1] * v
        v = fourier_multiply(v, op.kinetic_multipliers[l], l)
        if op.gauge_phases is not None:
            v = op.gauge_phases[l][0] * v
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
    """L2 norm of (slice(psi) - psi)/eps + i H psi; O(eps) for smooth data.

    ``hamiltonian`` is a :class:`reference.HamiltonianAction` on the slice
    operator's grid, so H psi is applied matrix-free.
    """
    if psi.grid != op.grid:
        raise GridMismatchError("wavefunction grid does not match the slice operator grid")
    eps = op.eps
    sliced = apply_slice(op, psi)
    resid = (sliced.values - psi.values) / eps + 1j * hamiltonian(psi.values)
    return l2_norm(WaveFunction(psi.grid, resid))
