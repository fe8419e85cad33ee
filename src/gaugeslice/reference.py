"""Independent dense ground truth: discretized Hamiltonian and exact evolution.

The assembled operator is

    H = sum_l [ -Lap_l + i (A_l D_l + D_l A_l) ] + diag(V + |a|^2)

with periodic one-dimensional derivative matrices on each axis.  The magnetic
term is symmetrized so H is exactly Hermitian at any resolution; in the
continuum it equals 2i a.grad + i div(a).

Both stencils are Fourier symbols (:meth:`Grid.derivative_symbols`), turned
into dense 1D matrices by applying them to the identity.  ``fd2`` is the
classic central-difference pair; its free spectrum is the discrete symbol
(2/h^2)(1 - cos(xi h)).  ``spectral`` reproduces the split-step kinetic
operator exactly on band-limited data and is the default for oracle
comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EigenFailureError, SizeError
from .fields import (
    Grid,
    ScalarPotentialSpec,
    VectorPotentialSpec,
    WaveFunction,
    fourier_multiply,
    sample_field,
)

HERMITICITY_TOL = 1e-10
DENSE_SIZE_CAP = 4096


@dataclass
class DiscretizedHamiltonian:
    grid: Grid
    matrix: np.ndarray
    stencil: str
    _eig: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    def eigendecomposition(self) -> tuple[np.ndarray, np.ndarray]:
        if self._eig is None:
            try:
                w, u = np.linalg.eigh(self.matrix)
            except np.linalg.LinAlgError as exc:
                raise EigenFailureError(str(exc)) from exc
            self._eig = (w, u)
        return self._eig


def _axis_operator(grid: Grid, axis: int, symbol: np.ndarray) -> np.ndarray:
    """Dense matrix of a real Fourier symbol on one axis, lifted to the full tensor-product grid."""
    op = np.array([[1.0]])
    for b in range(grid.ndim):
        if b == axis:
            op = np.kron(op, np.real(fourier_multiply(np.eye(grid.shape[b]), symbol, 0)))
        else:
            op = np.kron(op, np.eye(grid.shape[b]))
    return op


def assemble_hamiltonian(
    grid: Grid,
    vector: VectorPotentialSpec | None = None,
    scalar: ScalarPotentialSpec | None = None,
    stencil: str = "spectral",
    max_size: int = DENSE_SIZE_CAP,
) -> DiscretizedHamiltonian:
    """Dense periodic discretization of the magnetic Hamiltonian."""
    m = grid.size
    if m > max_size:
        raise SizeError(f"dense matrix of size {m} exceeds the cap {max_size}")
    h_mat = np.zeros((m, m), dtype=complex)
    diag = np.zeros(m)
    for axis in range(grid.ndim):
        d1_symbol, lap_symbol = grid.derivative_symbols(axis, stencil)
        h_mat -= _axis_operator(grid, axis, lap_symbol)
        if vector is not None:
            a_vals = sample_field(vector, grid, component=axis).ravel()
            d1 = _axis_operator(grid, axis, d1_symbol)
            a_diag = a_vals[:, None]
            h_mat += 1j * (a_diag * d1 + d1 * a_diag.T)
            diag += a_vals**2
    if scalar is not None:
        diag += sample_field(scalar, grid).ravel()
    h_mat[np.diag_indices(m)] += diag

    dev = float(np.max(np.abs(h_mat - h_mat.conj().T)))
    if dev > HERMITICITY_TOL:
        raise EigenFailureError(f"assembled matrix deviates from Hermitian by {dev}")
    return DiscretizedHamiltonian(grid, h_mat, stencil)


def expm_evolve(ham: DiscretizedHamiltonian, psi: WaveFunction, t: float) -> WaveFunction:
    """psi(t) = exp(-i t H) psi via Hermitian eigendecomposition."""
    if psi.grid != ham.grid:
        raise ValueError("wavefunction grid does not match the Hamiltonian grid")
    w, u = ham.eigendecomposition()
    coeff = u.conj().T @ psi.values.ravel()
    out = u @ (np.exp(-1j * t * w) * coeff)
    return WaveFunction(psi.grid, out.reshape(psi.grid.shape))


def exact_free_gaussian(
    x, t: float, center: float = 0.0, width: float = 1.0, momentum: float = 0.0
) -> np.ndarray:
    """Closed-form free evolution of a 1D Gaussian packet under H0 = -d^2/dx^2.

    The initial state is (2 pi w^2)^(-1/4) exp(-(x-c)^2/(4 w^2) + i p (x-c)).
    Obtained by Fourier transform, multiplication by exp(-i t k^2), and a
    complex Gaussian integral; the width parameter acquires the complex shift
    w^2 -> w^2 + i t and the packet drifts at group velocity 2 p.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    x = np.asarray(x, dtype=float)
    s2 = width**2 + 1j * t
    drift = x - center - 2.0 * momentum * t
    amp = (2.0 * np.pi * width**2) ** (-0.25) * np.sqrt(width**2 / s2)
    phase = momentum * (x - center) - momentum**2 * t
    return amp * np.exp(1j * phase - drift**2 / (4.0 * s2))
