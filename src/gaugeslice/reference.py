"""Independent reference evolution: the discretized Hamiltonian and exp(-itH).

The operator is

    H = sum_l [ -Lap_l + i (A_l D_l + D_l A_l) ] + diag(V + |a|^2)

with periodic one-dimensional derivatives on each axis.  The magnetic term is
symmetrized so H is exactly Hermitian at any resolution; in the continuum it
equals 2i a.grad + i div(a).

The derivatives are the spectral Fourier symbols of
:meth:`Grid.derivative_symbols`, the split-step's own kinetic symbols, so the
reference discretizes the operator the split-step evolution approximates and
reproduces its kinetic step exactly on band-limited data.

:class:`HamiltonianAction` applies H, or any affine map (H - shift) / scale of
it, matrix-free through the stack form of :func:`fields.fourier_multiply`: per
axis one batched forward and one batched inverse transform.  It bounds its
spectrum from the symbols and the sampled fields; :func:`chebyshev_evolve`
builds the map onto [-1, 1] once and expands exp(-itH) in Chebyshev
polynomials of it (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)).  This
is the reference evolution of every study, and the Chernoff derivative
residual applies the same action; both need memory linear in the grid size,
so no grid size is capped.  The dense matrix
(:func:`assemble_hamiltonian`, each symbol applied to the identity and
kron-lifted) with :func:`expm_evolve` by eigendecomposition is built
independently of the action and serves only as the test oracle it is checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EigenFailureError, NonFiniteError
from .fields import (
    Grid,
    ScalarPotentialSpec,
    VectorPotentialSpec,
    WaveFunction,
    fourier_multiply,
    sample_field,
)

HERMITICITY_TOL = 1e-10
# Chebyshev series of exp(-itH) stop at the first term past the Bessel turning
# point whose coefficient is below this; every |T_k| <= 1 on the interval.
CHEBYSHEV_TOL = 1e-15


@dataclass
class DiscretizedHamiltonian:
    grid: Grid
    matrix: np.ndarray
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
) -> DiscretizedHamiltonian:
    """Dense periodic discretization of the magnetic Hamiltonian."""
    m = grid.size
    h_mat = np.zeros((m, m), dtype=complex)
    diag = np.zeros(m)
    for axis in range(grid.ndim):
        d1_symbol, lap_symbol = grid.derivative_symbols(axis)
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
    return DiscretizedHamiltonian(grid, h_mat)


def expm_evolve(ham: DiscretizedHamiltonian, psi: WaveFunction, t: float) -> WaveFunction:
    """psi(t) = exp(-i t H) psi via Hermitian eigendecomposition."""
    if psi.grid != ham.grid:
        raise ValueError("wavefunction grid does not match the Hamiltonian grid")
    w, u = ham.eigendecomposition()
    coeff = u.conj().T @ psi.values.ravel()
    out = u @ (np.exp(-1j * t * w) * coeff)
    return WaveFunction(psi.grid, out.reshape(psi.grid.shape))


class HamiltonianAction:
    """Matrix-free H: the operator of :func:`assemble_hamiltonian` applied to grid values.

    Fields are sampled once.  ``spectral_interval`` is a rigorous (lo, hi)
    enclosure of the spectrum.  Each kinetic term equals (-iD - A)^2 plus
    -Lap + D^2 minus A^2, and -Lap + D^2 has symbol xi^2 - xi1^2 >= 0
    (nonzero only at the Nyquist mode), so H >= min V (0 without V).  Above,
    each term is bounded by the largest symbol and field moduli.
    """

    def __init__(
        self,
        grid: Grid,
        vector: VectorPotentialSpec | None = None,
        scalar: ScalarPotentialSpec | None = None,
    ):
        self.grid = grid
        self.symbols = [grid.derivative_symbols(axis) for axis in range(grid.ndim)]
        self.a_vals = None
        diag = np.zeros(grid.shape)
        if vector is not None:
            self.a_vals = [sample_field(vector, grid, component=axis) for axis in range(grid.ndim)]
            diag += sum(a**2 for a in self.a_vals)
        lo = 0.0
        if scalar is not None:
            v_vals = sample_field(scalar, grid)
            diag += v_vals
            lo = float(np.min(v_vals))
        self.diag = diag
        hi = float(np.max(diag))
        for axis, (d1, lap) in enumerate(self.symbols):
            hi += float(np.max(np.abs(lap)))
            if self.a_vals is not None:
                hi += 2.0 * float(np.max(np.abs(self.a_vals[axis]))) * float(np.max(np.abs(d1)))
        if not (hi > lo and np.isfinite(hi - lo)):
            raise NonFiniteError(
                f"the reference's spectral interval [{lo:g}, {hi:g}] is not a finite range with hi > lo: "
                f"the scalar potential (min {lo:g}) or the vector potential swamps the kinetic bound"
            )
        self.spectral_interval = (lo, hi)

    def affine(self, shift: float = 0.0, scale: float = 1.0):
        """(H - shift) / scale as a function of grid values, its invariants built once.

        The diagonal and every symbol are divided by ``scale`` here, not
        multiplied by a rounded 1 / scale: a coherent relative error in the
        scale is an error in the evolution time, which the Chebyshev series
        amplifies by its radius.  Per axis one batched forward transform of
        [psi, a psi] and one batched inverse transform give
        [-lap psi^ + i d1 (a psi)^, d1 psi^], so the axis contributes the first
        output plus i a times the second; without a field only the kinetic
        symbol is applied.
        """
        diag = (self.diag - shift) / scale
        stack = np.empty((2,) + self.grid.shape, dtype=complex)  # [psi, a psi], reused
        axes = []
        for axis, (d1, lap) in enumerate(self.symbols):
            shape = [1] * self.grid.ndim
            shape[axis] = -1
            lap, d1 = (np.broadcast_to(sym.reshape(shape), self.grid.shape) for sym in (lap, d1))
            if self.a_vals is None:
                axes.append((axis, np.array([[-lap]]) / scale, None, None))
            else:
                a = self.a_vals[axis]
                symbols = np.array([[-lap, 1j * d1], [d1, np.zeros(self.grid.shape)]]) / scale
                axes.append((axis, symbols, a, 1j * a))

        def apply(values: np.ndarray) -> np.ndarray:
            out = diag * values
            for axis, symbols, a, ia in axes:
                if a is None:
                    out += fourier_multiply(values[None], symbols, axis)[0]
                else:
                    stack[0] = values
                    np.multiply(a, values, out=stack[1])
                    kinetic, d_psi = fourier_multiply(stack, symbols, axis)
                    out += kinetic
                    d_psi *= ia
                    out += d_psi
            return out

        return apply

    def __call__(self, values: np.ndarray) -> np.ndarray:
        return self.affine()(values)


def chebyshev_coefficients(radius: float) -> np.ndarray:
    """Coefficients c_k of exp(-i R x) = sum_k c_k T_k(x) on [-1, 1], truncated.

    c_k = 2 (-i)^k J_k(R) with c_0 halved (Jacobi-Anger), read off one FFT of
    exp(-i R cos theta) on n >= 4 (|R| + 32) equispaced angles; the aliased
    J_{n-k} for k < n/2 are far below rounding.  The series stops at the first
    k > |R| with |c_k| < :data:`CHEBYSHEV_TOL`.  Rounding of the phase R cos
    theta leaves an absolute error of about eps sqrt(|R|) in every c_k (4e-14
    at R = 1000), so for large R that floor, not the Bessel decay, picks the
    cut-off; should no coefficient fall below the tolerance, all n/2 are kept.
    """
    n = 1 << int(np.ceil(np.log2(4.0 * (abs(radius) + 32.0))))
    theta = 2.0 * np.pi * np.arange(n) / n
    coeffs = (2.0 / n) * np.fft.fft(np.exp(-1j * radius * np.cos(theta)))[: n // 2]
    coeffs[0] /= 2.0
    k = np.arange(n // 2)
    stop = np.flatnonzero((k > abs(radius)) & (np.abs(coeffs) < CHEBYSHEV_TOL))
    return coeffs[: stop[0] if len(stop) else len(coeffs)]


def chebyshev_evolve(
    action: HamiltonianAction, psi: WaveFunction, t: float
) -> tuple[WaveFunction, int]:
    """psi(t) = exp(-i t H) psi by a Chebyshev series in the matrix-free action.

    H is mapped onto [-1, 1] through its spectral interval, x = (H - c) / h.
    The map 2x = (H - c) / (h / 2) is built once
    (:meth:`HamiltonianAction.affine`), so the three-term recurrence
    T_{k+1} = 2x T_k - T_{k-1} costs one application and no rescale per term.
    Returns the evolved state and the number of terms.
    """
    if psi.grid != action.grid:
        raise ValueError("wavefunction grid does not match the Hamiltonian grid")
    lo, hi = action.spectral_interval
    center, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    coeffs = chebyshev_coefficients(t * half)
    step = action.affine(center, 0.5 * half)

    prev, cur = None, psi.values
    out = coeffs[0] * cur
    for c in coeffs[1:]:
        prev, cur = cur, (0.5 * step(cur) if prev is None else step(cur) - prev)
        out += c * cur
    return WaveFunction(psi.grid, np.exp(-1j * t * center) * out), len(coeffs)


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
