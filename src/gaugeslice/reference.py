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
it, matrix-free by one-axis Fourier transforms into workspaces each map
allocates once.  An axis whose
sampled a_l is constant along it (no field, or a constant magnetic field in
the symmetric or Landau gauge) commutes a_l with D_l on the grid, so its term
is one multiplier: one single forward and one single inverse transform.  Any
other axis takes one batched forward and one batched inverse transform of the
stack [psi, a_l psi].  It bounds its spectrum from the symbols and the sampled
fields; :func:`chebyshev_evolve`
builds the map onto [-1, 1] once and expands exp(-itH) in Chebyshev
polynomials of it (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)).

:func:`evolve` is the reference evolution of every study.  It reads one more
rule from the samples: if V + |a|^2 is constant on the grid and every a_l is
one number on the whole grid (no field, or constant fields), H is the real
Fourier multiplier sum_l (xi_l^2 - 2 a_l xi1_l) + c, and exp(-itH) is exactly
one forward and one inverse n-dimensional transform.  Every other H takes the
Chebyshev series, and both paths are held to the same admissibility rule
first.  Either path needs memory linear in the grid size, so no grid size is
capped.  The dense matrix (:func:`assemble_hamiltonian`, each symbol applied to
the identity and kron-lifted) with :func:`expm_evolve` by eigendecomposition is
built independently of the action; no study runs it, and it serves only as the
test oracle the action is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceededError, EigenFailureError, GridMismatchError, NonFiniteError
from .fields import (
    Grid,
    ScalarPotentialSpec,
    VectorPotentialSpec,
    WaveFunction,
    fourier_multiply,
    sample_field,
    sample_vector_potential,
)

HERMITICITY_TOL = 1e-10
# Chebyshev series of exp(-itH) stop at the first term past the Bessel turning
# point whose coefficient is below this; every |T_k| <= 1 on the interval.
CHEBYSHEV_TOL = 1e-15
# The largest series radius t (hi - lo) / 2 the reference expands: about as many
# terms, each one application of H.  The shipped scenarios stay below 754 terms.
MAX_CHEBYSHEV_RADIUS = 1e6


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
        raise GridMismatchError("wavefunction grid does not match the Hamiltonian grid")
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
        # no field is the a = 0 case of every rule below
        self.a_vals = ([np.zeros(grid.shape)] * grid.ndim if vector is None
                       else sample_vector_potential(vector, grid))
        # an axis whose sampled a_l is constant along it: a_l commutes with D_l on the grid
        self.line_constant = [
            bool(np.all(a == a.take([0], axis=axis))) for axis, a in enumerate(self.a_vals)
        ]
        diag = sum(a**2 for a in self.a_vals)
        lo = 0.0
        if scalar is not None:
            v_vals = sample_field(scalar, grid)
            diag += v_vals
            lo = float(np.min(v_vals))
        self.diag = diag
        # no sample varies: H is a multiplier on the whole grid, not just per axis
        self.fourier_diagonal = all(np.all(f == f.flat[0]) for f in [diag, *self.a_vals])
        hi = float(np.max(diag))
        for (d1, lap), a in zip(self.symbols, self.a_vals):
            hi += float(np.max(np.abs(lap)))
            hi += 2.0 * float(np.max(np.abs(a))) * float(np.max(np.abs(d1)))
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
        amplifies by its radius.

        An axis whose sampled a_l is constant along it (no field, or the
        symmetric and Landau gauges of a constant magnetic field) is one
        multiplier, (-lap + 2i a_l d1) / scale: the axis transform acts on each
        line separately, where a_l is one number, so D_l a_l = a_l D_l exactly
        and the axis costs one single forward and one single inverse
        transform.  Any other axis takes one batched forward transform of
        [psi, a psi] and one batched inverse transform, giving
        [-lap psi^ + i d1 (a psi)^, d1 psi^], and contributes the first output
        plus i a times the second.

        The returned ``apply(values, out=None)`` transforms into workspaces
        allocated here, once, and writes into ``out`` when given (it must not
        be ``values``).
        """
        diag = (self.diag - shift) / scale
        # [psi, a psi], its spectra and their mix; a single axis uses the first of each
        stack, spectra, mixed = (np.empty((2,) + self.grid.shape, dtype=complex) for _ in range(3))
        axes = []
        for axis, ((d1, lap), a) in enumerate(zip(self.symbols, self.a_vals)):
            shape = [1] * self.grid.ndim
            shape[axis] = -1
            lap, d1 = (np.broadcast_to(sym.reshape(shape), self.grid.shape) for sym in (lap, d1))
            if self.line_constant[axis]:
                # -lap / scale stays a real quotient, so a zero field rounds as the bare kinetic symbol
                multiplier = -lap / scale + 1j * (2.0 * a * d1 / scale)
                axes.append((axis, multiplier, None, None))
            else:
                symbols = np.array([[-lap, 1j * d1], [d1, np.zeros(self.grid.shape)]]) / scale
                axes.append((axis, symbols, a, 1j * a))

        def apply(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            # per axis ifft(sum_s M[r, s] fft(stack_s)), or of one multiplier, in the workspaces
            out = np.multiply(diag, values, out=out)
            for axis, symbols, a, ia in axes:
                if a is None:
                    np.fft.fft(values, axis=axis, out=spectra[0])
                    np.multiply(symbols, spectra[0], out=spectra[0])
                    np.fft.ifft(spectra[0], axis=axis, out=mixed[0])
                    out += mixed[0]
                else:
                    stack[0] = values
                    np.multiply(a, values, out=stack[1])
                    np.fft.fft(stack, axis=axis + 1, out=spectra)
                    np.multiply(symbols[:, 0], spectra[0], out=mixed)
                    np.multiply(symbols[:, 1], spectra[1], out=stack)
                    np.add(mixed, stack, out=mixed)
                    np.fft.ifft(mixed, axis=axis + 1, out=spectra)
                    out += spectra[0]
                    spectra[1] *= ia
                    out += spectra[1]
            return out

        return apply

    @property
    def transforms_per_term(self) -> int:
        """Single-axis grid transforms, forward plus inverse, in one application."""
        return sum(2 if constant else 4 for constant in self.line_constant)

    def fourier_multiplier(self) -> np.ndarray:
        """The real symbol m of H over the grid; H is that multiplier only if :attr:`fourier_diagonal`.

        With V + |a|^2 = c and every a_l one number, each axis term
        -lap + 2i a_l d1 is xi_l^2 - 2 a_l xi1_l.
        """
        m = np.full(self.grid.shape, self.diag.flat[0])
        for axis, ((d1, lap), a) in enumerate(zip(self.symbols, self.a_vals)):
            shape = [1] * self.grid.ndim
            shape[axis] = -1
            m += (-lap - 2.0 * a.flat[0] * d1.imag).reshape(shape)
        return m


def _check_series_radius(radius: float) -> None:
    if not abs(radius) <= MAX_CHEBYSHEV_RADIUS:
        raise CapExceededError(
            f"the reference's Chebyshev series radius {abs(radius):g} exceeds the bound "
            f"{MAX_CHEBYSHEV_RADIUS:g}: the potentials' spectral interval times the time is too large"
        )


def chebyshev_coefficients(radius: float) -> np.ndarray:
    """Coefficients c_k of exp(-i R x) = sum_k c_k T_k(x) on [-1, 1], truncated.

    c_k = 2 (-i)^k J_k(R) with c_0 halved (Jacobi-Anger), read off one FFT of
    exp(-i R cos theta) on n >= 4 (|R| + 32) equispaced angles; the aliased
    J_{n-k} for k < n/2 are far below rounding.  The series stops at the first
    k > |R| with |c_k| < :data:`CHEBYSHEV_TOL`.  Rounding of the phase R cos
    theta leaves an absolute error of about eps sqrt(|R|) in every c_k (4e-14
    at R = 1000), so for large R that floor, not the Bessel decay, picks the
    cut-off; should no coefficient fall below the tolerance, all n/2 are kept.
    A radius above :data:`MAX_CHEBYSHEV_RADIUS` raises :class:`CapExceededError`
    before anything is allocated.
    """
    _check_series_radius(radius)
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
    The recurrence rotates three vectors and the term sum adds through one
    more, so a term allocates nothing.  Returns the evolved state and the
    number of terms.
    """
    if psi.grid != action.grid:
        raise GridMismatchError("wavefunction grid does not match the Hamiltonian grid")
    lo, hi = action.spectral_interval
    center, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    coeffs = chebyshev_coefficients(t * half)
    step = action.affine(center, 0.5 * half)

    cur = np.array(psi.values)  # a copy: the rotation writes into every buffer but the output
    out = coeffs[0] * cur
    prev, nxt, term = (np.empty_like(cur) for _ in range(3))
    for k, c in enumerate(coeffs[1:]):
        step(cur, out=nxt)
        if k == 0:
            nxt *= 0.5
        else:
            nxt -= prev
        prev, cur, nxt = cur, nxt, prev
        out += np.multiply(c, cur, out=term)
    return WaveFunction(psi.grid, np.exp(-1j * t * center) * out), len(coeffs)


def evolve(action: HamiltonianAction, psi: WaveFunction, t: float) -> tuple[WaveFunction, dict]:
    """psi(t) = exp(-i t H) psi by the reference route, and its ``reference_evolution`` record.

    One admissibility rule covers both paths: the finite spectral interval
    (checked when ``action`` was built) and the Chebyshev series radius
    t (hi - lo) / 2 below :data:`MAX_CHEBYSHEV_RADIUS`.  A Fourier-diagonal H
    (:attr:`HamiltonianAction.fourier_diagonal`) is then evolved exactly as
    ifftn(exp(-itm) fftn psi), one term of one transform pair per axis; every
    other H by :func:`chebyshev_evolve`.  The record carries the method, the
    term count, the spectral interval and the single-axis transforms per term.
    """
    if psi.grid != action.grid:
        raise GridMismatchError("wavefunction grid does not match the Hamiltonian grid")
    lo, hi = action.spectral_interval
    _check_series_radius(t * (0.5 * (hi - lo)))
    if action.fourier_diagonal:
        phase = np.exp(-1j * t * action.fourier_multiplier())
        evolved = WaveFunction(psi.grid, np.fft.ifftn(phase * np.fft.fftn(psi.values)))
        method, terms, per_term = "fourier", 1, 2 * action.grid.ndim
    else:
        evolved, terms = chebyshev_evolve(action, psi, t)
        method, per_term = "chebyshev", action.transforms_per_term
    return evolved, {"method": method, "terms": terms, "spectral_interval": [lo, hi],
                     "transforms_per_term": per_term}
