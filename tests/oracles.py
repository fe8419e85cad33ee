"""Reference implementations the tests and the acceptance gate compare against.

None of these runs in a study: each restates, point by point or in closed
form, a quantity the package computes by another route.

- :func:`slice_kernel` and :func:`discrete_action` are the one-slice kernel and
  the discrete action of the time-sliced amplitude, evaluated at single
  points; the transfer chain of :mod:`gaugeslice.pathint` must reproduce their
  literal nested sum.
- :func:`chernoff_derivative_residual` measures how far one split-step slice
  is from exp(-i eps H) to first order in eps, with H applied matrix-free.
- :func:`exact_free_gaussian` is the closed-form free evolution of a 1D
  Gaussian packet.
"""

from __future__ import annotations

import numpy as np

from gaugeslice import gauge
from gaugeslice.fields import (
    ScalarPotentialSpec,
    VectorPotentialSpec,
    WaveFunction,
    _check_nodes_off_singular,
    collect_singularities,
    l2_norm,
    sample_points,
)
from gaugeslice.pathint import kernel_prefactor
from gaugeslice.reference import HamiltonianAction
from gaugeslice.splitstep import SliceOperator


def slice_kernel(x1, x0, eps: float, vector: VectorPotentialSpec | None = None) -> complex:
    """One-slice kernel value between two points; modulus (4 pi eps)^(-n/2)."""
    x1 = np.atleast_1d(np.asarray(x1, float))
    x0 = np.atleast_1d(np.asarray(x0, float))
    n = len(x1)
    lam = gauge.slice_gauge_increment(vector, x1, x0) if vector is not None else 0.0
    phase = float(np.sum((x1 - x0) ** 2)) / (4.0 * eps) + lam
    return complex(kernel_prefactor(n, eps, 1) * np.exp(1j * phase))


def discrete_action(
    xs,
    eps: float,
    scalar: ScalarPotentialSpec | None = None,
    vector: VectorPotentialSpec | None = None,
) -> complex:
    """Exponent i eps sum_j [ kinetic/4 - V(x_{j+1}) + gauge_increment/eps ].

    ``xs`` is the ordered tuple of k+1 slice points, shape (k+1, n).  A slice
    point on a singular point the fields register raises
    :class:`SingularNodeError`.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.shape[0] < 2:
        raise ValueError("need at least two slice points")
    _check_nodes_off_singular(xs, collect_singularities(scalar, vector))
    total = 0.0
    for j in range(xs.shape[0] - 1):
        x0, x1 = xs[j], xs[j + 1]
        total += 0.25 * float(np.sum(((x1 - x0) / eps) ** 2))
        if scalar is not None:
            total -= float(sample_points(scalar, x1[None])[0])
        if vector is not None:
            total += gauge.slice_gauge_increment(vector, x1, x0) / eps
    return 1j * eps * total


def chernoff_derivative_residual(psi: WaveFunction, op: SliceOperator, eps: float,
                                 hamiltonian: HamiltonianAction) -> float:
    """L2 norm of (slice(psi) - psi)/eps + i H psi; O(eps) for smooth data.

    ``hamiltonian`` is on the slice operator's grid, so H psi is applied
    matrix-free.
    """
    sliced = op.slice(eps)(psi)
    resid = (sliced.values - psi.values) / eps + 1j * hamiltonian.affine()(psi.values)
    return l2_norm(WaveFunction(psi.grid, resid))


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
