"""Grids, wavefunctions, potential specifications and L2 pairings.

Grids are uniform, periodic, cell-centered boxes: along axis ``b`` the nodes
sit at ``lo + (i + 1/2) * h`` with ``h = (hi - lo) / N``.  Cell-centering means
a singular point placed on a cell boundary (for example the origin of a
symmetric box) is never a grid node.

No field is evaluated within ``SINGULAR_TOL`` of a singular point its spec
registers: such a node raises :class:`SingularNodeError`.  The amplitude
quadrature excises singular points only for a positive gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GridMismatchError, NonFiniteError, SingularNodeError

# Max-norm distance below which a point counts as "on" a registered singular point.
SINGULAR_TOL = 1e-9


def _finite_real(value, what: str) -> float:
    """``value`` as a float; a bool, a string or a non-finite number is rejected, not converted."""
    kinds = (int, float, np.integer, np.floating)
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, kinds) or not np.isfinite(value):
        raise ValueError(f"{what} {value!r} is not a finite real number")
    return float(value)


def _count(value, what: str) -> int:
    """A positive whole number: an integer, or an integral real such as 1e8."""
    if not (_finite_real(value, what) >= 1 and float(value).is_integer()):
        raise ValueError(f"{what} {value!r} is not a positive integer")
    return int(value)


def _as_point_tuple(p) -> tuple[float, ...]:
    arr = np.atleast_1d(np.asarray(p, dtype=float))
    return tuple(float(v) for v in arr)


def tensor_points(axes) -> np.ndarray:
    """Every point of the tensor product of the 1D ``axes``, in C order: shape (size, len(axes))."""
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic tensor-product sampling of a box in R^n."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    shape: tuple[int, ...]

    def __post_init__(self):
        # object arrays keep each entry's own type, so a bool, a string or a
        # fractional count is rejected instead of converted
        lo, hi, shape = (np.atleast_1d(np.asarray(v, dtype=object))
                         for v in (self.lo, self.hi, self.shape))
        lo = tuple(_finite_real(v, "grid lo entry") for v in lo)
        hi = tuple(_finite_real(v, "grid hi entry") for v in hi)
        for v in shape:
            if isinstance(v, (bool, np.bool_)) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"grid shape entry {v!r} is not an integer")
        shape = tuple(int(v) for v in shape)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "shape", shape)
        if not (len(lo) == len(hi) == len(shape)):
            raise ValueError("lo, hi and shape must have equal length")
        if len(shape) == 0:
            raise ValueError("grid dimension must be positive")
        for axis, (a, b, n) in enumerate(zip(lo, hi, shape)):
            if not b > a:
                raise ValueError(f"box bounds must satisfy hi > lo, got ({a}, {b})")
            if n < 2:
                raise ValueError("need at least 2 points per axis")
            h = (b - a) / n
            # the largest frequency as frequencies() computes it, which derivative_symbols squares
            top = 2.0 * np.pi * (n // 2 * (1.0 / (n * h)))
            if not np.isfinite(top * top):
                raise ValueError(f"grid axis {axis} spacing {h:g} is too fine: kinetic symbol xi^2 overflows")
        if self.size > 2**62:
            raise ValueError("total point count not representable")

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        out = 1
        for n in self.shape:
            out *= n
        return out

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple((b - a) / n for a, b, n in zip(self.lo, self.hi, self.shape))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis_coords(self, axis: int) -> np.ndarray:
        """Cell-centered node coordinates along one axis."""
        h = self.spacing[axis]
        return self.lo[axis] + (np.arange(self.shape[axis]) + 0.5) * h

    def points(self) -> np.ndarray:
        """All nodes as an array of shape (size, ndim)."""
        return tensor_points([self.axis_coords(b) for b in range(self.ndim)])

    def frequencies(self, axis: int) -> np.ndarray:
        """Angular FFT frequencies for this axis (periodic convention)."""
        n = self.shape[axis]
        return 2.0 * np.pi * np.fft.fftfreq(n, d=self.spacing[axis])

    def derivative_symbols(self, axis: int) -> tuple[np.ndarray, np.ndarray]:
        """Spectral Fourier symbols of d/dx and d^2/dx^2 along one axis.

        Exact on the grid's band: i xi (Nyquist mode dropped, since its odd
        derivative is unpaired) and -xi^2, the split-step kinetic symbol.
        """
        xi = self.frequencies(axis)
        xi1 = xi.copy()
        if self.shape[axis] % 2 == 0:
            xi1[self.shape[axis] // 2] = 0.0
        return 1j * xi1, -(xi**2)


@dataclass(frozen=True)
class WaveFunction:
    """Complex field on a grid; values carry shape ``grid.shape``."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(vals)):
            raise NonFiniteError("wavefunction contains non-finite entries")
        object.__setattr__(self, "values", vals)

    def with_values(self, values: np.ndarray) -> "WaveFunction":
        return WaveFunction(self.grid, values)


@dataclass(frozen=True)
class ScalarPotentialSpec:
    """Closed-form scalar potential with a registered finite singular set.

    ``evaluator`` maps an array of points with trailing dimension n to real
    values; it is only ever called off the singular set, with numpy's
    warnings off: each caller checks the values and raises :class:`NonFiniteError`.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    singular_points: tuple[tuple[float, ...], ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "singular_points", tuple(_as_point_tuple(p) for p in self.singular_points)
        )

    def __call__(self, points: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            return np.asarray(self.evaluator(np.asarray(points, dtype=float)), dtype=float)


@dataclass(frozen=True)
class VectorPotentialSpec:
    """Component-wise vector potential with a registered finite singular set."""

    components: tuple[Callable[[np.ndarray], np.ndarray], ...]
    singular_points: tuple[tuple[float, ...], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(
            self, "singular_points", tuple(_as_point_tuple(p) for p in self.singular_points)
        )

    @property
    def ndim(self) -> int:
        return len(self.components)

    def component(self, axis: int, points: np.ndarray) -> np.ndarray:
        # numpy's warnings off, as for a scalar potential: each caller checks the values
        with np.errstate(all="ignore"):
            return np.asarray(self.components[axis](np.asarray(points, dtype=float)), dtype=float)


def collect_singularities(
    scalar: ScalarPotentialSpec | None = None,
    vector: VectorPotentialSpec | None = None,
) -> tuple[tuple[float, ...], ...]:
    """The registered singular points of the fields, each once, in order."""
    points = ((scalar.singular_points if scalar is not None else ())
              + (vector.singular_points if vector is not None else ()))
    return tuple(dict.fromkeys(points))


def _check_nodes_off_singular(points: np.ndarray, singular_points, what: str = "node") -> None:
    """Raise :class:`SingularNodeError` if a point lies within ``SINGULAR_TOL`` of a singular point."""
    for w in singular_points:
        d = np.max(np.abs(points - np.asarray(w, dtype=float)), axis=-1)
        idx = np.argmin(d)
        if d.flat[idx] <= SINGULAR_TOL:
            raise SingularNodeError(
                f"{what} {points.reshape(-1, points.shape[-1])[idx]} lies within {SINGULAR_TOL:g} "
                f"of singular point {w}"
            )


def sample_points(
    spec: ScalarPotentialSpec | VectorPotentialSpec,
    points: np.ndarray,
    component: int | None = None,
) -> np.ndarray:
    """Evaluate a scalar potential (or one vector component) on (N, n) points, checked.

    A point on a singular point or a non-finite value elsewhere raises a typed error.
    """
    pts = np.asarray(points, dtype=float)
    _check_nodes_off_singular(pts, spec.singular_points)
    if isinstance(spec, VectorPotentialSpec):
        if component is None:
            raise ValueError("component index required for a vector potential")
        vals = spec.component(component, pts)
    else:
        vals = spec(pts)
    vals = np.asarray(vals, dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = pts[~np.isfinite(vals)][0]
        raise NonFiniteError(f"evaluator returned non-finite value at {bad}")
    return vals


def sample_state(state_fn, points: np.ndarray, name: str, where: str) -> np.ndarray:
    """``state_fn`` on (N, n) ``points``; a non-finite value raises :class:`NonFiniteError` naming
    the ``name`` state, its first such point and ``where`` the points lie: the grid or an amplitude mesh."""
    values = state_fn(points)
    finite = np.isfinite(values)
    if not finite.all():
        raise NonFiniteError(f"{name} state returned non-finite value at {points[~finite][0]} on the {where}")
    return values


def sample_field(
    spec: ScalarPotentialSpec | VectorPotentialSpec,
    grid: Grid,
    component: int | None = None,
) -> np.ndarray:
    """:func:`sample_points` on all grid nodes, shaped like the grid."""
    return sample_points(spec, grid.points(), component).reshape(grid.shape)


def sample_vector_potential(vector: VectorPotentialSpec, grid: Grid) -> list[np.ndarray]:
    """Every component of ``vector`` on the grid nodes, refused unless |a|^2 is finite.

    The split-step operator, whose samples the gauge study reads, and the
    reference square the sampled field; one too large to square raises
    :class:`NonFiniteError` here, before either does.
    """
    a_vals = [sample_field(vector, grid, component=axis) for axis in range(grid.ndim)]
    with np.errstate(over="ignore"):
        square = sum(a**2 for a in a_vals)
    if not np.all(np.isfinite(square)):
        peak = max(float(np.max(np.abs(a))) for a in a_vals)
        raise NonFiniteError(
            f"the vector potential reaches |a_l| = {peak:g} on the grid, so |a|^2 is not finite"
        )
    return a_vals


def fourier_multiply(values: np.ndarray, multiplier: np.ndarray, axis: int) -> np.ndarray:
    """Apply a periodic Fourier multiplier along one axis: ifft(multiplier * fft(values)).

    ``multiplier`` has shape (n,), one entry per frequency of ``axis``.
    """
    shape = [1] * values.ndim
    shape[axis] = len(multiplier)
    return np.fft.ifft(multiplier.reshape(shape) * np.fft.fft(values, axis=axis), axis=axis)


def pair_bilinear(phi: WaveFunction, psi: WaveFunction) -> complex:
    """Riemann-sum approximation of the unconjugated pairing  integral phi*psi dx.

    Deliberately bilinear: neither argument is conjugated.
    """
    if phi.grid != psi.grid:
        raise GridMismatchError("pairing requires both wavefunctions on the same grid")
    return complex(np.sum(phi.values * psi.values) * phi.grid.cell_volume)


def l2_norm(psi: WaveFunction) -> float:
    return float(np.sqrt(np.sum(np.abs(psi.values) ** 2) * psi.grid.cell_volume))


def gaussian_wave(grid: Grid, center=0.0, width=1.0, momentum=0.0) -> WaveFunction:
    """Normalized Gaussian packet sampled on the grid.

    Along each axis: (2 pi w^2)^(-1/4) exp(-(x-c)^2/(4 w^2) + i p (x - c)).
    """
    evaluate = gaussian_evaluator(center, width, momentum, grid.ndim)
    return WaveFunction(grid, evaluate(grid.points()).reshape(grid.shape))


def gaussian_evaluator(center=0.0, width=1.0, momentum=0.0, ndim: int = 1):
    """Continuum version of :func:`gaussian_wave` as a callable on (..., n) points."""
    center = np.broadcast_to(np.atleast_1d(np.asarray(center, float)), (ndim,))
    width = np.broadcast_to(np.atleast_1d(np.asarray(width, float)), (ndim,))
    momentum = np.broadcast_to(np.atleast_1d(np.asarray(momentum, float)), (ndim,))

    def evaluate(points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        out = np.ones(pts.shape[:-1], dtype=complex)
        # numpy's warnings off: sample_state refuses a non-finite value
        with np.errstate(all="ignore"):
            for b in range(ndim):
                x = pts[..., b] - center[b]
                out = out * (2.0 * np.pi * width[b] ** 2) ** (-0.25) * np.exp(
                    -(x**2) / (4.0 * width[b] ** 2) + 1j * momentum[b] * x
                )
        return out

    return evaluate
