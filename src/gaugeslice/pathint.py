"""Time-sliced amplitudes by excised improper-Riemann quadrature.

The k-slice amplitude is a nested midpoint-rule Riemann sum over
R^{n(k+1)} of

    prefactor * phi(x_k) exp{ i eps S_k } psi(x_0)

where the discrete action S_k collects, per slice, a kinetic quadratic term,
the potential at the later point, and the slice gauge increment.  The
integration domain excises open neighborhoods of every singular point the
fields register (only for a positive gap) and truncates to nested boxes; box
radii grow and gap radii shrink along a schedule, each limit independent of
the others.
Raw box-truncated sums oscillate in the outer radius (the tails are
Fresnel-like and converge only conditionally), so the reported value is the
arithmetic mean of the last few schedule steps, and the estimate counts as
converged when their spread stays below :data:`TAIL_OSCILLATION_TOL`.

:func:`amplitude_quadrature` meshes every schedule step and checks the
evaluation cap against the largest before :func:`raw_sliced_amplitude` sums any.
A step's mesh is a tensor product of per-axis unions of uniform midpoint
pieces, all from one rule, :func:`_excised_pieces`: the box minus, on each
axis, the open gap around each singular point's coordinate.

Because the integrand factorizes across slices, the nested sum is evaluated
exactly as a chain of per-slice transfer contractions (vector of mesh values,
one kernel application per slice) instead of a literal loop over the product
grid.  The two are identical term by term; tests check this against a
brute-force nested sum on tiny meshes.

Every slice point ranges over the same mesh, so every transfer, in every
dimension, maps a mesh to itself; it comes from one :func:`_kernel_plan`,
built once per mesh and eps and applied once per slice.  The kinetic phase and
the source-frozen gauge increment are sums over axes, so for each source point
the kernel is a product of one table per axis (:func:`_axis_factors`, gauge
from :func:`gauge.mesh_line_integrals`).  In 1D a mesh is a
union of uniform pieces, the free kernel between two pieces is a
chirp-modulated Toeplitz matrix and the gauge increment is a pair of diagonal
phases, so a transfer costs one FFT convolution per pair of pieces (Bluestein's
chirp-z identity, :class:`_ChirpPlan`) between those phases; the single table
is the dense kernel matrix, its test oracle.  In more dimensions a transfer is
one contraction of the tables with the source vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapExceededError, ScheduleError
from . import gauge
from .fields import (
    Grid,
    ScalarPotentialSpec,
    VectorPotentialSpec,
    WaveFunction,
    _check_nodes_off_singular,
    collect_singularities,
    gaussian_evaluator,
    l2_norm,
    sample_points,
)
from .splitstep import SliceOperator

DEFAULT_EVAL_CAP = int(1e8)
DEFAULT_TAIL_WINDOW = 8
# An estimate whose tail spread stays below this counts as converged.
TAIL_OSCILLATION_TOL = 1e-2


def phase_mesh_spacing(eps: float, radius: float, adjacent_pairs: int = 2) -> float:
    """Mesh spacing keeping the fastest kinetic Fresnel phase below pi/4 per cell.

    An interior slice point enters ``adjacent_pairs`` kinetic terms, each with
    phase gradient at most 2 * radius / (2 eps).
    """
    rate = adjacent_pairs * radius / eps
    return (np.pi / 4.0) / rate


class MeshPiece(NamedTuple):
    """``count`` midpoint cells of width ``spacing`` starting at ``lo``."""

    lo: float
    count: int
    spacing: float

    @property
    def nodes(self) -> np.ndarray:
        return self.lo + (np.arange(self.count) + 0.5) * self.spacing


def _nodes_and_weights(pieces) -> tuple[np.ndarray, np.ndarray]:
    nodes = np.concatenate([p.nodes for p in pieces])
    weights = np.concatenate([np.full(p.count, p.spacing) for p in pieces])
    return nodes, weights


def _excised_pieces(ndim: int, radius: float, singular_points, gap: float, h: float):
    """Per axis, the midpoint pieces of spacing at most ``h`` covering [-radius, radius].

    A positive ``gap`` cuts (w_b - gap, w_b + gap) out of axis b for every
    singular point w.  A cut that only touches an interval leaves it whole,
    overlapping cuts merge and a cut outside the box is ignored.  Raises
    :class:`ScheduleError` if the cuts leave an axis empty.
    """
    lo, hi = -float(radius), float(radius)
    axes = []
    for b in range(ndim):
        cuts = sorted((w[b] - gap, w[b] + gap) for w in singular_points) if gap > 0.0 else []
        pieces, start = [], lo
        # the sentinel cut at hi closes the last interval
        for a, c in cuts + [(hi, hi)]:
            end = min(a, hi)
            if end > start:
                m = max(1, math.ceil((end - start) / h))
                pieces.append(MeshPiece(start, m, (end - start) / m))
            start = max(start, c)
        if not pieces:
            raise ScheduleError(f"a gap of {gap:g} excises all of axis {b} on [{lo:g}, {hi:g}]")
        axes.append(tuple(pieces))
    return axes


class _TensorMesh:
    """Tensor-product midpoint mesh over an excised region.

    Each axis is a union of uniform pieces; the structured 1D transfer works
    piece by piece, so the pieces are kept alongside the flattened nodes.
    """

    def __init__(self, axes_pieces):
        self.axes_pieces = list(axes_pieces)
        meshes = [_nodes_and_weights(p) for p in self.axes_pieces]
        self.axes_nodes = [nodes for nodes, _ in meshes]
        self.axes_weights = [weights for _, weights in meshes]
        self.dims = tuple(len(v) for v in self.axes_nodes)
        self.ndim = len(self.dims)
        self.size = int(np.prod(self.dims))
        grids = np.meshgrid(*self.axes_nodes, indexing="ij")
        self.points = np.stack([g.ravel() for g in grids], axis=-1)
        wgrids = np.meshgrid(*self.axes_weights, indexing="ij")
        self.weights = np.prod(np.stack([g.ravel() for g in wgrids], axis=-1), axis=-1)

    @classmethod
    def from_grid(cls, grid: Grid) -> "_TensorMesh":
        return cls(
            [(MeshPiece(grid.lo[b], grid.shape[b], grid.spacing[b]),) for b in range(grid.ndim)]
        )


def _axis_factors(mesh: _TensorMesh, eps: float, vector: VectorPotentialSpec | None) -> list[np.ndarray]:
    """Per-axis kernel tables F_l, each of shape ``(mesh.dims[l], mesh.size)``.

        F_l[x_l, y] = exp(i[(x_l - y_l)^2 / 4 eps + A_l(x_l; y_other) - A_l(y_l; y_other)])

    The kinetic phase and the source-frozen gauge increment are sums over axes
    whose axis-l term sees the target only through x_l, so the one-slice kernel
    (without prefactor) from y to x is the product over l of F_l[x_l, y].  x_l
    runs over the mesh's own nodes, so one gauge table serves both ends.  In
    1D the single table is the kernel matrix.
    """
    factors = []
    for l in range(mesh.ndim):
        m = mesh.dims[l]
        t = mesh.axes_nodes[l].reshape((m,) + (1,) * mesh.ndim)
        s = mesh.axes_nodes[l].reshape([1] + [-1 if b == l else 1 for b in range(mesh.ndim)])
        phase = (t - s) ** 2 / (4.0 * eps)
        if vector is not None:
            table = gauge.mesh_line_integrals(vector, l, mesh.axes_nodes)
            phase = phase + np.expand_dims(np.moveaxis(table, l, 0), l + 1) - table
        factors.append(np.broadcast_to(np.exp(1j * phase), (m,) + mesh.dims).reshape(m, -1))
    return factors


def _chirp_pair(target: MeshPiece, source: MeshPiece, eps: float):
    """Factors of sum_j exp(i (x_i - y_j)^2 / 4 eps) v_j between two uniform pieces.

    With x_i = x0 + i hx, y_j = y0 + j hy and d = x0 - y0 the square expands to
    d^2 + 2 d (i hx - j hy) + i^2 hx^2 + j^2 hy^2 - 2 i j hx hy.  Writing
    -2 i j = (i - j)^2 - i^2 - j^2 (Bluestein's chirp-z identity) turns the cross
    term into a convolution with the chirp exp(i hx hy k^2 / 4 eps), leaving
    diagonal chirps hx (hx - hy) i^2 and hy (hy - hx) j^2 that vanish when the
    spacings agree.  Returns the zero-padded chirp spectrum, the source-side
    and target-side diagonal chirps and the window of the convolution to keep.
    """
    hx, hy = target.spacing, source.spacing
    mt, ms = target.count, source.count
    d = (target.lo + 0.5 * hx) - (source.lo + 0.5 * hy)
    i = np.arange(mt)
    j = np.arange(ms)
    k = np.arange(-(ms - 1), mt)
    size = 1 << (len(k) - 1).bit_length()
    spectrum = np.fft.fft(np.exp(1j * (hx * hy / (4.0 * eps)) * (k * k)), size)
    pre = np.exp(1j * (hy * (hy - hx) * j * j - 2.0 * d * hy * j) / (4.0 * eps))
    post = np.exp(1j * (d * d + 2.0 * d * hx * i + hx * (hx - hy) * i * i) / (4.0 * eps))
    return spectrum, pre, post, slice(ms - 1, ms - 1 + mt)


class _ChirpPlan:
    """The free 1D kernel transfer on a union of uniform pieces, into itself.

    Built once per (pieces, eps): for every ordered pair of pieces it holds the
    :func:`_chirp_pair` factors, none of which depend on the vector moved, so
    each application is one zero-padded FFT product per pair.
    """

    def __init__(self, pieces, eps: float):
        self.splits = np.cumsum([p.count for p in pieces])[:-1]
        self.rows = [[_chirp_pair(tp, sp, eps) for sp in pieces] for tp in pieces]

    def __call__(self, u: np.ndarray) -> np.ndarray:
        parts = np.split(u, self.splits)
        return np.concatenate(
            [
                sum(
                    post * np.fft.ifft(spectrum * np.fft.fft(pre * v, len(spectrum)))[window]
                    for (spectrum, pre, post, window), v in zip(row, parts)
                )
                for row in self.rows
            ]
        )


def _kernel_plan(mesh: _TensorMesh, eps: float, vector: VectorPotentialSpec | None):
    """The one-slice kernel transfer (without prefactor) of values on a mesh.

    Everything that depends only on the mesh, eps and the field is built here,
    so each application costs one transfer.  In 1D the gauge increment
    A(x) - A(y) enters as a diagonal phase on each side of the chirp plan.  In
    more dimensions a transfer contracts the :func:`_axis_factors` tables with
    the source vector, F_0 diag(u) F_1^T in 2D.
    """
    if vector is not None and vector.ndim != mesh.ndim:
        raise ValueError("mesh dimension must match the vector potential")
    if mesh.ndim > 1:
        factors = _axis_factors(mesh, eps, vector)
        axes = "abcdefghijklmnopqrstuvwxy"[: mesh.ndim]
        spec = ",".join(a + "z" for a in axes) + ",z->" + axes
        return lambda u: np.einsum(spec, *factors, u, optimize=True).ravel()
    free = _ChirpPlan(mesh.axes_pieces[0], eps)
    if vector is None:
        return free
    table = gauge.mesh_line_integrals(vector, 0, mesh.axes_nodes)
    # two exponentials rather than a conjugate keep the phases bit for bit
    post = np.exp(1j * table)
    pre = np.exp(-1j * table)
    return lambda u: post * free(pre * u)


def kernel_prefactor(ndim: int, eps: float, slices: int, exponent: str = "composed") -> complex:
    """(1/(4 i pi eps))^(n q / 2) with the root of i taken as exp(i pi/4).

    ``composed`` uses q = slices, forced by composing one-slice kernels;
    ``displayed`` uses q = slices - 1 and is kept only as a regression guard
    (it fails the one-slice identity by a factor (4 pi eps)^(n/2)).
    """
    if exponent == "composed":
        q = slices
    elif exponent == "displayed":
        q = slices - 1
    else:
        raise ValueError(f"unknown prefactor convention {exponent!r}")
    return (4.0 * np.pi * eps) ** (-ndim * q / 2.0) * np.exp(-1j * np.pi * ndim * q / 4.0)


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


@dataclass(frozen=True)
class BoxSchedule:
    """Monotone schedule of positive outer radii and nonnegative gap radii."""

    radii: tuple[float, ...]
    gaps: tuple[float, ...]
    tail_window: int = DEFAULT_TAIL_WINDOW

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        gaps = tuple(float(g) for g in self.gaps)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "gaps", gaps)
        if not radii:
            raise ScheduleError("schedule must contain at least one step")
        if len(gaps) != len(radii):
            raise ScheduleError("gap schedule length must match the radius schedule")
        if not all(r > 0.0 for r in radii) or not all(g >= 0.0 for g in gaps):
            raise ScheduleError(f"radii must be positive and gaps nonnegative, got {radii} and {gaps}")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ScheduleError("outer radii must be strictly increasing")
        if any(b > a for a, b in zip(gaps, gaps[1:])):
            raise ScheduleError("gap radii must shrink monotonically")
        if self.tail_window < 1:
            raise ScheduleError("tail window must be positive")

    def __len__(self) -> int:
        return len(self.radii)

    @classmethod
    def fresnel(
        cls,
        eps: float,
        r_start: float,
        steps: int = 16,
        gap: float = 0.0,
        gap_final: float | None = None,
        tail_window: int = DEFAULT_TAIL_WINDOW,
    ) -> "BoxSchedule":
        """Radii spaced by roughly half a period of the dominant tail oscillation.

        Truncating at radius R leaves a tail oscillating in R with period about
        4 pi eps / R, so consecutive radii differ by 2 pi eps / R and the tail
        mean over the last window cancels the oscillation.
        """
        if not r_start > 0.0:
            raise ScheduleError(f"r_start must be positive, got {r_start}")
        spacing = 2.0 * np.pi * eps / r_start
        radii = tuple(r_start + i * spacing for i in range(steps))
        if gap_final is None or gap_final == gap:
            gaps = tuple(float(gap) for _ in range(steps))
        else:
            gaps = tuple(float(g) for g in np.geomspace(gap, gap_final, steps))
        return cls(radii, gaps, tail_window=tail_window)


@dataclass(frozen=True)
class AmplitudeEstimate:
    """Raw per-step estimates plus the tail-averaged value and diagnostics."""

    raw: tuple[complex, ...]
    radii: tuple[float, ...]
    value: complex
    tail_oscillation: float
    mesh_sizes: tuple[int, ...]
    eps: float
    slices: int

    def __post_init__(self):
        if not self.raw:
            raise ValueError("estimate sequence must be nonempty")

    @property
    def converged(self) -> bool:
        return self.tail_oscillation < TAIL_OSCILLATION_TOL


def raw_sliced_amplitude(
    phi_fn,
    psi_fn,
    eps: float,
    slices: int,
    mesh: _TensorMesh,
    vector: VectorPotentialSpec | None = None,
    scalar: ScalarPotentialSpec | None = None,
    prefactor: str = "composed",
) -> complex:
    """One box-truncated nested midpoint sum, evaluated as chained transfers.

    Every slice point x_0 .. x_k ranges over the same ``mesh``.
    """
    u = psi_fn(mesh.points) * mesh.weights
    transfer = _kernel_plan(mesh, eps, vector)
    # every slice ends on the same diagonal: potential phase times quadrature weight
    diagonal = mesh.weights
    if scalar is not None:
        diagonal = np.exp(-1j * eps * sample_points(scalar, mesh.points)) * diagonal
    for _ in range(slices):
        u = transfer(u) * diagonal
    amp = np.sum(phi_fn(mesh.points) * u)
    return complex(kernel_prefactor(mesh.ndim, eps, slices, prefactor) * amp)


def amplitude_quadrature(
    phi_fn,
    psi_fn,
    t: float,
    slices: int,
    schedule: BoxSchedule,
    ndim: int = 1,
    vector: VectorPotentialSpec | None = None,
    scalar: ScalarPotentialSpec | None = None,
    prefactor: str = "composed",
    max_evals: int = DEFAULT_EVAL_CAP,
) -> AmplitudeEstimate:
    """Run the box/gap schedule and tail-average the raw estimates.

    Each step excises a gap around exactly the singular points the fields
    register (:func:`fields.collect_singularities`).  Every step's mesh is
    planned first, so the cap is checked once, against the largest step,
    before any transfer.  ``max_evals`` counts target×source kernel pairs
    summed over the slices of one raw sum; the error's ``suggested_slices``
    is the largest slice count that fits the largest mesh, 0 when even one
    slice does not.
    """
    if slices < 1:
        raise ValueError("slice count must be at least 1")
    eps = t / slices
    pairs = 2 if slices >= 2 else 1
    singular_points = collect_singularities(scalar, vector)
    steps = [
        _excised_pieces(ndim, radius, singular_points, gap, phase_mesh_spacing(eps, radius, pairs))
        for radius, gap in zip(schedule.radii, schedule.gaps)
    ]
    sizes = tuple(math.prod(sum(p.count for p in pieces) for pieces in axes) for axes in steps)
    per_pair = max(sizes) ** 2
    if slices * per_pair > max_evals:
        # the chain cost is linear in k; suggest the largest feasible count
        raise CapExceededError(
            f"{slices * per_pair} kernel evaluations exceed the cap {max_evals}",
            suggested_slices=int(max_evals // per_pair),
        )
    raw = [
        raw_sliced_amplitude(phi_fn, psi_fn, eps, slices, _TensorMesh(axes), vector, scalar, prefactor)
        for axes in steps
    ]
    window = min(schedule.tail_window, len(raw))
    tail = np.asarray(raw[-window:])
    value = complex(np.mean(tail))
    oscillation = float(np.max(np.abs(tail - value))) if window > 1 else 0.0
    return AmplitudeEstimate(
        raw=tuple(raw),
        radii=schedule.radii,
        value=value,
        tail_oscillation=oscillation,
        mesh_sizes=sizes,
        eps=eps,
        slices=slices,
    )


def operator_vs_kernel_consistency(
    vector: VectorPotentialSpec,
    grid: Grid,
    eps: float,
) -> float:
    """L2 gap between the per-axis gauge-split slice and the single-kernel slice.

    The split operator threads updated coordinates through successive axes; the
    slice kernel freezes the coordinates off each line-integral axis at the
    earlier point.
    For one dimension (or constant fields) the two coincide; in general the
    difference is O(eps) and is reported as a diagnostic, not asserted zero.
    The kernel slice is one transfer on the grid refined per axis by the
    smallest odd factor meeting the pi/4 phase bound, read at the grid nodes.
    """
    center = [0.5 * (a + b) for a, b in zip(grid.lo, grid.hi)]
    # narrow enough that the state's tails are negligible at the box edge
    width = [(b - a) / 16.0 for a, b in zip(grid.lo, grid.hi)]
    psi_fn = gaussian_evaluator(center=center, width=width, ndim=grid.ndim)

    psi_grid = WaveFunction(grid, psi_fn(np.stack(grid.meshgrid(), axis=-1)))
    via_operator = SliceOperator(grid, None, vector).slice(eps)(psi_grid)

    diam = float(np.sqrt(sum((b - a) ** 2 for a, b in zip(grid.lo, grid.hi))))
    bound = (np.pi / 4.0) * 2.0 * eps / diam
    factors = [int(np.ceil(h / bound)) // 2 * 2 + 1 for h in grid.spacing]
    shape = tuple(n * r for n, r in zip(grid.shape, factors))
    fine = _TensorMesh.from_grid(Grid(grid.lo, grid.hi, shape))
    u = psi_fn(fine.points) * fine.weights
    vals = kernel_prefactor(grid.ndim, eps, 1) * _kernel_plan(fine, eps, vector)(u)
    via_kernel = vals.reshape(fine.dims)[tuple(slice(r // 2, None, r) for r in factors)]
    return l2_norm(WaveFunction(grid, via_operator.values - via_kernel))
