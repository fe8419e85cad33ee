"""Gauge phases built from line integrals of the vector potential.

The central objects are the per-axis increment

    segment_gauge_increment(a, j, x1, x0)  =  integral of a_j along axis j
                                              from x0_j to x1_j, other
                                              coordinates frozen at x0,

the per-slice increment between two points, the grid table of the phase from
0 to each node, and the comparison against the midpoint-rule term
(x1 - x0) . a((x1 + x0)/2) used by the physics discretization.  Both routes'
slices follow one staircase, defined here: axis n-1 is crossed first and axis
0 last, axis l with the later point's coordinates above l and the earlier
point's below.  The per-slice increment is the line integral along it, and
:func:`staircase_sweep` applies a slice of either route in its order.

Every line integral in the package goes through :func:`cumulative_axis_integral`
(or its per-segment core), vectorized over all lines that share an axis.  Each
segment between consecutive breakpoints takes the value of the nested
Gauss-Kronrod 7/15 pair's 15-point Kronrod rule; the 7-point Gauss-Legendre
value from the same 15 field values is the error estimate, and segments where
the two differ by more than ``LINE_INTEGRAL_TOL`` on any line are bisected.
The pair's nodes and weights are float constants of this module, so no table
calls LAPACK.  The phases enter unit-modulus exponents, so phase error has to
sit well below per-slice phase scales.  The quadrature nodes are evaluated in
blocks of at most ``_BLOCK_POINTS`` points, over segments and, when one
segment's lines exceed a block, over lines too, so a table's working set does
not grow with its shape.

Every segment is axis-parallel, so its point nearest a singular point w takes
the axis coordinate of w clipped into it; that point is checked like a node
(``fields.SINGULAR_TOL``), and a crossing raises :class:`SingularNodeError`.
A cumulative table checks the hull of its breakpoints on every line before
integrating, so a table that would pass through a singular point raises too.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureDivergenceError
from .fields import (
    Grid,
    VectorPotentialSpec,
    WaveFunction,
    _check_nodes_off_singular,
    fourier_multiply,
    l2_norm,
    sample_points,
    tensor_points,
)

# Absolute bound on |Kronrod - Gauss| per segment and line before bisecting.
LINE_INTEGRAL_TOL = 1e-10
MAX_BISECTION_ROUNDS = 40
# Refined segments times lines above this count are reported as divergence
# rather than evaluated, bounding the work on a field that never resolves.
_MAX_REFINED_LINE_SEGMENTS = 1 << 18
# Quadrature points evaluated at once, up to one line's nodes more; a block
# holds at least one segment's nodes on two lines (one if the table has one).
_BLOCK_POINTS = 1 << 13


def _mirrored(half) -> tuple[np.ndarray, np.ndarray]:
    """Nodes on [-1, 1] and weight rows from the (node, weights...) rows of nodes >= 0, 0 first."""
    half = np.array(half)
    nodes, weights = half[:, 0], half[:, 1:]
    return np.concatenate([-nodes[:0:-1], nodes]), np.concatenate([weights[:0:-1], weights])


# The nested Gauss-Kronrod pair of QUADPACK's qk15: the 15-point Kronrod rule and
# the 7-point Gauss-Legendre rule on every other of its nodes, whose weight is 0 on
# the 8 Kronrod nodes.  Rows are (node, Kronrod weight, Gauss weight), QUADPACK's
# digits; held as literals so that a run neither imports numpy.polynomial nor
# calls LAPACK.  Both estimates come from the same 15 field values.
_NODES, _WEIGHTS = _mirrored([
    (0.0, 0.209482141084727828012999174891714, 0.417959183673469387755102040816327),
    (0.207784955007898467600689403773245, 0.204432940075298892414161999234649, 0.0),
    (0.405845151377397166906606412076961, 0.190350578064785409913256402421014,
     0.381830050505118944950369775488975),
    (0.586087235467691130294144845693013, 0.169004726639267902826583426598550, 0.0),
    (0.741531185599394439863864773280788, 0.140653259715525918745189590510238,
     0.279705391489276667901467771423780),
    (0.864864423359769072789712788640926, 0.104790010322250183839876322541518, 0.0),
    (0.949107912342758524526189684047851, 0.063092092629978553290700663189204,
     0.129484966168869693270611432679082),
    (0.991455371120812639206854697526329, 0.022935322010529224963732008058970, 0.0),
])


def _check_segment_off_singular(
    vector: VectorPotentialSpec, axis: int, lo: float, hi: float, frozen: np.ndarray
) -> None:
    """Raise :class:`SingularNodeError` if a segment meets a singular point.

    The segment is [lo, hi] along ``axis`` on each line of ``frozen``.  Its
    point nearest a singular point w takes the axis coordinate of w clipped
    into [lo, hi] and the line's other coordinates.
    """
    nearest = np.repeat(frozen[None, :, :], len(vector.singular_points), axis=0)
    nearest[..., axis] = np.clip([w[axis] for w in vector.singular_points], lo, hi)[:, None]
    where = f"gauge segment along axis {axis} over [{lo}, {hi}] at"
    _check_nodes_off_singular(nearest, vector.singular_points, where)


def _node_sums(
    vector: VectorPotentialSpec, axis: int, mid: np.ndarray, half: np.ndarray, pts: np.ndarray
) -> np.ndarray:
    """Kronrod and Gauss sums on every segment (mid +- half) and line, shape (2, S, U).

    A segment's values are its sums times ``half``.  ``pts`` has shape
    (S, nodes, U, n) and holds the lines' off-axis coordinates at every node;
    its axis column is overwritten here.
    """
    pts[..., axis] = (mid[:, None] + half[:, None] * _NODES)[:, :, None]
    # einsum, not a BLAS product: on one line BLAS rounds both sums of some constant
    # fields (1e11) alike, so a field at its rounding floor would pass unseen
    return np.einsum("snu,nk->ksu", vector.component(axis, pts), _WEIGHTS)


def _segment_integrals(
    vector: VectorPotentialSpec, axis: int, lo, hi, frozen: np.ndarray
) -> np.ndarray:
    """Integral of a_axis over [lo[s], hi[s]] on every line, shape (S, U).

    ``frozen`` has shape (U, n), one row of off-axis coordinates per line; its
    axis column is ignored.  A segment flagged on any line is bisected for all
    lines, so the breakpoints stay shared.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    lines = frozen.shape[0]
    values = np.zeros((len(lo), lines))
    owner = np.arange(len(lo))
    # a block holds every line of several segments, or some lines of one segment;
    # einsum sums a lone line in another order than several, so of a table with
    # more than one line no block holds one line alone: the last takes one more
    seg_step = max(1, _BLOCK_POINTS // (len(_NODES) * lines))
    line_step = max(2, _BLOCK_POINTS // len(_NODES))
    line_edges = list(range(0, max(lines - 1, 1), line_step)) + [lines]
    for _ in range(MAX_BISECTION_ROUNDS):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        sums = np.empty((2, len(lo), lines))
        for cols in map(slice, line_edges[:-1], line_edges[1:]):
            # the lines' coordinates at the nodes of a block, written once for all its segments
            shape = (min(seg_step, len(lo)), len(_NODES)) + frozen[cols].shape
            pts = np.broadcast_to(frozen[cols], shape).copy()
            for first in range(0, len(lo), seg_step):
                rows = slice(first, first + seg_step)
                sums[:, rows, cols] = _node_sums(
                    vector, axis, mid[rows], half[rows], pts[: len(lo) - first]
                )
        sums *= half[:, None]
        high, low = sums
        finite = np.isfinite(high).all(axis=1) & np.isfinite(low).all(axis=1)
        if not finite.all():
            s = int(np.argmin(finite))
            raise QuadratureDivergenceError(
                f"line integral on [{lo[s]}, {hi[s]}] along axis {axis} is not finite"
            )
        err = np.abs(high - low)
        flagged = err.max(axis=1, initial=0.0) > LINE_INTEGRAL_TOL
        np.add.at(values, owner[~flagged], high[~flagged])
        if not flagged.any():
            return values
        s = int(np.argmax(flagged))
        u = int(np.argmax(err[s]))
        failing = (lo[s], hi[s], err[s, u], abs(high[s, u]))
        lo, mid, hi, owner = lo[flagged], mid[flagged], hi[flagged], owner[flagged]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        owner = np.concatenate([owner, owner])
        if len(lo) * lines > _MAX_REFINED_LINE_SEGMENTS:
            break
    # the difference next to the integral's size tells a rounding floor from a rough field
    seg_lo, seg_hi, diff, size = failing
    raise QuadratureDivergenceError(
        f"line integral along axis {axis} did not converge on [{seg_lo}, {seg_hi}]: after bisection "
        f"its order-15 and order-7 estimates still differ by {diff:.3g}, above the absolute tolerance "
        f"{LINE_INTEGRAL_TOL}, on a segment integral of magnitude {size:.3g}"
    )


def cumulative_axis_integral(
    vector: VectorPotentialSpec, axis: int, coords, frozen: np.ndarray
) -> np.ndarray:
    """Integral of a_axis from 0 to each of ``coords``, for every line of ``frozen``.

    ``frozen`` has shape (U, n) and its axis column is ignored; the result has
    shape (len(coords), U).  Breakpoints are the sorted coordinates plus 0, so
    consecutive coordinates share their partial integrals.
    """
    coords = np.asarray(coords, dtype=float)
    # sorted and deduplicated by hand: np.unique imports numpy.ma
    breaks = np.sort(np.concatenate([coords, [0.0]]))
    breaks = breaks[np.concatenate([[True], breaks[1:] != breaks[:-1]])]
    _check_segment_off_singular(vector, axis, breaks[0], breaks[-1], frozen)
    seg = _segment_integrals(vector, axis, breaks[:-1], breaks[1:], frozen)
    cum = np.concatenate([np.zeros((1, frozen.shape[0])), np.cumsum(seg, axis=0)])
    cum -= cum[np.searchsorted(breaks, 0.0)]
    return cum[np.searchsorted(breaks, coords)]


def segment_gauge_increment(vector: VectorPotentialSpec, axis: int, x1, x0) -> float:
    """Integral of a_axis over [x0[axis], x1[axis]], other coordinates frozen at x0.

    Antisymmetric under swapping the axis coordinates of the two endpoints.
    """
    end = float(np.atleast_1d(np.asarray(x1, dtype=float))[axis])
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    _check_segment_off_singular(vector, axis, *sorted((x0[axis], end)), x0[None, :])
    return float(_segment_integrals(vector, axis, [x0[axis]], [end], x0[None, :])[0, 0])


def slice_gauge_increment(vector: VectorPotentialSpec, x1, x0) -> float:
    """Line integral of a from x0 to x1 along the staircase.

    Each axis, n-1 first, is crossed from the corner the earlier crossings
    reached, so under a -> a + grad chi the increment gains exactly
    chi(x1) - chi(x0).
    """
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    corner = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    total = 0.0
    for l in reversed(range(vector.ndim)):
        total += segment_gauge_increment(vector, l, x1, corner)
        corner[l] = x1[l]
    return float(total)


def phase_pair(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair (e^{+i table}, e^{-i table}); the second is the conjugate of the first."""
    phase = np.exp(1j * table)
    return phase, np.conj(phase)


def staircase_sweep(values: np.ndarray, axes, diagonal=None) -> np.ndarray:
    """One gauge-split slice applied to ``values``, axis n-1 first.

    ``axes[l]`` is (free_l, phases_l): free_l propagates values along axis l
    and phases_l is lam_l's :func:`phase_pair`, or None without a field.  Each
    axis maps v to e^{+i lam_l} free_l(e^{-i lam_l} v); ``diagonal`` multiplies last.
    """
    for free, phases in reversed(axes):
        values = free(values) if phases is None else phases[0] * free(phases[1] * values)
    return values if diagonal is None else diagonal * values


def midpoint_discrepancy(vector: VectorPotentialSpec, x1, x0) -> float:
    """|slice increment - (x1 - x0) . a(midpoint)|.

    The midpoint form is the physics discretization; for smooth fields the
    discrepancy shrinks quadratically with |x1 - x0|.
    """
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    mid = 0.5 * (x1 + x0)
    a_mid = np.array([sample_points(vector, mid[None], l)[0] for l in range(vector.ndim)])
    exact = slice_gauge_increment(vector, x1, x0)
    return float(abs(exact - np.dot(x1 - x0, a_mid)))


def mesh_line_integrals(vector: VectorPotentialSpec, axis: int, axes) -> np.ndarray:
    """Antiderivative A(s; s_other) of a_axis at every point s of a tensor mesh.

    ``axes`` holds the mesh's per-axis nodes; the line through a mesh point
    freezes every coordinate but ``axis`` there.  The result has the mesh
    shape.
    """
    # the axis column of a frozen line is ignored, so one zero stands for it
    other = [np.zeros(1) if b == axis else nodes for b, nodes in enumerate(axes)]
    cum = cumulative_axis_integral(vector, axis, axes[axis], tensor_points(other))
    cum = cum.reshape((len(axes[axis]),) + tuple(len(v) for v in other))
    return np.swapaxes(cum, 0, axis + 1)[0]


def gauge_phase_table(vector: VectorPotentialSpec, axis: int, grid: Grid) -> np.ndarray:
    """Gauge phase sampled on every grid node, shape ``grid.shape``.

    One vectorized call covers every grid line along ``axis``.
    """
    return mesh_line_integrals(vector, axis, [grid.axis_coords(b) for b in range(grid.ndim)])


def gauge_conjugation_residual(op, axis: int, psi: WaveFunction) -> float:
    """L2 residual of the conjugation identity on one axis.

    Compares conjugating the momentum operator by the gauge phase of ``op``, a
    :class:`splitstep.SliceOperator` with a vector potential, against the
    minimally-coupled momentum (-i d_axis - a_axis) with the operator's samples
    of a_axis, both via spectral differentiation.  Small for smooth periodic data.
    """
    grid = psi.grid
    phase, conj = op.gauge_phases[axis]
    d1, _ = grid.derivative_symbols(axis)
    lhs = phase * (-1j * fourier_multiply(conj * psi.values, d1, axis))
    rhs = -1j * fourier_multiply(psi.values, d1, axis) - op.a_vals[axis] * psi.values
    return l2_norm(WaveFunction(grid, lhs - rhs))
