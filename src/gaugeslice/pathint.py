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
Raw box-truncated sums oscillate in the outer radius with a period set by
eps = t / k (the tails are Fresnel-like and converge only conditionally), so
the radii are spaced by half that period, the reported value is the
arithmetic mean of the last few schedule steps, and the estimate counts as
converged when their spread stays below :data:`TAIL_OSCILLATION_TOL`.

:func:`amplitude_quadrature` builds the schedule from its own keywords and
checks the evaluation cap against its largest mesh, the last step's, before
it meshes any other step or :func:`raw_sliced_amplitude` sums any.  Its
keywords are the ``amplitude`` block's keys, so each refusal names the key to change.
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
built once per mesh and eps and applied once per slice: the staircase slice
of :func:`gauge.staircase_sweep`, with the free 1D kernel along each axis
and A_l from :func:`gauge.mesh_line_integrals`.
Each axis of a mesh is a union of uniform pieces, and the free kernel between
two pieces is a chirp-modulated Toeplitz matrix, so an axis costs one FFT
convolution per pair of pieces (Bluestein's chirp-z identity,
:class:`_ChirpPlan`), batched over the other axes in transform buffers the
plan owns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapExceededError, ScheduleError, SingularNodeError
from . import gauge
from .fields import (
    ScalarPotentialSpec,
    VectorPotentialSpec,
    collect_singularities,
    sample_points,
    sample_state,
    tensor_points,
)

DEFAULT_EVAL_CAP = int(1e8)
DEFAULT_STEPS = 16
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
                cells = (end - start) / h if h > 0 else math.inf
                m = max(1, math.ceil(cells)) if cells < math.inf else math.inf  # too many to count
                pieces.append(MeshPiece(start, m, (end - start) / m))
            start = max(start, c)
        if not pieces:
            raise ScheduleError(
                f"a gap of {gap:g} excises all of axis {b} on [{lo:g}, {hi:g}]; lower amplitude.gap")
        axes.append(tuple(pieces))
    return axes


class _TensorMesh:
    """Tensor-product midpoint mesh over an excised region.

    Each axis is a union of uniform pieces; the transfer along an axis works
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
        self.points = tensor_points(self.axes_nodes)
        self.weights = np.prod(tensor_points(self.axes_weights), axis=-1)


def _chirp_pair(target: MeshPiece, source: MeshPiece, eps: float):
    """Factors of sum_j exp(i (x_i - y_j)^2 / 4 eps) v_j between two uniform pieces.

    With x_i = x0 + i hx, y_j = y0 + j hy and d = x0 - y0 the square expands to
    d^2 + 2 d (i hx - j hy) + i^2 hx^2 + j^2 hy^2 - 2 i j hx hy.  Writing
    -2 i j = (i - j)^2 - i^2 - j^2 (Bluestein's chirp-z identity) turns the cross
    term into a convolution with the chirp exp(i hx hy k^2 / 4 eps), leaving
    diagonal chirps hx (hx - hy) i^2 and hy (hy - hx) j^2 that vanish when the
    spacings agree.  The chirp is even in k, so it is computed once per |k| and
    gathered.  Returns the zero-padded chirp spectrum, the source-side and
    target-side diagonal chirps and the window of the convolution to keep.  A
    piece onto itself has d = 0 and hx = hy, so both diagonals are exactly 1
    and come back as None.
    """
    hx, hy = target.spacing, source.spacing
    mt, ms = target.count, source.count
    d = (target.lo + 0.5 * hx) - (source.lo + 0.5 * hy)
    k = np.arange(max(mt, ms))
    chirp = np.exp(1j * (hx * hy / (4.0 * eps)) * (k * k))
    size = 1 << (mt + ms - 2).bit_length()
    spectrum = np.fft.fft(chirp[np.abs(np.arange(-(ms - 1), mt))], size)
    window = slice(ms - 1, ms - 1 + mt)
    if d == 0.0 and hx == hy:
        return spectrum, None, None, window
    i = np.arange(mt)
    j = np.arange(ms)
    pre = np.exp(1j * (hy * (hy - hx) * j * j - 2.0 * d * hy * j) / (4.0 * eps))
    post = np.exp(1j * (d * d + 2.0 * d * hx * i + hx * (hx - hy) * i * i) / (4.0 * eps))
    return spectrum, pre, post, window


class _ChirpPlan:
    """The free 1D kernel transfer on a union of uniform pieces, into itself.

    It acts along the last axis of arrays of shape ``batch + (size,)``, one
    transfer per line.  Built once per (pieces, eps, batch): for every ordered
    pair of pieces it holds the :func:`_chirp_pair` factors, none of which
    depend on the values moved, and one padded transform buffer.  Each
    application is one zero-padded FFT product per pair, transformed in that
    buffer and added into the target piece's slice of the output; nothing else
    is allocated but the output.
    """

    def __init__(self, pieces, eps: float, batch: tuple[int, ...] = ()):
        bounds = np.cumsum([0] + [p.count for p in pieces])
        self.shape = tuple(batch) + (int(bounds[-1]),)
        spans = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        self.pairs = [
            (spans[t], spans[s], *_chirp_pair(tp, sp, eps))
            for t, tp in enumerate(pieces) for s, sp in enumerate(pieces)
        ]
        self.buffers = [np.empty(self.shape[:-1] + (len(spectrum),), dtype=complex)
                        for _, _, spectrum, *_ in self.pairs]

    def __call__(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros(self.shape, dtype=complex)
        for (rows, cols, spectrum, pre, post, window), buf in zip(self.pairs, self.buffers):
            v = u[..., cols] if pre is None else pre * u[..., cols]
            np.fft.fft(v, buf.shape[-1], out=buf)
            np.multiply(spectrum, buf, out=buf)
            np.fft.ifft(buf, out=buf)
            kept = buf[..., window]
            if post is not None:
                np.multiply(post, kept, out=kept)
            out[..., rows] += kept
        return out


def _kernel_plan(mesh: _TensorMesh, eps: float, vector: VectorPotentialSpec | None):
    """The one-slice kernel transfer (without prefactor) of values on a mesh.

    Everything that depends only on the mesh, eps and the field is built here,
    so each application costs one :func:`gauge.staircase_sweep`.
    """
    if vector is not None and vector.ndim != mesh.ndim:
        raise ValueError("mesh dimension must match the vector potential")

    def free(l):
        # the chirp plan transforms along the last axis, so axis l is moved there and back
        order = tuple(b for b in range(mesh.ndim) if b != l) + (l,)
        restore = tuple(np.argsort(order))
        plan = _ChirpPlan(mesh.axes_pieces[l], eps, tuple(mesh.dims[b] for b in order[:-1]))
        return lambda u: plan(u.transpose(order)).transpose(restore)

    tables = [None if vector is None else gauge.mesh_line_integrals(vector, l, mesh.axes_nodes)
              for l in range(mesh.ndim)]
    axes = [(free(l), None if table is None else gauge.phase_pair(table)) for l, table in enumerate(tables)]

    def transfer(u: np.ndarray) -> np.ndarray:
        return gauge.staircase_sweep(u.reshape(mesh.dims), axes).ravel()

    return transfer


def kernel_prefactor(ndim: int, eps: float, slices: int) -> complex:
    """(1/(4 i pi eps))^(n k / 2) for k = ``slices``, the root of i taken as exp(i pi/4).

    The exponent n k / 2 is forced by composing k one-slice kernels.  The
    displayed exponent n (k - 1) / 2 is ``kernel_prefactor(n, eps, k - 1)``; it
    fails the one-slice identity by a factor (4 pi eps)^(n/2).
    """
    return (4.0 * np.pi * eps) ** (-ndim * slices / 2.0) * np.exp(-1j * np.pi * ndim * slices / 4.0)


@dataclass(frozen=True)
class AmplitudeEstimate:
    """Raw per-step estimates plus the tail-averaged value and diagnostics."""

    raw: tuple[complex, ...]
    radii: tuple[float, ...]
    value: complex
    tail_oscillation: float
    mesh_sizes: tuple[int, ...]
    slices: int

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
) -> complex:
    """One box-truncated nested midpoint sum, evaluated as chained transfers.

    Every slice point x_0 .. x_k ranges over the same ``mesh``.  A state that
    is not finite on the mesh is refused by :func:`fields.sample_state`.
    """
    u = sample_state(psi_fn, mesh.points, "initial", "amplitude mesh") * mesh.weights
    phi = sample_state(phi_fn, mesh.points, "final", "amplitude mesh")
    transfer = _kernel_plan(mesh, eps, vector)
    # every slice ends on the same diagonal: potential phase times quadrature weight
    diagonal = mesh.weights
    if scalar is not None:
        diagonal = np.exp(-1j * eps * sample_points(scalar, mesh.points)) * diagonal
    for _ in range(slices):
        u = transfer(u) * diagonal
    amp = np.sum(phi * u)
    return complex(kernel_prefactor(mesh.ndim, eps, slices) * amp)


def check_schedule(t: float, r_start: float, steps: int, tail_window: int, gap: float,
                   gap_final: float) -> None:
    """Raise :class:`ScheduleError` unless the Fresnel box/gap schedule is valid.

    A schedule needs t > 0, r_start > 0, steps >= 1, tail_window >= 1,
    gap >= 0 and a gap_final equal to gap or in (0, gap).  The quadrature and
    the scenario loader both hold a schedule to this one rule.
    """
    if not (t > 0 and r_start > 0 and steps >= 1 and tail_window >= 1 and gap >= 0
            and (gap_final == gap or 0 < gap_final < gap)):
        raise ScheduleError(
            f"the schedule needs t > 0, r_start > 0, steps >= 1, tail_window >= 1, gap >= 0 and "
            f"gap_final equal to gap or in (0, gap), got t={t}, r_start={r_start}, steps={steps}, "
            f"tail_window={tail_window}, gap={gap} and gap_final={gap_final}"
        )


def amplitude_quadrature(
    phi_fn,
    psi_fn,
    t: float,
    slices: int,
    *,
    r_start: float,
    steps: int = DEFAULT_STEPS,
    gap: float = 0.0,
    gap_final: float | None = None,
    tail_window: int = DEFAULT_TAIL_WINDOW,
    ndim: int = 1,
    vector: VectorPotentialSpec | None = None,
    scalar: ScalarPotentialSpec | None = None,
    max_evals: int = DEFAULT_EVAL_CAP,
) -> AmplitudeEstimate:
    """Run the Fresnel box/gap schedule and tail-average the raw estimates.

    With eps = t / slices, step i truncates to the box of radius
    r_start + i 2 pi eps / r_start: truncating at radius R leaves a tail
    oscillating in R with period about 4 pi eps / R, so the mean over the last
    ``tail_window`` steps cancels the oscillation.  The gap is held at ``gap``,
    or shrinks geometrically to a ``gap_final`` in (0, gap); any other schedule
    raises :class:`ScheduleError` (:func:`check_schedule`).

    Each step excises a gap around exactly the singular points the fields
    register (:func:`fields.collect_singularities`).  The last step has the
    widest box and the narrowest gap, so the largest mesh; the cap is checked
    once, against it, before any list sized by ``steps`` is built.  A box too
    wide to count its cells counts as an infinite mesh, which exceeds any
    cap.  ``max_evals`` counts target×source kernel pairs summed over the
    slices of one raw sum; the error's ``suggested_slices`` is the largest
    slice count that fits the largest mesh, and its message suggests it or,
    when it is 0, which way to move ``r_start``.
    """
    if slices < 1:
        raise ValueError("slice count must be at least 1")
    if gap_final is None:
        gap_final = gap
    check_schedule(t, r_start, steps, tail_window, gap, gap_final)
    eps = t / slices
    spacing = 2.0 * np.pi * eps / r_start
    pairs = 2 if slices >= 2 else 1
    singular_points = collect_singularities(scalar, vector)

    def plan(radius, cut):
        axes = _excised_pieces(ndim, radius, singular_points, cut, phase_mesh_spacing(eps, radius, pairs))
        return axes, math.prod(sum(p.count for p in pieces) for pieces in axes)

    per_pair = plan(r_start + (steps - 1) * spacing, gap_final)[1] ** 2
    evals = slices * per_pair
    if evals > max_evals:
        # the chain cost is linear in k: suggest the largest feasible count, and with none, move
        # r_start toward sqrt(2 pi eps (steps - 1)), where the last radius r + (steps - 1) 2 pi eps / r is least
        suggested = int(max_evals // per_pair)
        move = "raise" if r_start < math.sqrt(2.0 * np.pi * eps * (steps - 1)) else "lower"
        hint = (f"try slices <= {suggested}" if suggested else
                f"one slice exceeds the cap: {move} amplitude.r_start or raise amplitude.max_evals")
        # an int too large for a float has no :g form, so it is scaled by its power of ten first
        power = math.floor(math.log10(evals)) if evals < math.inf else 0
        count = evals if power < 15 else f"{evals / 10**power:.3g}e+{power}"
        raise CapExceededError(f"{count} kernel evaluations exceed the cap {max_evals} ({hint})", suggested)
    radii = tuple(r_start + i * spacing for i in range(steps))
    gaps = [gap] * steps if gap_final == gap else np.geomspace(gap, gap_final, steps)
    meshes, sizes = zip(*(plan(radius, cut) for radius, cut in zip(radii, gaps)))
    try:
        raw = [raw_sliced_amplitude(phi_fn, psi_fn, eps, slices, _TensorMesh(axes), vector, scalar)
               for axes in meshes]
    except SingularNodeError as exc:
        raise SingularNodeError(f"{exc}; set amplitude.gap > 0 to excise it") from exc
    window = min(tail_window, len(raw))
    tail = np.asarray(raw[-window:])
    value = complex(np.mean(tail))
    oscillation = float(np.max(np.abs(tail - value))) if window > 1 else 0.0
    return AmplitudeEstimate(
        raw=tuple(raw),
        radii=radii,
        value=value,
        tail_oscillation=oscillation,
        mesh_sizes=sizes,
        slices=slices,
    )

