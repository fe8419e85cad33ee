"""Excised quadrature of time-sliced amplitudes.

The heaviest property here is the brute-force dual check: the chained-transfer
evaluation must reproduce, term by term, the literal nested midpoint sum of
``prefactor * phi(x_k) exp(discrete_action) psi(x_0)`` on tiny meshes.
"""

import itertools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gaugeslice import (
    CapExceededError,
    NonFiniteError,
    ScalarPotentialSpec,
    ScheduleError,
    SingularNodeError,
    VectorPotentialSpec,
    amplitude_quadrature,
    gaussian_evaluator,
    kernel_prefactor,
    slice_gauge_increment,
)
from gaugeslice import gauge, pathint
from gaugeslice.fields import Grid, WaveFunction, l2_norm
from gaugeslice.pathint import (
    TAIL_OSCILLATION_TOL,
    AmplitudeEstimate,
    MeshPiece,
    _ChirpPlan,
    _TensorMesh,
    _chirp_pair,
    _excised_pieces,
    _kernel_plan,
    _nodes_and_weights,
    phase_mesh_spacing,
    raw_sliced_amplitude,
)
from gaugeslice.splitstep import SliceOperator
from oracles import discrete_action, exact_free_gaussian, slice_kernel


class TestPrefactor:
    def test_modulus(self):
        eps = 0.2
        for n, k in [(1, 1), (1, 3), (2, 2)]:
            pref = kernel_prefactor(n, eps, k)
            assert abs(pref) == pytest.approx((4.0 * np.pi * eps) ** (-n * k / 2.0))

    def test_phase_is_root_of_inverse_i(self):
        pref = kernel_prefactor(1, 0.2, 1)
        assert np.angle(pref) == pytest.approx(-np.pi / 4.0)

    def test_slice_kernel_modulus(self):
        val = slice_kernel([1.0], [0.3], 0.25)
        assert abs(val) == pytest.approx((4.0 * np.pi * 0.25) ** -0.5)


class TestDiscreteAction:
    def test_free_two_points(self):
        # kinetic term only: i eps * (1/4) ((x1 - x0)/eps)^2
        act = discrete_action([[0.0], [1.0]], 0.5)
        assert act == pytest.approx(1j * 0.5 * 0.25 * (1.0 / 0.5) ** 2)

    def test_potential_sampled_at_later_point(self):
        scalar = ScalarPotentialSpec(lambda p: 10.0 * (p[..., 0] > 0.5))
        act_free = discrete_action([[0.0], [1.0]], 0.5)
        act = discrete_action([[0.0], [1.0]], 0.5, scalar=scalar)
        # V is evaluated at x1 = 1, not at x0 = 0
        assert act == pytest.approx(act_free - 1j * 0.5 * 10.0)

    def test_gauge_increment_enters_without_eps(self):
        vec = VectorPotentialSpec((lambda p: np.full(p.shape[:-1], 0.7),))
        act_free = discrete_action([[0.0], [1.0]], 0.5)
        act = discrete_action([[0.0], [1.0]], 0.5, vector=vec)
        assert act == pytest.approx(act_free + 1j * 0.7)

    def test_singular_point_rejected(self):
        # the first slice point is never sampled, so only the registered set can reject it
        scalar = ScalarPotentialSpec(lambda p: np.abs(p[..., 0]) ** -0.5, singular_points=((0.0,),))
        with pytest.raises(SingularNodeError):
            discrete_action([[0.0], [1.0]], 0.5, scalar=scalar)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            discrete_action([[0.0]], 0.5)


class TestExcisionRegion:
    """Route 3's excision rule, :func:`pathint._excised_pieces`."""

    @staticmethod
    def spans(pieces):
        return [(p.lo, p.lo + p.count * p.spacing) for p in pieces]

    def test_gap_subtraction(self):
        (pieces,) = _excised_pieces(1, 2.0, [(0.0,)], 0.1, 0.05)
        np.testing.assert_allclose(self.spans(pieces), [(-2.0, -0.1), (0.1, 2.0)])

    def test_zero_gap_keeps_box(self):
        (pieces,) = _excised_pieces(1, 2.0, [(0.0,)], 0.0, 0.05)
        np.testing.assert_allclose(self.spans(pieces), [(-2.0, 2.0)])

    def test_mesh_avoids_gap_and_conserves_length(self):
        (pieces,) = _excised_pieces(1, 2.0, [(0.0,)], 0.1, 0.05)
        nodes, weights = _nodes_and_weights(pieces)
        assert np.min(np.abs(nodes)) >= 0.1
        assert np.sum(weights) == pytest.approx(3.8)

    def test_per_axis_gaps_in_2d(self):
        axis0, axis1 = _excised_pieces(2, 1.0, [(0.5, -0.5)], 0.2, 0.05)
        np.testing.assert_allclose(self.spans(axis0), [(-1.0, 0.3), (0.7, 1.0)])
        np.testing.assert_allclose(self.spans(axis1), [(-1.0, -0.7), (-0.3, 1.0)])

    def test_overlapping_cuts_merge_and_outside_cuts_are_ignored(self):
        # the gaps around -0.5 and -0.25 overlap, the one around 1.25 only
        # touches the box edge at 1.0 and the one around 3.0 lies outside the box
        points = [(-0.25,), (3.0,), (1.25,), (-0.5,)]
        (pieces,) = _excised_pieces(1, 1.0, points, 0.25, 0.05)
        assert [p.lo for p in pieces] == [-1.0, 0.0]
        np.testing.assert_allclose(self.spans(pieces), [(-1.0, -0.75), (0.0, 1.0)])

    @pytest.mark.parametrize("gap, raises", [(0.0, True), (0.1, False)])
    def test_raw_sum_samples_potential_off_singular_points(self, gap, raises):
        # three cells of width 1 on [-1.5, 1.5]: with no gap the middle node is the singular point
        scalar = ScalarPotentialSpec(
            lambda p: np.abs(p[..., 0]) ** -0.5, singular_points=((0.0,),)
        )
        mesh = _TensorMesh(_excised_pieces(1, 1.5, [(0.0,)], gap, 1.0))
        psi = gaussian_evaluator(0.3, 1.0, 0.0, 1)

        def amplitude():
            return raw_sliced_amplitude(psi, psi, 0.1, 2, mesh, scalar=scalar)

        if raises:
            with pytest.raises(SingularNodeError, match=r"node \[0\.\] .* singular point \(0\.0,\)"):
                amplitude()
        else:
            assert np.isfinite(amplitude())


class TestSchedule:
    @pytest.mark.parametrize("t, keywords", [
        pytest.param(0.0, {}, id="zero-t"),
        pytest.param(-0.2, {}, id="negative-t"),
        pytest.param(0.2, {"r_start": 0.0}, id="zero-r_start"),
        pytest.param(0.2, {"gap": -0.1}, id="negative-gap"),
        pytest.param(0.2, {"gap": 0.01, "gap_final": 0.0}, id="zero-gap_final"),
        pytest.param(0.2, {"gap": 0.0, "gap_final": 0.01}, id="growing-gap"),
        pytest.param(0.2, {"steps": 0}, id="no-steps"),
        pytest.param(0.2, {"tail_window": 0}, id="empty-tail-window"),
    ])
    def test_invalid_schedule_raises(self, t, keywords):
        # checked before any mesh, so no run meshes a box of non-positive radius
        keywords = {"r_start": 5.0, **keywords}
        with pytest.raises(ScheduleError, match="the schedule needs"):
            amplitude_quadrature(gaussian_evaluator(), gaussian_evaluator(), t, 2, **keywords)

    @settings(max_examples=60, deadline=None)
    @given(
        r_start=st.floats(0.5, 6.0),
        steps=st.integers(1, 12),
        slices=st.integers(1, 3),
        gap=st.floats(0.0, 1.0),
        shrink=st.floats(0.01, 1.0),
        singular=st.lists(st.floats(-6.0, 6.0), max_size=3),
    )
    def test_last_step_has_the_largest_mesh(self, r_start, steps, slices, gap, shrink, singular):
        # the cap is checked against the last step alone: growing boxes and shrinking
        # gaps never make an earlier step's mesh larger
        gap_final = gap * shrink if gap > 1e-6 and shrink < 1.0 else gap
        scalar = ScalarPotentialSpec(lambda p: np.zeros(p.shape[:-1]),
                                     singular_points=[(w,) for w in singular])
        with mock.patch.object(pathint, "raw_sliced_amplitude", lambda *args: 0j):
            try:
                sizes = amplitude_quadrature(
                    gaussian_evaluator(), gaussian_evaluator(), 0.2, slices, r_start=r_start,
                    steps=steps, gap=gap, gap_final=gap_final, scalar=scalar, max_evals=1e18,
                ).mesh_sizes
            except ScheduleError:
                assume(False)  # the gaps excise a whole box
        assert sizes[-1] == max(sizes)

    def test_radii_spaced_by_the_tail_period(self):
        t, slices = 0.2, 2
        est = amplitude_quadrature(
            gaussian_evaluator(), gaussian_evaluator(), t, slices, r_start=5.0, steps=4
        )
        assert len(est.radii) == 4 and est.radii[0] == 5.0
        assert np.allclose(np.diff(est.radii), 2.0 * np.pi * (t / slices) / 5.0)

    def test_one_step_is_its_raw_sum(self):
        # a box far too small for the states: one raw sum has no tail spread, so it counts as converged
        est = amplitude_quadrature(gaussian_evaluator(), gaussian_evaluator(), 0.2, 2, r_start=0.5, steps=1)
        assert len(est.raw) == len(est.radii) == len(est.mesh_sizes) == 1
        assert est.value == est.raw[0]
        assert est.tail_oscillation == 0.0 and est.converged

    def test_tail_window_longer_than_the_schedule_averages_every_step(self):
        def estimate(tail_window):
            return amplitude_quadrature(gaussian_evaluator(), gaussian_evaluator(width=0.7), 0.2, 2,
                                        r_start=5.0, steps=3, tail_window=tail_window)

        est = estimate(8)
        assert est == estimate(3)
        assert est.value == complex(np.mean(est.raw))
        assert est.tail_oscillation == np.max(np.abs(np.asarray(est.raw) - est.value)) > 0.0


class TestBruteForceDual:
    @staticmethod
    def assert_matches_nested_sum(pieces, vector, phi, psi):
        # two slices, coarse meshes: sum the integrand literally over the
        # product grid and compare with the factorized evaluation
        eps = 0.25
        scalar = ScalarPotentialSpec(lambda p: np.sum(p**2, axis=-1))
        fast = raw_sliced_amplitude(
            phi, psi, eps, 2, _TensorMesh(pieces), vector=vector, scalar=scalar
        )

        axes = [_nodes_and_weights(p) for p in pieces]
        points = [np.array(x) for x in itertools.product(*(nodes for nodes, _ in axes))]
        weights = [np.prod(w) for w in itertools.product(*(w for _, w in axes))]
        pref = kernel_prefactor(len(pieces), eps, 2)
        brute = 0.0j
        for (x0, w0), (x1, w1), (x2, w2) in itertools.product(
            zip(points, weights), repeat=3
        ):
            brute += (
                phi(x2)
                * np.exp(discrete_action([x0, x1, x2], eps, scalar=scalar, vector=vector))
                * psi(x0)
                * w0
                * w1
                * w2
            )
        brute *= pref
        assert fast == pytest.approx(complex(brute), rel=1e-9)

    @classmethod
    def assert_matches_nested_sum_1d(cls, pieces):
        vector = VectorPotentialSpec((lambda p: 0.4 * np.sin(p[..., 0]),))
        phi = gaussian_evaluator(center=0.5, ndim=1)
        psi = gaussian_evaluator(momentum=1.0, ndim=1)
        cls.assert_matches_nested_sum(pieces, vector, phi, psi)

    def test_chained_transfers_match_nested_sum(self):
        self.assert_matches_nested_sum_1d(_excised_pieces(1, 2.0, (), 0.0, 0.5))

    def test_chained_transfers_match_nested_sum_excised(self):
        # the gap around 0.3 leaves pieces of 5 cells of 0.44 and 4 cells of
        # 0.4, so the cross-piece transfers have unequal spacings
        pieces = _excised_pieces(1, 2.0, [(0.3,)], 0.1, 0.5)
        assert [p.spacing for p in pieces[0]] == pytest.approx([0.44, 0.4])
        self.assert_matches_nested_sum_1d(pieces)

    def test_chained_transfers_match_nested_sum_excised_2d(self):
        # the 2D transfer with the staircase gauge increments: the gap
        # around (0.3, -0.3) leaves two pieces per axis and a 3 x 3 mesh, and
        # each field component depends on both coordinates
        pieces = _excised_pieces(2, 1.0, [(0.3, -0.3)], 0.1, 0.7)
        assert [sum(p.count for p in axis) for axis in pieces] == [3, 3]
        vector = VectorPotentialSpec((
            lambda p: 0.4 * np.sin(p[..., 1]) + 0.3 * p[..., 0],
            lambda p: 0.5 * np.cos(p[..., 0]) * p[..., 1],
        ))
        phi = gaussian_evaluator(center=[0.5, -0.2], ndim=2)
        psi = gaussian_evaluator(momentum=[1.0, 0.5], ndim=2)
        self.assert_matches_nested_sum(pieces, vector, phi, psi)

    def test_one_gauge_table_per_raw_sum(self, monkeypatch):
        # in 1D the gauge phases telescope through the chain, so the
        # antiderivative is tabulated once per raw sum, not once per slice
        calls = []
        original = gauge.cumulative_axis_integral

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(gauge, "cumulative_axis_integral", counting)
        vector = VectorPotentialSpec((lambda p: 0.4 * np.sin(p[..., 0]),))
        phi = gaussian_evaluator(center=0.5, ndim=1)
        psi = gaussian_evaluator(momentum=1.0, ndim=1)
        mesh = _TensorMesh(_excised_pieces(1, 3.0, (), 0.0, 0.05))
        raw_sliced_amplitude(phi, psi, 0.1, 4, mesh, vector=vector)
        assert len(calls) == 1


    def test_one_chirp_plan_per_raw_sum(self, count_calls):
        # the gap leaves two pieces, so four piece pairs; each chirp spectrum is
        # transformed once per raw sum and each of the k slices costs one
        # forward and one inverse transform per pair
        pieces = _excised_pieces(1, 2.0, [(0.3,)], 0.1, 0.5)
        phi = gaussian_evaluator(center=0.5, ndim=1)
        psi = gaussian_evaluator(momentum=1.0, ndim=1)
        mesh = _TensorMesh(pieces)
        plans = count_calls(pathint, "_chirp_pair")
        transforms = count_calls(np.fft, "fft", "ifft")
        raw_sliced_amplitude(phi, psi, 0.25, 3, mesh)
        pairs = len(pieces[0]) ** 2
        assert pairs == 4
        assert plans == {"_chirp_pair": pairs}
        assert transforms == {"fft": pairs + 3 * pairs, "ifft": 3 * pairs}


class TestStructuredTransfer:
    """The 1D kernel plan against the dense kernel matrix it replaces."""

    @staticmethod
    def dense_transfer(mesh, eps, vector, u):
        # the kernel matrix exp(i[(x - y)^2 / 4 eps + A(x) - A(y)]) applied to u
        (x,) = mesh.axes_nodes
        phase = (x[:, None] - x[None, :]) ** 2 / (4.0 * eps)
        if vector is not None:
            table = gauge.mesh_line_integrals(vector, 0, mesh.axes_nodes)
            phase = phase + table[:, None] - table[None, :]
        return np.exp(1j * phase) @ u

    MESHES = {
        # one piece at the size of the last free_1d schedule step
        "uniform": lambda: _TensorMesh(
            _excised_pieces(1, 8.35, (), 0.0, phase_mesh_spacing(0.1, 8.35))
        ),
        # two pieces, of spacings 0.010984 and 0.010998
        "excised": lambda: _TensorMesh(_excised_pieces(1, 5.3, [(0.7,)], 3e-3, 0.011)),
        # a grid's own nodes: 64 cells on [-6, 6]
        "grid": lambda: _TensorMesh([(MeshPiece(-6.0, 64, 12.0 / 64),)]),
    }

    @pytest.mark.parametrize("mesh", sorted(MESHES))
    @pytest.mark.parametrize("with_vector", [False, True], ids=["free", "gauge"])
    def test_matches_dense_transfer(self, mesh, with_vector):
        mesh = self.MESHES[mesh]()
        vector = (
            VectorPotentialSpec((lambda p: 0.5 * np.sin(2.0 * np.pi * p[..., 0] / 16.0),))
            if with_vector
            else None
        )
        rng = np.random.default_rng(3)
        u = rng.normal(size=mesh.size) + 1j * rng.normal(size=mesh.size)
        eps = 0.1
        dense = self.dense_transfer(mesh, eps, vector, u)
        fast = _kernel_plan(mesh, eps, vector)(u)
        assert np.linalg.norm(fast - dense) <= 1e-10 * np.linalg.norm(dense)

    @settings(max_examples=40, deadline=None)
    @given(
        radius=st.floats(1.0, 4.0),
        singular=st.floats(-0.5, 0.5),
        gap=st.floats(0.0, 0.3),
        spacing=st.floats(0.02, 0.2),
        eps=st.floats(0.05, 0.5),
        amplitude=st.floats(-2.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_plan_matches_dense_transfer_on_random_meshes(
        self, radius, singular, gap, spacing, eps, amplitude, seed
    ):
        # a gap of 0 keeps one piece, any other gap cuts the mesh in two
        mesh = _TensorMesh(_excised_pieces(1, radius, [(singular,)], gap, spacing))
        vector = VectorPotentialSpec((lambda p: amplitude * np.cos(1.3 * p[..., 0] + 0.4),))
        rng = np.random.default_rng(seed)
        u = rng.normal(size=mesh.size) + 1j * rng.normal(size=mesh.size)
        dense = self.dense_transfer(mesh, eps, vector, u)
        fast = _kernel_plan(mesh, eps, vector)(u)
        assert np.linalg.norm(fast - dense) <= 1e-10 * np.linalg.norm(dense)


class TestChirpPlan:
    """The plan's factors against directly built ones, and its workspace across calls."""

    EXCISED = ((MeshPiece(-2.0, 37, 0.05), MeshPiece(0.1, 29, 0.0662)), 0.15)

    def test_a_piece_onto_itself_carries_no_diagonal_factors(self):
        pieces, eps = self.EXCISED
        plan = _ChirpPlan(pieces, eps)
        for rows, cols, _, pre, post, _ in plan.pairs:
            assert (pre is None and post is None) == (rows == cols)

    @pytest.mark.parametrize("target, source", [
        pytest.param(0, 0, id="one-piece"),
        pytest.param(0, 1, id="unequal-spacing"),
        pytest.param(1, 0, id="unequal-spacing-reversed"),
    ])
    def test_gathered_chirp_spectrum_equals_the_direct_one(self, target, source):
        pieces, eps = self.EXCISED
        tp, sp = pieces[target], pieces[source]
        spectrum, *_ = _chirp_pair(tp, sp, eps)
        k = np.arange(-(sp.count - 1), tp.count)
        direct = np.fft.fft(np.exp(1j * (tp.spacing * sp.spacing / (4.0 * eps)) * (k * k)), len(spectrum))
        assert len(spectrum) >= len(k)
        assert np.array_equal(spectrum, direct)

    @pytest.mark.parametrize("with_vector", [False, True], ids=["free", "gauge"])
    def test_a_plan_reused_returns_what_fresh_plans_return(self, with_vector):
        pieces, eps = self.EXCISED
        mesh = _TensorMesh([pieces])
        vector = VectorPotentialSpec((lambda p: 0.7 * np.cos(p[..., 0]),)) if with_vector else None
        rng = np.random.default_rng(11)
        first, second = (rng.normal(size=mesh.size) + 1j * rng.normal(size=mesh.size) for _ in range(2))
        plan = _kernel_plan(mesh, eps, vector)
        reused = [plan(first), plan(second)]
        fresh = [_kernel_plan(mesh, eps, vector)(u) for u in (first, second)]
        assert all(np.array_equal(a, b) for a, b in zip(reused, fresh))
        assert not np.array_equal(reused[0], reused[1])


class TestFactoredTransfer:
    """The kernel plan against the per-pair slice kernel, whose gauge increment
    is one segment integral per pair rather than a difference of tables."""

    CASES = {
        # dimension, field, spacing
        "free-2d": (2, None, 0.5),
        "mixed-2d": (2, VectorPotentialSpec((
            lambda p: 0.6 * np.sin(p[..., 0] + 0.8 * p[..., 1]),
            lambda p: 0.4 * p[..., 0] * np.cos(p[..., 1]),
        )), 0.5),
        "mixed-3d": (3, VectorPotentialSpec((
            lambda p: 0.5 * p[..., 1] * p[..., 2],
            lambda p: 0.3 * np.cos(p[..., 0] + p[..., 2]),
            lambda p: 0.4 * np.sin(p[..., 0] * p[..., 1]) + 0.2 * p[..., 2],
        )), 1.0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_plan_matches_per_pair_kernel(self, case):
        n, vector, h = self.CASES[case]
        # the gap cuts every axis in two pieces of different spacings
        mesh = _TensorMesh(_excised_pieces(n, 1.5, [(0.2,) * n], 0.3, h))
        eps = 0.3
        kernel = np.array(
            [[slice_kernel(x, y, eps, vector) for y in mesh.points] for x in mesh.points]
        ) / kernel_prefactor(n, eps, 1)
        rng = np.random.default_rng(5)
        u = rng.normal(size=mesh.size) + 1j * rng.normal(size=mesh.size)
        fast = _kernel_plan(mesh, eps, vector)(u)
        assert np.linalg.norm(fast - kernel @ u) <= 1e-12 * np.linalg.norm(kernel @ u)

    def test_table_through_registered_singular_point_raises(self):
        # the 1D gauge table integrates from 0 across the registered point 0.3
        vector = VectorPotentialSpec(
            (lambda p: np.abs(p[..., 0] - 0.3) ** -0.5,), singular_points=((0.3,),)
        )
        mesh = _TensorMesh(_excised_pieces(1, 2.0, [(0.3,)], 0.1, 0.05))
        with pytest.raises(SingularNodeError, match="gauge segment along axis 0"):
            _kernel_plan(mesh, 0.2, vector)


class TestKernelAgainstClosedForm:
    def test_one_transfer_reproduces_free_evolution(self):
        # integral of K_eps(x, y) psi(y) dy equals the exactly evolved Gaussian
        eps = 0.2
        radius = 10.0
        h = phase_mesh_spacing(eps, radius, adjacent_pairs=1)
        (pieces,) = _excised_pieces(1, radius, (), 0.0, h)
        nodes, weights = _nodes_and_weights(pieces)
        psi = gaussian_evaluator(momentum=1.0, ndim=1)
        for x in (0.0, 0.7):
            total = sum(
                slice_kernel([x], [y], eps) * psi(np.array([y])) * w
                for y, w in zip(nodes, weights)
            )
            exact = exact_free_gaussian(np.array([x]), eps, 0.0, 1.0, 1.0)[0]
            assert abs(total - exact) < 1e-6 * abs(exact)


class TestAmplitudeQuadrature:
    def test_free_single_slice_matches_closed_form(self):
        t = 0.2
        phi = gaussian_evaluator(center=0.8, ndim=1)
        psi = gaussian_evaluator(momentum=1.0, ndim=1)
        est = amplitude_quadrature(phi, psi, t, 1, r_start=6.0, steps=6, tail_window=4)
        x = np.linspace(-30.0, 30.0, 60001)
        closed = np.trapezoid(
            phi(x[:, None]) * exact_free_gaussian(x, t, 0.0, 1.0, 1.0), x
        )
        assert abs(est.value - closed) / abs(closed) < 1e-3
        assert est.converged

    def test_gap_excises_the_points_the_fields_register(self):
        # no singular-point list: the scalar's own registered origin is excised at every step
        nearest = {"dist": np.inf}

        def inverse_sqrt(points):
            r = np.abs(points[..., 0])
            nearest["dist"] = min(nearest["dist"], float(np.min(r)))
            with np.errstate(divide="ignore"):
                return r**-0.5

        scalar = ScalarPotentialSpec(inverse_sqrt, singular_points=((0.0,),))
        psi = gaussian_evaluator(center=2.0, width=0.4, ndim=1)
        estimate = amplitude_quadrature(
            psi, psi, 0.2, 2, r_start=5.0, steps=8, gap=1e-2, gap_final=1e-3, tail_window=6,
            scalar=scalar,
        )
        assert np.isfinite(estimate.value)
        assert nearest["dist"] >= 1e-3

    @pytest.mark.parametrize("slices", [0, -1])
    def test_slice_count_below_one_raises(self, slices):
        with pytest.raises(ValueError, match="slice count must be at least 1"):
            amplitude_quadrature(gaussian_evaluator(), gaussian_evaluator(), 0.2, slices, r_start=5.0)

    @pytest.mark.parametrize("name", ["initial", "final"])
    def test_non_finite_state_on_the_mesh_raises(self, name):
        # a width of 1e-300 overflows on every node; the amplitude would be NaN
        narrow, wide = gaussian_evaluator(width=1e-300), gaussian_evaluator()
        phi, psi = (wide, narrow) if name == "initial" else (narrow, wide)
        with pytest.raises(NonFiniteError, match=f"^{name} state returned non-finite value"):
            amplitude_quadrature(phi, psi, 0.2, 1, r_start=5.0, steps=2)

    def test_cap_exceeded_suggests_fewer_slices(self):
        with pytest.raises(CapExceededError) as info:
            amplitude_quadrature(
                gaussian_evaluator(), gaussian_evaluator(), 0.2, 2, r_start=5.0, steps=2,
                max_evals=10,
            )
        assert re.search(r"\((try slices <= \d+|one slice exceeds the cap: .+)\)$", str(info.value))

    SCHEDULE = {"r_start": 5.0, "steps": 3}

    def growing_sizes(self):
        # equal gaps and growing radii: the last step has the largest mesh
        sizes = amplitude_quadrature(
            gaussian_evaluator(), gaussian_evaluator(), 0.2, 2, **self.SCHEDULE
        ).mesh_sizes
        assert sizes[-1] == max(sizes) > sizes[-2]
        return sizes

    def test_cap_checked_before_any_raw_sum(self, count_calls):
        # only the last step exceeds the cap, and no step runs
        sizes = self.growing_sizes()
        calls = count_calls(pathint, "raw_sliced_amplitude")
        with pytest.raises(CapExceededError):
            amplitude_quadrature(
                gaussian_evaluator(), gaussian_evaluator(), 0.2, 2, **self.SCHEDULE,
                max_evals=2 * sizes[-2] ** 2,
            )
        assert calls == {"raw_sliced_amplitude": 0}

    def test_suggested_slices_fit_the_largest_mesh(self):
        sizes = self.growing_sizes()
        max_evals = 2 * sizes[-1] ** 2 - 1
        with pytest.raises(CapExceededError) as info:
            amplitude_quadrature(
                gaussian_evaluator(), gaussian_evaluator(), 0.2, 2, **self.SCHEDULE,
                max_evals=max_evals,
            )
        assert str(info.value).endswith("(try slices <= 1)")
        assert max(sizes) ** 2 <= max_evals

    def test_cap_refusal_suggests_its_slice_count(self):
        sizes = self.growing_sizes()
        cap = 2 * sizes[-1] ** 2 - 1
        with pytest.raises(CapExceededError) as info:
            amplitude_quadrature(
                gaussian_evaluator(), gaussian_evaluator(), 0.2, 2, **self.SCHEDULE, max_evals=cap,
            )
        assert str(info.value) == f"{cap + 1} kernel evaluations exceed the cap {cap} (try slices <= 1)"

    @pytest.mark.parametrize("t, count", [(1e-6, "4.05e+15"), (1e-300, "4.05e+603")])
    def test_cap_refusal_prints_a_long_count_in_short_form(self, t, count):
        # 4050... has 16 digits at t = 1e-6; at 1e-300 it is too large for a float
        with pytest.raises(CapExceededError) as info:
            amplitude_quadrature(gaussian_evaluator(), gaussian_evaluator(), t, 1, r_start=5.0, steps=2)
        assert str(info.value) == (f"{count} kernel evaluations exceed the cap 100000000 (one slice "
                                   "exceeds the cap: lower amplitude.r_start or raise amplitude.max_evals)")

    @pytest.mark.parametrize("gap, error, hint", [
        (0.0, SingularNodeError, "; set amplitude.gap > 0 to excise it"),
        (10.0, ScheduleError, "; lower amplitude.gap"),
    ], ids=["singular-node", "gap-excises-an-axis"])
    def test_refusal_names_the_amplitude_key(self, gap, error, hint):
        # a step at the origin: eight steps with no gap put a node on it, a gap of 10 leaves no box
        step = ScalarPotentialSpec(lambda p: np.where(p[..., 0] > 0.0, 1.0, 0.0), singular_points=((0.0,),))
        with pytest.raises(error) as info:
            amplitude_quadrature(gaussian_evaluator(), gaussian_evaluator(), 0.2, 2, r_start=5.0,
                                 steps=8, gap=gap, scalar=step)
        assert str(info.value).endswith(hint)

    def test_error_report_fields(self):
        est = AmplitudeEstimate(
            raw=(1.0 + 0j, 1.02 + 0j),
            radii=(5.0, 5.5),
            value=1.01 + 0j,
            tail_oscillation=0.005,
            mesh_sizes=(10, 11),
            slices=1,
        )
        assert est.converged

    def test_converged_flips_at_tail_tolerance(self):
        def estimate(oscillation):
            return AmplitudeEstimate((1.0 + 0j,), (5.0,), 1.0 + 0j, oscillation, (10,), 1)

        assert estimate(np.nextafter(TAIL_OSCILLATION_TOL, 0.0)).converged
        assert not estimate(TAIL_OSCILLATION_TOL).converged


class TestGaugeCovariance:
    """Under a -> a + grad chi, route 3 is conjugated by exp(i chi) exactly."""

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.sampled_from([2, 3]),
        gap=st.floats(0.05, 0.3),
        spacing=st.floats(0.3, 0.6),
        eps=st.floats(0.1, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kernel_and_increment_follow_a_gauge_transformation(self, n, gap, spacing, eps, seed):
        # chi(x) = x.Q x / 2 + b.x, whose gradient Q x + b is added to a
        rng = np.random.default_rng(seed)
        q = rng.uniform(-1.0, 1.0, (n, n))
        q = q + q.T
        b = rng.uniform(-1.0, 1.0, n)

        def chi(p):
            return 0.5 * np.einsum("...i,ij,...j->...", p, q, p) + p @ b

        base = TestFactoredTransfer.CASES[f"mixed-{n}d"][1]
        shifted = VectorPotentialSpec(tuple(
            (lambda p, l=l: base.component(l, p) + p @ q[l] + b[l]) for l in range(n)
        ))
        mesh = _TensorMesh(_excised_pieces(n, 1.5, [(0.2,) * n], gap, spacing))
        u = rng.normal(size=mesh.size) + 1j * rng.normal(size=mesh.size)
        phase = np.exp(1j * chi(mesh.points))
        expected = phase * _kernel_plan(mesh, eps, base)(u / phase)
        got = _kernel_plan(mesh, eps, shifted)(u)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

        x0, x1 = rng.uniform(-1.5, 1.5, (2, n))
        gained = slice_gauge_increment(shifted, x1, x0) - slice_gauge_increment(base, x1, x0)
        assert gained == pytest.approx(chi(x1) - chi(x0), abs=1e-12)


def kernel_slice_on_grid(vector, grid, eps, psi_fn):
    """One kernel transfer of ``psi_fn`` on the grid refined by odd factors, read at the grid nodes.

    Each axis is refined by the smallest odd factor r whose spacing meets the
    phase bound (pi/4) 2 eps / diam over the box diagonal; with r odd every
    grid node is a fine node, at ``slice(r // 2, None, r)``.
    """
    diam = float(np.sqrt(sum((b - a) ** 2 for a, b in zip(grid.lo, grid.hi))))
    bound = (np.pi / 4.0) * 2.0 * eps / diam
    factors = [int(np.ceil(h / bound)) // 2 * 2 + 1 for h in grid.spacing]
    fine = _TensorMesh([
        (MeshPiece(lo, m * r, h / r),)
        for lo, m, h, r in zip(grid.lo, grid.shape, grid.spacing, factors)
    ])
    u = psi_fn(fine.points) * fine.weights
    vals = kernel_prefactor(grid.ndim, eps, 1) * _kernel_plan(fine, eps, vector)(u)
    return vals.reshape(fine.dims)[tuple(slice(r // 2, None, r) for r in factors)]


class TestOperatorVsKernel:
    """One route-3 transfer against one route-1 split-step slice.

    Both take the gauge increment along the same staircase, so they differ
    only by the kernel's truncation to the box and the split-step's spectral
    grid, both negligible for a packet narrow against the box.
    """

    LINEAR = np.array([[0.2, -0.4], [0.3, -0.1]])
    CASES = {
        # field, grid, eps, bound on the L2 gap
        "sinusoidal-1d": (
            VectorPotentialSpec((lambda p: 0.5 * np.sin(2.0 * np.pi * p[..., 0] / 12.0),)),
            Grid((-6.0,), (6.0,), (64,)), 0.05, 1e-4,
        ),
        "symmetric-2d": (
            VectorPotentialSpec((lambda p: -0.25 * p[..., 1], lambda p: 0.25 * p[..., 0])),
            Grid((-6.0, -6.0), (6.0, 6.0), (24, 24)), 0.3, 2e-5,
        ),
        # not triangular: each component depends on both coordinates
        "linear-2d": (
            VectorPotentialSpec(tuple((lambda p, row=row: p @ row) for row in LINEAR)),
            Grid((-6.0, -6.0), (6.0, 6.0), (24, 24)), 0.3, 2e-5,
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_routes_agree(self, case):
        vector, grid, eps, bound = self.CASES[case]
        center = [0.5 * (a + b) for a, b in zip(grid.lo, grid.hi)]
        # narrow enough that the state's tails are negligible at the box edge
        width = [(b - a) / 16.0 for a, b in zip(grid.lo, grid.hi)]
        psi_fn = gaussian_evaluator(center=center, width=width, ndim=grid.ndim)
        psi = WaveFunction(grid, psi_fn(grid.points()).reshape(grid.shape))
        via_operator = SliceOperator(grid, None, vector).slice(eps)(psi)
        via_kernel = kernel_slice_on_grid(vector, grid, eps, psi_fn)
        assert l2_norm(WaveFunction(grid, via_operator.values - via_kernel)) < bound

    def test_mesh_spacing_formula(self):
        assert phase_mesh_spacing(0.1, 5.0, adjacent_pairs=2) == pytest.approx(
            (np.pi / 4.0) * 0.1 / 10.0
        )
