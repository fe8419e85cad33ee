"""Excised quadrature of time-sliced amplitudes.

The heaviest property here is the brute-force dual check: the chained-transfer
evaluation must reproduce, term by term, the literal nested midpoint sum of
``prefactor * phi(x_k) exp(discrete_action) psi(x_0)`` on tiny meshes.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaugeslice import (
    BoxSchedule,
    CapExceededError,
    ScalarPotentialSpec,
    ScheduleError,
    SingularNodeError,
    VectorPotentialSpec,
    amplitude_quadrature,
    discrete_action,
    gaussian_evaluator,
    kernel_prefactor,
    operator_vs_kernel_consistency,
    slice_kernel,
)
from gaugeslice import gauge, pathint
from gaugeslice.fields import Grid
from gaugeslice.pathint import (
    TAIL_OSCILLATION_TOL,
    AmplitudeEstimate,
    _TensorMesh,
    _axis_factors,
    _excised_pieces,
    _kernel_plan,
    _nodes_and_weights,
    phase_mesh_spacing,
    raw_sliced_amplitude,
)
from gaugeslice.reference import exact_free_gaussian


class TestPrefactor:
    def test_modulus(self):
        eps = 0.2
        for n, k in [(1, 1), (1, 3), (2, 2)]:
            pref = kernel_prefactor(n, eps, k)
            assert abs(pref) == pytest.approx((4.0 * np.pi * eps) ** (-n * k / 2.0))

    def test_phase_is_root_of_inverse_i(self):
        pref = kernel_prefactor(1, 0.2, 1)
        assert np.angle(pref) == pytest.approx(-np.pi / 4.0)

    def test_displayed_convention_off_by_one_slice(self):
        eps = 0.2
        ratio = kernel_prefactor(1, eps, 3, "displayed") / kernel_prefactor(1, eps, 3)
        assert abs(ratio) == pytest.approx((4.0 * np.pi * eps) ** 0.5)

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            kernel_prefactor(1, 0.2, 1, "bogus")

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


class TestBoxSchedule:
    def test_monotonicity_enforced(self):
        with pytest.raises(ScheduleError):
            BoxSchedule((2.0, 1.0), (0.0, 0.0))
        with pytest.raises(ScheduleError):
            BoxSchedule((1.0, 2.0), (0.0, 0.1))
        with pytest.raises(ScheduleError):
            BoxSchedule((1.0,), (0.0, 0.0))

    def test_fresnel_spacing(self):
        sched = BoxSchedule.fresnel(0.1, 5.0, steps=4)
        assert len(sched) == 4
        diffs = np.diff(sched.radii)
        assert np.allclose(diffs, 2.0 * np.pi * 0.1 / 5.0)

    def test_radii_positive_and_gaps_nonnegative(self):
        # checked where the schedule is built, so no run meshes a box of non-positive radius
        for radii, gaps in [((-2.0, -1.0), (0.0, 0.0)), ((0.0, 1.0), (0.0, 0.0)), ((1.0,), (-0.1,))]:
            with pytest.raises(ScheduleError, match="radii must be positive and gaps nonnegative"):
                BoxSchedule(radii, gaps)
        with pytest.raises(ScheduleError, match="r_start must be positive"):
            BoxSchedule.fresnel(0.1, 0.0)

    def test_fresnel_gap_shrinkage(self):
        sched = BoxSchedule.fresnel(0.1, 5.0, steps=3, gap=1e-2, gap_final=1e-3)
        assert sched.gaps[0] == pytest.approx(1e-2)
        assert sched.gaps[-1] == pytest.approx(1e-3)


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
        # the dense 2D transfer with the source-frozen gauge increments: the gap
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

    MESHES = {
        # one piece at the size of the last free_1d schedule step
        "uniform": lambda: _TensorMesh(
            _excised_pieces(1, 8.35, (), 0.0, phase_mesh_spacing(0.1, 8.35))
        ),
        # two pieces, of spacings 0.010984 and 0.010998
        "excised": lambda: _TensorMesh(_excised_pieces(1, 5.3, [(0.7,)], 3e-3, 0.011)),
        # the operator_vs_kernel_consistency shape: a grid's own nodes
        "grid": lambda: _TensorMesh.from_grid(Grid((-6.0,), (6.0,), (64,))),
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
        dense = _axis_factors(mesh, eps, vector)[0] @ u
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
        dense = _axis_factors(mesh, eps, vector)[0] @ u
        fast = _kernel_plan(mesh, eps, vector)(u)
        assert np.linalg.norm(fast - dense) <= 1e-10 * np.linalg.norm(dense)


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
        schedule = BoxSchedule.fresnel(t, 6.0, steps=6, tail_window=4)
        est = amplitude_quadrature(phi, psi, t, 1, schedule)
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
        schedule = BoxSchedule.fresnel(0.1, 5.0, steps=8, gap=1e-2, gap_final=1e-3, tail_window=6)
        psi = gaussian_evaluator(center=2.0, width=0.4, ndim=1)
        estimate = amplitude_quadrature(psi, psi, 0.2, 2, schedule, scalar=scalar)
        assert np.isfinite(estimate.value)
        assert nearest["dist"] >= 1e-3

    def test_cap_exceeded_suggests_fewer_slices(self):
        schedule = BoxSchedule.fresnel(0.1, 5.0, steps=2)
        with pytest.raises(CapExceededError) as info:
            amplitude_quadrature(
                gaussian_evaluator(), gaussian_evaluator(), 0.2, 2, schedule,
                max_evals=10,
            )
        assert info.value.suggested_slices is not None
        assert info.value.suggested_slices >= 0

    @staticmethod
    def growing_schedule():
        # equal gaps and growing radii: the last step has the largest mesh
        schedule = BoxSchedule.fresnel(0.1, 5.0, steps=3)
        sizes = amplitude_quadrature(
            gaussian_evaluator(), gaussian_evaluator(), 0.2, 2, schedule
        ).mesh_sizes
        assert sizes[-1] == max(sizes) > sizes[-2]
        return schedule, sizes

    def test_cap_checked_before_any_raw_sum(self, count_calls):
        # only the last step exceeds the cap, and no step runs
        schedule, sizes = self.growing_schedule()
        calls = count_calls(pathint, "raw_sliced_amplitude")
        with pytest.raises(CapExceededError):
            amplitude_quadrature(
                gaussian_evaluator(), gaussian_evaluator(), 0.2, 2, schedule,
                max_evals=2 * sizes[-2] ** 2,
            )
        assert calls == {"raw_sliced_amplitude": 0}

    def test_suggested_slices_fit_the_largest_mesh(self):
        schedule, sizes = self.growing_schedule()
        max_evals = 2 * sizes[-1] ** 2 - 1
        with pytest.raises(CapExceededError) as info:
            amplitude_quadrature(
                gaussian_evaluator(), gaussian_evaluator(), 0.2, 2, schedule,
                max_evals=max_evals,
            )
        assert info.value.suggested_slices == 1
        assert info.value.suggested_slices * max(sizes) ** 2 <= max_evals

    def test_estimate_validates_nonempty(self):
        with pytest.raises(ValueError):
            AmplitudeEstimate((), (), 0.0, 0.0, (), 0.1, 1)

    def test_error_report_fields(self):
        est = AmplitudeEstimate(
            raw=(1.0 + 0j, 1.02 + 0j),
            radii=(5.0, 5.5),
            value=1.01 + 0j,
            tail_oscillation=0.005,
            mesh_sizes=(10, 11),
            eps=0.1,
            slices=1,
        )
        assert est.converged

    def test_converged_flips_at_tail_tolerance(self):
        def estimate(oscillation):
            return AmplitudeEstimate((1.0 + 0j,), (5.0,), 1.0 + 0j, oscillation, (10,), 0.1, 1)

        assert estimate(np.nextafter(TAIL_OSCILLATION_TOL, 0.0)).converged
        assert not estimate(TAIL_OSCILLATION_TOL).converged


class TestOperatorVsKernel:
    def test_one_dimensional_routes_agree(self):
        # with a single axis the threaded and frozen gauge increments coincide,
        # so the split operator and the kernel transfer must match closely
        vec = VectorPotentialSpec((lambda p: 0.5 * np.sin(2.0 * np.pi * p[..., 0] / 12.0),))
        grid = Grid((-6.0,), (6.0,), (64,))
        assert operator_vs_kernel_consistency(vec, grid, 0.05) < 1e-4

    def test_mesh_spacing_formula(self):
        assert phase_mesh_spacing(0.1, 5.0, adjacent_pairs=2) == pytest.approx(
            (np.pi / 4.0) * 0.1 / 10.0
        )
