"""End-to-end acceptance gate.

Eight numbered criteria, each with a stated tolerance and (where given) a
runtime budget; every test prints one pass/fail line so a full run reads as a
checklist.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import gaugeslice as gs
import oracles
from gaugeslice import scenarios as sc

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
SHIPPED = ("free_1d", "harmonic_1d", "constant_field_2d", "constant_field_2d_128")


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


def smooth_vector_1d(box_length=16.0, amplitude=0.5):
    return gs.VectorPotentialSpec(
        (lambda p: amplitude * np.sin(2.0 * np.pi * p[..., 0] / box_length),)
    )


def harmonic_scalar():
    return gs.ScalarPotentialSpec(lambda p: np.sum(p**2, axis=-1))


def test_criterion_1_gauge_conjugation():
    with criterion(1, "gauge conjugation"):
        start = time.perf_counter()
        grid = gs.Grid((-8.0,), (8.0,), (256,))
        psi = gs.gaussian_wave(grid, width=1.0, momentum=1.0)
        op = gs.SliceOperator(grid, None, smooth_vector_1d())
        residual = gs.gauge_conjugation_residual(op, 0, psi)
        elapsed = time.perf_counter() - start
        assert residual <= 1e-6
        assert elapsed < 1.0


def test_criterion_2_chernoff_derivative():
    with criterion(2, "Chernoff derivative residual"):
        start = time.perf_counter()
        grid = gs.Grid((-8.0,), (8.0,), (256,))
        scalar = harmonic_scalar()
        vector = smooth_vector_1d()
        ham = gs.HamiltonianAction(grid, vector, scalar)
        psi = gs.gaussian_wave(grid, width=1.0, momentum=1.0)
        eps_values = [1e-2, 5e-3, 2.5e-3]
        op = gs.SliceOperator(grid, scalar, vector)
        residuals = []
        for eps in eps_values:
            residuals.append(oracles.chernoff_derivative_residual(psi, op, eps, ham))
        slope = np.polyfit(np.log(eps_values), np.log(residuals), 1)[0]
        elapsed = time.perf_counter() - start
        assert 0.7 <= slope <= 1.3
        assert elapsed < 10.0


def test_criterion_3_trotter_convergence():
    with criterion(3, "Trotter convergence"):
        start = time.perf_counter()
        scenario = sc.load_scenario(SCENARIO_DIR / "harmonic_1d.json")
        assert scenario.grid.shape == (256,)
        assert scenario.time == 0.5
        report = sc.run(scenario, "trotter")
        errors = [
            float(report.diagnostics["trotter_errors"][str(k)]) for k in (4, 8, 16, 32)
        ]
        elapsed = time.perf_counter() - start
        assert all(b < a for a, b in zip(errors, errors[1:]))
        for a, b in zip(errors, errors[1:]):
            assert 1.6 <= a / b <= 2.4
        assert elapsed < 30.0


def test_criterion_4_midpoint_approximation():
    with criterion(4, "midpoint gauge approximation"):
        start = time.perf_counter()
        vec = gs.VectorPotentialSpec(
            (lambda p: np.sin(p[..., 1]), lambda p: np.cos(p[..., 0]))
        )
        x0 = np.array([0.2, 0.2])
        direction = np.array([1.0, 1.0]) / np.sqrt(2.0)
        seps = 0.4 * 0.5 ** np.arange(5)  # four halvings
        disc = [gs.midpoint_discrepancy(vec, x0 + s * direction, x0) for s in seps]
        slope = np.polyfit(np.log(seps), np.log(disc), 1)[0]
        assert slope >= 1.9

        const = gs.VectorPotentialSpec(
            (lambda p: np.full(p.shape[:-1], 0.7), lambda p: np.full(p.shape[:-1], -0.3))
        )
        assert gs.midpoint_discrepancy(const, x0 + 0.4 * direction, x0) <= 1e-12
        assert time.perf_counter() - start < 1.0


def test_criterion_5_amplitude_identity():
    with criterion(5, "sliced amplitude vs oracles"):
        start = time.perf_counter()

        # free particle, two slices, against the closed-form evolved Gaussian
        t = 0.2
        phi = gs.gaussian_evaluator(center=0.8, width=1.0, ndim=1)
        psi = gs.gaussian_evaluator(center=0.0, width=1.0, momentum=1.0, ndim=1)
        estimate = gs.amplitude_quadrature(phi, psi, t, 2, r_start=7.0, steps=16)
        x = np.linspace(-40.0, 40.0, 160001)
        closed = complex(
            np.trapezoid(phi(x[:, None]) * oracles.exact_free_gaussian(x, t, 0.0, 1.0, 1.0), x)
        )
        assert abs(estimate.value - closed) / abs(closed) <= 1e-2

        # harmonic potential, three slices, against the iterated slice operator
        t = 0.3
        scalar = harmonic_scalar()
        phi_h = gs.gaussian_evaluator(center=0.5, width=1.0, ndim=1)
        psi_h = gs.gaussian_evaluator(center=0.0, width=1.0, momentum=1.0, ndim=1)
        grid = gs.Grid((-10.0,), (10.0,), (400,))
        op = gs.SliceOperator(grid, scalar, None)
        split_ref = gs.pair_bilinear(
            gs.gaussian_wave(grid, center=0.5),
            gs.evolve(op, gs.gaussian_wave(grid, momentum=1.0), t, 3),
        )
        estimate = gs.amplitude_quadrature(phi_h, psi_h, t, 3, r_start=6.0, steps=12, scalar=scalar)
        assert abs(estimate.value - split_ref) / abs(split_ref) <= 1e-2
        assert time.perf_counter() - start < 10.0


def test_criterion_6_prefactor_forcing():
    with criterion(6, "kernel prefactor exponent"):
        t = 0.2
        phi = gs.gaussian_evaluator(center=0.8, width=1.0, ndim=1)
        psi = gs.gaussian_evaluator(center=0.0, width=1.0, momentum=1.0, ndim=1)
        grid = gs.Grid((-12.0,), (12.0,), (512,))
        op = gs.SliceOperator(grid, None, None)
        reference = gs.pair_bilinear(
            gs.gaussian_wave(grid, center=0.8),
            gs.evolve(op, gs.gaussian_wave(grid, momentum=1.0), t, 1),
        )
        composed = gs.amplitude_quadrature(phi, psi, t, 1, r_start=7.0, steps=12)
        assert abs(composed.value - reference) / abs(reference) <= 1e-3

        # the displayed n(k-1)/2 exponent misses exactly one slice worth of
        # normalization and fails the same identity by (4 pi eps)^(n/2)
        displayed = composed.value * gs.kernel_prefactor(1, t, 0) / gs.kernel_prefactor(1, t, 1)
        assert abs(displayed - reference) > 1e-3
        ratio = abs(displayed) / abs(composed.value)
        assert ratio == pytest.approx((4.0 * np.pi * t) ** 0.5, rel=1e-9)


def test_criterion_7_excision_robustness():
    with criterion(7, "singular-potential excision"):
        calls = {"min_dist": np.inf}

        def inverse_sqrt(points):
            r = np.abs(points[..., 0])
            calls["min_dist"] = min(calls["min_dist"], float(np.min(r)))
            with np.errstate(divide="ignore"):
                return r**-0.5

        scalar = gs.ScalarPotentialSpec(inverse_sqrt, singular_points=((0.0,),))
        phi = gs.gaussian_evaluator(center=2.0, width=0.4, ndim=1)
        psi = gs.gaussian_evaluator(center=2.0, width=0.4, ndim=1)
        values = {}
        for gap in (1e-2, 1e-3):
            estimate = gs.amplitude_quadrature(
                phi, psi, 0.2, 2, r_start=5.0, steps=8, gap=gap, tail_window=6, scalar=scalar
            )
            values[gap] = estimate.value
        assert abs(values[1e-2] - values[1e-3]) <= 1e-3
        # the excised mesh never requested an evaluation inside the gap
        assert calls["min_dist"] >= 1e-3


def test_criterion_8_unitarity_suite():
    with criterion(8, "unitarity across shipped scenarios"):
        for name in SHIPPED:
            scenario = sc.load_scenario(SCENARIO_DIR / f"{name}.json")
            psi0 = scenario.initial_state.on_grid(scenario.grid)
            norm0 = gs.l2_norm(psi0)
            op = gs.SliceOperator(scenario.grid, scenario.scalar, scenario.vector)
            for k in scenario.slice_counts:
                evolved = gs.evolve(op, psi0, scenario.time, k)
                assert abs(gs.l2_norm(evolved) - norm0) <= k * 1e-12, (name, k)
