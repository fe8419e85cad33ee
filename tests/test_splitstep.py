"""Split-step slice operator: unitarity, free closed form, iteration, gauge covariance."""

import json
from pathlib import Path

import numpy as np
import pytest

from gaugeslice import (
    Grid,
    GridMismatchError,
    NonFiniteError,
    SliceOperator,
    VectorPotentialSpec,
    evolve,
    gaussian_wave,
    l2_norm,
)
from gaugeslice import gauge
from gaugeslice.fields import ScalarPotentialSpec, sample_field
from gaugeslice.reference import assemble_hamiltonian, expm_evolve
from gaugeslice.scenarios import load_scenario, scenario_from_dict
from gaugeslice.splitstep import boundary_mass_fraction, kinetic_multiplier
from oracles import exact_free_gaussian

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

def harmonic():
    return ScalarPotentialSpec(lambda p: np.sum(p**2, axis=-1))


def smooth_vector_1d(box_length=16.0):
    return VectorPotentialSpec(
        (lambda p: 0.5 * np.sin(2.0 * np.pi * p[..., 0] / box_length),)
    )


class TestEvolveArguments:
    def test_validation(self):
        g = Grid((-8.0,), (8.0,), (64,))
        op, psi = SliceOperator(g, None, None), gaussian_wave(g)
        with pytest.raises(ValueError, match="total time"):
            evolve(op, psi, 0.0, 4)
        with pytest.raises(ValueError, match="slice count"):
            evolve(op, psi, 1.0, 0)


class TestFreePropagation:
    def test_matches_closed_form_gaussian(self):
        g = Grid((-12.0,), (12.0,), (384,))
        psi = gaussian_wave(g, center=0.0, width=1.0, momentum=1.0)
        t = 0.3
        out = SliceOperator(g, None, None).slice(t)(psi)
        exact = exact_free_gaussian(g.axis_coords(0), t, 0.0, 1.0, 1.0)
        assert np.max(np.abs(out.values - exact)) < 1e-10

    def test_zero_time_is_identity(self):
        g = Grid((-6.0,), (6.0,), (64,))
        psi = gaussian_wave(g)
        out = SliceOperator(g, None, None).slice(0.0)(psi)
        assert np.allclose(out.values, psi.values)

    def test_negative_time_rejected(self):
        g = Grid((-6.0,), (6.0,), (64,))
        with pytest.raises(ValueError):
            SliceOperator(g, None, None).slice(-0.1)

    def test_nan_slice_length_rejected(self):
        g = Grid((-6.0,), (6.0,), (64,))
        with pytest.raises(ValueError, match="nonnegative"):
            SliceOperator(g, None, None).slice(float("nan"))

    def test_overflowing_phase_raises_on_application(self):
        # exp(-i eps V) overflows to NaN: the map builds, and applying it raises
        g = Grid((-6.0,), (6.0,), (64,))
        huge = ScalarPotentialSpec(lambda p: np.full(p.shape[:-1], 1e308))
        with np.errstate(over="ignore", invalid="ignore"):
            step = SliceOperator(g, huge, None).slice(10.0)
            with pytest.raises(NonFiniteError):
                step(gaussian_wave(g))

    def test_multiplier_unit_modulus(self):
        g = Grid((-6.0,), (6.0,), (64,))
        assert np.allclose(np.abs(kinetic_multiplier(g, 0, 0.37)), 1.0)


class TestSliceOperator:
    def test_norm_preserved_one_slice(self):
        g = Grid((-8.0,), (8.0,), (128,))
        step = SliceOperator(g, harmonic(), smooth_vector_1d()).slice(0.1)
        psi = gaussian_wave(g)
        assert abs(l2_norm(step(psi)) - l2_norm(psi)) < 1e-13

    def test_norm_preserved_2d(self):
        g = Grid((-5.0, -5.0), (5.0, 5.0), (32, 32))
        vec = VectorPotentialSpec(
            (
                lambda p: 0.3 * np.sin(2.0 * np.pi * p[..., 1] / 10.0),
                lambda p: 0.3 * np.sin(2.0 * np.pi * p[..., 0] / 10.0),
            )
        )
        step = SliceOperator(g, harmonic(), vec).slice(0.1)
        psi = gaussian_wave(g, width=0.8)
        assert abs(l2_norm(step(psi)) - l2_norm(psi)) < 1e-12

    def test_evolve_iterates_the_slice(self):
        g = Grid((-8.0,), (8.0,), (128,))
        op = SliceOperator(g, harmonic(), None)
        psi = gaussian_wave(g)
        manual = psi
        for _ in range(3):
            manual = op.slice(0.1)(manual)
        assert np.allclose(evolve(op, psi, 0.3, 3).values, manual.values)

    def test_one_operator_serves_every_slice_count(self):
        # no eps state survives an evolution: k = 2 then k = 5 on one operator
        # equals each on a freshly built one, bit for bit
        g = Grid((-5.0, -4.0), (5.0, 4.0), (16, 12))
        vec = VectorPotentialSpec((lambda p: -0.35 * p[..., 1], lambda p: 0.35 * p[..., 0]))
        psi = gaussian_wave(g, width=0.6, momentum=[0.5, -0.3])
        shared = SliceOperator(g, harmonic(), vec)
        for k in (2, 5):
            fresh = evolve(SliceOperator(g, harmonic(), vec), psi, 0.4, k)
            assert np.array_equal(evolve(shared, psi, 0.4, k).values, fresh.values)

    def test_vector_dimension_mismatch(self):
        g = Grid((-5.0, -5.0), (5.0, 5.0), (16, 16))
        with pytest.raises(ValueError):
            SliceOperator(g, None, smooth_vector_1d())

    def test_grid_mismatch_on_apply(self):
        g = Grid((-8.0,), (8.0,), (128,))
        step = SliceOperator(g, None, None).slice(0.1)
        other = gaussian_wave(Grid((-8.0,), (8.0,), (64,)))
        with pytest.raises(GridMismatchError):
            step(other)

    def test_free_slice_matches_spectral_propagator(self):
        # with V = 0 and a = 0 a slice is exactly the spectral free step
        g = Grid((-8.0,), (8.0,), (128,))
        step = SliceOperator(g, None, None).slice(0.25)
        psi = gaussian_wave(g, momentum=0.7)
        xi = 2.0 * np.pi * np.fft.fftfreq(128, d=g.spacing[0])
        free = np.fft.ifft(np.exp(-0.25j * xi**2) * np.fft.fft(psi.values))
        assert np.allclose(step(psi).values, free)

    def test_free_slice_2d_matches_dense(self):
        # the free axis propagators commute, so one slice is exact on a 2D grid;
        # unequal axis lengths catch a multiplier applied along the wrong axis
        g = Grid((-5.0, -4.0), (5.0, 4.0), (16, 12))
        psi = gaussian_wave(g, width=[1.2, 1.0], momentum=[0.6, -0.4])
        step = SliceOperator(g, None, None).slice(0.3)
        dense = expm_evolve(assemble_hamiltonian(g), psi, 0.3)
        assert np.max(np.abs(step(psi).values - dense.values)) < 1e-10


    def test_gauge_removal_identity_1d(self):
        # in 1D every factor but the kinetic step is diagonal, so k slices
        # telescope: (P e^{i lam} K e^{-i lam})^k = e^{i lam} (P K)^k e^{-i lam}
        g = Grid((-8.0,), (8.0,), (128,))
        vector, scalar, k, eps = smooth_vector_1d(), harmonic(), 5, 0.08
        step = SliceOperator(g, scalar, vector).slice(eps)
        free = SliceOperator(g, None, None).slice(eps)
        psi = gaussian_wave(g, center=0.5, momentum=0.7)
        gauge_phase = np.exp(1j * gauge.gauge_phase_table(vector, 0, g))
        potential_phase = np.exp(-1j * eps * sample_field(scalar, g))
        telescoped = psi.with_values(np.conj(gauge_phase) * psi.values)
        sliced = psi
        for _ in range(k):
            sliced = step(sliced)
            telescoped = free(telescoped)
            telescoped = telescoped.with_values(potential_phase * telescoped.values)
        expected = gauge_phase * telescoped.values
        assert np.max(np.abs(sliced.values - expected)) < 1e-12

    @pytest.mark.parametrize("k", [2, 8])
    def test_exactly_gauge_covariant(self, k):
        # B = 0.5: Landau a' = (0, B x) is the symmetric gauge plus grad chi, chi = B x y / 2.
        # Each table under a' gains chi - chi|_{x_l = 0}, whose last term commutes with the
        # axis-l kinetic factor, so evolving e^{i chi} psi under a' is e^{i chi} (evolved psi).
        path = SCENARIO_DIR / "constant_field_2d.json"
        symmetric = load_scenario(path)
        doc = json.loads(path.read_text())
        doc["vector_potential"] = {"family": "linear", "params": {"matrix": [[0, 0], [0.5, 0]]}}
        landau = scenario_from_dict(doc)
        g = symmetric.grid
        chi_phase = np.exp(0.25j * np.multiply.outer(g.axis_coords(0), g.axis_coords(1)))
        psi = symmetric.initial_state.on_grid(g)
        gauged = evolve(SliceOperator(g, landau.scalar, landau.vector),
                        psi.with_values(chi_phase * psi.values), symmetric.time, k)
        evolved = evolve(SliceOperator(g, symmetric.scalar, symmetric.vector), psi, symmetric.time, k)
        # measured 5.8e-16 (k = 2) and 1.25e-15 (k = 8)
        assert l2_norm(gauged.with_values(gauged.values - chi_phase * evolved.values)) <= 1e-13

    def test_slice_evaluates_no_exponential(self, count_calls):
        # every phase is tabulated when the slice map is built
        g = Grid((-5.0, -4.0), (5.0, 4.0), (16, 12))
        vec = VectorPotentialSpec((lambda p: -0.35 * p[..., 1], lambda p: 0.35 * p[..., 0]))
        step = SliceOperator(g, harmonic(), vec).slice(0.1)
        psi = gaussian_wave(g, width=0.8)
        calls = count_calls(np, "exp")
        step(step(psi))
        assert calls == {"exp": 0}


class TestBoundaryDiagnostics:
    def test_mass_fraction_localized_state(self):
        g = Grid((-8.0,), (8.0,), (128,))
        assert boundary_mass_fraction(gaussian_wave(g, width=0.5)) < 1e-12

    def test_evolve_warns_on_wide_packet(self):
        g = Grid((-4.0,), (4.0,), (64,))
        op = SliceOperator(g, None, None)
        wide = gaussian_wave(g, width=3.0)
        with pytest.warns(UserWarning, match="boundary"):
            evolve(op, wide, 0.1, 1)
