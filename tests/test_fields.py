"""Grid geometry, wavefunction containers, pairings and singular-set plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaugeslice import (
    Grid,
    GridMismatchError,
    NonFiniteError,
    ScalarPotentialSpec,
    SingularNodeError,
    VectorPotentialSpec,
    WaveFunction,
    collect_singularities,
    gaussian_evaluator,
    gaussian_wave,
    l2_norm,
    pair_bilinear,
    sample_field,
    sample_points,
)
from gaugeslice.fields import SINGULAR_TOL, sample_state


class TestGrid:
    def test_cell_centered_nodes(self):
        g = Grid((-1.5,), (1.5,), (3,))
        assert np.allclose(g.axis_coords(0), [-1.0, 0.0, 1.0])
        assert g.spacing == (1.0,)
        assert g.cell_volume == 1.0

    def test_symmetric_box_avoids_origin(self):
        # even point count on a symmetric box: the origin falls on a cell
        # boundary, never on a node
        g = Grid((-4.0,), (4.0,), (64,))
        assert np.min(np.abs(g.axis_coords(0))) == pytest.approx(g.spacing[0] / 2)

    def test_points_shape(self):
        g = Grid((-1.0, -2.0), (1.0, 2.0), (4, 8))
        pts = g.points()
        assert pts.shape == (32, 2)
        assert g.size == 32
        assert g.ndim == 2

    def test_frequencies_periodic_convention(self):
        g = Grid((0.0,), (2.0 * np.pi,), (16,))
        xi = g.frequencies(0)
        # angular frequencies on a 2 pi box are the integers
        assert np.allclose(np.sort(xi), np.arange(-8, 8))

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid((0.0,), (0.0,), (4,))
        with pytest.raises(ValueError):
            Grid((0.0,), (1.0,), (1,))
        with pytest.raises(ValueError):
            Grid((0.0, 0.0), (1.0,), (4,))

    @pytest.mark.parametrize("shape", [(256.7,), ("256",), (True,), (64.0,)],
                             ids=["fractional", "string", "bool", "integral-float"])
    def test_non_integer_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="shape"):
            Grid((0.0,), (1.0,), shape)

    @pytest.mark.parametrize("lo, hi", [((-np.inf,), (1.0,)), ((0.0,), (np.inf,)), ((np.nan,), (1.0,))],
                             ids=["lo-minus-infinity", "hi-infinity", "lo-nan"])
    def test_non_finite_bounds_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="finite"):
            Grid(lo, hi, (4,))

    def test_numpy_integer_shape_accepted(self):
        assert Grid((0.0, 0.0), (1.0, 1.0), np.array([4, 6])).shape == (4, 6)

    @settings(max_examples=80, deadline=None)
    @given(exponent=st.floats(-156.0, -150.0), n=st.integers(2, 64))
    def test_refused_exactly_when_its_kinetic_symbol_overflows(self, exponent, n):
        # the boundary lies between 2e-154 and 8e-153 for these counts; a grid that
        # loads squares its frequencies without a warning, which would fail the suite
        half = 10.0**exponent
        xi = 2.0 * np.pi * np.fft.fftfreq(n, d=2.0 * half / n)
        with np.errstate(over="ignore"):
            overflows = not np.all(np.isfinite(xi**2))
        if overflows:
            with pytest.raises(ValueError, match=r"^grid axis 0 spacing \S+ is too fine: kinetic symbol xi\^2"):
                Grid((-half,), (half,), (n,))
        else:
            assert np.all(np.isfinite(Grid((-half,), (half,), (n,)).derivative_symbols(0)[1]))


class TestWaveFunction:
    def test_shape_mismatch(self):
        g = Grid((-1.0,), (1.0,), (8,))
        with pytest.raises(ValueError):
            WaveFunction(g, np.zeros(7))

    def test_non_finite_rejected(self):
        g = Grid((-1.0,), (1.0,), (8,))
        vals = np.zeros(8, dtype=complex)
        vals[3] = np.nan
        with pytest.raises(NonFiniteError):
            WaveFunction(g, vals)


class TestSampleState:
    def test_names_the_state_its_first_bad_point_and_where(self):
        points = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(NonFiniteError,
                           match=r"^final state returned non-finite value at \[1\.\] on the grid$"):
            sample_state(lambda p: np.where(p[:, 0] > 0.5, np.nan, 1.0), points, "final", "grid")

    def test_returns_finite_values_as_sampled(self):
        points = np.array([[0.0], [1.0]])
        assert np.array_equal(sample_state(lambda p: p[:, 0] + 1j, points, "initial", "grid"), [1j, 1 + 1j])


class TestPairings:
    def test_gaussian_normalized(self):
        g = Grid((-8.0,), (8.0,), (256,))
        psi = gaussian_wave(g, center=0.0, width=1.0, momentum=1.3)
        assert l2_norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_pair_bilinear_is_unconjugated(self):
        g = Grid((-8.0,), (8.0,), (256,))
        psi = gaussian_wave(g, momentum=2.0)
        # the conjugated squared norm of a normalized state is 1; the bilinear
        # pairing of a boosted Gaussian with itself is not
        assert l2_norm(psi) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert abs(pair_bilinear(psi, psi) - 1.0) > 0.1

    def test_pair_bilinear_constant_against_gaussian_integral(self):
        # integral of the width-w Gaussian profile is (8 pi w^2)^(1/4)
        g = Grid((-10.0,), (10.0,), (512,))
        w = 0.7
        psi = gaussian_wave(g, width=w)
        expected = (8.0 * np.pi * w**2) ** 0.25
        assert pair_bilinear(WaveFunction(g, np.ones(g.shape, complex)), psi) == pytest.approx(expected, rel=1e-12)

    def test_pair_bilinear_symmetric(self):
        g = Grid((-8.0,), (8.0,), (128,))
        phi = gaussian_wave(g, center=0.5)
        psi = gaussian_wave(g, momentum=1.0)
        assert pair_bilinear(phi, psi) == pytest.approx(pair_bilinear(psi, phi))

    def test_grid_mismatch(self):
        a = gaussian_wave(Grid((-8.0,), (8.0,), (128,)))
        b = gaussian_wave(Grid((-8.0,), (8.0,), (64,)))
        with pytest.raises(GridMismatchError):
            pair_bilinear(a, b)

    def test_gaussian_evaluator_matches_grid_sampling(self):
        g = Grid((-6.0, -6.0), (6.0, 6.0), (16, 16))
        wave = gaussian_wave(g, center=(0.2, -0.3), width=(1.0, 0.8), momentum=(0.5, 0.0))
        fn = gaussian_evaluator(center=(0.2, -0.3), width=(1.0, 0.8), momentum=(0.5, 0.0), ndim=2)
        assert np.allclose(fn(g.points()).reshape(g.shape), wave.values)


class TestSingularities:
    def test_collect_lists_each_point_once_in_order(self):
        scalar = ScalarPotentialSpec(lambda p: p[..., 0], singular_points=((2.0,), (0.0,)))
        vector = VectorPotentialSpec((lambda p: p[..., 0],), singular_points=((0.0,), (1.0,)))
        assert collect_singularities(scalar, vector) == ((2.0,), (0.0,), (1.0,))
        assert collect_singularities(None, vector) == ((0.0,), (1.0,))
        assert collect_singularities() == ()

    def test_collect_keeps_points_that_differ_by_rounding(self):
        # only exact duplicates are dropped; the excision cuts of near-duplicates overlap harmlessly
        scalar = ScalarPotentialSpec(lambda p: p[..., 0], singular_points=((0.1 + 0.2,),))
        vector = VectorPotentialSpec((lambda p: p[..., 0],), singular_points=((0.3,), (0.3,)))
        assert collect_singularities(scalar, vector) == ((0.1 + 0.2,), (0.3,))

    def test_sample_field_rejects_singular_node(self):
        g = Grid((-1.5,), (1.5,), (3,))  # nodes -1, 0, 1
        spec = ScalarPotentialSpec(
            lambda p: 1.0 / np.abs(p[..., 0]), singular_points=((0.0,),)
        )
        with pytest.raises(SingularNodeError):
            sample_field(spec, g)

    def test_sample_field_rejects_hidden_blowup(self):
        g = Grid((-1.5,), (1.5,), (3,))
        def unregistered_pole(p):
            with np.errstate(divide="ignore"):
                return 1.0 / np.abs(p[..., 0])

        spec = ScalarPotentialSpec(unregistered_pole)
        with pytest.raises(NonFiniteError):
            sample_field(spec, g)

    def test_sample_points_checks_any_point_set(self):
        spec = ScalarPotentialSpec(lambda p: 1.0 / p[..., 0], singular_points=((0.5,),))
        assert sample_points(spec, np.array([[0.25], [2.0]])) == pytest.approx([4.0, 0.5])
        with pytest.raises(SingularNodeError, match=r"\[0.5\]"):
            sample_points(spec, np.array([[2.0], [0.5 + 0.5 * SINGULAR_TOL]]))

    def test_sample_field_vector_component(self):
        g = Grid((-2.0,), (2.0,), (8,))
        vec = VectorPotentialSpec((lambda p: 3.0 * p[..., 0],))
        vals = sample_field(vec, g, component=0)
        assert np.allclose(vals, 3.0 * g.axis_coords(0))
        with pytest.raises(ValueError):
            sample_field(vec, g)
