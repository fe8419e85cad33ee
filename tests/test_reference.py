"""Reference Hamiltonian: spectral symbols, spectra, dense and Chebyshev evolution."""

from pathlib import Path

import numpy as np
import pytest
from scipy.special import jv

from gaugeslice import (
    CapExceededError,
    Grid,
    GridMismatchError,
    ScalarPotentialSpec,
    VectorPotentialSpec,
    assemble_hamiltonian,
    expm_evolve,
    gaussian_wave,
    l2_norm,
)
from gaugeslice import scenarios
from gaugeslice.fields import fourier_multiply
from gaugeslice.reference import (
    MAX_CHEBYSHEV_RADIUS,
    HamiltonianAction,
    chebyshev_coefficients,
    chebyshev_evolve,
    evolve,
)
from oracles import exact_free_gaussian

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def sinusoidal_vector(ndim):
    return VectorPotentialSpec(
        tuple((lambda p, l=l: 0.6 * np.sin(0.5 * p[..., l] + l)) for l in range(ndim))
    )


def magnetic_2d(b=0.7):
    return VectorPotentialSpec((lambda p: -0.5 * b * p[..., 1], lambda p: 0.5 * b * p[..., 0]))


def landau_2d(b=0.7):
    return VectorPotentialSpec((lambda p: -b * p[..., 1], lambda p: np.zeros(p.shape[:-1])))


def constant_vector_1d(c=0.4):
    return VectorPotentialSpec((lambda p: np.full(p.shape[:-1], c),))


def mixed_2d():
    # a_0 = sin y is constant along axis 0, a_1 = sin y varies along axis 1
    return VectorPotentialSpec((lambda p: np.sin(p[..., 1]), lambda p: np.sin(p[..., 1])))


def harmonic_scalar():
    return ScalarPotentialSpec(lambda p: 0.5 * np.sum(p**2, axis=-1) - 1.0)


class TestStencils:
    def test_spectral_free_spectrum_is_xi_squared(self):
        g = Grid((-4.0,), (4.0,), (32,))
        ham = assemble_hamiltonian(g)
        eigs = np.sort(np.linalg.eigvalsh(ham.matrix))
        assert np.max(np.abs(eigs - np.sort(g.frequencies(0) ** 2))) < 1e-9

    def test_spectral_plane_wave_is_shifted_momentum(self):
        # H = (-i d/dx - c)^2 with constant a = c, applied to e^{ikx}
        g = Grid((0.0,), (2.0 * np.pi,), (64,))
        c, k = 0.5, 3.0
        vec = VectorPotentialSpec((lambda p: np.full(p.shape[:-1], c),))
        wave = np.exp(1j * k * g.axis_coords(0))
        h_wave = assemble_hamiltonian(g, vector=vec).matrix @ wave
        assert np.max(np.abs(h_wave - (k - c) ** 2 * wave)) < 1e-10

    def test_spectral_first_derivative_drops_nyquist(self):
        # the unpaired Nyquist mode has no odd derivative; keeping it would
        # make d/dx of real data complex
        g = Grid((0.0,), (2.0 * np.pi,), (64,))
        d1, _ = g.derivative_symbols(0)
        assert np.max(np.abs(fourier_multiply((-1.0) ** np.arange(64), d1, 0))) < 1e-12


class TestAssembly:
    def test_harmonic_spectrum(self):
        # H = -d^2/dx^2 + x^2 has eigenvalues 2 m + 1
        g = Grid((-10.0,), (10.0,), (128,))
        scalar = ScalarPotentialSpec(lambda p: np.sum(p**2, axis=-1))
        ham = assemble_hamiltonian(g, scalar=scalar)
        eigs = np.sort(np.linalg.eigvalsh(ham.matrix))
        assert np.allclose(eigs[:6], [1.0, 3.0, 5.0, 7.0, 9.0, 11.0], atol=1e-8)

    def test_magnetic_term_is_hermitian(self):
        g = Grid((-5.0, -5.0), (5.0, 5.0), (10, 10))
        b = 0.7
        vec = VectorPotentialSpec(
            (lambda p: -0.5 * b * p[..., 1], lambda p: 0.5 * b * p[..., 0])
        )
        ham = assemble_hamiltonian(g, vector=vec)
        assert np.max(np.abs(ham.matrix - ham.matrix.conj().T)) < 1e-10

    def test_constant_vector_shifts_free_spectrum(self):
        # H = (-i d/dx - c)^2 has spectrum (xi - c)^2 on the periodic grid
        g = Grid((-4.0,), (4.0,), (32,))
        c = 0.5
        vec = VectorPotentialSpec((lambda p: np.full(p.shape[:-1], c),))
        ham = assemble_hamiltonian(g, vector=vec)
        eigs = np.sort(np.linalg.eigvalsh(ham.matrix))
        xi = g.frequencies(0)
        xi1 = xi.copy()
        xi1[len(xi) // 2] = 0.0  # Nyquist mode dropped in the first derivative
        expected = np.sort(xi**2 - 2.0 * c * xi1 + c**2)
        assert np.max(np.abs(eigs - expected)) < 1e-9


class TestEvolution:
    def test_unitary_and_reversible(self):
        g = Grid((-8.0,), (8.0,), (64,))
        scalar = ScalarPotentialSpec(lambda p: np.sum(p**2, axis=-1))
        ham = assemble_hamiltonian(g, scalar=scalar)
        psi = gaussian_wave(g)
        fwd = expm_evolve(ham, psi, 0.4)
        assert abs(l2_norm(fwd) - 1.0) < 1e-12
        back = expm_evolve(ham, fwd, -0.4)
        assert np.max(np.abs(back.values - psi.values)) < 1e-10

    def test_free_evolution_matches_closed_form(self):
        g = Grid((-12.0,), (12.0,), (256,))
        ham = assemble_hamiltonian(g)
        psi = gaussian_wave(g, momentum=1.0)
        out = expm_evolve(ham, psi, 0.3)
        exact = exact_free_gaussian(g.axis_coords(0), 0.3, 0.0, 1.0, 1.0)
        assert np.max(np.abs(out.values - exact)) < 1e-9

    def test_grid_mismatch(self):
        ham = assemble_hamiltonian(Grid((-4.0,), (4.0,), (16,)))
        psi = gaussian_wave(Grid((-4.0,), (4.0,), (32,)))
        with pytest.raises(GridMismatchError, match="does not match the Hamiltonian grid"):
            expm_evolve(ham, psi, 0.1)


class TestClosedForm:
    def test_initial_condition(self):
        x = np.linspace(-5, 5, 101)
        vals = exact_free_gaussian(x, 0.0, 0.3, 0.9, 1.2)
        expected = (2.0 * np.pi * 0.81) ** (-0.25) * np.exp(
            -((x - 0.3) ** 2) / (4.0 * 0.81) + 1j * 1.2 * (x - 0.3)
        )
        assert np.max(np.abs(vals - expected)) < 1e-14

    def test_satisfies_schrodinger_equation(self):
        # finite-difference check of i d psi/dt = -psi'' at scattered points
        x = np.array([-1.0, 0.2, 1.7])
        t, dt, dx = 0.25, 1e-5, 1e-4
        dpsi_dt = (
            exact_free_gaussian(x, t + dt, 0.0, 1.0, 0.8)
            - exact_free_gaussian(x, t - dt, 0.0, 1.0, 0.8)
        ) / (2.0 * dt)
        lap = (
            exact_free_gaussian(x + dx, t, 0.0, 1.0, 0.8)
            - 2.0 * exact_free_gaussian(x, t, 0.0, 1.0, 0.8)
            + exact_free_gaussian(x - dx, t, 0.0, 1.0, 0.8)
        ) / dx**2
        assert np.max(np.abs(1j * dpsi_dt + lap)) < 1e-5

    def test_norm_conserved(self):
        x = np.linspace(-30, 30, 20001)
        vals = exact_free_gaussian(x, 1.5, 0.0, 1.0, 1.0)
        norm = np.trapezoid(np.abs(vals) ** 2, x)
        assert norm == pytest.approx(1.0, abs=1e-10)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            exact_free_gaussian(np.array([0.0]), -0.1)


# the ids name the reference's one discretization, the spectral symbols
CASES = [
    pytest.param(grid, vector, scalar, id=f"{ndim}d-spectral-{tag}")
    for ndim, grid in ((1, Grid((-6.0,), (6.0,), (40,))), (2, Grid((-5.0, -4.0), (5.0, 4.0), (12, 10))))
    for tag, vector, scalar in (
        ("free", None, None),
        ("a", sinusoidal_vector(ndim), None),
        ("V", None, harmonic_scalar()),
        ("a-V", sinusoidal_vector(ndim), harmonic_scalar()),
    )
]
# fields whose sampled a_l is constant along axis l take the one-multiplier
# branch of the action; the mixed field takes both branches in one operator
CASES += [
    pytest.param(grid, vector, scalar, id=f"{ndim}d-spectral-{tag}{suffix}")
    for ndim, tag, grid, vector in (
        (1, "const-a", Grid((-6.0,), (6.0,), (40,)), constant_vector_1d()),
        (2, "symmetric-B", Grid((-5.0, -4.0), (5.0, 4.0), (12, 10)), magnetic_2d()),
        (2, "landau-B", Grid((-5.0, -4.0), (5.0, 4.0), (12, 10)), landau_2d()),
        (2, "mixed-a", Grid((-5.0, -4.0), (5.0, 4.0), (12, 10)), mixed_2d()),
    )
    for suffix, scalar in (("", None), ("-V", harmonic_scalar()))
]
# an id-only mark for single tests that name the discretization as CASES does
SPECTRAL = pytest.mark.parametrize((), [pytest.param(id="spectral")])


class TestMatrixFreeAction:
    @pytest.mark.parametrize("grid, vector, scalar", CASES)
    def test_action_matches_dense_matrix(self, grid, vector, scalar):
        rng = np.random.default_rng(3)
        psi = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
        dense = assemble_hamiltonian(grid, vector, scalar).matrix @ psi.ravel()
        action = HamiltonianAction(grid, vector, scalar).affine()(psi).ravel()
        assert np.linalg.norm(action - dense) <= 1e-12 * np.linalg.norm(dense)

    @pytest.mark.parametrize("grid, vector, scalar", CASES)
    def test_affine_action_matches_dense_oracle(self, grid, vector, scalar):
        # the Chebyshev map (H - shift) / scale against the same map of the dense matrix
        rng = np.random.default_rng(5)
        psi = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
        shift, scale = 3.7, 0.37
        matrix = assemble_hamiltonian(grid, vector, scalar).matrix
        dense = ((matrix - shift * np.eye(grid.size)) / scale) @ psi.ravel()
        action = HamiltonianAction(grid, vector, scalar).affine(shift, scale)(psi).ravel()
        assert np.linalg.norm(action - dense) <= 1e-12 * np.linalg.norm(dense)

    @pytest.mark.parametrize("ndim", [1, 2])
    def test_magnetic_term_costs_one_batched_transform_pair_per_axis(self, ndim, count_calls):
        grid = Grid((-5.0,) * ndim, (5.0,) * ndim, (16,) * ndim)
        action = HamiltonianAction(grid, sinusoidal_vector(ndim), harmonic_scalar())
        psi = gaussian_wave(grid, width=0.8)
        calls = count_calls(np.fft, "fft", "ifft")
        action.affine(1.0, 2.0)(psi.values)
        assert calls == {"fft": ndim, "ifft": ndim}
        calls.update(fft=0, ifft=0)
        _, terms = chebyshev_evolve(action, psi, 0.3)
        # plus one FFT for the Bessel coefficients
        assert calls == {"fft": ndim * (terms - 1) + 1, "ifft": ndim * (terms - 1)}

    @pytest.mark.parametrize("vector, line_constant", [
        pytest.param(None, [True, True], id="free"),
        pytest.param(magnetic_2d(), [True, True], id="symmetric-B"),
        pytest.param(landau_2d(), [True, True], id="landau-B"),
        pytest.param(mixed_2d(), [True, False], id="mixed-a"),
        pytest.param(sinusoidal_vector(2), [False, False], id="a"),
    ])
    def test_line_constant_axes_are_read_from_the_samples(self, vector, line_constant):
        action = HamiltonianAction(Grid((-5.0, -4.0), (5.0, 4.0), (12, 10)), vector)
        assert action.line_constant == line_constant
        assert action.transforms_per_term == sum(2 if c else 4 for c in line_constant)

    def test_line_constant_field_halves_the_transformed_values(self, monkeypatch):
        # one term of the symmetric gauge transforms each value once per axis
        # each way; the [psi, a psi] stack would transform it twice
        grid = Grid((-5.0, -5.0), (5.0, 5.0), (16, 16))
        action = HamiltonianAction(grid, magnetic_2d(), harmonic_scalar())
        sizes = {"fft": 0, "ifft": 0}
        for name in sizes:
            def counting(a, *args, _name=name, _original=getattr(np.fft, name), **kwargs):
                sizes[_name] += np.size(a)
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, counting)
        action.affine(1.0, 2.0)(gaussian_wave(grid, width=0.8).values)
        assert sizes == {"fft": grid.ndim * grid.size, "ifft": grid.ndim * grid.size}
        assert action.transforms_per_term == 2 * grid.ndim

    @pytest.mark.parametrize("grid, vector, scalar", CASES)
    def test_spectral_interval_encloses_spectrum(self, grid, vector, scalar):
        eigs = np.linalg.eigvalsh(assemble_hamiltonian(grid, vector, scalar).matrix)
        lo, hi = HamiltonianAction(grid, vector, scalar).spectral_interval
        # the free spectral bounds are attained, so allow the eigensolver's rounding
        slack = 1e-12 * hi
        assert lo <= eigs[0] + slack and eigs[-1] <= hi + slack

    # 2.404825557695773 is the first zero of J_0: a vanishing coefficient
    # before the turning point must not end the series
    @pytest.mark.parametrize("radius", [0.0, 0.4, 2.404825557695773, 7.5, 187.0, -40.0, 900.0])
    def test_coefficients_are_bessel_values(self, radius):
        coeffs = chebyshev_coefficients(radius)
        k = np.arange(len(coeffs))
        expected = 2.0 * (-1j) ** k * jv(k, radius)
        expected[0] /= 2.0
        # the FFT's rounding floor is about eps sqrt(|R|)
        assert np.max(np.abs(coeffs - expected)) < 1e-13
        # cut past the turning point, where the dropped tail is negligible
        assert len(coeffs) > abs(radius)
        tail = np.arange(len(coeffs), len(coeffs) + 200)
        assert 2.0 * np.sum(np.abs(jv(tail, radius))) < 1e-13


    @pytest.mark.parametrize("radius", [np.nextafter(MAX_CHEBYSHEV_RADIUS, np.inf), -1e40])
    def test_radius_beyond_the_bound_is_refused(self, radius):
        with pytest.raises(CapExceededError, match="Chebyshev series radius"):
            chebyshev_coefficients(radius)

class TestChebyshevEvolution:
    @staticmethod
    def assert_matches_dense(grid, vector, scalar, psi, t):
        dense = expm_evolve(assemble_hamiltonian(grid, vector, scalar), psi, t)
        cheb, terms = chebyshev_evolve(HamiltonianAction(grid, vector, scalar), psi, t)
        assert terms > 1
        err = np.linalg.norm(cheb.values - dense.values) / np.linalg.norm(dense.values)
        assert err <= 1e-10

    @pytest.mark.parametrize("name", ["free_1d", "harmonic_1d", "constant_field_2d"])
    def test_matches_dense_on_shipped_scenarios(self, name):
        s = scenarios.load_scenario(SCENARIO_DIR / f"{name}.json")
        self.assert_matches_dense(s.grid, s.vector, s.scalar, s.initial_state.on_grid(s.grid), s.time)

    def test_free_evolution_matches_closed_form(self):
        g = Grid((-12.0,), (12.0,), (256,))
        out, _ = chebyshev_evolve(HamiltonianAction(g), gaussian_wave(g, momentum=1.0), 0.3)
        exact = exact_free_gaussian(g.axis_coords(0), 0.3, 0.0, 1.0, 1.0)
        assert np.max(np.abs(out.values - exact)) < 1e-9

    def test_unitary_and_reversible(self):
        g = Grid((-6.0, -6.0), (6.0, 6.0), (24, 24))
        action = HamiltonianAction(g, magnetic_2d(), harmonic_scalar())
        psi = gaussian_wave(g, center=(0.4, 0.0), width=0.8, momentum=(0.5, 0.0))
        fwd, _ = chebyshev_evolve(action, psi, 0.7)
        assert abs(l2_norm(fwd) - l2_norm(psi)) < 1e-12
        back, _ = chebyshev_evolve(action, fwd, -0.7)
        assert np.max(np.abs(back.values - psi.values)) < 1e-11

    def test_zero_time_is_identity(self):
        g = Grid((-4.0,), (4.0,), (32,))
        psi = gaussian_wave(g)
        out, terms = chebyshev_evolve(HamiltonianAction(g), psi, 0.0)
        assert terms == 1
        assert np.array_equal(out.values, psi.values)

    @SPECTRAL
    def test_zero_time_with_fields_is_identity(self):
        g = Grid((-5.0, -5.0), (5.0, 5.0), (12, 10))
        psi = gaussian_wave(g, width=0.9, momentum=(0.5, -0.3))
        action = HamiltonianAction(g, magnetic_2d(), harmonic_scalar())
        out, terms = chebyshev_evolve(action, psi, 0.0)
        assert terms == 1
        assert np.array_equal(out.values, psi.values)

    @SPECTRAL
    def test_negative_time_matches_dense(self):
        g = Grid((-5.0, -5.0), (5.0, 5.0), (20, 18))
        psi = gaussian_wave(g, center=(0.5, -0.3), width=(0.9, 1.1), momentum=(0.8, 0.2))
        self.assert_matches_dense(g, magnetic_2d(), harmonic_scalar(), psi, -0.4)

    def test_grid_mismatch(self):
        action = HamiltonianAction(Grid((-4.0,), (4.0,), (16,)))
        psi = gaussian_wave(Grid((-4.0,), (4.0,), (32,)))
        for route in (chebyshev_evolve, evolve):
            with pytest.raises(GridMismatchError, match="does not match the Hamiltonian grid"):
                route(action, psi, 0.1)


def constant_scalar(value=0.8):
    return ScalarPotentialSpec(lambda p: np.full(p.shape[:-1], value))


def step_scalar():
    return ScalarPotentialSpec(lambda p: np.where(p[..., 0] > 1.0, 1.0, 0.0))


class TestFourierPath:
    """A Hamiltonian whose sampled fields are all constant is evolved by one transform pair."""

    FREE_1D = Grid((-12.0,), (12.0,), (512,))
    GRID_2D = Grid((-5.0, -4.0), (5.0, 4.0), (20, 18))

    @pytest.mark.parametrize("grid, vector, scalar, t", [
        pytest.param(FREE_1D, None, None, 0.2, id="free-1d"),
        pytest.param(FREE_1D, constant_vector_1d(0.4), None, 0.2, id="constant-a-1d"),
        pytest.param(GRID_2D, VectorPotentialSpec((lambda p: np.full(p.shape[:-1], 0.3),
                                                   lambda p: np.full(p.shape[:-1], -0.5))),
                     None, 0.3, id="constant-a-2d"),
        pytest.param(FREE_1D, constant_vector_1d(-0.6), constant_scalar(), 0.2, id="constant-V-and-a"),
    ])
    def test_matches_dense_and_chebyshev(self, grid, vector, scalar, t):
        psi = gaussian_wave(grid, width=0.9, momentum=(0.7,) * grid.ndim)
        action = HamiltonianAction(grid, vector, scalar)
        fourier, info = evolve(action, psi, t)
        assert (info["method"], info["terms"], info["transforms_per_term"]) == ("fourier", 1, 2 * grid.ndim)
        dense = expm_evolve(assemble_hamiltonian(grid, vector, scalar), psi, t)
        cheb, terms = chebyshev_evolve(action, psi, t)
        assert terms > 1
        for other in (dense, cheb):
            err = np.linalg.norm(fourier.values - other.values) / np.linalg.norm(other.values)
            assert err <= 1e-12

    @pytest.mark.parametrize("grid, vector, scalar", [
        pytest.param(FREE_1D, None, harmonic_scalar(), id="harmonic-V"),
        pytest.param(FREE_1D, None, step_scalar(), id="step-V"),
        pytest.param(FREE_1D, sinusoidal_vector(1), None, id="sinusoidal-a"),
        pytest.param(GRID_2D, magnetic_2d(), None, id="symmetric-B"),
        pytest.param(GRID_2D, landau_2d(), None, id="landau-B"),
    ])
    def test_any_varying_field_takes_chebyshev(self, grid, vector, scalar):
        action = HamiltonianAction(grid, vector, scalar)
        assert not action.fourier_diagonal
        psi = gaussian_wave(grid, width=0.9)
        out, info = evolve(action, psi, 0.1)
        cheb, terms = chebyshev_evolve(action, psi, 0.1)
        assert info["method"] == "chebyshev" and info["terms"] == terms > 1
        assert info["transforms_per_term"] == action.transforms_per_term
        assert np.array_equal(out.values, cheb.values)

    def test_radius_bound_holds_on_the_fourier_path(self):
        # a^2 = 1e40 is a constant, so H is diagonal, but the series radius is past the bound
        action = HamiltonianAction(self.FREE_1D, constant_vector_1d(1e20))
        assert action.fourier_diagonal
        with pytest.raises(CapExceededError, match="Chebyshev series radius"):
            evolve(action, gaussian_wave(self.FREE_1D), 0.2)
