"""Line-integral gauge phases against closed-form antiderivatives."""

import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import gaugeslice
from gaugeslice import (
    Grid,
    QuadratureDivergenceError,
    SingularNodeError,
    VectorPotentialSpec,
    gauge,
    gaussian_wave,
    SliceOperator,
    gauge_conjugation_residual,
    gauge_phase_table,
    midpoint_discrepancy,
    segment_gauge_increment,
    slice_gauge_increment,
)
from gaugeslice.fields import SINGULAR_TOL, fourier_multiply
from gaugeslice.gauge import cumulative_axis_integral
from gaugeslice.pathint import _excised_pieces, _TensorMesh
from gaugeslice.scenarios import VECTOR_FAMILIES

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def sin_potential_1d():
    return VectorPotentialSpec((lambda p: np.sin(p[..., 0]),))


def bilinear_potential_2d():
    # a_1(x, y) = x y, a_2 = 0: closed-form line integrals in both slots
    return VectorPotentialSpec(
        (lambda p: p[..., 0] * p[..., 1], lambda p: np.zeros(p.shape[:-1]))
    )


def gauge_phase(vector, axis, x):
    """Integral of a_axis along axis ``axis`` from 0 to x[axis], other coordinates frozen at x."""
    origin = np.array(x, dtype=float)
    origin[axis] = 0.0
    return segment_gauge_increment(vector, axis, x, origin)


class TestGaugePhase:
    def test_matches_antiderivative(self):
        # integral of sin from 0 to x is 1 - cos(x)
        res = gauge_phase(sin_potential_1d(), 0, [0.7])
        assert res == pytest.approx(1.0 - np.cos(0.7), abs=1e-12)

    def test_long_oscillating_path_is_refined(self):
        # ~3 periods on one segment: a single order-15 rule is off by ~3e-11,
        # so meeting 1e-12 needs the bisection
        res = gauge_phase(sin_potential_1d(), 0, [20.0])
        assert res == pytest.approx(1.0 - np.cos(20.0), abs=1e-12)

    def test_unresolvable_oscillation_raises(self):
        # ~1.6e6 periods on [0, 10]: bisection would need millions of segments,
        # so the refinement budget stops it instead of exhausting memory
        vec = VectorPotentialSpec((lambda p: np.sin(1e6 * p[..., 0]),))
        with pytest.raises(QuadratureDivergenceError):
            gauge_phase(vec, 0, [10.0])

    def test_negative_coordinate(self):
        res = gauge_phase(sin_potential_1d(), 0, [-1.3])
        assert res == pytest.approx(1.0 - np.cos(1.3), abs=1e-12)

    def test_frozen_off_axis_coordinates(self):
        res = gauge_phase(bilinear_potential_2d(), 0, [0.6, 2.0])
        # integral of 2 s ds from 0 to 0.6
        assert res == pytest.approx(2.0 * 0.6**2 / 2.0, abs=1e-12)

    def test_singular_crossing_raises(self):
        vec = VectorPotentialSpec(
            (lambda p: 1.0 / p[..., 0],), singular_points=((0.0,),)
        )
        with pytest.raises(SingularNodeError, match="singular point"):
            gauge_phase(vec, 0, [1.0])


class TestSegmentIncrement:
    def test_freezes_at_earlier_point(self):
        vec = bilinear_potential_2d()
        x0 = np.array([0.3, 2.0])
        x1 = np.array([0.9, -5.0])  # the target y must not matter for axis 0
        val = segment_gauge_increment(vec, 0, x1, x0)
        assert val == pytest.approx(2.0 * (0.9**2 - 0.3**2) / 2.0, abs=1e-12)

    def test_antisymmetric_in_axis_coordinate(self):
        vec = sin_potential_1d()
        assert segment_gauge_increment(vec, 0, [1.1], [0.2]) == pytest.approx(
            -segment_gauge_increment(vec, 0, [0.2], [1.1]), abs=1e-12
        )

    def test_raises_on_singular_crossing(self):
        vec = VectorPotentialSpec(
            (lambda p: 1.0 / p[..., 0],), singular_points=((0.0,),)
        )
        with pytest.raises(SingularNodeError):
            segment_gauge_increment(vec, 0, [1.0], [-1.0])

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("offset, crosses", [
        (0.0, True), (0.999 * SINGULAR_TOL, True), (-0.999 * SINGULAR_TOL, True),
        (1.001 * SINGULAR_TOL, False), (-1.001 * SINGULAR_TOL, False),
    ])
    def test_singular_tolerance_off_the_axis(self, axis, offset, crosses):
        # the segment runs along ``axis`` through w = (0.3, -0.2) shifted off it by ``offset``
        w = np.array([0.3, -0.2])
        vec = VectorPotentialSpec(
            (lambda p: p[..., 1], lambda p: p[..., 0]), singular_points=(tuple(w),)
        )
        other = 1 - axis
        x0 = w.copy()
        x0[axis] -= 0.5
        x0[other] += offset
        x1 = x0.copy()
        x1[axis] += 1.0
        if crosses:
            with pytest.raises(SingularNodeError, match="gauge segment along axis"):
                segment_gauge_increment(vec, axis, x1, x0)
        else:
            assert segment_gauge_increment(vec, axis, x1, x0) == pytest.approx(x0[other], abs=1e-12)

    @pytest.mark.parametrize("end, crosses", [
        (0.3 - 0.999 * SINGULAR_TOL, True), (0.3 - 1.001 * SINGULAR_TOL, False),
    ])
    def test_singular_tolerance_at_the_segment_end(self, end, crosses):
        vec = VectorPotentialSpec((lambda p: np.ones(p.shape[:-1]),), singular_points=((0.3,),))
        if crosses:
            with pytest.raises(SingularNodeError):
                segment_gauge_increment(vec, 0, [end], [-1.0])
        else:
            assert segment_gauge_increment(vec, 0, [end], [-1.0]) == pytest.approx(end + 1.0)

    def test_quadrature_divergence_detected(self):
        # non-integrable pole inside the segment but not registered
        vec = VectorPotentialSpec((lambda p: 1.0 / (p[..., 0] - 0.35),))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(QuadratureDivergenceError):
                segment_gauge_increment(vec, 0, [0.7], [0.0])


class TestSliceIncrement:
    def test_constant_field_is_displacement_dot_a(self):
        a = np.array([0.4, -1.1])

        def make(l):
            return lambda p: np.full(p.shape[:-1], a[l])

        vec = VectorPotentialSpec(tuple(make(l) for l in range(2)))
        x0 = np.array([0.2, -0.5])
        x1 = np.array([1.4, 0.3])
        assert slice_gauge_increment(vec, x1, x0) == pytest.approx(
            float(np.dot(x1 - x0, a)), abs=1e-12
        )

    def test_sums_per_axis_increments(self):
        vec = bilinear_potential_2d()
        x0 = np.array([0.1, 0.4])
        x1 = np.array([0.8, 1.2])
        # the staircase crosses axis 1 from x0, then axis 0 from the corner (x0[0], x1[1])
        expected = segment_gauge_increment(vec, 1, x1, x0) + segment_gauge_increment(
            vec, 0, x1, [x0[0], x1[1]]
        )
        assert slice_gauge_increment(vec, x1, x0) == pytest.approx(expected, abs=1e-14)


class TestMidpointDiscrepancy:
    def test_constant_field_exact(self):
        vec = VectorPotentialSpec(
            (lambda p: np.full(p.shape[:-1], 0.7), lambda p: np.full(p.shape[:-1], -0.2))
        )
        assert midpoint_discrepancy(vec, [1.0, 0.5], [0.2, -0.4]) <= 1e-12

    def test_quadratic_decay_in_2d(self):
        vec = VectorPotentialSpec(
            (lambda p: np.sin(p[..., 1]), lambda p: np.cos(p[..., 0]))
        )
        x0 = np.array([0.2, 0.2])
        direction = np.array([1.0, 1.0]) / np.sqrt(2.0)
        seps = 0.4 * 0.5 ** np.arange(5)
        disc = [midpoint_discrepancy(vec, x0 + s * direction, x0) for s in seps]
        slope = np.polyfit(np.log(seps), np.log(disc), 1)[0]
        assert slope >= 1.9

    def test_cubic_decay_in_1d(self):
        # with a single axis the frozen coordinates play no role and the
        # midpoint rule gains an extra order
        vec = sin_potential_1d()
        seps = 0.4 * 0.5 ** np.arange(5)
        disc = [midpoint_discrepancy(vec, [0.2 + s], [0.2]) for s in seps]
        slope = np.polyfit(np.log(seps), np.log(disc), 1)[0]
        assert slope >= 2.9

    def test_midpoint_on_singular_point_rejected(self):
        # both staircase segments miss (0.5, 0.5), so only the midpoint check sees it
        w = (0.5, 0.5)

        def inverse(p):
            return 1.0 / np.hypot(p[..., 0] - w[0], p[..., 1] - w[1])

        vec = VectorPotentialSpec((inverse, inverse), singular_points=(w,))
        with pytest.raises(SingularNodeError, match="singular point"):
            midpoint_discrepancy(vec, [1.0, 1.0], [0.0, 0.0])


class TestTables:
    def test_cumulative_matches_pointwise(self):
        vec = bilinear_potential_2d()
        coords = np.array([-1.0, -0.25, 0.5, 1.5])
        frozen = np.array([0.0, 1.7])
        cum = cumulative_axis_integral(vec, 0, coords, frozen[None, :])
        assert cum.shape == (len(coords), 1)
        for c, v in zip(coords, cum[:, 0]):
            ref = gauge_phase(vec, 0, [c, 1.7])
            assert v == pytest.approx(ref, abs=1e-10)

    def test_table_on_2d_grid(self):
        vec = bilinear_potential_2d()
        g = Grid((-1.0, -1.0), (1.0, 1.0), (6, 6))
        tab = gauge_phase_table(vec, 0, g)
        x = g.axis_coords(0)[:, None]
        y = g.axis_coords(1)[None, :]
        assert np.allclose(tab, 0.5 * x**2 * y, atol=1e-10)

    @pytest.mark.parametrize(
        "family, params",
        [
            ("sinusoidal", {"amplitude": [0.5, 0.8], "period": [16.0, 5.0]}),
            ("constant-field-2d", {"field": 1.3}),
            ("linear", {"matrix": [[0.2, -0.7], [1.1, 0.4]]}),
        ],
    )
    def test_table_matches_scalar_quad_oracle(self, family, params):
        # scipy's adaptive QUADPACK is kept as an independent test-only oracle
        from scipy.integrate import quad

        vec = VECTOR_FAMILIES[family](2, params)
        g = Grid((-8.0, -6.0), (8.0, 6.0), (7, 5))
        for axis in range(2):
            tab = gauge_phase_table(vec, axis, g)
            for idx in np.ndindex(*g.shape):
                point = np.array([g.axis_coords(b)[i] for b, i in enumerate(idx)])

                def integrand(s):
                    p = point.copy()
                    p[axis] = s
                    return float(vec.component(axis, p))

                ref = quad(integrand, 0.0, point[axis], epsabs=1e-13, epsrel=1e-13)[0]
                assert tab[idx] == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("hi, crosses", [(2.0, True), (0.25, False)])
    def test_table_through_registered_singular_point_raises(self, hi, crosses):
        # every table integrates from 0, so a grid reaching past 0.3 crosses it
        vec = VectorPotentialSpec(
            (lambda p: np.abs(p[..., 0] - 0.3) ** -0.5,), singular_points=((0.3,),)
        )
        g = Grid((-2.0,), (hi,), (16,))
        if crosses:
            with pytest.raises(SingularNodeError, match="gauge segment along axis 0"):
                gauge_phase_table(vec, 0, g)
        else:
            assert np.all(np.isfinite(gauge_phase_table(vec, 0, g)))

    def test_table_checks_every_frozen_line(self):
        # of the two grids only the one with a line at y = 0.5 meets the point (0.3, 0.5)
        vec = VectorPotentialSpec(
            (lambda p: np.hypot(p[..., 0] - 0.3, p[..., 1] - 0.5) ** -0.5,
             lambda p: np.zeros(p.shape[:-1])),
            singular_points=((0.3, 0.5),),
        )
        assert np.all(np.isfinite(gauge_phase_table(vec, 0, Grid((-1.0, -1.0), (1.0, 1.0), (8, 3)))))
        with pytest.raises(SingularNodeError, match="gauge segment along axis 0"):
            gauge_phase_table(vec, 0, Grid((-1.0, -1.0), (1.0, 1.0), (8, 2)))

    def test_table_detects_unregistered_pole(self):
        # a_1 = 1 / (x - 0.36) is not integrable across the grid, nothing registers it
        vec = VectorPotentialSpec(
            (lambda p: 1.0 / (p[..., 0] - 0.36), lambda p: np.zeros(p.shape[:-1]))
        )
        g = Grid((-1.0, -1.0), (1.0, 1.0), (6, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(QuadratureDivergenceError):
                gauge_phase_table(vec, 0, g)


class TestQuadratureConstants:
    # weight column 0 is the Kronrod rule, column 1 the Gauss rule on every other node
    @pytest.mark.parametrize("column, degree", [(0, 22), (1, 13)], ids=["K15", "G7"])
    def test_rule_integrates_monomials_exactly_to_its_degree(self, column, degree):
        weights = gauge._WEIGHTS[:, column]

        def error(k):
            return abs(np.dot(weights, gauge._NODES**k) - (2.0 / (k + 1) if k % 2 == 0 else 0.0))

        assert all(error(k) <= 1e-15 for k in range(degree + 1))
        # the next even power is beyond the rule (odd ones vanish by symmetry)
        assert error(2 * (degree // 2 + 1)) > 1e-9

    def test_gauss_rule_matches_leggauss(self):
        gauss = gauge._WEIGHTS[:, 1] != 0
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(7)
        np.testing.assert_allclose(gauge._NODES[gauss], ref_nodes, rtol=0, atol=1e-15)
        np.testing.assert_allclose(gauge._WEIGHTS[gauss, 1], ref_weights, rtol=0, atol=1e-15)

    def test_rules_are_symmetric(self):
        assert np.array_equal(gauge._NODES, -gauge._NODES[::-1])
        assert np.array_equal(gauge._WEIGHTS, gauge._WEIGHTS[::-1])


class TestBlockEvaluation:
    """The quadrature nodes are evaluated in blocks of ``gauge._BLOCK_POINTS``."""

    @staticmethod
    def tables_at_extreme_blocks(monkeypatch, build):
        # one segment's nodes on two lines per block, against everything in one block
        tables = []
        for block in (1, sys.maxsize):
            monkeypatch.setattr(gauge, "_BLOCK_POINTS", block)
            tables.append(build())
        return tables

    def test_excised_route3_mesh_is_bit_exact(self, monkeypatch):
        vec = VECTOR_FAMILIES["sinusoidal"](1, {"amplitude": 0.5, "period": 16.0})
        mesh = _TensorMesh(_excised_pieces(1, 5.0, [(0.3,)], 0.1, 0.01))
        assert len(mesh.axes_pieces[0]) == 2
        small, whole = self.tables_at_extreme_blocks(
            monkeypatch, lambda: gauge.mesh_line_integrals(vec, 0, mesh.axes_nodes)
        )
        assert np.array_equal(small, whole)

    @pytest.mark.parametrize("n", [48, 49])
    def test_symmetric_gauge_is_bit_exact(self, monkeypatch, n):
        # 49 lines in blocks of two leave a last block of three: no block holds a lone line
        vec = VECTOR_FAMILIES["constant-field-2d"](2, {"field": 0.5})
        g = Grid((-6.0, -6.0), (6.0, 6.0), (n, n))
        small, whole = self.tables_at_extreme_blocks(
            monkeypatch, lambda: [gauge_phase_table(vec, axis, g) for axis in range(2)]
        )
        assert all(np.array_equal(a, b) for a, b in zip(small, whole))

    def test_rough_field_bisected_across_blocks_is_bit_exact(self, monkeypatch):
        vec = VectorPotentialSpec((lambda p: np.sin(600.0 * p[..., 0]) * np.exp(0.3 * p[..., 0]),))
        g = Grid((-8.0,), (8.0,), (1500,))
        small, whole = self.tables_at_extreme_blocks(monkeypatch, lambda: gauge_phase_table(vec, 0, g))
        assert np.array_equal(small, whole)

        rounds = []
        original = gauge._node_sums

        def counting(vector, axis, mid, half, frozen):
            rounds.append(len(mid))
            return original(vector, axis, mid, half, frozen)

        # in one block per round: the segments where e^{0.3x} has grown are bisected, the others not
        monkeypatch.setattr(gauge, "_node_sums", counting)
        gauge_phase_table(vec, 0, g)
        assert len(rounds) > 1 and 0 < rounds[1] < 2 * rounds[0]

    def test_working_set_is_a_small_multiple_of_the_table(self):
        vec = VECTOR_FAMILIES["constant-field-2d"](2, {"field": 0.5})
        g = Grid((-6.0, -6.0), (6.0, 6.0), (256, 256))
        tracemalloc.start()
        try:
            table = gauge_phase_table(vec, 0, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 6x; evaluating every node at once took 74x
        assert peak <= 10 * table.nbytes

    def test_two_symmetric_gauge_tables_peak_below_0_4_mb(self):
        # the trotter-2d tables: 0.87 MB with 2^15-point blocks, 0.30 MB with 2^13
        vec = VECTOR_FAMILIES["constant-field-2d"](2, {"field": 0.5})
        g = Grid((-6.0, -6.0), (6.0, 6.0), (48, 48))
        tracemalloc.start()
        try:
            tables = [gauge_phase_table(vec, axis, g) for axis in range(2)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tables) == 2 and peak < 0.4e6


def _fresh_interpreter(code: str, openblas_threads: str | None = None) -> str:
    # an inherited OPENBLAS_NUM_THREADS is dropped, so it cannot stand in for the package's own
    src = str(Path(gaugeslice.__file__).parents[1])
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return out.stdout.strip()


def test_import_does_not_load_scipy():
    code = "import sys, gaugeslice; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    assert _fresh_interpreter(code) == "False"


def test_run_calls_no_lapack_and_loads_no_numpy_polynomial():
    # every LAPACK entry point of numpy.linalg raises, from before gaugeslice is imported
    paths = sorted(str(p) for p in SCENARIO_DIR.glob("*.json"))
    code = (
        "import sys\n"
        "from numpy.linalg import _umath_linalg\n"
        "def refuse(name):\n"
        "    def call(*args, **kwargs):\n"
        "        raise AssertionError(f'LAPACK {name} called')\n"
        "    return call\n"
        "for name in dir(_umath_linalg):\n"
        "    if not name.startswith('_') and callable(getattr(_umath_linalg, name)):\n"
        "        setattr(_umath_linalg, name, refuse(name))\n"
        "from gaugeslice import load_scenario\n"
        "from gaugeslice.scenarios import run\n"
        f"for path in {paths!r}:\n"
        "    assert run(load_scenario(path)).passed, path\n"
        "print('numpy.polynomial' in sys.modules)"
    )
    assert paths
    assert _fresh_interpreter(code) == "False"


# prints the process's OS thread count, or "unknown" where /proc/self/status is missing
PRINT_OS_THREADS = (
    "try:\n"
    "    with open('/proc/self/status') as status:\n"
    "        print(next(line.split()[1] for line in status if line.startswith('Threads:')))\n"
    "except OSError:\n"
    "    print('unknown')\n"
)


def _skip_unless_counted(threads: str) -> None:
    if threads == "unknown":
        pytest.skip("no /proc/self/status to count the process's OS threads")


def test_default_run_starts_no_thread():
    # a one-thread run evaluates its slice counts in the calling thread, without a pool,
    # and numpy is loaded without OpenBLAS's worker threads
    paths = sorted(str(p) for p in SCENARIO_DIR.glob("*.json"))
    code = (
        "import sys, threading\n"
        "def refuse(self):\n"
        "    raise AssertionError('thread started')\n"
        "threading.Thread.start = refuse\n"
        "from gaugeslice import load_scenario\n"
        "from gaugeslice.scenarios import run\n"
        f"for path in {paths!r}:\n"
        "    assert run(load_scenario(path)).passed, path\n"
        "print('concurrent.futures' in sys.modules)\n"
    ) + PRINT_OS_THREADS
    assert paths
    futures, threads = _fresh_interpreter(code).splitlines()
    assert futures == "False"
    _skip_unless_counted(threads)
    assert threads == "1"


def test_threads_flag_starts_no_thread():
    # --threads is accepted and ignored: every study runs in the calling thread
    path = str(SCENARIO_DIR / "constant_field_2d.json")
    code = (
        "import contextlib, io, sys, tempfile, threading\n"
        "def refuse(self):\n"
        "    raise AssertionError('thread started')\n"
        "threading.Thread.start = refuse\n"
        "from gaugeslice import cli\n"
        "with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main(['all', '--scenario', {path!r}, '--threads', '2', '--out', out])\n"
        "assert code == 0, code\n"
        "print('concurrent.futures' in sys.modules)\n"
    ) + PRINT_OS_THREADS
    futures, threads = _fresh_interpreter(code).splitlines()
    assert futures == "False"
    _skip_unless_counted(threads)
    assert threads == "1"


def test_import_leaves_openblas_num_threads_unset():
    # the one-thread setting holds for numpy's import alone; child processes inherit none
    code = "import os, gaugeslice; print('OPENBLAS_NUM_THREADS' in os.environ)"
    assert _fresh_interpreter(code) == "False"


def test_callers_openblas_num_threads_is_kept():
    code = "import os, gaugeslice\nprint(os.environ['OPENBLAS_NUM_THREADS'])\n" + PRINT_OS_THREADS
    value, threads = _fresh_interpreter(code, openblas_threads="2").splitlines()
    assert value == "2"
    # OpenBLAS starts at most one thread per usable CPU, the calling thread included
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if cpus is None or cpus < 2:
        pytest.skip("fewer than 2 CPUs for a second OpenBLAS thread")
    _skip_unless_counted(threads)
    assert threads == "2"


def test_run_does_not_load_numpy_ma():
    # np.unique imports numpy.ma; the gauge tables sort their breakpoints without it
    code = (
        "import sys; from gaugeslice import load_scenario; from gaugeslice.scenarios import run; "
        f"assert run(load_scenario({str(SCENARIO_DIR / 'harmonic_1d.json')!r})).passed; "
        "print('numpy.ma' in sys.modules)"
    )
    assert _fresh_interpreter(code) == "False"


class TestSpectral:
    def test_derivative_of_sine(self):
        g = Grid((0.0,), (2.0 * np.pi,), (64,))
        x = g.axis_coords(0)
        d1, _ = g.derivative_symbols(0)
        d = fourier_multiply(np.sin(3.0 * x), d1, 0)
        assert np.allclose(d, 3.0 * np.cos(3.0 * x), atol=1e-12)

    def test_conjugation_residual_smooth_periodic(self):
        g = Grid((-8.0,), (8.0,), (128,))
        vec = VectorPotentialSpec((lambda p: 0.5 * np.sin(2.0 * np.pi * p[..., 0] / 16.0),))
        psi = gaussian_wave(g, width=1.0)
        assert gauge_conjugation_residual(SliceOperator(g, None, vec), 0, psi) < 1e-6
