"""Declarative scenarios, potential family registries, studies and reports.

A scenario is a JSON-compatible document (versioned schema) naming a grid, a
scalar and vector potential family, Gaussian initial/final states, a total
time, slice counts, and quadrature schedule parameters.  Studies turn a
scenario into a report: rows of (quantity, value, reference, errors) where
every row is tagged with the oracle that produced its reference.
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import gauge, pathint, reference, splitstep
from .errors import CapExceededError, ScheduleError, SingularNodeError
from .fields import (
    Grid,
    ScalarPotentialSpec,
    VectorPotentialSpec,
    WaveFunction,
    _finite_real,
    gaussian_evaluator,
    gaussian_wave,
    l2_norm,
    pair_bilinear,
)

SCHEMA_VERSION = 1

# Keys a scenario document may carry, per block (None: the top level).  Unknown
# keys are rejected so a misspelled check cannot fall back to its default.
_KEYS = {
    None: {"schema_version", "name", "dimension", "grid", "scalar_potential", "vector_potential",
           "initial_state", "final_state", "time", "slice_counts", "amplitude", "checks"},
    "grid": {"lo", "hi", "shape"},
    "scalar_potential": {"family", "params"},
    "vector_potential": {"family", "params"},
    "initial_state": {"center", "width", "momentum"},
    "final_state": {"center", "width", "momentum"},
    "amplitude": {"slices", "r_start", "steps", "gap", "gap_final", "tail_window", "max_evals"},
    "checks": {"gauge_residual_tol", "trotter_floor", "trotter_order_band", "midpoint_slope_min",
               "amplitude_rel_tol"},
}

# ---------------------------------------------------------------------------
# potential families


SCALAR_FAMILIES: dict = {}
VECTOR_FAMILIES: dict = {}


def _family(registry: dict, name: str, *keys: str):
    """Register a potential builder under ``name``; ``keys`` are the params it reads.

    The registered builder rejects any other params key, so a misspelled
    parameter cannot fall back to its default, and hands the builder the
    params as :class:`_Params`, whose name prefixes every value error.
    """

    def register(build):
        def checked(ndim, params):
            if not isinstance(params, dict):
                raise ValueError(f"{name} params must be a JSON object, got {type(params).__name__}")
            unknown = sorted(set(params) - set(keys))
            if unknown:
                raise ValueError(f"unknown key {unknown[0]!r} in {name} params")
            return build(ndim, _Params(params, f"{name} params"))

        registry[name] = checked
        return build

    return register


class _Params(dict):
    """A family's params block and the name its value errors start with."""

    def __init__(self, params, name: str):
        super().__init__(params)
        self.name = name


def _reals(value, ndim: int, what: str) -> tuple[float, ...]:
    """``ndim`` finite reals from a number or a list of 1 or ``ndim`` of them."""
    entries = value if isinstance(value, (list, tuple)) else [value]
    if len(entries) not in (1, ndim):
        raise ValueError(f"{what} needs 1 or {ndim} entries, got {value!r}")
    return tuple(_finite_real(v, what) for v in entries) * (ndim // len(entries))


def _real(params: _Params, key, default) -> float:
    return _finite_real(params.get(key, default), f"{params.name} {key}")


def _broadcast(params: _Params, key, ndim, default) -> np.ndarray:
    return np.array(_reals(params.get(key, default), ndim, f"{params.name} {key}"))


@_family(SCALAR_FAMILIES, "free")
def _scalar_free(ndim, params):
    return None


@_family(SCALAR_FAMILIES, "harmonic", "strength", "center")
def _scalar_harmonic(ndim, params):
    strength = _real(params, "strength", 1.0)
    center = _broadcast(params, "center", ndim, 0.0)

    def evaluate(p):
        return strength * np.sum((p - center) ** 2, axis=-1)

    return ScalarPotentialSpec(evaluate)


@_family(SCALAR_FAMILIES, "constant", "value")
def _scalar_constant(ndim, params):
    value = _real(params, "value", 1.0)

    def evaluate(p):
        return np.full(p.shape[:-1], value)

    return ScalarPotentialSpec(evaluate)


@_family(SCALAR_FAMILIES, "step-discontinuity", "height", "edge")
def _scalar_step(ndim, params):
    height = _real(params, "height", 1.0)
    edge = _real(params, "edge", 0.0)
    edge_point = tuple([edge] + [0.0] * (ndim - 1))

    def evaluate(p):
        return np.where(p[..., 0] > edge, height, 0.0)

    return ScalarPotentialSpec(evaluate, singular_points=(edge_point,))


@_family(SCALAR_FAMILIES, "regularized-coulomb", "charge", "softening", "center")
def _scalar_regularized_coulomb(ndim, params):
    charge = _real(params, "charge", 1.0)
    soft = _real(params, "softening", 0.1)
    center = _broadcast(params, "center", ndim, 0.0)

    def evaluate(p):
        return -charge / np.sqrt(np.sum((p - center) ** 2, axis=-1) + soft**2)

    return ScalarPotentialSpec(evaluate)


@_family(SCALAR_FAMILIES, "inverse-power-singular", "coeff", "power", "center")
def _scalar_inverse_power(ndim, params):
    coeff = _real(params, "coeff", 1.0)
    power = _real(params, "power", 0.5)
    center = _broadcast(params, "center", ndim, 0.0)

    def evaluate(p):
        r = np.sqrt(np.sum((p - center) ** 2, axis=-1))
        with np.errstate(divide="ignore"):
            return coeff * r ** (-power)

    return ScalarPotentialSpec(evaluate, singular_points=(tuple(center),))


@_family(VECTOR_FAMILIES, "zero")
def _vector_zero(ndim, params):
    return None


@_family(VECTOR_FAMILIES, "constant", "values")
def _vector_constant(ndim, params):
    values = _broadcast(params, "values", ndim, 0.0)

    def make(l):
        return lambda p: np.full(p.shape[:-1], values[l])

    return VectorPotentialSpec(tuple(make(l) for l in range(ndim)))


@_family(VECTOR_FAMILIES, "sinusoidal", "amplitude", "period")
def _vector_sinusoidal(ndim, params):
    amplitude = _broadcast(params, "amplitude", ndim, 1.0)
    period = _broadcast(params, "period", ndim, 2.0 * np.pi)
    if not np.all(period):
        raise ValueError(f"{params.name} period must be nonzero, got {period.tolist()}")

    def make(l):
        freq = 2.0 * np.pi / period[l]
        return lambda p: amplitude[l] * np.sin(freq * p[..., l])

    return VectorPotentialSpec(tuple(make(l) for l in range(ndim)))


@_family(VECTOR_FAMILIES, "constant-field-2d", "field")
def _vector_constant_field_2d(ndim, params):
    if ndim != 2:
        raise ValueError("constant-field-2d requires dimension 2")
    b = _real(params, "field", 1.0)
    comps = (
        lambda p: -0.5 * b * p[..., 1],
        lambda p: 0.5 * b * p[..., 0],
    )
    return VectorPotentialSpec(comps)


@_family(VECTOR_FAMILIES, "linear", "matrix")
def _vector_linear(ndim, params):
    rows = params.get("matrix")
    if not (isinstance(rows, (list, tuple)) and len(rows) == ndim
            and all(isinstance(row, (list, tuple)) and len(row) == ndim for row in rows)):
        raise ValueError(f"{params.name} matrix needs {ndim} rows of {ndim} entries")
    matrix = np.array([_reals(row, ndim, f"{params.name} matrix") for row in rows])

    def make(l):
        return lambda p: np.einsum("m,...m->...", matrix[l], p)

    return VectorPotentialSpec(tuple(make(l) for l in range(ndim)))


# ---------------------------------------------------------------------------
# scenario model


@dataclass(frozen=True)
class StateSpec:
    center: tuple[float, ...]
    width: tuple[float, ...]
    momentum: tuple[float, ...]

    def on_grid(self, grid: Grid):
        return gaussian_wave(grid, self.center, self.width, self.momentum)

    def evaluator(self, ndim: int):
        return gaussian_evaluator(self.center, self.width, self.momentum, ndim)


@dataclass(frozen=True)
class Scenario:
    name: str
    ndim: int
    grid: Grid
    scalar: ScalarPotentialSpec | None
    vector: VectorPotentialSpec | None
    initial_state: StateSpec
    final_state: StateSpec
    time: float
    slice_counts: tuple[int, ...]
    amplitude_params: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)


def _state_from_config(cfg: dict, ndim: int, block: str) -> StateSpec:
    def tup(key, default):
        return _reals(cfg.get(key, default), ndim, f"{block} {key}")

    width = tup("width", 1.0)
    if not all(w > 0 for w in width):
        raise ValueError(f"{block} width must be positive, got {list(width)}")
    return StateSpec(tup("center", 0.0), width, tup("momentum", 0.0))


def _count(value, what: str) -> int:
    """A positive whole number: an integer, or an integral real such as 1e8."""
    if not (_finite_real(value, what) >= 1 and float(value).is_integer()):
        raise ValueError(f"{what} {value!r} is not a positive integer")
    return int(value)


def _amplitude_params(block: dict) -> dict:
    """An ``amplitude`` block with its defaults filled in and every value checked."""
    params = {"slices": [1], "r_start": 6.0, "steps": 16, "gap": 0.0,
              "gap_final": block.get("gap", 0.0), "tail_window": pathint.DEFAULT_TAIL_WINDOW,
              "max_evals": pathint.DEFAULT_EVAL_CAP, **block}
    slices = params["slices"] if isinstance(params["slices"], (list, tuple)) else [params["slices"]]
    params["slices"] = [_count(k, "amplitude slices") for k in slices]
    if len(set(params["slices"])) != len(params["slices"]):
        raise ValueError(f"amplitude slices must be distinct, got {params['slices']}")
    for key in ("steps", "tail_window", "max_evals"):
        params[key] = _count(params[key], f"amplitude {key}")
    for key in ("r_start", "gap", "gap_final"):
        params[key] = _finite_real(params[key], f"amplitude {key}")
    r_start, gap, gap_final = params["r_start"], params["gap"], params["gap_final"]
    if r_start <= 0 or gap < 0 or not (gap_final == gap or 0 < gap_final < gap):
        raise ValueError(f"amplitude needs r_start > 0, gap >= 0 and gap_final equal to gap or in "
                         f"(0, gap), got {r_start}, {gap} and {gap_final}")
    return params


def _checks(block: dict) -> dict:
    """A ``checks`` block with every value checked, so that some run can honour it."""
    checks = {}
    for key, value in block.items():
        if key == "trotter_order_band":
            if not (isinstance(value, (list, tuple)) and len(value) == 2):
                raise ValueError(f"checks {key} {value!r} is not a pair [low, high]")
            checks[key] = tuple(_finite_real(v, f"checks {key} entry") for v in value)
            if checks[key][0] > checks[key][1]:
                raise ValueError(f"checks {key} {value!r} needs low <= high")
        else:
            checks[key] = _finite_real(value, f"checks {key}")
            if key in ("gauge_residual_tol", "trotter_floor", "amplitude_rel_tol") and checks[key] < 0:
                raise ValueError(f"checks {key} {value!r} must be nonnegative")
    if "trotter_floor" in checks and "trotter_order_band" in checks:
        raise ValueError("checks trotter_floor replaces the order fit, so it excludes trotter_order_band")
    return checks


def scenario_from_dict(cfg: dict) -> Scenario:
    for block, allowed in _KEYS.items():
        value = cfg if block is None else cfg.get(block, {})
        if not isinstance(value, dict):
            raise ValueError(f"{block or 'the scenario'} must be a JSON object, got {type(value).__name__}")
        unknown = sorted(set(value) - allowed)
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r} in {block or 'the scenario'}")
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported scenario schema version {version!r}")
    name = cfg["name"]
    # the reports are written as <name>_<study> inside the output directory
    if not (isinstance(name, str) and name not in ("", ".", "..")
            and not {"/", "\\", "\0"} & set(name)):
        raise ValueError(f"name {name!r} is not a bare file name")
    ndim = _count(cfg["dimension"], "dimension")
    gcfg = cfg["grid"]
    grid = Grid(tuple(gcfg["lo"]), tuple(gcfg["hi"]), tuple(gcfg["shape"]))
    if grid.ndim != ndim:
        raise ValueError("grid dimension does not match the scenario dimension")

    scfg = cfg.get("scalar_potential", {"family": "free"})
    family = scfg.get("family", "free")
    if family not in SCALAR_FAMILIES:
        raise ValueError(f"unknown scalar potential family {family!r}")
    scalar = SCALAR_FAMILIES[family](ndim, scfg.get("params", {}))

    vcfg = cfg.get("vector_potential", {"family": "zero"})
    vfamily = vcfg.get("family", "zero")
    if vfamily not in VECTOR_FAMILIES:
        raise ValueError(f"unknown vector potential family {vfamily!r}")
    vector = VECTOR_FAMILIES[vfamily](ndim, vcfg.get("params", {}))

    t = _finite_real(cfg["time"], "time")
    if not t > 0:
        raise ValueError(f"time must be positive, got {t}")
    slice_counts = tuple(_count(k, "slice_counts") for k in cfg.get("slice_counts", (4, 8, 16, 32)))
    if not slice_counts:
        raise ValueError("slice_counts needs at least one entry")
    if any(b <= a for a, b in zip(slice_counts, slice_counts[1:])):
        raise ValueError(f"slice_counts must be strictly increasing, got {list(slice_counts)}")
    checks = _checks(cfg.get("checks", {}))
    # without a floor the Trotter study fits an order, which needs two points
    if len(slice_counts) < 2 and "trotter_floor" not in checks:
        raise ValueError(f"slice_counts needs at least two entries unless checks trotter_floor "
                         f"is set, got {list(slice_counts)}")
    # an absent or empty block means no amplitude study in ``all``
    amplitude = _amplitude_params(cfg["amplitude"]) if cfg.get("amplitude") else {}
    return Scenario(
        name=name,
        ndim=ndim,
        grid=grid,
        scalar=scalar,
        vector=vector,
        initial_state=_state_from_config(cfg.get("initial_state", {}), ndim, "initial_state"),
        final_state=_state_from_config(cfg.get("final_state", {}), ndim, "final_state"),
        time=t,
        slice_counts=slice_counts,
        amplitude_params=amplitude,
        checks=checks,
    )


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# reports


CSV_COLUMNS = ("scenario", "quantity", "k_or_step", "value", "reference", "abs_error", "rel_error", "oracle")


@dataclass
class ReportRow:
    scenario: str
    quantity: str
    k_or_step: str
    value: complex
    reference: complex | None
    abs_error: float | None
    rel_error: float | None
    oracle: str


@dataclass
class Report:
    scenario: str
    rows: list[ReportRow] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    passed: bool = True

    def add(self, quantity, k_or_step, value, reference=None, oracle="", rel_scale=None) -> ReportRow:
        """Append a row with its errors against ``reference`` and return it."""
        if reference is not None:
            abs_error = abs(value - reference)
            scale = rel_scale if rel_scale is not None else abs(reference)
            rel_error = abs_error / scale if scale > 0 else None
        else:
            abs_error = rel_error = None
        row = ReportRow(self.scenario, quantity, str(k_or_step), value, reference, abs_error, rel_error, oracle)
        self.rows.append(row)
        return row

    def merge(self, other: "Report") -> None:
        self.rows.extend(other.rows)
        self.diagnostics.update(other.diagnostics)
        self.timings.update(other.timings)
        self.passed = self.passed and other.passed

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in self.rows:
                writer.writerow(
                    [
                        row.scenario,
                        row.quantity,
                        row.k_or_step,
                        _fmt_number(row.value),
                        _fmt_number(row.reference),
                        _fmt_number(row.abs_error),
                        _fmt_number(row.rel_error),
                        row.oracle,
                    ]
                )

    def write_json(self, path) -> None:
        doc = {
            "scenario": self.scenario,
            "passed": self.passed,
            "rows": [
                {
                    "quantity": r.quantity,
                    "k_or_step": r.k_or_step,
                    "value": _jsonify(r.value),
                    "reference": _jsonify(r.reference),
                    "abs_error": r.abs_error,
                    "rel_error": r.rel_error,
                    "oracle": r.oracle,
                }
                for r in self.rows
            ],
            "diagnostics": _jsonify(self.diagnostics),
            "timings": self.timings,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)


def _fmt_number(v):
    if v is None:
        return ""
    if isinstance(v, complex):
        if v.imag == 0.0:
            return repr(v.real)
        return f"{v.real!r}{v.imag:+}j"
    return repr(float(v))


def _jsonify(v):
    if isinstance(v, dict):
        return {k: _jsonify(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonify(x) for x in v]
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


# ---------------------------------------------------------------------------
# studies


def _fit_loglog_slope(x, y) -> float:
    x = np.log(np.asarray(x, float))
    y = np.log(np.asarray(y, float))
    return float(np.polyfit(x, y, 1)[0])


def dense_evolution(scenario: Scenario) -> tuple[WaveFunction, dict]:
    """The initial state evolved to the scenario time by the reference route.

    Applies H matrix-free and expands exp(-itH) in Chebyshev polynomials
    (:func:`reference.chebyshev_evolve`), in memory linear in the grid size at
    any grid size.  Returns the evolved state and its ``reference_evolution``
    diagnostics, whose term count is the cost: one action per term.
    """
    action = reference.HamiltonianAction(scenario.grid, scenario.vector, scenario.scalar)
    evolved, terms = reference.chebyshev_evolve(
        action, scenario.initial_state.on_grid(scenario.grid), scenario.time
    )
    info = {"method": "chebyshev", "terms": terms, "spectral_interval": list(action.spectral_interval)}
    return evolved, info


def run_trotter_study(scenario: Scenario, threads: int = 1,
                      exact: WaveFunction | None = None) -> Report:
    """Split-step error against the reference evolution per slice count.

    ``exact`` is the state :func:`dense_evolution` returns for the scenario,
    computed here if not given.
    """
    report = Report(scenario.name)
    start = time.perf_counter()
    grid = scenario.grid
    if exact is None:
        exact, report.diagnostics["reference_evolution"] = dense_evolution(scenario)
    psi0 = scenario.initial_state.on_grid(grid)
    op = splitstep.SliceOperator(grid, scenario.scalar, scenario.vector)

    def one_k(k: int):
        evolved = splitstep.evolve(op, psi0, splitstep.TimeSlicing(scenario.time, k))
        err = l2_norm(evolved.with_values(evolved.values - exact.values))
        drift = abs(l2_norm(evolved) - l2_norm(psi0))
        return err, drift

    ks = list(scenario.slice_counts)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(one_k, ks))

    errors = []
    for k, (err, drift) in zip(ks, results):
        errors.append(err)
        report.add("split_vs_dense_error", k, err, reference=0.0, oracle="dense", rel_scale=1.0)
        report.add("norm_drift", k, drift, reference=0.0, oracle="unitarity", rel_scale=1.0)
        if drift > k * 1e-12:
            report.passed = False

    checks = scenario.checks
    floor = checks.get("trotter_floor")
    if floor is not None:
        if any(e > floor for e in errors):
            report.passed = False
        report.diagnostics["trotter_floor"] = floor
    else:
        order = -_fit_loglog_slope(ks, np.maximum(errors, 1e-300))
        report.add("fitted_order", "-", order, oracle="dense")
        report.diagnostics["fitted_order"] = order
        if any(b >= a for a, b in zip(errors, errors[1:])):
            report.passed = False
        band = checks.get("trotter_order_band")
        if band is not None and not (band[0] <= order <= band[1]):
            report.passed = False
    report.diagnostics["trotter_errors"] = dict(zip(map(str, ks), errors))
    report.timings["trotter"] = time.perf_counter() - start
    return report


def run_gauge_check(scenario: Scenario) -> Report:
    """Conjugation residual per axis and the midpoint-discrepancy slope fit."""
    report = Report(scenario.name)
    start = time.perf_counter()
    grid = scenario.grid
    psi = scenario.initial_state.on_grid(grid)
    tol = scenario.checks.get("gauge_residual_tol", 1e-6)

    if scenario.vector is None:
        for axis in range(scenario.ndim):
            report.add("conjugation_residual", f"axis{axis}", 0.0, reference=0.0,
                       oracle="spectral", rel_scale=1.0)
    else:
        for axis in range(scenario.ndim):
            resid = gauge.gauge_conjugation_residual(scenario.vector, axis, psi)
            report.add("conjugation_residual", f"axis{axis}", resid, reference=0.0,
                       oracle="spectral", rel_scale=1.0)
            if resid > tol:
                report.passed = False

    if scenario.vector is not None:
        base = np.full(scenario.ndim, 0.2)
        direction = np.ones(scenario.ndim) / np.sqrt(scenario.ndim)
        seps = 0.4 * 0.5 ** np.arange(5)
        discrepancies = [
            gauge.midpoint_discrepancy(scenario.vector, base + s * direction, base)
            for s in seps
        ]
        if max(discrepancies) <= 1e-12:
            report.add("midpoint_discrepancy_max", "-", max(discrepancies), reference=0.0,
                       oracle="symbolic", rel_scale=1.0)
            report.diagnostics["midpoint_constant_field"] = True
        else:
            slope = _fit_loglog_slope(seps, discrepancies)
            report.add("midpoint_slope", "-", slope, oracle="symbolic")
            report.diagnostics["midpoint_slope"] = slope
            min_slope = scenario.checks.get("midpoint_slope_min")
            if min_slope is not None and slope < min_slope:
                report.passed = False
    report.timings["gauge"] = time.perf_counter() - start
    return report


def _closed_form_free_amplitude(scenario: Scenario) -> complex:
    """Pairing of the final state with the exactly evolved initial Gaussian (1D free).

    The evolved packet has complex width^2 s2 = w^2 + i t and drifts by 2 p t
    (:func:`reference.exact_free_gaussian`).  In y = x - c_final the product is
    N exp(-alpha y^2 + beta y + gamma), whose integral is
    N sqrt(pi/alpha) exp(beta^2/(4 alpha) + gamma).
    """
    t = scenario.time
    (c1, w1, p1), (c0, w0, p0) = (
        (s.center[0], s.width[0], s.momentum[0]) for s in (scenario.final_state, scenario.initial_state)
    )
    s2 = w0**2 + 1j * t
    shift = c0 + 2.0 * p0 * t - c1
    alpha = 0.25 / w1**2 + 0.25 / s2
    beta = 1j * (p1 + p0) + shift / (2.0 * s2)
    gamma = 1j * p0 * (c1 - c0 - p0 * t) - shift**2 / (4.0 * s2)
    norm = (4.0 * np.pi**2 * w1**2 * w0**2) ** (-0.25) * np.sqrt(w0**2 / s2)
    return complex(norm * np.sqrt(np.pi / alpha) * np.exp(beta**2 / (4.0 * alpha) + gamma))


def run_amplitude_study(scenario: Scenario, exact: WaveFunction | None = None) -> Report:
    """Excised path-integral amplitudes vs split-step / reference / closed-form oracles.

    ``exact`` is the state :func:`dense_evolution` returns for the scenario,
    computed here if not given; its pairing with the final state is the
    reference row tagged ``dense``.  A singular mesh node, a gap that excises
    a whole axis and a tripped evaluation cap are re-raised with a hint naming
    the ``amplitude`` key to change.
    """
    report = Report(scenario.name)
    start = time.perf_counter()
    params = scenario.amplitude_params or _amplitude_params({})

    phi_fn = scenario.final_state.evaluator(scenario.ndim)
    psi_fn = scenario.initial_state.evaluator(scenario.ndim)
    grid = scenario.grid
    phi_grid = scenario.final_state.on_grid(grid)
    psi_grid = scenario.initial_state.on_grid(grid)

    free = scenario.scalar is None and scenario.vector is None
    rel_tol = scenario.checks.get("amplitude_rel_tol")

    if exact is None:
        exact, report.diagnostics["reference_evolution"] = dense_evolution(scenario)
    dense_ref = pair_bilinear(phi_grid, exact)
    op = splitstep.SliceOperator(grid, scenario.scalar, scenario.vector)

    for k in params["slices"]:
        eps = scenario.time / k
        schedule = pathint.BoxSchedule.fresnel(
            eps,
            params["r_start"],
            steps=params["steps"],
            gap=params["gap"],
            gap_final=params["gap_final"],
            tail_window=params["tail_window"],
        )
        try:
            estimate = pathint.amplitude_quadrature(
                phi_fn,
                psi_fn,
                scenario.time,
                k,
                schedule,
                ndim=scenario.ndim,
                vector=scenario.vector,
                scalar=scenario.scalar,
                max_evals=params["max_evals"],
            )
        except SingularNodeError as exc:
            raise SingularNodeError(f"{exc}; set amplitude.gap > 0 to excise it") from exc
        except ScheduleError as exc:
            raise ScheduleError(f"{exc}; lower amplitude.gap") from exc
        except CapExceededError as exc:
            if exc.suggested_slices == 0:
                hint = "one slice exceeds the cap: lower amplitude.r_start or raise amplitude.max_evals"
            else:
                hint = f"try slices <= {exc.suggested_slices}"
            raise CapExceededError(f"{exc} ({hint})", exc.suggested_slices) from exc
        report.diagnostics[f"amplitude_k{k}"] = {
            "raw": list(estimate.raw),
            "radii": list(estimate.radii),
            "tail_oscillation": estimate.tail_oscillation,
            "mesh_sizes": list(estimate.mesh_sizes),
        }

        evolved = splitstep.evolve(op, psi_grid, splitstep.TimeSlicing(scenario.time, k))
        split_ref = pair_bilinear(phi_grid, evolved)
        primary = report.add("amplitude", k, estimate.value, reference=split_ref, oracle="split-step")
        if free and scenario.ndim == 1:
            primary = report.add("amplitude", k, estimate.value,
                                 reference=_closed_form_free_amplitude(scenario), oracle="closed-form")
        report.add("amplitude", k, estimate.value, reference=dense_ref, oracle="dense")

        if not estimate.converged:
            report.passed = False
        # a zero reference (no relative error) or a NaN error fails the check
        if rel_tol is not None and not (primary.rel_error is not None and primary.rel_error <= rel_tol):
            report.passed = False
    report.timings["amplitude"] = time.perf_counter() - start
    return report


def run_all(scenario: Scenario, threads: int = 1) -> Report:
    report = Report(scenario.name)
    report.merge(run_gauge_check(scenario))
    # one reference evolution serves both the Trotter and the amplitude oracle
    start = time.perf_counter()
    exact, report.diagnostics["reference_evolution"] = dense_evolution(scenario)
    report.timings["dense_reference"] = time.perf_counter() - start
    report.merge(run_trotter_study(scenario, threads=threads, exact=exact))
    if scenario.amplitude_params:
        report.merge(run_amplitude_study(scenario, exact=exact))
    return report
