"""Declarative scenarios, potential family registries, studies and reports.

A scenario is a JSON-compatible document (versioned schema) naming a grid, a
scalar and vector potential family, Gaussian initial/final states, a total
time, slice counts, and quadrature schedule parameters.  Studies turn a
scenario into a report: rows of (quantity, value, reference, errors) where
every row is tagged with the oracle that produced its reference.  Each rule a
study applies is one :meth:`Report.check`, named ``norm_drift``, ``trotter_decreasing``,
``amplitude_converged`` or by its :data:`CHECKS` key; a rule that fails is listed in
``Report.failures``.  A command runs its studies through :func:`run`.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import gauge, pathint, reference, splitstep
from .errors import CapExceededError, NonFiniteError, ScheduleError, SingularNodeError
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


def _nonnegative(value, what: str) -> float:
    if _finite_real(value, what) < 0:
        raise ValueError(f"{what} {value!r} must be nonnegative")
    return float(value)


def _band(value, what: str) -> tuple[float, float]:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ValueError(f"{what} {value!r} is not a pair [low, high]")
    low, high = (_finite_real(v, f"{what} entry") for v in value)
    if low > high:
        raise ValueError(f"{what} {value!r} needs low <= high")
    return low, high


# Each configurable check, by its key in a scenario's ``checks`` block, and the
# validator of its value; the study that applies it records it under that key.
CHECKS = {"gauge_residual_tol": _nonnegative, "trotter_floor": _nonnegative, "trotter_order_band": _band,
          "midpoint_slope_min": _finite_real, "amplitude_rel_tol": _nonnegative}

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
    "checks": CHECKS,
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
            return build(ndim, _Params(params, keys, f"{name} params"))

        registry[name] = checked
        return build

    return register


def _object(value, keys, where: str) -> dict:
    """``value``, checked to be a JSON object whose keys are all among ``keys``."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(value).__name__}")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {where}")
    return value


class _Params(dict):
    """A family's params block, holding only ``keys``, and the name its value errors start with."""

    def __init__(self, params, keys, name: str):
        super().__init__(_object(params, keys, name))
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
        return coeff * r ** (-power)

    return ScalarPotentialSpec(evaluate, singular_points=(tuple(center),))


@_family(VECTOR_FAMILIES, "zero")
def _vector_zero(ndim, params):
    return None


def _affine(matrix: np.ndarray, offset: np.ndarray) -> VectorPotentialSpec:
    """The vector potential a_l(p) = matrix[l] . p + offset[l]."""

    def make(l):
        return lambda p: p @ matrix[l] + offset[l]

    return VectorPotentialSpec(tuple(make(l) for l in range(len(offset))))


@_family(VECTOR_FAMILIES, "constant", "values")
def _vector_constant(ndim, params):
    return _affine(np.zeros((ndim, ndim)), _broadcast(params, "values", ndim, 0.0))


@_family(VECTOR_FAMILIES, "sinusoidal", "amplitude", "period")
def _vector_sinusoidal(ndim, params):
    amplitude = _broadcast(params, "amplitude", ndim, 1.0)
    period = _broadcast(params, "period", ndim, 2.0 * np.pi)
    with np.errstate(divide="ignore", over="ignore"):
        freq = 2.0 * np.pi / period
    if not np.all(np.isfinite(freq)):
        raise ValueError(f"{params.name} period {period.tolist()} has no finite frequency 2 pi / period")

    def make(l):
        return lambda p: amplitude[l] * np.sin(freq[l] * p[..., l])

    return VectorPotentialSpec(tuple(make(l) for l in range(ndim)))


@_family(VECTOR_FAMILIES, "constant-field-2d", "field")
def _vector_constant_field_2d(ndim, params):
    if ndim != 2:
        raise ValueError("constant-field-2d requires dimension 2")
    b = _real(params, "field", 1.0)
    return _affine(np.array([[0.0, -0.5 * b], [0.5 * b, 0.0]]), np.zeros(2))


@_family(VECTOR_FAMILIES, "linear", "matrix")
def _vector_linear(ndim, params):
    rows = params.get("matrix")
    if not (isinstance(rows, (list, tuple)) and len(rows) == ndim
            and all(isinstance(row, (list, tuple)) and len(row) == ndim for row in rows)):
        raise ValueError(f"{params.name} matrix needs {ndim} rows of {ndim} entries")
    matrix = np.array([_reals(row, ndim, f"{params.name} matrix") for row in rows])
    return _affine(matrix, np.zeros(ndim))


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


def _amplitude_params(block: dict, t: float) -> dict:
    """An ``amplitude`` block with its defaults filled in and every value checked.

    The schedule is held to :func:`pathint.check_schedule` at the scenario's
    time ``t``, so a bad block fails at load.
    """
    params = {"slices": [1], "r_start": 6.0, "steps": pathint.DEFAULT_STEPS, "gap": 0.0,
              "gap_final": block.get("gap", 0.0), "tail_window": pathint.DEFAULT_TAIL_WINDOW,
              "max_evals": pathint.DEFAULT_EVAL_CAP, **block}
    slices = params["slices"] if isinstance(params["slices"], (list, tuple)) else [params["slices"]]
    params["slices"] = [_count(k, "amplitude slices") for k in slices]
    if not params["slices"]:
        # no slice count would apply no amplitude check and still pass
        raise ValueError("amplitude slices needs at least one entry")
    if len(set(params["slices"])) != len(params["slices"]):
        raise ValueError(f"amplitude slices must be distinct, got {params['slices']}")
    for key in ("steps", "tail_window", "max_evals"):
        params[key] = _count(params[key], f"amplitude {key}")
    for key in ("r_start", "gap", "gap_final"):
        params[key] = _finite_real(params[key], f"amplitude {key}")
    try:
        pathint.check_schedule(t, params["r_start"], params["steps"], params["tail_window"],
                               params["gap"], params["gap_final"])
    except ScheduleError as exc:
        raise ValueError(f"amplitude: {exc}") from exc
    return params


def _potential(cfg: dict, kind: str, registry: dict, default: str, ndim: int):
    """The ``<kind>_potential`` block built by its family in ``registry`` (``default`` if absent)."""
    block = cfg.get(f"{kind}_potential", {})
    family = block.get("family", default)
    if not (isinstance(family, str) and family in registry):
        raise ValueError(f"unknown {kind} potential family {family!r}")
    return registry[family](ndim, block.get("params", {}))


def scenario_from_dict(cfg: dict) -> Scenario:
    for block, allowed in _KEYS.items():
        _object(cfg if block is None else cfg.get(block, {}), allowed, block or "the scenario")
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

    scalar = _potential(cfg, "scalar", SCALAR_FAMILIES, "free", ndim)
    vector = _potential(cfg, "vector", VECTOR_FAMILIES, "zero", ndim)
    t = _finite_real(cfg["time"], "time")
    if not t > 0:
        raise ValueError(f"time must be positive, got {t}")
    slice_counts = tuple(_count(k, "slice_counts") for k in cfg.get("slice_counts", (4, 8, 16, 32)))
    if not slice_counts:
        raise ValueError("slice_counts needs at least one entry")
    if any(b <= a for a, b in zip(slice_counts, slice_counts[1:])):
        raise ValueError(f"slice_counts must be strictly increasing, got {list(slice_counts)}")
    # a split-step evolution applies one slice per count, under the reference's work bound
    if slice_counts[-1] > reference.MAX_CHEBYSHEV_RADIUS:
        raise ValueError(f"slice_counts entry {slice_counts[-1]} exceeds the bound "
                         f"{reference.MAX_CHEBYSHEV_RADIUS:g} on operator applications")
    checks = {key: CHECKS[key](value, f"checks {key}") for key, value in cfg.get("checks", {}).items()}
    if "trotter_floor" in checks and "trotter_order_band" in checks:
        raise ValueError("checks trotter_floor replaces the order fit, so it excludes trotter_order_band")
    # without a floor the Trotter study fits an order, which needs two points
    if len(slice_counts) < 2 and "trotter_floor" not in checks:
        raise ValueError(f"slice_counts needs at least two entries unless checks trotter_floor "
                         f"is set, got {list(slice_counts)}")
    # an absent or empty block means no amplitude study in ``all``
    amplitude = _amplitude_params(cfg["amplitude"], t) if cfg.get("amplitude") else {}
    initial, final = (_state_from_config(cfg.get(block, {}), ndim, block)
                      for block in ("initial_state", "final_state"))
    return Scenario(name, ndim, grid, scalar, vector, initial, final, t, slice_counts, amplitude, checks)


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# reports


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

    def cells(self, convert) -> dict:
        """The row by column name, each value passed through ``convert``."""
        return {column: convert(getattr(self, column)) for column in CSV_COLUMNS}


CSV_COLUMNS = tuple(column.name for column in fields(ReportRow))


@dataclass
class Report:
    scenario: str
    rows: list[ReportRow] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    failures: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, name: str, holds: bool, observed, bound, at: str | None = None) -> None:
        """Record rule ``name``: unless it ``holds``, ``failures`` gets its ``observed`` value and
        ``bound``, and ``at``, the row's ``k_or_step``, for a rule checked once per row."""
        if not holds:
            where = {} if at is None else {"at": at}
            self.failures.append({"check": name, **where, "observed": observed, "bound": bound})

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

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            writer.writerows(row.cells(_csv_cell).values() for row in self.rows)

    def write_json(self, path) -> None:
        doc = {
            "scenario": self.scenario,
            "passed": self.passed,
            "failures": _jsonify(self.failures),
            # the scenario is named once, above
            "rows": [{column: value for column, value in row.cells(_jsonify).items() if column != "scenario"}
                     for row in self.rows],
            "diagnostics": _jsonify(self.diagnostics),
            "timings": self.timings,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, str):
        return v
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
    """Least-squares slope of log y against log x, in closed form.

    sum (X - mean X)(Y - mean Y) / sum (X - mean X)^2 with X = log x and
    Y = log y; the loader guarantees two distinct x.  No LAPACK call, unlike
    ``np.polyfit``, whose slope it equals to rounding.
    """
    x = np.log(np.asarray(x, float))
    y = np.log(np.asarray(y, float))
    dx = x - x.mean()
    return float(np.dot(dx, y - y.mean()) / np.dot(dx, dx))


def run_trotter_study(scenario: Scenario, report: Report, psi0: WaveFunction, exact: WaveFunction,
                      op: splitstep.SliceOperator) -> None:
    """Split-step error against the reference evolution per slice count, into ``report``.

    ``psi0`` is the scenario's initial state, ``exact`` its reference evolution
    and ``op`` its split-step operator, all as :func:`run` builds them.
    """
    ks = list(scenario.slice_counts)
    norm0 = l2_norm(psi0)
    errors = []
    for k in ks:
        evolved = splitstep.evolve(op, psi0, scenario.time, k)
        err = l2_norm(evolved.with_values(evolved.values - exact.values))
        drift = abs(l2_norm(evolved) - norm0)
        errors.append(err)
        report.add("split_vs_dense_error", k, err, reference=0.0, oracle="dense", rel_scale=1.0)
        row = report.add("norm_drift", k, drift, reference=0.0, oracle="unitarity", rel_scale=1.0)
        report.check("norm_drift", drift <= k * 1e-12, drift, k * 1e-12, row.k_or_step)

    floor = scenario.checks.get("trotter_floor")
    if floor is not None:
        report.check("trotter_floor", all(e <= floor for e in errors), max(errors), floor)
        report.diagnostics["trotter_floor"] = floor
    else:
        order = -_fit_loglog_slope(ks, np.maximum(errors, 1e-300))
        report.add("fitted_order", "-", order, oracle="dense")
        report.diagnostics["fitted_order"] = order
        report.check("trotter_decreasing", np.all(np.diff(errors) < 0), errors, "strictly decreasing")
        band = scenario.checks.get("trotter_order_band")
        report.check("trotter_order_band", band is None or band[0] <= order <= band[1], order, band)
    report.diagnostics["trotter_errors"] = dict(zip(map(str, ks), errors))


def run_gauge_check(scenario: Scenario, report: Report, psi0: WaveFunction,
                    op: splitstep.SliceOperator) -> None:
    """Conjugation residual per axis and the midpoint-discrepancy slope fit, into ``report``.

    The residual acts on the initial state ``psi0`` with the field samples and
    gauge phases of the split-step operator ``op``, both as :func:`run` builds them.
    """
    tol = scenario.checks.get("gauge_residual_tol", 1e-6)
    for axis in range(scenario.ndim):
        # without a field the gauge phases are all 1, so the residual is exactly 0
        resid = 0.0 if scenario.vector is None else gauge.gauge_conjugation_residual(op, axis, psi0)
        row = report.add("conjugation_residual", f"axis{axis}", resid, reference=0.0,
                         oracle="spectral", rel_scale=1.0)
        report.check("gauge_residual_tol", resid <= tol, resid, tol, row.k_or_step)
    if scenario.vector is None:
        return

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
        report.check("midpoint_slope_min", min_slope is None or slope >= min_slope, slope, min_slope)


def _closed_form_free_amplitude(scenario: Scenario) -> complex:
    """Pairing of the final state with the exactly evolved initial Gaussian (1D free).

    The evolved packet has complex width^2 s2 = w^2 + i t and drifts by 2 p t,
    the closed form of the free evolution.  In y = x - c_final the product is
    N exp(-alpha y^2 + beta y + gamma), whose integral is
    N sqrt(pi/alpha) exp(beta^2/(4 alpha) + gamma).  A square that overflows
    raises :class:`NonFiniteError`.  N takes sqrt(w1 w0) and sqrt(2 pi) apart:
    w1 w0 <= max(w1, w0)^2 is finite wherever the squares are.
    """
    t = scenario.time
    (c1, w1, p1), (c0, w0, p0) = (
        (s.center[0], s.width[0], s.momentum[0]) for s in (scenario.final_state, scenario.initial_state)
    )
    try:
        s2 = w0**2 + 1j * t
        shift = c0 + 2.0 * p0 * t - c1
        alpha = 0.25 / w1**2 + 0.25 / s2
        beta = 1j * (p1 + p0) + shift / (2.0 * s2)
        gamma = 1j * p0 * (c1 - c0 - p0 * t) - shift**2 / (4.0 * s2)
        norm = (w1 * w0) ** -0.5 / np.sqrt(2.0 * np.pi) * np.sqrt(w0**2 / s2)
    except OverflowError as exc:
        raise NonFiniteError("the closed-form free amplitude overflows: a state width or the "
                             "centres' separation is too large to square") from exc
    return complex(norm * np.sqrt(np.pi / alpha) * np.exp(beta**2 / (4.0 * alpha) + gamma))


def run_amplitude_study(scenario: Scenario, report: Report, psi0: WaveFunction, exact: WaveFunction,
                        op: splitstep.SliceOperator) -> None:
    """Excised path-integral amplitudes vs split-step / reference / closed-form oracles, into ``report``.

    ``psi0`` is the scenario's initial state, ``exact`` its reference
    evolution and ``op`` its split-step operator, all as :func:`run` builds
    them; the pairing of ``exact`` with the final state is the reference row
    tagged ``dense``.  A singular mesh node, a gap that excises a whole axis
    and a tripped evaluation cap are re-raised with a hint naming the
    ``amplitude`` key to change.
    """
    params = scenario.amplitude_params
    # every other key of the block is a keyword of the quadrature
    schedule = {key: value for key, value in params.items() if key != "slices"}

    phi_fn = scenario.final_state.evaluator(scenario.ndim)
    psi_fn = scenario.initial_state.evaluator(scenario.ndim)
    phi_grid = scenario.final_state.on_grid(scenario.grid)

    free_1d = scenario.scalar is None and scenario.vector is None and scenario.ndim == 1
    closed_form = _closed_form_free_amplitude(scenario) if free_1d else None
    rel_tol = scenario.checks.get("amplitude_rel_tol")

    dense_ref = pair_bilinear(phi_grid, exact)

    for k in params["slices"]:
        try:
            estimate = pathint.amplitude_quadrature(phi_fn, psi_fn, scenario.time, k, **schedule,
                                                    ndim=scenario.ndim, vector=scenario.vector,
                                                    scalar=scenario.scalar)
        except SingularNodeError as exc:
            raise SingularNodeError(f"{exc}; set amplitude.gap > 0 to excise it") from exc
        except ScheduleError as exc:
            raise ScheduleError(f"{exc}; lower amplitude.gap") from exc
        except CapExceededError as exc:
            if exc.suggested_slices == 0:
                # the last radius r + (steps - 1) 2 pi eps / r is least at r = sqrt(2 pi eps (steps - 1))
                least = np.sqrt(2.0 * np.pi * scenario.time / k * (params["steps"] - 1))
                move = "raise" if params["r_start"] < least else "lower"
                hint = f"one slice exceeds the cap: {move} amplitude.r_start or raise amplitude.max_evals"
            else:
                hint = f"try slices <= {exc.suggested_slices}"
            raise CapExceededError(f"{exc} ({hint})", exc.suggested_slices) from exc
        report.diagnostics[f"amplitude_k{k}"] = {
            "raw": list(estimate.raw),
            "radii": list(estimate.radii),
            "tail_oscillation": estimate.tail_oscillation,
            "mesh_sizes": list(estimate.mesh_sizes),
        }

        evolved = splitstep.evolve(op, psi0, scenario.time, k)
        split_ref = pair_bilinear(phi_grid, evolved)
        primary = report.add("amplitude", k, estimate.value, reference=split_ref, oracle="split-step")
        if closed_form is not None:
            primary = report.add("amplitude", k, estimate.value, reference=closed_form, oracle="closed-form")
        report.add("amplitude", k, estimate.value, reference=dense_ref, oracle="dense")

        report.check("amplitude_converged", estimate.converged, estimate.tail_oscillation,
                     pathint.TAIL_OSCILLATION_TOL, primary.k_or_step)
        # a zero reference (no relative error) or a NaN error fails the check
        held = rel_tol is None or (primary.rel_error is not None and primary.rel_error <= rel_tol)
        report.check("amplitude_rel_tol", held, primary.rel_error, rel_tol, primary.k_or_step)


# the studies each command runs, in report order
_STUDIES = {"all": ("gauge", "trotter", "amplitude"), "gauge": ("gauge",),
            "trotter": ("trotter",), "amplitude": ("amplitude",)}


def run(scenario: Scenario, command: str = "all") -> Report:
    """The report of ``command``'s studies, over one initial state, reference evolution and operator.

    ``all`` runs the amplitude study only when the scenario has an ``amplitude``
    block; ``amplitude`` without one raises :class:`ScheduleError` before any
    work.  The initial state is sampled once, first, and every study reads it
    and writes into the one report, in the calling thread.  The reference
    (:func:`reference.evolve`) is evolved only for the Trotter or amplitude
    study, and before the operator, so it refuses a field it cannot evolve
    before any gauge table is built; one :class:`splitstep.SliceOperator` then
    serves every study, so V and a are sampled and each axis tabulated once.
    Each stage's wall time goes into ``report.timings`` under its name, in the
    order the stages ran: ``dense_reference`` for the reference, then each study.
    """
    studies = _STUDIES[command]
    if not scenario.amplitude_params:
        if command == "amplitude":
            raise ScheduleError(f"scenario {scenario.name!r} has no amplitude block to run")
        studies = tuple(study for study in studies if study != "amplitude")
    report = Report(scenario.name)
    grid = scenario.grid
    psi0 = scenario.initial_state.on_grid(grid)
    exact = None
    if "trotter" in studies or "amplitude" in studies:
        exact, evolution = _timed(report, "dense_reference", lambda: reference.evolve(
            reference.HamiltonianAction(grid, scenario.vector, scenario.scalar), psi0, scenario.time))
        report.diagnostics["reference_evolution"] = evolution
    op = splitstep.SliceOperator(grid, scenario.scalar, scenario.vector)
    # looked up at call time, so a study patched on the module is the one that runs
    work = {"gauge": lambda: run_gauge_check(scenario, report, psi0, op),
            "trotter": lambda: run_trotter_study(scenario, report, psi0, exact, op),
            "amplitude": lambda: run_amplitude_study(scenario, report, psi0, exact, op)}
    for study in studies:
        _timed(report, study, work[study])
    return report


def _timed(report: Report, stage: str, work):
    """``work()``, with its wall time recorded as ``report.timings[stage]``."""
    start = time.perf_counter()
    result = work()
    report.timings[stage] = time.perf_counter() - start
    return result
