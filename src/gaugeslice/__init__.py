"""Gauge-split time-sliced propagators and path-integral amplitudes.

Numerical companion library for magnetic Schrodinger Hamiltonians
H = sum_j (-i d_j - a_j)^2 + V on periodic boxes: split-step evolution with
line-integral gauge phases, a matrix-free Chebyshev reference propagator
(cross-checked against a dense Hermitian solver), and excised improper-Riemann
quadrature of the time-sliced transition amplitude.
"""

from .errors import (
    CapExceededError,
    EigenFailureError,
    GaugesliceError,
    GridMismatchError,
    NonFiniteError,
    QuadratureDivergenceError,
    ScheduleError,
    SingularNodeError,
)
from .fields import (
    Grid,
    ScalarPotentialSpec,
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
from .gauge import (
    LineIntegralResult,
    gauge_conjugation_residual,
    gauge_phase,
    gauge_phase_table,
    midpoint_discrepancy,
    segment_gauge_increment,
    slice_gauge_increment,
)
from .splitstep import (
    SliceOperator,
    TimeSlicing,
    chernoff_derivative_residual,
    evolve,
)
from .reference import (
    DiscretizedHamiltonian,
    HamiltonianAction,
    assemble_hamiltonian,
    chebyshev_evolve,
    exact_free_gaussian,
    expm_evolve,
)
from .pathint import (
    AmplitudeEstimate,
    BoxSchedule,
    amplitude_quadrature,
    discrete_action,
    kernel_prefactor,
    operator_vs_kernel_consistency,
    phase_mesh_spacing,
    slice_kernel,
)
from .scenarios import (
    Report,
    Scenario,
    load_scenario,
    run_all,
    run_amplitude_study,
    run_gauge_check,
    run_trotter_study,
    scenario_from_dict,
)

__version__ = "0.1.0"
