"""Gauge-split time-sliced propagators and path-integral amplitudes.

Numerical companion library for magnetic Schrodinger Hamiltonians
H = sum_j (-i d_j - a_j)^2 + V on periodic boxes: split-step evolution with
line-integral gauge phases, a matrix-free Chebyshev reference propagator,
and excised improper-Riemann quadrature of the time-sliced transition
amplitude.
"""

import os

# Importing numpy loads OpenBLAS, which starts a worker thread per further CPU.
# No run uses them: its only BLAS calls are np.dot of at most 5 entries, and it
# calls no LAPACK (dense matrices serve the tests alone).  So the pool is pure
# start-up cost, about a third of it, and numpy is loaded here with one BLAS
# thread.  The variable is set for the import alone, so os.environ and child
# processes keep the caller's environment; a caller's own value, or a numpy
# imported earlier, is left as it is.
if "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

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
    gauge_conjugation_residual,
    gauge_phase_table,
    midpoint_discrepancy,
    segment_gauge_increment,
    slice_gauge_increment,
)
from .splitstep import (
    SliceOperator,
    evolve,
)
from .reference import (
    DiscretizedHamiltonian,
    HamiltonianAction,
    assemble_hamiltonian,
    chebyshev_evolve,
    expm_evolve,
)
from .pathint import (
    AmplitudeEstimate,
    amplitude_quadrature,
    kernel_prefactor,
    phase_mesh_spacing,
)
from .scenarios import (
    Report,
    Scenario,
    load_scenario,
    run,
    run_amplitude_study,
    run_gauge_check,
    run_trotter_study,
    scenario_from_dict,
)

__version__ = "0.1.0"
