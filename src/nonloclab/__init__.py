"""Numerical laboratory for nonlocal diffusion operators and their local limits.

The package builds compactly supported radial kernels whose induced integral
operator approaches the negative Laplacian as the interaction scale shrinks,
runs the associated conserved and non-conserved gradient flows, and measures
the empirical convergence rates: the whole-space symbol rate, the square-root
rate on a box where the kernel sees the boundary, and the square-root rate
for the flows themselves under matching initial offsets.
"""

from .experiments import (
    INITIAL_DATA,
    TEST_FUNCTIONS,
    EnergyRateResult,
    GronwallTrace,
    RateTable,
    RemainderRateResult,
    SolutionStudyResult,
    energy_rate_study,
    fit_rate,
    gronwall_trace,
    make_initial_field,
    make_test_field,
    operator_rate_study,
    remainder_rate_study,
    solution_convergence_study,
    symbol_study,
)
from .grid import (
    Field,
    UniformGrid,
    field_to_csv,
    hminus1_norm,
    integrate,
    l2_norm,
    load_field,
    lp_norm,
    sample,
    save_field,
    sobolev_norm,
)
from .kernels import (
    Kernel,
    MollifierSpec,
    eval_J,
    fourier_symbol,
    make_kernel,
    make_mollifier,
    moment_first,
    moment_second_trace,
    total_mass,
)
from .local_ops import dirichlet_energy, inv_neumann_laplacian, laplacian
from .nonlocal_ops import (
    apply_direct,
    apply_fft,
    degree_function,
    interior_remainder,
    nonlocal_energy,
    pair_difference_double_sum,
)
from .potentials import DoubleWell, LogarithmicPotential, make_potential, parse_potential
from .solvers import (
    SolverConfig,
    SolverDivergedError,
    TrajectoryRecord,
    run,
    run_batch,
    step,
)

__version__ = "0.1.0"
