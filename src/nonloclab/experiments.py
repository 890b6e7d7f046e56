"""Convergence studies: fitted empirical rates for the operator, energy,
symbol, boundary remainder, and solution limits.

Every study walks a decreasing ladder of interaction scales, measures one
error per rung, and fits a power law in log-log coordinates.  Points that sit
on the numerical floor (within 10x of the cross-implementation agreement
tolerance) are flagged and dropped from the fit rather than allowed to
flatten it.  Studies are deterministic, never mutate their inputs, and run
their rungs one after another in the calling process.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import (
    NEUMANN,
    Field,
    UniformGrid,
    hminus1_norm,
    l2_norm,
    lp_norm,
    sobolev_norm,
)
from .kernels import Kernel, MollifierSpec, fourier_symbol
from .local_ops import dirichlet_energy, laplacian
from .nonlocal_ops import apply_fft, interior_remainder, nonlocal_energy
from .solvers import SolverConfig, TrajectoryRecord, reference_config, run, run_batch

__all__ = [
    "RateTable",
    "fit_rate",
    "operator_rate_study",
    "energy_rate_study",
    "EnergyRateResult",
    "symbol_study",
    "default_symbol_lattice",
    "remainder_rate_study",
    "RemainderRateResult",
    "solution_convergence_study",
    "SolutionStudyResult",
    "gronwall_trace",
    "GronwallTrace",
    "TEST_FUNCTIONS",
    "INITIAL_DATA",
    "make_test_field",
    "make_initial_field",
    "MIN_SUPPORT_CELLS",
]

# the study refuses scales the grid cannot resolve: support >= 8 cells
MIN_SUPPORT_CELLS = 8

# absolute error floor is 10x the cross-implementation agreement tolerance,
# relative to a per-study scale
FLOOR_FACTOR = 10.0 * 1e-10


# ---------------------------------------------------------------------------
# rate fitting

@dataclass(frozen=True)
class RateTable:
    """(scale, error) ladder with its fitted log-log power law."""

    epsilons: tuple[float, ...]
    errors: tuple[float, ...]
    included: tuple[bool, ...]
    fitted_slope: float
    fitted_intercept: float
    r_squared: float

    def __post_init__(self):
        if len(self.epsilons) != len(self.errors) or len(self.errors) != len(self.included):
            raise ValueError("epsilons, errors, included must have equal length")
        if len(self.epsilons) < 3:
            raise ValueError("need at least 3 ladder points")
        if any(e2 >= e1 for e1, e2 in zip(self.epsilons, self.epsilons[1:])):
            raise ValueError("epsilons must be strictly decreasing")
        if any(e <= 0 for e in self.errors):
            raise ValueError("errors must be positive")


def fit_rate(pairs, included=None) -> RateTable:
    """Least-squares power-law fit of (scale, error) pairs in log-log space."""
    pairs = [(float(e), float(v)) for e, v in pairs]
    if included is None:
        included = [True] * len(pairs)
    elif len(included) != len(pairs):
        raise ValueError("included mask length mismatch")
    # the mask travels with its pair through the sort
    rows = sorted(((e, v, bool(m)) for (e, v), m in zip(pairs, included)), key=lambda r: -r[0])
    eps = tuple(r[0] for r in rows)
    err = tuple(r[1] for r in rows)
    mask = tuple(r[2] for r in rows)
    if any(v <= 0 for v in err):
        raise ValueError("rate fitting needs positive error values")
    if sum(mask) < 3:
        raise ValueError("need at least 3 included points to fit a rate")

    x = np.log(np.asarray([e for e, m in zip(eps, mask) if m]))
    y = np.log(np.asarray([v for v, m in zip(err, mask) if m]))
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = float(ym - slope * xm)
    residual = y - (slope * x + intercept)
    ss_res = float(np.sum(residual**2))
    ss_tot = float(np.sum((y - ym) ** 2))
    if ss_tot < 1e-30:
        r2 = 1.0 if ss_res < 1e-30 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return RateTable(eps, err, mask, slope, intercept, r2)


def _fit_with_floor(eps, errors, floor: float) -> RateTable:
    included = [e > floor for e in errors]
    if sum(included) < 3:
        included = [True] * len(errors)  # everything on the floor; fit anyway
    return fit_rate(zip(eps, errors), included)


def _check_ladder(eps_list) -> tuple[float, ...]:
    eps = tuple(float(e) for e in eps_list)
    if len(eps) < 3:
        raise ValueError("the scale ladder needs at least 3 entries")
    # NaN passes both comparisons below, inf the order check
    bad = [e for e in eps if not math.isfinite(e)]
    if bad:
        raise ValueError(f"scales must be finite, got {bad}")
    if any(e <= 0 for e in eps):
        raise ValueError("scales must be positive")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("the scale ladder must be strictly decreasing")
    return eps


def _grid_ladder(grid: UniformGrid, mollifier: MollifierSpec, eps_list) -> tuple[float, ...]:
    """The checked scale ladder of a study on ``grid``: every scale's support
    must span at least ``MIN_SUPPORT_CELLS`` cells."""
    eps = _check_ladder(eps_list)
    h = max(grid.spacing)
    bad = [e for e in eps if e * mollifier.support_radius < MIN_SUPPORT_CELLS * h]
    if bad:
        raise ValueError(
            f"grid spacing {h:.3g} cannot resolve scales {bad}; "
            f"need support >= {MIN_SUPPORT_CELLS} cells"
        )
    return eps


# ---------------------------------------------------------------------------
# test functions and initial data

def _smoothstep(t):
    t = np.asarray(t, dtype=float)
    a = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
    b = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + b)


def _window(x, length):
    # identically 1 on the middle, identically 0 within 10% of each wall
    u = x / length
    return _smoothstep((u - 0.1) / 0.2) * _smoothstep((0.9 - u) / 0.2)


def _f_cospix(grid: UniformGrid):
    coords = grid.meshgrid()
    out = np.ones(grid.shape)
    for a, x in enumerate(coords):
        out = out * np.cos(np.pi * x / grid.lengths[a])
    return out


def _f_sinmix(grid: UniformGrid):
    coords = grid.meshgrid()
    out = np.zeros(grid.shape)
    for a, x in enumerate(coords):
        L = grid.lengths[a]
        out = out + np.sin(2 * np.pi * x / L) + 0.5 * np.sin(4 * np.pi * x / L)
    return out


def _f_flatbump(grid: UniformGrid):
    coords = grid.meshgrid()
    out = np.ones(grid.shape)
    for a, x in enumerate(coords):
        L = grid.lengths[a]
        out = out * np.cos(2 * np.pi * x / L) * _window(x, L)
    return out


def _f_one(grid: UniformGrid):
    return np.ones(grid.shape)


TEST_FUNCTIONS = {
    "cospix": _f_cospix,      # zero-flux compatible, curvature at the walls
    "sinmix": _f_sinmix,      # smooth periodic mix of two modes
    "flatbump": _f_flatbump,  # identically flat near the walls
    "one": _f_one,
}


def _named_field(grid: UniformGrid, spec, registry: dict, what: str) -> Field:
    """``spec`` as a field on ``grid``: a ``Field``, which must live on that
    grid, or a name in ``registry``, whose builder samples it there."""
    if isinstance(spec, Field):
        if spec.grid != grid:
            raise ValueError(f"the {what} lives on a different grid")
        return spec
    try:
        builder = registry[spec]
    except KeyError:
        raise ValueError(f"unknown {what} {spec!r}; available: {sorted(registry)}") from None
    return Field(grid, builder(grid))


def make_test_field(grid: UniformGrid, name_or_field) -> Field:
    """Resolve a test function given as Field or registry name."""
    return _named_field(grid, name_or_field, TEST_FUNCTIONS, "test function")


def _init_cosmix(grid: UniformGrid):
    coords = grid.meshgrid()
    out = np.zeros(grid.shape)
    for a, x in enumerate(coords):
        L = grid.lengths[a]
        out = out + (0.2 * np.cos(np.pi * x / L)
                     + 0.1 * np.cos(2 * np.pi * x / L)
                     + 0.05 * np.cos(3 * np.pi * x / L))
    return out


def _init_random(grid: UniformGrid):
    rng = np.random.default_rng(12345)
    return 0.05 * rng.standard_normal(grid.shape)


def _init_threshold(grid: UniformGrid):
    # cosine series with amplitudes k^-3: smooth on the grid, but with just
    # enough high-mode content that the operator consistency error scales at
    # the square-root rate instead of superconverging
    out = np.zeros(grid.shape)
    coords = grid.meshgrid()
    for a, x in enumerate(coords):
        L = grid.lengths[a]
        k_max = min(256, grid.cells[a] // 4)
        amp = 0.2 / 1.2020569031595943  # zeta(3), so the series sums to 0.2
        for k in range(1, k_max + 1):
            sign = 1.0 if k % 2 == 1 else -1.0
            out = out + sign * amp * k**-3.0 * np.cos(k * np.pi * x / L)
    return out


INITIAL_DATA = {
    "cosmix": _init_cosmix,
    "random": _init_random,
    "threshold": _init_threshold,
}


def make_initial_field(grid: UniformGrid, name_or_field) -> Field:
    """Resolve initial data given as Field or registry name."""
    return _named_field(grid, name_or_field, INITIAL_DATA, "initial data")


# ---------------------------------------------------------------------------
# operator consistency rate

def operator_rate_study(grid: UniformGrid, mollifier: MollifierSpec, test_function,
                        eps_list) -> RateTable:
    """Rate at which the nonlocal operator approaches the negative Laplacian.

    The test function must respect the grid's boundary type (zero normal
    derivative on a box, smooth periodicity on a torus); the residual is
    measured in the quadratic norm over the whole box.
    """
    eps = _grid_ladder(grid, mollifier, eps_list)
    field = make_test_field(grid, test_function)
    lap = laplacian(field)
    errors = [l2_norm(apply_fft(Kernel(mollifier, e), field) + lap) for e in eps]
    floor = FLOOR_FACTOR * l2_norm(lap)
    return _fit_with_floor(eps, errors, floor)


# ---------------------------------------------------------------------------
# energy convergence

@dataclass(frozen=True)
class EnergyRateResult:
    epsilons: tuple[float, ...]
    energies: tuple[float, ...]
    errors: tuple[float, ...]
    limit_value: float
    verdict: str                 # "fitted" or "exact"
    monotone_decreasing: bool
    table: RateTable | None


def energy_rate_study(grid: UniformGrid, mollifier: MollifierSpec, test_function,
                      eps_list) -> EnergyRateResult:
    """Convergence of the pair energy to the gradient energy.

    No rate is asserted, only monotone decay of the gap along the ladder;
    a constant input makes every gap vanish and yields the "exact" verdict
    with no fitted table.
    """
    eps = _grid_ladder(grid, mollifier, eps_list)
    field = make_test_field(grid, test_function)
    limit = dirichlet_energy(field)
    energies = [nonlocal_energy(Kernel(mollifier, e), field) for e in eps]
    errors = tuple(abs(e - limit) for e in energies)
    floor = FLOOR_FACTOR * max(limit, 1.0)
    if all(e <= floor for e in errors):
        return EnergyRateResult(eps, tuple(energies), errors, limit, "exact", True, None)
    monotone = all(b < a for a, b in zip(errors, errors[1:]))
    table = _fit_with_floor(eps, errors, floor)
    return EnergyRateResult(eps, tuple(energies), errors, limit, "fitted", monotone, table)


# ---------------------------------------------------------------------------
# symbol rate

def default_symbol_lattice(n: int):
    """Frequency lattice with every component in +-{1, ..., 8}."""
    components = [float(k) for k in range(-8, 9) if k != 0]
    return list(itertools.product(components, repeat=n))


def _symbol_point(kernel: Kernel, lattice) -> float:
    # the symbol depends on xi only through q, which fourier_symbol forms by
    # the same sum of squares: one quadrature per distinct radius
    symbols: dict[float, float] = {}
    worst = 0.0
    for xi in lattice:
        xi_arr = np.asarray(xi, dtype=float)
        q = float(np.sqrt(np.sum(xi_arr**2)))
        if q not in symbols:
            symbols[q] = fourier_symbol(kernel, xi_arr)
        err = abs(symbols[q] - q * q) / q**3
        worst = max(worst, err)
    return worst


def symbol_study(mollifier: MollifierSpec, eps_list) -> RateTable:
    """Rate of the cubic-normalized symbol error over the default frequency
    lattice of the mollifier's dimension."""
    eps = _check_ladder(eps_list)
    lattice = default_symbol_lattice(mollifier.dimension)
    errors = [_symbol_point(Kernel(mollifier, e), lattice) for e in eps]
    return _fit_with_floor(eps, errors, FLOOR_FACTOR)


# ---------------------------------------------------------------------------
# interior remainder decay

@dataclass(frozen=True)
class RemainderRateResult:
    epsilons: tuple[float, ...]
    values: tuple[float, ...]
    margins: tuple[float, ...]
    verdict: str                 # "fitted" or "exact"
    monotone_decreasing: bool
    table: RateTable | None


def remainder_rate_study(grid: UniformGrid, mollifier: MollifierSpec, test_function,
                         eps_list, margin_factor: float = 0.5) -> RemainderRateResult:
    """Decay of the boundary remainder on interior sub-boxes.

    The margin scales with the kernel support (``margin_factor`` times it);
    factors above 1 leave the sub-box outside the kernel's reach and every
    value is exactly zero, reported as the "exact" verdict.  The decay is
    monotone when each value is below its predecessor or both are exact
    zeros, as on a field that is flat wherever the narrower kernels reach.
    """
    eps = _grid_ladder(grid, mollifier, eps_list)
    field = make_test_field(grid, test_function)
    margins = tuple(margin_factor * e * mollifier.support_radius for e in eps)
    values = [interior_remainder(Kernel(mollifier, e), field, m) for e, m in zip(eps, margins)]
    if all(v == 0.0 for v in values):
        return RemainderRateResult(eps, tuple(values), margins, "exact", True, None)
    monotone = all(b < a or a == b == 0.0 for a, b in zip(values, values[1:]))
    floor = FLOOR_FACTOR * max(l2_norm(field), 1.0)
    table = _fit_with_floor(eps, values, floor) if all(v > 0 for v in values) else None
    return RemainderRateResult(eps, tuple(values), margins, "fitted", monotone, table)


# ---------------------------------------------------------------------------
# solution convergence

_SOLUTION_NORMS = ("hminus1_sup", "l2_sup", "l2_spacetime", "hs-0.5_sup", "lp4_spacetime")


def _trajectory_errors(times, fields_eps, fields_ref):
    h1 = []
    l2 = []
    hs = []
    l4 = []
    for fe, fr in zip(fields_eps, fields_ref):
        u = fe - fr
        h1.append(hminus1_norm(u))
        l2.append(l2_norm(u))
        hs.append(sobolev_norm(u, -0.5))
        l4.append(lp_norm(u, 4))
    h1 = np.asarray(h1)
    l2 = np.asarray(l2)
    return {
        "hminus1_sup": float(h1.max()),
        "l2_sup": float(l2.max()),
        "l2_spacetime": float(np.sqrt(np.trapezoid(l2**2, times))),
        "hs-0.5_sup": float(np.max(hs)),
        "lp4_spacetime": float(np.sqrt(np.trapezoid(np.asarray(l4) ** 2, times))),
    }


def _check_same_times(a: TrajectoryRecord, b: TrajectoryRecord) -> None:
    if a.times.shape != b.times.shape or not np.allclose(a.times, b.times,
                                                         rtol=1e-12, atol=1e-14):
        raise ValueError("time grids of the two trajectories do not match")


@dataclass(frozen=True)
class SolutionStudyResult:
    equation: str
    epsilons: tuple[float, ...]
    tables: dict[str, RateTable]
    errors: dict[str, tuple[float, ...]]
    reference_h3_max: float
    reference: TrajectoryRecord
    records: dict[float, TrajectoryRecord]


def solution_convergence_study(grid: UniformGrid, config: SolverConfig, potential,
                               mollifier: MollifierSpec, eps_list, initial,
                               equation: str = "nonlocal-ch",
                               perturbation_scale: float = 0.05,
                               workers: int = 1) -> SolutionStudyResult:
    """Distance between the nonlocal flow and its fine-step local limit, on a
    zero-flux box (a torus raises ``ValueError``: the offset profile and the
    named initial data are not periodic).

    The local reference runs from the base initial data with a tenfold finer
    step, so time discretization cannot contaminate the fitted rate.  Each
    nonlocal run starts from the base data offset by ``perturbation_scale *
    sqrt(scale)`` times a fixed mean-zero profile, the square-root initial
    closeness under which the limit estimate is stated; the study then
    checks that the flow carries that offset without amplification, which is
    where the square-root rate is sharp.  Set the scale to zero for the
    identical-data variant (whose error is driven by operator consistency
    alone and decays faster than the square root for these smooth radial
    kernels).  Errors are measured along the recorded trajectory in the dual
    norm (peak over time), the space-time quadratic norm, and auxiliary
    interpolation norms; each series gets its own fitted table.  The peak
    cubic-regularity norm of the reference trajectory is recorded as
    evidence for the smoothness the comparison leans on.

    The ladder's runs step together as the members of one
    :func:`~nonloclab.solvers.run_batch` call, and each equals its own
    :func:`run` bit for bit.  ``workers`` is accepted and ignored.
    """
    if not equation.startswith("nonlocal"):
        raise ValueError("solution study compares a nonlocal flow to its local limit")
    if grid.boundary != NEUMANN:
        raise ValueError("the solution study runs on a zero-flux box: its offset profile "
                         "cos(pi x) and its named initial data are not periodic")
    eps = _grid_ladder(grid, mollifier, eps_list)
    initial = make_initial_field(grid, initial)
    local_equation = equation.replace("nonlocal", "local")

    config = replace(config, keep_fields=True)
    ref = run(initial, reference_config(config), potential, local_equation)

    profile = _f_cospix(grid)
    starts = [Field(grid, initial.values + perturbation_scale * math.sqrt(e) * profile)
              for e in eps]
    runs = run_batch(starts, config, potential, equation,
                     [Kernel(mollifier, e) for e in eps])
    _check_same_times(runs[0], ref)

    errors: dict[str, list[float]] = {name: [] for name in _SOLUTION_NORMS}
    records = dict(zip(eps, runs))
    for record in runs:
        errs = _trajectory_errors(record.times, record.fields, ref.fields)
        for name in _SOLUTION_NORMS:
            errors[name].append(errs[name])

    scale = max(max(l2_norm(f) for f in ref.fields), 1e-30)
    tables = {
        name: _fit_with_floor(eps, vals, FLOOR_FACTOR * scale)
        for name, vals in errors.items()
    }
    h3_max = max(sobolev_norm(f, 3.0) for f in ref.fields)
    return SolutionStudyResult(
        equation=equation,
        epsilons=eps,
        tables=tables,
        errors={k: tuple(v) for k, v in errors.items()},
        reference_h3_max=h3_max,
        reference=ref,
        records=records,
    )


# ---------------------------------------------------------------------------
# per-time differential inequality audit

# absolute room for rounding in lhs <= C * rhs
_GRONWALL_SLACK = 1e-12


@dataclass(frozen=True)
class GronwallTrace:
    """Per-time pieces of the differential inequality driving the limit.

    ``lhs`` collects the forward-difference derivative of half the squared
    dual norm plus half the squared quadratic norm plus half the pair energy
    of the difference; ``rhs`` is the squared dual norm plus the squared
    operator consistency error of the reference.  ``empirical_constant`` is
    the smallest single constant making lhs <= C * rhs at every recorded
    time.
    """

    times: np.ndarray
    dual_sq_half: np.ndarray
    derivative: np.ndarray
    l2_sq_half: np.ndarray
    pair_energy_half: np.ndarray
    dual_sq: np.ndarray
    consistency_sq: np.ndarray
    empirical_constant: float
    energy_time_integral: float

    def lhs(self) -> np.ndarray:
        m = len(self.derivative)
        return self.derivative + self.l2_sq_half[:m] + self.pair_energy_half[:m]

    def rhs(self) -> np.ndarray:
        m = len(self.derivative)
        return self.dual_sq[:m] + self.consistency_sq[:m]

    def holds_with(self, constant: float) -> bool:
        return bool(np.all(self.lhs() <= constant * self.rhs() + _GRONWALL_SLACK))


def gronwall_trace(record_eps: TrajectoryRecord, record_ref: TrajectoryRecord,
                   kernel: Kernel) -> GronwallTrace:
    """Audit the scale-uniform differential inequality on one pair of runs."""
    if record_eps.fields is None or record_ref.fields is None:
        raise ValueError("both trajectories must carry field checkpoints")
    _check_same_times(record_eps, record_ref)

    times = record_eps.times
    dual_sq = []
    l2_sq = []
    pair = []
    consist = []
    for fe, fr in zip(record_eps.fields, record_ref.fields):
        u = fe - fr
        dual_sq.append(hminus1_norm(u) ** 2)
        l2_sq.append(l2_norm(u) ** 2)
        pair.append(nonlocal_energy(kernel, u))
        residual = apply_fft(kernel, fr) + laplacian(fr)
        consist.append(l2_norm(residual) ** 2)
    dual_sq = np.asarray(dual_sq)
    l2_sq = np.asarray(l2_sq)
    pair = np.asarray(pair)
    consist = np.asarray(consist)

    y = 0.5 * dual_sq
    trace = GronwallTrace(
        times=times,
        dual_sq_half=y,
        derivative=np.diff(y) / np.diff(times),
        l2_sq_half=0.5 * l2_sq,
        pair_energy_half=0.5 * pair,
        dual_sq=dual_sq,
        consistency_sq=consist,
        empirical_constant=0.0,
        energy_time_integral=float(np.trapezoid(pair, times)),
    )
    lhs, rhs = trace.lhs(), trace.rhs()
    positive = rhs > 1e-300
    if not positive.any():
        return trace
    constant = float(np.max(np.where(positive, lhs / np.where(positive, rhs, 1.0), 0.0)))
    return replace(trace, empirical_constant=max(constant, 0.0))
