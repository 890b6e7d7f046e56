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
from dataclasses import dataclass

import numpy as np

from .grid import (
    NEUMANN,
    PERIODIC,
    Field,
    UniformGrid,
    hminus1_norm,
    l2_norm,
    lp_norm,
    sobolev_norm,
)
from .kernels import Kernel, MollifierSpec, fourier_symbol
from .local_ops import dirichlet_energy, laplacian
from .nonlocal_ops import apply_fft, interior_remainder, nonlocal_energy, stencil_symbol
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
    "gronwall_audit",
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


def fit_rate(pairs, included=None) -> RateTable:
    """Least-squares power-law fit of (scale, error) pairs in log-log space:
    the table's scales strictly decrease and its errors are positive."""
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
    if any(a == b for a, b in zip(eps, eps[1:])):
        raise ValueError(f"rate fitting needs distinct scales, got {list(eps)}")
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


def _grid_ladder(grid: UniformGrid, eps_list) -> tuple[float, ...]:
    """The checked scale ladder of a study on ``grid``: every scale's support,
    of radius the scale, must span at least ``MIN_SUPPORT_CELLS`` cells."""
    eps = _check_ladder(eps_list)
    h = max(grid.spacing)
    bad = [e for e in eps if e < MIN_SUPPORT_CELLS * h]
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


# the named fields that a torus can carry: the others are smooth on a
# zero-flux box but jump at the wrap
_PERIODIC = ("sinmix", "flatbump", "one", "random")
# the test functions whose normal derivative vanishes at the walls of a
# zero-flux box: the others give the spectral Laplacian a kink there
_WALL_FLAT = ("cospix", "flatbump", "one")


def _named_field(grid: UniformGrid, spec, registry: dict, what: str) -> Field:
    """``spec`` as a field on ``grid``: a ``Field``, which must live on that
    grid, or a name in ``registry``, whose builder samples it there; a torus
    takes only the names in ``_PERIODIC``."""
    if isinstance(spec, Field):
        if spec.grid != grid:
            raise ValueError(f"the {what} lives on a different grid")
        return spec
    try:
        builder = registry[spec]
    except KeyError:
        raise ValueError(f"unknown {what} {spec!r}; available: {sorted(registry)}") from None
    if grid.boundary == PERIODIC and spec not in _PERIODIC:
        raise ValueError(f"{what} {spec!r} is not periodic: it jumps at the wrap of a torus; "
                         f"use one of {[n for n in registry if n in _PERIODIC]} or a "
                         "zero-flux box")
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
    derivative on a box, smooth periodicity on a torus), and a named one
    that does not raises ``ValueError``; the residual is measured in the
    quadratic norm over the whole box.
    """
    eps = _grid_ladder(grid, eps_list)
    field = make_test_field(grid, test_function)
    named = not isinstance(test_function, Field)
    if grid.boundary == NEUMANN and named and test_function not in _WALL_FLAT:
        raise ValueError(f"test function {test_function!r} has a nonzero normal derivative at "
                         "the walls of a zero-flux box, where the spectral Laplacian sees a "
                         f"kink; use one of {list(_WALL_FLAT)} or a torus")
    lap = laplacian(field)
    errors = [l2_norm(apply_fft(Kernel(mollifier, e), field) + lap) for e in eps]
    if not any(errors):
        raise ValueError("every operator error is exactly zero, so there is no rate to fit: "
                         "both operators vanish on the test function")
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
    eps = _grid_ladder(grid, eps_list)
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


def _symbol_point(kernel: Kernel, points: np.ndarray, radii: np.ndarray,
                  cubes: np.ndarray) -> float:
    symbols = fourier_symbol(kernel, points)
    return float(np.max(np.abs(symbols - radii * radii) / cubes))


def symbol_study(mollifier: MollifierSpec, eps_list) -> RateTable:
    """Rate of the cubic-normalized symbol error over the default frequency
    lattice of the mollifier's dimension."""
    eps = _check_ladder(eps_list)
    # the symbol depends on xi only through |xi|, formed as fourier_symbol
    # forms it: one stacked call per scale over a point of each distinct radius
    lattice = np.array(default_symbol_lattice(mollifier.dimension))
    radii, first = np.unique(np.sqrt(np.sum(lattice * lattice, axis=1)), return_index=True)
    # Python's pow, whose bits the vectorized np.power does not always match
    cubes = np.array([q**3 for q in radii.tolist()])
    errors = [_symbol_point(Kernel(mollifier, e), lattice[first], radii, cubes) for e in eps]
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
    eps = _grid_ladder(grid, eps_list)
    field = make_test_field(grid, test_function)
    margins = tuple(margin_factor * e for e in eps)
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


def _solution_errors(times, rows) -> tuple[float, ...]:
    """The errors of one run, in ``_SOLUTION_NORMS`` order, from one row of
    norms of the difference per record (H^-1, L2, H^-1/2, L4)."""
    h1, l2, hs, l4 = np.array(rows).T
    return (float(h1.max()), float(l2.max()), float(np.sqrt(np.trapezoid(l2**2, times))),
            float(hs.max()), float(np.sqrt(np.trapezoid(l4**2, times))))


@dataclass(frozen=True)
class SolutionStudyResult:
    """The errors and fitted tables of a solution study, with the records
    (times, mass and energy) of the reference and of each rung.  The study
    reads each rung's states only through the per-record norms of their
    difference to the reference's."""

    equation: str
    epsilons: tuple[float, ...]
    tables: dict[str, RateTable]
    errors: dict[str, tuple[float, ...]]
    reference_h3_max: float
    reference: TrajectoryRecord
    records: dict[float, TrajectoryRecord]


def _ladder_rows(grid: UniformGrid, config: SolverConfig, potential,
                 mollifier: MollifierSpec, eps_list, initial, equation: str,
                 perturbation_scale: float, rungs: slice, row):
    """What the solution study and the Grönwall audit share.  Checks the
    inputs and the whole scale ladder (``ValueError`` before any step), runs
    the fine-step local reference, keeping its state at each record, and
    steps the ``rungs`` of the ladder from their offset starts as one
    :func:`run_batch`.  At each record, ``row(kernel, u, r)`` gives a rung's
    row from the reference's state ``r`` and the rung's state minus ``r``.
    Returns the ladder, the reference's record and states, and the rungs'
    records and rows."""
    if not equation.startswith("nonlocal"):
        raise ValueError("solution study compares a nonlocal flow to its local limit")
    if grid.boundary != NEUMANN:
        raise ValueError("the solution study runs on a zero-flux box: its offset profile "
                         "cos(pi x) and its named initial data are not periodic")
    eps = _grid_ladder(grid, eps_list)
    initial = make_initial_field(grid, initial)
    kernels = [Kernel(mollifier, e) for e in eps]
    for kernel in kernels:  # the stencil build rejects a support wider than the box
        stencil_symbol(kernel, grid)
    ref_states = []
    ref = run(initial, reference_config(config), potential, equation.replace("nonlocal", "local"),
              on_record=lambda index, values: ref_states.append(Field(grid, values[0].copy())))
    profile = _f_cospix(grid)
    starts = [Field(grid, initial.values + perturbation_scale * math.sqrt(e) * profile)
              for e in eps[rungs]]
    kernels, rows = kernels[rungs], [[] for _ in starts]

    def record_rows(index: int, values: np.ndarray) -> None:
        r = ref_states[index]
        for kernel, member, rung_rows in zip(kernels, values, rows):
            rung_rows.append(row(kernel, Field(grid, member) - r, r))

    runs = run_batch(starts, config, potential, equation, kernels, on_record=record_rows)
    if runs[0].times.shape != ref.times.shape or not np.allclose(
            runs[0].times, ref.times, rtol=1e-12, atol=1e-14):
        raise ValueError("time grids of the two trajectories do not match")
    return eps, ref, ref_states, runs, rows


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
    :func:`run` bit for bit.  Only the reference's states are kept: at each
    record the batch's states give one row of norms per rung and are then
    dropped, so memory holds one trajectory, not one per rung.
    ``workers`` is accepted and ignored.
    """
    eps, ref, ref_states, runs, rows = _ladder_rows(
        grid, config, potential, mollifier, eps_list, initial, equation, perturbation_scale,
        slice(None),
        lambda kernel, u, r: (hminus1_norm(u), l2_norm(u), sobolev_norm(u, -0.5), lp_norm(u, 4)))
    per_run = [_solution_errors(r.times, rung_rows) for r, rung_rows in zip(runs, rows)]
    errors = dict(zip(_SOLUTION_NORMS, zip(*per_run)))
    scale = max(max(l2_norm(f) for f in ref_states), 1e-30)
    tables = {
        name: _fit_with_floor(eps, vals, FLOOR_FACTOR * scale)
        for name, vals in errors.items()
    }
    h3_max = max(sobolev_norm(f, 3.0) for f in ref_states)
    return SolutionStudyResult(
        equation=equation,
        epsilons=eps,
        tables=tables,
        errors=errors,
        reference_h3_max=h3_max,
        reference=ref,
        records=dict(zip(eps, runs)),
    )


# ---------------------------------------------------------------------------
# per-time differential inequality audit

# absolute room for rounding in lhs <= C * rhs
_GRONWALL_SLACK = 1e-12


@dataclass(frozen=True)
class GronwallTrace:
    """Per-time pieces of the differential inequality driving the limit, at
    the audited times: every record but the last, where the forward
    difference ends.

    ``lhs`` collects the forward-difference derivative of half the squared
    dual norm plus half the squared quadratic norm plus half the pair energy
    of the difference; ``rhs`` is the squared dual norm plus the squared
    operator consistency error of the reference.  ``empirical_constant`` is
    the smallest single constant making lhs <= C * rhs at every audited time
    where rhs is positive.  ``energy_time_integral`` integrates the pair
    energy over every record.
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
        return self.derivative + self.l2_sq_half + self.pair_energy_half

    def rhs(self) -> np.ndarray:
        return self.dual_sq + self.consistency_sq

    def holds_with(self, constant: float) -> bool:
        return bool(np.all(self.lhs() <= constant * self.rhs() + _GRONWALL_SLACK))


def gronwall_trace(times, rows) -> GronwallTrace:
    """Audit the scale-uniform differential inequality on one pair of runs from
    their shared record ``times`` and one row per record, in order: the squared
    dual and quadratic norms and the pair energy of the difference, and the
    squared consistency error of the reference."""
    rows = np.array(rows)
    times = np.asarray(times, dtype=float)
    y = 0.5 * rows[:, 0]
    derivative = np.diff(y) / np.diff(times)
    # the audited times: the forward difference ends at the last record
    dual_sq, l2_sq, pair, consist = rows[:-1].T
    l2_sq_half, pair_energy_half = 0.5 * l2_sq, 0.5 * pair
    lhs = derivative + l2_sq_half + pair_energy_half
    rhs = dual_sq + consist
    positive = rhs > 1e-300
    return GronwallTrace(
        times=times[:-1],
        dual_sq_half=y[:-1],
        derivative=derivative,
        l2_sq_half=l2_sq_half,
        pair_energy_half=pair_energy_half,
        dual_sq=dual_sq,
        consistency_sq=consist,
        empirical_constant=float(np.max(lhs[positive] / rhs[positive], initial=0.0)),
        energy_time_integral=float(np.trapezoid(rows[:, 2], times)),
    )


def gronwall_audit(grid: UniformGrid, config: SolverConfig, potential,
                   mollifier: MollifierSpec, eps_list, initial,
                   equation: str = "nonlocal-ch",
                   perturbation_scale: float = 0.0) -> GronwallTrace:
    """:func:`gronwall_trace` on the second rung of the ladder of a
    :func:`solution_convergence_study` with the same arguments (identical
    data by default).  The whole ladder is checked as there, but only the
    reference and the audited rung run, and only the reference's states are
    kept; the rung equals its member of the study's batch bit for bit."""
    *_, (rung,), (rows,) = _ladder_rows(
        grid, config, potential, mollifier, eps_list, initial, equation, perturbation_scale,
        slice(1, 2),
        lambda kernel, u, r: (hminus1_norm(u) ** 2, l2_norm(u) ** 2, nonlocal_energy(kernel, u),
                              l2_norm(apply_fft(kernel, r) + laplacian(r)) ** 2))
    return gronwall_trace(rung.times, rows)
