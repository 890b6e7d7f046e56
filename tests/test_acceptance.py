"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
failure report).  Runtime budgets are asserted alongside the numerical
checks; the heavy solution studies are shared across criteria through
module-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest
import scipy.integrate

from nonloclab.grid import Field, UniformGrid, l2_norm, sample
from nonloclab.kernels import (
    Kernel,
    make_kernel,
    make_mollifier,
    moment_first,
    radial_mass_target,
    second_moment_per_axis,
)
from nonloclab.nonlocal_ops import (
    apply_direct,
    apply_fft,
    interior_remainder,
    l2_inner,
    pair_difference_double_sum,
)
from nonloclab.potentials import DoubleWell
from nonloclab.solvers import SolverConfig, run
from nonloclab.experiments import (
    energy_rate_study,
    gronwall_audit,
    operator_rate_study,
    solution_convergence_study,
    symbol_study,
)

EPS_LADDER = (0.2, 0.1, 0.05, 0.025)
SOLUTION_LADDER = (0.16, 0.08, 0.04, 0.02)


class Stopwatch:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False

    def check(self):
        assert self.elapsed < self.budget, f"runtime {self.elapsed:.1f}s over budget {self.budget}s"


def report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


@pytest.fixture(scope="module")
def solution_setup():
    return {
        "grid": UniformGrid((1.0,), (1024,), "neumann"),
        "mollifier": make_mollifier(1),
        "potential": DoubleWell(K=1.0),
        "config": SolverConfig(tau=2e-5, t_final=0.05, record_every=25),
    }


def test_criterion_01_kernel_identities():
    with Stopwatch(1.0) as sw:
        lines = []
        for n in (1, 2):
            moll = make_mollifier(n)
            kernel = Kernel(moll, 0.1)
            radial, _ = scipy.integrate.quad(
                lambda r: moll.norm_constant * 0.1**-n * moll.profile.raw(r / 0.1) * r ** (n - 1),
                0.0, 0.1,
            )
            target = radial_mass_target(n)
            assert abs(radial - target) <= 1e-10 * target
            for axis in range(n):
                assert abs(moment_first(kernel, axis)) <= 1e-10
            per_axis = second_moment_per_axis(kernel)
            assert abs(per_axis - 2.0) <= 1e-8
            lines.append(f"n={n}: radial moment {radial:.12g} (target {target:.12g}), "
                         f"per-axis second moment {per_axis:.12g}")
    sw.check()
    report("1 kernel identities", True, "; ".join(lines) + f"; {sw.elapsed:.2f}s")


def test_criterion_02_symbol_rate():
    with Stopwatch(10.0) as sw:
        table = symbol_study(make_mollifier(1), EPS_LADDER)
    sw.check()
    report("2 symbol rate", table.fitted_slope >= 0.9,
           f"slope {table.fitted_slope:.3f} >= 0.9; {sw.elapsed:.2f}s")


def test_criterion_03_oracle_equivalence():
    with Stopwatch(30.0) as sw:
        g1 = UniformGrid((1.0,), (256,), "neumann")
        k1 = make_kernel(1, 0.1)
        f1 = Field(g1, np.random.default_rng(0).standard_normal(g1.shape))
        d1 = apply_direct(k1, f1)
        rel1 = l2_norm(apply_fft(k1, f1) - d1) / l2_norm(d1)
        assert rel1 <= 1e-10

        g2 = UniformGrid((1.0, 1.0), (64, 64), "neumann")
        k2 = make_kernel(2, 0.15)
        f2 = Field(g2, np.random.default_rng(1).standard_normal(g2.shape))
        d2 = apply_direct(k2, f2)
        rel2 = l2_norm(apply_fft(k2, f2) - d2) / l2_norm(d2)
        assert rel2 <= 1e-9
    sw.check()
    report("3 oracle equivalence", True,
           f"1D rel {rel1:.2e} <= 1e-10, 2D rel {rel2:.2e} <= 1e-9; {sw.elapsed:.1f}s")


def test_criterion_04_operator_rate_periodic():
    with Stopwatch(60.0) as sw:
        grid = UniformGrid((1.0,), (4096,), "periodic")
        table = operator_rate_study(grid, make_mollifier(1), "sinmix", EPS_LADDER)
    sw.check()
    report("4 operator rate periodic", table.fitted_slope >= 0.9,
           f"slope {table.fitted_slope:.3f} >= 0.9; {sw.elapsed:.1f}s")


def test_criterion_05_operator_rate_box():
    with Stopwatch(60.0) as sw:
        grid = UniformGrid((1.0,), (4096,), "neumann")
        moll = make_mollifier(1)
        wall = operator_rate_study(grid, moll, "cospix", EPS_LADDER)
        flat = operator_rate_study(grid, moll, "flatbump", EPS_LADDER)
    sw.check()
    ok = 0.4 <= wall.fitted_slope <= 0.7 and flat.fitted_slope >= 0.85
    report("5 operator rate box", ok,
           f"wall slope {wall.fitted_slope:.3f} in [0.4, 0.7]; "
           f"flat slope {flat.fitted_slope:.3f} >= 0.85; {sw.elapsed:.1f}s")


def test_criterion_06_interior_remainder():
    with Stopwatch(10.0) as sw:
        g = UniformGrid((1.0,), (1024,), "neumann")
        f = sample(g, lambda x: np.cos(np.pi * x))
        exact_zero = all(
            interior_remainder(make_kernel(1, e), f, margin=e * 1.001) == 0.0
            for e in (0.2, 0.1, 0.05)
        )
        vals = [interior_remainder(make_kernel(1, e), f, margin=0.5 * e)
                for e in EPS_LADDER]
        decreasing = all(b < a for a, b in zip(vals, vals[1:]))
    sw.check()
    report("6 interior remainder", exact_zero and decreasing,
           f"zero beyond support: {exact_zero}; half-support values "
           f"{['%.3e' % v for v in vals]} decreasing: {decreasing}; {sw.elapsed:.1f}s")


def test_criterion_07_energy_convergence():
    with Stopwatch(10.0) as sw:
        moll = make_mollifier(1)
        g_wall = UniformGrid((1.0,), (2048,), "neumann")
        res_wall = energy_rate_study(g_wall, moll, "cospix", EPS_LADDER)
        g_per = UniformGrid((1.0,), (2048,), "periodic")
        res_per = energy_rate_study(g_per, moll, "sinmix", EPS_LADDER)
    sw.check()
    target = math.pi**2 / 4
    ok = (res_wall.monotone_decreasing and res_per.monotone_decreasing
          and abs(res_wall.limit_value - target) <= 1e-10 * target)
    report("7 energy convergence", ok,
           f"both ladders strictly decreasing; analytic limit {target:.6f} "
           f"matches {res_wall.limit_value:.6f}; {sw.elapsed:.1f}s")


def test_criterion_08_energy_factor_audit(tmp_path):
    g = UniformGrid((1.0,), (32,), "neumann")
    k = make_kernel(1, 0.25)
    f = Field(g, np.random.default_rng(2).standard_normal(g.shape))
    quad_form = l2_inner(apply_direct(k, f), f)
    double_sum = pair_difference_double_sum(k, f)
    ratio = quad_form / double_sum
    ok = abs(ratio - 0.5) <= 1e-10
    # the report itself is part of the criterion
    from nonloclab.cli import main

    out = tmp_path / "audit"
    code = main(["oracle-check", "--N", "32", "--eps", "0.25", "--out", str(out)])
    ok = ok and code == 0 and (out / "oracle_check_summary.json").exists()
    report("8 energy factor audit", ok,
           f"quadratic form / double sum = {ratio:.12f} (0.5 +- 1e-10), report emitted")


def test_criterion_09_solver_structure():
    with Stopwatch(120.0) as sw:
        g = UniformGrid((1.0,), (256,), "neumann")
        pot = DoubleWell(K=1.0)
        rng = np.random.default_rng(3)
        init = Field(g, 0.08 * rng.standard_normal(g.shape))
        kernel = make_kernel(1, 0.1)
        drifts, monotone = [], []
        for equation, kern in (("local-ch", None), ("nonlocal-ch", kernel)):
            cfg = SolverConfig(tau=1e-5, t_final=0.1, record_every=100)  # 10^4 steps
            rec = run(init, cfg, pot, equation, kern)
            drifts.append(float(np.max(np.abs(rec.mass - rec.mass[0]))))
            monotone.append(bool(np.all(np.diff(rec.energy) <= 1e-10)))
        # constants are stationary for every flow: one step, run to t_final = tau
        cfg1 = SolverConfig(tau=1e-4, t_final=1e-4, record_every=1)
        const = Field(g, np.full(g.shape, 0.4))
        well = Field(g, np.ones(g.shape))
        residues = []
        for start, equation, value in ((const, "local-ch", 0.4), (well, "local-ac", 1.0)):
            states = []
            run(start, cfg1, pot, equation, on_record=lambda i, v: states.append(v[0].copy()))
            residues.append(float(np.max(np.abs(states[-1] - value))))
        fixed = max(residues)
    sw.check()
    ok = all(d <= 1e-10 * g.volume for d in drifts) and all(monotone) and fixed < 1e-13
    report("9 solver structure", ok,
           f"mass drifts {drifts[0]:.1e}/{drifts[1]:.1e} <= 1e-10, energies monotone, "
           f"fixed-point residue {fixed:.1e}; {sw.elapsed:.1f}s")


def test_criterion_10_solution_convergence_ch(solution_setup):
    s = solution_setup
    with Stopwatch(600.0) as sw:
        res = solution_convergence_study(
            s["grid"], s["config"], s["potential"], s["mollifier"],
            SOLUTION_LADDER, "cosmix", equation="nonlocal-ch",
        )
    sw.check()
    h1 = res.tables["hminus1_sup"].fitted_slope
    l2st = res.tables["l2_spacetime"].fitted_slope
    ok = 0.35 <= h1 <= 0.8 and 0.35 <= l2st <= 0.8
    report("10 solution convergence (conserved)", ok,
           f"dual-norm slope {h1:.3f} and space-time slope {l2st:.3f} in [0.35, 0.8]; "
           f"{sw.elapsed:.1f}s")


def test_criterion_11_solution_convergence_ac(solution_setup):
    s = solution_setup
    with Stopwatch(300.0) as sw:
        res = solution_convergence_study(
            s["grid"], s["config"], s["potential"], s["mollifier"],
            SOLUTION_LADDER, "cosmix", equation="nonlocal-ac",
        )
    sw.check()
    slope = res.tables["l2_sup"].fitted_slope
    ok = 0.35 <= slope <= 0.8
    report("11 solution convergence (non-conserved)", ok,
           f"peak quadratic-norm slope {slope:.3f} in [0.35, 0.8]; {sw.elapsed:.1f}s")


def test_criterion_12_gronwall_trace():
    with Stopwatch(300.0) as sw:
        grid = UniformGrid((1.0,), (512,), "neumann")
        moll = make_mollifier(1)
        pot = DoubleWell(K=1.0)
        eps = 0.08

        def constant_at(tau, every):
            cfg = SolverConfig(tau=tau, t_final=0.02, record_every=every)
            # the audit steps the reference and the second rung, eps
            trace = gronwall_audit(
                grid, cfg, pot, moll, (0.16, eps, 0.04), "cosmix",
                perturbation_scale=0.0,
            )
            assert trace.holds_with(trace.empirical_constant)
            return trace.empirical_constant

        c_coarse = constant_at(2e-5, 20)
        c_fine = constant_at(1e-5, 40)
    sw.check()
    finite = np.isfinite(c_coarse) and np.isfinite(c_fine) and c_coarse > 0 and c_fine > 0
    stable = max(c_coarse, c_fine) / min(c_coarse, c_fine) < 2.0
    report("12 gronwall trace", finite and stable,
           f"inequality holds; C = {c_coarse:.4g} vs {c_fine:.4g} under step halving "
           f"(ratio {max(c_coarse, c_fine) / min(c_coarse, c_fine):.2f} < 2); {sw.elapsed:.1f}s")
