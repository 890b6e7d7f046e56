"""The four benchmark workloads: inputs from a seed, the timed work, its checks.

Each workload has three parts.  ``setup(seed, workdir)`` builds every input
(grids, mollifiers, potentials, seeded fields, CLI argument lists) and counts
toward set-up time.  ``execute(inputs)`` is the timed region.  ``check`` and
``observe`` run after the clock stops: ``check`` returns the pass/fail
verdicts counted in ``failed_frac``, ``observe`` the numbers compared against
the captured reference values.

The package is always reached through module attributes at call time
(``experiments.solution_convergence_study``, ``cli.main``), so a traced
iteration sees the tracer's wrappers and an untraced one the originals.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from nonloclab import cli, experiments, kernels, potentials, solvers
from nonloclab.grid import Field, UniformGrid

SLOPE_BAND = (0.35, 0.8)
MASS_DRIFT_TOL = 1e-10
ENERGY_RISE_TOL = 1e-10


@dataclass(frozen=True)
class Workload:
    setup: Callable
    execute: Callable
    check: Callable
    observe: Callable
    steps: int               # IMEX steps per iteration, round(T / tau) summed over runs
    working_set: str         # what the hot loop touches, for the run metadata


def _energy_checks(label: str, record) -> list:
    rise = float(np.max(np.diff(record.energy))) if len(record.energy) > 1 else 0.0
    return [(f"{label} energy non-increasing", rise <= ENERGY_RISE_TOL,
             f"max rise {rise:.3e}")]


def _mass_checks(label: str, record) -> list:
    drift = float(np.max(np.abs(record.mass - record.mass[0])))
    return [(f"{label} mass drift", drift <= MASS_DRIFT_TOL, f"drift {drift:.3e}")]


# ---------------------------------------------------------------------------
# solution-1d: the two solution-convergence studies of acceptance criteria 10, 11

SOLUTION_LADDER = (0.16, 0.08, 0.04, 0.02)
SOLUTION_EQUATIONS = ("nonlocal-ch", "nonlocal-ac")
# criterion 10 bands the dual-norm and space-time slopes, criterion 11 the peak L2 slope
SOLUTION_BANDED = {"nonlocal-ch": ("hminus1_sup", "l2_spacetime"), "nonlocal-ac": ("l2_sup",)}


def cosine_initial(grid: UniformGrid, seed: int) -> Field:
    """cos(k pi x), k = 1..3, amplitudes (0.2, 0.1, 0.05) x U[0.5, 1.5] x random sign."""
    rng = np.random.default_rng(seed)
    amps = np.array([0.2, 0.1, 0.05]) * rng.uniform(0.5, 1.5, 3) * rng.choice([-1.0, 1.0], 3)
    x = grid.axis_nodes(0) / grid.lengths[0]
    return Field(grid, sum(a * np.cos(k * np.pi * x) for k, a in enumerate(amps, 1)))


def _solution_setup(seed: int, workdir: Path):
    grid = UniformGrid((1.0,), (1024,), "neumann")
    return {
        "grid": grid,
        "mollifier": kernels.make_mollifier(1),
        "potential": potentials.DoubleWell(K=1.0),
        "config": solvers.SolverConfig(tau=2e-5, t_final=0.05, record_every=25),
        "initial": cosine_initial(grid, seed),
    }


def _solution_execute(inp):
    return {
        eq: experiments.solution_convergence_study(
            inp["grid"], inp["config"], inp["potential"], inp["mollifier"],
            SOLUTION_LADDER, inp["initial"], equation=eq, perturbation_scale=0.05, workers=1)
        for eq in SOLUTION_EQUATIONS
    }


def _solution_check(out) -> list:
    checks = []
    lo, hi = SLOPE_BAND
    for eq, result in out.items():
        for norm in SOLUTION_BANDED[eq]:
            slope = result.tables[norm].fitted_slope
            checks.append((f"{eq} {norm} slope in band", lo <= slope <= hi, f"slope {slope:.4f}"))
        records = {"reference": result.reference,
                   **{f"eps={e:g}": r for e, r in result.records.items()}}
        for label, record in records.items():
            checks += _energy_checks(f"{eq} {label}", record)
            if eq.endswith("ch"):
                checks += _mass_checks(f"{eq} {label}", record)
    return checks


def _solution_observe(out) -> dict:
    obs = {}
    for eq, result in out.items():
        for norm, errors in result.errors.items():
            obs[f"{eq}.errors.{norm}"] = list(errors)
            obs[f"{eq}.slope.{norm}"] = result.tables[norm].fitted_slope
        obs[f"{eq}.final_energy.reference"] = float(result.reference.energy[-1])
        obs[f"{eq}.final_energy.nonlocal"] = [float(r.energy[-1])
                                              for r in result.records.values()]
    return obs


# ---------------------------------------------------------------------------
# flow-2d: two 128^2 nonlocal runs, array-size bound

FLOW_CELLS = (128, 128)


def low_mode_initial(grid: UniformGrid, seed: int, amplitude: float = 0.3) -> Field:
    """Seeded mean-free low-mode field with max |c| <= amplitude.

    Neumann grids get cos(k pi x) cos(l pi y), periodic ones cos and sin of
    2 pi (k x + l y); the coefficients' absolute sum is scaled to ``amplitude``.
    """
    rng = np.random.default_rng(seed)
    x, y = (m / L for m, L in zip(grid.meshgrid(), grid.lengths))
    if grid.boundary == "neumann":
        modes = [np.cos(k * np.pi * x) * np.cos(l * np.pi * y)
                 for k in range(4) for l in range(4) if (k, l) != (0, 0)]
    else:
        phases = [2 * np.pi * (k * x + l * y) for k in range(3) for l in range(3)
                  if (k, l) != (0, 0)]
        modes = [f(p) for p in phases for f in (np.cos, np.sin)]
    coef = rng.standard_normal(len(modes))
    coef *= amplitude / np.sum(np.abs(coef))
    return Field(grid, sum(c * m for c, m in zip(coef, modes)))


def _flow_setup(seed: int, workdir: Path):
    neumann = UniformGrid((1.0, 1.0), FLOW_CELLS, "neumann")
    periodic = UniformGrid((1.0, 1.0), FLOW_CELLS, "periodic")
    kernel = kernels.Kernel(kernels.make_mollifier(2), 0.1)
    config = solvers.SolverConfig(tau=1e-5, t_final=0.01, record_every=100)
    return {
        "runs": (
            ("nonlocal-ch", low_mode_initial(neumann, seed), potentials.DoubleWell(K=1.0)),
            ("nonlocal-ac", low_mode_initial(periodic, seed + 1),
             potentials.LogarithmicPotential(theta=0.8, theta_c=1.0)),
        ),
        "kernel": kernel,
        "config": config,
    }


def _flow_execute(inp):
    return [(eq, pot, solvers.run(initial, inp["config"], pot, eq, inp["kernel"]))
            for eq, initial, pot in inp["runs"]]


def _flow_check(out) -> list:
    checks = []
    for eq, pot, record in out:
        checks += _energy_checks(eq, record)
        if eq.endswith("ch"):
            checks += _mass_checks(eq, record)
        events = getattr(pot, "clamp_events", 0)
        checks.append((f"{eq} clamp events", events == 0, f"{events} clamped samples"))
    return checks


def _flow_observe(out) -> dict:
    obs = {}
    for eq, _, record in out:
        obs[f"{eq}.energy"] = [float(e) for e in record.energy]
        obs[f"{eq}.mass"] = [float(m) for m in record.mass]
    return obs


# ---------------------------------------------------------------------------
# CLI workloads: every study through cli.main in one process

LADDER_2D = "0.4,0.2,0.1,0.07"   # keeps >= 8 cells of support on 128^2

RATE_SWEEP = {
    "check-kernel-1d": ["check-kernel", "--n", "1", "--eps", "0.1"],
    "check-kernel-2d": ["check-kernel", "--n", "2", "--eps", "0.1"],
    "symbol-rate-1d": ["symbol-rate", "--n", "1"],
    "symbol-rate-2d": ["symbol-rate", "--n", "2"],
    "operator-neumann-cospix": ["operator-rate", "--domain", "neumann", "--func", "cospix",
                                "--N", "4096"],
    "operator-neumann-flatbump": ["operator-rate", "--domain", "neumann", "--func", "flatbump",
                                  "--N", "4096"],
    "operator-periodic-sinmix": ["operator-rate", "--domain", "periodic", "--func", "sinmix",
                                 "--N", "4096"],
    "energy-neumann": ["energy-rate", "--domain", "neumann", "--func", "cospix", "--N", "2048"],
    "energy-periodic": ["energy-rate", "--domain", "periodic", "--func", "sinmix", "--N", "2048"],
    "remainder-1d": ["remainder-rate", "--N", "1024", "--margin-factor", "0.5"],
    "operator-2d": ["operator-rate", "--N", "128,128", "--func", "cospix", "--eps", LADDER_2D],
    "energy-2d": ["energy-rate", "--N", "128,128", "--func", "cospix", "--eps", LADDER_2D],
    "remainder-2d": ["remainder-rate", "--N", "128,128", "--eps", LADDER_2D],
}


def _oracle_commands(seed: int) -> dict:
    return {
        "oracle-1d": ["oracle-check", "--N", "256", "--eps", "0.1", "--tol", "1e-10",
                      "--seed", str(seed)],
        "oracle-2d": ["oracle-check", "--N", "64,64", "--eps", "0.15", "--tol", "1e-9",
                      "--seed", str(seed + 1)],
    }


def _cli_setup(commands: dict, workdir: Path):
    from nonloclab import reports  # noqa: F401  (imported lazily by the CLI; load it now)

    return {study: argv + ["--workers", "1", "--out", str(workdir / study)]
            for study, argv in commands.items()}


def _cli_execute(inp):
    codes = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for study, argv in inp.items():
            codes[study] = cli.main(argv)
    return {"codes": codes, "outdirs": {s: Path(a[-1]) for s, a in inp.items()}}


def _summaries(out):
    for study, outdir in out["outdirs"].items():
        for path in sorted(outdir.glob("*_summary.json")):
            yield study, path.name, json.loads(path.read_text())


def _cli_check(out) -> list:
    checks = [(f"{study} exit 0", code == 0, f"exit {code}")
              for study, code in out["codes"].items()]
    for study, name, summary in _summaries(out):
        if name == "oracle_check_summary.json":
            rel, tol = summary["relative_l2_difference"], summary["tolerance"]
            ratio = summary["quadratic_form_over_double_sum"]
            checks.append((f"{study} fft vs direct", rel <= tol, f"rel {rel:.3e} (tol {tol:g})"))
            checks.append((f"{study} quadratic form / double sum", abs(ratio - 0.5) <= 1e-10,
                           f"ratio {ratio:.15f}"))
    return checks


# summary fields that are rounding-level by design (their size is the check)
_ROUNDING_FIELDS = {"relative_l2_difference", "quadratic_form_over_double_sum",
                    "first_moments"}


def _cli_observe(out) -> dict:
    obs = {}
    for study, name, summary in _summaries(out):
        for key, value in sorted(summary.items()):
            if key in _ROUNDING_FIELDS or isinstance(value, (bool, str)) or value is None:
                continue
            if isinstance(value, (int, float)) or (
                    isinstance(value, list) and all(isinstance(v, (int, float))
                                                    and not isinstance(v, bool) for v in value)):
                obs[f"{study}.{key}"] = value
    return obs


WORKLOADS = {
    "solution-1d": Workload(
        _solution_setup, _solution_execute, _solution_check, _solution_observe,
        steps=len(SOLUTION_EQUATIONS) * (25_000 + len(SOLUTION_LADDER) * 2_500),
        working_set="1D N=1024 fields of 8 KiB; 101 reference checkpoints per study",
    ),
    "flow-2d": Workload(
        _flow_setup, _flow_execute, _flow_check, _flow_observe,
        steps=2 * 1_000,
        working_set="128^2 fields of 128 KiB; padded rfft 160^2 (200 KiB) on the Neumann run",
    ),
    "rate-sweep": Workload(
        lambda seed, workdir: _cli_setup(RATE_SWEEP, workdir), _cli_execute,
        _cli_check, _cli_observe, steps=0,
        working_set="1D fields up to N=4096 (32 KiB), stencils of reach up to 820, "
                    "2D 128^2 (128 KiB)",
    ),
    "oracle": Workload(
        lambda seed, workdir: _cli_setup(_oracle_commands(seed), workdir),
        _cli_execute, _cli_check, _cli_observe, steps=0,
        working_set="2D 64^2 direct sum: 2048 x 4096 x 2 float64 block temporaries "
                    f"({2048 * 4096 * 2 * 8 / 2**20:.0f} MiB each)",
    ),
}

