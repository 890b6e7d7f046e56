"""What the benchmark under ``perfbench/`` reaches in the package.

The tracer wraps functions and methods by name and reads two caches; the
workloads call the studies, the solver and the command line with fixed
argument forms.  A rename or a dropped argument there would break the traced
runs without failing any other test, so this module loads the benchmark's
``tracer.py`` and ``workloads.py`` (it never edits them) and checks that
every name and call form they use still resolves.
"""

import importlib
import importlib.util
import inspect
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nonloclab import cli, grid, nonlocal_ops, potentials, solvers

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")

TRACED_FUNCTIONS = [(m, a) for m, attrs in tracer.FUNCTIONS.items() for a in attrs]
TRACED_METHODS = [(m, c, a) for (m, c), attrs in tracer.METHODS.items() for a in attrs]


@pytest.mark.parametrize("module, attr", TRACED_FUNCTIONS)
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"nonloclab.{module}"), attr))


@pytest.mark.parametrize("module, cls, attr", TRACED_METHODS)
def test_traced_method_resolves(module, cls, attr):
    # the tracer patches the class's own attribute, not an inherited one
    assert callable(getattr(importlib.import_module(f"nonloclab.{module}"), cls).__dict__[attr])


def test_caches_the_tracer_reads():
    assert callable(nonlocal_ops._stencil_data.__wrapped__)
    assert nonlocal_ops._stencil_data.cache_info().maxsize is not None
    grid.laplacian_symbol.cache_info()


def test_run_call_form():
    # the tracer reads the config and the equation by position or keyword
    params = list(inspect.signature(solvers.run).parameters)
    assert params[:5] == ["initial", "config", "potential", "equation", "kernel"]
    assert solvers.SolverDivergedError.__name__ == "SolverDivergedError"


def test_tracer_installs_and_restores(tmp_path):
    commands = workloads._cli_setup(workloads._oracle_commands(0), tmp_path)
    originals = (solvers.run, nonlocal_ops._stencil_data, cli.main)
    trace = tracer.Tracer()
    trace.install()
    try:
        out = workloads._cli_execute({"oracle-1d": commands["oracle-1d"]})
    finally:
        trace.uninstall()
    assert (solvers.run, nonlocal_ops._stencil_data, cli.main) == originals
    assert out["codes"] == {"oracle-1d": 0}
    metrics = trace.layer_metrics()
    assert metrics["cli.main.calls"] == 1.0
    assert metrics["nonlocal_ops.stencil_cache.misses"] >= 1.0


def test_cli_workload_arguments_parse(tmp_path):
    parser = cli.build_parser()
    for commands in (workloads.RATE_SWEEP, workloads._oracle_commands(0)):
        for study, argv in workloads._cli_setup(commands, tmp_path).items():
            args = parser.parse_args(argv)
            assert args.workers == 1, study


def test_oracle_workload_checks_pass(tmp_path):
    out = workloads._cli_execute(workloads._cli_setup(workloads._oracle_commands(0), tmp_path))
    assert all(ok for _, ok, _ in workloads._cli_check(out))
    assert workloads._cli_observe(out)


def test_solution_workload_call_form(tmp_path):
    # the workload's own inputs and call (``workers=1`` included), cut to a
    # few steps
    inp = workloads._solution_setup(0, tmp_path)
    inp["config"] = replace(inp["config"], t_final=1e-4, record_every=1)
    out = workloads._solution_execute(inp)
    assert set(out) == set(workloads.SOLUTION_EQUATIONS)
    for result in out.values():
        assert set(result.records) == set(workloads.SOLUTION_LADDER)
    # the check and the readout read the reference's and the rungs' records
    assert all(ok for _, ok, _ in workloads._solution_check(out))
    assert workloads._solution_observe(out)


def test_flow_workload_reads_clamp_events(tmp_path):
    inp = workloads._flow_setup(0, tmp_path)
    inp["config"] = replace(inp["config"], t_final=2e-5, record_every=1)
    out = workloads._flow_execute(inp)
    assert all(ok for _, ok, _ in workloads._flow_check(out))
    # the check reads the attribute with a default, so its absence would
    # pass silently: it must exist and count clamped samples
    pot = potentials.LogarithmicPotential(theta=0.8, theta_c=1.0)
    assert pot.clamp_events == 0
    pot.fprime(np.array([0.0, 2.0, -2.0]))
    assert pot.clamp_events == 2
