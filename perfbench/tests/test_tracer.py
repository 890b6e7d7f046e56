"""Tests for the benchmark's tracer.

    python3 -m pytest perfbench/tests -q
"""

import importlib
import itertools

import pytest

import tracer
import worker
import workloads
from tracer import Tracer, self_times, summarize


def _snapshot():
    """Identity of every attribute the tracer may replace."""
    owners = [importlib.import_module(tracer.PACKAGE)]
    owners += [importlib.import_module(f"{tracer.PACKAGE}.{m}") for m in tracer.MODULES]
    snap = {(owner.__name__, attr): id(value)
            for owner in owners for attr, value in vars(owner).items()}
    for (mod, cls_name), attrs in tracer.METHODS.items():
        cls = getattr(importlib.import_module(f"{tracer.PACKAGE}.{mod}"), cls_name)
        snap.update({(cls.__qualname__, attr): id(cls.__dict__[attr]) for attr in attrs})
    return snap


def test_self_time_on_nested_tree():
    #   a [0, 10]
    #   +- b [1, 4]
    #   +- c [5, 9]
    #      +- d [6, 8]
    parent = [-1, 0, 0, 2]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 8.0]
    assert self_times(parent, start, end) == [3.0, 3.0, 2.0, 2.0]

    names = ["a", "b", "c", "d"]
    out = summarize(names, [0, 1, 2, 3], parent, start, end,
                    {"leaves": ("b", "d"), "nested": ("c", "d"), "root": ("a",)})
    # b and d are separate entries into "leaves"
    assert (out["leaves.calls"], out["leaves.self_s"], out["leaves.s"]) == (2.0, 5.0, 5.0)
    # d runs inside c, so "nested" is entered once and its inclusive time is c's
    assert (out["nested.calls"], out["nested.self_s"], out["nested.s"]) == (1.0, 4.0, 4.0)
    assert (out["root.calls"], out["root.self_s"], out["root.s"]) == (1.0, 3.0, 10.0)


def test_wrap_records_parent_and_exceptions():
    ticks = itertools.count()
    tr = Tracer(clock=lambda: float(next(ticks)))
    seen = []
    inner = tr.wrap(lambda x: x + 1, "inner")
    outer = tr.wrap(lambda x: inner(x) * 2, "outer",
                    observe=lambda args, kwargs, outcome: seen.append(outcome))
    failing = tr.wrap(lambda: 1 / 0, "failing", observe=lambda a, k, o: seen.append(type(o)))

    assert outer(1) == 4
    with pytest.raises(ZeroDivisionError):
        failing()
    assert [tr.names[i] for i in tr.name_id] == ["outer", "inner", "failing"]
    assert list(tr.parent) == [-1, 0, -1]
    assert seen == [4, ZeroDivisionError]
    assert all(e > s for s, e in zip(tr.start, tr.end))


def test_install_wraps_where_names_are_looked_up_and_uninstall_restores():
    from nonloclab import grid, potentials, solvers

    before = _snapshot()
    original = grid.transform_values
    tr = Tracer()
    tr.install()
    try:
        # bound by ``from .grid import transform_values`` in solvers: wrapped there too
        assert solvers.transform_values is grid.transform_values
        assert solvers.transform_values.__wrapped__ is original
        assert potentials.DoubleWell.fprime.__wrapped__ is not None
        potentials.DoubleWell().fprime(0.5)
        assert tr.names[tr.name_id[-1]] == "potentials.DoubleWell.fprime"
    finally:
        tr.uninstall()
    assert _snapshot() == before
    assert solvers.transform_values is original

    # the untraced path calls the originals: nothing more is recorded
    recorded = len(tr.start)
    potentials.DoubleWell().fprime(0.5)
    assert len(tr.start) == recorded


def _traced_iteration(name):
    workload = workloads.WORKLOADS[name]
    result = worker._iterate(workload, workload.setup(0, None), trace=True)
    failed = [c for c in result["checks"] if not c[1]]
    assert not failed, failed
    return result["layers"]


def test_step_counts_solution_1d():
    layers = _traced_iteration("solution-1d")
    assert layers["solvers.steps.local"] == 50_000
    assert layers["solvers.steps.nonlocal"] == 20_000
    assert layers["solvers.step.calls"] == 70_000
    assert layers["potentials.fprime.calls"] == 70_000
    assert layers["experiments.solution_convergence_study.calls"] == 2


def test_step_counts_flow_2d():
    layers = _traced_iteration("flow-2d")
    assert layers["solvers.steps.local"] == 0
    assert layers["solvers.steps.nonlocal"] == 2_000
    assert layers["solvers.step.calls"] == 2_000
    assert layers["potentials.clamp_events"] == 0
