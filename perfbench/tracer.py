"""Span tracer that wraps nonloclab's functions from outside the package.

A traced iteration installs wrappers on the package's public functions (and
on the potential classes' methods), records one span per call, and restores
every original name when it uninstalls.  Spans are kept in flat in-memory
arrays (name, parent, start, end) and summarized only after the timed region,
so recording one costs two clock reads and four appends.

Names bound by ``from .x import y`` are wrapped wherever they are looked up:
every module attribute of the package that *is* a traced function is
replaced, so ``solvers.transform_values`` and ``grid.transform_values`` both
record ``grid.transform_values`` spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array
from collections import Counter
from functools import lru_cache

PACKAGE = "nonloclab"
MODULES = ("kernels", "grid", "local_ops", "nonlocal_ops", "potentials",
           "solvers", "experiments", "reports", "cli")

# traced function -> span name; spans of one layer share the layer's group
FUNCTIONS = {
    "grid": ("transform_values", "inverse_transform_values", "spectral_coefficients",
             "field_from_coefficients", "l2_norm", "lp_norm", "sobolev_norm",
             "hminus1_norm"),
    "kernels": ("adaptive_gauss_legendre", "fourier_symbol"),
    "local_ops": ("laplacian", "inv_neumann_laplacian", "dirichlet_energy"),
    "nonlocal_ops": ("apply_fft", "apply_fft_values", "apply_direct",
                     "pair_difference_double_sum", "nonlocal_energy", "interior_remainder"),
    "experiments": ("fit_rate", "operator_rate_study", "energy_rate_study", "symbol_study",
                    "remainder_rate_study", "solution_convergence_study", "gronwall_trace"),
    "reports": ("write_rate_csv", "write_series_csv", "write_summary_json",
                "write_loglog_svg"),
    "cli": ("main",),
}
METHODS = {
    ("potentials", "DoubleWell"): ("f", "fprime"),
    ("potentials", "LogarithmicPotential"): ("f", "fprime"),
    ("solvers", "_Stepper"): ("step_values",),
}

# layer group -> the span names it covers
GROUPS = {
    "potentials.fprime": ("potentials.DoubleWell.fprime", "potentials.LogarithmicPotential.fprime"),
    "potentials.f": ("potentials.DoubleWell.f", "potentials.LogarithmicPotential.f"),
    "grid.transform": ("grid.transform_values", "grid.inverse_transform_values",
                       "grid.spectral_coefficients", "grid.field_from_coefficients"),
    "grid.norms": ("grid.l2_norm", "grid.lp_norm", "grid.sobolev_norm", "grid.hminus1_norm"),
    "nonlocal_ops.apply_fft": ("nonlocal_ops.apply_fft", "nonlocal_ops.apply_fft_values"),
    "nonlocal_ops.apply_direct": ("nonlocal_ops.apply_direct",),
    "nonlocal_ops.pair_double_sum": ("nonlocal_ops.pair_difference_double_sum",),
    "nonlocal_ops.nonlocal_energy": ("nonlocal_ops.nonlocal_energy",),
    "nonlocal_ops.interior_remainder": ("nonlocal_ops.interior_remainder",),
    "nonlocal_ops.stencil_build": ("nonlocal_ops.stencil_build",),
    "local_ops": ("local_ops.laplacian", "local_ops.inv_neumann_laplacian",
                  "local_ops.dirichlet_energy"),
    "kernels.quadrature": ("kernels.adaptive_gauss_legendre",),
    "kernels.fourier_symbol": ("kernels.fourier_symbol",),
    "solvers.run": ("solvers.run.local", "solvers.run.nonlocal"),
    "solvers.run.local": ("solvers.run.local",),
    "solvers.run.nonlocal": ("solvers.run.nonlocal",),
    "solvers.step": ("solvers._Stepper.step_values",),
    "experiments.fit_rate": ("experiments.fit_rate",),
    "reports.write": ("reports.write_rate_csv", "reports.write_series_csv",
                      "reports.write_summary_json", "reports.write_loglog_svg"),
    "cli.main": ("cli.main",),
}
for _study in FUNCTIONS["experiments"][1:]:
    GROUPS[f"experiments.{_study}"] = (f"experiments.{_study}",)


class Tracer:
    """In-memory span recorder; one instance per traced iteration."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []
        self._stencil_cache = None
        self._laplacian_base = None
        self._instances: dict[int, object] = {}

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, observe=None):
        """Return ``fn`` recording a span per call.

        ``name`` is a span name or a callable ``(args, kwargs) -> name``;
        ``observe(args, kwargs, outcome)`` sees the result or the exception.
        """
        fixed = None if callable(name) else self._name_id(name)
        clock, stack = self.clock, self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self._name_id(name(args, kwargs))
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                outcome = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = clock()
                stack.pop()
                if observe is not None:
                    observe(args, kwargs, exc)
                raise
            end[idx] = clock()
            stack.pop()
            if observe is not None:
                observe(args, kwargs, outcome)
            return outcome

        return wrapper

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced name in the package; undo with :meth:`uninstall`."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        everywhere = [importlib.import_module(PACKAGE), *modules.values()]
        try:
            for mod_name, attrs in FUNCTIONS.items():
                for attr in attrs:
                    original = getattr(modules[mod_name], attr)
                    wrapper = self.wrap(original, f"{mod_name}.{attr}",
                                        self._observer(mod_name, attr))
                    self._replace_everywhere(everywhere, original, wrapper)
            run = modules["solvers"].run
            self._replace_everywhere(everywhere, run, self.wrap(run, _run_span, self._observe_run))
            for (mod_name, cls_name), attrs in METHODS.items():
                cls = getattr(modules[mod_name], cls_name)
                for attr in attrs:
                    self._patch(cls, attr, self.wrap(cls.__dict__[attr],
                                                     f"{mod_name}.{cls_name}.{attr}",
                                                     self._observe_instance
                                                     if mod_name == "potentials" else None))
            # a fresh cache around the builder, so build spans are cache misses only
            nl = modules["nonlocal_ops"]
            self._stencil_cache = lru_cache(maxsize=nl._stencil_data.cache_info().maxsize)(
                self.wrap(nl._stencil_data.__wrapped__, "nonlocal_ops.stencil_build"))
            self._patch(nl, "_stencil_data", self._stencil_cache)
            self._laplacian_base = modules["grid"].laplacian_symbol.cache_info()
        except BaseException:
            self.uninstall()
            raise

    def _replace_everywhere(self, modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _observer(self, mod_name: str, attr: str):
        if mod_name == "reports":
            def observe(args, kwargs, outcome):
                path = kwargs.get("path", args[0] if args else None)
                if not isinstance(outcome, BaseException) and path is not None:
                    self.counters["reports.write.bytes"] += os.path.getsize(path)
            return observe
        if mod_name == "cli":
            def observe(args, kwargs, outcome):
                if isinstance(outcome, BaseException) or outcome != 0:
                    self.counters["cli.main.nonzero_exits"] += 1
            return observe
        return None

    def _observe_instance(self, args, kwargs, outcome) -> None:
        self._instances[id(args[0])] = args[0]

    def _observe_run(self, args, kwargs, outcome) -> None:
        config = kwargs.get("config", args[1] if len(args) > 1 else None)
        steps = max(1, int(round(config.t_final / config.tau)))
        self.counters[f"solvers.steps.{_run_span(args, kwargs).rsplit('.', 1)[1]}"] += steps
        if type(outcome).__name__ == "SolverDivergedError":
            self.counters["solvers.diverged"] += 1

    # -- summarizing -------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, self time and inclusive time, plus counters."""
        out = summarize(self.names, self.name_id, self.parent, self.start, self.end, GROUPS)
        for name in ("solvers.steps.local", "solvers.steps.nonlocal", "solvers.diverged",
                     "reports.write.bytes", "cli.main.nonzero_exits"):
            out[name] = float(self.counters[name])
        # clamp counts live on the potential objects the traced calls saw
        out["potentials.clamp_events"] = float(sum(
            getattr(obj, "clamp_events", 0) for obj in self._instances.values()))
        if self._stencil_cache is not None:
            info = self._stencil_cache.cache_info()
            out["nonlocal_ops.stencil_cache.hits"] = float(info.hits)
            out["nonlocal_ops.stencil_cache.misses"] = float(info.misses)
            total = info.hits + info.misses
            out["nonlocal_ops.stencil_cache.hit_ratio"] = info.hits / total if total else 0.0
        if self._laplacian_base is not None:
            info = importlib.import_module(f"{PACKAGE}.grid").laplacian_symbol.cache_info()
            out["grid.laplacian_symbol_cache.hits"] = float(info.hits - self._laplacian_base.hits)
            out["grid.laplacian_symbol_cache.misses"] = float(
                info.misses - self._laplacian_base.misses)
        return out


def _run_span(args, kwargs) -> str:
    equation = kwargs.get("equation", args[3] if len(args) > 3 else "")
    return "solvers.run.nonlocal" if equation.startswith("nonlocal") else "solvers.run.local"


def self_times(parent, start, end) -> list[float]:
    """Span duration minus the durations of its direct children.

    Spans come from one thread's call stack, so children nest inside their
    parent and never overlap each other: their durations add up to the part
    of the parent they cover.
    """
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def summarize(names, name_id, parent, start, end, groups) -> dict[str, float]:
    """``<group>.calls``, ``.self_s`` and ``.s`` for each layer group.

    A call counts once per entry into the group: a span whose parent already
    belongs to the same group (``spectral_coefficients`` calling
    ``transform_values``) adds self time but no call and no inclusive time.
    """
    own = self_times(parent, start, end)
    member_of = [[g for g, members in groups.items() if n in members] for n in names]
    calls = dict.fromkeys(groups, 0)
    self_s = dict.fromkeys(groups, 0.0)
    total_s = dict.fromkeys(groups, 0.0)
    for i, nid in enumerate(name_id):
        p = parent[i]
        outer = member_of[name_id[p]] if p >= 0 else ()
        for group in member_of[nid]:
            self_s[group] += own[i]
            if group not in outer:
                calls[group] += 1
                total_s[group] += end[i] - start[i]
    out: dict[str, float] = {}
    for group in groups:
        out[f"{group}.calls"] = float(calls[group])
        out[f"{group}.self_s"] = self_s[group]
        out[f"{group}.s"] = total_s[group]
    return out
