"""Time integrators for the four gradient flows, with mass and energy tracking.

All four equations share one time discretization, the stabilized
semi-implicit first-order IMEX step, and one time loop, :func:`run_batch`.
It advances a batch of members that share the grid, the equation, the
config and the potential and differ in their kernels (one per member,
``None`` for the local flows); :func:`run` is a one-member call of it.
Every state array carries the member axis first, and the transforms act on
the trailing grid axes, so each step transforms the whole batch at once.

The loop carries the state as its coefficients ``chat`` in the grid's
transform basis (cosine for zero-flux boxes, the real-to-complex Fourier
half spectrum for periodic ones).  The implicit part is the
constant-coefficient portion ``nu`` of the driving operator, which is
diagonal in that basis: the Laplacian symbol for the local flows, and for
the nonlocal flows the symbol of the member's reflected/wrapped stencil
operator, both plus the scalar stabilizer.  Everything else is explicit, so
one step is

    values = inverse transform of chat
    chat   = decay * chat - gain * T(fprime(values) - R(values))

with the gain ``tau * drive / denom`` and ``decay = 1 - gain * nu``, the
update ``chat -= gain * (nu * chat + T(...))`` in fewer passes, and two
transforms per step for the whole batch.  ``gain`` and ``decay`` are stacked
along the member axis.  ``values`` also serve the divergence guard, checked
per member, and the records.  The explicit operator part ``R`` depends only
on the grid, and is applied member by member with that member's kernel:

- local flows and periodic grids: none, the symbol is exact;
- zero-flux boxes: the boundary remainder, the reflected operator minus the
  true one, which lives within ``reach`` cells of each wall
  (:class:`~nonloclab.nonlocal_ops.WallRemainder`).  In 1D it is two small
  dense strip matrices; in 2D, per wall, a cosine transform along the wall
  of the ``reach``-deep edge layers with one ``reach x reach`` matrix per
  cosine mode, plus a small correction at each corner.  No step applies the
  padded-FFT operator.

Each member's arithmetic is the same as in a batch of one, so batched
records equal separate runs bit for bit.  The stabilizer is the potential's
curvature bound ``alpha``, so the step dissipates the corresponding free
energy unconditionally.  The flows have unit mobility (a constant mobility
``M`` only rescales time: run at ``M tau`` to ``M t_final``).  The mass mode
is untouched by construction for the conserved flows.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .grid import (
    NEUMANN,
    Field,
    UniformGrid,
    integrate,
    inverse_transform_values,
    laplacian_symbol,
    transform_values,
)
from .kernels import Kernel
from .local_ops import dirichlet_energy
from .nonlocal_ops import stencil_symbol
from . import nonlocal_ops

__all__ = [
    "EQUATIONS",
    "SolverConfig",
    "TrajectoryRecord",
    "SolverDivergedError",
    "run",
    "run_batch",
    "record_steps",
]

EQUATIONS = ("local-ch", "nonlocal-ch", "local-ac", "nonlocal-ac")

_DIVERGENCE_FACTOR = 1e6


class SolverDivergedError(RuntimeError):
    """Raised when the state norm blows past the divergence guard."""


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters shared by all equations: the step, the final time and
    the record cadence."""

    tau: float
    t_final: float
    record_every: int = 1

    def __post_init__(self):
        for name in ("tau", "t_final"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not isinstance(self.record_every, numbers.Integral):
            raise ValueError(f"record_every must be an integer, got {self.record_every!r}")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if not self.t_final >= self.tau:
            raise ValueError("t_final must be at least one step")
        if not math.isfinite(self.t_final / self.tau):
            raise ValueError(f"t_final / tau = {self.t_final:g} / {self.tau:g} overflows a float; "
                             "the step count is not finite")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")


@dataclass(frozen=True)
class TrajectoryRecord:
    """Recorded times with their mass and free energy series; the states
    themselves reach a caller only through ``on_record``."""

    times: np.ndarray
    mass: np.ndarray
    energy: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if np.any(np.diff(times) <= 0):
            raise ValueError("record times must be strictly increasing")
        for name in ("times", "mass", "energy"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, arr)


class _Stepper:
    """One IMEX step for a batch of members that share a grid, an equation,
    a config and a potential and differ in their kernels (one per member,
    ``None`` for the local flows).  Arrays carry the member axis first."""

    def __init__(self, grid: UniformGrid, equation: str, config: SolverConfig,
                 potential, kernels):
        if equation not in EQUATIONS:
            raise ValueError(f"equation must be one of {EQUATIONS}")
        nonlocal_eq = equation.startswith("nonlocal")
        if nonlocal_eq:
            if any(k is None for k in kernels):
                raise ValueError(f"{equation} needs a kernel")
            for kernel in kernels:
                nonlocal_ops.check_support_reaches_nodes(kernel, grid)
        elif any(k is not None for k in kernels):
            raise ValueError(f"{equation} takes no kernel")
        self.grid = grid
        self.potential = potential
        self.kernels = tuple(kernels)
        self.nonlocal_eq = nonlocal_eq

        lam = laplacian_symbol(grid)
        # the cached, read-only symbol: never written in place
        drive = lam if equation.endswith("ch") else np.ones_like(lam)
        s = potential.alpha
        nu = np.stack([stencil_symbol(k, grid) if nonlocal_eq else lam for k in self.kernels])
        with np.errstate(over="ignore", invalid="ignore"):
            rate = config.tau * drive
            denom = 1.0 + rate * (nu + s)
            gain = rate / denom
        # where the denominator overflows, the gain has reached its limit
        # 1 / (nu + s) to full precision (inf / inf would give nan)
        np.divide(1.0, nu + s, out=gain, where=np.isinf(denom))
        self.gain = gain
        self.nu = nu
        # the share of chat a step keeps: exactly 1 on the conserved mass
        # mode (gain 0), and s / (nu + s) where the gain reached its limit
        self.decay = 1.0 - gain * nu

        # the explicit operator part, chosen from the grid alone: none but on
        # the zero-flux boxes of the nonlocal flows
        self.remainders = []
        if nonlocal_eq and grid.boundary == NEUMANN:
            self.remainders = [nonlocal_ops.wall_remainder(k, grid) for k in self.kernels]

    def step_values(self, values: np.ndarray, chat: np.ndarray):
        """One step from the members' values and transform coefficients;
        returns both for the new states."""
        g = self.potential.fprime(values)
        # true operator = reflected operator (nu) minus the boundary remainder;
        # it subtracts from the (fresh) array fprime returns
        for m, remainder in enumerate(self.remainders):
            remainder.subtract(values[m], g[m])
        ghat = transform_values(self.grid, g)
        ghat *= self.gain
        chat = self.decay * chat
        chat -= ghat
        return inverse_transform_values(self.grid, chat), chat

    def energy(self, member: int, values: np.ndarray) -> float:
        field = Field(self.grid, values)
        bulk = integrate(Field(self.grid, self.potential.f(values)))
        if self.nonlocal_eq:
            return nonlocal_ops.nonlocal_energy(self.kernels[member], field) + bulk
        return dirichlet_energy(field) + bulk


def run(initial: Field, config: SolverConfig, potential, equation: str,
        kernel: Kernel | None = None, on_record=None) -> TrajectoryRecord:
    """Advance to the final time, recording mass and free energy.

    ``t_final`` must be a whole number of steps.  Records are taken at step
    zero, every ``record_every`` steps, and at the final step.  ``on_record``
    is :func:`run_batch`'s, called with a batch of one: the state is
    ``values[0]``.
    """
    (record,) = run_batch([initial], config, potential, equation, [kernel], on_record)
    return record


def run_batch(initials, config: SolverConfig, potential, equation: str,
              kernels, on_record=None) -> list[TrajectoryRecord]:
    """:func:`run` for several members at once, one kernel per initial field.

    The members share the grid, ``config``, ``potential`` and ``equation``;
    each step transforms all of them together.  Every member's record equals
    that of its own :func:`run` call bit for bit.  The divergence guard is
    checked per member and names the member that tripped it.

    ``on_record(index, values)``, if given, is called at every record, with
    the record's index (0, 1, ... in order) and the member-first array of the
    batch's values; it is the only way the states leave the loop.  The array
    is the loop's own: a callback reads it before the next step and copies
    what it keeps, so a caller that needs the states only through what it
    computes from them keeps none.
    """
    initials, kernels = list(initials), list(kernels)
    if not initials or len(initials) != len(kernels):
        raise ValueError("run_batch needs one kernel per initial field, and at least one")
    grid = initials[0].grid
    if any(f.grid != grid for f in initials):
        raise ValueError("the members of a batch must share one grid")
    stepper = _Stepper(grid, equation, config, potential, kernels)
    steps = record_steps(config)
    members = range(len(initials))
    values = np.stack([f.values for f in initials])
    chat = transform_values(grid, values)
    # clipped to the largest float, so an infinite peak always trips it
    guard = np.minimum(_DIVERGENCE_FACTOR * np.maximum(1.0, _member_peaks(values)),
                       np.finfo(float).max)
    lowest_guard = guard.min()

    times = []
    mass: list[list[float]] = [[] for _ in members]
    energy: list[list[float]] = [[] for _ in members]

    def record(step: int, vals: np.ndarray) -> None:
        if on_record is not None:
            on_record(len(times), vals)
        times.append(step * config.tau)
        for m in members:
            mass[m].append(integrate(Field(grid, vals[m])))
            energy[m].append(stepper.energy(m, vals[m]))

    record(0, values)
    for last, stop in itertools.pairwise(steps):
        for step in range(last + 1, stop + 1):
            values, chat = stepper.step_values(values, chat)
            # one reduction over the whole batch; per member only when it trips
            if not np.abs(values).max() <= lowest_guard:
                peaks = _member_peaks(values)
                tripped = np.flatnonzero(~(peaks <= guard))
                if tripped.size:
                    m = tripped[0]
                    kernel = stepper.kernels[m]
                    who = f" (epsilon = {kernel.epsilon:g})" if kernel is not None else ""
                    raise SolverDivergedError(
                        f"{equation}{who} diverged at step {step} "
                        f"(t = {step * config.tau:.6g}): max |c| = {peaks[m]:.3e}"
                    )
        record(stop, values)

    return [TrajectoryRecord(times=np.asarray(times), mass=np.asarray(mass[m]),
                             energy=np.asarray(energy[m])) for m in members]


def record_steps(config: SolverConfig):
    """The steps at which :func:`run` records, as a lazy increasing sequence:
    zero, every ``record_every`` steps, and the final step.  Raises
    ``ValueError`` unless ``t_final`` is a whole number of steps."""
    n_steps = int(round(config.t_final / config.tau))
    if abs(n_steps * config.tau - config.t_final) > 1e-9 * config.t_final:
        raise ValueError(
            f"t_final = {config.t_final:g} is not a whole number of steps of "
            f"tau = {config.tau:g}; the nearest step count ends at {n_steps * config.tau:g}"
        )
    final = [n_steps] if n_steps % config.record_every else []
    return itertools.chain(range(0, n_steps + 1, config.record_every), final)


def _member_peaks(values: np.ndarray) -> np.ndarray:
    """max |c| of each member of a stacked batch."""
    return np.abs(values).reshape(len(values), -1).max(axis=1)


_REFERENCE_REFINEMENT = 10


def reference_config(config: SolverConfig) -> SolverConfig:
    """Config for the matching fine-step local reference run.

    The step shrinks by ``_REFERENCE_REFINEMENT`` and the record cadence
    grows by the same factor, so record times line up with the original run.
    """
    return replace(
        config,
        tau=config.tau / _REFERENCE_REFINEMENT,
        record_every=config.record_every * _REFERENCE_REFINEMENT,
    )
