"""Free-energy densities and their derivatives.

Both potentials expose the same small surface: ``f``, ``fprime``,
``fsecond``, and the lower curvature bound ``alpha`` (every second
derivative stays above ``-alpha``), which the stabilized time steppers use
as their default stabilization.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

__all__ = ["DoubleWell", "LogarithmicPotential", "make_potential", "parse_potential"]


@dataclass(frozen=True)
class DoubleWell:
    """Quartic two-phase potential K (1 - c^2)^2 with wells at +-1."""

    K: float = 1.0

    def __post_init__(self):
        _require_finite(self, ("K",))
        if not self.K > 0:
            raise ValueError("K must be positive")

    @property
    def alpha(self) -> float:
        # fsecond(c) = 12 K c^2 - 4 K >= -4 K
        return 4.0 * self.K

    def f(self, c):
        c = np.asarray(c, dtype=float)
        return self.K * (1.0 - c**2) ** 2

    def fprime(self, c):
        c = np.asarray(c, dtype=float)
        # 4K (c^2 - 1) c in place on one fresh array (callers may write
        # into it); c*c, not c**2, as pow is slow on negative inputs
        g = c * c
        g -= 1.0
        g *= c
        g *= 4.0 * self.K
        return g

    def fsecond(self, c):
        c = np.asarray(c, dtype=float)
        return 12.0 * self.K * c**2 - 4.0 * self.K


_CLAMP_DELTA = 1e-6  # the logarithmic potential's delta


@dataclass
class LogarithmicPotential:
    """Entropic potential with a destabilizing quadratic term.

    Finite only on (-1, 1); inputs are clamped to ``[-1 + delta, 1 - delta]``,
    with the fixed ``delta = 1e-6``, before evaluation, which keeps the solver
    total while preserving the curvature bound.  ``clamp_events`` counts how
    many samples were clamped, as a diagnostic that the run strayed toward
    the endpoints.
    """

    theta: float
    theta_c: float
    clamp_events: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        _require_finite(self, ("theta", "theta_c"))
        if not 0 < self.theta < self.theta_c:
            raise ValueError("need 0 < theta < theta_c")

    @property
    def alpha(self) -> float:
        # entropy curvature theta / (1 - c^2) > 0, so fsecond >= -theta_c
        return self.theta_c

    def _clamp(self, c):
        c = np.asarray(c, dtype=float)
        lo, hi = -1.0 + _CLAMP_DELTA, 1.0 - _CLAMP_DELTA
        clipped = np.clip(c, lo, hi)
        self.clamp_events += int(np.count_nonzero(clipped != c))
        return clipped

    def f(self, c):
        c = self._clamp(c)
        entropy = (1.0 - c) * np.log(1.0 - c) + (1.0 + c) * np.log(1.0 + c)
        return 0.5 * self.theta * entropy - 0.5 * self.theta_c * c**2

    def fprime(self, c):
        c = self._clamp(c)
        return 0.5 * self.theta * np.log((1.0 + c) / (1.0 - c)) - self.theta_c * c

    def fsecond(self, c):
        c = self._clamp(c)
        return self.theta / (1.0 - c**2) - self.theta_c


def _require_finite(potential, names) -> None:
    for name in names:
        value = getattr(potential, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


_KINDS = {"doublewell": DoubleWell, "logarithmic": LogarithmicPotential}


def make_potential(kind: str, **params):
    try:
        cls = _KINDS[kind.lower()]
    except KeyError:
        raise ValueError(f"unknown potential kind {kind!r}") from None
    accepted = [f for f in fields(cls) if f.init]
    names = [f.name for f in accepted]
    unknown = sorted(set(params) - set(names))
    if unknown:
        raise ValueError(f"unknown parameters {unknown} for {cls.__name__}; "
                         f"accepted parameters: {', '.join(names)}")
    missing = [f.name for f in accepted
               if f.name not in params and f.default is MISSING]
    if missing:
        raise ValueError(f"{cls.__name__} is missing parameters: {', '.join(missing)}")
    return cls(**params)


def parse_potential(spec: str):
    """Parse a compact description like ``doublewell:K=1`` or
    ``logarithmic:theta=0.8,theta_c=1``."""
    kind, _, rest = spec.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            if not value:
                raise ValueError(f"malformed potential parameter {item!r}")
            key = key.strip()
            if key in params:
                raise ValueError(f"duplicate potential parameter {key!r}")
            params[key] = float(value)
    return make_potential(kind.strip(), **params)
