"""Radial mollifier kernels: normalization, moments, and Fourier symbols.

The integral operators in this package are driven by a two-parameter kernel
family: a compactly supported radial bump (the mollifier profile) and a
length scale ``epsilon``.  The profile is normalized once, at construction,
so that its radial mass matches the calibration that makes the induced
nonlocal operator converge to the negative Laplacian.  Everything here is
a pure function of immutable data and safe for concurrent use.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SUPPORTED_DIMENSIONS",
    "PROFILES",
    "PolyBump",
    "MollifierSpec",
    "Kernel",
    "make_mollifier",
    "make_kernel",
    "eval_J",
    "moment_first",
    "moment_first_absolute",
    "moment_second_trace",
    "second_moment_per_axis",
    "total_mass",
    "fourier_symbol",
    "sphere_area",
    "radial_mass",
    "radial_mass_target",
    "adaptive_gauss_legendre",
]

SUPPORTED_DIMENSIONS = (1, 2)

# surface measure of the unit sphere S^{n-1}; n = 1 counts the two endpoints
_SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi}

# angular nodes for 2D quadrature; the integrands are entire in the angle,
# so the equispaced rule converges spectrally and 128 nodes are far beyond
# the 1e-10 target for every epsilon*|xi| this package exercises
_N_ANGLE = 128
_ANGLES = np.arange(_N_ANGLE) * (2.0 * math.pi / _N_ANGLE)

# the angular mean of an integrand even in the direction cosine c: the mean
# over the 128 angular nodes on S^1 folds onto its 33 nodes in [0, pi/2], the
# two ends shared by two nodes and the others by four; S^0 is one point, c = 1
_QUARTER = _N_ANGLE // 4 + 1
_QUARTER_WEIGHTS = np.full(_QUARTER, 4.0 / _N_ANGLE)
_QUARTER_WEIGHTS[[0, -1]] = 2.0 / _N_ANGLE
_DIRECTIONS = {1: (np.array([1.0]), np.array([1.0])),
               2: (np.cos(_ANGLES[:_QUARTER]), _QUARTER_WEIGHTS)}


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in dimension n."""
    _check_dimension(n)
    return _SPHERE_AREA[n]


def radial_mass_target(n: int) -> float:
    """Required value of the radial moment integral of the profile."""
    # the divisor is the mean-square projection of the unit sphere onto a
    # fixed axis, times its area; isotropy makes it sphere_area(n) / n
    return 2.0 / (sphere_area(n) / n)


def _check_dimension(n: int) -> None:
    if n not in SUPPORTED_DIMENSIONS:
        raise ValueError(f"unsupported dimension {n!r}; expected one of {SUPPORTED_DIMENSIONS}")


# ---------------------------------------------------------------------------
# quadrature

_GL_COARSE = np.polynomial.legendre.leggauss(20)
_GL_FINE = np.polynomial.legendre.leggauss(40)
_RTOL = 1e-12
_MAX_DEPTH = 14


def adaptive_gauss_legendre(f, a: float, b: float, params=None):
    """Panel-splitting Gauss-Legendre quadrature of a vectorized integrand.

    ``f(x)`` returns the integrand at the points ``x``.  Given ``params``, it
    integrates the family of integrands ``f(x, p)``, one per entry of
    ``params``, and returns their integrals: ``f(x, p)`` takes a vector of
    entries and returns a ``(len(p), len(x))`` array, a row per entry.

    Each panel is accepted, integrand by integrand, when its 20- and
    40-point estimates agree to a relative ``_RTOL``, or at bisection depth
    ``_MAX_DEPTH``; otherwise it is bisected, for the integrands not yet
    accepted only.  Each row is summed on its own, so an integrand's panel
    tree and bits do not depend on the family it is integrated in.
    """
    def panel(lo: float, hi: float, rule, p):
        x, w = rule
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        if p is None:
            return half * float(np.dot(w, f(mid + half * x)))
        return half * np.sum(f(mid + half * x, p) * w, axis=-1)

    def recurse(lo: float, hi: float, depth: int, p):
        coarse = panel(lo, hi, _GL_COARSE, p)
        fine = panel(lo, hi, _GL_FINE, p)
        split = ~(np.abs(fine - coarse) <= _RTOL * np.abs(fine)) & (depth < _MAX_DEPTH)
        if not split.any():
            return fine
        mid = 0.5 * (lo + hi)
        if p is None:
            return recurse(lo, mid, depth + 1, None) + recurse(mid, hi, depth + 1, None)
        fine[split] = (recurse(lo, mid, depth + 1, p[split])
                       + recurse(mid, hi, depth + 1, p[split]))
        return fine

    if not b > a:
        raise ValueError("integration interval must have b > a")
    return recurse(float(a), float(b), 0, None if params is None else np.asarray(params))


def _radial_moment(f, n: int, radius: float, params=None):
    """``int_0^radius f(r) r**(n-1) dr``: the radial factor of the integral
    over R^n of the radial function ``f``, zero beyond ``radius``; a family
    ``f(r, p)`` over ``params`` as in :func:`adaptive_gauss_legendre`."""
    return adaptive_gauss_legendre(lambda r, *p: f(r, *p) * r ** (n - 1), 0.0, radius, params)


# ---------------------------------------------------------------------------
# profiles

@dataclass(frozen=True)
class PolyBump:
    """Unnormalized even bump ``r**p (1 - r**2)**q``, zero from ``|r| = 1`` on.

    ``quotient`` evaluates ``raw(r) / r**2``; ``p >= 2`` keeps it bounded at
    the origin, so the kernel ``rho(|x|) / |x|**2`` stays finite.  Frozen, so
    kernels compare and hash by the parameters, which the per-(kernel, grid)
    stencil cache keys on.
    """

    name: str
    p: int
    q: int

    def __post_init__(self):
        for field, low in (("p", 2), ("q", 0)):
            value = getattr(self, field)
            if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
                    or value < low):
                raise ValueError(f"profile {field} must be an integer >= {low}, got {value!r}")

    def _power(self, r, k: int) -> np.ndarray:
        """``|r|**k (1 - r**2)**q`` for ``|r| < 1``, and 0 from there on.

        The edge factor is a product of ``q`` copies of ``1 - r*r``, which
        costs about half of ``np.power`` at ``q = 3`` (numpy has no fast path
        for the cube).  The products run in place: on the pair pass's blocks
        a fresh temporary costs more than the multiply that fills it.
        ``r*r < 1`` is ``|r| < 1`` in floating point.
        """
        r = np.asarray(r, dtype=float)
        r2 = r * r
        edge = 1.0 - r2
        value = edge * edge if self.q >= 2 else edge if self.q else np.ones_like(r2)
        for _ in range(self.q - 2):
            value *= edge
        if k:
            value *= r2 if k == 2 else np.abs(r) ** k
        return np.where(r2 < 1.0, value, 0.0)

    def raw(self, r) -> np.ndarray:
        return self._power(r, self.p)

    def quotient(self, r) -> np.ndarray:
        return self._power(r, self.p - 2)


PROFILES = {b.name: b for b in (PolyBump("poly-2-3", 2, 3), PolyBump("poly-4-3", 4, 3),
                                PolyBump("poly-2-2", 2, 2))}


# ---------------------------------------------------------------------------
# mollifier and kernel

@dataclass(frozen=True)
class MollifierSpec:
    """Normalized radial profile for one spatial dimension.

    ``norm_constant`` scales the raw profile so the radial mass integral hits
    its calibration target; it is computed by quadrature in
    :func:`make_mollifier`, never hard-coded.
    """

    dimension: int
    profile: PolyBump
    norm_constant: float

    def __post_init__(self):
        _check_dimension(self.dimension)
        if not self.norm_constant > 0:
            raise ValueError("norm_constant must be positive")


def make_mollifier(n: int, profile_name: str = "poly-2-3") -> MollifierSpec:
    """Build a normalized mollifier for dimension ``n``.

    The normalization constant is ``target / I`` where ``I`` is the radial
    moment of the raw profile, computed by adaptive quadrature.
    """
    _check_dimension(n)
    try:
        profile = PROFILES[profile_name]
    except KeyError:
        raise ValueError(
            f"unknown profile {profile_name!r}; available: {sorted(PROFILES)}"
        ) from None
    moment = _radial_moment(profile.raw, n, 1.0)
    return MollifierSpec(dimension=n, profile=profile,
                         norm_constant=radial_mass_target(n) / moment)


@dataclass(frozen=True)
class Kernel:
    """Mollifier plus interaction length scale epsilon."""

    mollifier: MollifierSpec
    epsilon: float

    def __post_init__(self):
        if not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite, got {self.epsilon}")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        # value_radial's scale; the profile quotients it multiplies are at most 1
        c, p = self.mollifier.norm_constant, -self.dimension - 2
        try:
            scale = c * float(self.epsilon) ** p
        except OverflowError:
            scale = math.inf
        if not math.isfinite(scale):
            raise ValueError(f"kernel scale eps = {self.epsilon:g} is too small: "
                             f"the kernel value scale {c:.3g} * eps**{p} overflows a float")
        if scale < np.finfo(float).tiny:  # the smallest normal float
            raise ValueError(f"kernel scale eps = {self.epsilon:g} is too large: "
                             f"the kernel value scale {c:.3g} * eps**{p} underflows a float")

    @property
    def dimension(self) -> int:
        return self.mollifier.dimension

    @property
    def support_radius(self) -> float:
        """Radius beyond which the kernel vanishes identically: its profile
        vanishes from ``|r| = 1`` on."""
        return self.epsilon

    def value_radial(self, r) -> np.ndarray:
        """Kernel value as a function of radius, finite down to r = 0."""
        n = self.dimension
        s = np.asarray(r, dtype=float) / self.epsilon
        scale = self.mollifier.norm_constant * self.epsilon ** (-n - 2)
        return scale * self.mollifier.profile.quotient(s)


def make_kernel(n: int, epsilon: float, profile_name: str = "poly-2-3") -> Kernel:
    return Kernel(mollifier=make_mollifier(n, profile_name), epsilon=epsilon)


def eval_J(kernel: Kernel, x) -> float:
    """Kernel value at the point x (scalar in 1D, length-2 vector in 2D)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size != kernel.dimension:
        raise ValueError(f"point has {x.size} coordinates, kernel lives in {kernel.dimension}D")
    r = float(np.sqrt(np.sum(x * x)))
    return float(kernel.value_radial(r))


# ---------------------------------------------------------------------------
# moments and symbol

def moment_first(kernel: Kernel, axis: int = 0) -> float:
    """Numerical first moment of the kernel along one axis; vanishes by parity.

    The quadrature is deliberately run over the full support rather than
    short-circuited by symmetry, so cancellation is actually exercised.
    """
    n = kernel.dimension
    if not 0 <= axis < n:
        raise ValueError(f"axis {axis} out of range for dimension {n}")
    s = kernel.support_radius
    # 1D integrates over the whole support on purpose, so the cancellation is exercised
    if n == 1:
        return adaptive_gauss_legendre(lambda x: kernel.value_radial(np.abs(x)) * x, -s, s)
    direction = np.cos(_ANGLES) if axis == 0 else np.sin(_ANGLES)
    ang = float(direction.sum()) * (2.0 * math.pi / _N_ANGLE)
    rad = adaptive_gauss_legendre(lambda r: kernel.value_radial(r) * r**2, 0.0, s)
    return rad * ang


def moment_first_absolute(kernel: Kernel) -> float:
    """Absolute first moment ``int |x_a| J(x) dx``, the same along every axis.

    It grows like ``1 / epsilon`` and sets the scale of the rounding residue
    that :func:`moment_first` leaves.
    """
    n = kernel.dimension
    # mean of |c| over the unit sphere, c its first coordinate: 1 in 1D, 2/pi in 2D
    mean_abs_cosine = math.gamma(n / 2) / (math.sqrt(math.pi) * math.gamma((n + 1) / 2))
    return mean_abs_cosine * _radial_integral(kernel, lambda r: kernel.value_radial(r) * r)


def _radial_integral(kernel: Kernel, f, params=None):
    """Integral over all of space of the radial function ``f(r)``, which
    vanishes beyond the kernel support: ``sphere_area(n) * int f(r) r**(n-1) dr``;
    a family ``f(r, p)`` over ``params`` as in :func:`adaptive_gauss_legendre`."""
    n = kernel.dimension
    return sphere_area(n) * _radial_moment(f, n, kernel.support_radius, params)


def radial_mass(kernel: Kernel) -> float:
    """Normalization integral ``int rho_eps(r) r**(n-1) dr`` of the scaled
    profile ``rho_eps(r) = r**2 J(r)``, through the kernel values that every
    operator uses; equals :func:`radial_mass_target` when normalized."""
    return _radial_moment(lambda r: r * r * kernel.value_radial(r), kernel.dimension,
                          kernel.support_radius)


def moment_second_trace(kernel: Kernel) -> float:
    """Half the second-moment trace of the kernel; equals n when normalized."""
    # |x|**2 J(x) = rho_eps(|x|), so the trace is the radial mass over the sphere
    return 0.5 * (sphere_area(kernel.dimension) * radial_mass(kernel))


def second_moment_per_axis(kernel: Kernel) -> float:
    """Second moment of the kernel along any single axis; equals 2 when normalized."""
    return moment_second_trace(kernel) * 2.0 / kernel.dimension


def total_mass(kernel: Kernel) -> float:
    """Integral of the kernel over all of space (finite, scales like 1/epsilon^2)."""
    return _radial_integral(kernel, kernel.value_radial)


def fourier_symbol(kernel: Kernel, xi):
    """Multiplier of the induced nonlocal operator at frequency xi, or at
    each row of an ``(m, n)`` stack of frequencies by one quadrature for all.

    Computed as the real cosine integral of the kernel against
    ``1 - cos(x . xi) = 2 sin(x . xi / 2)**2`` over the support (the odd part
    integrates to zero), which avoids any domain-truncation error; the sine
    form keeps full precision where ``x . xi`` is small and the difference
    would cancel.  The symbol depends on xi only through ``|xi|``, and each
    row keeps its own panel tree, so its value has the same bits whatever
    other rows it is stacked with.  Nonnegative, vanishes at xi = 0, and
    approaches ``|xi|**2`` as epsilon shrinks.
    """
    n = kernel.dimension
    xi = np.asarray(xi, dtype=float)
    if xi.ndim > 2:
        raise ValueError(f"frequencies must be one point or an (m, {n}) stack, got shape {xi.shape}")
    rows = xi if xi.ndim == 2 else np.atleast_1d(xi)[None, :]
    if rows.shape[1] != n:
        raise ValueError(f"frequency has {rows.shape[-1]} components, kernel lives in {n}D")
    with np.errstate(over="ignore"):  # an |xi| past the float range is rejected below
        radii = np.sqrt(np.sum(rows * rows, axis=1))
    if not np.isfinite(radii).all():
        raise ValueError(f"frequency xi = {xi.tolist()} must be finite with a finite |xi|")
    cosines, weights = _DIRECTIONS[n]

    def integrand(r, q):
        # weighted mean of 2 sin(q r c / 2)**2 over the direction cosines c
        sine = np.sin(r[:, None] * cosines * (0.5 * q)[:, None, None])
        return kernel.value_radial(r) * np.sum(sine * sine * (2.0 * weights), axis=-1)

    symbols = _radial_integral(kernel, integrand, radii)
    return symbols if xi.ndim == 2 else float(symbols[0])
