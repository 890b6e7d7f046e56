"""Cell-centered uniform grids, spectral transforms, and discrete norms.

Fields live on tensor grids over a box; the node placement is cell-centered
so the cosine transform is the exact eigenbasis of the zero-flux Laplacian
with no duplicated boundary nodes.  All norms run through the same transform
stack as the solvers, keeping norm and solver errors consistent.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft
# pocketfft's compiled entry points, called without scipy.fft's per-call
# argument checks and dispatch; the package's only import of this private module
from scipy.fft._pocketfft import pypocketfft

from .kernels import SUPPORTED_DIMENSIONS, _check_dimension

__all__ = [
    "UniformGrid",
    "Field",
    "sample",
    "integrate",
    "l2_norm",
    "lp_norm",
    "sobolev_norm",
    "hminus1_norm",
    "spectral_coefficients",
    "field_from_coefficients",
    "transform_values",
    "inverse_transform_values",
    "cosine_transform",
    "laplacian_symbol",
    "coefficient_weights",
    "save_field",
    "load_field",
]

PERIODIC = "periodic"
NEUMANN = "neumann"
_BOUNDARY_CODES = {PERIODIC: 0, NEUMANN: 1}
_BOUNDARY_NAMES = {v: k for k, v in _BOUNDARY_CODES.items()}

_MAGIC = b"NLFD"
_VERSION = 1


@dataclass(frozen=True)
class UniformGrid:
    """Uniform cell-centered tensor grid on a box.

    ``lengths[a]`` is the extent of axis a, ``cells[a]`` the cell count, and
    nodes sit at ``(i + 1/2) * h``.  Immutable and hashable so derived
    operator data can be cached against it.
    """

    lengths: tuple[float, ...]
    cells: tuple[int, ...]
    boundary: str = NEUMANN

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(float(L) for L in self.lengths))
        object.__setattr__(self, "cells", tuple(int(N) for N in self.cells))
        if len(self.lengths) != len(self.cells):
            raise ValueError("lengths and cells must have the same number of axes")
        _check_dimension(self.dimension)
        if not all(0 < L < math.inf for L in self.lengths):
            raise ValueError(f"axis lengths must be positive and finite, got {self.lengths}")
        if any(N < 1 for N in self.cells):
            raise ValueError("cell counts must be positive")
        if self.boundary not in _BOUNDARY_CODES:
            raise ValueError(f"boundary must be one of {sorted(_BOUNDARY_CODES)}")

    @property
    def dimension(self) -> int:
        return len(self.cells)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / N for L, N in zip(self.lengths, self.cells))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.cells

    @property
    def node_count(self) -> int:
        return int(np.prod(self.cells))

    def axis_nodes(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        return (np.arange(self.cells[axis]) + 0.5) * h

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        axes = [self.axis_nodes(a) for a in range(self.dimension)]
        return tuple(np.meshgrid(*axes, indexing="ij"))


@dataclass(frozen=True)
class Field:
    """Scalar samples on the nodes of a grid; a plain immutable value type."""

    grid: UniformGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise ValueError(f"values shape {values.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", values)

    def _require_same_grid(self, other: "Field") -> None:
        if other.grid != self.grid:
            raise ValueError("fields live on different grids")

    def __add__(self, other: "Field") -> "Field":
        self._require_same_grid(other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        self._require_same_grid(other)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "Field":
        return Field(self.grid, self.values * float(scalar))

    __rmul__ = __mul__


def sample(grid: UniformGrid, f) -> Field:
    """Evaluate ``f(x)`` (or ``f(x, y)``) at every node."""
    return Field(grid, np.asarray(f(*grid.meshgrid()), dtype=float))


def integrate(field: Field) -> float:
    """Midpoint-rule integral over the box."""
    return float(field.values.sum()) * field.grid.cell_volume


def l2_norm(field: Field) -> float:
    return float(np.sqrt(np.sum(field.values**2) * field.grid.cell_volume))


def lp_norm(field: Field, p: float) -> float:
    if not 1 <= p < math.inf:
        raise ValueError(f"p must be finite and at least 1, got {p!r}")
    if p == 2:
        # keep the p = 2 route bit-identical to l2_norm
        return l2_norm(field)
    v = np.abs(field.values)
    return float((np.sum(v**p) * field.grid.cell_volume) ** (1.0 / p))


# ---------------------------------------------------------------------------
# transform stack

# pocketfft's orthonormal scaling (divide by sqrt(N)), and the trailing grid
# axes the transforms act on, per dimension
_ORTHO = 1
_AXES = {n: tuple(range(-n, 0)) for n in SUPPORTED_DIMENSIONS}


def transform_values(grid: UniformGrid, values) -> np.ndarray:
    """Orthonormal transform over the trailing ``grid.dimension`` axes; any
    leading (member) axis passes through.

    Zero-flux boxes use the cosine transform (DCT-II), with one coefficient
    per node.

    Periodic grids use the real-to-complex Fourier transform (``rfft`` /
    ``rfftn``), which keeps only the half spectrum: the last axis has
    ``N // 2 + 1`` columns, since the dropped ones are the complex conjugates
    of kept ones.  A quadratic sum over the full spectrum is therefore a sum
    over the half spectrum with each last-axis column weighted by its
    Hermitian multiplicity (:func:`coefficient_weights`): 1 for column 0 and,
    when N is even, for column N / 2; 2 for every other column.

    Both transforms call pocketfft's compiled kernels, the ones behind
    ``scipy.fft``, directly: the output equals ``scipy.fft.dctn`` /
    ``rfftn`` bit for bit, without their per-call argument checks and
    dispatch.
    """
    values = np.asarray(values, dtype=float)
    axes = _AXES[grid.dimension]
    if grid.boundary == NEUMANN:
        return cosine_transform(values, axes)
    # positional: input, axes, forward, scaling, out, threads
    return pypocketfft.r2c(values, axes, True, _ORTHO, None, 1)


def inverse_transform_values(grid: UniformGrid, coeffs) -> np.ndarray:
    """Inverse of :func:`transform_values`, over the same trailing axes."""
    axes = _AXES[grid.dimension]
    if grid.boundary == NEUMANN:
        return cosine_transform(np.asarray(coeffs, dtype=float), axes, inverse=True)
    coeffs = np.asarray(coeffs, dtype=complex)
    # positional: input, axes, length of the last output axis, forward,
    # scaling, out, threads
    return pypocketfft.c2r(coeffs, axes, grid.cells[-1], False, _ORTHO, None, 1)


def cosine_transform(values: np.ndarray, axes: tuple[int, ...],
                     inverse: bool = False) -> np.ndarray:
    """Orthonormal DCT-II of a float array over ``axes``, or with ``inverse``
    its inverse, the orthonormal DCT-III."""
    # positional: input, type, axes, scaling, out, threads, orthogonalize
    return pypocketfft.dct(values, 3 if inverse else 2, axes, _ORTHO, None, 1, True)


def spectral_coefficients(field: Field) -> np.ndarray:
    """Orthonormal transform coefficients: the cosine basis, or the half
    spectrum of the real discrete Fourier transform (see
    :func:`transform_values`)."""
    return transform_values(field.grid, field.values)


def field_from_coefficients(grid: UniformGrid, coeffs: np.ndarray) -> Field:
    return Field(grid, inverse_transform_values(grid, coeffs))


@lru_cache(maxsize=128)
def laplacian_symbol(grid: UniformGrid) -> np.ndarray:
    """Eigenvalues of the negative Laplacian in the grid's spectral basis, in
    the coefficient layout of :func:`transform_values`.

    The exact continuous symbols are used (not finite-difference ones) so
    spectral differentiation carries no discretization bias of its own.
    """
    per_axis = []
    for a in range(grid.dimension):
        N, L = grid.cells[a], grid.lengths[a]
        if grid.boundary == NEUMANN:
            lam = (np.pi * np.arange(N) / L) ** 2
        elif a == grid.dimension - 1:
            lam = (2.0 * np.pi * scipy.fft.rfftfreq(N, d=L / N)) ** 2
        else:
            lam = (2.0 * np.pi * scipy.fft.fftfreq(N, d=L / N)) ** 2
        per_axis.append(lam)
    out = sum(np.ix_(*per_axis))
    out.flags.writeable = False
    return out


@lru_cache(maxsize=128)
def coefficient_weights(grid: UniformGrid) -> np.ndarray:
    """How many spectrum entries each coefficient of :func:`transform_values`
    stands for, in its layout: 1 everywhere on zero-flux boxes; on periodic
    grids the Hermitian multiplicity of each last-axis column of the half
    spectrum, 1 for column 0 and (N even) column N / 2, and 2 otherwise."""
    N = grid.cells[-1]
    column = np.ones(N if grid.boundary == NEUMANN else N // 2 + 1)
    if grid.boundary == PERIODIC:
        column[1:(N + 1) // 2] = 2.0
    out = np.broadcast_to(column, laplacian_symbol(grid).shape).copy()
    out.flags.writeable = False
    return out


def sobolev_norm(field: Field, s: float) -> float:
    """Spectral Sobolev norm with weight ``(1 + lambda_k)**s``.

    Supported for s in [-1, 3]; s = 0 reproduces the plain quadratic norm by
    Parseval.
    """
    if not -1.0 <= s <= 3.0:
        raise ValueError("sobolev_norm supports s in [-1, 3]")
    coeffs = spectral_coefficients(field)
    lam = laplacian_symbol(field.grid)
    weighted = (1.0 + lam) ** s * np.abs(coeffs) ** 2 * coefficient_weights(field.grid)
    return float(np.sqrt(weighted.sum() * field.grid.cell_volume))


def hminus1_norm(field: Field) -> float:
    """Dual norm through the inverse zero-flux Laplacian.

    The fluctuation part is measured as the gradient norm of the potential
    solving the zero-mean problem; a nonzero mean is split off and added as
    ``|mean| * sqrt(|box|)``.
    """
    grid = field.grid
    coeffs = spectral_coefficients(field)
    lam = laplacian_symbol(grid)
    weights = coefficient_weights(grid)
    mean = integrate(field) / grid.volume
    mask = np.ones(coeffs.shape, dtype=bool)
    mask[(0,) * grid.dimension] = False
    fluct_sq = np.sum(np.abs(coeffs[mask]) ** 2 / lam[mask] * weights[mask]) * grid.cell_volume
    return float(np.sqrt(fluct_sq) + abs(mean) * np.sqrt(grid.volume))


# ---------------------------------------------------------------------------
# serialization

def save_field(field: Field, path) -> None:
    """Write a flat binary checkpoint: small header plus row-major float64."""
    grid = field.grid
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<BBB", _VERSION, _BOUNDARY_CODES[grid.boundary], grid.dimension))
        for a in range(grid.dimension):
            fh.write(struct.pack("<Qd", grid.cells[a], grid.lengths[a]))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def _unpack(fh, fmt: str):
    raw = fh.read(struct.calcsize(fmt))
    if len(raw) != struct.calcsize(fmt):
        raise ValueError("checkpoint header is truncated")
    return struct.unpack(fmt, raw)


def load_field(path) -> Field:
    """Read a checkpoint written by :func:`save_field`; any malformed or
    truncated file raises ``ValueError``."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError("not a field checkpoint file")
        version, bcode, ndim = _unpack(fh, "<BBB")
        if version != _VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        if bcode not in _BOUNDARY_NAMES:
            raise ValueError(f"unknown boundary code {bcode} in checkpoint")
        cells, lengths = [], []
        for _ in range(ndim):
            N, L = _unpack(fh, "<Qd")
            cells.append(N)
            lengths.append(L)
        try:
            grid = UniformGrid(tuple(lengths), tuple(cells), _BOUNDARY_NAMES[bcode])
        except ValueError as exc:
            raise ValueError(f"checkpoint header describes no valid grid: {exc}") from None
        # size check before reading, so a corrupt header cannot ask for a huge buffer
        payload_bytes = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload_bytes != 8 * grid.node_count:
            raise ValueError(f"checkpoint payload has {payload_bytes} bytes; "
                             f"its grid needs {8 * grid.node_count}")
        values = np.frombuffer(fh.read(payload_bytes), dtype="<f8").reshape(grid.shape)
    return Field(grid, values.copy())
