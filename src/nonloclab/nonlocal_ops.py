"""The nonlocal diffusion operator on a box and its associated energies.

Two independent discretizations of the same midpoint-rule quadrature are
provided: a direct summation over the node pairs, each pair's weight formed
from the two nodes' coordinates, that serves as the reference oracle, and an
FFT convolution fast path built from identical weights so the two agree to
rounding rather than merely to discretization order.  The direct sum visits
only the pairs whose index offsets lie in the kernel's support window, so
its cost grows with the node count times the window, not with its square.
Restriction to the box is realized by zero extension plus an explicit degree
function.

The solvers step with the stencil operator of the wrapped (periodic) or
reflected (zero-flux) extension, which the transform basis diagonalizes
(:func:`stencil_symbol`).  On a box the true operator is that minus the
boundary remainder, which :class:`WallRemainder` applies at the walls and
:func:`interior_remainder` measures on interior sub-boxes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.fft
from numpy.lib.stride_tricks import sliding_window_view

from .grid import NEUMANN, PERIODIC, Field, UniformGrid, cosine_transform
from .kernels import Kernel

__all__ = [
    "ResolutionWarning",
    "check_support_reaches_nodes",
    "apply_direct",
    "apply_fft",
    "apply_fft_values",
    "nonlocal_energy",
    "pair_difference_double_sum",
    "interior_remainder",
    "WallRemainder",
    "wall_remainder",
    "stencil_symbol",
    "l2_inner",
]

RESOLUTION_FACTOR = 4  # warn when h exceeds (support radius) / 4
# relative rounding of support / h: h, eps, the support and the quotient each
# round once by at most half an ulp
_RATIO_ROUNDING = 4 * np.finfo(float).eps
# terms per block of the pair pass and the 1D ghost remainder: of 2**13 to
# 2**19, 2**15 and 2**16 timed best, and 2**15 keeps temporaries at 256 KiB
_BLOCK_TERMS = 2**15


class ResolutionWarning(UserWarning):
    """Grid spacing too coarse for the kernel support."""


def _check_resolution(kernel: Kernel, grid: UniformGrid) -> None:
    h = max(grid.spacing)
    if h > kernel.support_radius / RESOLUTION_FACTOR:
        warnings.warn(
            f"grid spacing {h:.3g} under-resolves kernel support "
            f"{kernel.support_radius:.3g}; results may be quadrature-limited",
            ResolutionWarning,
            stacklevel=3,
        )


def check_support_reaches_nodes(kernel: Kernel, grid: UniformGrid) -> None:
    """Raise ``ValueError`` when the kernel support ends at or before the
    nearest grid node.

    Every stencil weight but the centre's is then zero, and so is the
    discrete operator: a flow would not diffuse at all, and an oracle audit
    would divide zero by zero.  The operators themselves accept such a
    kernel, for which zero is the right answer.
    """
    h = min(grid.spacing)
    # the profile vanishes from its support radius on (compare _pair_blocks)
    if not h < kernel.support_radius:
        raise ValueError(
            f"kernel support {kernel.support_radius:.3g} (eps = {kernel.epsilon:g}) "
            f"does not reach the nearest grid node at spacing {h:.3g}; "
            "the discrete operator would be zero"
        )


def l2_inner(u: Field, v: Field) -> float:
    """Midpoint-rule inner product of two fields on the same grid."""
    if u.grid != v.grid:
        raise ValueError("fields live on different grids")
    return float(np.sum(u.values * v.values) * u.grid.cell_volume)


# ---------------------------------------------------------------------------
# cached per-(kernel, grid) discretization data

def _read_only(*arrays: np.ndarray) -> None:
    """Mark cached tables read-only: every later call on their (kernel, grid)
    pair shares them, so one caller's write would change every other's."""
    for array in arrays:
        array.flags.writeable = False


@dataclass(frozen=True)
class _StencilData:
    grid: UniformGrid
    reach: tuple[int, ...]          # offsets per axis with possibly nonzero weight
    weights: np.ndarray             # dense weight block, shape prod(2*reach+1)
    weight_sum: float               # sum of all stencil weights
    pad_shape: tuple[int, ...]      # FFT size for zero-padded convolution
    kernel_hat: np.ndarray          # rfftn of the wrapped stencil at pad_shape
    degree: np.ndarray              # a(x) on the grid

    @cached_property
    def symbol(self) -> np.ndarray:
        """Transform-basis eigenvalues of the wrapped (periodic) or reflected
        (neumann) stencil operator.  Only the solvers read them, so they are
        built on first use, once per cached (kernel, grid)."""
        symbol = _stencil_eigenvalues(self.weights, self.reach, self.grid)
        _read_only(symbol)
        return symbol

    @cached_property
    def wall_remainder(self) -> "WallRemainder":
        """The boundary remainder's strip tables (neumann); built on first
        use, once per cached (kernel, grid)."""
        return _build_wall_remainder(self)


def _offset_distances(reach, spacing):
    axes = np.ix_(*[np.arange(-k, k + 1) * h for k, h in zip(reach, spacing)])
    return np.sqrt(sum(x * x for x in axes))


def _wrap_stencil(weights: np.ndarray, reach, shape) -> np.ndarray:
    """Place a centered stencil, ``2 * reach + 1`` offsets on each of its
    trailing axes, into a circular-convolution array of trailing ``shape``;
    leading axes pass through."""
    out = np.zeros(weights.shape[:weights.ndim - len(shape)] + tuple(shape))
    out[(...,) + np.ix_(*[np.arange(-k, k + 1) % m for k, m in zip(reach, shape)])] = weights
    return out


def _stencil_eigenvalues(weights, reach, grid: UniformGrid) -> np.ndarray:
    # the cosine transform of the half-sample reflected extension is the real
    # DFT of that extension on twice the period, so one real FFT of the
    # stencil wrapped on 2N gives the cosine symbols at its first N modes; on
    # periodic grids the period is N and [:N] keeps the whole half spectrum.
    # The outermost weight is zero, so offsets +-N never collide on 2N.
    factor = 2 if grid.boundary == NEUMANN else 1
    period = tuple(factor * N for N in grid.cells)
    cos_sum = scipy.fft.rfftn(_wrap_stencil(weights, reach, period)).real
    sym = float(weights.sum()) - cos_sum[tuple(map(slice, grid.shape))]
    # clip tiny negative rounding residue; the exact eigenvalues are >= 0
    return np.where(sym < 0, 0.0, sym)


@lru_cache(maxsize=64)
def _stencil_data(kernel: Kernel, grid: UniformGrid) -> _StencilData:
    if kernel.dimension != grid.dimension:
        raise ValueError("kernel and grid dimensions differ")
    spacing = grid.spacing
    # the room is the widest reach with no wrap onto itself on a torus
    # (2 k + 1 <= N) and one reflection's room in a box (k <= N).  The float
    # ratio x, which may be inf, is checked before any int(); it carries the
    # rounding of h = L / N, so a support of exactly k h (or of the box length
    # L) may give x a few ulps above k, and such an x still reaches k nodes
    ratios = [kernel.support_radius / h for h in spacing]
    rooms = [(N - 1) // 2 if grid.boundary == PERIODIC else N for N in grid.cells]
    if any(x > k * (1.0 + _RATIO_ROUNDING) for x, k in zip(ratios, rooms)):
        raise ValueError("kernel support wraps onto itself on this periodic grid"
                         if grid.boundary == PERIODIC else
                         "kernel support exceeds the box; no room for one reflection")
    reach = tuple(min(int(np.ceil(x)), k) for x, k in zip(ratios, rooms))
    weights = kernel.value_radial(_offset_distances(reach, spacing)) * grid.cell_volume

    if grid.boundary == PERIODIC:
        pad_shape = grid.shape
    else:
        pad_shape = tuple(
            scipy.fft.next_fast_len(N + 2 * k) for N, k in zip(grid.cells, reach)
        )
    kernel_hat = scipy.fft.rfftn(_wrap_stencil(weights, reach, pad_shape))

    ones_hat = scipy.fft.rfftn(np.ones(grid.shape), s=pad_shape)
    # the leading grid-shaped block of the padded circular convolution is the
    # linear one restricted to the box
    degree = scipy.fft.irfftn(ones_hat * kernel_hat, s=pad_shape)[tuple(map(slice, grid.shape))]
    _read_only(weights, kernel_hat, degree)
    return _StencilData(
        grid=grid,
        reach=reach,
        weights=weights,
        weight_sum=float(weights.sum()),
        pad_shape=pad_shape,
        kernel_hat=kernel_hat,
        degree=degree,
    )


# ---------------------------------------------------------------------------
# operator applications

def _window_offsets(kernel: Kernel, grid: UniformGrid, axis: int) -> np.ndarray:
    """The node-index offsets along ``axis`` that may reach a partner inside
    the kernel support, from the kernel and the grid alone: ``ceil(support /
    h)`` each way, clipped at the walls of a box.  On a torus whose period
    the window spans it holds each residue once."""
    N = grid.cells[axis]
    ratio = kernel.support_radius / grid.spacing[axis]
    reach = N if not ratio < N else math.ceil(ratio)  # the ratio may be inf
    if grid.boundary == PERIODIC and 2 * reach + 1 >= N:
        return np.arange(N) - N // 2
    reach = min(reach, N - 1)
    return np.arange(-reach, reach + 1)


def _axis_pairs(grid: UniformGrid, axis: int, nodes: np.ndarray, offsets: np.ndarray):
    """``(partner, sq)`` of shape ``(len(nodes), len(offsets))``: the index of
    each node's partner at each offset along ``axis``, and their squared
    coordinate difference, to the nearest image on a torus and inf past a
    wall of a box."""
    N = grid.cells[axis]
    pos = nodes[:, None] + offsets
    partner = pos % N if grid.boundary == PERIODIC else np.clip(pos, 0, N - 1)
    x = grid.axis_nodes(axis)
    d = x[nodes, None] - x[partner]
    if grid.boundary == PERIODIC:
        length = grid.lengths[axis]
        d -= length * np.round(d / length)
    else:
        d[pos != partner] = np.inf
    d *= d
    return partner, d


def _pair_blocks(kernel: Kernel, field: Field):
    """Yield the node pairs in the support window (:func:`_window_offsets`)
    in blocks ``(index, partners, J)``: ``index`` picks nodes from the field's
    values viewed as ``(rows, N_last)``, one row in 1D; ``partners`` holds
    their partners' values, the window on one more axis, as a fresh array;
    and ``J`` the pair weights, an exact zero past a wall.

    Each pair's distance is formed from the two nodes' coordinates axis by
    axis, and the profile runs only inside its support.  The walk goes over
    column blocks of the last axis, then the offsets along the first axis of
    a 2D grid, then blocks of rows, with at most about ``_BLOCK_TERMS``
    pairs per block.
    """
    grid = field.grid
    if kernel.dimension != grid.dimension:
        raise ValueError("kernel and grid dimensions differ")
    last = grid.dimension - 1
    N = grid.cells[last]
    values = field.values.reshape(-1, N)
    if grid.dimension == 1:
        lead_partner, lead_sq = np.zeros((1, 1), dtype=int), np.zeros((1, 1))
    else:
        lead_partner, lead_sq = _axis_pairs(grid, 0, np.arange(grid.cells[0]),
                                            _window_offsets(kernel, grid, 0))
    offsets = _window_offsets(kernel, grid, last)
    width = offsets.size
    # windows[row, i, o] is the value at offset offsets[o] from node i of the
    # row; past a wall it is a zero, whose weight is zero
    padded = np.pad(values, [(0, 0), (-offsets[0], offsets[-1])],
                    mode="wrap" if grid.boundary == PERIODIC else "constant")
    windows = sliding_window_view(padded, width, axis=1)
    cols = min(N, max(1, _BLOCK_TERMS // width))
    for c in range(0, N, cols):
        block = slice(c, min(c + cols, N))
        _, sq = _axis_pairs(grid, last, np.arange(N)[block], offsets)
        step = max(1, _BLOCK_TERMS // sq.size)
        for o in range(lead_sq.shape[1]):
            # the rows whose partner row at this offset lies in the box
            rows = np.flatnonzero(np.isfinite(lead_sq[:, o]))
            for r in range(0, rows.size, step):
                i = rows[r:r + step]
                dist = lead_sq[i, o, None, None] + sq
                np.sqrt(dist, out=dist)
                # the profile vanishes from its support radius on, so every
                # skipped pair is a zero.  For positive floats dist < eps
                # exactly when value_radial's scaled radius dist / eps < 1
                inside = dist < kernel.support_radius
                r_inside = dist[inside]
                dist.fill(0.0)
                dist[inside] = kernel.value_radial(r_inside)
                yield (i, block), windows[lead_partner[i, o], block], dist


def _pair_pass(kernel: Kernel, field: Field) -> tuple[Field, float]:
    """Both pairwise oracles from one pass over the node pairs inside the
    kernel's support window (:func:`_pair_blocks`): the direct operator of
    :func:`apply_direct` and the double sum of
    :func:`pair_difference_double_sum`.

    Both are summed in difference form, so constants cancel exactly.  Each
    row of the operator is summed on its own, window by window in a fixed
    order, so its bits do not depend on the block size; the double sum's do.
    """
    grid = field.grid
    values = field.values.reshape(-1, grid.cells[-1])
    rows = np.zeros_like(values)
    total = 0.0
    for index, partners, J in _pair_blocks(kernel, field):
        dv = np.subtract(values[index][..., None], partners, out=partners)
        J *= dv
        total += float(np.sum(J * dv))
        rows[index] += np.sum(J, axis=-1)
    vol = grid.cell_volume
    return Field(grid, rows.reshape(grid.shape) * vol), total * vol * vol


def apply_direct(kernel: Kernel, field: Field) -> Field:
    """Reference direct summation of the defining double integral.

    Midpoint weights throughout, over the node pairs in the kernel's support
    window; this is the oracle that the FFT fast path is held to.
    """
    _check_resolution(kernel, field.grid)
    return _pair_pass(kernel, field)[0]


def apply_fft_values(kernel: Kernel, grid: UniformGrid, values: np.ndarray) -> np.ndarray:
    """Raw-array variant of :func:`apply_fft`: the true operator on a grid-shaped
    array, without the resolution check."""
    data = _stencil_data(kernel, grid)
    # zero-padded to pad_shape on a box; pad_shape is the grid's on periodic grids
    conv_hat = scipy.fft.rfftn(values, s=data.pad_shape) * data.kernel_hat
    conv = scipy.fft.irfftn(conv_hat, s=data.pad_shape)[tuple(map(slice, grid.shape))]
    return data.degree * values - conv


def apply_fft(kernel: Kernel, field: Field) -> Field:
    """FFT fast path: degree term minus convolution with the zero extension."""
    values = apply_fft_values(kernel, field.grid, field.values)
    _check_resolution(kernel, field.grid)
    return Field(field.grid, values)


def stencil_symbol(kernel: Kernel, grid: UniformGrid) -> np.ndarray:
    """Transform-basis eigenvalues of the discretized operator when the field
    is extended by reflection (neumann) or wrap-around (periodic).

    On periodic grids this diagonalizes :func:`apply_fft` exactly; on a box it
    diagonalizes the reflected variant, which differs from the true operator
    by the boundary remainder only.
    """
    return _stencil_data(kernel, grid).symbol.copy()


# ---------------------------------------------------------------------------
# energies

def nonlocal_energy(kernel: Kernel, field: Field) -> float:
    """Quarter-weighted double integral of kernel-squared differences.

    Evaluated through the operator as half the quadratic form, which the
    brute-force double sum confirms on small grids (see
    :func:`pair_difference_double_sum`; the quadratic form is half the raw
    double sum, making this energy a quarter of it).
    """
    return 0.5 * l2_inner(apply_fft(kernel, field), field)


def pair_difference_double_sum(kernel: Kernel, field: Field) -> float:
    """Brute-force double sum of J(x - y) |c(x) - c(y)|^2 over all node pairs.

    Only the pairs whose index offsets lie in the kernel's support window are
    visited, every other pair having an exact zero weight, so the cost is the
    node count times the window (the kernel profile itself runs only on the
    pairs inside its support); memory is one block of at most about
    ``_BLOCK_TERMS`` pairs at a time.  It serves as the independent
    oracle for the energy identities.
    """
    return _pair_pass(kernel, field)[1]


# ---------------------------------------------------------------------------
# interior remainder

def _ghost_remainder(data: _StencilData, grid: UniformGrid, values: np.ndarray,
                     box: tuple) -> np.ndarray:
    """Reflected minus true stencil operator on the node sub-box ``box`` (one
    ``slice`` per axis): the sum, over the stencil offsets that land on a
    ghost node of the reflected extension, of weight * (node value - ghost
    value).

    Only the layers of ``box`` within ``reach`` of a wall have ghost offsets,
    and only those are visited.  In 1D they are summed in blocks of layers.  In 2D
    the walk goes over the ghost distances ``m`` from each wall: the layers
    closer to the wall than ``m`` all reach the stencil row at distance
    ``m``, whose nonzero span is slid along the other axis.  Each term is
    formed from the two values themselves and every other term is an exact
    zero, so a field that is flat wherever the stencil reaches past a wall
    gives exactly zero there.
    """
    reach = data.reach
    padded = np.pad(values, [(k, k) for k in reach], mode="symmetric")
    out = np.zeros(tuple(s.stop - s.start for s in box))
    # 1D sums blocks of layers: the 2D walk on a one-node-wide box is 2-4x slower
    if grid.dimension == 1:
        (N,), (k,), (nodes,) = grid.cells, reach, box
        layers = np.arange(nodes.start, nodes.stop)
        layers = layers[(layers < k) | (layers >= N - k)]
        pos = layers[:, None] + np.arange(-k, k + 1)
        ghost = (pos < 0) | (pos >= N)
        windows = sliding_window_view(padded, 2 * k + 1)
        step = max(1, _BLOCK_TERMS // (2 * k + 1))
        for s in range(0, len(layers), step):
            i = layers[s:s + step]
            terms = np.where(ghost[s:s + step], values[i, None] - windows[i], 0.0)
            out[i - nodes.start] += terms @ data.weights
        return out
    for a, (N, k) in enumerate(zip(grid.cells, reach)):
        # wall axis first; windows[row, j, x] is the padded value that stencil
        # column j reaches from node nodes.start + x of the other axis
        b = 1 - a
        nodes, kb = box[b], reach[b]
        v_a, p_a, w_a, out_a = (np.moveaxis(arr, a, 0)
                                for arr in (values, padded, data.weights, out))
        windows = sliding_window_view(p_a, nodes.stop - nodes.start, axis=1)[:, nodes.start:]
        # ghosts also outside along axis b are counted with axis b
        pos_b = np.arange(-kb, kb + 1)[:, None] + np.arange(nodes.start, nodes.stop)
        inside_b = (pos_b >= 0) & (pos_b < grid.cells[b])
        for direction in (1, -1):
            # the far wall is the near wall of the box flipped along axis a
            v, p, o = (arr[::direction] for arr in (v_a, windows, out_a))
            first, stop = box[a].start, box[a].stop
            if direction < 0:
                first, stop = N - stop, N - first
            for m in range(first + 1, k + 1):
                # layer i reaches ghost row i - m (padded row i - m + k)
                w = w_a[k - m]
                span = np.flatnonzero(w)
                if span.size == 0:
                    continue
                lo, hi = span[0], span[-1] + 1
                top = min(m, stop)
                diff = v[first:top, None, nodes] - p[first - m + k:top - m + k, lo:hi]
                if b < a:
                    diff *= inside_b[lo:hi]
                o[:top - first] += w[lo:hi] @ diff  # diff is [layer, o, x]
    return out


def _wall_matrices(ghost: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Remainder of one wall as ``k x k`` matrices ``M[i, r]``, any trailing
    axes of ``ghost`` passing through: the ghost offsets of wall layer ``i``
    at distances ``i + r + 1 <= k`` reflect onto layer ``r``.

    ``ghost[d - 1]`` is what a ghost at distance ``d = 1..k`` contributes from
    its reflected node, and ``totals[d - 1]`` its weight at the node itself:
    ``M[i, r] = delta_ir * c_i - ghost[i + r]`` with ``c_i`` the sum of the
    totals over ``d > i`` (compare :func:`_ghost_remainder`).
    """
    k = len(ghost)
    dist = np.add.outer(np.arange(k), np.arange(k))  # i + r, i.e. distance - 1
    inside = (dist < k).reshape(dist.shape + (1,) * (ghost.ndim - 1))
    strip = -np.where(inside, ghost[np.minimum(dist, k - 1)], 0.0)
    c = np.cumsum(totals[::-1])[::-1]
    strip[np.diag_indices(k)] += c.reshape(c.shape + (1,) * (ghost.ndim - 1))
    return strip


# views of a 2D array that put each of its corners at index (0, 0)
_CORNERS = tuple((slice(None, None, s0), slice(None, None, s1))
                 for s0 in (1, -1) for s1 in (1, -1))


@dataclass(frozen=True)
class WallRemainder:
    """The boundary remainder of a zero-flux box, the reflected minus the true
    stencil operator, as tables over the ``reach``-deep layers at the walls.

    In 1D, ``strips`` are the two ``reach x reach`` wall matrices, the left
    one ``S`` and its mirror ``S[::-1, ::-1]``: ``S @ c[:reach]`` is the
    remainder on the first ``reach`` nodes.  In 2D, ``strips[a]`` serves the
    two walls across axis ``a``.  Along such a wall the remainder is a
    convolution with the even stencil rows under a half-sample reflection,
    so a cosine transform along the wall diagonalizes it, leaving one
    ``reach_a x reach_a`` matrix per cosine mode: :func:`_wall_matrices` of
    the rows' cosine symbols, shape ``(N_other, reach_a, reach_a)``.  These
    matrices are symmetric, so they apply from either side.

    A ghost node beyond two walls is counted by both wall passes, so each
    corner gives it back once: ``corner_diag[i, j]`` is the weight of the
    offsets of corner node ``(i, j)`` that land beyond both walls, and
    ``corner_hankel[j, d, s]`` is ``w(d + 1, j + s + 1)``, the weight of the
    ghost of node ``(d - r, j)`` that reflects onto node ``(r, s)`` (zero
    where ``j + s`` reaches past the reach).  The corner work grows as
    ``reach**4``; its arrays stay at ``reach**3``.
    """

    reach: tuple[int, ...]
    strips: tuple[np.ndarray, ...]
    corner_diag: np.ndarray | None = None
    corner_hankel: np.ndarray | None = None

    def __post_init__(self):
        corners = [a for a in (self.corner_diag, self.corner_hankel) if a is not None]
        _read_only(*self.strips, *corners)

    def subtract(self, values: np.ndarray, out: np.ndarray) -> None:
        """``out -= remainder(values)``, in place; both have the grid's shape."""
        # 1D has no axis along the wall to transform: one dense strip per wall
        if len(self.reach) == 1:
            (k,) = self.reach
            left, right = self.strips
            out[:k] -= left @ values[:k]
            out[-k:] -= right @ values[-k:]
            return
        for axis, (k, tables) in enumerate(zip(self.reach, self.strips)):
            # the wall axis last: rows run along the wall, columns into the box
            v, o = np.moveaxis(values, axis, -1), np.moveaxis(out, axis, -1)
            slabs = np.stack((v[:, :k], v[:, ::-1][:, :k]), axis=1)  # (n, 2, k), wall first
            hat = cosine_transform(slabs, (0,))
            remainder = cosine_transform(hat @ tables, (0,), inverse=True)
            o[:, :k] -= remainder[:, 0]
            o[:, ::-1][:, :k] -= remainder[:, 1]
        # corner node (i, j) gives back w(i + r + 1, j + s + 1) * (v[i, j] - v[r, s])
        # for each ghost (r, s); one matmul per corner row i covers all four
        # corners, with the Hankel blocks of the rows d = i + r
        k0, k1 = self.reach
        blocks = np.stack([values[c][:k0, :k1] for c in _CORNERS], axis=-1)  # [r, s, corner]
        ghosts = np.empty_like(blocks)
        for i in range(k0):
            ghosts[i] = (self.corner_hankel[:, i:].reshape(k1, -1)
                         @ blocks[:k0 - i].reshape(-1, len(_CORNERS)))
        overlap = self.corner_diag[..., None] * blocks - ghosts
        for n, c in enumerate(_CORNERS):
            out[c][:k0, :k1] += overlap[..., n]


def _build_wall_remainder(data: _StencilData) -> WallRemainder:
    grid = data.grid
    if grid.boundary != NEUMANN:
        raise ValueError("the wall remainder is defined for bounded (neumann) grids")
    # 1D has no axis along the wall to transform: one dense strip per wall
    if grid.dimension == 1:
        (k,) = data.reach
        ghost_w = data.weights[k - 1::-1]  # weights at distances 1..reach
        left = _wall_matrices(ghost_w, ghost_w)
        return WallRemainder(data.reach, (left, left[::-1, ::-1].copy()))
    strips = []
    for a in range(2):
        b = 1 - a
        k, kb, n = data.reach[a], data.reach[b], grid.cells[b]
        rows = np.moveaxis(data.weights, a, 0)[k - 1::-1]  # distances 1..k from the wall
        # each row's cosine symbols: one real FFT of the row wrapped on 2n
        symbols = scipy.fft.rfft(_wrap_stencil(rows, (kb,), (2 * n,))).real[:, :n]  # (k, n)
        tables = _wall_matrices(symbols, rows.sum(axis=1))  # [i, r, mode], symmetric in i, r
        strips.append(np.ascontiguousarray(np.moveaxis(tables, -1, 0)))
    k0, k1 = data.reach
    quadrant = data.weights[k0 + 1:, k1 + 1:]  # w(d0, d1) for d0, d1 >= 1
    corner_diag = quadrant[::-1, ::-1].cumsum(axis=0).cumsum(axis=1)[::-1, ::-1]
    padded = np.zeros((k0, 2 * k1 - 1))
    padded[:, :k1] = quadrant
    hankel = sliding_window_view(padded, k1, axis=1)  # [d, j, s] = w(d + 1, j + s + 1)
    return WallRemainder(data.reach, tuple(strips), corner_diag.copy(),
                         np.ascontiguousarray(hankel.transpose(1, 0, 2)))


def wall_remainder(kernel: Kernel, grid: UniformGrid) -> WallRemainder:
    """The cached :class:`WallRemainder` of ``kernel`` on the bounded box
    ``grid``: ``stencil_symbol(kernel, grid)`` diagonalizes the reflected
    operator, and the true operator is that minus this remainder."""
    return _stencil_data(kernel, grid).wall_remainder


def interior_remainder(kernel: Kernel, field: Field, margin: float) -> float:
    """Quadratic norm, over the sub-box at depth ``margin``, of what the kernel
    picks up from the reflected extension beyond the boundary.

    The remainder is the reflected stencil operator minus the true one,
    summed term by term over the ghost nodes (see :func:`_ghost_remainder`);
    only the sub-box layers within the stencil reach of a wall have ghost
    nodes, and only they are visited.  The sum is empty once ``margin``
    reaches the kernel support, so the norm is exactly zero there, as it is
    on a constant field and wherever the field is flat as far as the kernel
    reaches past the walls.
    """
    grid = field.grid
    if grid.boundary != NEUMANN:
        raise ValueError("interior remainder is defined for bounded (neumann) grids")
    data = _stencil_data(kernel, grid)
    if margin >= min(grid.lengths) / 2:
        raise ValueError("margin reaches half the domain; interior sub-box is empty")

    box = []
    for a in range(grid.dimension):
        nodes = grid.axis_nodes(a)
        idx = np.flatnonzero((nodes >= margin) & (nodes <= grid.lengths[a] - margin))
        if idx.size == 0:
            raise ValueError("margin leaves no grid nodes in the interior sub-box")
        box.append(slice(idx[0], idx[-1] + 1))

    remainder = _ghost_remainder(data, grid, field.values, tuple(box))
    return float(np.sqrt(np.sum(remainder ** 2) * grid.cell_volume))
