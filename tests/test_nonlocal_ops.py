import itertools
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.fft
import scipy.integrate
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nonloclab import experiments, nonlocal_ops
from nonloclab.experiments import make_test_field
from nonloclab.grid import (
    Field,
    UniformGrid,
    field_from_coefficients,
    integrate,
    inverse_transform_values,
    l2_norm,
    pypocketfft,
    sample,
    spectral_coefficients,
    transform_values,
)
from nonloclab.kernels import PROFILES, Kernel, eval_J, make_kernel, make_mollifier, total_mass
from nonloclab.local_ops import dirichlet_energy
from nonloclab.nonlocal_ops import (
    ResolutionWarning,
    apply_direct,
    apply_fft,
    apply_fft_values,
    check_support_reaches_nodes,
    interior_remainder,
    l2_inner,
    nonlocal_energy,
    pair_difference_double_sum,
    stencil_symbol,
    _ghost_remainder,
    _offset_distances,
    _pair_pass,
    _stencil_data,
)


def apply_reflected(kernel, field):
    """Apply the stencil with reflected (or wrapped) extension, spectrally."""
    coeffs = spectral_coefficients(field)
    return field_from_coefficients(field.grid, stencil_symbol(kernel, field.grid) * coeffs)


@pytest.fixture
def grid_1d():
    return UniformGrid((1.0,), (256,), "neumann")


@pytest.fixture
def kernel_1d():
    return make_kernel(1, 0.1)


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return Field(grid, rng.standard_normal(grid.shape))


def _rooms(grid):
    """The widest reach per axis that the fast path accepts: no wrap onto
    itself on a torus, one reflection's room in a box."""
    return [(N - 1) // 2 if grid.boundary == "periodic" else N for N in grid.cells]


class TestDegreeFunction:
    def test_interior_equals_full_mass(self, grid_1d, kernel_1d):
        # independent oracle: radial quadrature of the kernel over all space
        ref, _ = scipy.integrate.quad(lambda x: eval_J(kernel_1d, x), -0.1, 0.1)
        a = _stencil_data(kernel_1d, grid_1d).degree
        mid = a[128]
        assert mid == pytest.approx(ref, rel=1e-6)
        assert mid == pytest.approx(total_mass(kernel_1d), rel=1e-6)

    def test_constant_on_periodic(self, kernel_1d):
        g = UniformGrid((1.0,), (256,), "periodic")
        a = _stencil_data(kernel_1d, g).degree
        assert np.ptp(a) == 0.0

    def test_decreases_toward_boundary(self, grid_1d, kernel_1d):
        a = _stencil_data(kernel_1d, grid_1d).degree
        assert a[0] < 0.6 * a[128]  # roughly half the mass sticks out at the wall
        assert np.argmax(a) not in (0, len(a) - 1)
        inside = a[64:192]
        assert np.ptp(inside) <= 1e-9 * a[128]  # flat plateau in the interior


class TestOperatorApplications:
    def test_direct_annihilates_constants_exactly(self, grid_1d, kernel_1d):
        c = Field(grid_1d, np.full(grid_1d.shape, 1.7))
        assert np.all(apply_direct(kernel_1d, c).values == 0.0)

    def test_fft_annihilates_constants(self, grid_1d, kernel_1d):
        c = Field(grid_1d, np.full(grid_1d.shape, 1.7))
        out = apply_fft(kernel_1d, c)
        assert np.max(np.abs(out.values)) < 1e-9  # scale of J is ~1e3 here

    def test_output_mean_vanishes(self, grid_1d, kernel_1d):
        out = apply_direct(kernel_1d, random_field(grid_1d, 1))
        assert abs(integrate(out)) < 1e-12

    def test_linear_field_periodic_interior(self, kernel_1d):
        # odd first moment: a locally linear profile produces nothing away
        # from the wrap seam
        g = UniformGrid((1.0,), (512,), "periodic")
        f = Field(g, g.axis_nodes(0).copy())
        out = apply_direct(kernel_1d, f).values
        seam = int(np.ceil(0.1 / g.spacing[0])) + 2
        assert np.max(np.abs(out[seam:-seam])) < 1e-12

    def test_oracle_equivalence_1d(self, grid_1d, kernel_1d):
        f = random_field(grid_1d, 2)
        direct = apply_direct(kernel_1d, f)
        fast = apply_fft(kernel_1d, f)
        assert l2_norm(fast - direct) <= 1e-10 * l2_norm(direct)

    @pytest.mark.parametrize("boundary", ["neumann", "periodic"])
    def test_oracle_equivalence_2d(self, boundary):
        g = UniformGrid((1.0, 1.0), (32, 32), boundary)
        k = make_kernel(2, 0.2)
        f = random_field(g, 3)
        direct = apply_direct(k, f)
        fast = apply_fft(k, f)
        assert l2_norm(fast - direct) <= 1e-9 * l2_norm(direct)

    @settings(max_examples=60, deadline=None)
    @given(
        dimension=st.sampled_from([1, 2]),
        cells=st.tuples(st.integers(3, 24), st.integers(3, 24)),
        lengths=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
        boundary=st.sampled_from(["neumann", "periodic"]),
        profile=st.sampled_from(sorted(PROFILES)),
        fraction=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dimension=1, cells=(15, 3), lengths=(1.1, 1.0), boundary="neumann",
             profile="poly-2-2", fraction=1.0, seed=0)
    def test_oracle_equivalence_property(self, dimension, cells, lengths, boundary,
                                         profile, fraction, seed):
        g = UniformGrid(lengths[:dimension], cells[:dimension], boundary)
        # up to the widest support the fast path accepts
        eps = fraction * min(k * h for k, h in zip(_rooms(g), g.spacing))
        assume(eps > 0)
        k = make_kernel(dimension, eps, profile)
        f = random_field(g, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            direct = apply_direct(k, f)
            fast = apply_fft(k, f)
        # the FFT path's rounding scales with the kernel weights, about 1 / eps**2
        # per unit of field, also where the direct sum is exactly zero
        assert l2_norm(fast - direct) <= 1e-10 * (l2_norm(direct) + l2_norm(f) / eps**2)

    def test_self_adjoint_and_psd(self, grid_1d, kernel_1d):
        u = random_field(grid_1d, 4)
        v = random_field(grid_1d, 5)
        lu = apply_fft(kernel_1d, u)
        lv = apply_fft(kernel_1d, v)
        sym_scale = l2_norm(lu) * l2_norm(v)
        assert l2_inner(lu, v) == pytest.approx(l2_inner(u, lv), abs=1e-10 * sym_scale)
        assert l2_inner(lu, u) >= 0.0

    def test_resolution_warning(self, grid_1d):
        coarse = make_kernel(1, 0.01)  # under 4 cells of support on N = 256
        with pytest.warns(ResolutionWarning):
            apply_fft(coarse, random_field(grid_1d, 6))
        with pytest.warns(ResolutionWarning):
            apply_direct(coarse, random_field(grid_1d, 6))

    def test_dimension_mismatch(self, grid_1d):
        with pytest.raises(ValueError):
            apply_fft(make_kernel(2, 0.1), random_field(grid_1d, 7))

    @pytest.mark.parametrize("n, grid", [
        (1, UniformGrid((1.0, 1.0), (16, 16), "neumann")),
        (2, UniformGrid((1.0,), (64,), "periodic")),
    ])
    def test_pairwise_oracles_reject_dimension_mismatch(self, n, grid):
        kernel = make_kernel(n, 0.3)
        f = random_field(grid, 7)
        with pytest.raises(ValueError, match="dimensions differ"):
            apply_direct(kernel, f)
        with pytest.raises(ValueError, match="dimensions differ"):
            pair_difference_double_sum(kernel, f)

    def test_kernel_wider_than_periodic_box(self):
        g = UniformGrid((1.0,), (64,), "periodic")
        with pytest.raises(ValueError, match="wraps"):
            apply_fft(make_kernel(1, 0.6), random_field(g, 8))

    @pytest.mark.parametrize("boundary, length, cells, room", [
        # support equal to the box length; 1.1 / (1.1 / 15) rounds to 15 + 1 ulp
        ("neumann", 1.1, 15, 15),
        ("neumann", 1.7, 27, 27),
        # support equal to (N - 1) // 2 cells; (5 h) / h rounds to 5 + 1 ulp
        ("periodic", 1.3, 12, 5),
        ("periodic", 0.7, 15, 7),
    ])
    def test_support_equal_to_the_room_is_accepted(self, boundary, length, cells, room):
        g = UniformGrid((length,), (cells,), boundary)
        eps = length if boundary == "neumann" else room * g.spacing[0]
        assert eps / g.spacing[0] > room  # the rounding the check must forgive
        kernel = make_kernel(1, eps, "poly-2-2")
        assert _stencil_data(kernel, g).reach == (room,)
        f = random_field(g, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            direct = apply_direct(kernel, f)
            fast = apply_fft(kernel, f)
        assert l2_norm(fast - direct) <= 1e-10 * l2_norm(direct)

    @pytest.mark.parametrize("boundary, message", [
        ("neumann", "exceeds the box"),
        ("periodic", "wraps"),
    ])
    def test_support_past_the_room_beyond_rounding_is_rejected(self, boundary, message):
        g = UniformGrid((1.0,), (64,), boundary)
        room = 64 if boundary == "neumann" else 31
        with pytest.raises(ValueError, match=message):
            apply_fft(make_kernel(1, room * g.spacing[0] * (1 + 1e-12)), random_field(g, 8))

    @pytest.mark.parametrize("boundary, message", [
        ("neumann", "exceeds the box"),
        ("periodic", "wraps"),
    ])
    @pytest.mark.parametrize("length", [1e-250, 1.0])
    def test_huge_scale_is_rejected_before_integer_reach(self, boundary, message, length):
        # 1e100 / h overflows to inf on the tiny box, not on the unit box;
        # neither may reach int() (a larger eps is no kernel: its value underflows)
        g = UniformGrid((length,), (64,), boundary)
        with pytest.raises(ValueError, match=message):
            apply_fft(make_kernel(1, 1e100), random_field(g, 8))


def _dense_pair_weights(kernel, grid):
    """Reference pair weights: the kernel evaluated on every node pair, from
    one ``(n, n, dimension)`` difference array, with the nearest image on
    periodic grids.  The oracle's weights must equal these bit for bit."""
    coords = np.stack([m.ravel() for m in grid.meshgrid()], axis=1)
    diff = coords[:, None, :] - coords[None, :, :]
    if grid.boundary == "periodic":
        lengths = np.asarray(grid.lengths)
        diff -= lengths * np.round(diff / lengths)
    return kernel.value_radial(np.sqrt(np.sum(diff * diff, axis=2)))


def _windowed_pair_weights(kernel, grid):
    """The windowed pass's pair weights scattered into an ``n x n`` matrix.
    The field holds each node's flat index, so the partner values name the
    partners; a pair visited twice would add its weight twice."""
    n = grid.node_count
    field = Field(grid, np.arange(n, dtype=float).reshape(grid.shape))
    nodes = field.values.reshape(-1, grid.cells[-1])
    weights = np.zeros((n, n))
    for index, partners, J in nonlocal_ops._pair_blocks(kernel, field):
        rows = np.broadcast_to(nodes[index][..., None], J.shape)
        np.add.at(weights, (rows.astype(int), partners.astype(int)), J)
    return weights


# rows and double sum may differ from the dense loops by the rounding of
# their sums, which run in another order
_SUM_ROUNDING = 16 * np.finfo(float).eps


def _assert_pair_pass_matches_dense(kernel, field):
    grid = field.grid
    J = _dense_pair_weights(kernel, grid)
    assert np.array_equal(_windowed_pair_weights(kernel, grid), J)
    v = field.values.ravel()
    dv = v[:, None] - v[None, :]
    terms = J * grid.cell_volume * dv
    pair_terms = J * dv * dv * grid.cell_volume**2
    rows, total = _pair_pass(kernel, field)
    assert np.all(np.abs(rows.values.ravel() - terms.sum(axis=1))
                  <= _SUM_ROUNDING * np.abs(terms).sum(axis=1))
    assert abs(total - pair_terms.sum()) <= _SUM_ROUNDING * pair_terms.sum()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        assert np.array_equal(apply_direct(kernel, field).values, rows.values)
    assert pair_difference_double_sum(kernel, field) == total


def _division_rule_blocks(kernel, field):
    """Each block of :func:`nonlocal_ops._pair_blocks` beside the weights that
    the division-based support test gives its pairs: ``J`` where the scaled
    radius ``dist / eps`` is below 1, and zero elsewhere and past a wall.
    The field must hold ``1 + `` each node's flat index, so a partner value
    names the partner node and a zero marks a pair past a wall."""
    grid = field.grid
    coords = np.stack([m.ravel() for m in grid.meshgrid()], axis=1)
    nodes = field.values.reshape(-1, grid.cells[-1]).astype(int) - 1
    for index, partners, J in nonlocal_ops._pair_blocks(kernel, field):
        partner = partners.astype(int) - 1
        node = np.broadcast_to(nodes[index][..., None], J.shape)
        diff = coords[node] - coords[partner]
        if grid.boundary == "periodic":
            lengths = np.asarray(grid.lengths)
            diff -= lengths * np.round(diff / lengths)
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        inside = (dist / kernel.epsilon < 1.0) & (partner >= 0)
        yield J, np.where(inside, kernel.value_radial(dist), 0.0), dist


class TestWindowedPairPass:
    @pytest.mark.parametrize("boundary, lengths, cells, eps", [
        *[(b, (1.0,), (N,), 0.3) for b in ("neumann", "periodic") for N in (10, 20)],
        ("neumann", (1.0, 1.0), (10, 10), 0.5),     # nodes (3, 4) cells apart
        ("periodic", (1.4, 1.4), (14, 14), 0.5),    # the same on a torus with room for 6
    ])
    def test_support_test_keeps_the_division_rule_bits(self, boundary, lengths, cells, eps):
        g = UniformGrid(lengths, cells, boundary)
        field = Field(g, 1.0 + np.arange(g.node_count, dtype=float).reshape(g.shape))
        offsets = set()
        for e in (np.nextafter(eps, 0.0), eps, np.nextafter(eps, 1.0)):
            for J, expected, dist in _division_rule_blocks(make_kernel(g.dimension, e), field):
                assert np.array_equal(J, expected)
                for step, neighbour in enumerate((np.nextafter(e, 0.0), e,
                                                  np.nextafter(e, 1.0)), start=-1):
                    if np.any(dist == neighbour):
                        offsets.add(step)
        # some pair distance equals the support radius, and some lies one ulp
        # below or above it
        assert offsets == {-1, 0, 1}

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("boundary, lengths, cells, eps", [
        ("neumann", (1.0,), (256,), 0.1),
        ("neumann", (0.9,), (300,), 0.1),               # cell volume 0.003
        ("neumann", (1.0,), (64,), 10 / 64),            # support exactly 10 h
        ("neumann", (1.0,), (64,), 1.0),                # support the box: every window
                                                        # clipped at both walls
        ("periodic", (1.0,), (64,), 10 / 64),
        ("periodic", (1.0,), (64,), 0.3),               # support above L / 4
        ("periodic", (1.0,), (64,), 31 / 64),           # support the room, (N - 1) // 2 h
        ("periodic", (1.3,), (70,), 0.25),
        ("neumann", (1.0, 1.0), (24, 24), 5 / 24),      # support exactly 5 h
        ("periodic", (1.0, 1.0), (24, 24), 5 / 24),
        ("neumann", (2.0, 1.0), (40, 18), 0.2),
        ("neumann", (1.0, 0.7), (36, 36), 0.15),        # volume not 2**-k
        ("periodic", (1.0, 2.0), (20, 36), 0.3),        # above L / 4 on one axis
        ("periodic", (1.0, 1.0), (24, 24), 0.35),
        ("neumann", (1.0, 1.0), (7, 1), 0.9),           # one node across the last axis
    ])
    def test_matches_dense_reference(self, profile, boundary, lengths, cells, eps):
        g = UniformGrid(lengths, cells, boundary)
        _assert_pair_pass_matches_dense(make_kernel(len(cells), eps, profile),
                                        random_field(g, 21))

    @settings(max_examples=60, deadline=None)
    @given(
        dimension=st.sampled_from([1, 2]),
        cells=st.tuples(st.integers(2, 24), st.integers(2, 24)),
        lengths=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
        boundary=st.sampled_from(["neumann", "periodic"]),
        profile=st.sampled_from(sorted(PROFILES)),
        cells_reached=st.floats(1.0, 30.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dimension=1, cells=(16, 2), lengths=(1.0, 1.0), boundary="periodic",
             profile="poly-2-3", cells_reached=1.0, seed=0)   # support of one cell
    @example(dimension=2, cells=(9, 10), lengths=(1.0, 1.0), boundary="periodic",
             profile="poly-2-2", cells_reached=6.0, seed=1)   # clipped to the torus's room
    def test_matches_dense_reference_property(self, dimension, cells, lengths, boundary,
                                              profile, cells_reached, seed):
        g = UniformGrid(lengths[:dimension], cells[:dimension], boundary)
        # supports past the room are rejected (test_rejects_what_the_fast_path_rejects)
        room = min(k * h for k, h in zip(_rooms(g), g.spacing))
        assume(room > 0)
        eps = min(cells_reached * max(g.spacing), room)
        _assert_pair_pass_matches_dense(make_kernel(dimension, eps, profile),
                                        random_field(g, seed))

    @settings(max_examples=80, deadline=None)
    @given(
        dimension=st.sampled_from([1, 2]),
        cells=st.tuples(st.integers(1, 24), st.integers(1, 24)),
        lengths=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
        boundary=st.sampled_from(["neumann", "periodic"]),
        cells_reached=st.floats(0.1, 40.0),
    )
    # supports the pair pass summed before it took the stencil's window
    @example(dimension=1, cells=(64, 1), lengths=(1.0, 1.0), boundary="neumann",
             cells_reached=192.0)                     # eps 3.0, past both walls
    @example(dimension=1, cells=(64, 1), lengths=(1.0, 1.0), boundary="periodic",
             cells_reached=38.4)                      # eps 0.6, wider than the torus
    @example(dimension=2, cells=(7, 1), lengths=(1.0, 1.0), boundary="periodic",
             cells_reached=0.9)                       # one node across the last axis
    @example(dimension=1, cells=(300, 1), lengths=(1.0, 1.0), boundary="periodic",
             cells_reached=210.0)                     # eps 0.7
    @example(dimension=2, cells=(20, 28), lengths=(1.0, 1.0), boundary="periodic",
             cells_reached=12.0)                      # eps 0.6
    @example(dimension=2, cells=(10, 10), lengths=(1.0, 1.0), boundary="periodic",
             cells_reached=5.0)                       # eps 0.5
    @example(dimension=2, cells=(9, 10), lengths=(1.0, 1.0), boundary="periodic",
             cells_reached=6.0)                       # beyond half the torus
    def test_rejects_what_the_fast_path_rejects(self, dimension, cells, lengths, boundary,
                                                cells_reached):
        g = UniformGrid(lengths[:dimension], cells[:dimension], boundary)
        kernel = make_kernel(dimension, cells_reached * max(g.spacing))
        f = random_field(g, 0)

        def outcome(operator):
            try:
                operator(kernel, f)
            except ValueError as exc:
                return str(exc)
            return None

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            expected = outcome(apply_fft)
            assert outcome(apply_direct) == expected
            assert outcome(pair_difference_double_sum) == expected

    @pytest.mark.parametrize("boundary", ["neumann", "periodic"])
    @pytest.mark.parametrize("cells, eps", [((200,), 0.3), ((20, 24), 0.4)])
    def test_constant_field_gives_exact_zeros(self, boundary, cells, eps):
        g = UniformGrid((1.0,) * len(cells), cells, boundary)
        rows, total = _pair_pass(make_kernel(g.dimension, eps), Field(g, np.full(cells, 0.3)))
        assert np.all(rows.values == 0.0)
        assert total == 0.0

    @pytest.mark.parametrize("boundary, lengths, cells, eps", [
        ("neumann", (1.0,), (300,), 0.2),
        ("periodic", (1.0,), (300,), 0.45),
        ("neumann", (1.0, 1.0), (24, 30), 0.3),
        ("periodic", (1.0, 1.0), (20, 28), 0.4),
        # spacings off the dyadic grid: a block's rows meet several lead distances
        ("neumann", (0.7, 0.9), (24, 30), 0.3),
    ])
    @pytest.mark.parametrize("block", [1, 50, 700])
    def test_row_bits_do_not_depend_on_the_block_size(self, monkeypatch, boundary, lengths,
                                                      cells, eps, block):
        g = UniformGrid(lengths, cells, boundary)
        k, f = make_kernel(g.dimension, eps), random_field(g, 5)
        rows, total = _pair_pass(k, f)
        monkeypatch.setattr(nonlocal_ops, "_BLOCK_TERMS", block)
        blocks = sum(1 for _ in nonlocal_ops._pair_blocks(k, f))
        small_rows, small_total = _pair_pass(k, f)
        assert np.array_equal(small_rows.values, rows.values)
        # the double sum adds one nonnegative partial sum per block, each a
        # pairwise sum of at most 2**19 terms (19 levels); either pass's
        # rounding is within (blocks + 19) eps of the total, and the default
        # bound walks no more blocks than this one
        assert abs(small_total - total) <= 2 * (blocks + 19) * np.finfo(float).eps * total

    def test_visits_only_the_support_window(self, monkeypatch):
        # 128^2 with eps 0.05: 15 x 15 window offsets per node, not 128^2
        g = UniformGrid((1.0, 1.0), (128, 128), "periodic")
        visited = []
        blocks = nonlocal_ops._pair_blocks

        def counting(kernel, field):
            for index, partners, J in blocks(kernel, field):
                visited.append(J.size)
                yield index, partners, J

        monkeypatch.setattr(nonlocal_ops, "_pair_blocks", counting)
        _pair_pass(make_kernel(2, 0.05), random_field(g, 3))
        assert sum(visited) == 128 * 128 * 15 * 15

    def test_evaluates_the_profile_once_per_lead_distance(self, monkeypatch):
        # 64^2 with eps 0.15: reach 10, so 21 offsets along each axis, and 3
        # chunks of rows per offset.  A block's rows at one offset share one
        # squared lead distance, so the profile runs on one row's worth of
        # pairs per chunk, not on each of the 64^2 * 21^2 pairs
        g = UniformGrid((1.0, 1.0), (64, 64), "neumann")
        evaluated = []
        value_radial = Kernel.value_radial

        def counting(self, r):
            evaluated.append(np.size(r))
            return value_radial(self, r)

        monkeypatch.setattr(Kernel, "value_radial", counting)
        _pair_pass(make_kernel(2, 0.15), random_field(g, 3))
        assert 0 < sum(evaluated) <= 21 * 3 * 64 * 21

    @pytest.mark.parametrize("boundary, lengths, cells, eps", [
        ("neumann", (1.0,), (4096,), 0.2),              # a window of 1641 offsets
        ("neumann", (1.0, 1.0), (64, 64), 0.15),
        # spacings off the dyadic grid: the rows at one offset meet many lead
        # distances, so weights hoisted out of the row chunks exceed the bound
        ("periodic", (0.7, 0.9), (21, 27), 0.3),
    ])
    @pytest.mark.parametrize("block", [nonlocal_ops._BLOCK_TERMS, 700])
    def test_temporaries_keep_to_the_block_bound(self, monkeypatch, boundary, lengths, cells,
                                                 eps, block):
        g = UniformGrid(lengths, cells, boundary)
        k = make_kernel(g.dimension, eps)
        # a block holds one window at the least
        bound = max(block, 2 * _stencil_data(k, g).reach[-1] + 1)
        sizes, radii = [], []
        blocks, value_radial = nonlocal_ops._pair_blocks, Kernel.value_radial

        def spying(kernel, field):
            for index, partners, J in blocks(kernel, field):
                sizes.append(J.size)
                yield index, partners, J

        def counting(self, r):
            radii.append(np.size(r))
            return value_radial(self, r)

        monkeypatch.setattr(nonlocal_ops, "_BLOCK_TERMS", block)
        monkeypatch.setattr(nonlocal_ops, "_pair_blocks", spying)
        monkeypatch.setattr(Kernel, "value_radial", counting)
        _pair_pass(k, random_field(g, 3))
        assert sizes and max(sizes) <= bound
        assert radii and max(radii) <= bound


class TestSupportReachesNodes:
    @pytest.mark.parametrize("lengths, cells, eps", [
        ((1.0,), (64,), 0.01),
        ((1.0,), (64,), 1 / 64),          # the support ends exactly at the nearest node
        ((1.0,), (64,), np.nextafter(1 / 64, 0.0)),
        ((1.0,), (1,), 0.1),
        ((1.0, 2.0), (16, 16), 0.06),     # short of the smaller spacing 1/16
    ])
    def test_rejected_when_every_neighbour_weight_is_zero(self, lengths, cells, eps):
        g = UniformGrid(lengths, cells, "neumann")
        k = make_kernel(g.dimension, eps)
        weights = _stencil_data(k, g).weights
        assert np.count_nonzero(weights) == 1  # the centre, which cancels
        with pytest.raises(ValueError, match=r"eps = .*spacing"):
            check_support_reaches_nodes(k, g)

    @pytest.mark.parametrize("lengths, cells, eps", [
        ((1.0,), (64,), 1.01 / 64),
        ((1.0,), (64,), np.nextafter(1 / 64, 1.0)),  # one ulp past the nearest node
        ((1.0, 2.0), (16, 16), 0.07),     # reaches along the first axis only
    ])
    def test_accepted_when_a_neighbour_has_weight(self, lengths, cells, eps):
        g = UniformGrid(lengths, cells, "neumann")
        k = make_kernel(g.dimension, eps)
        check_support_reaches_nodes(k, g)
        assert np.count_nonzero(_stencil_data(k, g).weights) > 1


def _cosine_sum_eigenvalues(weights, reach, grid):
    """Reference eigenvalues by the plain sum over the stencil offsets:
    ``sum_o w_o - sum_o w_o prod_a cos(theta m_a o_a / N_a)``, with theta pi
    on zero-flux boxes and 2 pi on periodic grids, whose last axis keeps the
    half spectrum of the real transform."""
    theta = np.pi if grid.boundary == "neumann" else 2 * np.pi
    cos_sum = weights
    for a, (N, k) in enumerate(zip(grid.cells, reach)):
        half = grid.boundary == "periodic" and a == grid.dimension - 1
        modes = np.arange(N // 2 + 1 if half else N)
        table = np.cos(theta * np.outer(np.arange(-k, k + 1), modes) / N)
        # contracts the offsets of axis a, which lead, and appends its modes
        cos_sum = np.tensordot(cos_sum, table, axes=(0, 0))
    return weights.sum() - cos_sum


def _check_symbol_against_cosine_sum(boundary, lengths, cells, eps, profile):
    g = UniformGrid(lengths, cells, boundary)
    k = make_kernel(g.dimension, eps, profile)
    data = _stencil_data(k, g)
    ref = _cosine_sum_eigenvalues(data.weights, data.reach, g)
    symbol = stencil_symbol(k, g)
    assert symbol.shape == ref.shape
    assert np.all(symbol >= 0.0)
    assert np.max(np.abs(symbol - ref)) <= 1e-14 * data.weights.sum()


class TestOffsetDistances:
    @pytest.mark.parametrize("k, h", [(7, 0.013), (40, 1 / 3), (1000, 1 / 4096)])
    def test_1d_is_the_absolute_offset(self, k, h):
        offsets = np.arange(-k, k + 1) * h
        assert np.array_equal(_offset_distances((k,), (h,)), np.abs(offsets))

    @pytest.mark.parametrize("reach, spacing", [((5, 9), (0.1, 1 / 7)), ((3, 3), (0.25, 0.3)),
                                                ((13, 13), (1 / 128, 1 / 128))])
    def test_2d_is_the_euclidean_length(self, reach, spacing):
        (kx, ky), (hx, hy) = reach, spacing
        dx = (np.arange(-kx, kx + 1) * hx)[:, None]
        dy = (np.arange(-ky, ky + 1) * hy)[None, :]
        assert np.array_equal(_offset_distances(reach, spacing), np.sqrt(dx * dx + dy * dy))


class TestStencilSymbolOnDemand:
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("boundary", ["neumann", "periodic"])
    @pytest.mark.parametrize("lengths, cells, eps", [
        ((1.0,), (256,), 0.1),
        ((1.0,), (300,), 0.23),
        ((1.0, 1.0), (32, 32), 0.2),
        ((1.0, 2.0), (24, 40), 0.3),
    ])
    def test_equals_eigenvalues(self, profile, boundary, lengths, cells, eps):
        _check_symbol_against_cosine_sum(boundary, lengths, cells, eps, profile)

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("lengths, cells, eps", [
        ((1.0,), (64,), 0.6),            # reach above N / 2
        ((1.0,), (64,), 0.99),           # reach = N
        ((1.0, 1.5), (20, 24), 0.7),     # reach above half of both sides
    ])
    def test_equals_eigenvalues_past_half_the_box(self, profile, lengths, cells, eps):
        # only a zero-flux box has room for such a reach; a periodic grid wraps
        _check_symbol_against_cosine_sum("neumann", lengths, cells, eps, profile)

    def test_operators_and_studies_never_build_the_table(self):
        def no_table(*args, **kwargs):
            raise AssertionError("the eigenvalue table was built")

        g1 = UniformGrid((1.0,), (256,), "neumann")
        g2 = UniformGrid((1.0, 1.0), (48, 48), "neumann")
        _stencil_data.cache_clear()
        try:
            with mock.patch.object(nonlocal_ops, "_stencil_eigenvalues", no_table):
                for g, eps in ((g1, 0.1), (g2, 0.15),
                               (UniformGrid((1.0,), (256,), "periodic"), 0.1)):
                    k = make_kernel(g.dimension, eps)
                    f = random_field(g, 33)
                    apply_fft(k, f)
                    apply_direct(k, f)
                    _stencil_data(k, g).degree
                    nonlocal_energy(k, f)
                    if g.boundary == "neumann":
                        interior_remainder(k, f, 0.5 * eps)
                    if g.boundary == "neumann":
                        nonlocal_ops.wall_remainder(k, g)
                for g in (g1, g2):
                    moll = make_mollifier(g.dimension)
                    ladder = (0.4, 0.3, 0.2)
                    experiments.operator_rate_study(g, moll, "cospix", ladder)
                    experiments.energy_rate_study(g, moll, "cospix", ladder)
                    experiments.remainder_rate_study(g, moll, "cospix", ladder)
        finally:
            _stencil_data.cache_clear()

    def test_two_calls_build_the_table_once(self):
        g = UniformGrid((1.0, 1.0), (32, 32), "periodic")
        k = make_kernel(2, 0.2)
        _stencil_data.cache_clear()
        with mock.patch.object(nonlocal_ops, "_stencil_eigenvalues",
                               wraps=nonlocal_ops._stencil_eigenvalues) as spy:
            first = stencil_symbol(k, g)
            first[:] = -1.0  # callers get a copy, never the cached array
            second = stencil_symbol(k, g)
        assert spy.call_count == 1
        assert np.all(second >= 0.0)
        assert np.array_equal(second, stencil_symbol(k, g))


class TestReflectedOperator:
    def test_matches_true_operator_in_interior(self, grid_1d, kernel_1d):
        f = random_field(grid_1d, 9)
        gap = apply_reflected(kernel_1d, f) - apply_fft(kernel_1d, f)
        reach = int(np.ceil(0.1 / grid_1d.spacing[0]))
        interior = gap.values[reach + 1: -reach - 1]
        assert np.max(np.abs(interior)) < 1e-9 * np.max(np.abs(f.values))

    def test_symbol_nonnegative(self, grid_1d, kernel_1d):
        assert np.all(stencil_symbol(kernel_1d, grid_1d) >= 0.0)

    def test_periodic_symbol_diagonalizes_fft_path(self):
        g = UniformGrid((1.0,), (128,), "periodic")
        k = make_kernel(1, 0.1)
        f = random_field(g, 10)
        via_symbol = apply_reflected(k, f)
        direct = apply_fft(k, f)
        assert l2_norm(via_symbol - direct) <= 1e-12 * l2_norm(direct)

    def test_periodic_symbol_diagonalizes_fft_path_2d(self):
        g = UniformGrid((1.0, 2.0), (32, 64), "periodic")
        k = make_kernel(2, 0.25)
        f = random_field(g, 13)
        via_symbol = apply_reflected(k, f)
        direct = apply_fft(k, f)
        assert l2_norm(via_symbol - direct) <= 1e-12 * l2_norm(direct)


class TestEnergies:
    def test_constant_energy_zero(self, grid_1d, kernel_1d):
        c = Field(grid_1d, np.full(grid_1d.shape, 0.5))
        assert abs(nonlocal_energy(kernel_1d, c)) < 1e-10

    def test_quadratic_form_is_half_double_sum(self):
        # brute-force audit on a small grid: the operator quadratic form is
        # exactly half the raw pair double sum, so the quarter-weighted
        # energy is half the quadratic form
        g = UniformGrid((1.0,), (32,), "neumann")
        k = make_kernel(1, 0.25)
        f = random_field(g, 11)
        quad_form = l2_inner(apply_direct(k, f), f)
        double_sum = pair_difference_double_sum(k, f)
        assert quad_form / double_sum == pytest.approx(0.5, abs=1e-10)
        assert nonlocal_energy(k, f) == pytest.approx(0.25 * double_sum, rel=1e-12)

    def test_energy_approaches_gradient_energy(self):
        g = UniformGrid((1.0,), (1024,), "periodic")
        f = sample(g, lambda x: np.sin(2 * np.pi * x))
        target = dirichlet_energy(f)
        errs = [abs(nonlocal_energy(make_kernel(1, e), f) - target)
                for e in (0.2, 0.1, 0.05, 0.025)]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 0.01 * target

    def test_cosine_energy_from_below(self):
        g = UniformGrid((1.0,), (1024,), "neumann")
        f = sample(g, lambda x: np.cos(np.pi * x))
        target = math.pi**2 / 4
        values = [nonlocal_energy(make_kernel(1, e), f) for e in (0.2, 0.1, 0.05)]
        assert all(0 < v < target for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))  # climbing to the limit


def _ghost_loop_array(kernel, field):
    """Independent reference: sum each stencil weight that reaches a ghost
    node of the reflected extension, one offset at a time, on the whole grid."""
    grid = field.grid
    data = _stencil_data(kernel, grid)
    reach = data.reach
    v = field.values
    padded = np.pad(v, [(k, k) for k in reach], mode="symmetric")
    ghost = np.ones(padded.shape, dtype=bool)
    ghost[tuple(slice(k, k + N) for k, N in zip(reach, grid.cells))] = False
    remainder = np.zeros(grid.shape)
    for off in itertools.product(*[range(-k, k + 1) for k in reach]):
        weight = data.weights[tuple(o + k for o, k in zip(off, reach))]
        if weight == 0.0:
            continue
        shifted = tuple(slice(k + o, k + o + N) for o, k, N in zip(off, reach, grid.cells))
        is_ghost = ghost[shifted]
        if is_ghost.any():
            remainder += weight * is_ghost * (v - padded[shifted])
    return remainder


def _interior_box(grid, margin):
    """The node sub-box at depth ``margin``, one slice per axis; ``None``
    when it holds no node."""
    box = []
    for a in range(grid.dimension):
        nodes = grid.axis_nodes(a)
        idx = np.flatnonzero((nodes >= margin) & (nodes <= grid.lengths[a] - margin))
        if idx.size == 0:
            return None
        box.append(slice(idx[0], idx[-1] + 1))
    return tuple(box)


def _ghost_loop_remainder(kernel, field, margin):
    remainder = _ghost_loop_array(kernel, field)[_interior_box(field.grid, margin)]
    return float(np.sqrt(np.sum(remainder ** 2) * field.grid.cell_volume))


def _box_and_kernel(dimension, cells, lengths, fraction, profile):
    """A zero-flux box and a kernel whose support is ``fraction`` of its
    shortest side, reaching at least 1.5 cells along every axis."""
    g = UniformGrid(lengths[:dimension], cells[:dimension], "neumann")
    eps = fraction * min(g.lengths)
    assume(eps >= 1.5 * max(g.spacing))
    return g, make_kernel(dimension, eps, profile)


_BOXES = dict(
    cells=st.tuples(st.integers(6, 48), st.integers(6, 48)),
    lengths=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
    fraction=st.floats(0.05, 0.95),
    profile=st.sampled_from(sorted(PROFILES)),
    seed=st.integers(0, 2**31 - 1),
)


class TestInteriorRemainder:
    @pytest.mark.parametrize("profile", ["poly-2-3", "poly-4-3"])
    @pytest.mark.parametrize("bound", [2**b for b in range(10, 20)])
    def test_1d_ghost_sum_does_not_depend_on_the_block_size(self, monkeypatch, profile,
                                                            bound):
        # reach 205: 205 layers per wall of at most 205 terms, one block per
        # wall from 2**16 on; data flat near the left wall, so some wall
        # layers are exact zeros
        g = UniformGrid((1.0,), (1024,), "neumann")
        data = _stencil_data(make_kernel(1, 0.2, profile), g)
        v = random_field(g, 3).values.copy()
        v[:123] = 0.7
        box = (slice(0, 1024),)
        ref = _ghost_remainder(data, v, box)
        monkeypatch.setattr(nonlocal_ops, "_BLOCK_TERMS", bound)
        out = _ghost_remainder(data, v, box)
        assert np.array_equal(out == 0.0, ref == 0.0)
        assert 0 < np.count_nonzero(ref[:205] == 0.0) < 205
        assert np.max(np.abs(out - ref)) <= 1e-15 * data.weights.sum() * np.max(np.abs(v))

    def test_zero_beyond_support(self, grid_1d):
        f = sample(grid_1d, lambda x: np.cos(np.pi * x))
        for eps in (0.05, 0.1):
            k = make_kernel(1, eps)
            assert interior_remainder(k, f, margin=eps + 0.01) == 0.0

    def test_decreasing_at_half_support(self, grid_1d):
        f = sample(grid_1d, lambda x: np.cos(np.pi * x))
        vals = [interior_remainder(make_kernel(1, e), f, margin=0.5 * e)
                for e in (0.2, 0.1, 0.05)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_constant_gives_zero(self, grid_1d, kernel_1d):
        for value in (2.0, 0.3, 12345.678):
            c = Field(grid_1d, np.full(grid_1d.shape, value))
            assert interior_remainder(kernel_1d, c, margin=0.03) == 0.0

    @pytest.mark.parametrize("profile", ["poly-2-3", "poly-4-3", "poly-2-2"])
    @pytest.mark.parametrize("lengths, cells, eps", [
        ((1.0,), (256,), 0.1),
        ((1.0, 1.0), (48, 48), 0.15),
        ((1.0, 1.5), (40, 48), 0.15),
        # reach above N / 2: layers with ghosts beyond both walls
        ((1.0,), (64,), 0.6),
        ((1.0, 1.0), (24, 20), 0.7),
    ])
    @pytest.mark.parametrize("data", ["smooth", "random", "flatbump", "ramps"])
    def test_matches_ghost_loop_reference(self, profile, lengths, cells, eps, data):
        g = UniformGrid(lengths, cells, "neumann")
        k = make_kernel(g.dimension, eps, profile)
        if data == "smooth":
            f = sample(g, lambda *xs: math.prod(np.cos(np.pi * x) + 0.3 * x for x in xs))
        elif data == "random":
            f = random_field(g, 5)
        elif data == "flatbump":
            f = make_test_field(g, "flatbump")  # zero within 10% of each wall
        else:
            # flat at a different level near each wall, so no single shift
            # of the field makes it zero there
            f = sample(g, lambda *xs: sum((a + 1) * np.clip((x - 0.3) / 0.4, 0.0, 1.0)
                                          for a, x in enumerate(xs)))
        bound = 1e-13 * _stencil_data(k, g).weights.sum() * l2_norm(f)
        # factors 0 and 0.1 put the wall layers themselves in the sub-box
        for factor in (0.0, 0.1, 0.5, 0.9, 0.999, 1.001):
            margin = factor * k.support_radius
            if margin >= min(g.lengths) / 2:
                continue
            new = interior_remainder(k, f, margin)
            ref = _ghost_loop_remainder(k, f, margin)
            assert abs(new - ref) <= bound
            assert (new == 0.0) == (ref == 0.0)

    @settings(max_examples=40, deadline=None)
    @given(dimension=st.sampled_from([1, 2]), margin_factor=st.floats(0.0, 1.2),
           flat=st.floats(0.0, 0.5), **_BOXES)
    @example(dimension=1, margin_factor=0.0, flat=0.5, cells=(40, 6), lengths=(1.0, 1.0),
             fraction=0.8, profile="poly-2-3", seed=1)
    @example(dimension=2, margin_factor=0.1, flat=0.3, cells=(20, 24), lengths=(1.0, 1.5),
             fraction=0.7, profile="poly-4-3", seed=2)
    def test_matches_ghost_loop_property(self, dimension, margin_factor, flat, cells, lengths,
                                         fraction, profile, seed):
        # random data, constant on the frame within ``flat`` of the walls
        # (a fraction of each side), so some layers have exact zeros
        g, k = _box_and_kernel(dimension, cells, lengths, fraction, profile)
        margin = margin_factor * k.support_radius
        box = _interior_box(g, margin)
        assume(margin < min(g.lengths) / 2 and box is not None)
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(g.shape)
        frame = np.zeros(g.shape, dtype=bool)
        for a, x in enumerate(g.meshgrid()):
            frame |= (x < flat * g.lengths[a]) | (x > (1 - flat) * g.lengths[a])
        v[frame] = rng.standard_normal()
        f = Field(g, v)
        data = _stencil_data(k, g)
        new = _ghost_remainder(data, v, box)
        ref = _ghost_loop_array(k, f)[box]
        bound = 1e-13 * data.weights.sum() * l2_norm(f)
        assert np.max(np.abs(new - ref)) <= bound
        assert np.array_equal(new == 0.0, ref == 0.0)
        assert abs(interior_remainder(k, f, margin) - _ghost_loop_remainder(k, f, margin)) <= bound

    @pytest.mark.parametrize("profile", ["poly-2-3", "poly-4-3"])
    @pytest.mark.parametrize("cells, eps", [
        (256, 0.05), (64, 0.3), (64, 0.6), (64, 0.9), (64, 0.99), (37, 0.95),
    ])
    @pytest.mark.parametrize("data", ["smooth", "random", "flatbump", "ramps"])
    def test_wall_strip_matches_references(self, profile, cells, eps, data):
        # eps 0.6 and up: reach passes N/2 and the two wall strips overlap;
        # eps 0.99 on 64 cells has reach 64 = N
        g = UniformGrid((1.0,), (cells,), "neumann")
        k = make_kernel(1, eps, profile)
        if data == "smooth":
            f = sample(g, lambda x: np.cos(np.pi * x) + 0.3 * x)
        elif data == "random":
            f = random_field(g, 9)
        elif data == "flatbump":
            f = make_test_field(g, "flatbump")
        else:
            f = sample(g, lambda x: np.clip((x - 0.3) / 0.4, 0.0, 1.0))
        strip = nonlocal_ops.wall_remainder(k, g).strips[0]
        reach = strip.shape[0]
        v = f.values
        out = np.zeros(g.shape)
        out[:reach] += strip @ v[:reach]
        out[-reach:] += strip[::-1, ::-1] @ v[-reach:]

        stencil = _stencil_data(k, g)
        assert reach == stencil.reach[0]
        bound = 1e-13 * stencil.weights.sum() * l2_norm(f)
        full = _ghost_remainder(stencil, v, (slice(0, cells),))
        assert np.max(np.abs(out - full)) <= bound
        assert abs(l2_norm(Field(g, out)) - _ghost_loop_remainder(k, f, 0.0)) <= bound

    def test_margin_too_large(self, grid_1d, kernel_1d):
        f = sample(grid_1d, lambda x: x)
        with pytest.raises(ValueError, match="half the domain"):
            interior_remainder(kernel_1d, f, margin=0.5)

    def test_periodic_rejected(self, kernel_1d):
        g = UniformGrid((1.0,), (128,), "periodic")
        f = random_field(g, 12)
        with pytest.raises(ValueError, match="bounded"):
            interior_remainder(kernel_1d, f, margin=0.05)

    @pytest.mark.parametrize("margin_factor", [0.0, 0.5])
    @pytest.mark.parametrize("eps", [0.4, 0.2, 0.1, 0.07])
    def test_2d_matches_wall_remainder_at_rate_sweep_reaches(self, eps, margin_factor):
        # the 2D remainder-rate ladder: reach 52 down to 9, far beyond the
        # 48-cell boxes of the ghost-loop references
        g = UniformGrid((1.0, 1.0), (128, 128), "neumann")
        k = make_kernel(2, eps)
        v = random_field(g, 34).values
        box = _interior_box(g, margin_factor * eps)
        walls = np.zeros(g.shape)
        nonlocal_ops.wall_remainder(k, g).subtract(v, walls)
        out = _ghost_remainder(_stencil_data(k, g), v, box)
        assert np.max(np.abs(out + walls[box])) <= 1e-13 * np.max(np.abs(out))

    @pytest.mark.parametrize("margin_factor", [0.0, 0.5])
    def test_2d_walk_keeps_one_reflected_row_of_temporaries(self, margin_factor):
        # at eps 0.4 on 128^2 (reach 52) a wall has up to 52 layers; the walk
        # may hold the padded field and a few blocks of one reflected row,
        # (2 reach + 1) x width, but nothing that grows with the layer count
        g = UniformGrid((1.0, 1.0), (128, 128), "neumann")
        data = _stencil_data(make_kernel(2, 0.4), g)
        v = random_field(g, 7).values
        box = _interior_box(g, margin_factor * 0.4)
        padded = np.prod([n + 2 * k for n, k in zip(g.cells, data.reach)]) * v.itemsize
        row = (2 * data.reach[1] + 1) * (box[1].stop - box[1].start) * v.itemsize
        tracemalloc.start()
        try:
            _ghost_remainder(data, v, box)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < padded + 10 * row

    @pytest.mark.parametrize("margin_factor", [0.0, 0.5])
    @pytest.mark.parametrize("cells, eps", [
        (1024, 0.2), (1024, 0.1), (1024, 0.05), (1024, 0.025), (4096, 0.2),
    ])
    def test_1d_matches_wall_remainder_at_rate_sweep_reaches(self, cells, eps, margin_factor):
        # the 1D remainder-rate ladder (reach 205 down to 26) and reach 820
        # at N=4096, eps 0.2
        g = UniformGrid((1.0,), (cells,), "neumann")
        k = make_kernel(1, eps)
        v = random_field(g, 35).values
        box = _interior_box(g, margin_factor * eps)
        walls = np.zeros(g.shape)
        nonlocal_ops.wall_remainder(k, g).subtract(v, walls)
        out = _ghost_remainder(_stencil_data(k, g), v, box)
        assert np.max(np.abs(out + walls[box])) <= 1e-13 * np.max(np.abs(out))

    def test_1d_sum_keeps_to_the_block_bound(self):
        # reach 820: the 1640 wall layers span 1640 x 1641 stencil offsets
        # (22 MB of doubles); the sum may hold the field and a few blocks
        g = UniformGrid((1.0,), (4096,), "neumann")
        data = _stencil_data(make_kernel(1, 0.2), g)
        v = random_field(g, 8).values
        tracemalloc.start()
        try:
            _ghost_remainder(data, v, (slice(0, 4096),))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < v.nbytes + 3 * nonlocal_ops._BLOCK_TERMS * v.itemsize

    def test_2d_zero_beyond_support(self):
        g = UniformGrid((1.0, 1.0), (48, 48), "neumann")
        k = make_kernel(2, 0.15)
        f = sample(g, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y))
        assert interior_remainder(k, f, margin=0.2) == 0.0
        assert interior_remainder(k, f, margin=0.075) > 0.0


class TestWallRemainder:
    @settings(max_examples=40, deadline=None)
    @given(**_BOXES)
    # reach below N / 2 on both axes, above it on both, and 128^2 at eps 0.1
    @example(cells=(40, 56), lengths=(1.0, 1.4), fraction=0.3, profile="poly-2-3", seed=1)
    @example(cells=(20, 24), lengths=(1.0, 1.5), fraction=0.8, profile="poly-4-3", seed=2)
    @example(cells=(128, 128), lengths=(1.0, 1.0), fraction=0.1, profile="poly-2-3", seed=3)
    def test_2d_strips_match_ghost_loop(self, cells, lengths, fraction, profile, seed):
        g, k = _box_and_kernel(2, cells, lengths, fraction, profile)
        v = np.random.default_rng(seed).standard_normal(g.shape)
        out = np.zeros(g.shape)
        nonlocal_ops.wall_remainder(k, g).subtract(v, out)
        full = _ghost_remainder(_stencil_data(k, g), v, tuple(slice(0, n) for n in cells))
        assert np.max(np.abs(out + full)) <= 1e-13 * np.max(np.abs(full))

    @settings(max_examples=40, deadline=None)
    @given(dimension=st.sampled_from([1, 2]), **_BOXES)
    @example(dimension=2, cells=(20, 24), lengths=(1.0, 1.5), fraction=0.8,
             profile="poly-2-3", seed=4)
    def test_reflected_minus_remainder_is_true_operator(self, dimension, cells, lengths,
                                                        fraction, profile, seed):
        g, k = _box_and_kernel(dimension, cells, lengths, fraction, profile)
        v = np.random.default_rng(seed).standard_normal(g.shape)
        out = inverse_transform_values(g, stencil_symbol(k, g) * transform_values(g, v))
        nonlocal_ops.wall_remainder(k, g).subtract(v, out)
        true = apply_fft_values(k, g, v)
        assert np.max(np.abs(out - true)) <= 1e-13 * np.max(np.abs(true))

    def test_along_wall_transforms_match_public_scipy_fft(self):
        # the (n, 2, reach) edge slabs go through pocketfft's private binding
        # along axis 0; each call must equal the public scipy.fft one
        g = UniformGrid((1.0, 1.0), (128, 128), "neumann")
        remainder = nonlocal_ops.wall_remainder(make_kernel(2, 0.1), g)
        calls = []

        def dct(x, kind, axes, *rest):
            calls.append((x.copy(), kind, axes, rest))
            return pypocketfft.dct(x, kind, axes, *rest)

        v = np.random.default_rng(9).standard_normal(g.shape)
        with mock.patch("nonloclab.grid.pypocketfft", mock.Mock(dct=dct)), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            remainder.subtract(v, np.zeros(g.shape))
        assert len(calls) == 4  # forward and inverse per wall axis
        assert calls[0][0].shape == (128, 2, 13)
        for x, kind, axes, rest in calls:
            assert axes == (0,)
            public = scipy.fft.dct if kind == 2 else scipy.fft.idct  # DCT-III inverts DCT-II
            assert np.array_equal(pypocketfft.dct(x, kind, axes, *rest),
                                  public(x, type=2, norm="ortho", axis=0))

    def test_needs_a_bounded_grid(self):
        with pytest.raises(ValueError, match="bounded"):
            nonlocal_ops.wall_remainder(make_kernel(2, 0.2),
                                        UniformGrid((1.0, 1.0), (32, 32), "periodic"))


def _reference_wall_matrices(ghost, totals):
    """The wall matrices ``[i, r, ...]`` from a distance table, a clamped
    gather and a mask: an independent construction of :func:`_wall_matrices`."""
    k = len(ghost)
    dist = np.add.outer(np.arange(k), np.arange(k))  # i + r, i.e. distance - 1
    inside = (dist < k).reshape(dist.shape + (1,) * (ghost.ndim - 1))
    strip = -np.where(inside, ghost[np.minimum(dist, k - 1)], 0.0)
    c = np.cumsum(totals[::-1])[::-1]
    strip[np.diag_indices(k)] += c.reshape(c.shape + (1,) * (ghost.ndim - 1))
    return strip


def _reference_wall_tables(data):
    """The strips, ``corner_diag`` and ``corner_hankel`` of a box, built with
    :func:`_reference_wall_matrices` and a zero-padded corner quadrant."""
    if data.grid.dimension == 1:
        (k,) = data.reach
        left = _reference_wall_matrices(data.weights[k - 1::-1], data.weights[k - 1::-1])
        return [left, left[::-1, ::-1].copy()]
    tables = []
    for a in range(2):
        k, kb, n = data.reach[a], data.reach[1 - a], data.grid.cells[1 - a]
        rows = np.moveaxis(data.weights, a, 0)[k - 1::-1]
        symbols = scipy.fft.rfft(nonlocal_ops._wrap_stencil(rows, (kb,), (2 * n,))).real[:, :n]
        strip = _reference_wall_matrices(symbols, rows.sum(axis=1))
        tables.append(np.ascontiguousarray(np.moveaxis(strip, -1, 0)))
    k0, k1 = data.reach
    quadrant = data.weights[k0 + 1:, k1 + 1:]
    tables.append(quadrant[::-1, ::-1].cumsum(axis=0).cumsum(axis=1)[::-1, ::-1].copy())
    padded = np.zeros((k0, 2 * k1 - 1))
    padded[:, :k1] = quadrant
    hankel = np.lib.stride_tricks.sliding_window_view(padded, k1, axis=1)  # [d, j, s]
    tables.append(np.ascontiguousarray(hankel.transpose(1, 0, 2)))
    return tables


class TestWallTablesKeepTheirBits:
    # the stepping paths read these tables, so their outputs keep their bits
    # only if every table does: shape, layout and bytes
    @pytest.mark.parametrize("lengths, cells, eps", [
        ((1.0,), (256,), 0.1), ((1.0,), (1024,), 0.2), ((1.0,), (16,), 1.0),
        ((1.0, 1.0), (128, 128), 0.1), ((1.0, 1.0), (128, 128), 0.4),
        ((0.7, 0.9), (24, 30), 0.3), ((1.0, 0.7), (36, 36), 0.15),
        ((1.0, 1.0), (16, 16), 1.0),
    ])
    def test_tables_equal_the_reference_construction(self, lengths, cells, eps):
        g = UniformGrid(lengths, cells, "neumann")
        k = make_kernel(g.dimension, eps)
        remainder = nonlocal_ops.wall_remainder(k, g)
        built = list(remainder.strips)
        if g.dimension == 2:
            built += [remainder.corner_diag, remainder.corner_hankel]
        reference = _reference_wall_tables(_stencil_data(k, g))
        assert len(built) == len(reference)
        for table, ref in zip(built, reference):
            assert table.shape == ref.shape
            assert table.flags.c_contiguous
            assert table.tobytes() == ref.tobytes()


class TestCachedTablesAreReadOnly:
    # every later call on a (kernel, grid) pair shares these arrays, so a
    # write into one would silently change every later step on that pair
    @pytest.mark.parametrize("lengths, cells, boundary", [
        ((1.0,), (64,), "neumann"),
        ((1.0, 1.5), (24, 32), "neumann"),
        ((1.0,), (64,), "periodic"),
        ((1.0, 1.0), (24, 24), "periodic"),
    ])
    def test_a_write_into_any_cached_table_raises(self, lengths, cells, boundary):
        g = UniformGrid(lengths, cells, boundary)
        k = make_kernel(g.dimension, 0.2)
        data = _stencil_data(k, g)
        tables = {"weights": data.weights, "kernel_hat": data.kernel_hat,
                  "degree": data.degree, "symbol": data.symbol}
        if boundary == "neumann":
            remainder = nonlocal_ops.wall_remainder(k, g)
            tables.update({f"strips[{i}]": s for i, s in enumerate(remainder.strips)})
            if g.dimension == 2:
                tables["corner_diag"] = remainder.corner_diag
                tables["corner_hankel"] = remainder.corner_hankel
        accepted = []
        for name, table in tables.items():
            corner = (0,) * table.ndim
            try:
                table[corner] = table[corner]  # the same value: harmless if it goes through
            except ValueError as exc:
                assert "read-only" in str(exc)
            else:
                accepted.append(name)
        assert accepted == []
        # callers of stencil_symbol still get a writable copy
        stencil_symbol(k, g)[(0,) * g.dimension] = -1.0
