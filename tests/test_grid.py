import math
import struct
import warnings

import numpy as np
import pytest
import scipy.fft
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nonloclab.grid import (
    Field,
    UniformGrid,
    hminus1_norm,
    integrate,
    inverse_transform_values,
    l2_norm,
    laplacian_symbol,
    load_field,
    lp_norm,
    sample,
    save_field,
    sobolev_norm,
    transform_values,
)


@pytest.fixture
def neumann_grid():
    return UniformGrid((1.0,), (256,), "neumann")


class TestGridBasics:
    def test_cell_centers(self):
        g = UniformGrid((1.0,), (4,))
        f = sample(g, lambda x: x)
        assert np.array_equal(f.values, [0.125, 0.375, 0.625, 0.875])

    def test_constant_sample(self, neumann_grid):
        f = sample(neumann_grid, lambda x: np.ones_like(x))
        assert np.all(f.values == 1.0)

    def test_cosine_has_zero_mean(self, neumann_grid):
        f = sample(neumann_grid, lambda x: np.cos(np.pi * x))
        assert abs(integrate(f)) < 1e-13

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformGrid((1.0,), (0,))
        with pytest.raises(ValueError):
            UniformGrid((-1.0,), (8,))
        for bad_length in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                UniformGrid((1.0, bad_length), (8, 8))
        with pytest.raises(ValueError):
            UniformGrid((1.0, 1.0, 1.0), (4, 4, 4))
        with pytest.raises(ValueError):
            UniformGrid((1.0,), (8,), "dirichlet")
        with pytest.raises(ValueError):
            UniformGrid((1.0, 2.0), (4,))

    def test_field_validation(self, neumann_grid):
        with pytest.raises(ValueError):
            Field(neumann_grid, np.zeros(7))
        bad = np.zeros(neumann_grid.shape)
        bad[3] = np.inf
        with pytest.raises(ValueError):
            Field(neumann_grid, bad)

    def test_field_arithmetic_requires_same_grid(self, neumann_grid):
        other = UniformGrid((1.0,), (128,), "neumann")
        f = sample(neumann_grid, lambda x: x)
        g = sample(other, lambda x: x)
        with pytest.raises(ValueError):
            f + g


class TestNorms:
    def test_constant_norms(self):
        g = UniformGrid((1.0,), (64,))
        one = sample(g, lambda x: np.ones_like(x))
        assert integrate(one) == pytest.approx(1.0, rel=1e-14)
        assert l2_norm(one) == pytest.approx(1.0, rel=1e-14)

    def test_cosine_l2(self, neumann_grid):
        f = sample(neumann_grid, lambda x: np.cos(np.pi * x))
        assert l2_norm(f) == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_lp_equals_l2_at_two(self, neumann_grid):
        rng = np.random.default_rng(3)
        f = Field(neumann_grid, rng.standard_normal(neumann_grid.shape))
        assert lp_norm(f, 2) == pytest.approx(l2_norm(f), rel=1e-15)

    def test_lp_rejects_small_p(self, neumann_grid):
        f = sample(neumann_grid, lambda x: x)
        with pytest.raises(ValueError):
            lp_norm(f, 0.5)

    @pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan])
    def test_lp_rejects_non_finite_p(self, neumann_grid, p):
        f = sample(neumann_grid, lambda x: np.cos(np.pi * x))
        with pytest.raises(ValueError, match="finite"):
            lp_norm(f, p)

    def test_midpoint_rule_is_second_order(self):
        exact = math.e - 1.0
        errors = []
        for n in (16, 32, 64, 128):
            g = UniformGrid((1.0,), (n,))
            errors.append(abs(integrate(sample(g, np.exp)) - exact))
        rates = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert all(abs(r - 2.0) < 0.05 for r in rates)


class TestSobolevNorms:
    @pytest.mark.parametrize("boundary", ["neumann", "periodic"])
    def test_parseval(self, boundary):
        g = UniformGrid((1.0,), (128,), boundary)
        rng = np.random.default_rng(7)
        f = Field(g, rng.standard_normal(g.shape))
        assert sobolev_norm(f, 0.0) == pytest.approx(l2_norm(f), abs=1e-12)

    def test_single_mode_negative_order(self, neumann_grid):
        # one eigenmode: the norm is the plain norm times the analytic weight
        f = sample(neumann_grid, lambda x: np.cos(np.pi * x))
        expected = (1 + math.pi**2) ** -0.5 / math.sqrt(2)
        assert sobolev_norm(f, -1.0) == pytest.approx(expected, rel=1e-12)

    def test_second_order_matches_laplacian_combination(self, neumann_grid):
        from nonloclab.local_ops import dirichlet_energy, laplacian

        f = sample(neumann_grid, lambda x: np.cos(np.pi * x) + 0.3 * np.cos(3 * np.pi * x))
        lap = laplacian(f)
        combo = l2_norm(f) ** 2 + 4 * dirichlet_energy(f) + l2_norm(lap) ** 2
        assert sobolev_norm(f, 2.0) ** 2 == pytest.approx(combo, rel=1e-11)

    def test_norm_ordering(self, neumann_grid):
        rng = np.random.default_rng(11)
        f = Field(neumann_grid, rng.standard_normal(neumann_grid.shape))
        orders = [-1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]
        values = [sobolev_norm(f, s) for s in orders]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(values, values[1:]))

    def test_range_check(self, neumann_grid):
        f = sample(neumann_grid, lambda x: x)
        with pytest.raises(ValueError):
            sobolev_norm(f, 3.5)
        with pytest.raises(ValueError):
            sobolev_norm(f, -1.2)


class TestDualNorm:
    def test_cosine_oracle(self, neumann_grid):
        # solving the zero-flux problem for one cosine mode divides by pi^2,
        # and the gradient brings one power back
        f = sample(neumann_grid, lambda x: np.cos(np.pi * x))
        assert hminus1_norm(f) == pytest.approx(1 / (math.pi * math.sqrt(2)), rel=1e-12)

    def test_zero_field(self, neumann_grid):
        assert hminus1_norm(Field(neumann_grid, np.zeros(neumann_grid.shape))) == 0.0

    def test_homogeneity(self, neumann_grid):
        rng = np.random.default_rng(5)
        f = Field(neumann_grid, rng.standard_normal(neumann_grid.shape))
        assert hminus1_norm(2.0 * f) == pytest.approx(2.0 * hminus1_norm(f), rel=1e-12)

    def test_mean_handled_additively(self):
        g = UniformGrid((2.0,), (64,))
        const = Field(g, np.full(g.shape, 0.3))
        assert hminus1_norm(const) == pytest.approx(0.3 * math.sqrt(2.0), rel=1e-12)

    def test_periodic_single_mode_oracle(self):
        g = UniformGrid((1.0,), (128,), "periodic")
        f = sample(g, lambda x: np.cos(2 * np.pi * x))
        assert hminus1_norm(f) == pytest.approx(1 / (2 * math.pi * math.sqrt(2)), rel=1e-12)

    def test_2d_single_mode_sobolev(self):
        g = UniformGrid((1.0, 1.0), (64, 64), "neumann")
        f = sample(g, lambda x, y: np.cos(np.pi * x) * np.cos(2 * np.pi * y))
        lam = math.pi**2 + 4 * math.pi**2
        assert sobolev_norm(f, -1.0) == pytest.approx((1 + lam) ** -0.5 * 0.5, rel=1e-12)


def _grids():
    """Small random 1D and 2D grids with either boundary."""
    cells = st.integers(1, 12)
    lengths = st.floats(0.1, 10.0)
    return st.integers(1, 2).flatmap(lambda d: st.builds(
        UniformGrid,
        st.tuples(*[lengths] * d),
        st.tuples(*[cells] * d),
        st.sampled_from(["neumann", "periodic"]),
    ))


class TestTransformLayer:
    @pytest.mark.parametrize("lengths, cells", [((1.0,), (65,)), ((1.0, 1.5), (12, 20))])
    @pytest.mark.parametrize("boundary", ["neumann", "periodic"])
    def test_leading_axis_passes_through(self, lengths, cells, boundary):
        g = UniformGrid(lengths, cells, boundary)
        stack = np.random.default_rng(4).standard_normal((3, *g.shape))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coeffs = transform_values(g, stack)
            back = inverse_transform_values(g, coeffs)
            for row, c, b in zip(stack, coeffs, back):
                assert np.array_equal(transform_values(g, row), c)
                assert np.array_equal(inverse_transform_values(g, c), b)
        assert np.allclose(back, stack, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("shape", [(64,), (3, 64), (2, 1000)])
    def test_1d_neumann_matches_scipy_fft(self, shape):
        # the cosine transform calls pocketfft's binding directly; any
        # warning on the way (a deprecation, say) fails here
        g = UniformGrid((1.0,), shape[-1:], "neumann")
        x = np.random.default_rng(5).standard_normal(shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            forward = transform_values(g, x)
            inverse = inverse_transform_values(g, x)
        assert np.array_equal(forward, scipy.fft.dctn(x, type=2, norm="ortho", axes=-1))
        assert np.array_equal(inverse, scipy.fft.idctn(x, type=2, norm="ortho", axes=-1))

    # every layout the package transforms: 1D and 2D, with and without a
    # leading member axis, odd and even sizes
    @pytest.mark.parametrize("shape, dimension", [
        ((64,), 1), ((49,), 1), ((3, 64), 1), ((2, 49), 1),
        ((12, 20), 2), ((13, 9), 2), ((3, 12, 20), 2), ((2, 13, 9), 2),
    ])
    @pytest.mark.parametrize("boundary", ["neumann", "periodic"])
    def test_matches_public_scipy_fft(self, shape, dimension, boundary):
        # the transforms call pocketfft's private binding; a scipy release
        # that moves or changes it fails here, warnings included
        cells = shape[-dimension:]
        g = UniformGrid((1.0,) * dimension, cells, boundary)
        axes = tuple(range(-dimension, 0))
        x = np.random.default_rng(7).standard_normal(shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            forward = transform_values(g, x)
            if boundary == "neumann":
                inverse = inverse_transform_values(g, x)
                expected = (scipy.fft.dctn(x, type=2, norm="ortho", axes=axes),
                            scipy.fft.idctn(x, type=2, norm="ortho", axes=axes))
            else:
                inverse = inverse_transform_values(g, forward)
                expected = (scipy.fft.rfftn(x, norm="ortho", axes=axes),
                            scipy.fft.irfftn(forward, s=cells, norm="ortho", axes=axes))
        assert np.array_equal(forward, expected[0])
        assert np.array_equal(inverse, expected[1])

    @pytest.mark.parametrize("boundary", ["neumann", "periodic"])
    def test_list_and_strided_inputs(self, boundary):
        g = UniformGrid((1.0,), (10,), boundary)
        rows = np.random.default_rng(8).standard_normal((10, 3))
        strided = np.moveaxis(rows, 0, -1)  # (3, 10), not C-contiguous
        assert not strided.flags.c_contiguous
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(transform_values(g, strided),
                                  transform_values(g, np.ascontiguousarray(strided)))
            assert np.array_equal(transform_values(g, rows[:, 0].tolist()),
                                  transform_values(g, rows[:, 0]))
            coeffs = transform_values(g, rows[:, 0])
            assert np.array_equal(inverse_transform_values(g, coeffs.tolist()),
                                  inverse_transform_values(g, coeffs))

    @pytest.mark.parametrize("cells", [48, 49])
    def test_1d_periodic_matches_rfft(self, cells):
        # the half spectrum of the real transform: N // 2 + 1 coefficients
        g = UniformGrid((1.0,), (cells,), "periodic")
        x = np.random.default_rng(6).standard_normal(cells)
        coeffs = transform_values(g, x)
        assert coeffs.shape == (cells // 2 + 1,)
        assert np.array_equal(coeffs, scipy.fft.rfft(x, norm="ortho"))
        assert np.array_equal(inverse_transform_values(g, coeffs),
                              scipy.fft.irfft(coeffs, n=cells, norm="ortho"))


class TestLaplacianSymbol:
    @staticmethod
    def _axis_terms(boundary, N, L, last):
        if boundary == "neumann":
            return (np.pi * np.arange(N) / L) ** 2
        # wavenumbers in transform order: the half spectrum on the last axis,
        # 0, 1, ..., then the negative ones on the others
        k = np.arange(N // 2 + 1) if last else np.r_[0:(N + 1) // 2, -(N // 2):0]
        return (2.0 * np.pi * k / L) ** 2

    # power-of-two lengths, so the transform's frequency k / (N h) rounds
    # exactly like k / L and the terms match bit for bit
    @pytest.mark.parametrize("lengths, cells", [((2.0,), (16,)), ((0.5,), (9,)),
                                                ((1.0, 2.0), (8, 16)), ((2.0, 1.0), (7, 12))])
    @pytest.mark.parametrize("boundary", ["neumann", "periodic"])
    def test_sum_of_per_axis_terms(self, lengths, cells, boundary):
        g = UniformGrid(lengths, cells, boundary)
        assert all(N * (L / N) == L for N, L in zip(cells, lengths))
        terms = [self._axis_terms(boundary, N, L, a == len(cells) - 1)
                 for a, (N, L) in enumerate(zip(cells, lengths))]
        expected = terms[0] if len(terms) == 1 else np.add.outer(*terms)
        assert np.array_equal(laplacian_symbol(g), expected)


class TestSerialization:
    def test_binary_roundtrip(self, tmp_path):
        g = UniformGrid((1.0, 2.0), (16, 32), "periodic")
        rng = np.random.default_rng(1)
        f = Field(g, rng.standard_normal(g.shape))
        path = tmp_path / "field.bin"
        save_field(f, path)
        back = load_field(path)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)

    def test_binary_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            load_field(path)

    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda b: b[:4] + b[4:5] + b"\x07" + b[6:], id="unknown-boundary-code"),
        pytest.param(lambda b: b[:12], id="short-header"),
        pytest.param(lambda b: b[:-8], id="truncated-payload"),
        pytest.param(lambda b: b + b"\0" * 8, id="trailing-bytes"),
        pytest.param(lambda b: b[:15] + struct.pack("<d", math.nan) + b[23:], id="nan-length"),
        pytest.param(lambda b: b[:15] + struct.pack("<d", math.inf) + b[23:], id="inf-length"),
    ])
    def test_binary_rejects_corrupt_file(self, tmp_path, corrupt):
        path = tmp_path / "field.bin"
        save_field(Field(UniformGrid((1.0,), (8,)), np.arange(8.0)), path)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(ValueError, match="checkpoint"):
            load_field(path)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(grid=_grids(), seed=st.integers(0, 2**32 - 1))
    def test_binary_roundtrip_property(self, tmp_path, grid, seed):
        f = Field(grid, np.random.default_rng(seed).standard_normal(grid.shape))
        path = tmp_path / "field.bin"
        save_field(f, path)
        back = load_field(path)
        assert back.grid == grid
        assert np.array_equal(back.values, f.values)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(grid=_grids(), data=st.data())
    def test_damaged_checkpoint_raises_only_value_error(self, tmp_path, grid, data):
        path = tmp_path / "field.bin"
        save_field(Field(grid, np.linspace(-1.0, 1.0, grid.node_count).reshape(grid.shape)),
                   path)
        raw = bytearray(path.read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="keep")]
        else:
            where = data.draw(st.integers(0, len(raw) - 1), label="offset")
            raw[where] ^= data.draw(st.integers(1, 255), label="mask")
        path.write_bytes(bytes(raw))
        try:
            back = load_field(path)
        except ValueError:
            return
        # a flip the format cannot detect still yields a valid field
        assert all(math.isfinite(L) and L > 0 for L in back.grid.lengths)
        assert np.all(np.isfinite(back.values))
