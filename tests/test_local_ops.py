import math

import numpy as np
import pytest
import scipy.fft

from nonloclab.grid import (
    Field,
    UniformGrid,
    hminus1_norm,
    integrate,
    l2_norm,
    sample,
    sobolev_norm,
)
from nonloclab.local_ops import dirichlet_energy, inv_neumann_laplacian, laplacian
from nonloclab.nonlocal_ops import l2_inner


def rayleigh(field, op_field):
    return l2_inner(op_field, field) / l2_inner(field, field)


class TestLaplacian:
    def test_constant_maps_to_zero(self):
        g = UniformGrid((1.0,), (64,))
        f = Field(g, np.full(g.shape, 2.5))
        assert np.max(np.abs(laplacian(f).values)) < 1e-12

    def test_neumann_eigenpair(self):
        g = UniformGrid((1.0,), (256,), "neumann")
        f = sample(g, lambda x: np.cos(np.pi * x))
        lam = -rayleigh(f, laplacian(f))
        assert lam == pytest.approx(math.pi**2, rel=1e-12)

    def test_periodic_eigenpair(self):
        g = UniformGrid((1.0,), (128,), "periodic")
        f = sample(g, lambda x: np.sin(2 * np.pi * x))
        lam = -rayleigh(f, laplacian(f))
        assert lam == pytest.approx(4 * math.pi**2, rel=1e-12)

    def test_2d_eigenpair(self):
        g = UniformGrid((1.0, 2.0), (32, 64), "neumann")
        f = sample(g, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y / 2))
        lam = -rayleigh(f, laplacian(f))
        assert lam == pytest.approx(math.pi**2 + (math.pi / 2) ** 2, rel=1e-12)

    @pytest.mark.parametrize("boundary", ["neumann", "periodic"])
    def test_self_adjoint_and_nonpositive(self, boundary):
        g = UniformGrid((1.0,), (128,), boundary)
        rng = np.random.default_rng(17)
        for _ in range(5):
            u = Field(g, rng.standard_normal(g.shape))
            v = Field(g, rng.standard_normal(g.shape))
            lu, lv = laplacian(u), laplacian(v)
            assert l2_inner(lu, v) == pytest.approx(l2_inner(u, lv), abs=1e-10)
            assert l2_inner(lu, u) <= 1e-12


class TestInverse:
    def test_eigen_oracle(self):
        g = UniformGrid((1.0,), (256,), "neumann")
        f = sample(g, lambda x: np.cos(np.pi * x))
        v = inv_neumann_laplacian(f)
        assert np.max(np.abs(v.values - f.values / math.pi**2)) < 1e-14

    def test_zero_field(self):
        g = UniformGrid((1.0,), (64,))
        out = inv_neumann_laplacian(Field(g, np.zeros(g.shape)))
        assert np.all(out.values == 0.0)

    def test_roundtrip_on_mean_zero(self):
        g = UniformGrid((1.0,), (128,), "neumann")
        rng = np.random.default_rng(23)
        vals = rng.standard_normal(g.shape)
        vals -= vals.mean()
        f = Field(g, vals)
        back = inv_neumann_laplacian(-1.0 * laplacian(f))
        assert l2_norm(back - f) <= 1e-10 * l2_norm(f)

    def test_rejects_nonzero_mean(self):
        g = UniformGrid((1.0,), (64,))
        with pytest.raises(ValueError, match="mean"):
            inv_neumann_laplacian(Field(g, np.full(g.shape, 0.1)))

    def test_output_mean_zero(self):
        g = UniformGrid((1.0,), (128,), "neumann")
        f = sample(g, lambda x: np.cos(2 * np.pi * x))
        assert abs(integrate(inv_neumann_laplacian(f))) < 1e-14


class TestDirichletEnergy:
    def test_constant(self):
        g = UniformGrid((1.0,), (64,))
        assert dirichlet_energy(Field(g, np.full(g.shape, 3.0))) < 1e-14

    def test_cosine_value(self):
        g = UniformGrid((1.0,), (256,), "neumann")
        f = sample(g, lambda x: np.cos(np.pi * x))
        assert dirichlet_energy(f) == pytest.approx(math.pi**2 / 4, rel=1e-12)

    def test_additive_over_orthogonal_modes(self):
        g = UniformGrid((1.0,), (256,), "neumann")
        f1 = sample(g, lambda x: np.cos(np.pi * x))
        f2 = sample(g, lambda x: 0.5 * np.cos(4 * np.pi * x))
        total = dirichlet_energy(f1 + f2)
        assert total == pytest.approx(dirichlet_energy(f1) + dirichlet_energy(f2), rel=1e-12)


def _full_spectrum(field):
    """Complex-spectrum coefficients and Laplacian symbol of a periodic field,
    over every mode: the formulas the half-spectrum layout must reproduce."""
    g = field.grid
    coeffs = scipy.fft.fftn(field.values, norm="ortho")
    per_axis = [(2 * np.pi * scipy.fft.fftfreq(N, d=L / N)) ** 2
                for N, L in zip(g.cells, g.lengths)]
    lam = per_axis[0] if g.dimension == 1 else per_axis[0][:, None] + per_axis[1][None, :]
    return coeffs, lam


class TestHalfSpectrum:
    """Periodic grids keep the half spectrum of the real transform; every
    quadratic sum weights its columns by their Hermitian multiplicity."""

    @pytest.mark.parametrize("lengths, cells", [
        ((1.0,), (48,)), ((1.3,), (49,)),
        ((1.0, 1.5), (24, 20)), ((1.0, 0.7), (17, 23)), ((2.0, 1.0), (16, 15)),
    ])
    def test_norms_and_operators_match_full_spectrum(self, lengths, cells):
        g = UniformGrid(lengths, cells, "periodic")
        rng = np.random.default_rng(sum(cells))
        f = Field(g, rng.standard_normal(g.shape) + 0.4)
        coeffs, lam = _full_spectrum(f)
        vol = g.cell_volume
        power = np.abs(coeffs) ** 2

        def close(value, expected):
            return abs(value - expected) <= 1e-13 * abs(expected)

        for s in (-1.0, -0.5, 0.0, 1.0, 3.0):
            assert close(sobolev_norm(f, s), math.sqrt(np.sum((1 + lam) ** s * power) * vol))
        nonzero = lam > 0
        mean = integrate(f) / g.volume
        assert close(hminus1_norm(f), math.sqrt(np.sum(power[nonzero] / lam[nonzero]) * vol)
                     + abs(mean) * math.sqrt(g.volume))
        assert close(dirichlet_energy(f), 0.5 * np.sum(lam * power) * vol)

        def field_close(out, expected):
            return np.max(np.abs(out.values - expected)) <= 1e-13 * np.max(np.abs(expected))

        assert field_close(laplacian(f), scipy.fft.ifftn(-lam * coeffs, norm="ortho").real)
        zero_mean = Field(g, f.values - f.values.mean())
        coeffs, _ = _full_spectrum(zero_mean)
        inverse = np.where(nonzero, coeffs / np.where(nonzero, lam, 1.0), 0.0)
        assert field_close(inv_neumann_laplacian(zero_mean),
                           scipy.fft.ifftn(inverse, norm="ortho").real)
