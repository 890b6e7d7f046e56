import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from nonloclab import kernels, nonlocal_ops
from nonloclab.grid import UniformGrid
from nonloclab.kernels import (
    PROFILES,
    Kernel,
    PolyBump,
    adaptive_gauss_legendre,
    eval_J,
    fourier_symbol,
    make_kernel,
    make_mollifier,
    moment_first,
    moment_first_absolute,
    moment_second_trace,
    radial_mass,
    radial_mass_target,
    second_moment_per_axis,
    total_mass,
)


def poly_moment_exact(p, q, extra):
    """Exact integral of r^p (1 - r^2)^q r^extra over (0, 1), by expansion."""
    total = Fraction(0)
    for j in range(q + 1):
        coeff = Fraction(math.comb(q, j)) * (-1) ** j
        power = p + 2 * j + extra
        total += coeff / (power + 1)
    return total


class TestNormalization:
    def test_exact_constant_1d(self):
        # oracle: exact polynomial integration of the raw profile moment
        moment = poly_moment_exact(2, 3, extra=0)
        assert moment == Fraction(16, 315)
        expected = Fraction(1) / moment  # 1D target is 2/C_1 = 1
        moll = make_mollifier(1, "poly-2-3")
        assert moll.norm_constant == pytest.approx(float(expected), rel=1e-10)

    def test_exact_constant_2d(self):
        moment = poly_moment_exact(2, 3, extra=1)
        assert moment == Fraction(1, 40)
        expected = (2.0 / math.pi) / float(moment)  # target 2/C_2 with C_2 = pi
        moll = make_mollifier(2, "poly-2-3")
        assert moll.norm_constant == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("eps", [1.0, 0.3, 0.05])
    def test_scale_invariance(self, n, eps):
        # independent quadrature oracle for the radial mass at every scale,
        # from the raw profile rather than the kernel's own evaluator
        moll = make_mollifier(n)
        val, err = scipy.integrate.quad(
            lambda r: moll.norm_constant * eps**-n * moll.profile.raw(r / eps) * r ** (n - 1),
            0.0, eps,
        )
        assert val == pytest.approx(radial_mass_target(n), rel=1e-10)
        assert radial_mass(Kernel(moll, eps)) == pytest.approx(val, rel=1e-12)

    @pytest.mark.parametrize("name", ["poly-2-3", "poly-4-3", "poly-2-2"])
    def test_alternative_profiles_normalize(self, name):
        moll = make_mollifier(1, name)
        val, _ = scipy.integrate.quad(lambda r: moll.norm_constant * moll.profile.raw(r), 0.0, 1.0)
        assert val == pytest.approx(radial_mass_target(1), rel=1e-10)

    def test_profile_shape_invariants(self):
        moll = make_mollifier(1)
        r = np.linspace(-2, 2, 401)
        raw = moll.profile.raw
        assert np.array_equal(raw(r), raw(-r))  # evenness
        assert np.all(raw(r) >= 0)
        assert np.all(raw(r[np.abs(r) >= 1.0]) == 0.0)  # compact support

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            make_mollifier(3)
        with pytest.raises(ValueError):
            make_mollifier(1, "no-such-profile")
        with pytest.raises(ValueError):
            Kernel(make_mollifier(1), epsilon=0.0)

    @pytest.mark.parametrize("eps", [float("inf"), float("nan")])
    def test_rejects_non_finite_scale(self, eps):
        with pytest.raises(ValueError, match="epsilon must be finite"):
            Kernel(make_mollifier(1), epsilon=eps)

    # 3e-103 and 1e-77 leave eps**(-n - 2) finite but not its product with the
    # normalization constant, about 19.7 in 1D and 25.5 in 2D
    @pytest.mark.parametrize("n, eps", [(1, 1e-300), (2, 1e-160), (2, 1e-100),
                                        (1, 3e-103), (2, 1e-77)])
    def test_rejects_scale_whose_kernel_value_overflows(self, n, eps):
        # the kernel's value scale is c * eps**(-n - 2), beyond the float range here
        with pytest.raises(ValueError, match=f"eps = {eps:g}"):
            Kernel(make_mollifier(n), epsilon=eps)

    # the kernel's value scale c * eps**(-n - 2) is subnormal at (1, 1e105)
    # and rounds to zero at the others, where the kernel would vanish
    @pytest.mark.parametrize("n, eps", [(1, 1e105), (2, 1e90), (1, 1e120), (1, 1e160)])
    def test_rejects_scale_whose_kernel_value_underflows(self, n, eps):
        with pytest.raises(ValueError, match=re.escape(f"eps = {eps:g} is too large")):
            Kernel(make_mollifier(n), epsilon=eps)

    @pytest.mark.parametrize("n, eps", [(1, 1e-100), (2, 1e-75)])
    def test_tiny_scale_within_range_is_accepted(self, n, eps):
        k = Kernel(make_mollifier(n), epsilon=eps)
        assert math.isfinite(float(k.value_radial(0.5 * eps)))


class TestProfiles:
    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_raw_is_r_squared_times_quotient(self, name):
        bump = PROFILES[name]
        r = np.linspace(0.0, 1.0, 1001)
        np.testing.assert_allclose(bump.raw(r), r * r * bump.quotient(r), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_exact_zeros_from_the_support_radius_on(self, name):
        bump = PROFILES[name]
        r = np.array([1.0, np.nextafter(1.0, 2.0), 1.5, 10.0, -1.0, -3.0])
        assert np.all(bump.raw(r) == 0.0)
        assert np.all(bump.quotient(r) == 0.0)

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_quotient_finite_at_origin(self, name):
        assert np.isfinite(PROFILES[name].quotient(0.0))

    @pytest.mark.parametrize("p, q, field", [
        (2.0, 3, "p"), (2, 3.0, "q"), (True, 3, "p"), (2, True, "q"), (1, 3, "p"),
        (0, 3, "p"), (2, -1, "q"), (2, 1.5, "q"), (2, "3", "q"), (2, None, "q"),
    ])
    def test_rejects_parameters_that_are_not_integers_in_range(self, p, q, field):
        with pytest.raises(ValueError, match=f"profile {field} must be an integer"):
            PolyBump("bad", p, q)

    def test_accepts_numpy_integers(self):
        bump = PolyBump("np", np.int64(4), np.int32(3))
        assert bump.raw(0.5) == PROFILES["poly-4-3"].raw(0.5)

    def test_zero_edge_power_is_one_inside_the_support(self):
        bump = PolyBump("poly-2-0", 2, 0)
        r = np.array([-0.999, -0.5, 0.0, 0.25, np.nextafter(1.0, 0.0), 1.0, 1.5, np.inf])
        inside = np.abs(r) < 1.0
        assert np.array_equal(bump.quotient(r), np.where(inside, 1.0, 0.0))
        assert np.array_equal(bump.raw(r), np.where(inside, r * r, 0.0))

    @settings(max_examples=300, deadline=None)
    @given(
        r=st.one_of(st.floats(-2.0, 2.0),
                    st.sampled_from([0.0, 1.0, -1.0, np.nextafter(1.0, 0.0),
                                     np.nextafter(1.0, 2.0), -np.nextafter(1.0, 0.0),
                                     math.inf, -math.inf])),
        p=st.sampled_from([2, 3, 4]),
        q=st.integers(0, 4),
    )
    def test_products_match_the_power_form(self, r, p, q):
        # raw and quotient by products against np.power of the same factors
        bump = PolyBump("probe", p, q)
        x = np.array([r, -r])
        for k, value in ((p, bump.raw(x)), (p - 2, bump.quotient(x))):
            a = np.abs(x)
            expected = np.where(a < 1.0, a**k * (1.0 - x**2) ** q, 0.0)
            if q <= 2:
                assert np.array_equal(value, expected)
            else:
                assert np.all(np.abs(value - expected) <= 4 * np.spacing(expected))
            assert value[0] == value[1] and value[0] >= 0.0
            if not abs(r) < 1.0:
                assert value[0] == 0.0

    def test_equal_kernels_share_one_stencil_cache_entry(self):
        # the stencil cache keys on the kernel, so rebuilt profiles must compare equal
        a = Kernel(make_mollifier(2, "poly-4-3"), 0.2)
        b = Kernel(make_mollifier(2, "poly-4-3"), 0.2)
        assert a == b and hash(a) == hash(b)
        g = UniformGrid((1.0, 1.0), (16, 16), "neumann")
        nonlocal_ops._stencil_data.cache_clear()
        try:
            nonlocal_ops._stencil_data(a, g)
            nonlocal_ops._stencil_data(b, g)
            info = nonlocal_ops._stencil_data.cache_info()
            assert (info.misses, info.hits) == (1, 1)
        finally:
            nonlocal_ops._stencil_data.cache_clear()


class TestPointEvaluation:
    def test_compact_support(self):
        k = make_kernel(1, 0.1)
        assert eval_J(k, 0.1) == 0.0
        assert eval_J(k, 0.25) == 0.0
        k2 = make_kernel(2, 0.1)
        assert eval_J(k2, (0.08, 0.08)) == 0.0

    def test_value_at_origin_is_finite_limit(self):
        # quotient limit of the default profile at zero radius is one
        for n, eps in [(1, 1.0), (1, 0.2), (2, 0.5)]:
            k = make_kernel(n, eps)
            expected = k.mollifier.norm_constant * eps ** (-n - 2)
            assert eval_J(k, np.zeros(n)) == pytest.approx(expected, rel=1e-12)

    def test_direct_substitution(self):
        k = make_kernel(1, 1.0)
        expected = k.mollifier.norm_constant * (1 - 0.25) ** 3
        assert eval_J(k, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eval_J(make_kernel(1, 0.1), (0.1, 0.1))


class TestMoments:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("eps", [0.5, 0.1])
    def test_first_moments_vanish(self, n, eps):
        k = make_kernel(n, eps)
        for axis in range(n):
            assert abs(moment_first(k, axis)) <= 1e-10

    @pytest.mark.parametrize("n, eps", [(1, 0.1), (2, 0.3)])
    def test_absolute_first_moment_matches_scipy(self, n, eps):
        k = make_kernel(n, eps)
        s = k.support_radius
        if n == 1:
            ref, _ = scipy.integrate.quad(lambda x: eval_J(k, x) * abs(x), -s, s,
                                          epsabs=0.0, epsrel=1e-12)
        else:
            # over the support disk, so no inner integral meets its edge
            half_chord = lambda x: math.sqrt(max(s * s - x * x, 0.0))
            ref, _ = scipy.integrate.dblquad(lambda y, x: eval_J(k, (x, y)) * abs(x),
                                             -s, s, lambda x: -half_chord(x), half_chord,
                                             epsabs=0.0, epsrel=1e-11)
        assert moment_first_absolute(k) == pytest.approx(ref, rel=1e-8)
        # it grows like 1/eps
        assert moment_first_absolute(make_kernel(n, eps / 10)) == pytest.approx(
            10 * moment_first_absolute(k), rel=1e-10)

    def test_half_support_is_positive(self):
        # anti-test: integrating over x > 0 only must NOT cancel
        k = make_kernel(1, 0.1)
        val, _ = scipy.integrate.quad(lambda x: eval_J(k, x) * x, 0.0, 0.1)
        assert val > 1.0

    @pytest.mark.parametrize("n,eps", [(1, 0.1), (1, 0.03), (2, 0.2), (2, 0.05)])
    def test_second_moment_trace_equals_dimension(self, n, eps):
        k = make_kernel(n, eps)
        assert moment_second_trace(k) == pytest.approx(n, abs=1e-8)
        assert second_moment_per_axis(k) == pytest.approx(2.0, abs=1e-8)

    def test_second_moment_2d_independent_oracle(self):
        # per-axis second moment via scipy double quadrature
        k = make_kernel(2, 0.3)

        def integrand(y, x):
            return eval_J(k, (x, y)) * x * x

        # over the support disk, so no inner integral meets its edge
        half_chord = lambda x: math.sqrt(max(0.3 * 0.3 - x * x, 0.0))
        val, _ = scipy.integrate.dblquad(integrand, -0.3, 0.3, lambda x: -half_chord(x),
                                         half_chord, epsabs=1e-11, epsrel=1e-11)
        assert val == pytest.approx(2.0, abs=1e-6)

    def test_unnormalized_profile_breaks_identity(self):
        # anti-test: forcing the scale factor to one shifts every moment
        k = Kernel(replace(make_mollifier(1), norm_constant=1.0), 0.1)
        assert abs(moment_second_trace(k) - 1.0) > 0.5

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            moment_first(make_kernel(1, 0.1), axis=1)


class TestFourierSymbol:
    @pytest.mark.parametrize("xi", [(math.nan,), (math.inf,), (1e300,), (-math.inf, 1.0),
                                    (1e200, 1e200)])
    def test_rejects_non_finite_frequency(self, xi):
        # (1e300,) and (1e200, 1e200) are finite, but |xi| overflows
        with pytest.raises(ValueError, match="frequency") as info:
            fourier_symbol(make_kernel(len(xi), 0.1), xi)
        assert str(xi[0]) in str(info.value)

    def test_rejects_a_stack_with_a_non_finite_row(self):
        with pytest.raises(ValueError, match="must be finite"):
            fourier_symbol(make_kernel(2, 0.1), [[1.0, 0.0], [math.nan, 0.0]])

    @pytest.mark.parametrize("xi", [(1.0, 2.0), [[1.0, 2.0]], np.ones((2, 1, 1))])
    def test_rejects_a_frequency_of_the_wrong_shape(self, xi):
        with pytest.raises(ValueError, match="frequenc"):
            fourier_symbol(make_kernel(1, 0.1), xi)

    def test_a_stack_gives_one_symbol_per_row(self):
        k = make_kernel(2, 0.3)
        stack = fourier_symbol(k, [[3.0, 4.0], [0.0, 0.0], [1.0, -2.0]])
        assert stack.shape == (3,)
        alone = [fourier_symbol(k, (3.0, 4.0)), 0.0, fourier_symbol(k, (1.0, -2.0))]
        assert stack.tolist() == alone

    def test_quarter_rule_equals_the_full_angular_mean(self):
        # 2 sin(t c / 2)**2 is even in the direction cosine c, so the 33
        # nodes in [0, pi/2] carry the mean of all 128; the two sums round
        # differently, and the mirrored nodes' cosines differ by an ulp
        cosines, weights = kernels._DIRECTIONS[2]
        full = np.cos(np.arange(128) * (2.0 * math.pi / 128))
        t = np.concatenate([np.geomspace(1e-9, 0.1, 200), np.linspace(0.1, 40.0, 4000)])
        sine = np.sin(t[:, None] * cosines * 0.5)
        quarter = np.sum(sine * sine * (2.0 * weights), axis=-1)
        sine = np.sin(t[:, None] * full * 0.5)
        mean = np.mean(2.0 * sine * sine, axis=-1)
        assert np.all(np.abs(quarter - mean) <= 16 * np.spacing(mean))

    def test_zero_frequency(self):
        assert fourier_symbol(make_kernel(1, 0.1), 0.0) == 0.0
        assert fourier_symbol(make_kernel(2, 0.1), (0.0, 0.0)) == 0.0

    def test_pointwise_limit(self):
        xi = 5.0
        errs = [abs(fourier_symbol(make_kernel(1, e), xi) - xi**2)
                for e in (0.2, 0.1, 0.05, 0.025)]
        assert errs[-1] < 0.01 * xi**2
        assert all(b < a for a, b in zip(errs, errs[1:]))  # monotone in scale

    def test_cubic_bound_with_stable_constant(self):
        # |sigma - |xi|^2| <= C eps |xi|^3 with one C across the ladder
        moll = make_mollifier(1)
        lattice = [float(k) for k in range(1, 9)]
        cs = []
        for eps in (0.2, 0.1, 0.05):
            k = Kernel(moll, eps)
            cs.append(max(abs(fourier_symbol(k, xi) - xi**2) / (eps * xi**3)
                          for xi in lattice))
        c_fit = cs[0]
        for eps, c in zip((0.2, 0.1, 0.05), cs):
            assert c <= c_fit * (1 + 1e-9)  # the coarsest scale dominates

    def test_nonnegative_on_lattice(self):
        k = make_kernel(1, 0.2)
        assert all(fourier_symbol(k, float(x)) >= 0 for x in range(-8, 9))

    @pytest.mark.parametrize("n,xi", [(1, (3.0,)), (2, (3.0, 4.0))])
    def test_scaling_law(self, n, xi):
        # sigma_eps(xi) = sigma_1(eps xi) / eps^2, an exact change of variables
        moll = make_mollifier(n)
        eps = 0.1
        lhs = fourier_symbol(Kernel(moll, eps), xi)
        rhs = fourier_symbol(Kernel(moll, 1.0), tuple(eps * c for c in xi)) / eps**2
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_2d_limit(self):
        val = fourier_symbol(make_kernel(2, 0.02), (3.0, 4.0))
        assert val == pytest.approx(25.0, rel=1e-3)

    @pytest.mark.parametrize("n, xi", [(1, (1.0,)), (2, (1.0, 0.0)), (2, (0.6, -0.8))])
    @pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-12])
    def test_no_cancellation_at_small_scale(self, n, xi, eps):
        # the gap to |xi|^2 = 1 is of order eps^2; 1 - cos(xi . x) would cancel
        # to a few digits at eps 1e-6 and to exactly 0 from eps 1e-8 on
        assert abs(1.0 - fourier_symbol(make_kernel(n, eps), xi)) < 1e-12

    @pytest.mark.parametrize("eps, xi", [(0.1, 1.0), (0.1, 7.0), (0.2, -40.0)])
    def test_1d_matches_scipy_quad(self, eps, xi):
        # independent oracle: the defining integral of J(x)(1 - cos(xi x)) over the support
        k = make_kernel(1, eps)
        s = k.support_radius
        ref, _ = scipy.integrate.quad(
            lambda x: float(k.value_radial(abs(x))) * (1.0 - math.cos(xi * x)),
            -s, s, epsabs=0.0, epsrel=1e-13, limit=200,
        )
        assert fourier_symbol(k, xi) == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("eps, xi", [(0.2, (3.0, 4.0)), (0.3, (1.0, -8.0))])
    def test_2d_matches_scipy_dblquad(self, eps, xi):
        # independent oracle: the double integral over the support disk
        k = make_kernel(2, eps)
        s = k.support_radius

        def integrand(y, x):
            r = math.hypot(x, y)
            return float(k.value_radial(r)) * (1.0 - math.cos(xi[0] * x + xi[1] * y))

        half_chord = lambda x: math.sqrt(max(s * s - x * x, 0.0))
        ref, _ = scipy.integrate.dblquad(integrand, -s, s, lambda x: -half_chord(x),
                                         half_chord, epsabs=0.0, epsrel=1e-11)
        assert fourier_symbol(k, xi) == pytest.approx(ref, rel=1e-8)


class TestQuadrature:
    def test_family_keeps_each_integrands_bits(self):
        # int_0^3 cos(p x) dx = sin(3 p) / p; p = 40 needs bisected panels
        family = lambda x, p: np.cos(p[:, None] * x)
        params = [0.5, 40.0, 2.0]
        values = adaptive_gauss_legendre(family, 0.0, 3.0, params)
        exact = [math.sin(3.0 * p) / p for p in params]
        assert values == pytest.approx(exact, rel=1e-12, abs=1e-14)
        alone = [adaptive_gauss_legendre(family, 0.0, 3.0, [p])[0] for p in params]
        assert values.tolist() == alone

    def test_adaptive_panels_match_scipy(self):
        f = lambda x: np.exp(-3 * x) * np.sin(7 * x)
        mine = adaptive_gauss_legendre(f, 0.0, 2.0)
        ref, _ = scipy.integrate.quad(f, 0.0, 2.0, epsabs=1e-14, epsrel=1e-14)
        assert mine == pytest.approx(ref, rel=1e-11)

    def test_total_mass_scaling(self):
        # mass of the kernel scales like the inverse square of the scale
        moll = make_mollifier(1)
        m1 = total_mass(Kernel(moll, 0.2))
        m2 = total_mass(Kernel(moll, 0.1))
        assert m2 / m1 == pytest.approx(4.0, rel=1e-9)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            adaptive_gauss_legendre(np.sin, 1.0, 1.0)

    def test_mass_concentrates_at_origin(self):
        # radial mass beyond any fixed radius dies out as the scale shrinks;
        # with compact support it is exactly zero once the support fits inside
        moll = make_mollifier(1)
        delta = 0.1
        tail = lambda eps: adaptive_gauss_legendre(
            lambda r: moll.norm_constant * eps**-1 * moll.profile.raw(r / eps), delta, 1.0
        )
        assert tail(0.5) > 0.1
        assert tail(0.09) == 0.0
