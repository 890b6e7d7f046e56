import numpy as np
import pytest

from nonloclab.potentials import (
    DoubleWell,
    LogarithmicPotential,
    make_potential,
    parse_potential,
)


class TestDoubleWell:
    def test_well_values(self):
        pot = DoubleWell(K=1.0)
        assert pot.f(1.0) == 0.0
        assert pot.f(-1.0) == 0.0
        assert pot.f(0.0) == 1.0
        assert pot.fprime(1.0) == 0.0
        assert pot.fprime(-1.0) == 0.0

    def test_derivative_matches_cubic_form(self):
        pot = DoubleWell(K=2.5)
        c = np.random.default_rng(0).uniform(-1.5, 1.5, (3, 64))
        g = pot.fprime(c)
        np.testing.assert_allclose(g, 4.0 * pot.K * (c**3 - c), rtol=1e-15, atol=1e-14)
        # a fresh array: the stepper subtracts the wall remainder into it
        assert not np.shares_memory(g, c)

    @pytest.mark.parametrize("c", [0.5, np.float64(-0.3), np.array(0.7), [0.5, -1.2]])
    def test_derivative_takes_scalars_and_lists(self, c):
        pot = DoubleWell(K=1.5)
        expected = 6.0 * (np.asarray(c) ** 3 - np.asarray(c))
        np.testing.assert_allclose(pot.fprime(c), expected, rtol=1e-15, atol=1e-15)
        assert np.shape(pot.fprime(c)) == np.shape(c)

    def test_curvature_at_origin(self):
        pot = DoubleWell(K=1.0)
        assert pot.fsecond(0.0) == -4.0
        assert pot.alpha == 4.0

    def test_derivative_consistency(self):
        pot = DoubleWell(K=2.5)
        c = np.linspace(-1.5, 1.5, 31)
        h = 1e-5
        fd = (pot.f(c + h) - pot.f(c - h)) / (2 * h)
        assert np.max(np.abs(fd - pot.fprime(c))) < 1e-6 * max(1, np.max(np.abs(fd)))

    def test_curvature_bound(self):
        pot = DoubleWell(K=3.0)
        c = np.linspace(-2, 2, 401)
        assert np.min(pot.fsecond(c)) >= -pot.alpha - 1e-9

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            DoubleWell(K=0.0)


class TestLogarithmic:
    def test_odd_symmetry_of_derivative(self):
        pot = LogarithmicPotential(theta=0.8, theta_c=1.0)
        assert pot.fprime(0.0) == 0.0
        assert pot.fprime(0.5) == pytest.approx(-pot.fprime(-0.5), rel=1e-12)

    def test_alpha_is_quadratic_coefficient(self):
        pot = LogarithmicPotential(theta=0.8, theta_c=1.0)
        assert pot.alpha == 1.0
        c = np.linspace(-0.999, 0.999, 801)
        assert np.min(pot.fsecond(c)) >= -pot.alpha - 1e-9
        # entropy dominates near the endpoints: curvature turns positive
        assert pot.fsecond(0.99) > 0

    def test_derivative_consistency(self):
        pot = LogarithmicPotential(theta=0.8, theta_c=1.0)
        c = np.linspace(-0.9, 0.9, 19)
        h = 1e-5
        fd = (pot.f(c + h) - pot.f(c - h)) / (2 * h)
        assert np.max(np.abs(fd - pot.fprime(c))) < 1e-6

    def test_derivative_blows_up_toward_endpoints(self):
        # 0.999999 is exactly 1 - 1e-6, the clamp bound, so it stays unclamped
        pot = LogarithmicPotential(theta=0.8, theta_c=1.0)
        values = pot.fprime(np.asarray([0.9, 0.99, 0.999999]))
        assert np.all(np.diff(values) > 0)  # increasing toward the edge
        assert values[-1] > 4.0
        low = pot.fprime(np.asarray([-0.9, -0.99, -0.999999]))
        assert np.all(np.diff(low) < 0)

    def test_clamping_counts_events(self):
        pot = LogarithmicPotential(theta=0.8, theta_c=1.0)
        assert pot.clamp_events == 0
        pot.f(np.asarray([0.0, 0.5, 2.0, -3.0]))
        assert pot.clamp_events == 2
        assert pot.f(2.0) == pot.f(1.0 - 1e-6)  # absorbed, not an error

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LogarithmicPotential(theta=1.0, theta_c=0.8)
        # the clamp bound is fixed; naming it is an unknown parameter
        with pytest.raises(ValueError, match=r"unknown parameters \['clamp_delta'\]"):
            parse_potential("logarithmic:theta=0.5,theta_c=1,clamp_delta=1e-8")


class TestFactory:
    def test_parse_doublewell(self):
        pot = parse_potential("doublewell:K=2")
        assert isinstance(pot, DoubleWell)
        assert pot.K == 2.0

    def test_parse_logarithmic(self):
        pot = parse_potential("logarithmic:theta=0.8,theta_c=1")
        assert isinstance(pot, LogarithmicPotential)
        assert pot.theta == 0.8

    def test_parse_defaults(self):
        assert isinstance(parse_potential("doublewell"), DoubleWell)

    def test_parse_errors(self):
        for kind in ("mystery", "double-well", "dw", "log"):
            with pytest.raises(ValueError, match="unknown potential kind"):
                parse_potential(f"{kind}:K=1")
        with pytest.raises(ValueError):
            parse_potential("doublewell:K")
        with pytest.raises(ValueError, match=r"accepted parameters: K\b"):
            make_potential("doublewell", bogus=1.0)
        with pytest.raises(ValueError, match="accepted parameters: theta, theta_c$"):
            parse_potential("logarithmic:theta=0.8,theta_c=1,clamp_events=3")
        with pytest.raises(ValueError, match="missing parameters: theta, theta_c"):
            make_potential("logarithmic")

    @pytest.mark.parametrize("spec", ["doublewell:K=1,K=2",
                                      "logarithmic:theta=0.8,theta_c=1, theta=0.9"])
    def test_repeated_parameter_rejected(self, spec):
        with pytest.raises(ValueError, match="duplicate potential parameter"):
            parse_potential(spec)

    @pytest.mark.parametrize("spec", [
        "doublewell:K=inf", "doublewell:K=nan",
        "logarithmic:theta=0.8,theta_c=inf", "logarithmic:theta=nan,theta_c=1",
    ])
    def test_non_finite_parameters_rejected(self, spec):
        with pytest.raises(ValueError, match="must be finite"):
            parse_potential(spec)
