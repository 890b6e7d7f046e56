import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonloclab import experiments, kernels
from nonloclab.grid import Field, UniformGrid, hminus1_norm, l2_norm, lp_norm, sample, sobolev_norm
from nonloclab.kernels import Kernel, fourier_symbol, make_mollifier
from nonloclab.local_ops import laplacian
from nonloclab.nonlocal_ops import apply_fft, nonlocal_energy
from nonloclab.potentials import DoubleWell
from nonloclab.solvers import SolverConfig, reference_config, run, run_batch
from nonloclab.experiments import (
    GronwallTrace,
    default_symbol_lattice,
    energy_rate_study,
    fit_rate,
    gronwall_audit,
    gronwall_trace,
    make_initial_field,
    make_test_field,
    operator_rate_study,
    remainder_rate_study,
    solution_convergence_study,
    symbol_study,
)


@pytest.fixture(scope="module")
def moll():
    return make_mollifier(1)


def run_states(initial, config, potential, equation, kernel=None):
    """``run``'s record, and the state at each record, collected through
    ``on_record``."""
    states = []
    record = run(initial, config, potential, equation, kernel,
                 on_record=lambda index, values: states.append(Field(initial.grid,
                                                                     values[0].copy())))
    return record, states


def gronwall_rows(states, ref, kernel):
    """The rows that ``gronwall_trace`` takes, formed from collected states:
    per record, the squared dual and L2 norms and the pair energy of the
    difference, and the squared consistency error of the reference."""
    return [(hminus1_norm(fe - fr) ** 2, l2_norm(fe - fr) ** 2, nonlocal_energy(kernel, fe - fr),
             l2_norm(apply_fft(kernel, fr) + laplacian(fr)) ** 2)
            for fe, fr in zip(states, ref)]


class TestFitRate:
    def test_exact_linear_law(self):
        table = fit_rate([(e, e) for e in (0.2, 0.1, 0.05, 0.025)])
        assert table.fitted_slope == pytest.approx(1.0, abs=1e-12)
        assert table.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_square_root_law(self):
        table = fit_rate([(e, math.sqrt(e)) for e in (0.2, 0.1, 0.05, 0.025)])
        assert table.fitted_slope == pytest.approx(0.5, abs=1e-12)

    def test_noisy_power_law(self):
        rng = np.random.default_rng(99)
        eps = (0.3, 0.2, 0.1, 0.05, 0.02, 0.01)
        pairs = [(e, 3 * e**0.7 * (1 + 0.01 * rng.standard_normal())) for e in eps]
        table = fit_rate(pairs)
        assert table.fitted_slope == pytest.approx(0.7, abs=0.05)
        assert math.exp(table.fitted_intercept) == pytest.approx(3.0, rel=0.1)

    def test_sorts_pairs(self):
        table = fit_rate([(0.05, 0.05), (0.2, 0.2), (0.1, 0.1)])
        assert table.epsilons == (0.2, 0.1, 0.05)
        assert table.fitted_slope == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_rate([(0.2, 1.0), (0.1, 0.5)])
        with pytest.raises(ValueError):
            fit_rate([(0.2, 1.0), (0.1, 0.0), (0.05, 0.1)])
        with pytest.raises(ValueError):
            fit_rate([(0.2, 1.0), (0.1, 0.5), (0.05, 0.2)], included=[True, True, False])

    @pytest.mark.parametrize("included", [None, [True, True, False, True]])
    def test_rejects_a_repeated_scale(self, included):
        # in or out of the fit, a scale given twice is not a ladder
        with pytest.raises(ValueError, match="distinct scales"):
            fit_rate([(0.2, 1.0), (0.1, 0.5), (0.1, 0.4), (0.05, 0.2)], included)

    def test_included_mask_excludes_floor_points(self):
        pairs = [(0.2, 0.2), (0.1, 0.1), (0.05, 0.05), (0.025, 0.025), (0.0125, 0.04)]
        table = fit_rate(pairs, included=[True, True, True, True, False])
        assert table.fitted_slope == pytest.approx(1.0, abs=1e-12)
        assert table.included == (True, True, True, True, False)

    def test_mask_sorted_with_pairs(self):
        table = fit_rate([(0.025, 1e-20), (0.2, 4), (0.1, 1), (0.05, 0.25)],
                         included=[False, True, True, True])
        assert table.included == (True, True, True, False)
        assert table.fitted_slope == pytest.approx(2.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 13), st.floats(1e-12, 1e3), st.booleans()),
            min_size=4, max_size=8, unique_by=lambda r: r[0],
        ).filter(lambda rows: sum(m for _, _, m in rows) >= 3),
        data=st.data(),
    )
    def test_fit_invariant_under_permutation(self, rows, data):
        # eps = 2**-k: distinct exponents keep the log-scales well separated,
        # so the least-squares slope is always defined
        rows = [(2.0 ** -k, v, m) for k, v, m in rows]
        order = data.draw(st.permutations(range(len(rows))))
        shuffled = [rows[i] for i in order]
        a = fit_rate([(e, v) for e, v, _ in rows], included=[m for _, _, m in rows])
        b = fit_rate([(e, v) for e, v, _ in shuffled], included=[m for _, _, m in shuffled])
        assert a == b


class TestScaleLadder:
    @pytest.mark.parametrize("ladder, bad", [
        ((0.2, math.nan, 0.05), "[nan]"),
        ((math.inf, 0.1, 0.05), "[inf]"),
        ((0.2, 0.1, -math.inf), "[-inf]"),
        ((math.nan, math.inf, 0.05, math.nan), "[nan, inf, nan]"),
    ])
    def test_non_finite_scales_are_named(self, moll, ladder, bad):
        g = UniformGrid((1.0,), (256,), "neumann")
        with pytest.raises(ValueError, match="scales must be finite") as info:
            operator_rate_study(g, moll, "cospix", ladder)
        assert bad in str(info.value)
        cfg = SolverConfig(tau=5e-5, t_final=0.01)
        with pytest.raises(ValueError, match="scales must be finite") as info:
            solution_convergence_study(g, cfg, DoubleWell(), moll, ladder, "cosmix")
        assert bad in str(info.value)


class TestSymbolStudy:
    def test_default_lattice(self):
        lat = default_symbol_lattice(1)
        assert len(lat) == 16
        assert (0.0,) not in lat
        lat2 = default_symbol_lattice(2)
        assert len(lat2) == 256
        assert all(c != 0 for xi in lat2 for c in xi)

    def test_rate_beats_linear(self, moll):
        table = symbol_study(moll, (0.2, 0.1, 0.05, 0.025))
        assert table.fitted_slope >= 0.9
        assert table.r_squared > 0.99

    def test_fits_every_point_when_all_lie_on_the_floor(self, moll):
        # errors of 1.8e-11, 4.5e-12 and 1.1e-12, all below the 1e-9 floor:
        # with fewer than 3 points above it, the fit takes every point
        table = symbol_study(moll, (1e-5, 5e-6, 2.5e-6))
        assert all(e < experiments.FLOOR_FACTOR for e in table.errors)
        assert table.included == (True, True, True)
        assert table.fitted_slope == pytest.approx(2.0, abs=5e-5)


def _symbol_errors_per_point(mollifier, eps_list, lattice):
    """Reference: the worst cubic-normalized symbol error per scale, with one
    quadrature for every lattice point."""
    errors = []
    for eps in eps_list:
        kernel = Kernel(mollifier, eps)
        worst = 0.0
        for xi in lattice:
            xi_arr = np.asarray(xi, dtype=float)
            q = float(np.sqrt(np.sum(xi_arr**2)))
            err = abs(fourier_symbol(kernel, xi_arr) - q * q) / q**3
            worst = max(worst, err)
        errors.append(worst)
    return errors


class TestSymbolQuadraturePerRadius:
    LADDER = (0.2, 0.1, 0.05)

    @pytest.mark.parametrize("n", [1, 2])
    def test_equals_per_point_loop(self, n):
        mollifier = make_mollifier(n)
        points = default_symbol_lattice(n)
        table = symbol_study(mollifier, self.LADDER)
        assert table.errors == tuple(_symbol_errors_per_point(mollifier, self.LADDER, points))

    @pytest.mark.parametrize("n, per_scale", [(1, 8), (2, 34)])
    def test_one_batched_quadrature_per_scale(self, n, per_scale):
        mollifier = make_mollifier(n)
        with mock.patch.object(kernels, "adaptive_gauss_legendre",
                               wraps=kernels.adaptive_gauss_legendre) as spy, \
                mock.patch.object(experiments, "fourier_symbol",
                                  wraps=experiments.fourier_symbol) as symbol:
            symbol_study(mollifier, self.LADDER)
        assert spy.call_count == symbol.call_count == len(self.LADDER)
        for call in spy.call_args_list:
            radii = call.args[3]
            assert len(radii) == len(set(radii.tolist())) == per_scale

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("eps", [3.0, 1.5, 0.75])
    def test_batch_keeps_each_radius_bits(self, n, eps):
        kernel = Kernel(make_mollifier(n), eps)
        points = {float(np.sqrt(np.sum(np.square(xi)))): xi for xi in default_symbol_lattice(n)}
        radii = sorted(points)
        batch = fourier_symbol(kernel, np.array([points[q] for q in radii]))
        assert batch.tolist() == [fourier_symbol(kernel, points[q]) for q in radii]

    def test_only_unaccepted_radii_take_the_bisected_panels(self):
        # at eps 3 only the two largest 2D radii, sqrt(113) and 8 sqrt(2), bisect
        rows = []
        quadrature = kernels.adaptive_gauss_legendre

        def recording(f, a, b, params=None):
            def integrand(x, p):
                rows.append(p.tolist())
                return f(x, p)
            return quadrature(integrand, a, b, params)

        lattice = np.array(default_symbol_lattice(2))
        radii, first = np.unique(np.sqrt(np.sum(lattice * lattice, axis=1)), return_index=True)
        kernel = Kernel(make_mollifier(2), 3.0)
        with mock.patch.object(kernels, "adaptive_gauss_legendre", recording):
            fourier_symbol(kernel, lattice[first])
        # the 20- and 40-point rules on the whole support, then on each half
        assert rows[:2] == [radii.tolist()] * 2
        assert rows[2:] == [radii[-2:].tolist()] * 4


class TestOperatorStudy:
    def test_periodic_smooth_rate(self, moll):
        g = UniformGrid((1.0,), (1024,), "periodic")
        table = operator_rate_study(g, moll, "sinmix", (0.2, 0.1, 0.05))
        assert table.fitted_slope >= 0.9

    def test_wall_curvature_gives_square_root(self, moll):
        g = UniformGrid((1.0,), (2048,), "neumann")
        table = operator_rate_study(g, moll, "cospix", (0.2, 0.1, 0.05, 0.025))
        assert 0.4 <= table.fitted_slope <= 0.7

    def test_refuses_unresolvable_scales(self, moll):
        g = UniformGrid((1.0,), (64,), "periodic")
        with pytest.raises(ValueError, match="resolve"):
            operator_rate_study(g, moll, "sinmix", (0.2, 0.1, 0.01))

    def test_box_takes_only_the_wall_flat_test_functions(self, moll):
        # on a zero-flux box the spectral Laplacian sees a kink at a wall where
        # the normal derivative does not vanish, and that artifact, not the
        # operator's error, would set the rate
        box = UniformGrid((1.0,), (512,), "neumann")
        with pytest.raises(ValueError) as info:
            operator_rate_study(box, moll, "sinmix", (0.2, 0.1, 0.05))
        assert str(info.value) == (
            "test function 'sinmix' has a nonzero normal derivative at the walls of a "
            "zero-flux box, where the spectral Laplacian sees a kink; use one of "
            "['cospix', 'flatbump', 'one'] or a torus")
        # the energy limit does not need the wall condition, and the boundary
        # remainder's divergence without it is real
        energy_rate_study(box, moll, "sinmix", (0.2, 0.1, 0.05))
        remainder_rate_study(box, moll, "sinmix", (0.2, 0.1, 0.05))

    @pytest.mark.parametrize("shape", [(64,), (256,), (32, 48)])
    def test_a_box_takes_exactly_the_names_flat_at_the_walls(self, moll, shape):
        # a name is flat at a wall when, on every axis, its step between the
        # two nodes next to either wall is at most a tenth of its largest step
        box = UniformGrid((1.0,) * len(shape), shape, "neumann")
        flat = []
        for name, builder in experiments.TEST_FUNCTIONS.items():
            v = builder(box)
            steps = [np.abs(np.diff(v, axis=a)) for a in range(v.ndim)]
            if all(np.max(np.take(d, 0, a)) <= 0.1 * np.max(d)
                   and np.max(np.take(d, -1, a)) <= 0.1 * np.max(d)
                   for a, d in enumerate(steps)):
                flat.append(name)
            else:
                with pytest.raises(ValueError, match=f"{name!r} has a nonzero normal"):
                    operator_rate_study(box, moll, name, (0.5, 0.4, 0.3))
        assert tuple(flat) == experiments._WALL_FLAT

    def test_accepts_field_rejects_callable(self, moll):
        g = UniformGrid((1.0,), (512,), "periodic")
        ladder = (0.2, 0.1, 0.05)
        f = sample(g, lambda x: np.sin(2 * np.pi * x))
        table = operator_rate_study(g, moll, f, ladder)
        expected = [l2_norm(apply_fft(Kernel(moll, e), f) + laplacian(f)) for e in ladder]
        assert table.errors == tuple(expected)
        # studies take a registry name or a Field, not a function to sample
        with pytest.raises(ValueError, match="unknown test function"):
            operator_rate_study(g, moll, lambda x: np.sin(2 * np.pi * x), ladder)

    @pytest.mark.parametrize("boundary", ["neumann", "periodic"])
    def test_constant_has_no_rate_to_fit(self, moll, boundary):
        # both operators vanish exactly on a constant, so every error is 0.0
        g = UniformGrid((1.0,), (256,), boundary)
        with pytest.raises(ValueError, match="every operator error is exactly zero"):
            operator_rate_study(g, moll, "one", (0.2, 0.1, 0.05))

    def test_unknown_test_function(self, moll):
        g = UniformGrid((1.0,), (512,), "periodic")
        with pytest.raises(ValueError, match="unknown test function"):
            operator_rate_study(g, moll, "nope", (0.2, 0.1, 0.05))

    def test_2d_corner_rate_observable(self):
        # a 2D box has corners on top of the flat walls; the observed decay
        # is recorded as an observable, only sanity-banded here
        g = UniformGrid((1.0, 1.0), (256, 256), "neumann")
        table = operator_rate_study(g, make_mollifier(2), "cospix", (0.2, 0.1, 0.05))
        assert 0.2 <= table.fitted_slope <= 1.0
        assert all(b < a for a, b in zip(table.errors, table.errors[1:]))


class TestEnergyStudy:
    def test_monotone_decay(self, moll):
        g = UniformGrid((1.0,), (1024,), "neumann")
        res = energy_rate_study(g, moll, "cospix", (0.2, 0.1, 0.05, 0.025))
        assert res.verdict == "fitted"
        assert res.monotone_decreasing
        assert res.limit_value == pytest.approx(math.pi**2 / 4, rel=1e-10)

    def test_constant_is_exact(self, moll):
        g = UniformGrid((1.0,), (256,), "neumann")
        res = energy_rate_study(g, moll, "one", (0.2, 0.1, 0.05))
        assert res.verdict == "exact"
        assert res.table is None


class TestRemainderStudy:
    def test_half_support_margin_decays(self, moll):
        g = UniformGrid((1.0,), (1024,), "neumann")
        res = remainder_rate_study(g, moll, "cospix", (0.2, 0.1, 0.05), margin_factor=0.5)
        assert res.verdict == "fitted"
        assert res.monotone_decreasing

    def test_margin_beyond_support_is_exact(self, moll):
        g = UniformGrid((1.0,), (1024,), "neumann")
        res = remainder_rate_study(g, moll, "cospix", (0.2, 0.1, 0.05), margin_factor=1.2)
        assert res.verdict == "exact"
        assert res.values == (0.0, 0.0, 0.0)

    def test_field_flat_near_walls_is_exact(self, moll):
        # flatbump is identically zero within 10% of each wall, so every
        # ghost value a kernel of support <= 0.1 picks up equals the node's
        g = UniformGrid((1.0,), (1024,), "neumann")
        res = remainder_rate_study(g, moll, "flatbump", (0.1, 0.05, 0.025))
        assert res.verdict == "exact"
        assert res.values == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("lengths, cells, ladder", [
        ((1.0,), (1024,), (0.4, 0.1, 0.05)),
        ((1.0, 1.0), (128, 128), (0.2, 0.1, 0.07)),
    ])
    def test_exact_zeros_after_the_first_rung_are_decreasing(self, lengths, cells, ladder):
        # flatbump is flat within 10% of each wall: only the widest kernel
        # reaches past its flat frame, and the later rungs are exact zeros
        g = UniformGrid(lengths, cells, "neumann")
        res = remainder_rate_study(g, make_mollifier(g.dimension), "flatbump", ladder)
        assert res.values[0] > 0.0
        assert res.values[1:] == (0.0, 0.0)
        assert res.verdict == "fitted"
        assert res.monotone_decreasing
        assert res.table is None

    @pytest.mark.parametrize("values", [(0.5, 0.5, 0.2), (0.0, 0.5, 0.0)])
    def test_only_exact_zeros_may_repeat(self, moll, values):
        g = UniformGrid((1.0,), (1024,), "neumann")
        ladder = (0.4, 0.1, 0.05)
        by_scale = dict(zip(ladder, values))
        with mock.patch.object(experiments, "interior_remainder",
                               lambda kernel, field, margin: by_scale[kernel.epsilon]):
            res = remainder_rate_study(g, moll, "flatbump", ladder)
        assert res.values == values
        assert not res.monotone_decreasing


@pytest.fixture(scope="module")
def small_study():
    moll = make_mollifier(1)
    g = UniformGrid((1.0,), (256,), "neumann")
    cfg = SolverConfig(tau=5e-5, t_final=0.01, record_every=20)
    return solution_convergence_study(
        g, cfg, DoubleWell(K=1.0), moll, (0.16, 0.08, 0.04), "cosmix"
    )


class TestSolutionStudy:
    def test_square_root_rate_in_every_norm(self, small_study):
        for name, table in small_study.tables.items():
            assert 0.35 <= table.fitted_slope <= 0.8, name

    def test_reference_regularity_recorded(self, small_study):
        assert small_study.reference_h3_max > 0

    def test_records_kept(self, small_study):
        # the reference and every rung keep their series
        assert set(small_study.records) == {0.16, 0.08, 0.04}
        ref = small_study.reference
        assert len(ref.times) == 11
        for rec in small_study.records.values():
            assert np.array_equal(rec.times, np.arange(0, 201, 20) * 5e-5)
            assert rec.mass.shape == rec.energy.shape == rec.times.shape
            assert np.all(np.isfinite(rec.energy))

    @pytest.mark.parametrize("equation", ["nonlocal-ch", "nonlocal-ac"])
    def test_errors_equal_those_of_rungs_run_with_fields(self, moll, equation):
        # the study drops each record's states once it has their norms; its
        # errors keep the bits of the rungs run on their own, their states
        # collected and compared afterwards
        g = UniformGrid((1.0,), (256,), "neumann")
        cfg = SolverConfig(tau=5e-5, t_final=5e-3, record_every=10)
        pot, eps = DoubleWell(K=1.0), (0.16, 0.08, 0.04)
        res = solution_convergence_study(g, cfg, pot, moll, eps, "cosmix", equation=equation)

        init = make_initial_field(g, "cosmix")
        _, ref_states = run_states(init, reference_config(cfg), pot,
                                   equation.replace("nonlocal", "local"))
        profile = np.cos(np.pi * g.axis_nodes(0))
        for name in experiments._SOLUTION_NORMS:
            assert len(res.errors[name]) == len(eps)
        for i, e in enumerate(eps):
            start = Field(g, init.values + 0.05 * math.sqrt(e) * profile)
            rung, states = run_states(start, cfg, pot, equation, Kernel(moll, e))
            rows = np.array([(hminus1_norm(u), l2_norm(u), sobolev_norm(u, -0.5), lp_norm(u, 4))
                             for u in (a - b for a, b in zip(states, ref_states))])
            h1, l2, hs, l4 = rows.T
            expected = {
                "hminus1_sup": float(h1.max()),
                "l2_sup": float(l2.max()),
                "l2_spacetime": float(np.sqrt(np.trapezoid(l2**2, rung.times))),
                "hs-0.5_sup": float(hs.max()),
                "lp4_spacetime": float(np.sqrt(np.trapezoid(l4**2, rung.times))),
            }
            for name, value in expected.items():
                assert res.errors[name][i] == value, (name, e)
            assert np.array_equal(res.records[e].energy, rung.energy)

    def test_deterministic_rerun(self, small_study):
        moll = make_mollifier(1)
        g = UniformGrid((1.0,), (256,), "neumann")
        cfg = SolverConfig(tau=5e-5, t_final=0.01, record_every=20)
        again = solution_convergence_study(
            g, cfg, DoubleWell(K=1.0), moll, (0.16, 0.08, 0.04), "cosmix"
        )
        for name in small_study.tables:
            assert small_study.tables[name].errors == again.tables[name].errors
            assert small_study.tables[name].fitted_slope == again.tables[name].fitted_slope

    def test_identical_data_variant_beats_square_root(self):
        # with no initial offset the only error source is the operator
        # consistency, which these smooth kernels resolve faster than the
        # square-root bound
        moll = make_mollifier(1)
        g = UniformGrid((1.0,), (256,), "neumann")
        cfg = SolverConfig(tau=5e-5, t_final=0.01, record_every=20)
        res = solution_convergence_study(
            g, cfg, DoubleWell(K=1.0), moll, (0.16, 0.08, 0.04), "cosmix",
            perturbation_scale=0.0,
        )
        assert res.tables["hminus1_sup"].fitted_slope > 0.35

    def test_rejects_local_equation(self, moll):
        g = UniformGrid((1.0,), (256,), "neumann")
        cfg = SolverConfig(tau=5e-5, t_final=0.01)
        with pytest.raises(ValueError, match="nonlocal"):
            solution_convergence_study(g, cfg, DoubleWell(), moll,
                                       (0.16, 0.08, 0.04), "cosmix", equation="local-ch")

    def test_large_scale_sanity_bound(self, moll):
        # anti-test: with the interaction scale near the box size the operator
        # is a poor Laplacian proxy and the gap to the local flow reaches the
        # trajectory's own deviation scale, far off the small-scale regime
        from nonloclab.grid import Field, l2_norm
        from nonloclab.kernels import Kernel
        from nonloclab.solvers import reference_config, run

        g = UniformGrid((1.0,), (256,), "neumann")
        pot = DoubleWell(K=1.0)
        cfg = SolverConfig(tau=5e-5, t_final=0.01, record_every=20)
        init = make_initial_field(g, "cosmix")
        _, ref = run_states(init, reference_config(cfg), pot, "local-ch")
        _, rec = run_states(init, cfg, pot, "nonlocal-ch", Kernel(moll, 0.8))
        sup_err = max(l2_norm(a - b) for a, b in zip(rec, ref))
        mean_state = Field(g, np.full(g.shape, float(np.mean(init.values))))
        traj_scale = max(l2_norm(f - mean_state) for f in ref)
        assert sup_err > 0.05 * traj_scale

        _, small = run_states(init, cfg, pot, "nonlocal-ch", Kernel(moll, 0.08))
        sup_small = max(l2_norm(a - b) for a, b in zip(small, ref))
        assert sup_err > 20 * sup_small


class TestGronwallTrace:
    def test_zero_difference_gives_zero_traces(self, moll):
        g = UniformGrid((1.0,), (128,), "neumann")
        cfg = SolverConfig(tau=1e-4, t_final=5e-3, record_every=10)
        rec, states = run_states(make_initial_field(g, "cosmix"), cfg, DoubleWell(), "local-ch")
        trace = gronwall_trace(rec.times, gronwall_rows(states, states, Kernel(moll, 0.1)))
        assert np.all(trace.dual_sq_half == 0.0)
        assert np.all(trace.l2_sq_half == 0.0)
        assert np.all(trace.pair_energy_half == 0.0)
        assert trace.empirical_constant == 0.0
        assert trace.holds_with(0.0)

    def test_arrays_hold_the_audited_times(self, moll):
        # the forward difference ends at the last record, so every array has
        # one entry per record but the last; the pair energy still integrates
        # over every record
        g = UniformGrid((1.0,), (128,), "neumann")
        cfg = SolverConfig(tau=1e-4, t_final=5e-3, record_every=10)
        init = make_initial_field(g, "cosmix")
        kernel = Kernel(moll, 0.1)
        _, ref = run_states(init, cfg, DoubleWell(), "local-ch")
        rec, states = run_states(init, cfg, DoubleWell(), "nonlocal-ch", kernel)
        trace = gronwall_trace(rec.times, gronwall_rows(states, ref, kernel))
        audited = len(rec.times) - 1
        assert np.array_equal(trace.times, rec.times[:-1])
        for name in ("dual_sq_half", "derivative", "l2_sq_half", "pair_energy_half",
                     "dual_sq", "consistency_sq"):
            assert getattr(trace, name).shape == (audited,), name
        assert trace.lhs().shape == trace.rhs().shape == (audited,)
        pair = [nonlocal_energy(kernel, a - b) for a, b in zip(states, ref)]
        assert trace.energy_time_integral == np.trapezoid(pair, rec.times)

    def test_vanishing_rhs_fails_every_constant(self):
        # the constant is the largest lhs / rhs where rhs > 1e-300, so a time
        # where rhs vanishes under a positive lhs is the one way the verdict fails
        zero = np.zeros(2)
        trace = GronwallTrace(
            times=np.array([0.0, 1.0]), dual_sq_half=zero, derivative=np.array([0.0, 1e-9]),
            l2_sq_half=zero, pair_energy_half=zero, dual_sq=zero,
            consistency_sq=np.array([1.0, 0.0]), empirical_constant=0.0,
            energy_time_integral=0.0,
        )
        assert trace.lhs()[1] > 1e-12 and trace.rhs()[1] == 0.0
        for constant in (0.0, 1.0, 1e300):
            assert not trace.holds_with(constant)

    def test_inequality_holds_and_is_stable_under_refinement(self):
        moll = make_mollifier(1)
        g = UniformGrid((1.0,), (256,), "neumann")
        pot = DoubleWell(K=1.0)

        def constant(tau, every):
            cfg = SolverConfig(tau=tau, t_final=0.01, record_every=every)
            tr = gronwall_audit(g, cfg, pot, moll, (0.16, 0.08, 0.04), "cosmix",
                                perturbation_scale=0.0)
            assert tr.holds_with(tr.empirical_constant)
            return tr.empirical_constant

        c1 = constant(4e-5, 25)
        c2 = constant(2e-5, 50)
        assert c1 > 0 and c2 > 0
        assert max(c1, c2) / min(c1, c2) < 2.0

    def test_integrated_pair_energy_trend(self, moll):
        # the time integral of the pair energy of the difference has to decay
        # at least as fast as the square root of the scale
        g = UniformGrid((1.0,), (256,), "neumann")
        cfg = SolverConfig(tau=4e-5, t_final=0.01, record_every=25)
        eps = (0.16, 0.08, 0.04)
        init = make_initial_field(g, "cosmix")
        _, ref = run_states(init, reference_config(cfg), DoubleWell(), "local-ch")
        integrals = []
        for e in eps:
            rec, states = run_states(init, cfg, DoubleWell(), "nonlocal-ch", Kernel(moll, e))
            rows = gronwall_rows(states, ref, Kernel(moll, e))
            integrals.append(gronwall_trace(rec.times, rows).energy_time_integral)
        assert all(v > 0 for v in integrals)
        table = fit_rate(zip(eps, integrals))
        assert table.fitted_slope >= 0.45


class TestGronwallAudit:
    def test_equals_the_trace_of_the_reference_and_the_second_rung(self, moll, monkeypatch):
        g = UniformGrid((1.0,), (256,), "neumann")
        cfg = SolverConfig(tau=5e-5, t_final=5e-3, record_every=10)
        pot = DoubleWell(K=1.0)
        calls = []

        def counted_run(initial, config, potential, equation, kernel=None, on_record=None):
            calls.append((equation, [None if kernel is None else kernel.epsilon]))
            return run(initial, config, potential, equation, kernel, on_record)

        def counted_batch(initials, config, potential, equation, kernels, on_record=None):
            calls.append((equation, [k.epsilon for k in kernels]))
            return run_batch(initials, config, potential, equation, kernels, on_record)

        monkeypatch.setattr(experiments, "run", counted_run)
        monkeypatch.setattr(experiments, "run_batch", counted_batch)
        trace = gronwall_audit(g, cfg, pot, moll, (0.16, 0.08, 0.04), "cosmix",
                               perturbation_scale=0.03)
        # the reference and the audited rung, and no other rung
        assert calls == [("local-ch", [None]), ("nonlocal-ch", [0.08])]

        init = make_initial_field(g, "cosmix")
        _, ref = run_states(init, reference_config(cfg), pot, "local-ch")
        start = Field(g, init.values + 0.03 * math.sqrt(0.08) * np.cos(np.pi * g.axis_nodes(0)))
        kernel = Kernel(moll, 0.08)
        rung, states = run_states(start, cfg, pot, "nonlocal-ch", kernel)
        expected = gronwall_trace(rung.times, gronwall_rows(states, ref, kernel))
        for name in ("times", "dual_sq_half", "derivative", "l2_sq_half", "pair_energy_half",
                     "dual_sq", "consistency_sq"):
            assert np.array_equal(getattr(trace, name), getattr(expected, name)), name
        assert trace.empirical_constant == expected.empirical_constant
        assert trace.energy_time_integral == expected.energy_time_integral

    def test_keeps_one_trajectory(self, moll):
        # the reference's states are the one trajectory the audit keeps; at
        # each record the rung's state gives its row and is dropped
        g = UniformGrid((1.0,), (4096,), "neumann")
        ladder = (0.16, 0.08, 0.04)
        # a two-step audit first fills the per-kernel operator caches (the
        # rung's wall matrices alone take 1.7 MB), which outlive the call
        gronwall_audit(g, SolverConfig(tau=1e-6, t_final=2e-6, record_every=1),
                       DoubleWell(K=1.0), moll, ladder, "cosmix")
        cfg = SolverConfig(tau=1e-6, t_final=2e-4, record_every=1)
        trajectory = 201 * 4096 * 8
        tracemalloc.start()
        try:
            trace = gronwall_audit(g, cfg, DoubleWell(K=1.0), moll, ladder, "cosmix")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace.times) == 200
        assert peak < 1.5 * trajectory

    @pytest.mark.parametrize("cells, boundary, ladder, initial, match", [
        (256, "periodic", (0.16, 0.08, 0.04), "random", "zero-flux"),
        (256, "neumann", (0.16, 0.08), "cosmix", "at least 3"),
        (256, "neumann", (0.08, 0.16, 0.04), "cosmix", "strictly decreasing"),
        (64, "neumann", (0.16, 0.08, 0.04), "cosmix", "cannot resolve"),
        (256, "neumann", (1.5, 0.08, 0.04), "cosmix", "exceeds the box"),
        (256, "neumann", (0.16, 0.08, 0.04), "bogus", "unknown initial data"),
    ])
    def test_rejects_what_the_study_rejects_before_any_step(self, moll, monkeypatch, cells,
                                                           boundary, ladder, initial, match):
        # the ladder's first rung is never stepped by the audit, yet a
        # support wider than the box is still rejected there
        g = UniformGrid((1.0,), (cells,), boundary)
        cfg = SolverConfig(tau=5e-5, t_final=5e-3)
        steps = []
        monkeypatch.setattr(experiments, "run", lambda *a, **k: steps.append("run"))
        monkeypatch.setattr(experiments, "run_batch", lambda *a, **k: steps.append("batch"))
        for study in (solution_convergence_study, gronwall_audit):
            with pytest.raises(ValueError, match=match):
                study(g, cfg, DoubleWell(), moll, ladder, initial)
        assert steps == []


class TestHelpers:
    def test_make_test_field_grid_mismatch(self, moll):
        g = UniformGrid((1.0,), (128,), "neumann")
        other = UniformGrid((1.0,), (64,), "neumann")
        f = sample(other, lambda x: x)
        with pytest.raises(ValueError, match="different grid"):
            make_test_field(g, f)

    def test_make_initial_field_grid_mismatch(self):
        g = UniformGrid((1.0,), (128,), "neumann")
        other = make_initial_field(UniformGrid((1.0,), (64,), "neumann"), "cosmix")
        with pytest.raises(ValueError, match="different grid"):
            make_initial_field(g, other)

    def test_solution_study_rejects_initial_field_before_any_step(self, moll, monkeypatch):
        g = UniformGrid((1.0,), (256,), "neumann")
        other = make_initial_field(UniformGrid((1.0,), (128,), "neumann"), "cosmix")
        steps = []
        monkeypatch.setattr(experiments, "run", lambda *a, **k: steps.append("run"))
        monkeypatch.setattr(experiments, "run_batch", lambda *a, **k: steps.append("batch"))
        cfg = SolverConfig(tau=5e-5, t_final=0.01)
        with pytest.raises(ValueError, match="different grid"):
            solution_convergence_study(g, cfg, DoubleWell(), moll, (0.16, 0.08, 0.04), other)
        assert steps == []

    def test_solution_study_rejects_a_torus_before_any_step(self, moll, monkeypatch):
        # cos(pi x) and the named initial data jump at the wrap of a torus
        g = UniformGrid((1.0,), (256,), "periodic")
        steps = []
        monkeypatch.setattr(experiments, "run", lambda *a, **k: steps.append("run"))
        monkeypatch.setattr(experiments, "run_batch", lambda *a, **k: steps.append("batch"))
        cfg = SolverConfig(tau=5e-5, t_final=0.01)
        with pytest.raises(ValueError, match="zero-flux"):
            solution_convergence_study(g, cfg, DoubleWell(), moll, (0.16, 0.08, 0.04), "cosmix")
        assert steps == []

    def test_initial_data_registry(self):
        g = UniformGrid((1.0,), (128,), "neumann")
        f = make_initial_field(g, "threshold")
        assert np.max(np.abs(f.values)) < 0.5
        with pytest.raises(ValueError, match="unknown initial data"):
            make_initial_field(g, "bogus")

    @pytest.mark.parametrize("name", ["cosmix", "threshold"])
    def test_non_periodic_initial_data_rejected_on_a_torus(self, name):
        torus = UniformGrid((1.0,), (256,), "periodic")
        with pytest.raises(ValueError, match=f"{name!r} is not periodic"):
            make_initial_field(torus, name)
        field = make_initial_field(torus, "random")
        assert field.grid == torus
        # a field given as such is the caller's to vouch for
        assert make_initial_field(torus, field) is field

    def test_non_periodic_test_function_rejected_on_a_torus(self):
        torus = UniformGrid((1.0,), (256,), "periodic")
        with pytest.raises(ValueError) as info:
            make_test_field(torus, "cospix")
        assert str(info.value) == (
            "test function 'cospix' is not periodic: it jumps at the wrap of a torus; "
            "use one of ['sinmix', 'flatbump', 'one'] or a zero-flux box")

    @pytest.mark.parametrize("shape", [(64,), (256,), (32, 48)])
    @pytest.mark.parametrize("registry, resolve", [
        (experiments.TEST_FUNCTIONS, make_test_field),
        (experiments.INITIAL_DATA, make_initial_field),
    ])
    def test_a_torus_takes_exactly_the_names_without_a_wrap_jump(self, shape, registry,
                                                                  resolve):
        # a name is periodic when, on every axis, its jump across the wrap is
        # no larger than twice its largest step between neighbours
        torus = UniformGrid((1.0,) * len(shape), shape, "periodic")
        verdicts = {}
        for name, builder in registry.items():
            v = builder(torus)
            verdicts[name] = all(
                np.max(np.abs(np.take(v, 0, a) - np.take(v, -1, a)))
                <= 2 * np.max(np.abs(np.diff(v, axis=a))) for a in range(v.ndim))
            if verdicts[name]:
                assert resolve(torus, name).grid == torus
            else:
                with pytest.raises(ValueError, match=f"{name!r} is not periodic"):
                    resolve(torus, name)
        assert any(verdicts.values()) and not all(verdicts.values())
