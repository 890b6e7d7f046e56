import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonloclab import experiments
from nonloclab.grid import UniformGrid, l2_norm, sample
from nonloclab.kernels import Kernel, fourier_symbol, make_mollifier
from nonloclab.local_ops import laplacian
from nonloclab.nonlocal_ops import apply_fft
from nonloclab.potentials import DoubleWell
from nonloclab.solvers import SolverConfig
from nonloclab.experiments import (
    default_symbol_lattice,
    energy_rate_study,
    fit_rate,
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
    def test_one_quadrature_per_distinct_radius(self, n, per_scale):
        with mock.patch.object(experiments, "fourier_symbol",
                               wraps=experiments.fourier_symbol) as spy:
            symbol_study(make_mollifier(n), self.LADDER)
        assert spy.call_count == per_scale * len(self.LADDER)
        radii = [float(np.sqrt(np.sum(np.asarray(c.args[1]) ** 2))) for c in spy.call_args_list]
        assert len(set(radii)) == per_scale


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
        assert set(small_study.records) == {0.16, 0.08, 0.04}
        rec = small_study.records[0.08]
        assert rec.fields is not None
        assert len(rec.fields) == len(rec.times)

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
        from dataclasses import replace

        g = UniformGrid((1.0,), (256,), "neumann")
        pot = DoubleWell(K=1.0)
        cfg = SolverConfig(tau=5e-5, t_final=0.01, record_every=20, keep_fields=True)
        init = make_initial_field(g, "cosmix")
        ref = run(init, reference_config(cfg), pot, "local-ch")
        rec = run(init, cfg, pot, "nonlocal-ch", Kernel(moll, 0.8))
        sup_err = max(l2_norm(a - b) for a, b in zip(rec.fields, ref.fields))
        mean_state = Field(g, np.full(g.shape, float(np.mean(init.values))))
        traj_scale = max(l2_norm(f - mean_state) for f in ref.fields)
        assert sup_err > 0.05 * traj_scale

        small = run(init, cfg, pot, "nonlocal-ch", Kernel(moll, 0.08))
        sup_small = max(l2_norm(a - b) for a, b in zip(small.fields, ref.fields))
        assert sup_err > 20 * sup_small


class TestGronwallTrace:
    def test_zero_difference_gives_zero_traces(self, moll):
        g = UniformGrid((1.0,), (128,), "neumann")
        cfg = SolverConfig(tau=1e-4, t_final=5e-3, record_every=10, keep_fields=True)
        from nonloclab.solvers import run

        rec = run(make_initial_field(g, "cosmix"), cfg, DoubleWell(), "local-ch")
        trace = gronwall_trace(rec, rec, Kernel(moll, 0.1))
        assert np.all(trace.dual_sq_half == 0.0)
        assert np.all(trace.l2_sq_half == 0.0)
        assert np.all(trace.pair_energy_half == 0.0)
        assert trace.empirical_constant == 0.0
        assert trace.holds_with(0.0)

    def test_inequality_holds_and_is_stable_under_refinement(self):
        moll = make_mollifier(1)
        g = UniformGrid((1.0,), (256,), "neumann")
        pot = DoubleWell(K=1.0)

        def constant(tau, every):
            cfg = SolverConfig(tau=tau, t_final=0.01, record_every=every)
            res = solution_convergence_study(g, cfg, pot, moll, (0.16, 0.08, 0.04),
                                             "cosmix", perturbation_scale=0.0)
            tr = gronwall_trace(res.records[0.08], res.reference, Kernel(moll, 0.08))
            assert tr.holds_with(tr.empirical_constant)
            return tr.empirical_constant

        c1 = constant(4e-5, 25)
        c2 = constant(2e-5, 50)
        assert c1 > 0 and c2 > 0
        assert max(c1, c2) / min(c1, c2) < 2.0

    def test_time_mismatch_rejected(self, moll):
        from nonloclab.solvers import run

        g = UniformGrid((1.0,), (128,), "neumann")
        pot = DoubleWell()
        init = make_initial_field(g, "cosmix")
        rec_a = run(init, SolverConfig(tau=1e-4, t_final=5e-3, record_every=10,
                                       keep_fields=True), pot, "local-ch")
        rec_b = run(init, SolverConfig(tau=1e-4, t_final=5e-3, record_every=25,
                                       keep_fields=True), pot, "local-ch")
        with pytest.raises(ValueError, match="time grids"):
            gronwall_trace(rec_a, rec_b, Kernel(moll, 0.1))

    def test_requires_checkpoints(self, moll):
        from nonloclab.solvers import run

        g = UniformGrid((1.0,), (128,), "neumann")
        rec = run(make_initial_field(g, "cosmix"),
                  SolverConfig(tau=1e-4, t_final=5e-3, record_every=10),
                  DoubleWell(), "local-ch")
        with pytest.raises(ValueError, match="checkpoints"):
            gronwall_trace(rec, rec, Kernel(moll, 0.1))

    def test_integrated_pair_energy_trend(self, moll):
        # the time integral of the pair energy of the difference has to decay
        # at least as fast as the square root of the scale
        g = UniformGrid((1.0,), (256,), "neumann")
        cfg = SolverConfig(tau=4e-5, t_final=0.01, record_every=25)
        eps = (0.16, 0.08, 0.04)
        res = solution_convergence_study(g, cfg, DoubleWell(), moll, eps,
                                         "cosmix", perturbation_scale=0.0)
        integrals = [
            gronwall_trace(res.records[e], res.reference, Kernel(moll, e)).energy_time_integral
            for e in eps
        ]
        assert all(v > 0 for v in integrals)
        table = fit_rate(zip(eps, integrals))
        assert table.fitted_slope >= 0.45


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
