import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from nonloclab import nonlocal_ops
from nonloclab.cli import main
from nonloclab.experiments import make_initial_field
from nonloclab.grid import (
    Field,
    UniformGrid,
    integrate,
    inverse_transform_values,
    l2_norm,
    laplacian_symbol,
    sample,
    transform_values,
)
from nonloclab.kernels import make_kernel
from nonloclab.nonlocal_ops import ResolutionWarning, apply_fft_values, stencil_symbol
from nonloclab.potentials import DoubleWell, LogarithmicPotential
from nonloclab.solvers import (
    SolverConfig,
    SolverDivergedError,
    TrajectoryRecord,
    _Stepper,
    reference_config,
    resolve_stabilization,
    run,
    run_batch,
)


@pytest.fixture
def grid():
    return UniformGrid((1.0,), (128,), "neumann")


@pytest.fixture
def pot():
    return DoubleWell(K=1.0)


SMALL = SolverConfig(tau=1e-4, t_final=1e-3)


def one_step(state, potential, equation, kernel=None):
    """The state after one step of SMALL's size: ``run`` to ``t_final = tau``."""
    config = replace(SMALL, t_final=SMALL.tau, record_every=1, keep_fields=True)
    return run(state, config, potential, equation, kernel).fields[-1]


class TestFixedPoints:
    def test_constants_are_fixed_for_conserved_flows(self, grid, pot):
        c = Field(grid, np.full(grid.shape, 0.37))
        out = one_step(c, pot, "local-ch")
        assert np.max(np.abs(out.values - 0.37)) < 1e-13
        k = make_kernel(1, 0.1)
        out = one_step(c, pot, "nonlocal-ch", k)
        assert np.max(np.abs(out.values - 0.37)) < 1e-13

    def test_wells_are_fixed_for_nonconserved_flows(self, grid, pot):
        k = make_kernel(1, 0.1)
        for value in (1.0, -1.0):
            c = Field(grid, np.full(grid.shape, value))
            assert np.max(np.abs(one_step(c, pot, "local-ac").values - value)) < 1e-13
            assert np.max(np.abs(one_step(c, pot, "nonlocal-ac", k).values - value)) < 1e-13

    def test_zero_data_stays_zero(self, grid, pot):
        zero = Field(grid, np.zeros(grid.shape))
        cfg = SolverConfig(tau=1e-4, t_final=1e-2, record_every=10)
        rec = run(zero, cfg, pot, "local-ch")
        assert np.all(rec.mass == 0.0)
        assert float(np.max(np.abs(rec.energy - rec.energy[0]))) < 1e-14


class TestConservation:
    @pytest.mark.parametrize("equation", ["local-ch", "nonlocal-ch"])
    def test_mass_constant_along_run(self, grid, pot, equation):
        rng = np.random.default_rng(0)
        init = Field(grid, 0.1 + 0.05 * rng.standard_normal(grid.shape))
        kernel = make_kernel(1, 0.1) if equation.startswith("nonlocal") else None
        cfg = SolverConfig(tau=1e-5, t_final=2e-2, record_every=100)
        rec = run(init, cfg, pot, equation, kernel)
        assert np.max(np.abs(rec.mass - rec.mass[0])) <= 1e-10 * grid.volume

    def test_nonconserved_flow_moves_mass(self, grid, pot):
        init = Field(grid, np.full(grid.shape, 0.3))
        cfg = SolverConfig(tau=1e-4, t_final=0.1, record_every=100)
        rec = run(init, cfg, pot, "local-ac")
        assert abs(rec.mass[-1] - rec.mass[0]) > 1e-3


class TestEnergyDissipation:
    @pytest.mark.parametrize("equation", ["local-ch", "nonlocal-ch", "local-ac", "nonlocal-ac"])
    def test_energy_non_increasing(self, grid, pot, equation):
        rng = np.random.default_rng(1)
        init = Field(grid, 0.05 * rng.standard_normal(grid.shape))
        kernel = make_kernel(1, 0.1) if equation.startswith("nonlocal") else None
        cfg = SolverConfig(tau=2e-5, t_final=5e-3, record_every=25)
        rec = run(init, cfg, pot, equation, kernel)
        assert np.all(np.diff(rec.energy) <= 1e-10)

    def test_logarithmic_potential_run(self, grid):
        pot = LogarithmicPotential(theta=0.8, theta_c=1.0)
        rng = np.random.default_rng(2)
        init = Field(grid, 0.1 * rng.standard_normal(grid.shape))
        cfg = SolverConfig(tau=2e-5, t_final=5e-3, record_every=25)
        rec = run(init, cfg, pot, "local-ch")
        assert np.all(np.diff(rec.energy) <= 1e-10)
        assert np.max(np.abs(rec.mass - rec.mass[0])) < 1e-12


class TestAgainstAnalyticDynamics:
    def test_spinodal_growth_rate(self, pot):
        # linearized conserved dynamics around zero: one Fourier mode grows
        # like exp(lam (4K - lam) t); mode one on a 2 pi box has lam = 1
        g = UniformGrid((2 * math.pi,), (128,), "periodic")
        amp = 1e-6
        init = sample(g, lambda x: amp * np.cos(x))
        cfg = SolverConfig(tau=1e-6, t_final=1e-2, record_every=10000, keep_fields=True)
        rec = run(init, cfg, pot, "local-ch")
        growth = math.log(l2_norm(rec_field(rec, -1)) / l2_norm(rec_field(rec, 0)))
        rate = growth / rec.times[-1]
        assert rate == pytest.approx(3.0, rel=0.02)

    def test_stable_mode_decays(self, pot):
        g = UniformGrid((2 * math.pi,), (128,), "periodic")
        init = sample(g, lambda x: 1e-6 * np.cos(3 * x))
        cfg = SolverConfig(tau=1e-6, t_final=1e-3, record_every=1000, keep_fields=True)
        rec = run(init, cfg, pot, "local-ch")
        rate = math.log(l2_norm(rec_field(rec, -1)) / l2_norm(rec_field(rec, 0))) / rec.times[-1]
        assert rate == pytest.approx(9.0 * (4.0 - 9.0), rel=0.05)

    def test_homogeneous_relaxation_matches_closed_form(self, pot):
        # spatially flat data reduces the non-conserved flow to a scalar
        # equation whose square obeys a logistic law
        g = UniformGrid((1.0,), (8,), "neumann")
        c0 = 0.3
        init = Field(g, np.full(g.shape, c0))
        cfg = SolverConfig(tau=1e-5, t_final=0.5, record_every=5000)
        rec = run(init, cfg, pot, "local-ac")
        t = rec.times[-1]
        y = c0**2 * math.exp(8 * t) / (1 + c0**2 * (math.exp(8 * t) - 1))
        assert rec.mass[-1] == pytest.approx(math.sqrt(y), rel=1e-3)
        assert np.all(np.diff(rec.mass) > 0)  # monotone climb toward the well


def rec_field(record, idx):
    if record.fields is None:
        raise AssertionError("run was not configured to keep fields")
    return record.fields[idx]


class TestSchemeProperties:
    def test_first_order_in_time(self, pot):
        g = UniformGrid((1.0,), (64,), "periodic")
        init = sample(g, lambda x: 0.2 * np.sin(2 * np.pi * x))
        taus = (4e-5, 2e-5, 1e-5)

        def final_state(tau):
            cfg = SolverConfig(tau=tau, t_final=4e-3, record_every=10**6, keep_fields=True)
            return run(init, cfg, pot, "local-ch").fields[-1]

        ref_field = final_state(1.25e-6)
        errors = [l2_norm(final_state(t) - ref_field) for t in taus]
        slopes = [math.log(a / b) / math.log(2) for a, b in zip(errors, errors[1:])]
        assert all(abs(s - 1.0) <= 0.15 for s in slopes)

    def test_final_time_must_be_whole_steps(self, grid, pot):
        init = sample(grid, lambda x: 0.1 * np.cos(np.pi * x))
        with pytest.raises(ValueError, match="whole number of steps"):
            run(init, SolverConfig(tau=0.03, t_final=0.1), pot, "local-ch")
        # a step count that is whole up to rounding still runs to t_final
        rec = run(init, SolverConfig(tau=0.1 / 3, t_final=0.1), pot, "local-ch")
        assert rec.times[-1] == pytest.approx(0.1, rel=1e-12)

    def test_divergence_detector(self, grid):
        # the cubic term stays explicit, so large data and a large step blow
        # up (at step 4) and must abort with a diagnostic
        cfg = SolverConfig(tau=1.0, t_final=50.0, record_every=10)
        init = sample(grid, lambda x: 3.0 * np.cos(np.pi * x))
        with pytest.raises(SolverDivergedError, match="diverged"):
            run(init, cfg, DoubleWell(K=1.0), "local-ch")

    def test_stabilization_floor_enforced(self, grid, pot):
        cfg = SolverConfig(tau=1e-4, t_final=1e-3, stabilization=1.0)
        init = sample(grid, lambda x: 0.1 * np.cos(np.pi * x))
        with pytest.raises(ValueError, match="curvature bound"):
            run(init, cfg, pot, "local-ch")
        assert resolve_stabilization(SolverConfig(tau=1e-4, t_final=1e-3), pot) == pot.alpha

    def test_kernel_required_for_nonlocal(self, grid, pot):
        init = sample(grid, lambda x: 0.1 * np.cos(np.pi * x))
        with pytest.raises(ValueError, match="kernel"):
            run(init, SMALL, pot, "nonlocal-ch")

    @pytest.mark.parametrize("equation", ["local-ch", "local-ac"])
    def test_local_flow_takes_no_kernel(self, grid, pot, equation):
        # a kernel given to a local flow was once dropped without a word
        init = sample(grid, lambda x: 0.1 * np.cos(np.pi * x))
        k = make_kernel(1, 0.1)
        message = f"{equation} takes no kernel"
        with pytest.raises(ValueError, match=message):
            run(init, SMALL, pot, equation, k)
        with pytest.raises(ValueError, match=message):
            run_batch([init, init], SMALL, pot, equation, [None, k])

    def test_unknown_equation(self, grid, pot):
        init = sample(grid, lambda x: x)
        with pytest.raises(ValueError, match="equation"):
            run(init, SMALL, pot, "heat")

    @pytest.mark.parametrize("equation", ["nonlocal-ch", "nonlocal-ac"])
    @pytest.mark.parametrize("lengths, cells, eps", [
        ((1.0,), (128,), 0.005),                 # support well inside one cell
        ((1.0,), (128,), 1 / 128),               # support ends exactly at the next node
        ((1.0, 2.0), (32, 32), 0.03),            # short of both spacings
    ])
    def test_kernel_reaching_no_node_is_rejected(self, pot, equation, lengths, cells, eps):
        # every off-centre stencil weight is zero: the flow would run a zero operator
        g = UniformGrid(lengths, cells, "neumann")
        init = Field(g, np.zeros(g.shape))
        cfg = SolverConfig(tau=1e-7, t_final=1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            with pytest.raises(ValueError, match=r"eps = .*spacing"):
                run(init, cfg, pot, equation, make_kernel(g.dimension, eps))
            with pytest.raises(ValueError, match=r"eps = .*spacing"):
                run_batch([init, init], cfg, pot, equation,
                          [make_kernel(g.dimension, 0.2), make_kernel(g.dimension, eps)])

    def test_kernel_reaching_one_node_runs(self, pot):
        # just past one cell: the nearest neighbours carry weight, the operator is not zero
        g = UniformGrid((1.0,), (128,), "neumann")
        init = sample(g, lambda x: 0.1 * np.cos(np.pi * x))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            out = one_step(init, pot, "nonlocal-ac", make_kernel(1, 1.5 / 128))
        assert np.all(np.isfinite(out.values))


class TestTwoDimensional:
    def test_nonlocal_ch_2d_structure(self):
        g = UniformGrid((1.0, 1.0), (32, 32), "neumann")
        k = make_kernel(2, 0.2)
        pot = DoubleWell(K=1.0)
        rng = np.random.default_rng(6)
        init = Field(g, 0.05 * rng.standard_normal(g.shape))
        cfg = SolverConfig(tau=2e-5, t_final=2e-3, record_every=20)
        rec = run(init, cfg, pot, "nonlocal-ch", k)
        assert np.max(np.abs(rec.mass - rec.mass[0])) <= 1e-12
        assert np.all(np.diff(rec.energy) <= 1e-10)

    @pytest.mark.parametrize("equation", ["nonlocal-ch", "nonlocal-ac"])
    def test_zero_flux_steps_apply_no_padded_fft(self, equation):
        # the steps take the wall remainder from strips; only the records'
        # energies go through the padded-FFT operator, once per record
        g = UniformGrid((1.0, 1.5), (32, 40), "neumann")
        k = make_kernel(2, 0.2)
        rng = np.random.default_rng(8)
        init = Field(g, 0.05 * rng.standard_normal(g.shape))
        cfg = SolverConfig(tau=2e-5, t_final=50 * 2e-5, record_every=50)
        nonlocal_ops._stencil_data(k, g)  # the cached stencil build runs one irfftn
        with mock.patch.object(nonlocal_ops, "apply_fft_values",
                               wraps=nonlocal_ops.apply_fft_values) as operator, \
                mock.patch.object(scipy.fft, "irfftn", wraps=scipy.fft.irfftn) as padded:
            rec = run(init, cfg, DoubleWell(K=1.0), equation, k)
        assert len(rec.times) == 2
        assert operator.call_count == len(rec.times)
        assert padded.call_count == len(rec.times)

    def test_local_ch_2d_fixed_point(self):
        g = UniformGrid((1.0, 2.0), (16, 32), "neumann")
        c = Field(g, np.full(g.shape, -0.2))
        out = one_step(c, DoubleWell(), "local-ch")
        assert np.max(np.abs(out.values + 0.2)) < 1e-13


class TestRecords:
    def test_reference_config_aligns_times(self, grid, pot):
        init = sample(grid, lambda x: 0.1 * np.cos(np.pi * x))
        cfg = SolverConfig(tau=1e-4, t_final=1e-2, record_every=10, keep_fields=True)
        rec = run(init, cfg, pot, "local-ch")
        ref = run(init, reference_config(cfg), pot, "local-ch")
        assert rec.times.shape == ref.times.shape
        assert np.allclose(rec.times, ref.times, rtol=1e-12, atol=1e-15)

    def test_csv_output(self, grid, pot, tmp_path):
        code = main(["solve", "--eq", "local-ch", "--N", "128", "--T", "1e-3",
                     "--tau", "1e-4", "--record-every", "5", "--out", str(tmp_path)])
        assert code == 0
        cfg = SolverConfig(tau=1e-4, t_final=1e-3, record_every=5)
        rec = run(make_initial_field(grid, "cosmix"), cfg, pot, "local-ch")
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,mass,energy"
        assert len(lines) == len(rec.times) + 1
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(rows, np.column_stack([rec.times, rec.mass, rec.energy]))

    def test_record_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            TrajectoryRecord("local-ch", np.asarray([0.0, 0.0]),
                             np.zeros(2), np.zeros(2))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tau=0.0, t_final=1.0)
        with pytest.raises(ValueError):
            SolverConfig(tau=1.0, t_final=0.5)
        with pytest.raises(ValueError):
            SolverConfig(tau=1e-3, t_final=1.0, record_every=0)


def _reference_stepper(grid, equation, config, potential, kernel):
    """The five-transform step the spectral-state stepper replaced: each step
    transforms the values afresh and, for the nonlocal flows, applies the
    true operator through the padded FFT."""
    nonlocal_eq = equation.startswith("nonlocal")
    lam = laplacian_symbol(grid)
    drive = config.mobility * lam if equation.endswith("ch") else np.ones_like(lam)
    stab = resolve_stabilization(config, potential)
    nu = stencil_symbol(kernel, grid) if nonlocal_eq else lam
    denom = 1.0 + config.tau * drive * (nu + stab)

    def step_values(values):
        chat = transform_values(grid, values)
        fp = potential.fprime(values)
        if nonlocal_eq:
            ghat = transform_values(grid, apply_fft_values(kernel, grid, values) + fp)
        else:
            ghat = lam * chat + transform_values(grid, fp)
        chat = chat - config.tau * drive * ghat / denom
        return inverse_transform_values(grid, chat)

    return step_values


def _assert_matches_five_transform_reference(equation, lengths, cells, eps, boundary, gains):
    g = UniformGrid(lengths, cells, boundary)
    kernel = make_kernel(g.dimension, eps) if equation.startswith("nonlocal") else None
    pot = DoubleWell(K=1.0)
    tau = 1e-4
    n_steps = 200
    cfg = SolverConfig(tau=tau, t_final=n_steps * tau, record_every=n_steps, keep_fields=True,
                       **gains)
    rng = np.random.default_rng(7)
    smooth = sample(g, lambda *xs: 0.3 * math.prod(np.cos(np.pi * x) for x in xs))
    init = Field(g, smooth.values + 0.05 * rng.standard_normal(g.shape))

    out = run(init, cfg, pot, equation, kernel).fields[-1].values
    ref_step = _reference_stepper(g, equation, cfg, pot, kernel)
    ref = init.values
    for _ in range(n_steps):
        ref = ref_step(ref)
    assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)


# the default gain, and one with a mobility (conserved flows only) and a
# stabilization above the curvature bound, so every factor of the decay and
# gain is checked away from 1 and from alpha
GAINS = pytest.mark.parametrize("gains", [
    pytest.param({}, id="default-gain"),
    pytest.param({"mobility": 3.0, "stabilization": 5.0}, id="raised-gain"),
])


class TestSpectralStateStepper:
    @GAINS
    @pytest.mark.parametrize("equation", ["local-ch", "nonlocal-ch", "local-ac", "nonlocal-ac"])
    @pytest.mark.parametrize("lengths, cells, eps", [
        ((1.0,), (64,), 0.2),
        ((1.0, 1.5), (20, 24), 0.3),
        ((1.0, 1.0), (128, 128), 0.1),   # 2D wall strips of reach 13
    ])
    @pytest.mark.parametrize("boundary", ["neumann", "periodic"])
    def test_matches_five_transform_reference(self, equation, lengths, cells, eps, boundary,
                                              gains):
        _assert_matches_five_transform_reference(equation, lengths, cells, eps, boundary, gains)

    # 2D wall strips of reach 9; the local flows take no kernel, so a second
    # scale would repeat their eps 0.1 cases exactly
    @GAINS
    @pytest.mark.parametrize("equation", ["nonlocal-ch", "nonlocal-ac"])
    @pytest.mark.parametrize("boundary", ["neumann", "periodic"])
    def test_matches_five_transform_reference_narrow_kernel(self, equation, boundary, gains):
        _assert_matches_five_transform_reference(equation, (1.0, 1.0), (128, 128), 0.07,
                                                 boundary, gains)

    @settings(max_examples=25, deadline=None)
    @given(
        dimension=st.sampled_from([1, 2]),
        cells=st.integers(12, 40),
        eps=st.floats(0.1, 0.4),  # periodic grids need 2 * reach + 1 <= cells
        boundary=st.sampled_from(["neumann", "periodic"]),
        equation=st.sampled_from(["local-ch", "nonlocal-ch"]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_conserved_flows_conserve_mass(self, dimension, cells, eps, boundary,
                                           equation, seed):
        g = UniformGrid((1.0,) * dimension, (cells,) * dimension, boundary)
        kernel = make_kernel(dimension, eps) if equation == "nonlocal-ch" else None
        rng = np.random.default_rng(seed)
        init = Field(g, rng.uniform(-1.0, 1.0, g.shape))
        cfg = SolverConfig(tau=1e-4, t_final=5e-3, record_every=10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            rec = run(init, cfg, DoubleWell(K=1.0), equation, kernel)
        assert np.max(np.abs(rec.mass - integrate(init))) <= 1e-10


def _assert_records_equal(a, b):
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.mass, b.mass)
    assert np.array_equal(a.energy, b.energy)
    assert len(a.fields) == len(b.fields)
    for fa, fb in zip(a.fields, b.fields):
        assert np.array_equal(fa.values, fb.values)


class TestRunBatch:
    @pytest.mark.parametrize("equation", ["local-ch", "nonlocal-ch", "local-ac", "nonlocal-ac"])
    @pytest.mark.parametrize("lengths, cells", [((1.0,), (65,)), ((1.0, 1.5), (21, 24))])
    @pytest.mark.parametrize("boundary", ["neumann", "periodic"])
    def test_members_equal_separate_runs(self, equation, lengths, cells, boundary):
        g = UniformGrid(lengths, cells, boundary)
        rng = np.random.default_rng(7)
        epsilons = (0.4, 0.3, 0.25)
        inits = [Field(g, rng.uniform(-0.5, 0.5, g.shape)) for _ in epsilons]
        if equation.startswith("nonlocal"):
            kernels = [make_kernel(g.dimension, e) for e in epsilons]
        else:
            kernels = [None] * len(epsilons)
        cfg = SolverConfig(tau=1e-4, t_final=3e-3, record_every=7, keep_fields=True)
        pot = DoubleWell(K=1.0)
        records = run_batch(inits, cfg, pot, equation, kernels)
        assert len(records) == len(inits)
        for init, kernel, record in zip(inits, kernels, records):
            _assert_records_equal(record, run(init, cfg, pot, equation, kernel))

    def test_logarithmic_members_equal_separate_runs(self, grid):
        rng = np.random.default_rng(8)
        inits = [Field(grid, rng.uniform(-0.9, 0.9, grid.shape)) for _ in range(2)]
        kernels = [make_kernel(1, e) for e in (0.2, 0.1)]
        cfg = SolverConfig(tau=1e-5, t_final=2e-4, record_every=5, keep_fields=True)
        records = run_batch(inits, cfg, LogarithmicPotential(0.8, 1.0), "nonlocal-ac", kernels)
        for init, kernel, record in zip(inits, kernels, records):
            _assert_records_equal(
                record, run(init, cfg, LogarithmicPotential(0.8, 1.0), "nonlocal-ac", kernel))

    def test_diverging_member_names_its_epsilon(self, grid):
        # the cubic term stays explicit, so large data and a large step blow
        # the rough member up (at step 4)
        wide, narrow = make_kernel(1, 0.4), make_kernel(1, 0.1)
        cfg = SolverConfig(tau=1.0, t_final=50.0, record_every=10)
        pot = DoubleWell(K=1.0)
        rough = sample(grid, lambda x: 3.0 * np.cos(np.pi * x))
        # a constant is a fixed point of the conserved flow; its peak of 1e12
        # gives it a guard of 1e18, above the rough member's peak at the step
        # where the rough member's own guard of 3e6 trips
        flat = Field(grid, np.full(grid.shape, 1e12))
        run(flat, cfg, pot, "nonlocal-ch", wide)
        with pytest.raises(SolverDivergedError, match=r"epsilon = 0\.1\)") as alone:
            run(rough, cfg, pot, "nonlocal-ch", narrow)
        with pytest.raises(SolverDivergedError) as batched:
            run_batch([flat, rough], cfg, pot, "nonlocal-ch", [wide, narrow])
        # each member is held to its own guard: same step, same peak
        assert str(batched.value) == str(alone.value)

    def test_argument_validation(self, grid, pot):
        init = Field(grid, np.zeros(grid.shape))
        other = Field(UniformGrid((1.0,), (64,)), np.zeros(64))
        with pytest.raises(ValueError, match="one kernel per"):
            run_batch([init, init], SMALL, pot, "local-ch", [None])
        with pytest.raises(ValueError, match="one kernel per"):
            run_batch([], SMALL, pot, "local-ch", [])
        with pytest.raises(ValueError, match="share one grid"):
            run_batch([init, other], SMALL, pot, "local-ch", [None, None])
        with pytest.raises(ValueError, match="kernel"):
            run_batch([init, init], SMALL, pot, "nonlocal-ch", [make_kernel(1, 0.1), None])


class TestConfigValues:
    @pytest.mark.parametrize("field", ["tau", "t_final", "mobility", "stabilization"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_values_rejected(self, field, value):
        params = {"tau": 1e-3, "t_final": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SolverConfig(**params)

    @pytest.mark.parametrize("record_every", [2.5, 2.0, "3"])
    def test_non_integer_record_every_rejected(self, record_every):
        with pytest.raises(ValueError, match="record_every must be an integer"):
            SolverConfig(tau=1e-3, t_final=1.0, record_every=record_every)

    def test_integer_types_accepted(self):
        assert SolverConfig(tau=1e-3, t_final=1.0, record_every=np.int64(4)).record_every == 4


class TestDecayAndGain:
    """A step is ``chat = decay * chat - gain * T(g)``, with ``decay = 1 - gain
    * nu`` precomputed: the update ``chat - gain * (T(g) + nu * chat)`` in one
    pass fewer."""

    @pytest.mark.parametrize("cells", [(32,), (12, 16)])
    @pytest.mark.parametrize("boundary", ["neumann", "periodic"])
    @pytest.mark.parametrize("equation", ["local-ch", "nonlocal-ch"])
    def test_mass_mode_is_kept_exactly(self, cells, boundary, equation):
        g = UniformGrid((1.0,) * len(cells), cells, boundary)
        nonlocal_eq = equation.startswith("nonlocal")
        kernels = [make_kernel(len(cells), e) if nonlocal_eq else None for e in (0.3, 0.2)]
        stepper = _Stepper(g, equation, SolverConfig(tau=1e-3, t_final=1e-3),
                           DoubleWell(K=1.0), kernels)
        mass_mode = (slice(None),) + (0,) * len(cells)
        assert np.all(stepper.decay[mass_mode] == 1.0)
        assert np.all(stepper.gain[mass_mode] == 0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        dimension=st.sampled_from([1, 2]),
        cells=st.integers(12, 40),
        eps=st.floats(0.1, 0.4),
        boundary=st.sampled_from(["neumann", "periodic"]),
        equation=st.sampled_from(["local-ch", "nonlocal-ch", "local-ac", "nonlocal-ac"]),
        log_tau=st.floats(-7.0, 0.0),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_step_equals_unfolded_update(self, dimension, cells, eps, boundary, equation,
                                         log_tau, seed):
        g = UniformGrid((1.0,) * dimension, (cells,) * dimension, boundary)
        kernel = make_kernel(dimension, eps) if equation.startswith("nonlocal") else None
        tau = 10.0**log_tau
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            stepper = _Stepper(g, equation, SolverConfig(tau=tau, t_final=tau),
                               DoubleWell(K=1.0), [kernel])
        chat = transform_values(g, np.random.default_rng(seed).uniform(-1.0, 1.0, (1, *g.shape)))
        values = inverse_transform_values(g, chat)
        drive = stepper.potential.fprime(values)
        for m, remainder in enumerate(stepper.remainders):
            remainder.subtract(values[m], drive[m])
        unfolded = chat - stepper.gain * (transform_values(g, drive) + stepper.nu * chat)
        _, stepped = stepper.step_values(values, chat)
        assert np.max(np.abs(stepped - unfolded)) <= 1e-13 * np.max(np.abs(unfolded))


class TestGainOverflow:
    """The semi-implicit gain ``tau d / (1 + tau d (nu + s))`` tends to
    ``1 / (nu + s)`` where ``tau d (nu + s)`` overflows; there it takes that
    limit, and every other gain keeps the formula's bits."""

    @staticmethod
    def _stepper(equation, config, eps=None):
        g = UniformGrid((1.0,), (16,), "neumann")
        kernel = None if eps is None else make_kernel(1, eps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return _Stepper(g, equation, config, DoubleWell(K=1.0), [kernel])

    @pytest.mark.parametrize("equation, eps", [("local-ch", None), ("nonlocal-ch", 0.3),
                                               ("local-ac", None), ("nonlocal-ac", 0.3)])
    # the flows (by their drive, mobility * lam or 1) whose denominator overflows
    @pytest.mark.parametrize("tau, mobility, overflowing", [
        (1e-4, 1.0, ""), (1e300, 1.0, ""), (1e300, 1e3, "ch"), (1e300, 1e10, "ch"),
        (1e308, 1e300, "ch ac"),
    ])
    def test_overflowed_gains_take_their_limit(self, equation, eps, tau, mobility,
                                               overflowing):
        config = SolverConfig(tau=tau, t_final=tau, mobility=mobility)
        stepper = self._stepper(equation, config, eps)
        gain = stepper.gain
        assert np.all(np.isfinite(gain))
        s = resolve_stabilization(config, stepper.potential)
        lam = laplacian_symbol(stepper.grid)
        drive = mobility * lam if equation.endswith("ch") else np.ones_like(lam)
        with np.errstate(over="ignore", invalid="ignore"):
            rate = tau * drive
            denom = 1.0 + rate * (stepper.nu + s)
            formula = rate / denom
        overflowed = np.isinf(denom)
        assert overflowed.any() == (equation[-2:] in overflowing.split())
        assert np.array_equal(gain[~overflowed], formula[~overflowed])
        np.testing.assert_array_equal(gain[overflowed], 1.0 / (stepper.nu + s)[overflowed])
        if equation.endswith("ch"):
            assert gain[..., 0] == 0.0  # the conserved mass mode
        # the share of chat a step keeps, 1 - gain * nu, takes its limit too
        decay = stepper.decay
        assert np.all(np.isfinite(decay))
        assert np.all((decay >= 0.0) & (decay <= 1.0))
        limit = (s / (stepper.nu + s))[overflowed]
        np.testing.assert_allclose(decay[overflowed], limit, rtol=0, atol=4 * np.finfo(float).eps)

    def test_cli_run_with_overflowing_rate_exits_0(self, tmp_path):
        out = tmp_path / "huge"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve", "--eq", "local-ch", "--N", "16", "--T", "1e300",
                         "--tau", "1e300", "--mobility", "1e10", "--out", str(out)])
        assert code == 0
        # past the float range the gain no longer depends on the mobility
        assert main(["solve", "--eq", "local-ch", "--N", "16", "--T", "1e300", "--tau", "1e300",
                     "--mobility", "1e3", "--out", str(tmp_path / "m3")]) == 0
        assert ((out / "trajectory.csv").read_bytes()
                == (tmp_path / "m3" / "trajectory.csv").read_bytes())
