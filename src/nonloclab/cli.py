"""Batch front end: parse a config, dispatch one study or solver run, write reports.

One study per invocation; composition happens in the shell.  Exit codes:
0 on success, 1 when a fitted rate misses its acceptance band (or a checked
identity fails), 2 on usage or configuration errors and on a diverged run.
Commands only list their output files; ``main`` writes them, after the
resolved configuration, once the call is accepted, so a rejected call writes
nothing.  Identical configurations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import io
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .experiments import (
    INITIAL_DATA,
    TEST_FUNCTIONS,
    energy_rate_study,
    gronwall_audit,
    make_initial_field,
    operator_rate_study,
    remainder_rate_study,
    solution_convergence_study,
    symbol_study,
)
from .grid import Field, UniformGrid, l2_norm, save_field
from .kernels import (
    SUPPORTED_DIMENSIONS,
    Kernel,
    MollifierSpec,
    eval_J,
    make_mollifier,
    moment_first,
    moment_first_absolute,
    moment_second_trace,
    radial_mass,
    radial_mass_target,
    second_moment_per_axis,
    total_mass,
)
from .nonlocal_ops import _pair_pass, apply_fft, check_support_reaches_nodes, l2_inner
from .potentials import parse_potential
from .reports import write_loglog_svg, write_rate_csv, write_series_csv, write_summary_json
from .solvers import EQUATIONS, SolverConfig, SolverDivergedError, record_steps, run

PASS, BAND_FAIL, USAGE_ERROR = 0, 1, 2
_NONLOCAL_EQUATIONS = tuple(eq for eq in EQUATIONS if eq.startswith("nonlocal"))


def _parse_eps_list(text: str):
    try:
        values = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad scale list {text!r}") from None
    return values


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _nonnegative_float(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {text!r}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {text!r}")
    return value


def _load_config_file(path: str) -> dict[str, str]:
    """Flat key=value text, each key once; blank lines and # comments ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key = key.strip().replace("-", "_")
        if key in out:
            raise ValueError(f"duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _write_resolved_config(outdir: Path, parser: _Parser, args: argparse.Namespace) -> None:
    """Write the call's options as a config file that ``--config`` reads back:
    one ``key=value`` line per set option of the subcommand, keyed by flag
    name, after a comment line naming the subcommand."""
    lines = [f"# nonloclab {args.command}"]
    for key, action in sorted(parser.commands[args.command].options.items()):
        value = getattr(args, action.dest)
        if value is None:
            continue
        if isinstance(value, (tuple, list)):
            value = ",".join(repr(v) if not isinstance(v, float) else f"{v:.17g}" for v in value)
        lines.append(f"{key}={value}")
    (outdir / "resolved_config.txt").write_text("\n".join(lines) + "\n")


def _axis_values(text, convert, flag: str) -> tuple:
    try:
        return tuple(convert(x) for x in str(text).split(","))
    except ValueError:
        raise ValueError(f"{flag} takes comma-separated {convert.__name__} values, "
                         f"got {text!r}") from None


def _make_grid(args) -> tuple[UniformGrid, MollifierSpec]:
    """The call's grid, and its ``--profile`` mollifier in the grid's dimension."""
    cells = _axis_values(args.N, int, "--N")
    lengths = _axis_values(args.L, float, "--L")
    if len(lengths) == 1 and len(cells) > 1:
        lengths = lengths * len(cells)
    grid = UniformGrid(lengths, cells, args.domain)
    return grid, make_mollifier(grid.dimension, args.profile)


def _verdict(files: list, name: str, summary: dict, line: str) -> int:
    """List ``summary`` as ``<name>_summary.json``, print ``line`` with its
    verdict, and return the exit code of ``summary["pass"]``."""
    files.append((f"{name}_summary.json", lambda path: write_summary_json(path, summary)))
    print(f"{line} -> {'pass' if summary['pass'] else 'FAIL'}")
    return PASS if summary["pass"] else BAND_FAIL


def _emit_rate_outputs(files: list, name: str, table, band, extra=None) -> int:
    lo, hi = band
    slope = table.fitted_slope
    summary = {
        "study": name,
        "slope": slope,
        "intercept": table.fitted_intercept,
        "r_squared": table.r_squared,
        "band_min": lo,
        "band_max": hi,
        "pass": not (lo is not None and slope < lo) and not (hi is not None and slope > hi),
        "epsilons": list(table.epsilons),
        "errors": list(table.errors),
        "included_in_fit": [bool(b) for b in table.included],
        **(extra or {}),
    }
    files += [(f"{name}.csv", lambda path: write_rate_csv(path, table)),
              (f"{name}.svg", lambda path: write_loglog_svg(path, table, title=name))]
    return _verdict(files, name, summary,
                    f"{name}: slope {slope:.4f} (r2 {table.r_squared:.4f}) band [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_check_kernel(args, files: list) -> int:
    mollifier = make_mollifier(args.n, args.profile)
    kernel = Kernel(mollifier, args.eps)
    target = radial_mass_target(args.n)
    radial = radial_mass(kernel)
    firsts = [moment_first(kernel, a) for a in range(args.n)]
    # rounding residues of integrals of size int |x_a| J, which grows like 1/eps
    first_scale = moment_first_absolute(kernel)
    trace = moment_second_trace(kernel)
    per_axis = second_moment_per_axis(kernel)
    checks = {
        "normalization": abs(radial - target) <= 1e-10 * target,
        "first_moments": all(abs(v) <= 1e-12 * first_scale for v in firsts),
        "second_moment_per_axis": abs(per_axis - 2.0) <= 1e-8,
    }
    summary = {
        "study": "check-kernel",
        "dimension": args.n,
        "profile": args.profile,
        "epsilon": args.eps,
        "norm_constant": mollifier.norm_constant,
        "radial_mass": radial,
        "radial_mass_target": target,
        "first_moments": firsts,
        "second_moment_trace": trace,
        "second_moment_per_axis": per_axis,
        "total_mass": total_mass(kernel),
        "kernel_at_zero": eval_J(kernel, np.zeros(args.n)),
        "pass": all(checks.values()),
        "checks": checks,
    }
    print(f"normalization: {radial:.12e} (target {target:.12e})")
    print(f"first moments: {firsts}")
    print(f"second moment trace: {trace:.12f} (target {args.n}), "
          f"per axis: {per_axis:.12f} (target 2)")
    return _verdict(files, "check_kernel", summary, "check-kernel")


def _cmd_symbol_rate(args, files: list) -> int:
    mollifier = make_mollifier(args.n, args.profile)
    table = symbol_study(mollifier, args.eps)
    return _emit_rate_outputs(files, "symbol_rate", table, (args.slope_min, args.slope_max))


def _cmd_operator_rate(args, files: list) -> int:
    grid, mollifier = _make_grid(args)
    table = operator_rate_study(grid, mollifier, args.func, args.eps)
    lo, hi = args.slope_min, args.slope_max
    if lo is None and hi is None:
        # default bands: square-root loss at a wall is sharp, so cospix on a
        # box is pinned near one half; everything else just needs fast decay
        if grid.boundary == "neumann" and args.func == "cospix":
            lo, hi = 0.4, 0.7
        elif grid.boundary == "neumann" and args.func == "flatbump":
            lo, hi = 0.85, None
        else:
            lo, hi = 0.9, None
    return _emit_rate_outputs(files, "operator_rate", table, (lo, hi),
                              extra={"domain": grid.boundary, "func": args.func})


def _emit_verdict_outputs(files: list, study: str, result, header, columns, extra) -> int:
    """Outputs of a study judged by its verdict and monotone decay, not a band:
    the series CSV, the summary (``extra`` adds fields; tuples are written as
    JSON arrays), and the log-log plot when a rate was fitted."""
    name = study.replace("-", "_")
    summary = {
        "study": study,
        "verdict": result.verdict,
        "monotone_decreasing": result.monotone_decreasing,
        "epsilons": list(result.epsilons),
        "pass": result.verdict == "exact" or result.monotone_decreasing,
        **extra,
    }
    files.append((f"{name}.csv", lambda path: write_series_csv(path, header, columns)))
    if result.table is not None:
        summary["slope"] = result.table.fitted_slope
        files.append((f"{name}.svg", lambda path: write_loglog_svg(path, result.table, title=name)))
    return _verdict(files, name, summary,
                    f"{study}: verdict {result.verdict}, monotone {result.monotone_decreasing}")


def _cmd_energy_rate(args, files: list) -> int:
    grid, mollifier = _make_grid(args)
    result = energy_rate_study(grid, mollifier, args.func, args.eps)
    return _emit_verdict_outputs(
        files, "energy-rate", result, ["epsilon", "energy", "error"],
        [result.epsilons, result.energies, result.errors],
        {"limit_value": result.limit_value, "energies": result.energies,
         "errors": result.errors},
    )


def _cmd_remainder_rate(args, files: list) -> int:
    grid, mollifier = _make_grid(args)
    result = remainder_rate_study(grid, mollifier, args.func, args.eps,
                                  margin_factor=args.margin_factor)
    return _emit_verdict_outputs(
        files, "remainder-rate", result, ["epsilon", "margin", "value"],
        [result.epsilons, result.margins, result.values],
        {"margin_factor": args.margin_factor, "values": result.values,
         "margins": result.margins},
    )


def _cmd_solve(args, files: list) -> int:
    grid, mollifier = _make_grid(args)  # so a local flow checks --profile too
    potential = parse_potential(args.potential)
    config = SolverConfig(tau=args.tau, t_final=args.T, record_every=args.record_every)
    nonlocal_eq = args.eq.startswith("nonlocal")
    if nonlocal_eq != (args.eps_value is not None):
        raise ValueError("nonlocal equations need --eps" if nonlocal_eq else
                         f"{args.eq} takes no --eps: only the nonlocal equations have a kernel")
    kernel = Kernel(mollifier, args.eps_value) if nonlocal_eq else None
    initial = make_initial_field(grid, args.initial)
    names = []
    if args.checkpoints:
        # run records at these times; the names never decrease with the time,
        # so a repeat is a neighbour's
        names = [f"state_t{step * config.tau:.8f}.bin" for step in record_steps(config)]
        clash = next((a for a, b in zip(names, names[1:]) if a == b), None)
        if clash is not None:
            raise ValueError(f"two records would write the same checkpoint {clash}: names "
                             "keep 8 decimals of the time, so records must lie about 1e-8 "
                             "apart; raise --record-every")
    states = []
    on_record = (lambda i, v: states.append(v[0].copy())) if args.checkpoints else None
    record = run(initial, config, potential, args.eq, kernel, on_record=on_record)
    files.append(("trajectory.csv", lambda path: write_series_csv(
        path, ["t", "mass", "energy"], [record.times, record.mass, record.energy])))
    files += [(name, functools.partial(save_field, Field(grid, values)))
              for name, values in zip(names, states)]
    drift = float(np.max(np.abs(record.mass - record.mass[0])))
    print(f"solve {args.eq}: {len(record.times)} records to t = {record.times[-1]:.6g}; "
          f"mass drift {drift:.3e}; final energy {record.energy[-1]:.8g}")
    return PASS


def _ladder_study(args, study):
    """``study``, the solution study or the Grönwall audit, of the call's
    grid, flow and scale ladder."""
    grid, mollifier = _make_grid(args)
    config = SolverConfig(tau=args.tau, t_final=args.T, record_every=args.record_every)
    return study(grid, config, parse_potential(args.potential), mollifier, args.eps,
                 args.initial, equation=args.eq, perturbation_scale=args.perturbation)


def _cmd_solution_rate(args, files: list) -> int:
    result = _ladder_study(args, solution_convergence_study)
    code = PASS
    extra = {"equation": args.eq, "reference_h3_max": result.reference_h3_max}
    primary = "l2_sup" if args.eq.endswith("ac") else "hminus1_sup"
    for name, table in sorted(result.tables.items()):
        band = (args.slope_min, args.slope_max) if name in (primary, "l2_spacetime") else (None, None)
        rc = _emit_rate_outputs(files, f"solution_rate_{name}", table, band, extra=extra)
        code = max(code, rc)
    return code


def _cmd_oracle_check(args, files: list) -> int:
    grid, mollifier = _make_grid(args)
    kernel = Kernel(mollifier, args.eps_value)
    check_support_reaches_nodes(kernel, grid)
    rng = np.random.default_rng(args.seed)
    field = Field(grid, rng.standard_normal(grid.shape))
    fast = apply_fft(kernel, field)
    direct, double_sum = _pair_pass(kernel, field)
    rel = l2_norm(fast - direct) / l2_norm(direct)
    quad_form = l2_inner(direct, field)
    ratio = quad_form / double_sum
    summary = {
        "study": "oracle-check",
        "relative_l2_difference": rel,
        "tolerance": args.tol,
        "quadratic_form": quad_form,
        "pair_double_sum": double_sum,
        "quadratic_form_over_double_sum": ratio,
        "pass": rel <= args.tol and abs(ratio - 0.5) <= 1e-10,
    }
    return _verdict(files, "oracle_check", summary,
                    f"oracle-check: fft vs direct rel {rel:.3e} (tol {args.tol:.1e}); "
                    f"<Lc,c>/double-sum = {ratio:.12f}")


def _cmd_gronwall(args, files: list) -> int:
    trace = _ladder_study(args, gronwall_audit)
    eps0 = args.eps[1]
    files.append(("gronwall_trace.csv", lambda path: write_series_csv(
        path,
        ["t", "dual_sq_half", "derivative", "l2_sq_half", "pair_energy_half",
         "dual_sq", "consistency_sq"],
        [trace.times, trace.dual_sq_half, trace.derivative, trace.l2_sq_half,
         trace.pair_energy_half, trace.dual_sq, trace.consistency_sq],
    )))
    summary = {
        "study": "gronwall",
        "epsilon": eps0,
        "empirical_constant": trace.empirical_constant,
        "energy_time_integral": trace.energy_time_integral,
        "pass": trace.holds_with(trace.empirical_constant),
    }
    return _verdict(files, "gronwall", summary,
                    f"gronwall (eps {eps0}): C = {trace.empirical_constant:.6g}, "
                    f"int pair energy = {trace.energy_time_integral:.4e}")


# ---------------------------------------------------------------------------
# parser

def _add_common(p, *, grid=True, eps_ladder=True):
    p.add_argument("--out", default=None, help="output directory (default out-<command>)")
    p.add_argument("--config", default=None, help="flat key=value config file; flags override")
    p.add_argument("--profile", default="poly-2-3", help="mollifier profile name")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; has no effect (studies run in one process)")
    if grid:
        p.add_argument("--domain", choices=("neumann", "periodic"), default="neumann")
        p.add_argument("--N", default="512", help="cells per axis, comma separated for 2D")
        p.add_argument("--L", default="1.0", help="box lengths, comma separated for 2D")
    if eps_ladder:
        p.add_argument("--eps", type=_parse_eps_list, default=(0.2, 0.1, 0.05, 0.025),
                       help="decreasing comma-separated scale ladder")


def _add_flow(p, *, T, tau, record_every):
    """The gradient-flow options of ``solve``, ``solution-rate`` and
    ``gronwall``, with the command's own defaults for the time grid."""
    p.add_argument("--potential", default="doublewell:K=1")
    p.add_argument("--initial", default="cosmix", help=f"one of {sorted(INITIAL_DATA)}")
    p.add_argument("--T", type=float, default=T)
    p.add_argument("--tau", type=float, default=tau)
    p.add_argument("--record-every", type=int, default=record_every)


class _Parser(argparse.ArgumentParser):
    """Argument parser that keeps what ``--config`` files need: its own
    options by config key (the long flag name, dashes as underscores) and its
    subcommand parsers by name."""

    def __init__(self, *args, **kwargs):
        self.options: dict[str, argparse.Action] = {}
        self.commands: dict[str, _Parser] = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.dest not in ("help", "config"):
            for flag in action.option_strings:
                if flag.startswith("--"):
                    self.options[flag[2:].replace("-", "_")] = action
        return action

    def add_subparsers(self, **kwargs):
        sub = super().add_subparsers(**kwargs)
        self.commands = sub.choices
        return sub


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nonloclab",
        description="Nonlocal-operator laboratory: kernel checks, rate studies, gradient-flow runs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-kernel", help="kernel normalization and moment identities")
    _add_common(p, grid=False, eps_ladder=False)
    p.add_argument("--n", type=int, default=1, choices=SUPPORTED_DIMENSIONS)
    p.add_argument("--eps", type=float, default=0.1)
    p.set_defaults(func_impl=_cmd_check_kernel)

    p = sub.add_parser("symbol-rate", help="frequency-symbol error rate on a lattice")
    _add_common(p, grid=False)
    p.add_argument("--n", type=int, default=1, choices=SUPPORTED_DIMENSIONS)
    p.add_argument("--slope-min", type=_finite_float, default=0.9)
    p.add_argument("--slope-max", type=_finite_float, default=None)
    p.set_defaults(func_impl=_cmd_symbol_rate)

    p = sub.add_parser("operator-rate", help="rate of the operator against the Laplacian")
    _add_common(p)
    p.add_argument("--func", default="cospix", choices=sorted(TEST_FUNCTIONS))
    p.add_argument("--slope-min", type=_finite_float, default=None)
    p.add_argument("--slope-max", type=_finite_float, default=None)
    p.set_defaults(func_impl=_cmd_operator_rate)

    p = sub.add_parser("energy-rate", help="pair energy against the gradient energy")
    _add_common(p)
    p.add_argument("--func", default="cospix", choices=sorted(TEST_FUNCTIONS))
    p.set_defaults(func_impl=_cmd_energy_rate)

    p = sub.add_parser("remainder-rate", help="boundary remainder decay on interior sub-boxes")
    _add_common(p)
    p.add_argument("--func", default="cospix", choices=sorted(TEST_FUNCTIONS))
    p.add_argument("--margin-factor", type=_nonnegative_float, default=0.5,
                   help="interior margin as a multiple of the kernel support")
    p.set_defaults(func_impl=_cmd_remainder_rate)

    p = sub.add_parser("solve", help="run one gradient flow and write its trajectory")
    _add_common(p, eps_ladder=False)
    p.add_argument("--eq", required=True, choices=EQUATIONS)
    p.add_argument("--eps", dest="eps_value", type=float, default=None,
                   help="kernel scale for the nonlocal equations")
    _add_flow(p, T=0.05, tau=1e-5, record_every=100)
    p.add_argument("--checkpoints", action="store_true", help="write binary state checkpoints")
    p.set_defaults(func_impl=_cmd_solve)

    p = sub.add_parser("solution-rate", help="nonlocal-to-local solution convergence rate")
    _add_common(p)
    p.add_argument("--eq", default="nonlocal-ch", choices=_NONLOCAL_EQUATIONS)
    _add_flow(p, T=0.05, tau=2e-5, record_every=25)
    p.add_argument("--perturbation", type=_finite_float, default=0.05,
                   help="sqrt-scale initial offset amplitude (0 for identical data)")
    p.add_argument("--slope-min", type=_finite_float, default=0.35)
    p.add_argument("--slope-max", type=_finite_float, default=0.8)
    p.set_defaults(func_impl=_cmd_solution_rate)

    p = sub.add_parser("oracle-check", help="fft vs direct operator, energy factor audit")
    _add_common(p, eps_ladder=False)
    p.add_argument("--eps", dest="eps_value", type=float, default=0.1)
    p.add_argument("--tol", type=_nonnegative_float, default=1e-10)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.set_defaults(func_impl=_cmd_oracle_check)

    p = sub.add_parser("gronwall", help="per-time differential inequality audit")
    _add_common(p)
    p.add_argument("--eq", default="nonlocal-ch", choices=_NONLOCAL_EQUATIONS)
    _add_flow(p, T=0.02, tau=2e-5, record_every=20)
    p.add_argument("--perturbation", type=_finite_float, default=0.0)
    p.set_defaults(func_impl=_cmd_gronwall)

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser of :func:`main`, built on its first call, once per process."""
    return build_parser()


_SWITCH_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _config_arguments(parser: _Parser, argv: list[str], entries: dict[str, str]) -> list[str]:
    """``argv`` with the config ``entries`` inserted as ``--flag=value``
    tokens right after the subcommand, so flags typed after it win; a switch
    is inserted bare when its value is true.  Raises ``ValueError`` for a
    missing subcommand, an unknown key or a bad value."""
    at = next((i for i, a in enumerate(argv) if not a.startswith("-")), None)
    command = None if at is None else argv[at]
    if command not in parser.commands:
        raise ValueError(f"unknown or missing subcommand {command!r}")
    options = parser.commands[command].options
    unknown = sorted(set(entries) - set(options))
    if unknown:
        raise ValueError(f"unknown keys {unknown}")
    tokens = []
    for key, raw in entries.items():
        action = options[key]
        flag = next(f for f in action.option_strings if f.startswith("--"))
        if action.nargs == 0:  # a switch such as --checkpoints
            on = _SWITCH_VALUES.get(raw.lower())
            if on is None:
                raise ValueError(f"bad value for {key!r}: expected one of "
                                 f"{'/'.join(_SWITCH_VALUES)}, got {raw!r}")
            tokens += [flag] if on else []
            continue
        try:
            if action.type is not None:
                action.type(raw)
        except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"bad value for {key!r}: {exc}") from None
        tokens.append(f"{flag}={raw}")
    return argv[:at + 1] + tokens + argv[at + 1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _shared_parser()
    # the config path comes from a first pass that knows only --config, so
    # every spelling argparse accepts (--config=PATH, the abbreviation --conf
    # PATH) is read, before or after the subcommand, and -h does not stop it
    first = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    first.add_argument("--config")
    try:
        cfg, argv = first.parse_known_args(argv)
        if cfg.config is not None:
            argv = _config_arguments(parser, argv, _load_config_file(cfg.config))
    except (argparse.ArgumentError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    outdir = Path(args.out) if args.out else Path(f"out-{args.command}")
    files, report = [], io.StringIO()
    try:
        lo, hi = getattr(args, "slope_min", None), getattr(args, "slope_max", None)
        if lo is not None and hi is not None and lo > hi:
            raise ValueError(f"--slope-min {lo:g} is above --slope-max {hi:g}: no slope can pass")
        # an --out under a file fails before the command runs, yet makes nothing
        if not next(p for p in (outdir, *outdir.parents) if p.exists()).is_dir():
            raise NotADirectoryError(errno.ENOTDIR, "Not a directory", str(outdir))
        # the command only prints and lists its files, so a rejected call leaves nothing
        with contextlib.redirect_stdout(report):
            code = args.func_impl(args, files)
        outdir.mkdir(parents=True, exist_ok=True)
        _write_resolved_config(outdir, parser, args)
        try:
            for name, write in files:
                write(outdir / name)
        except BaseException:
            # so that no config vouches for a partial set of outputs
            (outdir / "resolved_config.txt").unlink()
            raise
    except (ValueError, OSError, SolverDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    sys.stdout.write(report.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
