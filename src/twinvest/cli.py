"""Command-line interface.

Subcommands: validate | solve | simulate | sweep | verify.

Exit codes: 0 success, 1 input error (bad arguments, unreadable or
malformed files, unwritable output), 2 model fails validation, 3 oracle
disagreement in `verify`.

Data tables are CSV (header row, '.' decimal separator, '\\n' line
endings, UTF-8, 12 significant digits) written to --out when given and to
stdout otherwise; one-line summaries go to stderr when the CSV occupies
stdout.  Identical inputs and seeds produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from pathlib import Path

from .config import ConfigError, ModelFile, load_model_file
from .contracts import checked_information_rent, incentive_wage, retention_margin, surpluses
from .continuous import validate_continuous
from .dynamics import AgentKind, sample_outcomes, simulate_cycles, simulate_two_period
from .investment import optimal_investment
from .model import (
    DEFAULT_GRID_POINTS,
    GridEval,
    ModelPrimitives,
    evaluate_model_grid,
    validate,
)
from .oracle import run_certification
from .report import format_bool, format_number, format_optional
from .sweep import SweepAxis, regime_sweep

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INVALID_MODEL = 2
EXIT_ORACLE = 3


class _Parser(argparse.ArgumentParser):
    """Argument errors use the input-error exit code, not argparse's 2."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


class _InputError(Exception):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="twinvest", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, model=True, out=False, grid=False):
        p = sub.add_parser(name, help=help_text)
        if model:
            p.add_argument("--model", help="model definition file (JSON)")
        if out:
            p.add_argument("--out", help="output path for the data table")
        if grid:
            p.add_argument("--grid", type=int, help="grid size override")
        return p

    add("validate", "check a model file against the base assumptions", grid=True)
    add("solve", "regime, optimal investment and displacement threshold",
        out=True, grid=True)

    sim = add("simulate", "two-period game or degradation/rehire cycles", out=True)
    sim.add_argument(
        "--agent", choices=[k.value for k in AgentKind], default=AgentKind.MYOPIC.value
    )
    sim.add_argument("--alpha", type=float, help="twin time persistence in (0,1)")
    sim.add_argument("--delta", type=float, help="discount factor, recorded only")
    sim.add_argument("--horizon", type=int, help="number of periods (cycles mode)")
    sim.add_argument("--seed", type=int, help="sample per-period outcomes with this seed")

    add("sweep", "two-parameter regime map as CSV", out=True, grid=True)

    verify = add("verify", "certify solvers against the brute-force oracles",
                 model=False, out=True)
    verify.add_argument(
        "--models", type=int, default=200, help="number of random models (0 = fixtures only)"
    )
    verify.add_argument("--seed", type=int, help="random-model seed (default 12345)")
    verify.add_argument("--step", type=float,
                        help="grid step for the investment/regime/effort oracles")
    return parser


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _load(args) -> ModelFile:
    if not args.model:
        raise _InputError("--model is required for this command")
    return load_model_file(args.model)


def _discrete(mf: ModelFile) -> ModelPrimitives:
    if mf.model is None:
        raise _InputError("model file has no discrete model section")
    return mf.model


def _check_positive(name, value, allow_none=True):
    if value is None:
        if allow_none:
            return
        raise _InputError(f"--{name} is required")
    if value <= 0:
        raise _InputError(f"--{name} must be positive, got {value}")


def _grid_size(args) -> int:
    if args.grid is None:
        return DEFAULT_GRID_POINTS
    if args.grid < 2:
        raise _InputError(f"--grid must be at least 2, got {args.grid}")
    return args.grid


def _write(out: str, text: str):
    """Write ``text`` to the --out path; failing to is an input error."""
    try:
        Path(out).write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise _InputError(f"cannot write {out}: {exc}")


def _emit(table: str, out: str | None, summary: str | None = None):
    """CSV to --out (summary to stdout) or to stdout (summary to stderr)."""
    if out:
        _write(out, table)
        if summary:
            print(summary)
    else:
        if summary:
            print(summary, file=sys.stderr)
        sys.stdout.write(table)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    mf = _load(args)
    grid = _grid_size(args)
    status = EXIT_OK
    if mf.model is not None:
        report = validate(mf.model, grid)
        print(f"model: {report.describe()}")
        if not report.passed:
            status = EXIT_INVALID_MODEL
    if mf.continuous is not None:
        report = validate_continuous(mf.continuous, grid)
        print(f"continuous: {report.describe()}")
        if not report.passed:
            status = EXIT_INVALID_MODEL
    return status


def _solve_grid_csv(model: ModelPrimitives, g: GridEval) -> str:
    """Per-grid-point table from the solve's grid evaluation, same values as
    the scalar ``surpluses``, ``optimal_contract`` and retention margin."""
    u_gap = checked_information_rent(g)
    columns = (g.v, u_gap, incentive_wage(g), g.pi1 / g.pi0, retention_margin(model, g))
    out = io.StringIO()
    out.write("v,agent_surplus,t_bar,outcome_separability,deterrent_margin\n")
    for row in zip(*(c.tolist() for c in columns)):
        out.write(",".join(format_number(x) for x in row) + "\n")
    return out.getvalue()


def cmd_solve(args) -> int:
    mf = _load(args)
    model = _discrete(mf)
    grid_points = _grid_size(args)
    grid = evaluate_model_grid(model, grid_points)
    report = validate(model, grid_points, grid=grid)
    if not report.passed:
        print(f"model: {report.describe()}")
        return EXIT_INVALID_MODEL

    sol = optimal_investment(model, grid_points, grid=grid)
    print(f"regime={sol.regime.value}")
    print(f"feasible={format_bool(sol.feasible)}")
    if not sol.feasible:
        print("no-twin outcome: retention fails at every investment level")
        return EXIT_OK
    breakdown = surpluses(model, sol.v_opt)
    roots = ";".join(format_number(r) for r in sol.deterrent_roots)
    print(f"v_opt={format_number(sol.v_opt)}")
    print(f"v_star={format_optional(sol.displacement_threshold) or 'none'}")
    print(f"deterrent_roots={roots or 'none'}")
    print(f"v_star_unconstrained={format_number(sol.v_star_unconstrained)}")
    print(f"u_opt={format_number(sol.u_at_opt)}")
    print(f"principal_surplus={format_number(sol.principal_surplus_at_opt)}")
    print(f"total_surplus={format_number(breakdown.total_surplus)}")
    print(f"deterrent_binding={format_bool(sol.deterrent_binding)}")
    if args.out:
        _write(args.out, _solve_grid_csv(model, grid))
    return EXIT_OK


def cmd_simulate(args) -> int:
    mf = _load(args)
    model = _discrete(mf)
    report = validate(model)
    if not report.passed:
        print(f"model: {report.describe()}")
        return EXIT_INVALID_MODEL
    if args.delta is not None and not 0.0 < args.delta < 1.0:
        raise _InputError(f"--delta must lie in (0, 1), got {args.delta}")

    if args.alpha is not None:
        if not 0.0 < args.alpha < 1.0:
            raise _InputError(f"--alpha must lie in (0, 1), got {args.alpha}")
        horizon = args.horizon if args.horizon is not None else 2
        _check_positive("horizon", horizon, allow_none=False)
        trace = simulate_cycles(model, args.alpha, horizon, discount=args.delta)
    else:
        if args.horizon is not None:
            raise _InputError("--horizon requires --alpha (cycles mode)")
        trace = simulate_two_period(model, AgentKind(args.agent), discount=args.delta)

    realized = sample_outcomes(model, trace, args.seed) if args.seed is not None else None
    _emit(trace.to_csv(realized), args.out, trace.summary())
    return EXIT_OK


def cmd_sweep(args) -> int:
    mf = _load(args)
    model = _discrete(mf)
    if mf.sweep is None:
        raise _InputError("model file has no sweep section")
    axis1, axis2 = mf.sweep
    if args.grid is not None:
        if args.grid < 1:  # a 1x1 map is legal here, unlike evaluation grids
            raise _InputError(f"--grid must be at least 1, got {args.grid}")
        axis1 = SweepAxis.linspace(
            axis1.target, axis1.coefficient, axis1.values[0], axis1.values[-1], args.grid
        )
        axis2 = SweepAxis.linspace(
            axis2.target, axis2.coefficient, axis2.values[0], axis2.values[-1], args.grid
        )
    regime_map = regime_sweep(model, axis1, axis2)
    rows = len(regime_map.cells)
    regimes = ",".join(sorted(regime_map.regimes_present()))
    _emit(regime_map.to_csv(), args.out, f"cells={rows} regimes={regimes}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.models < 0:
        raise _InputError(f"--models must be >= 0, got {args.models}")
    _check_positive("step", args.step)
    seed = args.seed if args.seed is not None else 12345
    reports = run_certification(seed=seed, n_models=args.models, oracle_step=args.step)
    for report in reports:
        print(report.describe())
    failed = [r for r in reports if not r.passed]
    print(f"oracle certification: {'FAIL' if failed else 'PASS'} ({len(reports)} reports)")
    if args.out:
        payload = {
            "seed": seed,
            "models": args.models,
            "reports": [r.to_dict() for r in reports],
        }
        _write(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_ORACLE if failed else EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "solve": cmd_solve,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (_InputError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
