"""Command-line front end.

Subcommands: adjust, feasible, rungs, mondrian, simulate.  Output is JSON
by default (stable key order, 12 significant digits), CSV where tabular
data is natural, or a human rendering of the same JSON.  Exit codes: 0 on
success, 1 on usage or validation errors, 2 when the request is infeasible.
"""

from __future__ import annotations

import argparse
import sys

from .adjust import AdjustmentReport, dkwm_adjust, ssbc_adjust
from .coverage import CalibrationContext, CoverageRegime
from .feasibility import RungTable, feasibility_report, rung_table
from .mondrian import MondrianSpec, ssbc_mondrian
from .serialize import canonical_json, format_float

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; remap to the usage code."""

    def error(self, message):
        raise _UsageError(message)


def _render_human(data, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(data, dict):
        for key, value in data.items():
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_human(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar(value)}")
    elif isinstance(data, list):
        for value in data:
            if isinstance(value, (dict, list)):
                lines.extend(_render_human(value, indent + 1))
                lines.append("")
            else:
                lines.append(f"{pad}- {_scalar(value)}")
    else:
        lines.append(f"{pad}{_scalar(data)}")
    return lines


def _scalar(value) -> str:
    if isinstance(value, float):
        return format_float(value)
    if value is None:
        return "-"
    return str(value)


def _emit(data: dict, fmt: str) -> None:
    if fmt == "human":
        print("\n".join(_render_human(data)))
    else:
        print(canonical_json(data))


def _regime_from_flags(args) -> CoverageRegime:
    if args.regime == "window":
        if args.m is None:
            raise _UsageError("--m is required when --regime window")
        return CoverageRegime.window(args.m)
    if args.m is not None:
        raise _UsageError("--m is only valid with --regime window")
    return CoverageRegime.infinite()


def _rungs_csv(table: RungTable) -> str:
    lines = ["u,alpha_prime,attainable_delta"]
    for rung in table.rungs:
        lines.append(
            f"{rung.u},{format_float(rung.alpha_prime)},{format_float(rung.attainable_delta)}"
        )
    return "\n".join(lines)


def _simulate_csv(config, report) -> str:
    from .mc import theory_overlay

    lines = ["method,coverage_level,count,theory_pmf"]
    for method in report.methods:
        if method.skipped:
            continue
        pmf = theory_overlay(config, method.alpha_used)
        for level, (count, theory) in enumerate(zip(method.coverage_histogram, pmf)):
            lines.append(
                f"{method.method},{format_float(level / report.m)},{count},{format_float(theory)}"
            )
    return "\n".join(lines)


def _cmd_adjust(args) -> int:
    ctx = CalibrationContext(n=args.n, alpha_target=args.alpha, delta=args.delta)
    if args.method == "ssbc":
        report = ssbc_adjust(ctx, _regime_from_flags(args))
    else:
        if args.regime == "window":
            raise _UsageError("the dkwm method has no finite-window variant")
        report = dkwm_adjust(ctx)
    _emit(report.to_dict(), args.format)
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def _cmd_feasible(args) -> int:
    report = feasibility_report(args.n, args.delta, m=args.m)
    _emit(report.to_dict(), args.format)
    return EXIT_OK


def _cmd_rungs(args) -> int:
    table = rung_table(args.n, args.alpha, _regime_from_flags(args))
    if args.format == "csv":
        print(_rungs_csv(table))
    else:
        _emit(table.to_dict(), args.format)
    return EXIT_OK


def _cmd_mondrian(args) -> int:
    spec = MondrianSpec(
        k=args.k,
        k_j=args.kj,
        n_j=args.nj,
        m=args.m,
        alpha_target=args.alpha,
        delta=args.delta,
    )
    report = ssbc_mondrian(spec)
    data = report.to_dict()
    data["inputs"]["k"] = spec.k
    data["inputs"]["k_j"] = spec.k_j
    data["inputs"]["n_j"] = spec.n_j
    _emit(data, args.format)
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def _cmd_simulate(args) -> int:
    # Deferred so that only simulate loads numpy.
    from .mc import SimConfig, run_simulation

    config = SimConfig(
        n=args.n,
        m=args.m,
        alpha_target=args.alpha,
        delta=args.delta,
        runs=args.runs,
        seed=args.seed,
        score_model=args.score_model,
        methods=tuple(args.methods.split(",")),
    )
    report = run_simulation(config, workers=args.workers)
    if args.format == "csv":
        print(_simulate_csv(config, report))
    else:
        _emit(report.to_dict(), args.format)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ssbc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, alpha=True, delta=True, regime=False, window_m=False):
        p.add_argument("--n", type=int, required=True, help="calibration set size (symbol n)")
        if alpha:
            p.add_argument(
                "--alpha", type=float, required=True, help="target miscoverage level (symbol α)"
            )
        if delta:
            p.add_argument(
                "--delta", type=float, required=True, help="risk tolerance over calibration draws (symbol δ)"
            )
        if regime:
            p.add_argument(
                "--regime",
                choices=("inf", "window"),
                required=True,
                help="coverage law: infinite test stream or finite window",
            )
        if window_m:
            p.add_argument(
                "--m",
                type=int,
                default=None,
                help="inference window size (symbol m); required with --regime window",
            )

    p_adjust = sub.add_parser("adjust", help="compute an adjusted miscoverage level")
    add_common(p_adjust, regime=True, window_m=True)
    p_adjust.add_argument("--method", choices=("ssbc", "dkwm"), default="ssbc")
    p_adjust.add_argument("--format", choices=("json", "human"), default="json")
    p_adjust.set_defaults(func=_cmd_adjust)

    p_feasible = sub.add_parser("feasible", help="feasibility thresholds for (n, delta)")
    add_common(p_feasible, alpha=False)
    p_feasible.add_argument(
        "--m", type=int, default=None, help="optional inference window size (symbol m)"
    )
    p_feasible.add_argument("--format", choices=("json", "human"), default="json")
    p_feasible.set_defaults(func=_cmd_feasible)

    p_rungs = sub.add_parser("rungs", help="attainable delta at every grid rung")
    add_common(p_rungs, delta=False, regime=True, window_m=True)
    p_rungs.add_argument("--format", choices=("json", "csv", "human"), default="json")
    p_rungs.set_defaults(func=_cmd_rungs)

    p_mondrian = sub.add_parser(
        "mondrian", help="class-conditional window budget adjustment"
    )
    p_mondrian.add_argument("--k", type=int, required=True, help="training set size (symbol k)")
    p_mondrian.add_argument(
        "--kj", type=int, required=True, help="class-j training count (symbol k_j)"
    )
    p_mondrian.add_argument(
        "--nj", type=int, required=True, help="class-j calibration size (symbol n_j)"
    )
    p_mondrian.add_argument("--m", type=int, required=True, help="window size (symbol m)")
    p_mondrian.add_argument(
        "--alpha", type=float, required=True, help="target miscoverage level (symbol α)"
    )
    p_mondrian.add_argument(
        "--delta", type=float, required=True, help="risk tolerance (symbol δ)"
    )
    p_mondrian.add_argument("--format", choices=("json", "human"), default="json")
    p_mondrian.set_defaults(func=_cmd_mondrian)

    p_sim = sub.add_parser("simulate", help="Monte Carlo validation of corrections")
    add_common(p_sim)
    p_sim.add_argument("--m", type=int, required=True, help="inference window size (symbol m)")
    p_sim.add_argument("--runs", type=int, required=True, help="number of Monte Carlo runs")
    p_sim.add_argument("--seed", type=int, required=True, help="64-bit unsigned seed")
    p_sim.add_argument(
        "--methods",
        default="none,ssbc",
        help="comma-separated subset of none,ssbc,dkwm",
    )
    p_sim.add_argument(
        "--score-model",
        choices=("abs_cauchy", "abs_normal", "uniform"),
        default="abs_cauchy",
        help="nonconformity score distribution",
    )
    p_sim.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: SSBC_SIM_WORKERS or 1); does not affect results",
    )
    p_sim.add_argument("--format", choices=("json", "csv", "human"), default="json")
    p_sim.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError) as exc:
        # RuntimeError: a special-function kernel that did not converge.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
