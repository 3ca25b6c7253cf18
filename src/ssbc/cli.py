"""Command-line front end.

Subcommands: adjust, feasible, rungs, mondrian, simulate.  Output is JSON
by default (stable key order, 12 significant digits), CSV where tabular
data is natural, or a human rendering of the same JSON.  Exit codes: 0 on
success, 1 on usage or validation errors, 2 when the request is infeasible.
Each command imports the modules it runs, and no others.
"""

from __future__ import annotations

import argparse
import os
import sys

from .serialize import canonical_json, format_float

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; remap to the usage code."""

    def error(self, message):
        raise ValueError(message)


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
    return lines


def _scalar(value) -> str:
    if isinstance(value, float):
        return format_float(value)
    if value is None:
        return "-"
    return str(value)


def _regime_from_flags(args):
    from .coverage import CoverageRegime

    if args.regime == "window":
        if args.m is None:
            raise ValueError("--m is required when --regime window")
        return CoverageRegime.window(args.m)
    if args.m is not None:
        raise ValueError("--m is only valid with --regime window")
    return CoverageRegime.infinite()


def _csv(header: str, rows) -> str:
    """A table as CSV, each cell as :func:`_scalar` writes it."""
    return "\n".join([header, *(",".join(map(_scalar, row)) for row in rows)])


def _record(cls, args, **given):
    """A ``cls`` whose fields are the flags of the same names, or ``given``."""
    return cls(**{name: getattr(args, name) for name in cls.__match_args__} | given)


def _cmd_adjust(args):
    from .adjust import dkwm_adjust, ssbc_adjust
    from .coverage import CalibrationContext

    ctx = _record(CalibrationContext, args)
    if args.method == "dkwm" and args.regime == "window":
        raise ValueError("the dkwm method has no finite-window variant")
    regime = _regime_from_flags(args)
    report = ssbc_adjust(ctx, regime) if args.method == "ssbc" else dkwm_adjust(ctx)
    return report.to_dict(), report.feasible


def _cmd_feasible(args):
    from .feasibility import feasibility_report

    return feasibility_report(args.n, args.delta, m=args.m).to_dict(), True


def _cmd_rungs(args):
    from operator import attrgetter

    from .feasibility import Rung, rung_table

    table = rung_table(args.n, args.alpha_target, _regime_from_flags(args))
    if args.format == "csv":
        fields = Rung.__match_args__
        return _csv(",".join(fields), map(attrgetter(*fields), table.rungs)), True
    return table.to_dict(), True


def _cmd_mondrian(args):
    from .mondrian import MondrianSpec, ssbc_mondrian

    spec = _record(MondrianSpec, args)
    report = ssbc_mondrian(spec)
    data = report.to_dict()
    data["inputs"].update(spec._to_dict())
    return data, report.feasible


def _cmd_simulate(args):
    from .mc import SimConfig, run_simulation, theory_overlay

    config = _record(SimConfig, args, methods=tuple(args.methods.split(",")))
    report = run_simulation(config, workers=args.workers)
    if args.format != "csv":
        return report.to_dict(), True
    rows = ((method.method, level / config.m, count, theory)
            for method in report.methods if not method.skipped
            for level, (count, theory) in enumerate(
                zip(method.coverage_histogram, theory_overlay(config, method))))
    return _csv("method,coverage_level,count,theory_pmf", rows), True


# Each flag's settings, stated once, with the record field it fills as dest.
# A flag with no default is required unless its subcommand lists it as "m?".
_FLAGS = {
    "n": dict(type=int, help="calibration set size (symbol n)"),
    "alpha": dict(type=float, dest="alpha_target", metavar="ALPHA",
                  help="target miscoverage level (symbol α)"),
    "delta": dict(type=float, help="risk tolerance over calibration draws (symbol δ)"),
    "regime": dict(choices=("inf", "window"), help="coverage law: infinite test stream or "
                   "finite window; window requires --m"),
    "m": dict(type=int, help="inference window size (symbol m)"),
    "method": dict(choices=("ssbc", "dkwm"), default="ssbc"),
    "k": dict(type=int, help="training set size (symbol k)"),
    "kj": dict(type=int, dest="k_j", metavar="KJ", help="class-j training count (symbol k_j)"),
    "nj": dict(type=int, dest="n_j", metavar="NJ", help="class-j calibration size (symbol n_j)"),
    "runs": dict(type=int, help="number of Monte Carlo runs"),
    "seed": dict(type=int, help="64-bit unsigned seed"),
    "methods": dict(default="none,ssbc", help="comma-separated subset of none,ssbc,dkwm"),
    "score-model": dict(choices=("abs_cauchy", "abs_normal", "uniform"), default="abs_cauchy",
                        help="nonconformity scores of uniforms U: |tan(pi (U - 1/2))|, "
                        "|Phi^-1(U)| or U; coverage depends only on their order, so "
                        "abs_cauchy and abs_normal give the same counts"),
    "workers": dict(type=int, default=1, help="most threads to count the runs on, at most one "
                    "per usable CPU (default 1); does not affect results"),
}

# name: (handler, help, flags in order, output formats with the default first)
_COMMANDS = {
    "adjust": (_cmd_adjust, "compute an adjusted miscoverage level",
               "n alpha delta regime m? method", ("json", "human")),
    "feasible": (_cmd_feasible, "feasibility thresholds for (n, delta)",
                 "n delta m?", ("json", "human")),
    "rungs": (_cmd_rungs, "attainable delta at every grid rung",
              "n alpha regime m?", ("json", "csv", "human")),
    "mondrian": (_cmd_mondrian, "class-conditional window budget adjustment",
                 "k kj nj m alpha delta", ("json", "human")),
    "simulate": (_cmd_simulate, "Monte Carlo validation of corrections",
                 "n alpha delta m runs seed methods score-model workers",
                 ("json", "csv", "human")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ssbc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags, formats) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for word in flags.split():
            flag = word.rstrip("?")
            spec = _FLAGS[flag]
            required = "default" not in spec and not word.endswith("?")
            p.add_argument(f"--{flag}", required=required, **spec)
        p.add_argument("--format", choices=formats, default=formats[0])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    """Run one command.  Each ``_cmd_*`` returns its output (a dict, or the
    CSV text) and whether the request was feasible; only this prints, and
    every error, in parsing or in the run, ends here with exit 1."""
    try:
        args = build_parser().parse_args(argv)
        output, feasible = args.func(args)
        if args.format == "json":
            output = canonical_json(output)
        elif args.format == "human":
            output = "\n".join(_render_human(output))
        print(output)
        # Flushed here so that a reader that closed the pipe is seen below.
        sys.stdout.flush()
        return EXIT_OK if feasible else EXIT_INFEASIBLE
    except BrokenPipeError:
        # The reader is gone (e.g. `| head`).  Point stdout at devnull so
        # that the flush at exit does not fail again, and end quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except (ValueError, OverflowError, MemoryError) as exc:
        # OverflowError: an input, or a value derived from it, beyond a double.
        # MemoryError: arrays sized from the inputs (within simulate's
        # MAX_RUN_DRAWS) that cannot be allocated before memory is touched.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
