"""Command-line front end: test user data, replicate the simulation studies,
and trace power curves.

Exit codes: 0 success, 1 runtime failure (single-line structured diagnostic
on stderr), 2 usage error. All flags are long-form kebab-case; list values
are comma-separated.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from .exceptions import MarscoreError
from .io import ColumnSpec, GroupTestFailure, RunConfig, read_csv, run_configured_tests, write_report
from .sim import (
    Example1Config,
    Example2Config,
    W_VARIANTS,
    power_curve,
    run_rejection_study,
)

_NEGATIVE_VALUE = re.compile(r"^-(\d|\.)")


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _comma_floats(text: str) -> tuple:
    return tuple(map(_finite, text.split(",")))


def _comma_names(text: str) -> tuple:
    names = tuple(s.strip() for s in text.split(",") if s.strip())
    if not names:
        raise argparse.ArgumentTypeError(f"expected comma-separated names, got {text!r}")
    return names


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer seed, got {text!r}")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _alpha(text: str) -> float:
    value = _finite(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"alpha must be in (0, 1), got {value}")
    return value


def _fixed_length_floats(label: str, count: int):
    def parse(text: str) -> tuple:
        values = _comma_floats(text)
        if len(values) != count:
            raise argparse.ArgumentTypeError(
                f"{label} needs exactly {count} comma-separated values, got {len(values)}"
            )
        return values

    return parse


def _add_output_flags(parser) -> None:
    parser.add_argument("--output", help="write a machine-readable report to this path")
    parser.add_argument("--format", choices=["json", "csv"], default="json")


def _add_simulation_flags(parser) -> None:
    """Flags shared by ``simulate`` and ``power-curve``."""
    parser.add_argument("--example", type=int, choices=[1, 2], required=True)
    parser.add_argument("--n", type=_positive_int, default=1000)
    parser.add_argument("--reps", type=_positive_int, default=2000)
    parser.add_argument("--alpha", type=_alpha, default=0.05)
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--threads", type=_positive_int, default=1,
                        help="accepted and ignored: replications run serially")
    parser.add_argument("--bz", type=_finite, default=0.5, help="example 1: outcome coefficient on Z")
    parser.add_argument("--c0", type=_finite, default=0.5, help="example 1: probit intercept")
    parser.add_argument("--c2", type=_finite, default=0.0, help="example 1: coefficient on U")
    parser.add_argument("--w", choices=list(W_VARIANTS), default="identity")
    parser.add_argument("--xi", type=_fixed_length_floats("--xi", 4), default=(-1.0, 1.0, 0.5, 0.0),
                        help="example 2: outcome truth (xi1,xi2,xi3,xi4)")
    parser.add_argument("--beta", type=_fixed_length_floats("--beta", 2), default=(0.85, 0.0),
                        help="example 2: propensity truth (beta0,beta1)")
    _add_output_flags(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marscore",
        description="Score tests for whether a missing-outcome mechanism is MAR or MNAR.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("test", help="run the score tests on a CSV dataset")
    t.add_argument("--data", required=True, help="input CSV path")
    t.add_argument("--outcome", required=True, help="outcome column (may contain blanks/NA)")
    t.add_argument("--covariates", required=True, type=_comma_names)
    t.add_argument("--propensity", type=_comma_names,
                   help="covariates entering the logistic propensity (default: all)")
    t.add_argument("--mean-basis", type=_comma_names,
                   help="mean-model terms, e.g. 1,x,x^2,x*z (default: 1 plus each covariate)")
    t.add_argument("--logvar-basis", type=_comma_names, default=("1",),
                   help="log-variance terms (default: 1)")
    t.add_argument("--variants", type=_comma_names, default=("s1", "s2"))
    t.add_argument("--alpha", type=_alpha, default=0.05)
    t.add_argument("--group-by", help="label column; tests run per group")
    _add_output_flags(t)

    s = sub.add_parser("simulate", help="replicate a simulation study design")
    _add_simulation_flags(s)
    s.add_argument("--c1", type=_finite, default=0.0, help="example 1: coefficient on w(Y)")
    s.add_argument("--gamma", type=_finite, default=0.0, help="example 2: MNAR departure")

    pc = sub.add_parser("power-curve", help="rejection rates over a grid of departures")
    pc.add_argument("--grid", type=_comma_floats, required=True,
                    help="grid of c1 (example 1) or gamma (example 2) values")
    _add_simulation_flags(pc)
    return parser


def _merge_negative_values(argv) -> list:
    """Join ``--flag -1,2`` into ``--flag=-1,2`` so argparse does not read
    negative list values as option names."""
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if (
            tok.startswith("--")
            and "=" not in tok
            and i + 1 < len(argv)
            and _NEGATIVE_VALUE.match(argv[i + 1])
        ):
            out.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def _simulation_config(args):
    if args.example == 1:
        return Example1Config(
            n=args.n, b_z=args.bz, c0=args.c0,
            c1=getattr(args, "c1", 0.0), c2=args.c2, w_variant=args.w,
        )
    return Example2Config(
        n=args.n, xi_true=args.xi, beta0=args.beta[0], beta1=args.beta[1],
        gamma=getattr(args, "gamma", 0.0),
    )


def _cmd_test(args, parser) -> list:
    try:
        columns = ColumnSpec(
            outcome_column=args.outcome,
            covariate_columns=args.covariates,
            propensity_columns=args.propensity,
            mean_basis_spec=args.mean_basis,
            logvar_basis_spec=args.logvar_basis,
        )
        config = RunConfig(columns=columns, variants=args.variants, group_by=args.group_by)
    except ValueError as exc:
        parser.error(str(exc))
    keep = (args.group_by,) if args.group_by else ()
    data = read_csv(args.data, columns, keep_columns=keep)
    print(f"read {data.n} rows from {args.data}; missing fraction {data.missing_fraction:.4f}")
    records = run_configured_tests(data, config)
    for rec in records:
        group = "" if rec.group is None else f"group={rec.group} "
        if isinstance(rec, GroupTestFailure):
            print(f"{group}variant={rec.variant} missing={rec.missing_fraction:.4f} -> error: {rec.error}")
            continue
        res = rec.result
        decision = "reject H0 (evidence of MNAR)" if res.reject(args.alpha) else "fail to reject H0 (MAR)"
        print(
            f"{group}variant={res.variant} n={res.n} "
            f"missing={rec.missing_fraction:.4f} statistic={res.statistic:.6g} "
            f"z={res.z:.4f} p={res.p_value:.4f} -> {decision} at alpha={args.alpha}"
        )
    return records


def _print_study(report) -> None:
    print(
        f"S1 rejection rate {100 * report.rate_s1:.2f}% (se {100 * report.se_s1:.2f}) | "
        f"S2 rejection rate {100 * report.rate_s2:.2f}% (se {100 * report.se_s2:.2f}) | "
        f"{report.replications} replications, {report.fit_failure_count} fit failures"
    )
    if report.failure_warning:
        print("warning: more than 1% of replications failed to fit", file=sys.stderr)


def _cmd_simulate(args) -> list:
    cfg = _simulation_config(args)
    report = run_rejection_study(cfg, args.reps, alpha=args.alpha, base_seed=args.seed)
    print(f"config: {cfg.to_dict()}")
    _print_study(report)
    return [report]


def _cmd_power_curve(args) -> list:
    cfg = _simulation_config(args)
    reports = power_curve(cfg, args.grid, args.reps, alpha=args.alpha, base_seed=args.seed)
    for rep in reports:
        print(f"{cfg.departure}={rep.grid_value:g}: ", end="")
        _print_study(rep)
    return reports


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_merge_negative_values(list(argv)))
    try:
        if args.command == "test":
            records = _cmd_test(args, parser)
        elif args.command == "simulate":
            records = _cmd_simulate(args)
        else:
            records = _cmd_power_curve(args)
        if args.output:
            write_report(records, args.output, args.format)
            print(f"report written to {args.output}")
    except MarscoreError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: IoFailure: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
