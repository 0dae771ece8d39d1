"""Command-line front end: sweep | scaling | phase | verify.

Exit codes: 0 success, 1 configuration error, 2 I/O error,
3 verification-suite failure.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    SWEEP_SETTINGS,
    ScalingResult,
    SweepConfig,
    emit_csv,
    format_decimal,
    parse_config_file,
    run_phase_transition_probe,
    run_scaling_study,
    run_sweep,
    sweep_config_from_mapping,
    write_lines,
)
from .verification import run_all_checks

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_VERIFY = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="umda",
        description="UMDA/UMDA* simulator on OneMax: sweeps, scaling studies, "
        "phase-transition probes, and a statistical verification suite.",
    )
    parser.add_argument(
        "--seed", dest="master_seed", type=int, default=None, help="master seed"
    )
    parser.add_argument(
        "--threads", type=int, default=None, help="worker processes (default: cores)"
    )
    parser.add_argument(
        "--out", dest="output_path", default=None,
        help="output file path (sweep and scaling only)",
    )
    parser.add_argument(
        "--config", default=None, help="key = value config file (sweep only)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="lambda sweep with CSV output")
    # stored as text under the config-file keys, parsed by SWEEP_SETTINGS
    sweep.add_argument("--n", default=None)
    sweep.add_argument(
        "--lambdas", dest="lambda_values", default=None,
        help="lambda range start:stop:step (stop inclusive)",
    )
    sweep.add_argument("--mu-rule", default=None, help="e.g. lam/2")
    sweep.add_argument("--borders", choices=["restricted", "unrestricted"], default=None)
    sweep.add_argument(
        "--runs", dest="runs_per_setting", default=None, help="runs per lambda"
    )
    sweep.add_argument("--max-generations", default=None)
    sweep.add_argument("--header", action="store_true", help="write a header line")

    scaling = sub.add_parser("scaling", help="median generations vs problem size")
    scaling.add_argument("--n-values", required=True, help="e.g. 64,256,1024")
    scaling.add_argument("--mu-rule", required=True, help="e.g. ceil(3*sqrt(n)*log(n))")
    scaling.add_argument("--lambda-rule", default="2*mu")
    scaling.add_argument("--runs", type=int, default=50)
    scaling.add_argument(
        "--borders", choices=["restricted", "unrestricted"], default="restricted"
    )
    scaling.add_argument("--max-generations", type=int, default=None)

    phase = sub.add_parser(
        "phase", help="borderless stagnation probe below/above the transition"
    )
    phase.add_argument("--n", type=int, required=True)
    phase.add_argument("--mu-small", type=int, required=True)
    phase.add_argument("--mu-large", type=int, required=True)
    phase.add_argument("--runs", type=int, default=100)
    phase.add_argument("--max-generations", type=int, default=None)

    sub.add_parser("verify", help="run the oracle-backed verification suite")
    return parser


def _sweep_config(args) -> SweepConfig:
    mapping = parse_config_file(args.config) if args.config else {}
    for key in SWEEP_SETTINGS:
        if getattr(args, key) is not None:
            mapping[key] = getattr(args, key)
    return sweep_config_from_mapping(mapping)


def _cmd_sweep(args) -> int:
    cfg = _sweep_config(args)
    rows = run_sweep(cfg, threads=args.threads)
    if cfg.output_path:
        emit_csv(rows, cfg.output_path, header=args.header)
        print(f"wrote {len(rows)} rows to {cfg.output_path}")
    else:
        for row in rows:
            print(row.line())
    return EXIT_OK


def _print_scaling(result: ScalingResult) -> None:
    for row in result.rows:
        print(
            f"n={row.n} mu={row.mu} lambda={row.lam} "
            f"success={format_decimal(row.success_fraction)} "
            f"median_generations={format_decimal(row.median_generations)} "
            f"median_evaluations={format_decimal(row.median_evaluations)}"
        )
    if result.slope_generations is None:
        print("slope: undefined (need at least two problem sizes)")
    else:
        print(f"log-log slope of median generations: "
              f"{format_decimal(result.slope_generations)}")


def _cmd_scaling(args) -> int:
    n_values = [int(x) for x in args.n_values.split(",") if x]
    result = run_scaling_study(
        n_values,
        mu_rule=args.mu_rule,
        lambda_rule=args.lambda_rule,
        runs=args.runs,
        master_seed=args.master_seed or 0,
        borders=args.borders == "restricted",
        max_generations=args.max_generations,
        threads=args.threads,
    )
    _print_scaling(result)
    if args.output_path:
        write_lines(args.output_path, [row.line() for row in result.rows])
    return EXIT_OK


def _cmd_phase(args) -> int:
    small, large = run_phase_transition_probe(
        n=args.n,
        mu_small=args.mu_small,
        mu_large=args.mu_large,
        runs=args.runs,
        master_seed=args.master_seed or 0,
        max_generations=args.max_generations,
        threads=args.threads,
    )
    for label, outcome in (("below", small), ("above", large)):
        print(
            f"{label}: mu={outcome.mu} lambda={outcome.lam} "
            f"stagnated={format_decimal(outcome.stagnated_fraction)} "
            f"success={format_decimal(outcome.success_fraction)} "
            f"budget_exhausted={format_decimal(outcome.budget_fraction)}"
        )
    return EXIT_OK


def _cmd_verify(_args) -> int:
    results = run_all_checks()
    for result in results:
        print(result.summary())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_VERIFY if failed else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; report as configuration error
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    handlers = {
        "sweep": _cmd_sweep,
        "scaling": _cmd_scaling,
        "phase": _cmd_phase,
        "verify": _cmd_verify,
    }
    try:
        if args.config is not None and args.command != "sweep":
            raise ValueError(f"--config does not apply to {args.command}")
        if args.output_path is not None and args.command in ("phase", "verify"):
            raise ValueError(f"--out does not apply to {args.command}")
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
