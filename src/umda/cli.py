"""Command-line front end: sweep | scaling | phase | verify.

Every setting flag (all but ``--threads``, ``--config`` and ``--header``)
is stored as text under its key and parsed by ``experiments.SETTINGS``, so a
value that does not parse names its key, and a setting given neither as a
flag nor in the sweep's config file takes the experiment's own default.
Flags go after their command.  Each command prints the lines built in
``experiments`` or writes them to ``--out``.  Exit codes: 0 success,
1 configuration error, 2 I/O error, 3 verification-suite failure; an
internal error ends in a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys

from .experiments import (
    SETTINGS,
    parse_config_file,
    parse_settings,
    phase_lines,
    run_phase_transition_probe,
    run_scaling_study,
    run_sweep,
    scaling_lines,
    scaling_report,
    sweep_config_from_mapping,
    sweep_lines,
    write_lines,
)
from .verification import run_all_checks

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_VERIFY = 3


def build_parser() -> argparse.ArgumentParser:
    # Each command takes only the flags it reads: `run` holds those of the
    # three commands that run UMDA, `output` the two that `phase` (always
    # borderless, print-only) lacks.  Any other flag is an argparse usage
    # error, which main reports as exit 1.
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--seed", dest="master_seed", default=None, help="master seed")
    run.add_argument(
        "--threads", type=int, default=None,
        help="worker processes (default: the CPUs this process may run on)",
    )
    run.add_argument("--max-generations", default=None)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", dest="output_path", default=None, help="output file path")
    output.add_argument(
        "--borders", default=None, help="restricted (UMDA) or unrestricted (UMDA*)"
    )

    parser = argparse.ArgumentParser(
        prog="umda",
        description="UMDA/UMDA* simulator on OneMax: sweeps, scaling studies, "
        "phase-transition probes, and a statistical verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", parents=[run, output], help="lambda sweep with CSV output")
    sweep.add_argument("--config", default=None, help="key = value config file")
    sweep.add_argument("--n", default=None)
    sweep.add_argument(
        "--lambdas", dest="lambda_values", default=None,
        help="lambda range start:stop:step (stop inclusive)",
    )
    sweep.add_argument("--mu-rule", default=None, help="e.g. lam/2")
    sweep.add_argument("--runs", dest="runs_per_setting", default=None, help="runs per lambda")
    sweep.add_argument("--header", action="store_true", help="write a header line")
    sweep.set_defaults(handler=_cmd_sweep)

    scaling = sub.add_parser(
        "scaling", parents=[run, output], help="median generations vs n, lambda = 2*mu"
    )
    scaling.add_argument("--n-values", required=True, help="e.g. 64,256,1024")
    scaling.add_argument("--mu-rule", required=True, help="e.g. ceil(3*sqrt(n)*log(n))")
    scaling.add_argument("--runs", default=None)
    scaling.set_defaults(handler=_cmd_scaling)

    phase = sub.add_parser(
        "phase", parents=[run], help="borderless stagnation probe below/above the transition"
    )
    phase.add_argument("--n", required=True)
    phase.add_argument("--mu-small", required=True)
    phase.add_argument("--mu-large", required=True)
    phase.add_argument("--runs", default=None)
    phase.set_defaults(handler=_cmd_phase)

    verify = sub.add_parser("verify", help="run the oracle-backed verification suite")
    verify.set_defaults(handler=_cmd_verify)
    return parser


def _given(args) -> dict[str, str]:
    """The settings given on the command line, as text under their keys."""
    return {k: v for k, v in vars(args).items() if k in SETTINGS and v is not None}


def _check_writable(path: str) -> None:
    """Raise OSError for an unwritable output path before any run starts.
    Mode "a" leaves an existing file intact; a file it had to create is
    removed again, so an error before the results are written leaves none."""
    existed = os.path.lexists(path)
    open(path, "a").close()
    if not existed:
        os.remove(path)


def _cmd_sweep(args) -> int:
    mapping = parse_config_file(args.config) if args.config else {}
    cfg = sweep_config_from_mapping({**mapping, **_given(args)})
    if cfg.output_path:
        _check_writable(cfg.output_path)
    rows = run_sweep(cfg, threads=args.threads)
    if cfg.output_path:
        write_lines(cfg.output_path, sweep_lines(rows, args.header))
        print(f"wrote {len(rows)} rows to {cfg.output_path}")
    else:
        print("\n".join(sweep_lines(rows, args.header)))
    return EXIT_OK


def _cmd_scaling(args) -> int:
    settings = parse_settings(_given(args))
    path = settings.pop("output_path", None)
    if path:
        _check_writable(path)
    rows = run_scaling_study(**settings, threads=args.threads)
    print("\n".join(scaling_report(rows)))
    if path:
        write_lines(path, scaling_lines(rows))
    return EXIT_OK


def _cmd_phase(args) -> int:
    rows = run_phase_transition_probe(**parse_settings(_given(args)), threads=args.threads)
    print("\n".join(phase_lines(rows)))
    return EXIT_OK


def _cmd_verify(_args) -> int:
    results = run_all_checks()
    for result in results:
        print(result.summary())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_VERIFY if failed else EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        # the top-level parser would read the flag's value as the command
        flag = argv[0].split("=", 1)[0]
        print(f"configuration error: flags go after the command: {flag}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; report as configuration error
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
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
