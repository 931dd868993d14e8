"""Command line front end.

Verbs:
    run         execute a configured scenario and write its artifacts
    validate    check the paper's hypotheses on a configuration's data, no
                solves; an input run would refuse is refused the same way
    acceptance  run the acceptance checklist (all criteria or a subset)
    version     print the package version

Exit codes: 0 success, 1 a verdict, hypothesis or criterion failed, 2
configuration error (an input that cannot run, under either verb), 3
numerical failure during a run, 4 internal error (any other exception,
reported with its traceback on stderr).
"""

import argparse
import sys
import traceback
from pathlib import Path

from ._version import __version__
from .errors import ConfigError, NumericalError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crocco-prandtl",
        description="Solver and verification laboratory for the Crocco-variable "
                    "boundary-layer system and its kinetic model operator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario from a config file")
    p_run.add_argument("--config", required=True, help="path to a key = value config file")
    p_run.add_argument("--out", required=True, help="directory for artifacts")

    p_val = sub.add_parser("validate", help="validate a config and its data hypotheses")
    p_val.add_argument("--config", required=True, help="path to a key = value config file")

    p_acc = sub.add_parser("acceptance", help="run the acceptance checklist")
    p_acc.add_argument("--suite", default="full",
                       help="'full' or a comma list of criterion numbers, e.g. 1,4,7")
    p_acc.add_argument("--out", default=None,
                       help="optional directory for the acceptance summary artifacts")

    sub.add_parser("version", help="print the package version")
    return parser


def _check_out(out) -> None:
    """Refuse, before any work, an --out path whose nearest existing part is
    not a directory."""
    part = next(p for p in (Path(out), *Path(out).parents) if p.exists())
    if not part.is_dir():
        raise ConfigError(f"--out {out}: {part} is not a directory")


def _cmd_run(args) -> int:
    from .config import load_config
    from .reporting import report_text, write_artifacts
    from .scenarios import run_scenario

    _check_out(args.out)
    cfg = load_config(args.config)
    result = run_scenario(cfg)
    paths = write_artifacts(result, args.out)
    sys.stdout.write(report_text(result))
    for p in paths:
        print(f"wrote {p}")
    print(f"overall = {'PASSED' if result.ok else 'FAILED'}")
    return 0 if result.ok else 1


def _cmd_validate(args) -> int:
    from .config import load_config
    from .scenarios import validate_scenario

    cfg = load_config(args.config)
    report = validate_scenario(cfg)
    print(report.summary())
    print(f"validation = {'PASSED' if report.ok else 'FAILED'}")
    return 0 if report.ok else 1


def _cmd_acceptance(args) -> int:
    from .acceptance import parse_suite, run_acceptance

    numbers = parse_suite(args.suite)
    if args.out is not None:
        _check_out(args.out)
    report = run_acceptance(numbers=numbers, out_dir=args.out)
    print(report.summary())
    return 0 if report.all_pass else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "acceptance":
            return _cmd_acceptance(args)
        if args.command == "version":
            print(__version__)
            return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 4
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
