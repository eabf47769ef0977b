"""Command-line entry point: run, histogram and validate subcommands.

Exit codes: 0 success, 2 configuration/validation error, 3 estimation
failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import load_config
from .errors import EstimationFailureError, GridQmcError
from .runner import STAGES, export_histogram, run_analysis

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ESTIMATION = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridqmc",
        description="Line-loading risk estimation: quantum amplitude estimation "
        "vs classical Monte Carlo vs exact enumeration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the configured analysis")
    run_p.add_argument("--config", required=True, help="path to a JSON configuration file")
    run_p.add_argument("--seed", type=int, default=None, help="override the configured seed")
    run_p.add_argument("--epsilon", type=float, default=None, help="override epsilon")
    run_p.add_argument("--alpha", type=float, default=None, help="override alpha")
    run_p.add_argument(
        "--methods", default=None, help="comma-separated subset of iqae,cmc,exact"
    )
    run_p.add_argument("--out", default=None, help="write the JSON report here (default stdout)")

    hist_p = sub.add_parser("histogram", help="export a measurement histogram for one stage")
    hist_p.add_argument("--config", required=True)
    hist_p.add_argument("--stage", required=True, choices=STAGES)
    hist_p.add_argument("--shots", type=int, default=1024)
    hist_p.add_argument("--seed", type=int, default=None, help="override the configured seed")
    hist_p.add_argument("--out", required=True, help="output CSV path")

    val_p = sub.add_parser("validate", help="check a configuration file")
    val_p.add_argument("--config", required=True)
    return parser


def _overrides(args) -> dict:
    """The ``analysis`` fields set on the command line."""
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "epsilon", None) is not None:
        updates["epsilon"] = args.epsilon
    if getattr(args, "alpha", None) is not None:
        updates["alpha"] = args.alpha
    if getattr(args, "methods", None):
        updates["methods"] = [m.strip() for m in args.methods.split(",") if m.strip()]
    return updates


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config, _overrides(args))
        if args.command == "validate":
            print(f"{args.config}: OK")
            return EXIT_OK
        if args.command == "run":
            text = run_analysis(config).to_json()
            if not args.out:
                print(text)
                return EXIT_OK
        try:
            if args.command == "run":
                Path(args.out).write_text(text + "\n")
            else:
                out = export_histogram(config, args.stage, args.shots, config.analysis.seed, args.out)
                print(f"wrote {out}")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_VALIDATION
        return EXIT_OK
    except EstimationFailureError as exc:
        print(f"estimation failure: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except GridQmcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
