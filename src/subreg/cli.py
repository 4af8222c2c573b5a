"""Command-line entry point.

Exit codes: 0 clean run with all checks passing, 1 clean run with check
failures, 2 invalid configuration (a numeric overflow during evaluation
included), 3 internal error during evaluation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from dataclasses import replace

import numpy as np

from .report import ConfigError, emit_report, parse_config, run_config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subreg",
        description=(
            "Estimate error-bound and Holder subregularity moduli of a "
            "set-valued mapping and verify the slope inequalities"
        ),
    )
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", default=None, help="write the report here (stdout otherwise)")
    parser.add_argument("--format", choices=("json", "table"), default=None)
    parser.add_argument("--seed-override", type=int, default=None)
    parser.add_argument(
        "--verify",
        action="store_true",
        help="shorthand for checks: [invariants]",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2

    try:
        cfg = parse_config(raw)
        if args.seed_override is not None:
            cfg = replace(cfg, schedule=replace(cfg.schedule, seed=args.seed_override))
        if args.verify:
            cfg = replace(cfg, checks=("invariants",))
        if args.format:
            cfg = replace(cfg, output_format=args.format)
        if args.out:
            cfg = replace(cfg, output_path=args.out)
        if cfg.output_path:
            parent = os.path.dirname(os.path.abspath(cfg.output_path))
            if not os.path.isdir(parent):
                raise ConfigError(f"output directory does not exist: {parent}")
    except ConfigError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2

    try:
        # numpy overflow raises too: a batched graph map on a huge sample
        # would otherwise read as a clean, inconclusive run
        with np.errstate(over="raise"):
            report = run_config(cfg)
            text = emit_report(report, cfg.output_format)
    except (ConfigError, OverflowError, FloatingPointError) as exc:
        # no one bound on rho0 fits every mapping, so an oracle's overflow
        # is what tells a too large one
        if not isinstance(exc, ConfigError):
            exc = f"numeric overflow during evaluation: {exc}; try a smaller schedule rho0"
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except Exception:
        print("error: internal failure during evaluation", file=sys.stderr)
        traceback.print_exc()
        return 3

    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
