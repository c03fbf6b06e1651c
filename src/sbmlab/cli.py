"""Command-line entry point.

    sbmlab <kind> --config <file> [--seed S] [--replicas R] [--workers W]
           [--out DIR] [--check]
    sbmlab merge --out DIR report_dir [report_dir ...]

Exit codes: 0 success, 2 validation error, 3 degraded (censoring above 5%),
4 acceptance-check failure under --check.
"""
from __future__ import annotations

import argparse
import sys

from .config import ExperimentConfig, load_config
from .errors import ConfigError
from .harness import REGISTRY, check_report, merge_reports, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbmlab",
        description="Monte Carlo and verification experiments for the "
        "(1+beta)-stable super-Brownian motion local time",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in REGISTRY:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", help="config file (flat key = value)")
        p.add_argument("--seed", type=int, help="override the base seed")
        p.add_argument("--replicas", type=int, help="override the replica count")
        p.add_argument("--workers", type=int, help="worker process count")
        p.add_argument("--out", help="output directory")
        p.add_argument("--check", action="store_true",
                       help="apply acceptance thresholds; exit 4 on failure")
    m = sub.add_parser("merge", help="merge reports from the same config hash")
    m.add_argument("reports", nargs="+", help="report directories to merge")
    m.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.kind == "merge":
            report = merge_reports(args.reports, args.out)
            print(f"[sbmlab] merged {report.replicas} replicas into {args.out} "
                  f"(status {report.status})")
            return 3 if report.status == "degraded" else 0
        if args.config:
            cfg = load_config(args.config, kind=args.kind)
        else:
            cfg = ExperimentConfig(kind=args.kind)
        for field in ("seed", "replicas", "workers", "out"):
            val = getattr(args, field)
            if val is not None:
                setattr(cfg, field, val)
        report = run_experiment(cfg)
    except ConfigError as err:
        print("configuration errors:", file=sys.stderr)
        for v in err.violations:
            print(f"  - {v}", file=sys.stderr)
        return 2
    if args.check:
        fails = check_report(report)
        if fails:
            for f in fails:
                print(f"[sbmlab] CHECK FAIL: {f}", file=sys.stderr)
            return 4
        print("[sbmlab] all checks passed")
    return 3 if report.status == "degraded" else 0


if __name__ == "__main__":
    sys.exit(main())
