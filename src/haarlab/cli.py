"""Command line entry point.

Exit codes: 0 all checks pass, 1 assertion failure, 2 usage/config error.
"""
from __future__ import annotations

import argparse
import json
import sys

from .runner import SUITES, ConfigError, replay, run


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="haarlab",
        description="Verification suites for two-weight estimates of "
                    "dyadic band operators on finite lattices.")
    p.add_argument("--config", help="path to a JSON run config")
    p.add_argument("--suite", choices=SUITES,
                   help="suite to run (overrides the config)")
    p.add_argument("--seed", type=int, help="seed override")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--tolerance-override", action="append", default=[],
                   metavar="NAME=VALUE", help="override a named tolerance")
    p.add_argument("--replay", metavar="ARTIFACT",
                   help="replay a search artifact instead of running a suite")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    overrides = {}
    for item in args.tolerance_override:
        if "=" not in item:
            parser.print_usage(sys.stderr)
            print(f"error: bad tolerance override {item!r}", file=sys.stderr)
            return 2
        name, value = item.split("=", 1)
        try:
            overrides[name] = float(value)
        except ValueError:
            print(f"error: bad tolerance value {value!r}", file=sys.stderr)
            return 2

    if args.replay:
        try:
            code, report = replay(args.replay, args.out, overrides)
        except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
            print(f"error: cannot replay artifact: {exc}", file=sys.stderr)
            return 2
        _print_checks(report)
        return code

    if not args.config:
        parser.print_usage(sys.stderr)
        print("error: --config or --replay is required", file=sys.stderr)
        return 2
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None and isinstance(config, dict):  # run rejects the rest
        config["seed"] = args.seed
    try:
        code, report = run(config, args.out, suite=args.suite,
                           tolerance_overrides=overrides)
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2
    _print_checks(report)
    return code


def _print_checks(report: dict) -> None:
    for check in report["checks"]:
        status = "pass" if check["passed"] else "FAIL"
        print(f"[{status}] {check['name']}")
    print(f"suite {report['suite']}: "
          f"{'pass' if report['passed'] else 'FAIL'}")


if __name__ == "__main__":
    sys.exit(main())
