"""Command line front end: run a configured study and write its CSV."""

from __future__ import annotations

import argparse
import sys


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waveslab",
        description="Petrov-Galerkin wave solver studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the suite described by a config file")
    run.add_argument("config", help="path to a YAML configuration")
    run.add_argument("--out", help="output CSV path (overrides the config)")
    run.add_argument("--suite", help="suite name (overrides the config)")
    run.add_argument("--seed", type=int, help="unsigned seed, validated and kept on the "
                     "config; runs are deterministic")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    from .experiments import ConfigError, run_from_file

    try:
        path = run_from_file(args.config, out=args.out, suite=args.suite, seed=args.seed)
    except (ConfigError, FileNotFoundError, OSError) as exc:
        if isinstance(exc, ConfigError):
            for problem in exc.problems:
                print(f"config error: {problem}", file=sys.stderr)
        else:
            print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # solver-side failure
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
