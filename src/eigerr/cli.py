"""Command-line front end for the experiment runner.

Every flag can also be supplied through an environment variable with the
``EIGERR_`` prefix (explicit flags win); anything left unset takes its
default from ``ExperimentConfig``. Exit codes: 0 success, 1
configuration error, 2 runtime error (with a machine-readable JSON error
record on stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .experiments import EXPERIMENTS, ConfigError, ExperimentConfig, run, validate

ENV_PREFIX = "EIGERR_"


def _count(text):
    # int() first keeps every digit of a seed above 2**53; ExperimentConfig judges 60.5.
    try:
        return int(text)
    except ValueError:
        return float(text)


def _parse_n(text):
    values = tuple(_count(part) for part in text.split(",") if part.strip())
    if not values:
        raise ValueError("no sample counts given")
    return values


# Argparse names a type callable by its __name__ in "invalid <name> value: ...".
_count.__name__, _parse_n.__name__ = "integer", "integer list"


_FLAGS = {
    # name, parser, help
    "p": (_count, "matrix size / vertex count"),
    "k": (_count, "graph degree"),
    "n": (_parse_n, "sample count, e.g. 1e7; bound-scatter and validate take lists, 1e3,1e4"),
    "R": (_count, "Wishart replicates per matrix"),
    "M": (_count, "matrices per ensemble"),
    "lambda0": (float, "window center eigenvalue"),
    "delta": (float, "window half-width"),
    "seed": (_count, "master RNG seed"),
    "out": (str, "output directory"),
    "threads": (_count, "worker threads, one matrix (or one n of bound-scatter) per task; "
                         "replicates run serially, and a stage with one unit runs on the "
                         "calling thread at any width"),
}


def _add_flags(parser):
    # An EIGERR_* value is a string default, which argparse parses as if it
    # had been typed: a flag beats it, and a bad one is a parse error.
    defaults = ExperimentConfig().as_dict()
    for name, (caster, help_text) in _FLAGS.items():
        default = defaults[name]
        if name == "n":
            default = ",".join(map(str, default))
        env = ENV_PREFIX + name.upper()
        parser.add_argument(f"--{name}", type=caster, default=os.environ.get(env),
                            help=f"{help_text} (env {env}, default {default})")


def _resolve(args):
    # Only flags and env vars actually given; ExperimentConfig fills the rest.
    return ExperimentConfig(**{name: value for name in _FLAGS
                               if (value := getattr(args, name)) is not None})


def build_parser():
    parser = argparse.ArgumentParser(
        prog="eigerr",
        description="Eigenvector-error experiments on graph-Laplacian covariance ensembles",
        exit_on_error=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run one experiment", exit_on_error=False)
    runp.add_argument("experiment", choices=sorted(EXPERIMENTS),
                      help="experiment name")
    _add_flags(runp)

    valp = sub.add_parser("validate", help="pre-flight configuration checks",
                          exit_on_error=False)
    _add_flags(valp)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help or argparse-internal exits
        return 0 if exc.code in (0, None) else 1

    try:
        config = _resolve(args)
        result = validate(config) if args.command == "validate" else run(args.experiment, config)
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - surfaced as a machine-readable record
        record = {
            "error": type(exc).__name__,
            "message": str(exc),
            "command": args.command,
            "experiment": getattr(args, "experiment", None),
        }
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
