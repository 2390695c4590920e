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


def _parse_n(text):
    # Floats pass through as they are; ExperimentConfig refuses 1000.5.
    values = tuple(float(part) for part in text.split(",") if part.strip())
    if not values:
        raise ValueError("no sample counts given")
    return values


_FLAGS = {
    # name, parser, help
    "p": (int, "matrix size / vertex count"),
    "k": (int, "graph degree"),
    "n": (_parse_n, "sample count(s), comma separated, e.g. 1e7 or 1e3,1e4,1e5"),
    "R": (int, "Wishart replicates per matrix"),
    "M": (int, "matrices per ensemble"),
    "lambda0": (float, "window center eigenvalue"),
    "delta": (float, "window half-width"),
    "seed": (int, "master RNG seed"),
    "out": (str, "output directory"),
    "threads": (int, "worker threads for matrix/replicate parallelism"),
}


def _add_flags(parser):
    defaults = ExperimentConfig().as_dict()
    for name, (_, help_text) in _FLAGS.items():
        default = defaults[name]
        if name == "n":
            default = ",".join(map(str, default))
        parser.add_argument(f"--{name}", type=str, default=None,
                            help=f"{help_text} (env {ENV_PREFIX}{name.upper()}, "
                                 f"default {default})")


def _resolve(args):
    # Only flags and env vars actually given; ExperimentConfig fills the rest.
    values = {}
    for name, (caster, _) in _FLAGS.items():
        raw = getattr(args, name)
        if raw is None:
            raw = os.environ.get(ENV_PREFIX + name.upper())
        if raw is None:
            continue
        try:
            values[name] = caster(raw)
        except (OverflowError, ValueError) as exc:  # e.g. --n inf
            raise ConfigError(f"bad value for --{name}: {raw!r}") from exc
    return ExperimentConfig(**values)


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
        if args.command == "validate":
            report = validate(config)
            json.dump(report, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
            return 0
        manifest = run(args.experiment, config)
        json.dump(manifest, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
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
        json.dump(record, sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
