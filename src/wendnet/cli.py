"""Command-line interface.

Subcommands:
  run <config.yaml>             run an experiment described by a config file
  grad-check                    run the gradient suites for every activation
  list-activations              print every activation kind and its schema
  emit-default-config <exp>     write a documented starter config

Exit codes: 0 success, 1 usage error, 2 configuration or file error
(a network too large to allocate included), 3 a gradient check that failed
(grad-check).  A diverging training run is not an error: its rows say so.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .activations import ALL_KINDS, ConfigError, activation_schema, parse_activation
from .bench import EXPERIMENTS, default_config_text, load_config, run_experiment
from .network import run_gradient_check

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_GRAD_CHECK = 3

GRAD_CHECK_TOLERANCE = 1e-6


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _at_least(least: int):
    """argparse type: an integer >= `least`; anything else is a usage error."""
    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value
    return integer


def _build_parser() -> _Parser:
    parser = _Parser(prog="wendnet",
                     description="Wendland activation benchmark harness")
    parser.add_argument("--version", action="version", version=f"wendnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("config", help="path to a YAML experiment config")

    gc_p = sub.add_parser("grad-check", help="gradient-check every activation kind")
    gc_p.add_argument("--seed", type=_at_least(0), default=0)
    gc_p.add_argument("--probes", type=_at_least(1), default=200)

    sub.add_parser("list-activations", help="print activation kinds and parameter schemas")

    emit_p = sub.add_parser("emit-default-config", help="write a starter config")
    emit_p.add_argument("experiment", choices=EXPERIMENTS)
    emit_p.add_argument("-o", "--output", default="-",
                        help="output path, or - for stdout (default)")
    return parser


def _cmd_run(args) -> int:
    try:
        paths = run_experiment(load_config(args.config))
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # NumPy's message names the size refused
        print(f"configuration error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for p in paths:
        print(f"wrote {p}")
    return EXIT_OK


def _cmd_grad_check(args) -> int:
    failed = False
    for kind in ALL_KINDS:
        spec = parse_activation(kind)
        err = run_gradient_check(spec, seed=args.seed, probes=args.probes)
        status = "ok" if err < GRAD_CHECK_TOLERANCE else "FAIL"
        if status == "FAIL":
            failed = True
        print(f"{kind:10s} max relative error {err:.3e}  {status}")
    return EXIT_GRAD_CHECK if failed else EXIT_OK


def _cmd_list_activations() -> int:
    for kind, summary in activation_schema():
        print(f"{kind:10s} {summary}")
    return EXIT_OK


def _cmd_emit_default_config(args) -> int:
    text = default_config_text(args.experiment)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.output, "w", encoding="utf-8") as f:
                f.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        print(f"wrote {args.output}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "grad-check":
        return _cmd_grad_check(args)
    if args.command == "list-activations":
        return _cmd_list_activations()
    return _cmd_emit_default_config(args)


if __name__ == "__main__":
    sys.exit(main())
