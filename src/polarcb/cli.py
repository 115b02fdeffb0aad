"""Command-line entry point.

Exit codes: 0 success, 2 configuration error (bad config file, unknown keys,
a command's own limits, unwritable output, a run too large for memory),
3 numerical failure (singular zero forcing, quantizer non-convergence).
"""

from __future__ import annotations

import argparse
import sys

from .codebooks import LloydConvergenceError
from .experiments import (ConfigError, emit_codebook, load_config, run_allocation,
                          run_experiment, theory_report)
from .feedback import ZFSingularError

EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="polarcb",
                                     description="Near-field polar codebook simulations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("codebook", "emit a codebook as CSV and binary files"),
                       ("simulate", "run a config-driven experiment sweep"),
                       ("allocate", "exhaustive angle/range bit allocation"),
                       ("theory", "closed-form vs oracle report")):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="flat key=value config file")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--threads", type=int, default=None, help="deprecated; has no effect")
        cmd.add_argument("--out", default=None, help="override the output path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.command, seed=args.seed, threads=args.threads,
                             out=args.out)
    except (ConfigError, OSError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    writers = {"simulate": run_experiment, "allocate": run_allocation, "theory": theory_report}
    try:
        if args.command == "codebook":
            csv_path, bin_path = emit_codebook(config)
            print(f"wrote {csv_path} and {bin_path}")
        else:
            text = writers[args.command](config)
            if not config.out:
                sys.stdout.write(text)
    except (ZFSingularError, LloydConvergenceError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"config error: the run does not fit in memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return 0


if __name__ == "__main__":
    sys.exit(main())
