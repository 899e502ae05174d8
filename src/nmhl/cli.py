"""Command-line front-end.

Each subcommand names the experiment the config must declare; the config file
(sectioned key=value, or JSON) carries everything else.  Exit status: 0 when
the experiment's pass rules hold, 1 when they do not, 2 on any error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .config import EXPERIMENT_KINDS, apply_overrides, parse_config
from .errors import NmhlError, ValidationError
from .presets import DEFAULTS_VERSION
from .runner import run

_HELP = {
    "kernel": "evaluate the heat kernel on the spatial grid",
    "ibp": "verify the cascade integration-by-parts identity on the preset grid",
    "rate": "minimize the action between two endpoints",
    "varadhan": "sample the normalized log-kernel scaling curve",
    "exit": "fit the small-noise exit-mass decay constant",
    "report": "run the curated suite and write a summary table",
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first call and shared by every later `main` of the
    # process: parsing copies the `--override` default list, so no call sees
    # another's arguments
    parser = argparse.ArgumentParser(
        prog="nmhl",
        description="numerical laboratory for higher-order heat semigroups "
                    "on the torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENT_KINDS:
        p = sub.add_parser(name, help=_HELP[name])
        p.add_argument("--config", required=True,
                       help="path to a run-config file (key=value or JSON)")
        p.add_argument("--out", default=None,
                       help="output directory (overrides [output] directory)")
        p.add_argument("--override", action="append", default=[],
                       metavar="SECTION.KEY=VALUE",
                       help="config assignment applied before validation "
                            "(repeatable)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = parse_config(fh.read())
        if args.override:
            config = apply_overrides(config, args.override)
        if config.experiment.kind != args.command:
            raise ValidationError(
                f"config declares experiment {config.experiment.kind!r} but "
                f"the subcommand is {args.command!r}"
            )
        summary = run(config, out_dir=args.out)
    except OSError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except NmhlError as exc:
        print(f"{args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a fault of the program, not of the input: still exit 2, never the
        # "pass rule failed" code 1 an uncaught exception would give
        print(f"{args.command}: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2

    for key in sorted(summary.measured):
        print(f"{key} = {summary.measured[key]}")
    for path in summary.csv_paths:
        print(f"wrote {path}")
    print(f"{summary.experiment}: {'PASS' if summary.passed else 'FAIL'} "
          f"(defaults {DEFAULTS_VERSION})")
    return 0 if summary.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
