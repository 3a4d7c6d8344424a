"""Command-line front end: one subcommand per batch workflow.

Every subcommand reads a JSON manifest, runs deterministically, and writes
its data files plus a summary.json into the output directory.  On failure a
machine-readable error object is printed to stderr and the exit code is
nonzero.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from .errors import RydoctError
from .manifest import COMMANDS, load_manifest, run

# A command's process exits soon; frozen import-time objects skip the GC's teardown.
gc.freeze()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rydoct",
        description="Shaped-terahertz-pulse design for Rydberg wave-packet registers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--manifest", required=True, help="path to the JSON run manifest")
        p.add_argument("--out", default=None, help="output directory (default from manifest)")
        p.add_argument("--verbose", action="store_true", help="print progress information")
        if command.reads_field:
            p.add_argument("--field", required=True, help="field CSV to analyze")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        manifest = load_manifest(args.manifest)
        out_dir = args.out if args.out is not None else manifest.output_dir
        if args.verbose:
            print(f"[rydoct] {args.command}: writing to {out_dir}", file=sys.stderr)
        result = run(args.command, manifest, out_dir, getattr(args, "field", None))
        if args.verbose:
            print(f"[rydoct] metrics: {json.dumps(result['metrics'])}", file=sys.stderr)
        return 0
    except RydoctError as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error), file=sys.stderr)
        return 1
    except OSError as exc:
        error = {"error": "IOError", "message": str(exc)}
        print(json.dumps(error), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
