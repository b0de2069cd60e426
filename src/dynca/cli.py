"""Command line front end: replay traces on engines, generate workloads."""

import argparse
import sys

from .errors import CapacityError, ConfigError, TraceParseError
from .traces import (PROFILES, ENGINES, format_trace, generate, parse_trace,
                     pin_text, run)


def _cmd_run(args):
    try:
        with open(args.trace, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"error: cannot read {args.trace}: {e}", file=sys.stderr)
        return 2
    trace = parse_trace(text)
    if args.max_n is not None and args.max_n < 1:
        raise ConfigError("--max-n must be positive")
    report = run(trace, args.engine, check=args.check, max_n=args.max_n)
    if args.stats == "csv":
        sys.stdout.write(report.csv())
    if report.mismatch is not None:
        idx, engine, got, want = report.mismatch
        op = trace[idx]
        print(f"mismatch at op {idx} (line {op.line}): engine {engine} "
              f"answered = {pin_text(trace, got)}, "
              f"expected = {pin_text(trace, want)}", file=sys.stderr)
        print(f"reproduction, the trace through that query "
              f"({len(report.repro)} ops):", file=sys.stderr)
        sys.stderr.write(format_trace(report.repro))
        return 1
    return 0


def _cmd_gen(args):
    trace = generate(args.seed, args.profile, args.n, args.m)
    text = format_trace(trace)
    if args.output == "-":
        sys.stdout.write(text)
        return 0
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        print(f"error: cannot write {args.output}: {e}", file=sys.stderr)
        return 2
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="dynca",
        description="Replay nearest-common-ancestor traces on interchangeable "
                    "engines and generate workloads.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    rp = sub.add_parser("run", help="replay a trace on one or more engines")
    rp.add_argument("--engine", action="append", required=True,
                    choices=sorted(ENGINES),
                    help="engine to replay on (repeatable)")
    rp.add_argument("--trace", required=True, help="trace file")
    rp.add_argument("--check", action="store_true",
                    help="also hold the baseline (the oracle, else the "
                         "first engine) to the answers pinned in the trace")
    rp.add_argument("--stats", choices=("csv", "none"), default="none",
                    help="emit per-engine counters as CSV on stdout")
    rp.add_argument("--max-n", type=int, default=None,
                    help="node capacity (default: the trace's node count)")
    rp.set_defaults(fn=_cmd_run)

    gp = sub.add_parser("gen", help="generate a workload trace")
    gp.add_argument("--profile", required=True, choices=PROFILES)
    gp.add_argument("--n", type=int, required=True, help="node count")
    gp.add_argument("--m", type=int, required=True, help="query count")
    gp.add_argument("--seed", type=int, required=True)
    gp.add_argument("-o", "--output", required=True,
                    help="output file, or - for stdout")
    gp.set_defaults(fn=_cmd_gen)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except TraceParseError as e:
        print(f"trace error: {e}", file=sys.stderr)
        return 2
    except (ConfigError, CapacityError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
