"""Command line of the benchmark (see ``bench/README.md``)."""

from __future__ import annotations

import argparse
import json
import os

from bench import suite
from bench.harness import END_TO_END, OUT_DIR, PER_LAYER, run_workload
from bench.workloads import WORKLOADS


def run_one(args: argparse.Namespace) -> int:
    traced = args.trace == 1
    run = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                       traced, smoke=args.smoke)
    directions = (
        {name: better for name, _unit, better in PER_LAYER} if traced
        else {name: better for name, _unit, better, _bound in END_TO_END}
    )
    print(f"# {run.workload} seed={run.seed} trace={args.trace} "
          f"passes={run.passes} samples={run.attempted} sizes={run.sizes}")
    for name, (value, unit) in run.metrics.items():
        if value or not traced:
            print(f"{name:34s} {value:16.6f} {unit:7s} "
                  f"({directions[name]} is better)")
    if traced:
        run.tracer.write(
            os.path.join(OUT_DIR, f"trace-{run.workload}.json"))
    result = run.result_line()
    if args.details:  # what suite.py records beside the numbers
        with open(args.details, "w") as handle:
            json.dump({**result, "sizes": run.sizes,
                       "passes": run.passes}, handle)
    # The contract's result: the last line of standard output.
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this one workload (default: all five, "
                             "untraced then traced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed section (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: checks the harness, not speed")
    parser.add_argument("--repeat", type=int, default=1,
                        help="sets of untraced runs (all-workloads mode)")
    parser.add_argument("--details", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.3 if args.smoke else suite.run_seconds()
    if args.workload:
        return run_one(args)
    return suite.run_suite(args.seed, args.seconds, args.repeat, args.smoke)


if __name__ == "__main__":
    raise SystemExit(main())
