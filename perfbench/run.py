#!/usr/bin/env python3
"""dpuc benchmark entry point.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy.  Prints every metric with its unit,
then, as the last line, one JSON object with the keys correct, attempted,
failed and metrics (end-to-end metrics with --trace 0, per-layer metrics
with --trace 1).  --report FILE also writes the full report (timing sample
counts and tails, set-up parts, per-graph makespans).  Traced runs write
their spans to perfbench/out/.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

def import_bench():
    """Import numpy, dpuc and the benchmark modules.  Exits with status 2
    when dpuc is not in ./src of this checkout."""
    # one thread: numpy must not start a BLAS thread pool
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    try:
        import bench
        import dpuc
    except ImportError as e:
        print(f"error: cannot import the benchmark or dpuc from {SRC}: {e}",
              file=sys.stderr)
        sys.exit(2)
    if os.path.dirname(os.path.dirname(os.path.abspath(dpuc.__file__))) \
            != SRC:
        print(f"error: dpuc imported from {dpuc.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return bench


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", default=None,
                    help="also write the full report JSON here")
    args = ap.parse_args()
    import hostclock  # stdlib only, so it can time the other imports
    clock = hostclock.Clock()
    start = clock.mark()
    bench = clock.run(import_bench)
    import_s = clock.since(start)
    if args.workload not in bench.W.NAMES:
        ap.error(f"--workload must be one of {', '.join(bench.W.NAMES)}")
    report = bench.measure(args.workload, args.seed, args.seconds,
                           args.trace, clock, import_s=import_s,
                           spans_dir=os.path.join(HERE, "out"))
    for line in bench.summary_lines(report):
        print(line)
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(report["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
