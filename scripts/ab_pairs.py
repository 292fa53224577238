#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, and whether a gain holds.

    python3 scripts/ab_pairs.py PARENT CHANGE --workload corpus --pairs 10 \
        --seconds 30

Pair i runs `perfbench/run.py --workload W --seed SEED0+i --seconds S
--trace 0` once in each checkout, one after the other: the parent first in
even pairs, the change first in odd ones, so that a drift of the host does
not favour one side.  For every end-to-end metric it prints the median and
quartiles of each side, the change of the median, and in how many pairs
the change was better.  A gain holds when the change is better in at least
9 of every 10 pairs, its median is better than the parent's by more than
the parent's quartile distance (IQR), and no larger share of its
operations failed.  Which direction is better
comes from the CHANGE checkout's BENCHMARK.json (lower when absent).

With --layers N it then makes N `--trace 1` runs per side, alternating
the same way, and prints the median of every per-layer `*_s` metric of
each side next to the other's, with no verdict: it shows where a saving
sits, not whether it holds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WIN_SHARE = 0.9


def run_once(checkout, workload, seed, seconds, trace=0):
    """The result object (last stdout line) of one benchmark run.  No
    bytecode is written, so neither side imports faster for a cache the
    other lacks."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    return proc.stdout.strip().splitlines()[-1]


def quartiles(values):
    """(q1, median, q3), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(lines, better=None):
    """Per-metric verdicts from result lines in pair order.

    lines: [(parent line, change line), ...], each the JSON object that
    run.py prints last; better: metric -> "lower" | "higher" (default
    lower).  Returns {metric: dict(parent=(q1, med, q3), change=(q1, med,
    q3), rel, wins, pairs, gain)} plus the failed/attempted counts of
    both sides under "_ops"."""
    better = better or {}
    pairs = [(json.loads(a), json.loads(b)) for a, b in lines]
    out = {"_ops": {side: (sum(p[k]["failed"] for p in pairs),
                           sum(p[k]["attempted"] for p in pairs))
                    for k, side in enumerate(("parent", "change"))}}
    (pf, pa), (cf, ca) = out["_ops"].values()
    fails_ok = cf * pa <= pf * ca       # no larger share of failures
    names = [m for m in pairs[0][0]["metrics"] if m in pairs[0][1]["metrics"]]
    for name in names:
        sign = -1 if better.get(name, "lower") == "higher" else 1
        old = [a["metrics"][name]["value"] for a, _b in pairs]
        new = [b["metrics"][name]["value"] for _a, b in pairs]
        wins = sum(1 for x, y in zip(old, new) if sign * (x - y) > 0)
        po, pn = quartiles(old), quartiles(new)
        gap = sign * (po[1] - pn[1])
        out[name] = {
            "parent": po, "change": pn,
            "rel": (pn[1] - po[1]) / po[1] if po[1] else 0.0,
            "wins": wins, "pairs": len(pairs),
            "gain": (wins >= WIN_SHARE * len(pairs) and gap > po[2] - po[0]
                     and fails_ok),
        }
    return out


def report_lines(summary):
    out = []
    for side, (failed, attempted) in summary["_ops"].items():
        out.append(f"{side}: {failed} of {attempted} operations failed")
    out.append(f"{'metric':<14} {'parent median [q1, q3]':>34} "
               f"{'change median [q1, q3]':>34} {'change':>8} "
               f"{'wins':>6}  gain")
    for name, m in summary.items():
        if name == "_ops":
            continue
        cells = [f"{m[k][1]:.6g} [{m[k][0]:.6g}, {m[k][2]:.6g}]"
                 for k in ("parent", "change")]
        out.append(f"{name:<14} {cells[0]:>34} {cells[1]:>34} "
                   f"{m['rel']:>+7.1%} {m['wins']:>3}/{m['pairs']:<2}  "
                   f"{'yes' if m['gain'] else 'no'}")
    return out


def layer_lines(lines):
    """Per-layer `*_s` medians of both sides, from traced result lines
    [(parent line, change line), ...], as printable lines; no verdict."""
    pairs = [(json.loads(a)["metrics"], json.loads(b)["metrics"])
             for a, b in lines]
    out = [f"{'layer':<24} {'parent median':>14} {'change median':>14} "
           f"{'change':>8}"]
    for name in pairs[0][0]:
        if not name.endswith("_s") or name not in pairs[0][1]:
            continue
        old, new = (statistics.median(p[k][name]["value"] for p in pairs)
                    for k in (0, 1))
        rel = f"{(new - old) / old:+7.1%}" if old else "-"
        out.append(f"{name:<24} {old:>14.6g} {new:>14.6g} {rel:>8}")
    return out


def run_pairs(args, seeds, trace):
    """[(parent line, change line), ...] of one run per side per seed,
    the parent first at even positions; prints each line as it comes."""
    lines = []
    for i, seed in enumerate(seeds):
        got = [None, None]
        for k in (0, 1) if i % 2 == 0 else (1, 0):
            got[k] = run_once((args.parent, args.change)[k], args.workload,
                              seed, args.seconds, trace)
        lines.append(tuple(got))
        for side, line in zip(("parent", "change"), got):
            print(f"{side}\t{seed}\t{line}", flush=True)
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--seed0", type=int, default=0,
                    help="pair i runs seed SEED0 + i")
    ap.add_argument("--layers", type=int, default=0,
                    help="then N traced runs per side, per-layer medians")
    args = ap.parse_args()
    for checkout in (args.parent, args.change):
        if os.path.isdir(os.path.join(checkout, "src", "dpuc", "__pycache__")):
            print(f"warning: {checkout} has src/dpuc/__pycache__; setup_s "
                  f"compares only between checkouts that both have one or "
                  f"both lack it", file=sys.stderr)
    lines = run_pairs(args, range(args.seed0, args.seed0 + args.pairs), 0)
    better = {}
    spec = os.path.join(args.change, "BENCHMARK.json")
    if os.path.exists(spec):
        with open(spec) as fh:
            better = {m["name"]: m["better"]
                      for m in json.load(fh)["end_to_end"]}
    for line in report_lines(summarize(lines, better)):
        print(line)
    if args.layers > 0:
        traced = run_pairs(args, range(args.seed0, args.seed0 + args.layers),
                           1)
        for line in layer_lines(traced):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
