#!/usr/bin/env python3
"""In-process A/B timing of one phase of two checkouts.

    python3 scripts/ab_inproc.py PARENT CHANGE --workload deep \
        --phase compile --pairs 21

Each checkout's `src/dpuc` is copied into a temporary directory under its
own package name (`dpuc_parent`, `dpuc_change`), so both sides run in one
process.  The workload's cases and their inputs are built once, through
the parent's `perfbench/workloads.py` (imported, not edited), with seed 0
and the benchmark's input rule.  Each side then prepares what its phase
needs outside the timing: a parsed graph, and for the phases after
compile its own compiled program and trace.  The `deps` phase is the
compile's dependency step alone: `machine.footprints` plus
`pipeline.assign_typed_deps` over the compiled stream; the `emit` phase
is its assembly writer alone, `emit_assembly` over the compiled program.

After one untimed pass per side, pair i times one pass of the phase over
every case on each side, the parent first in even pairs and the change
first in odd ones.  It prints
each side's median and quartiles and the median and quartiles of the
per-pair ratio change / parent; for `compile` and `emit` it also says
whether both sides wrote the same assembly for every case, and for
`deps` whether both gave every instruction the same DPON and DPBY sets.

It gives no verdict.  Wall times of separate processes minutes apart
drift more than a pass-sized change on a shared host, so this tool sizes
a change pass by pass; whether a gain holds end to end is still
`scripts/ab_pairs.py`'s call.
"""

import argparse
import dataclasses
import gc
import importlib
import os
import shutil
import sys
import tempfile
import time

# one thread: numpy must not start a BLAS thread pool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ab_pairs import quartiles  # noqa: E402

SIDES = ("parent", "change")
PHASES = ("compile", "deps", "emit", "timing", "functional", "reference",
          "hazards")
INPUTS_PER_CASE = 2     # as the benchmark's verify rounds
SEED = 0                # the workload seed of the benchmark's first pair


def load_side(tree, name, into):
    """The package `name`: a copy of `tree`/src/dpuc under `into`."""
    shutil.copytree(os.path.join(tree, "src", "dpuc"),
                    os.path.join(into, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def build_cases(parent, workload):
    """[(case, inputs)] of the workload, from the parent's workloads.py;
    its `dpuc` import resolves to the parent's source."""
    sys.path.insert(0, os.path.join(parent, "src"))
    sys.path.insert(0, os.path.join(parent, "perfbench"))
    import numpy as np
    import workloads
    from dpuc import graph
    rng = np.random.default_rng([SEED, len(workloads.NAMES)])
    out = []
    for case in workloads.cases(workload, SEED):
        folded = graph.fold_constants_and_quantizers(
            graph.parse_graph(case.text))
        out.append((case, workloads.random_inputs(rng, folded,
                                                  INPUTS_PER_CASE)))
    return out


def prepare(pkg, phase, cases):
    """(run, items) of one side: run(item) is one timed call, items one
    per case, made with this side's own package."""
    cfg = pkg.MachineConfig()
    items = []
    for case, inputs in cases:
        g = pkg.parse_graph(case.text)
        options = pkg.CompileOptions(**dataclasses.asdict(case.options))
        if phase == "compile":
            items.append((g, options, inputs))
            continue
        if phase == "reference":    # on the folded graph, as the benchmark
            items.append((pkg.fold_constants_and_quantizers(g), options,
                          inputs))
            continue
        art = pkg.compile_graph(g, cfg, options)
        items.append((art, pkg.run_timing(art.program, cfg), inputs))
    run = {
        "compile": lambda it: pkg.compile_graph(it[0], cfg, it[1]).assembly,
        "reference": lambda it: [pkg.reference_execute(it[0], x)
                                 for x in it[2]],
        "deps": lambda it: pkg.pipeline.assign_typed_deps(
            pkg.pipeline.PipelinedStream(it[0].program.instructions,
                                         it[0].marks,
                                         it[0].report["pipelined"]),
            fp=pkg.machine.footprints(it[0].program.instructions)),
        "emit": lambda it: pkg.emit_assembly(it[0].program),
        "timing": lambda it: pkg.run_timing(it[0].program, cfg),
        "functional": lambda it: [pkg.run_program(it[0].program, cfg, x)
                                  for x in it[2]],
        "hazards": lambda it: pkg.check_hazards(
            it[0].program, it[1], allocs=it[0].memmap["fm_allocs"],
            cfg=cfg),
    }[phase]
    return run, items


def _tokens(stream):
    """The DPON and DPBY sets of a stream's instructions, in order."""
    return [(ins.dpon, ins.dpby) for ins in stream.instructions]


def time_pass(run, items):
    """(seconds, results) of one call per item."""
    gc.collect()
    start = time.perf_counter()
    results = [run(it) for it in items]
    return time.perf_counter() - start, results


def summarize(times):
    """{side: (q1, median, q3) seconds, "ratio": (q1, median, q3) of the
    per-pair change / parent} from times = [(parent s, change s), ...]
    in pair order."""
    out = {side: quartiles([t[k] for t in times])
           for k, side in enumerate(SIDES)}
    out["ratio"] = quartiles([c / p for p, c in times])
    return out


def report_lines(summary):
    out = [f"{'side':<8} {'median':>10} {'q1':>10} {'q3':>10}"]
    for side in SIDES:
        q1, med, q3 = summary[side]
        out.append(f"{side:<8} {med:>10.6g} {q1:>10.6g} {q3:>10.6g}")
    q1, med, q3 = summary["ratio"]
    out.append(f"ratio change/parent: median {med:.3f} "
               f"[{q1:.3f}, {q3:.3f}]")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--phase", required=True, choices=PHASES)
    ap.add_argument("--pairs", type=int, default=21)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        cases = build_cases(args.parent, args.workload)
        sides = [prepare(load_side(tree, f"dpuc_{side}", tmp), args.phase,
                         cases)
                 for tree, side in zip((args.parent, args.change), SIDES)]
        for side in sides:      # first calls pay one-off costs untimed
            time_pass(*side)
        times, last = [], [None, None]
        for i in range(args.pairs):
            took = [0.0, 0.0]
            for k in (0, 1) if i % 2 == 0 else (1, 0):
                took[k], last[k] = time_pass(*sides[k])
            times.append(tuple(took))
    print(f"workload {args.workload}, phase {args.phase}, {len(cases)} "
          f"cases, {args.pairs} pairs (seconds per pass)")
    for line in report_lines(summarize(times)):
        print(line)
    if args.phase in ("compile", "emit"):
        differ = [case.name for (case, _), a, b in zip(cases, *last)
                  if a != b]
        print("assemblies: " + (f"differ on {', '.join(differ)}" if differ
                                else f"identical on all {len(cases)} "
                                     f"cases"))
    if args.phase == "deps":
        differ = [case.name for (case, _), a, b in zip(cases, *last)
                  if _tokens(a) != _tokens(b)]
        print("dpon/dpby: " + (f"differ on {', '.join(differ)}" if differ
                               else f"identical on all {len(cases)} cases"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
