#!/usr/bin/env python3
"""Parity sweep: compile, run and hazard-check a fixed set of programs.

    python3 scripts/artifact_sweep.py OUT

Compiles the corpus graphs on eight machines, and the benchmark's
`scaled` and `deep` graphs (seed 0) on the default machine, each under
both deconv modes and both pipeline settings: 244 compiles.  Each one
gets a directory OUT/<graph>/<machine>/<deconv mode>-<pipeline|sequential>
holding

- the files `dpuc compile` writes (`program.asm`, `memmap.json`,
  `params.bin`, `report.json`, `config.json`), or `error.txt` with the
  CompileError text and its attempt count;
- `outputs.txt`: sha256 of every `run_program` output for input seeds 0
  and 1;
- `trace.json`: the `run_timing` trace;
- `hazards.txt`: the `check_hazards` report of the program as compiled,
  and of the program with every 7th instruction's DPON set cleared and
  re-timed (or the error that re-timing raised).

`diff -r` of the OUT directories of two checkouts is then a parity check
of everything the compiler emits and the simulator computes.
"""

import argparse
import hashlib
import os
import sys
from dataclasses import replace

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import numpy as np  # noqa: E402

from dpuc import cli, corpus  # noqa: E402
from dpuc import graph as G  # noqa: E402
from dpuc.compiler import CompileOptions, compile_graph  # noqa: E402
from dpuc.errors import CompileError, DpucError  # noqa: E402
from dpuc.machine import MachineConfig  # noqa: E402
from dpuc.simulator import (  # noqa: E402
    check_hazards, run_program, run_timing)
from dpuc.timeline import emit_timeline  # noqa: E402

import workloads  # noqa: E402

MACHINES = {
    "default": {},
    "small": {"fm_bank_rows": 8, "pm_bytes": 16384},
    "fine": {"fm_row_bytes": 16, "fm_bank_rows": 8192},
    "narrow": {"fm_bank_rows": 1, "fm_row_bytes": 256, "gamma": 2048},
    "fm2": {"fm_memories": 2},
    "pm4k": {"pm_bytes": 4096},
    "rows2": {"fm_bank_rows": 2},
    "hopeless": {"fm_bank_rows": 1, "fm_row_bytes": 16, "gamma": 8},
}
SEEDS = (0, 1)
DPON_CLEARED_EVERY = 7


def jobs():
    """(graph name, graph, machine name) in sweep order."""
    out = [(name, corpus.corpus_graph(name), machine)
           for name in corpus.corpus_names() for machine in MACHINES]
    for workload in ("scaled", "deep"):
        for case in workloads.cases(workload, 0):
            out.append((case.name, G.parse_graph(case.text), "default"))
    return out


def hazard_lines(prog, allocs, cfg):
    try:
        report = check_hazards(prog, run_timing(prog, cfg), allocs=allocs,
                               cfg=cfg)
    except DpucError as e:
        return [f"{type(e).__name__}: {e}"]
    return [" ".join(map(str, entry)) for entry in report]


def sweep_one(g, cfg, options, outdir):
    os.makedirs(outdir, exist_ok=True)
    try:
        art = compile_graph(g, cfg, options)
    except CompileError as e:
        with open(os.path.join(outdir, "error.txt"), "w") as fh:
            fh.write(f"{e}\nattempts: {len(e.attempts)}\n")
        return
    cli.save_artifacts(art, cfg, outdir)
    folded = G.fold_constants_and_quantizers(g)
    lines = []
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        inputs = {n: rng.integers(-128, 128, folded.tensors[n].shape)
                  .astype(np.int8) for n in folded.inputs}
        for name, arr in sorted(run_program(art.program, cfg,
                                            inputs).items()):
            lines.append(f"seed {seed} {name} "
                         f"{hashlib.sha256(arr.tobytes()).hexdigest()}")
    with open(os.path.join(outdir, "outputs.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(outdir, "trace.json"), "w") as fh:
        fh.write(emit_timeline(run_timing(art.program, cfg), "json"))
    allocs = art.memmap["fm_allocs"]
    cleared = replace(art.program, instructions=[
        replace(ins, dpon=frozenset())
        if i % DPON_CLEARED_EVERY == DPON_CLEARED_EVERY - 1 else ins
        for i, ins in enumerate(art.program.instructions)])
    with open(os.path.join(outdir, "hazards.txt"), "w") as fh:
        fh.write("as compiled:\n")
        fh.writelines(f"{l}\n" for l in hazard_lines(art.program, allocs,
                                                     cfg))
        fh.write(f"every {DPON_CLEARED_EVERY}th DPON cleared:\n")
        fh.writelines(f"{l}\n" for l in hazard_lines(cleared, allocs, cfg))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out")
    args = ap.parse_args(argv)
    count = 0
    for name, g, machine in jobs():
        cfg = MachineConfig(**MACHINES[machine])
        for mode in ("series", "upsample"):
            for pipeline in (True, False):
                options = CompileOptions(pipeline=pipeline, deconv_mode=mode)
                run = f"{mode}-{('sequential', 'pipeline')[pipeline]}"
                sweep_one(g, cfg, options,
                          os.path.join(args.out, name, machine, run))
                count += 1
    print(f"{count} compiles swept into {args.out}")


if __name__ == "__main__":
    main()
