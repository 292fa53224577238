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
  then of three faulty copies of it, each re-timed (or the error that
  re-timing raised), and a last line per fault naming the hazard kinds
  reported.  The faults, each applied to the program and to its
  `fm_allocs` alike:
  - `dpon-cleared`: every 7th instruction's DPON set cleared;
  - `window-rebased`: the first window that shares its live span with
    another window, but no byte, moved onto that one (into its FM memory
    and to its start);
  - `stream-moved`: the first stream whose windows fit past the last
    window of an FM memory that another unit reads or writes, moved
    there.

The sweep ends with a line per fault giving, over all compiles, how many
reports named each hazard kind.  `diff -r` of the OUT directories of two
checkouts is then a parity check of everything the compiler emits and
the simulator computes.
"""

import argparse
import hashlib
import os
import sys
from collections import Counter
from dataclasses import replace

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import numpy as np  # noqa: E402

from dpuc import cli, corpus  # noqa: E402
from dpuc import graph as G  # noqa: E402
from dpuc.compiler import CompileOptions, compile_graph  # noqa: E402
from dpuc.errors import CompileError, DpucError  # noqa: E402
from dpuc.machine import FM, Addr, MachineConfig  # noqa: E402
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
    """The lines of the hazard report of a re-timed program, and the set
    of hazard kinds in it (the error's type when re-timing fails)."""
    try:
        report = check_hazards(prog, run_timing(prog, cfg), allocs=allocs,
                               cfg=cfg)
    except DpucError as e:
        return [f"{type(e).__name__}: {e}"], {type(e).__name__}
    return ([" ".join(map(str, entry)) for entry in report],
            {entry[0] for entry in report})


def _moved(prog, allocs, moves):
    """prog and allocs with window i of `moves` {i: (mem, start)} placed
    there: each FM operand inside the window while it is live moves by
    the same distance, and so does its allocation record."""
    instructions = list(prog.instructions)
    for i, (mem, start) in moves.items():
        a = allocs[i]
        for idx in range(a["first"], a["last"] + 1):
            ins = instructions[idx]
            edits = {f: Addr(FM, addr.off - a["start"] + start, mem)
                     for f in ("src", "src2", "dst")
                     if (addr := getattr(ins, f)) is not None
                     and addr.space == FM and addr.mem == a["mem"]
                     and a["start"] <= addr.off < a["start"] + a["length"]}
            instructions[idx] = replace(ins, **edits)
    return (replace(prog, instructions=instructions),
            [dict(a, mem=moves[i][0], start=moves[i][1]) if i in moves else a
             for i, a in enumerate(allocs)])


def dpon_cleared(prog, allocs, cfg):
    return f"every {DPON_CLEARED_EVERY}th DPON cleared", replace(
        prog, instructions=[
            replace(ins, dpon=frozenset())
            if i % DPON_CLEARED_EVERY == DPON_CLEARED_EVERY - 1 else ins
            for i, ins in enumerate(prog.instructions)]), allocs


def window_rebased(prog, allocs, cfg):
    for i, a in enumerate(allocs):
        for b in allocs:
            if (b is not a
                    and a["first"] <= b["last"] and b["first"] <= a["last"]
                    and (b["mem"] != a["mem"]
                         or a["start"] >= b["start"] + b["length"]
                         or b["start"] >= a["start"] + a["length"])
                    and b["start"] + a["length"] <= cfg.fm_bytes):
                return ((f"window {a['key']} rebased onto {b['key']}",)
                        + _moved(prog, allocs, {i: (b["mem"], b["start"])}))
    return None


def _units(prog):
    """{(fm memory, "r" or "w"): the units reading or writing it}."""
    units = {}
    for ins in prog.instructions:
        for f, d in (("src", "r"), ("src2", "r"), ("dst", "w")):
            a = getattr(ins, f)
            if a is not None and a.space == FM:
                units.setdefault((a.mem, d), set()).add(ins.op)
    return units


def stream_moved(prog, allocs, cfg):
    units = _units(prog)
    streams = {}    # "node/stream" -> indices of its windows
    for i, a in enumerate(allocs):
        streams.setdefault(a["key"].rsplit("/", 1)[0], []).append(i)
    for name, idxs in streams.items():
        mem = allocs[idxs[0]]["mem"]
        lo = min(allocs[i]["start"] for i in idxs)
        hi = max(allocs[i]["start"] + allocs[i]["length"] for i in idxs)
        for other in range(cfg.fm_memories):
            ends = [a["start"] + a["length"] for a in allocs
                    if a["mem"] == other]
            if other == mem or not ends or max(ends) + hi - lo > cfg.fm_bytes:
                continue
            if any(units.get((other, d), set()) - units.get((mem, d), set())
                   for d in "rw"):
                return ((f"stream {name} moved to fm{other}",)
                        + _moved(prog, allocs, {
                            i: (other, max(ends) + allocs[i]["start"] - lo)
                            for i in idxs}))
    return None


FAULTS = {"dpon-cleared": dpon_cleared, "window-rebased": window_rebased,
          "stream-moved": stream_moved}


def sweep_one(g, cfg, options, outdir):
    """Write the compile's records to outdir; return {fault: the hazard
    kinds reported} for the faults that applied."""
    os.makedirs(outdir, exist_ok=True)
    try:
        art = compile_graph(g, cfg, options)
    except CompileError as e:
        with open(os.path.join(outdir, "error.txt"), "w") as fh:
            fh.write(f"{e}\nattempts: {len(e.attempts)}\n")
        return {}
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
    caught = {}
    with open(os.path.join(outdir, "hazards.txt"), "w") as fh:
        fh.write("as compiled:\n")
        fh.writelines(f"{l}\n" for l in hazard_lines(art.program, allocs,
                                                     cfg)[0])
        for fault, inject in FAULTS.items():
            faulty = inject(art.program, allocs, cfg)
            if faulty is None:
                continue
            what, prog, moved = faulty
            lines, caught[fault] = hazard_lines(prog, moved, cfg)
            fh.write(f"{fault}: {what}:\n")
            fh.writelines(f"{l}\n" for l in lines)
        for fault in FAULTS:
            kinds = (" ".join(sorted(caught[fault])) or "nothing"
                     if fault in caught else "not applicable")
            fh.write(f"{fault} caught: {kinds}\n")
    return caught


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out")
    args = ap.parse_args(argv)
    count = 0
    caught = {fault: Counter() for fault in FAULTS}
    for name, g, machine in jobs():
        cfg = MachineConfig(**MACHINES[machine])
        for mode in ("series", "upsample"):
            for pipeline in (True, False):
                options = CompileOptions(pipeline=pipeline, deconv_mode=mode)
                run = f"{mode}-{('sequential', 'pipeline')[pipeline]}"
                for fault, kinds in sweep_one(
                        g, cfg, options,
                        os.path.join(args.out, name, machine, run)).items():
                    caught[fault].update(kinds or ["nothing"])
                count += 1
    print(f"{count} compiles swept into {args.out}")
    for fault, kinds in caught.items():
        print(f"{fault}: " + ", ".join(f"{kind} in {n}"
                                       for kind, n in sorted(kinds.items())))


if __name__ == "__main__":
    main()
