"""Measurement: set-up, timed rounds, correctness checks and metrics.

A run measures one workload in one process on one thread.  It drives the
public entry points the way `dpuc compile` and `dpuc verify` do:
parse_graph -> compile_graph -> run_program vs reference_execute ->
run_timing -> check_hazards.

Untraced runs (--trace 0) interleave compile rounds (compile every graph
once) with verify rounds (the `dpuc verify` sequence on every graph).  A
round's sample is the sum of its successful operations; a metric is the
median over rounds.

Traced runs (--trace 1) alternate an untraced and a traced round of parse
plus the verify sequence, so the gap between the two is the tracing
overhead, and report per-layer self times and counts from the traced
rounds.

Times are wall seconds scaled to a fixed host speed (see hostclock.py):
every step is bracketed by a calibration kernel, because the speed of a
shared host drifts by more than the bounds allow.  Reports keep the
unscaled wall medians too.

Every operation is checked: an assembly must be byte-identical to the
first compile of its graph, every seed must match the reference executor
bit for bit, every trace must be hazard-free and the simulated statistics
must not change between rounds.  A failed operation is counted and left
out of the timing.
"""

import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

from dpuc import compiler as C
from dpuc import corpus as dpuc_corpus
from dpuc import graph as G
from dpuc import simulator as S
from dpuc.machine import CONV, LOAD, MachineConfig, OP_TYPES, SAVE

import tracing
import workloads as W

SEEDS_PER_GRAPH = 2     # random inputs replayed per graph by one verify
COMPILE_SHARE = 0.5     # compile-round time per unit of verify-round time
SETUP_REPEATS = 3       # workload builds timed for setup_s (median)

END_TO_END = (
    ("compile_s", "s"), ("verify_s", "s"), ("sim_cycles", "cycles"),
    ("instructions", "count"), ("ddr_bytes", "B"), ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("graph.parse_s", "s"), ("graph.fold_s", "s"), ("graph.fuse_s", "s"),
    ("graph.schedule_s", "s"), ("graph.fused", "count"),
    ("graph.nodes_after_fold", "count"),
    ("lowering.lower_s", "s"), ("lowering.calls", "count"),
    ("lowering.ladder_retries", "count"), ("lowering.tiles", "count"),
    ("lowering.slabs", "count"),
    ("memory.layout_s", "s"), ("memory.assign_fm_s", "s"),
    ("memory.liveness_s", "s"), ("memory.liveness_ranges", "count"),
    ("memory.fm_allocs", "count"),
    ("pipeline.skew_s", "s"), ("pipeline.deps_s", "s"),
    ("pipeline.noops", "count"), ("pipeline.tokens", "count"),
    ("machine.emit_s", "s"), ("machine.asm_bytes", "B"),
) + tuple((f"machine.instr.{op}", "count") for op in OP_TYPES) + (
    ("compiler.self_s", "s"), ("compiler.wall_s", "s"),
    ("simulator.functional_s", "s"), ("simulator.functional_ips", "instr/s"),
    ("simulator.reference_s", "s"), ("simulator.timing_s", "s"),
    ("simulator.hazard_s", "s"), ("simulator.hazard_alloc_pairs", "count"),
) + tuple((f"sim.busy.{op}", "cycles") for op in OP_TYPES) + tuple(
    (f"sim.stall.{op}", "cycles") for op in OP_TYPES) + (
    ("sim.fill_drain", "cycles"), ("sim.macs", "count"),
    ("sim.macs_per_cycle", "1/cycle"),
    ("ddr.act_load_bytes", "B"), ("ddr.weight_load_bytes", "B"),
    ("ddr.save_bytes", "B"), ("tracing.overhead", "ratio"),
)
# span name -> per-layer metric of its self time
SELF_TIME_METRIC = {name: name + "_s" for name in tracing.SPAN_NAMES}
SELF_TIME_METRIC["compiler.compile"] = "compiler.self_s"


class OperationFailed(Exception):
    pass


@dataclass
class Prepared:
    case: W.Case
    graph: object      # parsed dpuc graph
    inputs: list       # SEEDS_PER_GRAPH input dicts


def machine_stats(prog, trace):
    """Simulated-machine numbers of one program, from its instructions and
    its timing trace."""
    stall = dict.fromkeys(OP_TYPES, 0)
    for e in trace.events:
        stall[e.queue] += e.start - e.issue
    moved = {(LOAD, "act"): 0, (LOAD, "weight"): 0, (SAVE, "act"): 0}
    macs = 0
    for ins in prog.instructions:
        if ins.is_noop:
            continue
        if ins.op in (LOAD, SAVE):
            moved[(ins.op, ins.sub)] += ins.transfer_bytes()
        elif ins.op == CONV:
            macs += (ins.conv_out_rows() * ins.out_w * ins.c_out
                     * ins.kh * ins.kw * ins.c_in)
    return {
        "makespan": trace.makespan,
        "instructions": len(prog.instructions),
        "busy": dict(trace.busy), "stall": stall,
        "fill_drain": trace.makespan - max(trace.busy.values()),
        "macs": macs,
        "act_load_bytes": moved[(LOAD, "act")],
        "weight_load_bytes": moved[(LOAD, "weight")],
        "save_bytes": moved[(SAVE, "act")],
    }


def _differing_bytes(got, ref):
    return sum(int(np.count_nonzero(got[n] != ref[n])) for n in ref)


def verify_sequence(g, cfg, options, inputs, clock):
    """What `dpuc verify` does after parsing, one clocked step at a time.
    Returns the artifacts, the timing trace, the number of output bytes
    that differ from the reference executor, the hazard report and the
    (scaled, wall) seconds of the compile step."""
    start = clock.mark()
    art = clock.run(C.compile_graph, g, cfg, options)
    compiled = clock.since(start)
    folded = clock.run(G.fold_constants_and_quantizers, g)
    differ = 0
    for inp in inputs:
        got = clock.run(S.run_program, art.program, cfg, inp)
        ref = clock.run(S.reference_execute, folded, inp)
        differ += clock.run(_differing_bytes, got, ref)
    trace = clock.run(S.run_timing, art.program, cfg)
    hazards = clock.run(S.check_hazards, art.program, trace,
                        allocs=art.memmap["fm_allocs"], cfg=cfg)
    return art, trace, differ, hazards, compiled


class Runner:
    """Times checked operations and keeps the references they are checked
    against."""

    def __init__(self, cfg, clock, tracer=None):
        self.cfg = cfg
        self.clock = clock
        self.tracer = tracer
        self.asm = {}      # graph -> assembly of its first compile
        self.stats = {}    # graph -> machine_stats of its first verify
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def _same_asm(self, name, art):
        if self.asm.setdefault(name, art.assembly) != art.assembly:
            raise OperationFailed("assembly differs from the first compile")

    def compile_op(self, p):
        start = self.clock.mark()
        art = self.clock.run(C.compile_graph, p.graph, self.cfg,
                             p.case.options)
        took = self.clock.since(start)
        self._same_asm(p.case.name, art)
        return {"compile_s": took}

    def verify_op(self, p, parse=False):
        """The verify sequence; its compile step is a compile sample too."""
        start = self.clock.mark()
        g = (self.clock.run(G.parse_graph, p.case.text) if parse
             else p.graph)
        art, trace, differ, hazards, compiled = verify_sequence(
            g, self.cfg, p.case.options, p.inputs, self.clock)
        took = self.clock.since(start)
        self._same_asm(p.case.name, art)
        if differ:
            raise OperationFailed(f"{differ} output bytes differ from the "
                                  f"reference executor")
        if hazards:
            raise OperationFailed(f"{len(hazards)} hazards, first: "
                                  f"{hazards[0][3]}")
        stats = machine_stats(art.program, trace)
        if self.stats.setdefault(p.case.name, stats) != stats:
            raise OperationFailed("simulated statistics changed")
        return {"compile_s": compiled, "verify_s": took}

    def round(self, op, prepared):
        """Run `op` on every graph; {timing: [scaled, wall] seconds summed
        over the successful operations}."""
        total = {}
        for p in prepared:
            if self.tracer is not None:
                self.tracer.graph = p.case.name
            self.attempted += 1
            try:
                times = op(p)
            except Exception as e:  # a failing operation is counted, not fatal
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{p.case.name}: "
                                       f"{type(e).__name__}: {e}")
                continue
            for name, (scaled, wall) in times.items():
                acc = total.setdefault(name, [0.0, 0.0])
                acc[0] += scaled
                acc[1] += wall
        return total


def prepare(workload, seed):
    """Build, parse and fold every graph and draw its inputs."""
    rng = np.random.default_rng([seed, len(W.NAMES)])
    out = []
    for case in W.cases(workload, seed):
        g = G.parse_graph(case.text)
        folded = G.fold_constants_and_quantizers(g)
        out.append(Prepared(case, g,
                            W.random_inputs(rng, folded, SEEDS_PER_GRAPH)))
    return out


def warm_up(cfg, clock):
    """Pay lazy one-off costs (first numpy convolution, first calls of
    every pass) on a graph outside the workload."""
    g = dpuc_corpus.corpus_graph("toy_conv")
    folded = G.fold_constants_and_quantizers(g)
    inputs = W.random_inputs(np.random.default_rng(0), folded, 1)
    verify_sequence(g, cfg, C.CompileOptions(), inputs, clock)


def set_up(workload, seed, cfg, clock):
    """Returns the prepared workload and {part: (scaled, wall) seconds}
    of its set-up; the build part is the median of SETUP_REPEATS."""
    start = clock.mark()
    warm_up(cfg, clock)
    parts = {"warm_up_s": clock.since(start)}
    builds = []
    for _ in range(SETUP_REPEATS):
        start = clock.mark()
        prepared = clock.run(prepare, workload, seed)
        builds.append(clock.since(start))
    parts["build_s"] = tuple(statistics.median(b[i] for b in builds)
                             for i in (0, 1))
    return prepared, parts


def tail(samples):
    """(percent, value) of the highest nearest-rank percentile with at
    least ten samples above it, or None when there are too few samples."""
    k = len(samples) - 10
    if k < 1:
        return None
    return 100 * k // len(samples), sorted(samples)[k - 1]


def timing_summary(rounds, name):
    """Median, tail and count of one timing over rounds of
    {name: [scaled, wall]}; the median wall time is kept for reference."""
    samples = [r[name] for r in rounds if name in r]
    if not samples:   # every operation failed; the result says so
        return {"median": 0.0, "n": 0, "tail_percent": None, "tail": None,
                "wall_median": 0.0}
    scaled = [s for s, _wall in samples]
    t = tail(scaled)
    return {"median": statistics.median(scaled), "n": len(scaled),
            "tail_percent": t and t[0], "tail": t and t[1],
            "wall_median": statistics.median(w for _s, w in samples)}


def simulated_metrics(stats):
    """End-to-end and per-layer numbers of the simulated machine, summed
    (geometric mean for sim_cycles) over the workload's graphs."""
    vals = list(stats.values())
    if not vals:   # every verify failed; the result says so
        vals = [{"makespan": 1, "instructions": 0, "fill_drain": 0,
                 "macs": 0, "busy": dict.fromkeys(OP_TYPES, 0),
                 "stall": dict.fromkeys(OP_TYPES, 0), "act_load_bytes": 0,
                 "weight_load_bytes": 0, "save_bytes": 0}]
    out = {
        "sim_cycles": math.exp(statistics.fmean(
            math.log(s["makespan"]) for s in vals)),
        "instructions": sum(s["instructions"] for s in vals),
        "ddr_bytes": sum(s["act_load_bytes"] + s["weight_load_bytes"]
                         + s["save_bytes"] for s in vals),
        "sim.fill_drain": sum(s["fill_drain"] for s in vals),
        "sim.macs": sum(s["macs"] for s in vals),
        "sim.macs_per_cycle": (sum(s["macs"] for s in vals)
                               / sum(s["makespan"] for s in vals)),
    }
    for op in OP_TYPES:
        out[f"sim.busy.{op}"] = sum(s["busy"][op] for s in vals)
        out[f"sim.stall.{op}"] = sum(s["stall"][op] for s in vals)
    for key in ("act_load_bytes", "weight_load_bytes", "save_bytes"):
        out[f"ddr.{key}"] = sum(s[key] for s in vals)
    return out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(prepared, cfg, clock, seconds):
    """Cycles of compile rounds then one verify round until the deadline.
    A cycle's compile rounds take about COMPILE_SHARE of the previous
    verify round's time, so both metrics sample the whole run."""
    runner = Runner(cfg, clock)
    deadline = time.perf_counter() + seconds
    rounds = []
    verify_wall = 0.0
    while True:
        t0 = time.perf_counter()
        while True:
            rounds.append(runner.round(runner.compile_op, prepared))
            if time.perf_counter() - t0 >= COMPILE_SHARE * verify_wall:
                break
        t0 = time.perf_counter()
        rounds.append(runner.round(runner.verify_op, prepared))
        verify_wall = time.perf_counter() - t0
        if time.perf_counter() >= deadline:
            break
    return runner, {name: timing_summary(rounds, name)
                    for name in ("compile_s", "verify_s")}


def layer_metrics(tracer, scale):
    """Per-layer metrics: the median over traced rounds of each round's
    self times and counts.  scale[r] turns round r's wall seconds into
    scaled seconds."""
    per_round = []
    for rnd, factor in enumerate(scale):
        totals, counts = tracer.round_totals(rnd)
        m = {metric: factor * totals.get(name, (0.0, 0.0))[0]
             for name, metric in SELF_TIME_METRIC.items()}
        m["compiler.wall_s"] = (
            factor * totals.get("compiler.compile", (0, 0.0))[1])
        fn_s = factor * totals.get("simulator.functional", (0, 0.0))[1]
        m["simulator.functional_ips"] = (
            counts.pop("simulator.functional_instructions", 0) / fn_s
            if fn_s else 0.0)
        m.update(counts)
        per_round.append(m)
    names = {name for m in per_round for name in m}
    return {name: statistics.median(m.get(name, 0) for m in per_round)
            for name in names}


def run_traced(prepared, cfg, clock, seconds, workload):
    """Alternate untraced and traced rounds of parse plus the verify
    sequence until the deadline."""
    tracer = tracing.Tracer(workload)
    runner = Runner(cfg, clock, tracer)

    def op(p):
        return runner.verify_op(p, parse=True)

    deadline = time.perf_counter() + seconds
    plain, traced = [], []
    while True:
        plain.append(runner.round(op, prepared))
        tracer.round = len(traced)
        with tracer.installed():
            traced.append(runner.round(op, prepared))
        if time.perf_counter() >= deadline:
            break
    scale = [r["verify_s"][0] / r["verify_s"][1] if "verify_s" in r else 1.0
             for r in traced]
    layers = layer_metrics(tracer, scale)
    timings = {"plain_round_s": timing_summary(plain, "verify_s"),
               "traced_round_s": timing_summary(traced, "verify_s")}
    plain_s = timings["plain_round_s"]["median"]
    layers["tracing.overhead"] = (
        timings["traced_round_s"]["median"] / plain_s - 1.0 if plain_s
        else 0.0)
    return runner, tracer, layers, timings


def measure(workload, seed, seconds, trace, clock, import_s=(0.0, 0.0),
            spans_dir=None):
    """One benchmark run.  Returns the full report; report["result"] is
    the contract's result object.  import_s: (scaled, wall) seconds the
    caller spent importing numpy and dpuc."""
    cfg = MachineConfig()
    prepared, setup_parts = set_up(workload, seed, cfg, clock)
    setup_parts["import_s"] = import_s
    uname = os.uname()
    report = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace,
              "setup": {k: {"scaled": v[0], "wall": v[1]}
                        for k, v in setup_parts.items()},
              "host": {"machine": uname.machine, "kernel": uname.release,
                       "cpus": os.cpu_count(), "python": sys.version,
                       "numpy": np.__version__}}
    if trace:
        runner, tracer, layers, timings = run_traced(
            prepared, cfg, clock, seconds, workload)
        if spans_dir:
            os.makedirs(spans_dir, exist_ok=True)
            tracer.dump(os.path.join(spans_dir,
                                     f"spans-{workload}-seed{seed}.json"))
        metrics = dict(layers)
        wanted = PER_LAYER
    else:
        runner, timings = run_untraced(prepared, cfg, clock, seconds)
        metrics = {k: v["median"] for k, v in timings.items()}
        metrics["setup_s"] = sum(v[0] for v in setup_parts.values())
        metrics["peak_rss_mb"] = peak_rss_mb()
        wanted = END_TO_END
    report["timings"] = timings
    report["simulated"] = simulated_metrics(runner.stats)
    report["makespans"] = {name: s["makespan"]
                           for name, s in sorted(runner.stats.items())}
    metrics.update(report["simulated"])
    report["errors"] = runner.errors
    report["fail_ratio"] = runner.failed / runner.attempted
    report["result"] = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted},
    }
    return report


def summary_lines(report):
    """Human-readable lines: every metric with its unit, the timing
    sample counts and tails, and per-graph makespans."""
    res = report["result"]
    lines = [f"workload {report['workload']} seed {report['seed']} "
             f"trace {report['trace']}: {res['attempted']} operations, "
             f"{res['failed']} failed, fail_ratio {report['fail_ratio']}"]
    for name, m in res["metrics"].items():
        lines.append(f"  {name} = {m['value']} {m['unit']}")
    for name, t in report["timings"].items():
        tail_txt = (f"p{t['tail_percent']} {t['tail']:.6f} s"
                    if t["tail"] is not None else "no tail (n <= 10)")
        lines.append(f"  {name}: median {t['median']:.6f} s, {tail_txt}, "
                     f"n={t['n']} rounds; median wall "
                     f"{t['wall_median']:.6f} s")
    lines.append("  setup: " + ", ".join(
        f"{k} {v['scaled']:.6f} s (wall {v['wall']:.6f} s)"
        for k, v in sorted(report["setup"].items())))
    for name, cycles in report["makespans"].items():
        lines.append(f"  sim.makespan.{name} = {cycles} cycles")
    for err in report["errors"]:
        lines.append(f"  FAILED {err}")
    return lines
