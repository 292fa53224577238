"""Span tracing around the public functions of each dpuc module.

`Tracer.installed()` swaps each function in `WRAPPED` for a wrapper that
records a span (name, start, end, parent span, round, graph) and puts the
original back on exit.  A function is patched in the namespace its caller
looks it up in: the compiler imports `emit_assembly` by name, every other
call goes through the module object, and `compile_graph` imports
`run_timing` from `dpuc.simulator` at call time.  Spans stay in memory
until `dump()`.

Counts are taken at the same boundaries, from the arguments and results of
the wrapped calls, but only after a round ends, so that counting costs no
span any time.
"""

import json
import time
from collections import Counter
from contextlib import contextmanager
from functools import wraps

from dpuc import compiler, graph, lowering, memory, pipeline, simulator
from dpuc.machine import OP_TYPES

WRAPPED = (
    (graph, "parse_graph", "graph.parse"),
    (graph, "fold_constants_and_quantizers", "graph.fold"),
    (graph, "fuse_superlayers", "graph.fuse"),
    (graph, "explore_schedules", "graph.schedule"),
    (lowering, "lower_node", "lowering.lower"),
    (memory, "ddr_layout", "memory.layout"),
    (memory, "assign_fm_memories", "memory.assign_fm"),
    (memory, "compute_liveness", "memory.liveness"),
    (pipeline, "pipeline", "pipeline.skew"),
    (pipeline, "assign_typed_deps", "pipeline.deps"),
    (compiler, "emit_assembly", "machine.emit"),
    (compiler, "compile_graph", "compiler.compile"),
    (simulator, "run_program", "simulator.functional"),
    (simulator, "reference_execute", "simulator.reference"),
    (simulator, "run_timing", "simulator.timing"),
    (simulator, "check_hazards", "simulator.hazard"),
)
SPAN_NAMES = tuple(name for _m, _a, name in WRAPPED)


def _count_fold(args, kwargs, folded, parent):
    # the verify sequence folds again for the reference executor; count
    # the compiler's fold only
    if parent != "compiler.compile":
        return {}
    return {"graph.nodes_after_fold": len(folded.nodes)}


def _count_fuse(args, kwargs, fused, parent):
    return {"graph.fused": sum(1 for n in fused.nodes.values() if n.fused)}


def _count_lower(args, kwargs, lowered, parent):
    return {"lowering.calls": 1, "lowering.tiles": len(lowered.tiles),
            "lowering.slabs": lowered.notes.get("slabs", 0)}


def _count_liveness(args, kwargs, ranges, parent):
    return {"memory.liveness_ranges": len(ranges)}


def _count_deps(args, kwargs, stream, parent):
    return {"pipeline.noops": sum(1 for i in stream.instructions if i.is_noop),
            "pipeline.tokens": sum(len(i.dpon) for i in stream.instructions)}


def _count_emit(args, kwargs, asm, parent):
    ops = Counter(ins.op for ins in args[0].instructions)
    out = {f"machine.instr.{op}": ops[op] for op in OP_TYPES}
    out["machine.asm_bytes"] = len(asm.encode())
    return out


def _count_compile(args, kwargs, art, parent):
    return {"lowering.ladder_retries": len(art.report["attempts"]),
            "memory.fm_allocs": len(art.memmap["fm_allocs"])}


def _count_functional(args, kwargs, outputs, parent):
    return {"simulator.functional_instructions": len(args[0].instructions)}


def _count_hazard(args, kwargs, report, parent):
    per_mem = Counter(a["mem"] for a in kwargs.get("allocs") or ())
    return {"simulator.hazard_alloc_pairs":
            sum(n * (n - 1) // 2 for n in per_mem.values())}


COUNTERS = {
    "graph.fold": _count_fold,
    "graph.fuse": _count_fuse,
    "lowering.lower": _count_lower,
    "memory.liveness": _count_liveness,
    "pipeline.deps": _count_deps,
    "machine.emit": _count_emit,
    "compiler.compile": _count_compile,
    "simulator.functional": _count_functional,
    "simulator.hazard": _count_hazard,
}


class Tracer:
    """Spans of one workload run.  A span is
    [name, start, end, parent index or -1, round, graph]."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self.round = 0
        self.graph = None
        self._stack = []
        self._pending = []   # (span index, args, kwargs, result) to count
        self._counts = {}    # round -> Counter

    def _wrap(self, fn, name):
        count = COUNTERS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.round, self.graph]
            self.spans.append(span)
            self._stack.append(sid)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                self._pending.append((sid, args, kwargs, result))
            return result
        return traced

    @contextmanager
    def installed(self):
        """Trace every function in WRAPPED for the duration of the block;
        counts of the block are taken when it exits."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in WRAPPED]
        try:
            for mod, attr, name in WRAPPED:
                setattr(mod, attr, self._wrap(getattr(mod, attr), name))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)
            self._take_counts()

    def _take_counts(self):
        for sid, args, kwargs, result in self._pending:
            name, _t0, _t1, parent, rnd, _g = self.spans[sid]
            parent_name = self.spans[parent][0] if parent >= 0 else None
            self._counts.setdefault(rnd, Counter()).update(
                COUNTERS[name](args, kwargs, result, parent_name))
        self._pending = []

    def round_totals(self, rnd):
        """{span name: (total self seconds, total wall seconds)} and the
        counts of one round.  Self time is a span's duration minus the
        durations of its direct children."""
        child = {}
        for span in self.spans:
            if span[4] == rnd and span[3] >= 0:
                child[span[3]] = child.get(span[3], 0.0) + span[2] - span[1]
        totals = {}
        for sid, (name, t0, t1, _p, r, _g) in enumerate(self.spans):
            if r != rnd:
                continue
            own, wall = totals.get(name, (0.0, 0.0))
            totals[name] = (own + (t1 - t0) - child.get(sid, 0.0),
                            wall + (t1 - t0))
        return totals, dict(self._counts.get(rnd, {}))

    def dump(self, path):
        """Write every span as JSON, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [{"id": i, "name": n, "start": a - t0, "end": b - t0,
                 "parent": p, "round": r, "graph": g,
                 "workload": self.workload}
                for i, (n, a, b, p, r, g) in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump(rows, fh)
            fh.write("\n")
