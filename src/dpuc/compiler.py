"""Pass driver: schedule, lower, allocate, pipeline, bind, encode.

The compiler takes the top-ranked schedule, lowers each node to tiles of
ISA instructions whose addresses are still symbolic, and from the node's
table of those operands (`LoweredNode.operands`) gives its streams FM
memories by data flow and its tile windows slots sized to what the window
operands touch, then lays out DDR with a swap slot for each tensor a kept
lowering names.  Per-node tile streams are skewed by the software
pipeliner and concatenated; `memory.compute_liveness` reads each planned
window's span of final instruction indices off the pipelined stream's
still-symbolic operands (only that stream has the final order), and those
windows are the memory map's `fm_allocs`, the one FM allocation record the
hazard checker checks.  Binding then replaces every symbolic address
with a placed one, and the typed dependencies are derived over the whole
program so consecutive nodes synchronize through the same DPON/DPBY
machinery.  A node that cannot be placed retries with reduced tile
height, then unfused, then deeper width splits; when every step fails the
CompileError carries the attempt ledger.  Window planning and the DDR
layout never read the node order, and lowering reads only which PM halves
the previous node with weights leaves busy, so that a conv's weight slabs
start in the free half (`_pm_halves_read`).  The half changes no size and
no feasibility, so a node the ladder cannot place fails under every
schedule.
"""

from dataclasses import dataclass

import numpy as np

from . import graph as GG
from . import lowering as LW
from . import memory as MM
from . import pipeline as PL
from .errors import CapacityError, CompileError, InfeasibleError
from .machine import Addr, CONV, DDR, FM, LOAD, Program, check_bounds, \
    emit_assembly, footprints
from .simulator import simulate_timing

# schedules ranked by peak footprint; the cheapest is compiled
SCHEDULE_BUDGET = 4


@dataclass
class CompileOptions:
    pipeline: bool = True
    deconv_mode: str = "series"


@dataclass
class CompileArtifacts:
    program: Program
    assembly: str
    param_image: bytes
    memmap: dict
    report: dict
    # per instruction: (node id, region, group, tile, stage)
    marks: list = None
    # node id -> its lowering.Tile list, addresses bound
    tiles: dict = None


def compile_graph(g, cfg, options=None):
    """Full pass pipeline from a parsed graph to artifacts."""
    options = options or CompileOptions()
    folded = GG.fold_constants_and_quantizers(g)
    fused = GG.fuse_superlayers(folded, cfg)
    schedule, _peak = GG.explore_schedules(fused, SCHEDULE_BUDGET)[0]
    return _compile_schedule(fused, schedule, cfg, options)


# ---------------------------------------------------------------------------
# per-schedule compilation
# ---------------------------------------------------------------------------

def _concat_aliases(g):
    """tensor -> (concat output, channel offset) for inputs the layout
    can resolve by pointing the producer's saves into the concatenation.
    Graph inputs have no saves, and a concat output aliased in turn would
    leave its own aliased inputs one level short of the root, so both are
    copied by the concat instead."""
    aliases = {}
    for n in g.nodes.values():
        if n.op != "concat":
            continue
        ch = 0
        for name in n.inputs:
            t = g.tensors[name]
            only_concat = (g.consumers.get(name, []) == [n.id]
                           and name not in g.outputs
                           and g.nodes[g.producer[name]].op
                           not in ("input", "concat"))
            if only_concat:
                aliases[name] = (n.output, ch)
            ch += t.shape[2]
    return aliases


def _unfuse(node):
    """Split a fused super-node back into its conv and consumer nodes."""
    f = node.fused
    conv = GG.Node(node.id + ".conv", "conv", list(node.inputs),
                   f.mid.name, dict(node.attrs), node.params, None)
    cons = GG.Node(node.id + ".post", f.kind, [f.mid.name], node.output,
                   {"kernel": f.kernel, "stride": f.stride,
                    "padding": f.padding})
    return [conv, cons]


def _ladder_steps(fused):
    """Escalation order: reduce the tile height, then disable fusion,
    then split deeper along the width (re-walking the heights)."""
    steps = []
    for w in (1, 2, 4, 8):
        for unfuse in ((False, True) if fused else (False,)):
            for h in (None, 4, 1):
                step = {}
                if w > 1:
                    step["w_min_parts"] = w
                if unfuse:
                    step["unfuse"] = True
                if h is not None:
                    step["max_h"] = h
                steps.append(step)
    return steps


def _lower_with_ladder(node, tensors, aliases, cfg, options, attempts,
                       pm_busy):
    """Returns a list of (node, LoweredNode) pairs and the PM halves the
    last of them with weights leaves busy, given those the nodes before it
    left busy (`pm_busy`).  This is the one place that decides whether a
    retry can mend a failure.  An InfeasibleError means the step's tiling
    does not fit, so the next step is tried; a CapacityError means no
    tiling of the lowered nodes fits, so the node fails there unless it is
    fused and its unfuse step, which changes its strips and data flow, is
    still ahead.  Raises CompileError, with the attempt ledger, when the
    node fails."""
    last = None
    for step in _ladder_steps(node.fused is not None):
        nodes = (_unfuse(node) if step.get("unfuse") and node.fused
                 else [node])
        try:
            out, busy = [], pm_busy
            for nd in nodes:
                ctx = LW.LowerContext(
                    tensors=tensors,
                    h_cap=min(step.get("max_h", cfg.h_c), cfg.h_c),
                    aliases=aliases, deconv_mode=options.deconv_mode,
                    w_min_parts=step.get("w_min_parts", 1), pm_busy=busy)
                lowered = LW.lower_node(nd, ctx, cfg)
                _plan_windows(lowered, MM.assign_fm_memories(lowered, cfg),
                              cfg)
                out.append((nd, lowered))
                busy = _pm_halves_read(lowered, cfg, busy)
            if step:
                attempts.append(f"node {node.id}: retried with {step}")
            return out, busy
        except (CapacityError, InfeasibleError) as e:
            last = e
            attempts.append(f"node {node.id} with {step or 'defaults'}: {e}")
            if isinstance(e, CapacityError) and (node.fused is None
                                                 or step.get("unfuse")):
                break
    raise CompileError(f"node {node.id}: {last}", attempts)


def _pm_halves_read(lowered, cfg, busy):
    """The PM halves the last CONV of a lowered node reads, from its
    wgt_off and wgt_bytes; `busy` when the node has no CONV."""
    half = cfg.pm_bytes // 2
    for tile in reversed(lowered.tiles):
        for _q, group in reversed(tile.stages):
            for ins in reversed(group):
                if ins.op == CONV:
                    lo = ins.wgt_off // half
                    hi = min(1, (ins.wgt_off + ins.wgt_bytes - 1) // half)
                    return tuple(range(lo, hi + 1))
    return busy


def _plan_windows(lowered, mems, cfg):
    """Give each stream a region of bank-row-aligned slots, one window
    per slot at a time, and store the placements in `lowered.allocs`.

    A window is exactly what the instructions touch: the furthest byte any
    `Win` operand naming it reaches (its offset plus the operand's extent),
    rounded up to a bank row.  Its slot follows from the tiles over which
    it is live (`_window_slots`): windows read by their own tile only
    alternate between two slots, and writing window i+2 over window i's
    slot is what creates the buffer-reuse dependency on the reader of
    window i; a conv input window that every later weight slab reads
    holds its own slot until the last of them.  A stream is live from the
    first to the last tile whose instructions use it.  Streams of one node
    share a memory by simple bumping; capacity overflow sends the node
    back down the retry ladder."""
    ends = {}   # stream -> {window tile: end of the furthest access}
    live = {}   # stream -> {window tile: (first, last) tile using it}
    for ti, ins, f, a in lowered.operands:
        if isinstance(a, LW.Win):
            win = ends.setdefault(a.stream, {})
            win[a.tile] = max(win.get(a.tile, 0), a.off + ins.extent(f))
            span = live.setdefault(a.stream, {})
            span[a.tile] = (span.get(a.tile, (ti,))[0], ti)
    placed = {m: [] for m in range(cfg.fm_memories)}
    for sname in sorted(ends):
        mem = mems[sname]
        sizes = {ti: cfg.round_to_bank_row(end)
                 for ti, end in ends[sname].items()}
        slot = max(sizes.values())
        where = _window_slots(live[sname])
        nslots = 1 + max(where.values())
        need = nslots * slot
        t_lo = min(lo for lo, _hi in live[sname].values())
        t_hi = max(hi for _lo, hi in live[sname].values())
        # streams whose tile ranges are disjoint (successive width strips,
        # successive weight slabs) reuse each other's bytes; the derived
        # write-after-read dependencies serialize the hand-over
        conflicts = [(blo, bhi) for blo, bhi, tl, th in placed[mem]
                     if not (t_hi < tl or th < t_lo)]
        base = None
        for off in sorted({0} | {bhi for _blo, bhi in conflicts}):
            if off + need > cfg.fm_bytes:
                continue
            if all(not (off < bhi and blo < off + need)
                   for blo, bhi in conflicts):
                base = off
                break
        if base is None:
            raise InfeasibleError(
                f"stream {sname}: {nslots} x {slot} B does not fit fm{mem} "
                f"alongside {len(conflicts)} concurrent streams")
        placed[mem].append((base, base + need, t_lo, t_hi))
        for ti, size in sizes.items():
            lowered.allocs[(sname, ti)] = MM.WindowAlloc(
                mem, base + where[ti] * slot, size)


def _window_slots(live):
    """Slot index per window of one stream, from {window tile: (first,
    last) tile using it}.  A window holds its slot from its first tile
    through the tile after its last, so the next tile can fill another
    slot while this one computes, and the stream gets as many slots as
    windows are ever held at once.  In tile order, each window takes slot
    `tile % nslots` when that is free, else the lowest free one, so
    single-tile windows alternate between two slots."""
    held = {w: (lo, hi + 1) for w, (lo, hi) in live.items()}
    nslots = max(sum(lo <= t <= hi for lo, hi in held.values())
                 for t, _hi in held.values())
    free_from = [0] * nslots   # first tile at which each slot is free
    where = {}
    for w in sorted(held, key=lambda w: held[w]):
        lo, hi = held[w]
        s = next(s for s in [w % nslots] + list(range(nslots))
                 if free_from[s] <= lo)
        where[w], free_from[s] = s, hi + 1
    return where


def _compile_schedule(g, schedule, cfg, options):
    aliases = _concat_aliases(g)
    attempts = []
    # graph tensors and the intermediates fusion took out of the graph
    tensors = g.tensors | g.fused_mids()

    # lowering is symbolic, so it runs before the DDR layout; the layout
    # then reserves exactly the parameter bytes the lowering decided on
    payloads = []   # the PM payloads in image order, `end` bytes so far
    end = 0
    param_offsets = {}
    lowered_nodes = []
    pm_busy = ()   # both PM halves are free at program start
    for nid in schedule:
        node = g.nodes[nid]
        if node.op == "input":
            continue
        parts, pm_busy = _lower_with_ladder(
            node, tensors, aliases, cfg, options, attempts, pm_busy)
        for nd, lowered in parts:
            offs = []
            for payload in lowered.pm_payloads:
                offs.append(end)
                end += len(payload)
            payloads += lowered.pm_payloads
            param_offsets[nd.id] = offs
            lowered_nodes.append((nd, lowered))
    # one immutable image, shared by the program and the artifacts
    param_image = b"".join(payloads)

    # swap holds the DDR tensors the kept lowerings name
    addressed = {a.name for _nd, lowered in lowered_nodes
                 for _ti, _ins, _f, a in lowered.operands
                 if isinstance(a, LW.TensorAt)}
    layout = MM.ddr_layout(g, len(param_image),
                           [tensors[name] for name in addressed], cfg)
    pbase, psize = layout.segments["parameters"]

    marks = []
    instructions = []
    report_nodes = []
    node_streams = []   # (node id, its pipelined instructions, its windows)
    for nd, lowered in lowered_nodes:
        stream = PL.pipeline([t.stages for t in lowered.tiles],
                             enabled=options.pipeline)
        instructions += stream.instructions
        marks += [(nd.id,) + mark for mark in stream.marks]
        node_streams.append((nd.id, stream.instructions, lowered.allocs))
        report_nodes.append({"id": nd.id, **lowered.notes,
                             "tiles": len(lowered.tiles)})
        if lowered.pm_payloads:
            report_nodes[-1].update(_load_bytes(nd, lowered, g))
    # window spans are read off the Win operands, so before binding
    fm_allocs = MM.compute_liveness(node_streams)
    for nd, lowered in lowered_nodes:
        _bind(lowered, layout, [pbase + off for off in param_offsets[nd.id]])

    fp = footprints(instructions)
    check_bounds(instructions, fp, cfg)
    full = PL.PipelinedStream(instructions, marks,
                              pipelined=options.pipeline)
    full = PL.assign_typed_deps(full, fp=fp)

    prog = Program(instructions=full.instructions,
                   param_image=param_image)
    prog.segments = dict(layout.segments)
    for name, (seg, off) in sorted(layout.tensor_map.items()):
        t = tensors[name]
        prog.tensors[name] = {
            "segment": seg, "off": off, "bytes": t.nbytes,
            "shape": t.shape, "step_exp": t.quant.exp if t.quant else 0,
        }
    timing = simulate_timing(prog.instructions, cfg)
    total_eff, node_eff = _conv_efficiency(
        prog, [(nid, len(ins)) for nid, ins, _a in node_streams], timing,
        cfg)
    for entry in report_nodes:
        entry["conv_efficiency"] = node_eff.get(entry["id"], 0.0)
    memmap = {
        "segments": {k: list(v) for k, v in layout.segments.items()},
        "tensors": {k: list(v) for k, v in sorted(layout.tensor_map.items())},
        "aliases": {k: [v[0], v[1]] for k, v in sorted(aliases.items())},
        "fm_allocs": fm_allocs,
    }
    report = {
        "schedule": list(schedule.order),
        "nodes": report_nodes,
        "pipelined": options.pipeline,
        "instructions": len(prog.instructions),
        "estimated_makespan": timing.makespan,
        "conv_efficiency": total_eff,
        "queue_busy": timing.busy,
        "attempts": list(attempts),
    }
    return CompileArtifacts(
        program=prog, assembly=emit_assembly(prog),
        param_image=param_image, memmap=memmap, report=report,
        marks=marks, tiles={nd.id: lw.tiles for nd, lw in lowered_nodes})


def _conv_efficiency(prog, runs, timing, cfg):
    """Ideal CONV cycles (MACs / conv_macs_per_cycle) over the makespan,
    and per node over the node's span (its first start to its last end)
    in the `simulate_timing` result `timing`.  `runs` is [(node id, its
    instruction count)] in program order: each node's instructions are
    one contiguous run of the program, and a node of none has no span.
    Node spans may overlap: a conv's first weight slab loads while the
    previous node with weights still convolves."""
    runs = [(nid, n) for nid, n in runs if n]
    counts = np.array([n for _nid, n in runs], np.int64)
    cut = np.cumsum(counts) - counts     # each run's first instruction
    start = np.array(timing.start, np.int64)
    end = start + np.array(timing.duration, np.int64)
    spans = dict(zip((nid for nid, _n in runs), zip(
        np.minimum.reduceat(start, cut).tolist(),
        np.maximum.reduceat(end, cut).tolist())))
    ideal = {}
    for (nid, n), at in zip(runs, cut.tolist()):
        macs = sum(ins.conv_macs() for ins in prog.instructions[at:at + n]
                   if ins.op == CONV)
        if macs:
            ideal[nid] = macs / cfg.conv_macs_per_cycle
    total = (sum(ideal.values()) / timing.makespan if timing.makespan
             else 0.0)
    per_node = {nid: ideal.get(nid, 0.0) / (hi - lo) if hi > lo else 0.0
                for nid, (lo, hi) in spans.items()}
    return total, per_node


def _load_bytes(nd, lowered, g):
    """The bytes a node with weights LOADs, activations and weights
    apart, and the least it could load: the input pixels it reads and its
    PM payloads, once each.  A conv reads the input rows and columns its
    windows touch outside the padding, fewer than all when its stride is
    larger than its kernel; a deconv counts its whole input."""
    moved = {"act": 0, "weight": 0}
    for tile in lowered.tiles:
        for _q, group in tile.stages:
            for ins in group:
                if ins.op == LOAD:
                    moved[ins.sub] += ins.transfer_bytes()
    h, w, c = g.tensors[nd.inputs[0]].shape
    if nd.op == "conv":
        a = nd.attrs
        h, w = (_positions_read(n, k, s, p) for n, k, s, p in zip(
            (h, w), a["kernel"], a["stride"], a["padding"]))
    return {"act_load_bytes": moved["act"],
            "weight_load_bytes": moved["weight"],
            "min_load_bytes": (h * w * c
                               + sum(map(len, lowered.pm_payloads)))}


def _positions_read(n, k, s, p):
    """How many of the n positions of one input axis the windows of a
    k-tap kernel at stride s read, the axis padded by p at each end."""
    out = (n + 2 * p - k) // s + 1
    hit = np.zeros(n + 2 * p, bool)
    for tap in range(k):
        hit[tap:tap + (out - 1) * s + 1:s] = True
    return int(np.count_nonzero(hit[p:p + n]))


# ---------------------------------------------------------------------------
# binding
# ---------------------------------------------------------------------------

def _bind(lowered, layout, param_addrs):
    """Replace every symbolic address of the lowered instructions, in
    place: a window offset by its placed FM window, a tensor offset by
    the tensor's DDR address, a PM block by its DDR address in
    param_addrs."""
    allocs = lowered.allocs
    for _ti, ins, f, a in lowered.operands:
        if isinstance(a, LW.Win):
            al = allocs[a.stream, a.tile]
            setattr(ins, f, Addr(FM, al.start + a.off, al.mem))
        elif isinstance(a, LW.TensorAt):
            setattr(ins, f, Addr(DDR, layout.address(a.name) + a.off))
        else:
            setattr(ins, f, Addr(DDR, param_addrs[a.block]))
