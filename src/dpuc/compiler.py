"""Pass driver: schedule, lower, allocate, bind, pipeline, encode.

Per schedule the driver lays out DDR, then walks nodes in order: each node
is lowered to tile templates, its streams get FM memories by chain role,
tile windows get double-buffered slots from the window planner, and the
templates are bound to concrete instructions.  Per-node tile streams are
skewed by the software pipeliner, concatenated, and the typed
dependencies are derived over the whole program so consecutive nodes
synchronize through the same DPON/DPBY machinery.  A node that cannot be
placed retries with reduced tile height, then unfused, then deeper width
splits; when every schedule fails the CompileError carries the attempt
ledger.
"""

from dataclasses import dataclass

from . import graph as GG
from . import lowering as LW
from . import memory as MM
from . import pipeline as PL
from .errors import CompileError, InfeasibleError, OutOfMemoryError, \
    PortConflictError, UnsupportedError
from .machine import Addr, CONV, DDR, FM, Instruction, LOAD, MISC, PM, \
    Program, SAVE, check_bounds, emit_assembly

# schedules tried, cheapest peak footprint first
SCHEDULE_BUDGET = 4


@dataclass
class CompileOptions:
    pipeline: bool = True
    deconv_mode: str = "series"
    keep_tile_trees: bool = False


@dataclass
class CompileArtifacts:
    program: Program
    assembly: str
    param_image: bytes
    memmap: dict
    report: dict
    # per instruction: (node id, region, group, tile, stage)
    marks: list = None
    tile_trees: dict = None


def compile_graph(g, cfg, options=None):
    """Full pass pipeline from a parsed graph to artifacts."""
    options = options or CompileOptions()
    folded = GG.fold_constants_and_quantizers(g)
    fused = GG.fuse_superlayers(folded, cfg)
    ranked = GG.explore_schedules(fused, SCHEDULE_BUDGET)
    attempts = []
    for schedule, estimate in ranked:
        try:
            return _compile_schedule(fused, schedule, cfg, options,
                                     attempts)
        except (InfeasibleError, OutOfMemoryError, PortConflictError) as e:
            attempts.append(f"schedule {list(schedule.order)}: {e}")
    raise CompileError(
        f"all {len(ranked)} schedules exhausted", attempts)


# ---------------------------------------------------------------------------
# per-schedule compilation
# ---------------------------------------------------------------------------

def _concat_aliases(g):
    """tensor -> (concat output, channel offset) for inputs the layout
    can resolve by pointing the producer's saves into the concatenation."""
    aliases = {}
    for n in g.nodes.values():
        if n.op != "concat":
            continue
        ch = 0
        for name in n.inputs:
            t = g.tensors[name]
            only_concat = (g.consumers.get(name, []) == [n.id]
                           and name not in g.outputs
                           and name in g.producer)
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
                   {"kernel": list(f.kernel), "stride": list(f.stride),
                    "padding": list(f.padding)})
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


def _lower_with_ladder(node, tensors, aliases, cfg, options, attempts):
    """Returns a list of (node, LoweredNode, fm assignment)."""
    last = None
    for step in _ladder_steps(node.fused is not None):
        nodes = (_unfuse(node) if step.get("unfuse") and node.fused
                 else [node])
        ctx = LW.LowerContext(tensors=tensors, aliases=aliases,
                              deconv_mode=options.deconv_mode,
                              max_h=step.get("max_h"),
                              w_min_parts=step.get("w_min_parts", 1))
        try:
            out = []
            for nd in nodes:
                lowered = LW.lower_node(nd, ctx, cfg)
                mems = MM.assign_fm_memories(lowered, cfg)
                _plan_windows(lowered, mems, cfg)
                out.append((nd, lowered, mems))
            if step:
                attempts.append(f"node {node.id}: retried with {step}")
            return out
        except (InfeasibleError, OutOfMemoryError, PortConflictError,
                UnsupportedError) as e:
            last = e
            attempts.append(f"node {node.id} with {step or 'defaults'}: {e}")
    raise InfeasibleError(f"node {node.id}: {last}")


def _plan_windows(lowered, mems, cfg):
    """Give each stream a double-buffered region: two bank-row-aligned
    slots that consecutive tile windows alternate between.

    Writing window i+2 over window i's slot is what creates the
    buffer-reuse dependency on the reader of window i, so at most two
    windows of a class are ever live.  A stream with a single window (a
    conv input resident across weight slabs) gets one slot.  A stream is
    live from the first to the last tile whose templates use it, which
    for a resident window includes every later-slab tile reading it.
    Streams of one node share a memory by simple bumping; capacity
    overflow sends the node back down the retry ladder."""
    span = {}   # stream -> (first, last) tile whose templates use it
    for ti, tile in enumerate(lowered.tiles):
        for _q, group in tile.stages:
            for t in group:
                for attr in t.READS + t.WRITES:
                    sname = getattr(t, attr)
                    span[sname] = (span.get(sname, (ti,))[0], ti)
    placed = {m: [] for m in range(cfg.fm_memories)}
    allocs = {}
    for sname in sorted(lowered.streams):
        st = lowered.streams[sname]
        mem = mems[sname]
        sizes = {ti: cfg.round_to_bank_row(rows * st.row_bytes)
                 for ti, rows in st.window_rows.items()
                 if rows > 0 and st.row_bytes > 0}
        if not sizes:
            continue
        slot = max(sizes.values())
        nslots = 2 if len(sizes) > 1 else 1
        need = nslots * slot
        t_lo, t_hi = span[sname]
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
            raise OutOfMemoryError(
                f"stream {sname}: {nslots} x {slot} B does not fit fm{mem} "
                f"alongside {len(conflicts)} concurrent streams")
        placed[mem].append((base, base + need, t_lo, t_hi))
        for ti, size in sizes.items():
            allocs[(sname, ti)] = MM.WindowAlloc(
                mem, base + (ti % nslots) * slot, size)
    lowered.notes["allocs"] = allocs


def _compile_schedule(g, schedule, cfg, options, attempts):
    aliases = _concat_aliases(g)

    # lowering is symbolic, so it runs before the DDR layout; the layout
    # then reserves exactly the parameter bytes the lowering decided on
    param_image = bytearray()
    param_offsets = {}
    lowered_nodes = []
    for nid in schedule:
        node = g.nodes[nid]
        if node.op == "input":
            continue
        parts = _lower_with_ladder(node, g.tensors | _mid_tensors(g),
                                   aliases, cfg, options, attempts)
        for nd, lowered, mems in parts:
            offs = []
            for payload in lowered.pm_payloads:
                offs.append(len(param_image))
                param_image.extend(payload)
            param_offsets[nd.id] = offs
            lowered_nodes.append((nd, lowered, mems))

    layout = MM.ddr_layout(g, len(param_image), cfg, aliases=aliases)
    pbase, psize = layout.segments["parameters"]

    marks = []
    instructions = []
    report_nodes = []
    window_usage = []   # (node, lowered, {(stream, tile): [instr objects]})
    index_of = {}
    for nd, lowered, mems in lowered_nodes:
        bound_tiles, usage = _bind_tiles(nd, lowered, mems, layout, aliases,
                                         param_offsets[nd.id], pbase, cfg, g)
        stream = PL.pipeline(bound_tiles, enabled=options.pipeline)
        for ins, mark in zip(stream.instructions, stream.marks):
            index_of[id(ins)] = len(instructions)
            instructions.append(ins)
            marks.append((nd.id,) + mark)
        window_usage.append((nd, lowered, usage))
        report_nodes.append({"id": nd.id, **{k: v for k, v in
                                             lowered.notes.items()
                                             if k != "allocs"},
                             "tiles": len(lowered.tiles)})

    full = PL.PipelinedStream(instructions, marks,
                              pipelined=options.pipeline)
    full = PL.assign_typed_deps(full)

    prog = Program(instructions=full.instructions,
                   param_image=bytes(param_image))
    prog.segments = dict(layout.segments)
    for name, (seg, off) in sorted(layout.tensor_map.items()):
        t = g.tensors.get(name) or _mid_tensors(g).get(name)
        prog.tensors[name] = {
            "segment": seg, "off": off, "bytes": t.nbytes,
            "shape": t.shape, "step_exp": t.quant.exp if t.quant else 0,
        }
    for ins in prog.instructions:
        check_bounds(ins, cfg)

    from .simulator import run_timing
    trace = run_timing(prog, cfg)
    total_eff, node_eff = _conv_efficiency(prog, marks, trace, cfg)
    for entry in report_nodes:
        entry["conv_efficiency"] = node_eff.get(entry["id"], 0.0)
    memmap = {
        "segments": {k: list(v) for k, v in layout.segments.items()},
        "tensors": {k: list(v) for k, v in sorted(layout.tensor_map.items())},
        "aliases": {k: [v[0], v[1]] for k, v in sorted(aliases.items())},
        "fm_windows": _window_records(window_usage, index_of),
        "fm_allocs": _alloc_records(prog),
    }
    report = {
        "schedule": list(schedule.order),
        "nodes": report_nodes,
        "pipelined": options.pipeline,
        "instructions": len(prog.instructions),
        "estimated_makespan": trace.makespan,
        "conv_efficiency": total_eff,
        "queue_busy": trace.busy,
        "attempts": list(attempts),
    }
    return CompileArtifacts(
        program=prog, assembly=emit_assembly(prog),
        param_image=bytes(param_image), memmap=memmap, report=report,
        marks=marks,
        tile_trees=({nd.id: lw.tree.to_dict()
                     for nd, lw, _m in lowered_nodes}
                    if options.keep_tile_trees else None))


def _conv_efficiency(prog, marks, trace, cfg):
    """Ideal CONV cycles (MACs / conv_macs_per_cycle) over the makespan,
    and per node over the node's trace span (its first start to its last
    end)."""
    macs, spans = {}, {}
    for ins, mark, ev in zip(prog.instructions, marks, trace.events):
        nid = mark[0]
        if ins.op == CONV:
            macs[nid] = macs.get(nid, 0) + ins.conv_macs()
        lo, hi = spans.get(nid, (ev.start, ev.end))
        spans[nid] = (min(lo, ev.start), max(hi, ev.end))
    ideal = {nid: m / cfg.conv_macs_per_cycle for nid, m in macs.items()}
    total = (sum(ideal.values()) / trace.makespan if trace.makespan
             else 0.0)
    per_node = {nid: ideal.get(nid, 0.0) / (hi - lo) if hi > lo else 0.0
                for nid, (lo, hi) in spans.items()}
    return total, per_node


def _mid_tensors(g):
    return {n.fused.mid.name: n.fused.mid
            for n in g.nodes.values() if n.fused}


def _window_records(window_usage, index_of):
    """Per-stream window placements with their instruction spans (the
    window planner's view, for the memory-map dump)."""
    out = []
    for nd, lowered, usage in window_usage:
        allocs = lowered.notes["allocs"]
        for key in sorted(usage, key=str):
            if key not in allocs or not usage[key]:
                continue
            al = allocs[key]
            idxs = sorted(index_of[id(o)] for o in usage[key])
            out.append({"key": f"{nd.id}/{key[0]}/{key[1]}",
                        "mem": al.mem, "start": al.start,
                        "length": al.length, "first": idxs[0],
                        "last": idxs[-1]})
    return out


def _alloc_records(prog):
    """Slice-granular live allocations of the final program: one record
    per written range, live until its last reader.  This is the
    granularity at which the pairwise-disjointness invariant holds."""
    out = []
    for lr in MM.compute_liveness(prog.instructions, exact=True):
        _space, mem, lo, hi = lr.key
        out.append({"key": f"fm{mem}@{lo}+{hi - lo}:{lr.first}",
                    "mem": mem, "start": lo, "length": hi - lo,
                    "first": lr.first, "last": lr.last})
    return out


# ---------------------------------------------------------------------------
# template binding
# ---------------------------------------------------------------------------

def _bind_tiles(node, lowered, mems, layout, aliases, param_offs, pbase,
                cfg, g):
    allocs = lowered.notes["allocs"]
    blocks = lowered.pm_blocks
    multi_slab = lowered.notes.get("slabs", 1) > 1
    pm_off = []
    run = 0
    for bi, (wb, bb) in enumerate(blocks):
        if multi_slab:
            pm_off.append((bi % 2) * (cfg.pm_bytes // 2))
        else:
            pm_off.append(run)
            run += wb + bb

    def stream_addr(sname, ti, row):
        al = allocs[(sname, ti)]
        st = lowered.streams[sname]
        return Addr(FM, al.start + row * st.row_bytes, al.mem)

    tensors = g.tensors | _mid_tensors(g)

    def tensor_geom(name):
        t = tensors[name]
        if name in aliases:
            target, ch_off = aliases[name]
            tt = tensors[target]
            return layout.address(target), tt.shape, ch_off
        return layout.address(name), t.shape, 0

    usage = {}

    def touch(key, ins):
        usage.setdefault(key, []).append(ins)

    out_tiles = []
    for ti, tile in enumerate(lowered.tiles):
        stages = []
        for queue, group in tile.stages:
            bound = []
            for t in group:
                kind = type(t).__name__
                # tile whose windows the template reads: its own, except
                # for a conv reading a window resident across slabs
                src_ti = ti if getattr(t, "in_tile", None) is None \
                    else t.in_tile
                if kind == "TLoad":
                    base, (h, w, c), _ = tensor_geom(t.tensor)
                    off = base + (t.row * w + t.col0) * c
                    if t.nch == c:
                        ins = Instruction(
                            op=LOAD, sub="act", src=Addr(DDR, off),
                            dst=stream_addr(t.stream, ti, t.win_row),
                            rows=1, blocks=1, block_bytes=t.ncols * c,
                            ddr_row_stride=t.ncols * c, ddr_blk_stride=0)
                    else:
                        ins = Instruction(
                            op=LOAD, sub="act",
                            src=Addr(DDR, off + t.ch0),
                            dst=stream_addr(t.stream, ti, t.win_row),
                            rows=1, blocks=t.ncols, block_bytes=t.nch,
                            ddr_row_stride=t.ncols * c, ddr_blk_stride=c)
                elif kind == "TLoadW":
                    size = sum(sum(blocks[b]) for b in
                               range(t.block0, t.block0 + t.nblocks))
                    ins = Instruction(
                        op=LOAD, sub="weight",
                        src=Addr(DDR, pbase + param_offs[t.block0]),
                        dst=Addr(PM, pm_off[t.block0]),
                        rows=1, blocks=1, block_bytes=size,
                        ddr_row_stride=size, ddr_blk_stride=0)
                elif kind == "TSave":
                    base, (h, w, c), ch_off = tensor_geom(t.tensor)
                    ch0 = t.ch0 + ch_off
                    off = base + (t.out_row0 * w + t.col0) * c
                    if t.nch == c:
                        ins = Instruction(
                            op=SAVE, sub="act",
                            src=stream_addr(t.stream, ti, t.win_row0),
                            dst=Addr(DDR, off), rows=t.rows, blocks=1,
                            block_bytes=t.ncols * c,
                            ddr_row_stride=w * c, ddr_blk_stride=0)
                    else:
                        ins = Instruction(
                            op=SAVE, sub="act",
                            src=stream_addr(t.stream, ti, t.win_row0),
                            dst=Addr(DDR, off + ch0), rows=t.rows,
                            blocks=t.ncols, block_bytes=t.nch,
                            ddr_row_stride=w * c, ddr_blk_stride=c)
                elif kind == "TConv":
                    ins = Instruction(
                        op=CONV, sub="conv",
                        src=stream_addr(t.stream_in, src_ti, t.in_row0),
                        dst=stream_addr(t.stream_out, ti, t.out_row0),
                        wgt_off=pm_off[t.block],
                        wgt_bytes=sum(blocks[t.block]),
                        in_rows=t.in_rows, in_w=t.in_w, c_in=t.c_in,
                        out_w=t.out_w, c_out=t.c_out, kh=t.kh, kw=t.kw,
                        sh=t.sh, sw=t.sw, pt=t.pt, pl=t.pl, pb=t.pb,
                        pr=t.pr, shift=t.shift)
                elif kind == "TPool":
                    ins = Instruction(
                        op=MISC, sub="maxpool",
                        src=stream_addr(t.stream_in, ti, t.in_row0),
                        dst=stream_addr(t.stream_out, ti, t.out_row0),
                        in_rows=t.in_rows, in_w=t.in_w, c_in=t.c,
                        out_w=t.out_w, kh=t.kh, kw=t.kw, sh=t.sh, sw=t.sw,
                        pt=t.pt, pl=t.pl, pb=t.pb, pr=t.pr, shift=t.shift)
                elif kind == "TElt":
                    ins = Instruction(
                        op=MISC, sub="eltwise",
                        src=stream_addr(t.stream_a, ti, t.a_row0),
                        src2=stream_addr(t.stream_b, ti, t.b_row0),
                        dst=stream_addr(t.stream_out, ti, t.out_row0),
                        rows=t.rows, w=t.w, c=t.c, ea=t.ea, eb=t.eb,
                        eo=t.eo)
                elif kind == "TUpsample":
                    ins = Instruction(
                        op=MISC, sub="upsample",
                        src=stream_addr(t.stream_in, ti, t.in_row0),
                        dst=stream_addr(t.stream_out, ti, t.out_row0),
                        in_rows=t.in_rows, w=t.w, c=t.c, factor=t.factor,
                        out_rows=t.out_rows)
                elif kind == "TShuffle":
                    src = stream_addr(t.stream_in, ti, t.src_row0)
                    dst_al = allocs[(t.stream_out, ti)]
                    dst = Addr(FM,
                               dst_al.start + t.dst_row0 * t.dst_row_bytes
                               + t.dst_col_off, dst_al.mem)
                    ins = Instruction(
                        op=MISC, sub="move", src=src, dst=dst,
                        rows=t.n_rows, blocks=t.blocks,
                        block_bytes=t.block_bytes,
                        src_row_stride=t.src_row_bytes,
                        dst_row_stride=t.dst_row_step * t.dst_row_bytes,
                        src_blk_stride=t.block_bytes,
                        dst_blk_stride=t.dst_blk_step)
                else:
                    raise AssertionError(kind)
                for attr in t.READS:
                    touch((getattr(t, attr), src_ti), ins)
                for attr in t.WRITES:
                    touch((getattr(t, attr), ti), ins)
                bound.append(ins)
            stages.append((queue, bound))
        out_tiles.append(stages)
    return out_tiles, usage
