"""Memory assignment: segmented DDR layout, FM liveness, FM memory roles.

DDR is flat and split by pointers into five segments (inputs, outputs,
parameters, instructions, swap).  FM windows are placed by the compiler's
window planner as `WindowAlloc` records: the windows of a stream take
turns in its slots (two alternating ones for double buffering, one per
band for a conv input kept across weight slabs), so the buffer-reuse
dependencies follow from the stream order.  `compute_liveness` gives each
placed window the span of final instruction indices that use it; the
memory map lists these windows as the FM allocations, and the hazard
checker checks that no two of one memory share bytes while both are
live.  Each stream's FM memory follows from the data flow of the
instructions whose `Win` operands name it.  That rule gives each FM
memory of a node one reading unit and one writing unit; the port rule
across units is kept by the typed dependencies
(`pipeline.derive_dependencies`) and checked by the hazard checker.
"""

from dataclasses import dataclass

from .errors import CapacityError
from .lowering import Win
from .machine import DDR_SEGMENTS

# DDR bytes reserved for the instruction stream
PROGRAM_SIZE_ESTIMATE = 65536


@dataclass
class DdrLayout:
    segments: dict          # name -> (base, size)
    tensor_map: dict        # tensor -> (segment, offset)

    def address(self, tensor):
        seg, off = self.tensor_map[tensor]
        return self.segments[seg][0] + off


def ddr_layout(g, param_bytes, addressed, cfg):
    """Pack tensors into the five DDR segments, deterministically.

    Graph inputs and outputs go to their own segments, and swap holds the
    other `addressed` tensors (those some lowered instruction names),
    sorted by name: a fused intermediate gets bytes only when the retry
    ladder unfused its node, and an aliased concat input never.  The
    parameter segment holds the param_bytes of the lowered slab image."""
    tensor_map = {}
    sizes = dict.fromkeys(DDR_SEGMENTS, 0)

    def place(name, seg, nbytes):
        tensor_map[name] = (seg, sizes[seg])
        sizes[seg] += nbytes

    for name in g.inputs:
        place(name, "inputs", g.tensors[name].nbytes)
    for name in g.outputs:
        place(name, "outputs", g.tensors[name].nbytes)
    sizes["parameters"] = int(param_bytes)
    sizes["instructions"] = PROGRAM_SIZE_ESTIMATE
    for t in sorted(addressed, key=lambda t: t.name):
        if t.name not in tensor_map:
            place(t.name, "swap", t.nbytes)

    segments = {}
    base = 0
    for seg in DDR_SEGMENTS:
        segments[seg] = (base, sizes[seg])
        base += sizes[seg]
    if cfg.ddr_capacity and base > cfg.ddr_capacity:
        raise CapacityError(f"DDR layout needs {base} B, cap is "
                            f"{cfg.ddr_capacity} B")
    return DdrLayout(segments, tensor_map)


# ---------------------------------------------------------------------------
# liveness
# ---------------------------------------------------------------------------

def compute_liveness(nodes):
    """The FM allocations of a program: one record per placed window.

    `nodes` lists, in program order, each node's id, its pipelined
    instructions (window operands still `lowering.Win`, before binding)
    and its window placements {(stream, tile): WindowAlloc}.  A window is
    live from the first to the last instruction, inclusive, whose src,
    src2 or dst names it, counted in final program indices.  Records are
    dicts {key, mem, start, length, first, last} keyed "node/stream/tile",
    per node in the given order and per window in the order of
    `str((stream, tile))`.
    """
    out = []
    base = 0
    for nid, instructions, placed in nodes:
        spans = {}
        for idx, ins in enumerate(instructions, base):
            for a in (ins.src, ins.src2, ins.dst):
                if isinstance(a, Win):
                    key = (a.stream, a.tile)
                    spans[key] = (spans.get(key, (idx,))[0], idx)
        base += len(instructions)
        for key in sorted(placed, key=str):
            al = placed[key]
            first, last = spans[key]
            out.append({"key": f"{nid}/{key[0]}/{key[1]}", "mem": al.mem,
                        "start": al.start, "length": al.length,
                        "first": first, "last": last})
    return out


@dataclass(frozen=True)
class WindowAlloc:
    """A placed FM window: `length` bytes of memory `mem` from `start`."""
    mem: int
    start: int
    length: int


# ---------------------------------------------------------------------------
# FM memory roles
# ---------------------------------------------------------------------------

def assign_fm_memories(lowered, cfg):
    """Map each stream of a lowered node to an FM memory by data flow.  An
    instruction reads the windows (`lowering.Win`) named by its src and
    src2 and writes the one named by its dst.  A stream lives in 1 + the
    highest memory of the streams its writers read (the operand table,
    `LoweredNode.operands`, lists an instruction's reads before its dst):
    one a LOAD writes in fm0, and so does one nothing writes (a conv
    window wholly in padding), which holds no byte.  A tile may read a
    stream before the first tile that writes it, when its band is wholly
    in padding.  A stream past the last memory is a CapacityError: no
    tiling shortens the data flow, though unfusing a fused node does
    (`compiler._lower_with_ladder`)."""
    feeds = {}     # stream -> the streams its writers read
    srcs, last = [], None   # the streams read by instruction `last`
    for _ti, ins, f, a in lowered.operands:
        if isinstance(a, Win):
            if ins is not last:
                srcs, last = [], ins
            if f != "dst":
                srcs.append(a.stream)
            else:
                feeds.setdefault(a.stream, set()).update(srcs)
    assignment = {}

    def memory(stream):
        if stream not in assignment:
            mem = 1 + max(map(memory, feeds.get(stream, ())), default=-1)
            if mem >= cfg.fm_memories:
                raise CapacityError(
                    f"stream {stream} needs memory {mem}, machine has "
                    f"{cfg.fm_memories}")
            assignment[stream] = mem
        return assignment[stream]

    for _ti, _ins, _f, a in lowered.operands:
        if isinstance(a, Win):
            memory(a.stream)
    return assignment
