"""Software pipelining: head/steady/tail reordering and typed dependencies.

pipeline() skews a sequential tile stream T_i = L_i C_i P_i S_i into
groups (L_i, C_{i-1}, P_{i-2}, S_{i-3}) so the four units overlap across
neighbouring tiles.  Stages are aligned by position, so every tile of a
stream must have the same queue sequence; a stage with nothing to do is
an empty group, not a missing one.

assign_typed_deps() encodes the stream's true cross-queue data and
buffer-reuse dependencies with nothing but the four instruction types.
derive_dependencies() finds them in one sorted numpy sweep over the byte
segments of the stream's footprint table (`machine.footprints`), as an
(n, 4) target matrix: per instruction, the latest instruction of each
queue type it waits for.  The hazard checker, which proves them
sufficient, sweeps in code of its own.  DPON/DPBY pairs act as counted
tokens per (producer type -> consumer type) channel: the n-th
instruction of a queue that depends on type s is gated by the completion
of the n-th type-s instruction that carries the matching DPBY.  A
consumer takes a token only when its target exceeds the running maximum
of its queue's earlier targets on that channel, so the step stays in
arrays from the footprint table to the DPON/DPBY masks.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EncodingError
from .machine import FM, OP_TYPES, dep_mask, footprints, mask_deps

_QUEUE = {op: q for q, op in enumerate(OP_TYPES)}


@dataclass
class PipelinedStream:
    instructions: list
    # per instruction: (region, group index, tile index, stage index)
    marks: list
    pipelined: bool = True


def pipeline(tiles, enabled=True):
    """Reorder per-tile stage groups into the skewed pipeline shape.

    tiles: list of stage lists [(queue, [Instruction, ...]), ...], all
    with the same queue sequence (EncodingError otherwise).  With m stages
    and k tiles the stream has k + m - 1 groups; group g holds stage j of
    tile g - j.  Fewer than m tiles degenerates to head + tail only.  With
    enabled=False the sequential order is kept (the baseline stream for
    A/B makespan comparison).
    """
    shapes = {tuple(q for q, _group in tile) for tile in tiles}
    if len(shapes) > 1:
        raise EncodingError(f"tiles differ in their stage queues: "
                            f"{sorted(shapes)}")
    instrs = []
    marks = []
    if not enabled:
        for ti, tile in enumerate(tiles):
            for sj, (_q, group) in enumerate(tile):
                for ins in group:
                    instrs.append(ins)
                    marks.append(("sequential", ti, ti, sj))
        return PipelinedStream(instrs, marks, pipelined=False)

    k = len(tiles)
    m = len(tiles[0]) if tiles else 0
    for g in range(k + m - 1):
        region = ("head" if g < m - 1 else
                  "steady" if g < k else "tail")
        # oldest tile's stage first: the issue order then reads a reused
        # buffer before the newest tile's loads overwrite it, so the
        # issue order is itself a valid sequential execution
        for sj in reversed(range(min(g + 1, m))):
            ti = g - sj
            if 0 <= ti < k:
                _q, group = tiles[ti][sj]
                for ins in group:
                    instrs.append(ins)
                    marks.append((region, g, ti, sj))
    return PipelinedStream(instrs, marks)


# ---------------------------------------------------------------------------
# dependency derivation
# ---------------------------------------------------------------------------

def _queues(instructions):
    """Each instruction's queue type, as its column in `OP_TYPES`."""
    return np.array([_QUEUE[ins.op] for ins in instructions], np.int64)


def derive_dependencies(instructions, fp=None):
    """Cross-queue dependency targets from byte ranges and port usage: an
    (n, 4) int64 matrix whose cell (c, q) is the latest instruction of
    queue type q (columns in `OP_TYPES` order) that instruction c must
    wait for, or -1 when there is none.

    A read depends on the last writer of its bytes (RAW), a write on
    their last writer (WAW) and on the readers since that write (WAR).
    Same-queue ordering is free (units are in-order and non-overlapping),
    so only the latest cross-queue target per producer type matters, and
    the column of an instruction's own queue is -1.
    Besides data and buffer-reuse dependencies, each FM memory has a
    single read and a single write port: when the user of a port switches
    to a different unit, the newcomer must wait for the previous unit's
    last access, even if the byte ranges are disjoint.  An empty range
    takes its port but no byte.

    `fp` is `machine.footprints(instructions)`, taken here when not
    given; its offsets must be non-negative, as `check_bounds` makes
    sure in the compile.  The bytes are replayed in one sorted sweep: every memory,
    all of them laid end to end on one address line, is cut at each range
    end, and the ranges are expanded into (segment, access) pairs sorted
    stably by segment, so that issue order, reads before writes, holds
    within each segment.  A running maximum of write positions gives each
    pair the previous write of its segment, and per queue type a running
    maximum of read positions the last reader of that type since then."""
    table, mems = fp if fp is not None else footprints(instructions)
    op = _queues(instructions)
    cells, found = [], []   # (instruction * 4 + queue type, target)

    key, lo, hi, who, write = table[table[:, 1] < table[:, 2], :5].T
    if len(key):
        stride = int(hi.max())
        lo, hi = key * stride + lo, key * stride + hi
        cuts = np.sort(np.concatenate((lo, hi)))
        cuts = cuts[np.concatenate(([True], cuts[1:] != cuts[:-1]))]
        s0 = np.searchsorted(cuts, lo)
        n = np.searchsorted(cuts, hi) - s0
        acc = np.repeat(np.arange(len(lo)), n)
        seg = np.arange(len(acc)) - np.repeat(np.cumsum(n) - n - s0, n)
        order = np.argsort(seg, kind="stable")
        acc, seg = acc[order], seg[order]
        inst, is_w, pos = who[acc], write[acc] == 1, np.arange(len(acc))
        first = np.searchsorted(seg, seg)   # the segment's first pair
        prev = np.concatenate((
            [-1], np.maximum.accumulate(np.where(is_w, pos, -1))[:-1]))
        # RAW and WAW: the previous write of the segment
        m = prev >= first
        w = inst[prev[m]]
        cells.append(inst[m] * 4 + op[w])
        found.append(w)
        # WAR: the last reader of each type since then
        since = np.maximum(prev, first - 1)
        reader_op = np.where(is_w, -1, op[inst])
        for q in range(4):
            last = np.maximum.accumulate(np.where(reader_op == q, pos, -1))
            m = is_w & (last > since)
            cells.append(inst[m] * 4 + q)
            found.append(inst[last[m]])

    # port hand-overs: each FM port's users in issue order
    key, _lo, _hi, who, write = table[:, :5].T
    is_fm = np.array([space == FM for space, _mem in mems], bool)[key]
    port, inst = np.divmod(np.sort(
        (key[is_fm] * 2 + write[is_fm]) * len(op) + who[is_fm]), len(op))
    # a second range of one instruction on a port pairs it with itself,
    # which the same-queue rule below drops
    m = port[1:] == port[:-1]
    cells.append(inst[1:][m] * 4 + op[inst[:-1][m]])
    found.append(inst[:-1][m])

    targets = np.full((len(op), 4), -1, np.int64)
    np.maximum.at(targets.reshape(-1), np.concatenate(cells),
                  np.concatenate(found))
    targets[np.arange(len(op)), op] = -1   # same-queue order is free
    return targets


def chain_dependencies(instructions):
    """Full serialization: every instruction depends on its predecessor,
    as the (n, 4) target matrix of `derive_dependencies`.  Used for the
    --no-pipeline baseline so the sequential semantics is what the timing
    simulator actually executes."""
    op = _queues(instructions)
    targets = np.full((len(op), 4), -1, np.int64)
    c = np.flatnonzero(op[1:] != op[:-1]) + 1
    targets[c, op[c - 1]] = c - 1
    return targets


# the DPON/DPBY set of each 4-bit mask, and each queue type's mask bit
_MASK_SETS = [mask_deps(m) for m in range(16)]
_BIT = np.array([dep_mask([op]) for op in OP_TYPES], np.int64)


def assign_typed_deps(stream, deps=None, fp=None):
    """Encode dependency targets as DPON/DPBY token channels.

    `deps` is an (n, 4) target matrix as `derive_dependencies` returns:
    cell (c, s) the type-s instruction c waits for, -1 for none.  The
    column of c's own queue is ignored, since same-queue order is free.
    On each channel (s -> u) the queue-u consumers issue in queue order,
    and a consumer takes a token iff its type-s target exceeds every
    earlier type-s target of its queue, a running maximum down the
    queue-u rows of column s.  Any other consumer waits on a target no
    later in queue s than one an earlier instruction of its queue already
    waits on, and in-order execution carries that guarantee forward.
    Paired targets therefore rise strictly along each channel, so the
    n-th DPON of a channel meets its n-th DPBY.  DPON/DPBY are set in
    place, replacing any earlier encoding, and the returned stream holds
    the same instruction objects.  Raises EncodingError, naming the
    lowest such instruction, for a dependency on a later instruction.
    Without `deps`, a pipelined stream's targets are derived from its
    footprints `fp` (see `derive_dependencies`).
    """
    instructions = stream.instructions
    if deps is None:
        deps = (derive_dependencies(instructions, fp) if stream.pipelined
                else chain_dependencies(instructions))
    op = _queues(instructions)
    n = len(op)
    targets = np.array(deps, np.int64).reshape(n, 4)
    targets[np.arange(n), op] = -1   # same-queue order is free
    c, s = np.nonzero(targets >= np.arange(n)[:, None])
    if len(c):
        raise EncodingError(f"instruction {c[0]} depends on later "
                            f"instruction {int(targets[c[0], s[0]])}")
    dpon = np.zeros(n, np.int64)
    dpby = np.zeros(n, np.int64)
    for u in range(4):
        rows = np.flatnonzero(op == u)
        t = targets[rows]
        # the latest type-s target of each earlier queue-u consumer
        before = np.maximum.accumulate(
            np.concatenate((np.full((1, 4), -1), t[:-1])), axis=0)
        take = t > before
        dpon[rows] = take @ _BIT
        np.bitwise_or.at(dpby, t[take], _BIT[u])
    for ins, on, by in zip(instructions, dpon.tolist(), dpby.tolist()):
        ins.dpon, ins.dpby = _MASK_SETS[on], _MASK_SETS[by]
    return PipelinedStream(instructions, stream.marks, stream.pipelined)
