"""Software pipelining: head/steady/tail reordering and typed dependencies.

pipeline() skews a sequential tile stream T_i = L_i C_i P_i S_i into
groups (L_i, C_{i-1}, P_{i-2}, S_{i-3}) so the four units overlap across
neighbouring tiles; the skew works for any per-tile stage shape.

assign_typed_deps() encodes the stream's true cross-queue data and
buffer-reuse dependencies with nothing but the four instruction types.
DPON/DPBY pairs act as counted tokens per (producer type -> consumer
type) channel: the n-th instruction of a queue that depends on type s is
gated by the completion of the n-th type-s instruction that carries the
matching DPBY.  When a dependency's natural pace maker is already spoken
for (or lies after the consumer), a No-Op bubble is inserted in the
producer queue to keep the cadence, which is exactly the tail situation
where a stage runs out of real work.
"""

from dataclasses import dataclass, replace

from .errors import EncodingError
from .intervals import IntervalMap
from .machine import FM, Instruction, OP_TYPES


@dataclass
class PipelinedStream:
    instructions: list
    # per instruction: (region, group index, tile index, stage index)
    marks: list
    pipelined: bool = True
    # final index -> pre-annotation index (None for inserted No-Ops)
    origin: list = None


def pipeline(tiles, enabled=True):
    """Reorder per-tile stage groups into the skewed pipeline shape.

    tiles: list of stage lists [(queue, [Instruction, ...]), ...].  With m
    stages and k tiles the stream has k + m - 1 groups; group g holds
    stage j of tile g - j.  Fewer than m tiles degenerates to head + tail
    only.  With enabled=False the sequential order is kept (the baseline
    stream for A/B makespan comparison).
    """
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
    m = max((len(t) for t in tiles), default=0)
    for g in range(k + m - 1):
        region = ("head" if g < m - 1 else
                  "steady" if g < k else "tail")
        # oldest tile's stage first: the issue order then reads a reused
        # buffer before the newest tile's loads overwrite it, so the
        # issue order is itself a valid sequential execution
        for sj in reversed(range(min(g + 1, m))):
            ti = g - sj
            if 0 <= ti < k and sj < len(tiles[ti]):
                _q, group = tiles[ti][sj]
                for ins in group:
                    instrs.append(ins)
                    marks.append((region, g, ti, sj))
    return PipelinedStream(instrs, marks)


# ---------------------------------------------------------------------------
# dependency derivation
# ---------------------------------------------------------------------------

def derive_dependencies(instructions):
    """Cross-queue dependency targets per instruction, from byte ranges
    and port usage.

    Every byte carries (last writer, readers since that write) in one
    interval map: a read depends on the writers of its bytes (RAW), a
    write on their readers (WAR) and writer (WAW).  Same-queue ordering is
    free (units are in-order and non-overlapping), so only the latest
    cross-queue target per producer type matters.  Besides data and
    buffer-reuse dependencies, each FM memory has a single read and a
    single write port: when the user of a port switches to a different
    unit, the newcomer must wait for the previous unit's last access, even
    if the byte ranges are disjoint."""
    accesses = IntervalMap((None, ()))
    last_port_user = {}   # (mem, dir) -> instruction index
    deps = []
    for idx, ins in enumerate(instructions):
        found = set()

        def read(value):
            writer, readers = value
            if writer is not None:
                found.add(writer)
            if readers and readers[-1] == idx:
                return value
            return writer, readers + (idx,)

        reads = ins.reads()
        writes = ins.writes()
        for space, mem, lo, hi in reads:
            accesses.update((space, mem), lo, hi, read)
        for space, mem, lo, hi in writes:
            for _lo, _hi, (writer, readers) in accesses.assign(
                    (space, mem), lo, hi, (idx, ())):
                if writer is not None:
                    found.add(writer)
                found.update(readers)
        targets = {}
        for j in found:
            other = instructions[j]
            if other.op != ins.op:
                targets[other.op] = max(targets.get(other.op, -1), j)
        ports = set()
        for space, mem, _lo, _hi in reads:
            if space == FM:
                ports.add((mem, "r"))
        for space, mem, _lo, _hi in writes:
            if space == FM:
                ports.add((mem, "w"))
        for port in sorted(ports):
            j = last_port_user.get(port)
            if j is not None and instructions[j].op != ins.op:
                targets[instructions[j].op] = max(
                    targets.get(instructions[j].op, -1), j)
            last_port_user[port] = idx
        deps.append(targets)
    return deps


def chain_dependencies(instructions):
    """Full serialization: every instruction depends on its predecessor.
    Used for the --no-pipeline baseline so the sequential semantics is
    what the timing simulator actually executes."""
    deps = [{} for _ in instructions]
    for idx in range(1, len(instructions)):
        prev = instructions[idx - 1]
        if prev.op != instructions[idx].op:
            deps[idx][prev.op] = idx - 1
    return deps


def assign_typed_deps(stream, deps=None):
    """Encode dependency targets as DPON/DPBY token channels.

    For each channel (s -> u), consumers are walked in queue order and
    paired with strictly increasing producer positions; when the next
    expressible producer would lie at or past the consumer's issue slot,
    a No-Op bubble is inserted in the producer queue right after the last
    real instruction the consumer must wait for, and pairing restarts.
    Raises EncodingError for a dependency on a later instruction.
    """
    instructions = list(stream.instructions)
    marks = list(stream.marks)
    origin = list(range(len(instructions)))
    if deps is None:
        deps = (derive_dependencies(instructions) if stream.pipelined
                else chain_dependencies(instructions))
    deps = [dict(d) for d in deps]

    while True:
        result = _pair_all_channels(instructions, deps)
        if isinstance(result, tuple) and result[0] == "insert":
            _, anchor, consumer, s = result
            instructions, marks, deps, origin = _insert_noop(
                instructions, marks, deps, origin, anchor, consumer, s)
            continue
        dpon, dpby = result
        break

    out = []
    for idx, ins in enumerate(instructions):
        out.append(replace(ins, dpon=frozenset(dpon[idx]),
                           dpby=frozenset(dpby[idx])))
    return PipelinedStream(out, marks, stream.pipelined, origin)


def _pair_all_channels(instructions, deps):
    """Pair every channel, or report the first needed No-Op insertion."""
    dpon = [set() for _ in instructions]
    dpby = [set() for _ in instructions]
    queues = {}
    for op in OP_TYPES:
        queues[op] = [i for i, ins in enumerate(instructions)
                      if ins.op == op]
    for s in OP_TYPES:
        queue_s = queues[s]
        pos_of = {i: p for p, i in enumerate(queue_s)}
        for u in OP_TYPES:
            if s == u:
                continue
            consumers = [i for i in queues[u] if s in deps[i]]
            pair_pos = -1
            enforced = -1   # highest queue-s position already guaranteed
            for c in consumers:
                target = deps[c][s]
                if target >= c:
                    raise EncodingError(
                        f"instruction {c} depends on later instruction "
                        f"{target}")
                p = pos_of[target]
                if p <= enforced:
                    # an earlier instruction of this queue already waits on
                    # the same (or a later) pace maker; in-order execution
                    # carries the guarantee forward
                    continue
                want = max(p, pair_pos + 1)
                if want >= len(queue_s) or queue_s[want] >= c:
                    anchor = target
                    if pair_pos >= 0:
                        anchor = max(anchor, queue_s[pair_pos])
                    return ("insert", anchor, c, s)
                pair_pos = want
                enforced = want
                dpon[c].add(s)
                dpby[queue_s[want]].add(u)
    return dpon, dpby


def _insert_noop(instructions, marks, deps, origin, anchor, consumer, s):
    """Insert a type-s No-Op right after `anchor` and point `consumer`'s
    type-s dependency at it."""
    at = anchor + 1
    noop = Instruction(op=s, sub="noop")
    instructions = instructions[:at] + [noop] + instructions[at:]
    marks = marks[:at] + [marks[anchor]] + marks[at:]
    origin = origin[:at] + [None] + origin[at:]

    def shift(i):
        return i + 1 if i >= at else i

    new_deps = []
    for old_idx, d in enumerate(deps):
        new_deps.append({op: shift(t) for op, t in d.items()})
    new_deps = new_deps[:at] + [{}] + new_deps[at:]
    new_deps[shift(consumer)][s] = at
    return instructions, marks, new_deps, origin


def token_pairings(instructions):
    """Static pairing per channel: consumer index -> producer index.

    Returns {(s, u): [(consumer, producer or None), ...]} in queue order;
    None marks a starved consumer (a deadlock once simulated).
    """
    out = {}
    for s in OP_TYPES:
        for u in OP_TYPES:
            if s == u:
                continue
            producers = [i for i, ins in enumerate(instructions)
                         if ins.op == s and u in ins.dpby]
            consumers = [i for i, ins in enumerate(instructions)
                         if ins.op == u and s in ins.dpon]
            if not consumers:
                continue
            pairs = []
            for n, c in enumerate(consumers):
                pairs.append((c, producers[n] if n < len(producers)
                              else None))
            out[(s, u)] = pairs
    return out
