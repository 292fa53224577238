"""Software pipelining: head/steady/tail reordering and typed dependencies.

pipeline() skews a sequential tile stream T_i = L_i C_i P_i S_i into
groups (L_i, C_{i-1}, P_{i-2}, S_{i-3}) so the four units overlap across
neighbouring tiles.  Stages are aligned by position, so every tile of a
stream must have the same queue sequence; a stage with nothing to do is
an empty group, not a missing one.

assign_typed_deps() encodes the stream's true cross-queue data and
buffer-reuse dependencies with nothing but the four instruction types.
DPON/DPBY pairs act as counted tokens per (producer type -> consumer
type) channel: the n-th instruction of a queue that depends on type s is
gated by the completion of the n-th type-s instruction that carries the
matching DPBY.
"""

from dataclasses import dataclass

from .errors import EncodingError
from .intervals import IntervalMap
from .machine import FM


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

    Consumers are walked in issue order, which is queue order on every
    channel (s -> u), and each one is paired with its own type-s target.
    A consumer whose target sits no later in queue s than a target an
    earlier instruction of its queue already waits on takes no token:
    in-order execution carries that guarantee forward.  Paired targets
    therefore rise strictly along each channel, so the n-th DPON of a
    channel meets its n-th DPBY.  DPON/DPBY are set in place, replacing
    any earlier encoding, and the returned stream holds the same
    instruction objects.  Raises EncodingError for a dependency on a
    later instruction.
    """
    instructions = stream.instructions
    if deps is None:
        deps = (derive_dependencies(instructions) if stream.pipelined
                else chain_dependencies(instructions))
    dpon = [set() for _ in instructions]
    dpby = [set() for _ in instructions]
    enforced = {}   # (s, u) -> latest type-s target a type-u token covers
    for c, ins in enumerate(instructions):
        u = ins.op
        for s, target in deps[c].items():
            if s == u:   # same-queue order is free
                continue
            if target >= c:
                raise EncodingError(
                    f"instruction {c} depends on later instruction "
                    f"{target}")
            if target > enforced.get((s, u), -1):
                enforced[(s, u)] = target
                dpon[c].add(s)
                dpby[target].add(u)
    for ins, on, by in zip(instructions, dpon, dpby):
        ins.dpon, ins.dpby = frozenset(on), frozenset(by)
    return PipelinedStream(instructions, stream.marks, stream.pipelined)
