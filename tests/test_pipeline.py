from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from dpuc import pipeline as P
from dpuc.errors import DeadlockError, EncodingError
from dpuc.machine import Addr, CONV, DDR, FM, Instruction, LOAD, MISC, \
    MachineConfig, OP_TYPES, PM, SAVE
from dpuc.simulator import run_timing, token_pairings
from dpuc.machine import Program


def load(off, nbytes=64, src=0):
    return Instruction(op=LOAD, sub="act", src=Addr(DDR, src),
                       dst=Addr(FM, off, 0), rows=1, blocks=1,
                       block_bytes=nbytes, ddr_row_stride=nbytes,
                       ddr_blk_stride=0)


def conv(src_off, dst_off, nbytes=64):
    return Instruction(op=CONV, sub="conv", src=Addr(FM, src_off, 0),
                       dst=Addr(FM, dst_off, 1), wgt_off=0,
                       wgt_bytes=1 * 1 * 1 * nbytes + 4 * nbytes,
                       in_rows=1, in_w=1, c_in=nbytes, out_w=1,
                       c_out=nbytes, kh=1, kw=1, sh=1, sw=1,
                       pt=0, pl=0, pb=0, pr=0, shift=0)


def pool(src_off, dst_off, nbytes=64):
    return Instruction(op=MISC, sub="maxpool", src=Addr(FM, src_off, 1),
                       dst=Addr(FM, dst_off, 2), in_rows=1, in_w=1,
                       c_in=nbytes, out_w=1, kh=1, kw=1, sh=1, sw=1,
                       pt=0, pl=0, pb=0, pr=0, shift=0)


def save(src_off, dst, nbytes=64):
    return Instruction(op=SAVE, sub="act", src=Addr(FM, src_off, 2),
                       dst=Addr(DDR, dst), rows=1, blocks=1,
                       block_bytes=nbytes, ddr_row_stride=nbytes,
                       ddr_blk_stride=0)


def four_stage_tiles(k, slots=2):
    """k tiles of L C P S over double-buffered FM slots."""
    tiles = []
    for i in range(k):
        sl = (i % slots) * 64
        tiles.append([
            ("LOAD", [load(sl, src=i * 64)]),
            ("CONV", [conv(sl, sl)]),
            ("MISC", [pool(sl, sl)]),
            ("SAVE", [save(sl, 1024 + i * 64)]),
        ])
    return tiles


def test_single_tile_is_sequential_order():
    stream = P.pipeline(four_stage_tiles(1))
    ops = [i.op for i in stream.instructions]
    assert ops == [LOAD, CONV, MISC, SAVE]
    regions = [m[0] for m in stream.marks]
    assert regions == ["head", "head", "head", "tail"]


def test_steady_groups_skew_k6():
    stream = P.pipeline(four_stage_tiles(6))
    # group g holds stage j of tile g-j: steady groups are
    # (L4,C3,P2,S1), (L5,C4,P3,S2), (L6,C5,P4,S3) with 1-based tiles
    by_group = {}
    for (region, g, ti, sj), ins in zip(stream.marks, stream.instructions):
        by_group.setdefault(g, []).append((ins.op, ti, region))
    steady = {g: v for g, v in by_group.items()
              if any(r == "steady" for _, _, r in v)}
    assert sorted(steady) == [3, 4, 5]
    # oldest tile's stage issues first within a group
    for g in steady:
        got = [(op, ti) for op, ti, _ in steady[g]]
        assert got == [(SAVE, g - 3), (MISC, g - 2), (CONV, g - 1),
                       (LOAD, g)]
    # skew property: steady group g covers exactly tiles {g-3..g}
    for g in steady:
        tiles = [ti for _, ti, _ in steady[g]]
        assert tiles == [g - 3, g - 2, g - 1, g]


def test_two_stage_tiles_skew():
    tiles = []
    for i in range(5):
        sl = (i % 2) * 64
        tiles.append([("LOAD", [load(sl, src=i * 64)]),
                      ("MISC", [pool(sl, sl)])])
    # pool reads memory 0 here, keep templates consistent
    for t in tiles:
        t[1][1][0].src = Addr(FM, t[1][1][0].src.off, 0)
        t[1][1][0].dst = Addr(FM, t[1][1][0].dst.off, 1)
    stream = P.pipeline(tiles)
    by_group = {}
    for (region, g, ti, sj), ins in zip(stream.marks, stream.instructions):
        by_group.setdefault(g, []).append((ins.op, ti))
    for g in range(1, 5):
        assert by_group[g] == [(MISC, g - 1), (LOAD, g)]


def test_degenerate_three_tiles_head_tail_only():
    stream = P.pipeline(four_stage_tiles(3))
    regions = {m[0] for m in stream.marks}
    assert "steady" not in regions


def test_no_pipeline_keeps_sequential_order():
    tiles = four_stage_tiles(4)
    stream = P.pipeline(tiles, enabled=False)
    ops = [i.op for i in stream.instructions]
    assert ops == [LOAD, CONV, MISC, SAVE] * 4
    assert not stream.pipelined


def preloaded_prog(stream):
    return Program(instructions=stream.instructions)


def test_assign_deps_head_first_load_empty_dpon():
    stream = P.assign_typed_deps(P.pipeline(four_stage_tiles(6)))
    first = stream.instructions[0]
    assert first.op == LOAD and first.dpon == frozenset()


def test_assign_deps_steady_structure():
    stream = P.assign_typed_deps(P.pipeline(four_stage_tiles(8)))
    # convs wait on their input loads; with two buffer slots they also
    # wait on the pool that last read the slot they overwrite
    convs = [i for i in stream.instructions if i.op == CONV]
    assert all(LOAD in c.dpon for c in convs)
    assert any(MISC in c.dpon for c in convs[2:])
    loads = [i for i in stream.instructions if i.op == LOAD]
    assert any(CONV in l.dpon for l in loads[2:])
    saves = [i for i in stream.instructions if i.op == SAVE]
    assert all(MISC in s.dpon for s in saves)
    # every consumed token has a producer
    for (s, u), pairs in token_pairings(stream.instructions).items():
        for consumer, producer in pairs:
            assert producer is not None
            assert producer < consumer


def target_matrix(deps):
    """The (n, 4) target matrix of per-instruction {queue type: target}
    dicts, -1 where a dict has no target."""
    out = np.full((len(deps), 4), -1, np.int64)
    for c, d in enumerate(deps):
        for s, target in d.items():
            out[c, OP_TYPES.index(s)] = target
    return out


def test_assign_deps_rejects_forward_dependency():
    stream = P.pipeline(four_stage_tiles(2))
    deps = [{} for _ in stream.instructions]
    deps[0] = {CONV: 1}
    with pytest.raises(EncodingError):
        P.assign_typed_deps(stream, deps=target_matrix(deps))


def test_shared_pacemaker_covered_by_queue_order():
    # two saves depending on the same MISC instruction: only the first
    # save consumes a token; the second is ordered behind it in the SAVE
    # queue, so in-order execution carries the guarantee
    tiles = [[("MISC", [pool(0, 0)]),
              ("SAVE", [save(0, 0), save(64, 64)])]]
    stream = P.pipeline(tiles)
    deps = [dict() for _ in stream.instructions]
    deps[1] = {MISC: 0}
    deps[2] = {MISC: 0}
    out = P.assign_typed_deps(stream, deps=target_matrix(deps))
    saves = [i for i in out.instructions if i.op == SAVE]
    assert saves[0].dpon == frozenset({MISC})
    assert saves[1].dpon == frozenset()
    assert not any(i.is_noop for i in out.instructions)
    pairs = token_pairings(out.instructions)[(MISC, SAVE)]
    assert pairs == [(1, 0)]


# dependency derivation against a brute-force per-byte oracle: random
# stand-in instructions, each a queue type with a few read and write
# ranges over three FM memories, PM and DDR of MEM_BYTES bytes each
MEM_BYTES = 64
MEMS = ((FM, 0), (FM, 1), (FM, 2), (PM, 0), (DDR, 0))


@dataclass
class Access:
    op: str
    rd: list
    wr: list


def access_footprints(prog):
    """The `machine.footprints` table of stand-in accesses: a row per
    range, in issue order and each access's reads before its writes."""
    keys = {m: k for k, m in enumerate(MEMS)}
    table = [(keys[s, m], lo, hi, idx, w)
             for idx, acc in enumerate(prog)
             for w, ranges in ((0, acc.rd), (1, acc.wr))
             for s, m, lo, hi in ranges]
    return np.array(table, np.int64).reshape(-1, 5), list(MEMS)


# zero-length ranges included: they take an FM port but no byte
byte_range = hst.tuples(hst.sampled_from(MEMS), hst.integers(0, MEM_BYTES),
                        hst.integers(0, 32)).map(
    lambda t: (*t[0], t[1], min(MEM_BYTES, t[1] + t[2])))
accesses = hst.lists(
    hst.builds(lambda op, rd, wr, in_place: Access(
        op, rd, wr + rd if in_place else wr),   # in place: writes its reads
        hst.sampled_from(OP_TYPES), hst.lists(byte_range, max_size=2),
        hst.lists(byte_range, max_size=2), hst.booleans()),
    min_size=1, max_size=24)


def deps_oracle(prog):
    """Per access: the latest other-queue instruction it must wait for,
    per queue, from per-byte RAW/WAR/WAW sets and FM port hand-overs."""
    writer = {m: np.full(MEM_BYTES, -1) for m in MEMS}
    readers = {m: np.zeros((len(prog), MEM_BYTES), bool) for m in MEMS}
    port_user = {}
    out = []
    for idx, acc in enumerate(prog):
        hits = set()
        for s, m, lo, hi in acc.rd:
            hits.update(writer[s, m][lo:hi].tolist())                  # RAW
            readers[s, m][idx, lo:hi] = True
        for s, m, lo, hi in acc.wr:
            hits.update(writer[s, m][lo:hi].tolist())                  # WAW
            hits.update(np.flatnonzero(
                readers[s, m][:, lo:hi].any(axis=1)).tolist())         # WAR
            writer[s, m][lo:hi] = idx
            readers[s, m][:, lo:hi] = False
        ports = {(m, d) for d, ranges in (("r", acc.rd), ("w", acc.wr))
                 for s, m, _lo, _hi in ranges if s == FM}
        for port in ports:
            hits.add(port_user.get(port, -1))
            port_user[port] = idx
        targets = {}
        for j in hits - {-1}:
            if prog[j].op != acc.op:
                targets[prog[j].op] = max(targets.get(prog[j].op, -1), j)
        out.append(targets)
    return out


@given(accesses)
@settings(max_examples=200, deadline=None)
def test_dependency_targets_match_per_byte_oracle(prog):
    got = P.derive_dependencies(prog, access_footprints(prog))
    assert np.array_equal(got, target_matrix(deps_oracle(prog)))


MAKE = {LOAD: lambda n: load(0, n), CONV: lambda n: conv(0, 0, n),
        MISC: lambda n: pool(0, 0, n), SAVE: lambda n: save(0, 0, n)}


@hst.composite
def backward_typed_deps(draw):
    """A random op sequence of mixed durations and, per consumer and
    other type s, maybe one earlier type-s target."""
    ops = draw(hst.lists(hst.sampled_from(OP_TYPES), min_size=1,
                         max_size=30))
    sizes = draw(hst.lists(hst.sampled_from((16, 256, 4096)),
                           min_size=len(ops), max_size=len(ops)))
    deps = []
    for c, u in enumerate(ops):
        d = {}
        for s in OP_TYPES:
            earlier = [i for i in range(c) if ops[i] == s]
            if s != u and earlier and draw(hst.booleans()):
                d[s] = draw(hst.sampled_from(earlier))
        deps.append(d)
    return ops, sizes, deps


@settings(max_examples=500, deadline=None)
@given(backward_typed_deps())
def test_assign_deps_sound_for_any_backward_deps(case):
    ops, sizes, deps = case
    stream = P.PipelinedStream([MAKE[op](n) for op, n in zip(ops, sizes)],
                               [None] * len(ops))
    out = P.assign_typed_deps(stream, deps=target_matrix(deps))
    # tokens alone carry every dependency: no No-Op is added
    assert [i.op for i in out.instructions] == ops
    for pairs in token_pairings(out.instructions).values():
        assert all(producer is not None for _c, producer in pairs)
    trace = run_timing(Program(instructions=out.instructions),
                       MachineConfig())
    for c, d in enumerate(deps):
        for target in d.values():
            assert trace.events[c].start >= trace.events[target].end


def per_consumer_tokens(ops, deps):
    """DPON and DPBY sets of each instruction, one consumer at a time: a
    consumer takes a token on channel (s -> u) when its type-s target
    lies past the latest target that channel's tokens already cover."""
    dpon = [set() for _ in ops]
    dpby = [set() for _ in ops]
    enforced = {}   # (s, u) -> latest type-s target a type-u token covers
    for c, u in enumerate(ops):
        for s in OP_TYPES:
            target = deps[c].get(s)
            if target is None or s == u:
                continue
            if target >= c:
                raise EncodingError(f"instruction {c} depends on later "
                                    f"instruction {target}")
            if target > enforced.get((s, u), -1):
                enforced[(s, u)] = target
                dpon[c].add(s)
                dpby[target].add(u)
    return dpon, dpby


@settings(max_examples=500, deadline=None)
@given(backward_typed_deps(), hst.data())
def test_token_encoding_matches_per_consumer_loop(case, data):
    ops, sizes, deps = case
    stream = P.PipelinedStream([MAKE[op](n) for op, n in zip(ops, sizes)],
                               [None] * len(ops))
    out = P.assign_typed_deps(stream, deps=target_matrix(deps))
    assert ([(i.dpon, i.dpby) for i in out.instructions]
            == list(zip(*per_consumer_tokens(ops, deps))))
    # targets at or past their consumer: the lowest such consumer is named
    for _ in range(data.draw(hst.integers(1, 3))):
        c = data.draw(hst.integers(0, len(ops) - 1))
        s = data.draw(hst.sampled_from([q for q in OP_TYPES if q != ops[c]]))
        deps[c][s] = data.draw(hst.integers(c, len(ops) - 1))
    with pytest.raises(EncodingError) as want:
        per_consumer_tokens(ops, deps)
    with pytest.raises(EncodingError) as got:
        P.assign_typed_deps(stream, deps=target_matrix(deps))
    assert str(got.value) == str(want.value)


def test_pipelined_beats_sequential_makespan():
    cfg = MachineConfig(ddr_bytes_per_cycle=4, misc_elems_per_cycle=16,
                        conv_macs_per_cycle=256, issue_overhead=2)
    tiles = four_stage_tiles(8)
    seq = P.assign_typed_deps(P.pipeline(tiles, enabled=False))
    pip = P.assign_typed_deps(P.pipeline(four_stage_tiles(8)))
    t_seq = run_timing(preloaded_prog(seq), cfg)
    t_pip = run_timing(preloaded_prog(pip), cfg)
    assert t_pip.makespan < t_seq.makespan
    # sequential baseline is a strictly ordered chain
    starts = sorted((e.start, e.index) for e in t_seq.events)
    ends = {e.index: e.end for e in t_seq.events}
    seq_idx = [i for _s, i in starts]
    for a, b in zip(seq_idx, seq_idx[1:]):
        assert t_seq.events[0] is not None
        assert ends[a] <= [e for e in t_seq.events if e.index == b][0].start


def test_deadlock_detected_for_starved_consumer():
    ins = [conv(0, 0)]
    ins[0].dpon = frozenset({LOAD})
    prog = Program(instructions=ins)
    with pytest.raises(DeadlockError):
        run_timing(prog, MachineConfig())


def test_deadlock_detected_for_circular_wait():
    # L0 waits on C1's token and C1 on L0's: both pairings exist, so no
    # consumer is starved, yet neither queue head can ever start
    ld, cv = load(0), conv(0, 0)
    ld.dpon, ld.dpby = frozenset({CONV}), frozenset({CONV})
    cv.dpon, cv.dpby = frozenset({LOAD}), frozenset({LOAD})
    with pytest.raises(DeadlockError, match="unsatisfiable"):
        run_timing(Program(instructions=[ld, cv]), MachineConfig())


def test_long_finite_stall_is_not_a_deadlock():
    # a LOAD of more than 16e6 B takes over 10^6 cycles at 16 B/cycle;
    # the CONV it gates stalls that long and must still simulate
    cfg = MachineConfig()
    nbytes = 17_000_000
    ld, cv = load(0, nbytes=nbytes), conv(0, 0)
    ld.dpby = frozenset({CONV})
    cv.dpon = frozenset({LOAD})
    trace = run_timing(Program(instructions=[ld, cv]), cfg)
    load_end = -(-nbytes // cfg.ddr_bytes_per_cycle) + cfg.issue_overhead
    assert trace.events[0].end == load_end
    assert trace.events[1].issue == 0
    assert trace.events[1].start == load_end > 10**6
    assert trace.makespan == load_end + trace.events[1].duration


@pytest.mark.parametrize("enabled", [True, False])
def test_pipeline_rejects_mixed_stage_shapes(enabled):
    # stages are aligned by position, so a tile missing its LOAD group
    # would skew its CONV into another tile's LOAD slot
    tiles = four_stage_tiles(2)
    tiles[0] = [tiles[0][0], tiles[0][1], tiles[0][3]]  # LOAD CONV SAVE
    tiles[1] = [tiles[1][1], tiles[1][3]]               # CONV SAVE
    with pytest.raises(EncodingError, match="stage queues"):
        P.pipeline(tiles, enabled=enabled)


def test_pipeline_keeps_empty_groups_in_place():
    # an empty LOAD group still occupies stage 0, so the CONV of tile 1
    # lands in group 2 next to tile 2's LOAD, as for a full tile
    tiles = four_stage_tiles(3)
    tiles[1][0] = ("LOAD", [])
    stream = P.pipeline(tiles)
    got = [(ins.op, g, ti) for ins, (_r, g, ti, _sj)
           in zip(stream.instructions, stream.marks) if ti == 1]
    assert got == [(CONV, 2, 1), (MISC, 3, 1), (SAVE, 4, 1)]
