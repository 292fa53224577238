import pytest

from dpuc import graph as G
from dpuc import memory as MEM
from dpuc.errors import PortConflictError, UseBeforeDefError
from dpuc.machine import Addr, DDR, FM, Instruction, LOAD, MISC, SAVE


def small_graph():
    q = {"lo": -8.0, "hi": 8.0, "step": 0.0625}
    doc = {
        "tensors": [
            {"name": "x", "shape": [4, 4, 2], "quant": q},
            {"name": "t", "shape": [4, 4, 2], "quant": q},
            {"name": "y", "shape": [4, 4, 2], "quant": q},
        ],
        "nodes": [
            {"id": "in", "op": "input", "inputs": [], "output": "x"},
            {"id": "id1", "op": "identity", "inputs": ["x"], "output": "t"},
            {"id": "id2", "op": "identity", "inputs": ["t"], "output": "y"},
        ],
        "inputs": ["x"], "outputs": ["y"],
    }
    import json
    return G.parse_graph(json.dumps(doc))


def test_ddr_layout_segments_disjoint_and_ordered():
    g = small_graph()
    lay = MEM.ddr_layout(g, param_bytes=96)
    bases = [lay.segments[s] for s in
             ("inputs", "outputs", "parameters", "instructions", "swap")]
    for (b1, s1), (b2, _) in zip(bases, bases[1:]):
        assert b1 + s1 == b2
    assert lay.tensor_map["x"][0] == "inputs"
    assert lay.tensor_map["y"][0] == "outputs"
    assert lay.tensor_map["t"][0] == "swap"
    assert lay.segments["parameters"][1] == 96
    assert lay.segments["instructions"][1] == MEM.PROGRAM_SIZE_ESTIMATE


def test_ddr_layout_empty_graph_zero_segments():
    g = G.Graph({}, [], [], [])
    lay = MEM.ddr_layout(g, 0)
    assert all(size == 0 for seg, (_, size) in lay.segments.items()
               if seg != "instructions")
    assert lay.segments["instructions"] == (0, MEM.PROGRAM_SIZE_ESTIMATE)


def load_instr(dst_off, nbytes, mem=0, src=0):
    return Instruction(op=LOAD, sub="act", src=Addr(DDR, src),
                       dst=Addr(FM, dst_off, mem), rows=1, blocks=1,
                       block_bytes=nbytes, ddr_row_stride=nbytes,
                       ddr_blk_stride=0)


def save_instr(src_off, nbytes, mem=0, dst=0):
    return Instruction(op=SAVE, sub="act", src=Addr(FM, src_off, mem),
                       dst=Addr(DDR, dst), rows=1, blocks=1,
                       block_bytes=nbytes, ddr_row_stride=nbytes,
                       ddr_blk_stride=0)


def test_liveness_write_then_read_chain():
    instrs = [load_instr(0, 64), save_instr(0, 64), save_instr(0, 64)]
    ranges = MEM.compute_liveness(instrs)
    # FM only: the DDR bytes the load reads and the saves write are not
    # tracked
    assert [r.key for r in ranges] == [(FM, 0, 0, 64)]
    assert ranges[0].first == 0 and ranges[0].last == 2
    assert not ranges[0].dead


def test_liveness_never_read_is_dead():
    ranges = MEM.compute_liveness([load_instr(0, 64)])
    assert len(ranges) == 1
    assert ranges[0].dead and ranges[0].first == ranges[0].last == 0


def test_liveness_use_before_def():
    with pytest.raises(UseBeforeDefError):
        MEM.compute_liveness([save_instr(0, 64)])
    # a read of another FM memory's written bytes does not count
    with pytest.raises(UseBeforeDefError):
        MEM.compute_liveness([load_instr(0, 64, mem=1), save_instr(0, 64)])
    # DDR is never tracked, so reading unwritten DDR is not an error
    assert MEM.compute_liveness([load_instr(0, 64, src=4096)])


def test_liveness_partial_overwrite_keeps_piece_boundaries():
    # a read cuts its slice at the read's ends, a partial overwrite emits
    # only the bytes it displaces, and equal neighbours are not merged
    instrs = [load_instr(0, 64), save_instr(0, 16), save_instr(0, 64),
              load_instr(8, 16), save_instr(0, 64)]
    got = [(r.key[2:], r.first, r.last, r.dead)
           for r in MEM.compute_liveness(instrs)]
    assert got == [((0, 8), 0, 4, False), ((8, 16), 0, 2, False),
                   ((16, 24), 0, 2, False), ((24, 64), 0, 4, False),
                   ((8, 24), 3, 4, False)]


def test_liveness_double_buffered_stream_two_live():
    # pipelined order: L1 L2 S1 L3 S2 L4 S3 S4, windows alternate offsets
    instrs = []
    order = [(0, None), (64, None), (None, 0), (0, None), (None, 64),
             (64, None), (None, 0), (None, 64)]
    for l, s in order:
        if l is not None:
            instrs.append(load_instr(l, 64))
        else:
            instrs.append(save_instr(s, 64))
    ranges = MEM.compute_liveness(instrs)
    assert len(ranges) == 4 and all(r.key[0] == FM for r in ranges)
    # at any instruction index at most two slices of the class are live
    for idx in range(len(instrs)):
        live = [r for r in ranges if r.first <= idx <= r.last]
        assert len(live) <= 2


def test_check_ports_valid_chain():
    MEM.check_ports([
        ("LOAD", set(), {0}),
        ("CONV", {0}, {1}),
        ("MISC", {1}, {2}),
        ("SAVE", {2}, set()),
    ])


def test_check_ports_double_writer():
    with pytest.raises(PortConflictError):
        MEM.check_ports([("LOAD", set(), {0}), ("MISC", {1}, {0})])


def test_check_ports_double_reader():
    with pytest.raises(PortConflictError):
        MEM.check_ports([("CONV", {0}, {1}), ("MISC", {0}, {2})])


def test_check_ports_single_unit_reuses_its_ports():
    MEM.check_ports([("MISC", {1, 2}, {2})])
