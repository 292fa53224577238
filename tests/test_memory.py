from dpuc import graph as G
from dpuc import memory as MEM
from dpuc.lowering import Win
from dpuc.machine import Addr, DDR, Instruction, LOAD, MachineConfig, MISC, \
    SAVE


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
    lay = MEM.ddr_layout(g, param_bytes=96,
                         addressed=[g.tensors[t] for t in ("x", "t", "y")],
                         cfg=MachineConfig())
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
    lay = MEM.ddr_layout(g, 0, [], MachineConfig())
    assert all(size == 0 for seg, (_, size) in lay.segments.items()
               if seg != "instructions")
    assert lay.segments["instructions"] == (0, MEM.PROGRAM_SIZE_ESTIMATE)


def test_liveness_spans_every_window_in_program_indices():
    # two nodes in program order: node b's indices follow node a's, and a
    # node's windows come out in the order of str((stream, tile))
    def ins(op, src=None, dst=None):
        return Instruction(op=op, sub="move" if op == MISC else "act",
                           src=src, dst=dst)

    a = [ins(LOAD, Addr(DDR, 0), Win("in", 2, 0)),
         ins(LOAD, Addr(DDR, 64), Win("in", 10, 0)),
         ins(SAVE, Win("in", 2, 64), Addr(DDR, 128)),
         ins(SAVE, Win("in", 10, 0), Addr(DDR, 192))]
    b = [ins(LOAD, Addr(DDR, 0), Win("in", 0, 0)),
         ins(MISC, Win("in", 0, 0), Win("out", 0, 0)),
         ins(SAVE, Win("out", 0, 0), Addr(DDR, 64))]
    placed_a = {("in", 2): MEM.WindowAlloc(0, 0, 2048),
                ("in", 10): MEM.WindowAlloc(0, 2048, 2048)}
    placed_b = {("out", 0): MEM.WindowAlloc(1, 0, 2048),
                ("in", 0): MEM.WindowAlloc(0, 0, 4096)}
    got = MEM.compute_liveness([("a", a, placed_a), ("b", b, placed_b)])
    assert [(r["key"], r["first"], r["last"]) for r in got] == [
        ("a/in/10", 1, 3), ("a/in/2", 0, 2), ("b/in/0", 4, 5),
        ("b/out/0", 5, 6)]
    assert [(r["mem"], r["start"], r["length"]) for r in got] == [
        (0, 2048, 2048), (0, 0, 2048), (0, 0, 4096), (1, 0, 2048)]

