import hashlib
import importlib
import json
import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

import dpuc
from dpuc import corpus
from dpuc import graph as G
from dpuc import quant
from dpuc import simulator as S
from dpuc.compiler import CompileOptions, compile_graph
from dpuc.errors import OutOfBoundsError, ShapeError, UseBeforeDefError
from dpuc.machine import Addr, CONV, DDR, FM, Instruction, LOAD, MISC, \
    MachineConfig, OP_TYPES, PM, Program, SAVE, _FOOTPRINT_FIELDS, \
    blocks_overlap, footprints, parse_assembly
from dpuc.timeline import emit_timeline


def q(step=1.0):
    return {"lo": -128.0 * step, "hi": 127.0 * step, "step": step}


def graph_doc(tensors, nodes, inputs, outputs):
    return json.dumps({"tensors": tensors, "nodes": nodes,
                       "inputs": inputs, "outputs": outputs})


def single_conv_graph(h=5, w=5, ci=2, co=3, k=3, stride=1, pad=1,
                      x_step=1.0, w_step=1.0, y_step=1.0, seed=0):
    import base64
    rng = np.random.default_rng(seed)
    weights = rng.integers(-32, 32, (co, k, k, ci)).astype(np.int8)
    bias = rng.integers(-64, 64, co).astype(np.int32)
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    doc = graph_doc(
        [{"name": "x", "shape": [h, w, ci], "quant": q(x_step)},
         {"name": "y", "shape": [oh, ow, co], "quant": q(y_step)}],
        [{"id": "in", "op": "input", "inputs": [], "output": "x"},
         {"id": "c1", "op": "conv", "inputs": ["x"], "output": "y",
          "attrs": {"kernel": [k, k], "stride": [stride, stride],
                    "padding": [pad, pad], "c_out": co},
          "params": {"weights": base64.b64encode(weights.tobytes()).decode(),
                     "bias": base64.b64encode(bias.tobytes()).decode(),
                     "shape": [co, k, k, ci],
                     "quant": q(w_step)}}],
        ["x"], ["y"])
    return G.parse_graph(doc), weights, bias


def brute_force_conv(x, w, bias, stride, pad, shift):
    """Second, independently written triple-loop implementation."""
    h, wd, ci = x.shape
    co, kh, kw, _ = w.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((oh, ow, co), np.int8)
    for i in range(oh):
        for j in range(ow):
            for o in range(co):
                acc = int(bias[o])
                for a in range(kh):
                    for b in range(kw):
                        for n in range(ci):
                            yy = i * stride + a - pad
                            xx = j * stride + b - pad
                            if 0 <= yy < h and 0 <= xx < wd:
                                acc += int(x[yy, xx, n]) * int(w[o, a, b, n])
                # round half away from zero at the scale ratio
                if shift >= 0:
                    val = acc * (1 << shift)
                else:
                    d = 1 << -shift
                    sgn = 1 if acc >= 0 else -1
                    val = sgn * ((abs(acc) + d // 2) // d)
                out[i, j, o] = max(-128, min(127, val))
    return out


def test_reference_single_mac():
    # 1x1 input, 1x1 kernel, w=2, x=3, b=1, unit scales -> y = 7
    import base64
    doc = graph_doc(
        [{"name": "x", "shape": [1, 1, 1], "quant": q()},
         {"name": "y", "shape": [1, 1, 1], "quant": q()}],
        [{"id": "in", "op": "input", "inputs": [], "output": "x"},
         {"id": "c", "op": "conv", "inputs": ["x"], "output": "y",
          "attrs": {"kernel": [1, 1], "c_out": 1},
          "params": {"weights": base64.b64encode(
                         np.array([2], np.int8).tobytes()).decode(),
                     "bias": base64.b64encode(
                         np.array([1], np.int32).tobytes()).decode(),
                     "shape": [1, 1, 1, 1], "quant": q()}}],
        ["x"], ["y"])
    g = G.parse_graph(doc)
    out = S.reference_execute(g, {"x": np.array([[[3]]], np.int8)})
    assert out["y"][0, 0, 0] == 7


def test_reference_zero_weights_zero_output():
    g, w, b = single_conv_graph(seed=1)
    g.nodes["c1"].params = G.WeightSpec(np.zeros_like(w),
                                        np.zeros_like(b),
                                        g.nodes["c1"].params.wgt_quant)
    x = np.random.default_rng(0).integers(-128, 128, (5, 5, 2)).astype(np.int8)
    out = S.reference_execute(g, {"x": x})
    assert not out["y"].any()


def test_reference_matches_brute_force():
    g, w, b = single_conv_graph(x_step=0.5, w_step=0.25, y_step=0.5, seed=2)
    rng = np.random.default_rng(7)
    x = rng.integers(-128, 128, (5, 5, 2)).astype(np.int8)
    out = S.reference_execute(g, {"x": x})
    shift = -1 + -2 - -1  # x_exp + w_exp - y_exp
    expect = brute_force_conv(x, w, b, 1, 1, shift)
    assert np.array_equal(out["y"], expect)


def test_reference_maxpool_and_eltwise_and_upsample():
    import base64
    doc = graph_doc(
        [{"name": "x", "shape": [4, 4, 2], "quant": q()},
         {"name": "p", "shape": [2, 2, 2], "quant": q()},
         {"name": "u", "shape": [3, 3, 2], "quant": q()},
         {"name": "z", "shape": [3, 3, 2], "quant": q()},
         {"name": "y", "shape": [3, 3, 2], "quant": q()}],
        [{"id": "in", "op": "input", "inputs": [], "output": "x"},
         {"id": "mp", "op": "maxpool", "inputs": ["x"], "output": "p",
          "attrs": {"kernel": [2, 2], "stride": [2, 2]}},
         {"id": "up", "op": "upsample", "inputs": ["p"], "output": "u",
          "attrs": {"factor": 2}},
         {"id": "id", "op": "identity", "inputs": ["u"], "output": "z"},
         {"id": "add", "op": "eltwise-add", "inputs": ["u", "z"],
          "output": "y"}],
        ["x"], ["y"])
    g = G.parse_graph(doc)
    x = np.arange(32, dtype=np.int8).reshape(4, 4, 2)
    out = S.reference_execute(g, {"x": x})
    pooled = np.array([[x[0:2, 0:2].max(axis=(0, 1)),
                        x[0:2, 2:4].max(axis=(0, 1))],
                       [x[2:4, 0:2].max(axis=(0, 1)),
                        x[2:4, 2:4].max(axis=(0, 1))]])
    up = np.zeros((3, 3, 2), np.int64)
    up[::2, ::2] = pooled
    expect = np.clip(up + up, -128, 127)
    assert np.array_equal(out["y"], expect)


@pytest.mark.parametrize("declared", [True, False],
                         ids=["raw-declared", "raw-undeclared"])
@pytest.mark.parametrize("op", ["maxpool", "eltwise-add"])
def test_reference_fix_after_pool_and_add(op, declared):
    # quantizer exports put a fix after every op: the pool or add writes
    # p_raw with no quantizer, the fix gives y (declared without one) an
    # exponent, and a second pool reads y.  The fold makes the first node
    # write y at that exponent; the reference must agree with the program
    pool = {"kernel": [2, 2], "stride": [2, 2]}
    if op == "maxpool":
        srcs, h, attrs = ["x"], 4, {"attrs": pool}
    else:
        srcs, h, attrs = ["x", "r"], 8, {}
    tensors = ([{"name": "x", "shape": [8, 8, 4], "quant": q(0.25)},
                {"name": "r", "shape": [8, 8, 4], "quant": q(0.5)}][:len(srcs)]
               + [{"name": "y", "shape": [h, h, 4]},
                  {"name": "z", "shape": [h // 2, h // 2, 4],
                   "quant": q(1.0)}]
               + [{"name": "p_raw", "shape": [h, h, 4]}] * declared)
    nodes = ([{"id": f"in_{t}", "op": "input", "inputs": [], "output": t}
              for t in srcs]
             + [{"id": "p", "op": op, "inputs": srcs, "output": "p_raw"}
                | attrs,
                {"id": "fx", "op": "fix", "inputs": ["p_raw"],
                 "output": "y", "attrs": q(1.0)},
                {"id": "p2", "op": "maxpool", "inputs": ["y"], "output": "z",
                 "attrs": pool}])
    g = G.parse_graph(graph_doc(tensors, nodes, srcs, ["z"]))
    cfg = MachineConfig()
    art = compile_graph(g, cfg)
    rng = np.random.default_rng(3)
    inputs = {t: rng.integers(-128, 128, (8, 8, 4)).astype(np.int8)
              for t in srcs}
    ref = S.reference_execute(g, inputs)["z"]
    assert np.array_equal(S.run_program(art.program, cfg, inputs)["z"], ref)
    folded = G.fold_constants_and_quantizers(g)
    assert np.array_equal(S.reference_execute(folded, inputs)["z"], ref)


# ---------------------------------------------------------------------------
# functional instruction execution
# ---------------------------------------------------------------------------

def mkstate(cfg, ddr=4096):
    return S.MachineState(cfg, ddr)


def test_functional_load_save_roundtrip_strided():
    cfg = MachineConfig()
    st = mkstate(cfg)
    data = np.arange(64, dtype=np.uint8)
    st.preload(0, data.tobytes())
    prog = Program(instructions=[
        Instruction(op=LOAD, sub="act", src=Addr(DDR, 0),
                    dst=Addr(FM, 0, 0), rows=4, blocks=1, block_bytes=16,
                    ddr_row_stride=16, ddr_blk_stride=0),
        # scatter back with a channel-slice stride pattern
        Instruction(op=SAVE, sub="act", src=Addr(FM, 0, 0),
                    dst=Addr(DDR, 1024), rows=4, blocks=2, block_bytes=8,
                    ddr_row_stride=32, ddr_blk_stride=16),
    ])
    S.run_functional(prog, st)
    ddr = st._pair(DDR, 0)[0]
    for r in range(4):
        row = data[r * 16:(r + 1) * 16]
        assert np.array_equal(ddr[1024 + r * 32:1024 + r * 32 + 8], row[:8])
        assert np.array_equal(ddr[1024 + r * 32 + 16:1024 + r * 32 + 24],
                              row[8:])


def test_functional_save_unwritten_fm_raises():
    cfg = MachineConfig()
    st = mkstate(cfg)
    prog = Program(instructions=[
        Instruction(op=SAVE, sub="act", src=Addr(FM, 0, 0),
                    dst=Addr(DDR, 0), rows=1, blocks=1, block_bytes=8,
                    ddr_row_stride=8, ddr_blk_stride=0)])
    with pytest.raises(UseBeforeDefError):
        S.run_functional(prog, st)


def _transfer(op, sub, src, dst):
    return Instruction(op=op, sub=sub, src=src, dst=dst, rows=1, blocks=1,
                       block_bytes=16, ddr_row_stride=16, ddr_blk_stride=0)


OUT_OF_RANGE = {
    "fm_write_past_end": _transfer(
        LOAD, "act", Addr(DDR, 0), Addr(FM, MachineConfig().fm_bytes - 8, 0)),
    "pm_write_past_end": _transfer(
        LOAD, "weight", Addr(DDR, 0), Addr(PM, MachineConfig().pm_bytes - 8)),
    "fm_read_past_end": _transfer(
        SAVE, "act", Addr(FM, MachineConfig().fm_bytes - 8, 1), Addr(DDR, 0)),
    "missing_fm_memory": _transfer(LOAD, "act", Addr(DDR, 0), Addr(FM, 0, 3)),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_functional_out_of_range_access_raises(case):
    # FM and PM are linear like DDR: an access past the end of a memory,
    # or to a memory that does not exist, fails instead of wrapping
    st = mkstate(MachineConfig())
    st.preload(0, bytes(16))
    with pytest.raises(OutOfBoundsError):
        S.run_functional(Program(instructions=[OUT_OF_RANGE[case]]), st)


def test_functional_conv_instruction_matches_oracle():
    cfg = MachineConfig()
    st = mkstate(cfg)
    rng = np.random.default_rng(3)
    x = rng.integers(-128, 128, (6, 5, 2)).astype(np.int8)
    w = rng.integers(-16, 16, (3, 3, 3, 2)).astype(np.int8)
    bias = rng.integers(-100, 100, 3).astype(np.int32)
    fm0, fm0_written = st._pair(FM, 0)
    fm0[:x.size] = x.reshape(-1).view(np.uint8)
    fm0_written[:x.size] = True
    blob = w.tobytes() + bias.astype("<i4").tobytes()
    pm, pm_written = st._pair(PM, 0)
    pm[:len(blob)] = np.frombuffer(blob, np.uint8)
    pm_written[:len(blob)] = True
    ins = Instruction(op=CONV, sub="conv", src=Addr(FM, 0, 0),
                      dst=Addr(FM, 0, 1), wgt_off=0, wgt_bytes=len(blob),
                      in_rows=6, in_w=5, c_in=2, out_w=5, c_out=3,
                      kh=3, kw=3, sh=1, sw=1, pt=1, pl=1, pb=1, pr=1,
                      shift=-3)
    S.run_functional(Program(instructions=[ins]), st)
    got = st._pair(FM, 1)[0][:6 * 5 * 3].view(np.int8).reshape(6, 5, 3)
    expect = brute_force_conv(x, w, bias, 1, 1, -3)
    assert np.array_equal(got, expect)


def test_functional_upsample_zero_insertion():
    cfg = MachineConfig()
    st = mkstate(cfg)
    x = np.array([[[1], [2]], [[3], [4]]], np.int8)
    fm0, fm0_written = st._pair(FM, 0)
    fm0[:4] = x.reshape(-1).view(np.uint8)
    fm0_written[:4] = True
    ins = Instruction(op=MISC, sub="upsample", src=Addr(FM, 0, 0),
                      dst=Addr(FM, 0, 1), in_rows=2, w=2, c=1, factor=2,
                      out_rows=3)
    S.run_functional(Program(instructions=[ins]), st)
    got = st._pair(FM, 1)[0][:9].view(np.int8).reshape(3, 3)
    assert np.array_equal(got, [[1, 0, 2], [0, 0, 0], [3, 0, 4]])


def test_input_past_ddr_raises_out_of_bounds():
    # preloading goes through the same accessor as every operand, so an
    # input placed past the end of DDR is an access outside a memory
    prog = Program(segments={"inputs": (0, 16)}, tensors={"x": {
        "segment": "inputs", "off": 12, "bytes": 8, "shape": (2, 2, 2),
        "step_exp": 0}})
    with pytest.raises(OutOfBoundsError,
                       match=r"^ddr0 write \[12,20\) outside 16 B$"):
        S.run_program(prog, MachineConfig(),
                      {"x": np.zeros((2, 2, 2), np.int8)})


def test_conv_with_unloaded_weights_raises():
    st = mkstate(MachineConfig())
    st._pair(FM, 0)[1][:4] = True
    ins = Instruction(op=CONV, sub="conv", src=Addr(FM, 0, 0),
                      dst=Addr(FM, 0, 1), wgt_off=8, wgt_bytes=8,
                      in_rows=1, in_w=1, c_in=4, out_w=1, c_out=1, kh=1,
                      kw=1, sh=1, sw=1, pt=0, pl=0, pb=0, pr=0, shift=0)
    with pytest.raises(UseBeforeDefError,
                       match=r"^at instruction 0 \(CONV/conv\): pm0 read "
                             r"\[8,16\) of unwritten bytes, the first at 8$"):
        S.run_functional(Program(instructions=[ins]), st)


def test_output_no_save_writes_raises():
    prog = Program(segments={"outputs": (0, 8)}, tensors={"y": {
        "segment": "outputs", "off": 0, "bytes": 8, "shape": (2, 2, 2),
        "step_exp": 0}})
    with pytest.raises(UseBeforeDefError,
                       match=r"^ddr0 read \[0,8\) of unwritten bytes, the first "
                             r"at 0$"):
        S.run_program(prog, MachineConfig(), {})


def test_memories_are_made_when_first_accessed():
    # a program that names neither fm1, fm2 nor PM zeroes none of them
    st = mkstate(MachineConfig())
    st.preload(0, bytes(16))
    ld = _transfer(LOAD, "act", Addr(DDR, 0), Addr(FM, 0, 0))
    S.run_functional(Program(instructions=[ld]), st)
    assert sorted(st.mems) == [(DDR, 0), (FM, 0)]
    # DDR and PM are one memory each, FM has fm_memories: any other index
    # is refused before a memory is made for it
    for dst, name in ((Addr(PM, 0, 1), "pm1"), (Addr(DDR, 64, 1), "ddr1"),
                      (Addr(FM, 0, MachineConfig().fm_memories), "fm3")):
        with pytest.raises(OutOfBoundsError, match=f"{name} does not exist"):
            S.run_functional(Program(instructions=[
                replace(ld, dst=dst)]), st)
    assert sorted(st.mems) == [(DDR, 0), (FM, 0)]


# ---------------------------------------------------------------------------
# strided operands against a per-byte oracle
# ---------------------------------------------------------------------------

# 256 B in each FM memory and in PM; DDR is sized per test
SMALL = MachineConfig(fm_banks_per_memory=1, fm_bank_rows=4, fm_row_bytes=64,
                      pm_bytes=256)


def _runs(off, rows, blocks, size, row, blk):
    """Byte addresses of a strided operand, in transfer order."""
    return [off + r * row + b * blk + i for r in range(rows)
            for b in range(blocks) for i in range(size)]


@hst.composite
def _strided_op(draw):
    """A LOAD, SAVE or move whose strided operands' blocks are disjoint,
    with offsets and strides that keep it inside 256 B memories."""
    def ints(lo, hi):
        return draw(hst.integers(lo, hi))

    def strides():
        row, blk = ints(0, 24), ints(0, 12)
        addrs = _runs(0, rows, blocks, size, row, blk)
        assume(len(set(addrs)) == len(addrs))
        return row, blk

    kind = draw(hst.sampled_from(("load", "save", "move")))
    rows, blocks, size = ints(1, 4), ints(1, 3), ints(0, 6)
    geometry = dict(rows=rows, blocks=blocks, block_bytes=size)
    if kind == "move":
        (sr, sb), (dr, db) = strides(), strides()
        return Instruction(op=MISC, sub="move", src=Addr(FM, ints(0, 60), 0),
                           dst=Addr(FM, ints(0, 60), ints(0, 1)),
                           src_row_stride=sr, src_blk_stride=sb,
                           dst_row_stride=dr, dst_blk_stride=db, **geometry)
    row, blk = strides()
    geometry.update(ddr_row_stride=row, ddr_blk_stride=blk)
    ddr, fm = Addr(DDR, ints(0, 60)), Addr(FM, ints(0, 60), ints(0, 1))
    if kind == "load":
        return Instruction(op=LOAD, sub="act", src=ddr, dst=fm, **geometry)
    return Instruction(op=SAVE, sub="act", src=fm, dst=ddr, **geometry)


def _footprints(ins):
    """((space, mem, addresses) read, (space, mem, addresses) written),
    each in transfer order."""
    size = (ins.rows, ins.blocks, ins.block_bytes)
    n = ins.transfer_bytes()
    if ins.op == LOAD:
        return ((DDR, 0, _runs(ins.src.off, *size, ins.ddr_row_stride,
                               ins.ddr_blk_stride)),
                (FM, ins.dst.mem, list(range(ins.dst.off, ins.dst.off + n))))
    if ins.op == SAVE:
        return ((FM, ins.src.mem, list(range(ins.src.off, ins.src.off + n))),
                (DDR, 0, _runs(ins.dst.off, *size, ins.ddr_row_stride,
                               ins.ddr_blk_stride)))
    return ((FM, ins.src.mem, _runs(ins.src.off, *size, ins.src_row_stride,
                                    ins.src_blk_stride)),
            (FM, ins.dst.mem, _runs(ins.dst.off, *size, ins.dst_row_stride,
                                    ins.dst_blk_stride)))


def _filled_state(seed, ddr_bytes=256):
    """Every byte of every memory random and written."""
    st = S.MachineState(SMALL, ddr_bytes)
    rng = np.random.default_rng(seed)
    for buf, written in (st._pair(DDR, 0), st._pair(FM, 0), st._pair(FM, 1),
                         st._pair(PM, 0)):
        buf[:] = rng.integers(0, 256, buf.size)
        written[:] = True
    return st


@given(_strided_op(), hst.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
# a move onto bytes its source still has to read, at another stride
@example(Instruction(op=MISC, sub="move", src=Addr(FM, 0, 0),
                     dst=Addr(FM, 1, 0), rows=1, blocks=3, block_bytes=1,
                     src_row_stride=0, dst_row_stride=0, src_blk_stride=3,
                     dst_blk_stride=1), 0)
def test_strided_operand_matches_per_byte_oracle(ins, seed):
    st = _filled_state(seed)
    (rs, rm, src), (ws, wm, dst) = _footprints(ins)
    if (rs, rm) != (ws, wm):
        st._pair(ws, wm)[1][:] = False  # to see which bytes get written
    before = {k: (buf.copy(), written.copy()) for k in
              ((DDR, 0), (FM, 0), (FM, 1))
              for buf, written in [st._pair(*k)]}
    S.run_functional(Program(instructions=[ins]), st)
    want = {k: (buf.copy(), written.copy()) for k, (buf, written)
            in before.items()}
    for a, b in zip(src, dst):          # from the pre-instruction bytes
        want[ws, wm][0][b] = before[rs, rm][0][a]
        want[ws, wm][1][b] = True
    for k, (buf, written) in want.items():
        got_buf, got_written = st._pair(*k)
        assert np.array_equal(got_buf, buf), k
        assert np.array_equal(got_written, written), k


@given(_strided_op(), hst.integers(0, 2**32 - 1), hst.data())
@settings(max_examples=200, deadline=None)
def test_strided_read_of_unwritten_byte_raises(ins, seed, data):
    (rs, rm, src), _ = _footprints(ins)
    assume(src)
    st = _filled_state(seed)
    addr = data.draw(hst.sampled_from(src))
    st._pair(rs, rm)[1][addr] = False
    with pytest.raises(UseBeforeDefError,
                       match=rf"^at instruction 0 \({ins.op}/{ins.sub}\): "
                             rf".* of unwritten bytes, the first at {addr}$"):
        S.run_functional(Program(instructions=[ins]), st)


@given(_strided_op(), hst.integers(0, 2**32 - 1), hst.data())
@settings(max_examples=200, deadline=None)
def test_strided_extent_past_memory_raises(ins, seed, data):
    # shrink DDR, or move the operand's FM side, so its last byte falls
    # just past the end of the memory
    (rs, rm, src), (ws, wm, dst) = _footprints(ins)
    assume(src)
    side = data.draw(hst.sampled_from(("src", "dst")))
    space, addrs = (rs, src) if side == "src" else (ws, dst)
    addr = getattr(ins, side)
    if space == DDR:
        st = _filled_state(seed, ddr_bytes=max(addrs))
    else:
        st = _filled_state(seed)
        shift = SMALL.fm_bytes - max(addrs)
        ins = replace(ins, **{side: Addr(FM, addr.off + shift, addr.mem)})
    with pytest.raises(OutOfBoundsError,
                       match=rf"^at instruction 0 \({ins.op}/{ins.sub}\): "):
        S.run_functional(Program(instructions=[ins]), st)


def test_overlapping_move_copies_the_source_before_the_instruction():
    # 16 bytes move 2 bytes up within fm0, as four 4-byte blocks; a
    # block-by-block copy would read bytes the move already overwrote
    st = _filled_state(0)
    fm0 = st._pair(FM, 0)[0]
    old = fm0.copy()
    ins = Instruction(op=MISC, sub="move", src=Addr(FM, 0, 0),
                      dst=Addr(FM, 2, 0), rows=1, blocks=4, block_bytes=4,
                      src_row_stride=16, dst_row_stride=16, src_blk_stride=4,
                      dst_blk_stride=4)
    S.run_functional(Program(instructions=[ins]), st)
    assert np.array_equal(fm0[2:18], old[0:16])
    assert np.array_equal(fm0[:2], old[:2])
    assert np.array_equal(fm0[18:], old[18:])


@pytest.mark.parametrize("fields", [{"block_bytes": -4}, {"rows": -1},
                                    {"ddr_blk_stride": 2}],
                         ids=["negative-size", "negative-rows", "overlap"])
def test_hand_built_malformed_geometry_raises(fields):
    ins = replace(_transfer(LOAD, "act", Addr(DDR, 0), Addr(FM, 0, 0)),
                  blocks=2, block_bytes=4, ddr_blk_stride=4)
    ins = replace(ins, **fields)
    with pytest.raises(ShapeError, match=r"^at instruction 0 \(LOAD/act\): "):
        S.run_functional(Program(instructions=[ins]), _filled_state(0))


# ---------------------------------------------------------------------------
# conv and max-pool kernels against per-pixel loops
# ---------------------------------------------------------------------------

def pixel_conv_sum(x, w, stride, pads, out_hw):
    """int64 sum per output pixel; taps outside x read zero.  pads is
    (top, left)."""
    h, wd, _ = x.shape
    co, kh, kw, _ = w.shape
    x64, w64 = x.astype(np.int64), w.astype(np.int64)
    out = np.zeros(tuple(out_hw) + (co,), np.int64)
    for i in range(out_hw[0]):
        for j in range(out_hw[1]):
            for a in range(kh):
                for b in range(kw):
                    yy = i * stride[0] + a - pads[0]
                    xx = j * stride[1] + b - pads[1]
                    if 0 <= yy < h and 0 <= xx < wd:
                        out[i, j] += w64[:, a, b, :] @ x64[yy, xx]
    return out


def pixel_max(x, kernel, stride, pads, out_hw):
    """Per output pixel max; taps outside x read INT8_MIN."""
    h, wd, c = x.shape
    out = np.full(tuple(out_hw) + (c,), quant.INT8_MIN, np.int8)
    for i in range(out_hw[0]):
        for j in range(out_hw[1]):
            for a in range(kernel[0]):
                for b in range(kernel[1]):
                    yy = i * stride[0] + a - pads[0]
                    xx = j * stride[1] + b - pads[1]
                    if 0 <= yy < h and 0 <= xx < wd:
                        out[i, j] = np.maximum(out[i, j], x[yy, xx])
    return out


def _int8(rng, shape):
    return rng.integers(-128, 128, shape).astype(np.int8)


KERNEL_CASE = hst.fixed_dictionaries({
    "k": hst.tuples(hst.integers(1, 5), hst.integers(1, 5)),
    "s": hst.tuples(hst.integers(1, 3), hst.integers(1, 3)),
    "hw": hst.tuples(hst.integers(1, 7), hst.integers(1, 7)),
    "c": hst.tuples(hst.integers(1, 5), hst.integers(1, 4)),
    "seed": hst.integers(0, 2**32 - 1),
})


# float32 group sizes: 1 and 3 make small shapes flush groups and split
# taps (c_in > 3) or slice K; 1024 is the real bound
TERMS = hst.sampled_from([1, 3, S.F32_EXACT_TERMS])

# a bias at the int32 edge forces the int64 accumulator; random biases
# from the whole int32 range almost always leave room for int32
BIAS_EDGE = hst.sampled_from([None, 2**31 - 1, -(2**31 - 1)])


def _bias(rng, co, edge):
    bias = rng.integers(-2**31, 2**31, co).astype(np.int32)
    if edge is not None:
        bias[0] = edge
    return bias


@given(KERNEL_CASE, hst.tuples(*[hst.integers(0, 4)] * 4),
       hst.integers(0, 3), hst.integers(-14, 0), TERMS, BIAS_EDGE)
@settings(max_examples=150, deadline=None)
def test_conv_window_sum_matches_pixel_loop(case, pads, extra_w, shift,
                                            terms, edge):
    # asymmetric padding (top, bottom, left, right); extra_w output
    # columns past the right padding make _exec_conv pad further (pr_eff)
    (kh, kw), (sh, sw), (h, wd), (ci, co) = (case["k"], case["s"],
                                            case["hw"], case["c"])
    pt, pb, pl, pr = pads
    out_rows = (h + pt + pb - kh) // sh + 1
    out_w = max((wd + pl + pr - kw) // sw + 1, 0) + extra_w
    if out_rows < 1 or out_w < 1:
        return
    rng = np.random.default_rng(case["seed"])
    x, w = _int8(rng, (h, wd, ci)), _int8(rng, (co, kh, kw, ci))
    bias = _bias(rng, co, edge)
    expect = pixel_conv_sum(x, w, (sh, sw), (pt, pl), (out_rows, out_w))
    dtype = quant.accumulator_dtype(kh * kw * ci, bias, shift)
    assert edge is None or dtype == np.int64

    # the sums come back in the accumulator dtype the caller picks
    pr_eff = max(pr, (out_w - 1) * sw + kw - pl - wd)
    xp = np.pad(x.astype(np.float32), ((pt, pb), (pl, pr_eff), (0, 0)))
    with mock.patch.object(S, "F32_EXACT_TERMS", terms):
        acc = S._conv_window_sum(xp, w, sh, sw, out_rows, out_w, dtype)
    assert acc.dtype == dtype and np.array_equal(acc, expect)

    st = mkstate(MachineConfig())
    fm0, fm0_written = st._pair(FM, 0)
    fm0[:x.size] = x.reshape(-1).view(np.uint8)
    fm0_written[:x.size] = True
    blob = w.tobytes() + bias.astype("<i4").tobytes()
    pm, pm_written = st._pair(PM, 0)
    pm[:len(blob)] = np.frombuffer(blob, np.uint8)
    pm_written[:len(blob)] = True
    ins = Instruction(op=CONV, sub="conv", src=Addr(FM, 0, 0),
                      dst=Addr(FM, 0, 1), wgt_off=0, wgt_bytes=len(blob),
                      in_rows=h, in_w=wd, c_in=ci, out_w=out_w, c_out=co,
                      kh=kh, kw=kw, sh=sh, sw=sw, pt=pt, pl=pl, pb=pb, pr=pr,
                      shift=shift)
    with mock.patch.object(S, "F32_EXACT_TERMS", terms):
        S.run_functional(Program(instructions=[ins]), st)
    n = out_rows * out_w * co
    got = st._pair(FM, 1)[0][:n].view(np.int8).reshape(out_rows, out_w, co)
    assert np.array_equal(got, quant.requantize(expect + bias, shift))


@given(KERNEL_CASE, hst.tuples(hst.integers(0, 4), hst.integers(0, 4)),
       hst.one_of(hst.none(), hst.integers(-14, 2)),
       hst.sampled_from([1, 300, S.REF_COLS_BYTES]), TERMS, BIAS_EDGE)
@settings(max_examples=150, deadline=None)
def test_ref_conv_matches_pixel_loop(case, pads, shift, cols_bytes, terms,
                                     edge):
    # a small column budget splits the output into blocks of one or a
    # few rows, with a short last block; a small group size slices K
    (kh, kw), (sh, sw), (h, wd), (ci, co) = (case["k"], case["s"],
                                            case["hw"], case["c"])
    out_hw = ((h + 2 * pads[0] - kh) // sh + 1,
              (wd + 2 * pads[1] - kw) // sw + 1)
    if min(out_hw) < 1:
        return
    rng = np.random.default_rng(case["seed"])
    x, w = _int8(rng, (h, wd, ci)), _int8(rng, (co, kh, kw, ci))
    bias = _bias(rng, co, edge)
    assert edge is None or shift is None or quant.accumulator_dtype(
        kh * kw * ci, bias, shift) == np.int64
    acc = pixel_conv_sum(x, w, (sh, sw), pads, out_hw) + bias
    expect = acc if shift is None else quant.requantize(acc, shift)
    with mock.patch.object(S, "REF_COLS_BYTES", cols_bytes), \
            mock.patch.object(S, "F32_EXACT_TERMS", terms):
        got = S._ref_conv(x, w, bias, (sh, sw), pads, shift)
    assert got.dtype == expect.dtype and np.array_equal(got, expect)


@given(KERNEL_CASE, hst.tuples(hst.integers(0, 2), hst.integers(0, 2)),
       hst.integers(-2, 2))
@settings(max_examples=150, deadline=None)
def test_ref_maxpool_matches_pixel_max(case, pads, shift):
    (kh, kw), (sh, sw), (h, wd), (c, _) = (case["k"], case["s"],
                                          case["hw"], case["c"])
    out_hw = ((h + 2 * pads[0] - kh) // sh + 1,
              (wd + 2 * pads[1] - kw) // sw + 1)
    if min(out_hw) < 1:
        return
    x = _int8(np.random.default_rng(case["seed"]), (h, wd, c))
    expect = pixel_max(x, (kh, kw), (sh, sw), pads, out_hw)
    if shift:
        expect = quant.requantize(expect.astype(np.int64), shift)
    got = S._ref_maxpool(x, (kh, kw), (sh, sw), pads, shift)
    assert got.dtype == np.int8 and np.array_equal(got, expect)


def test_ref_conv_peak_memory_is_one_block():
    # the first layer of the scaled workload: 224x224x32, 3x3, 32 outputs.
    # Besides the column buffer, the int8 output and the padded input, a
    # block's GEMM result and epilogue temporaries are each pixels·co·4 B,
    # a ninth of its columns (K = 9·co), so together they stay below a
    # second REF_COLS_BYTES.  A full-map int64 accumulator (12.8 MB) does not
    rng = np.random.default_rng(5)
    x, w = _int8(rng, (224, 224, 32)), _int8(rng, (32, 3, 3, 32))
    bias = rng.integers(-2**20, 2**20, 32).astype(np.int32)
    bound = 2 * S.REF_COLS_BYTES + 224 * 224 * 32 + 226 * 226 * 32
    tracemalloc.start()
    try:
        out = S._ref_conv(x, w, bias, (1, 1), (1, 1), -9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (224, 224, 32) and out.dtype == np.int8
    assert peak < bound


@pytest.mark.parametrize("low", [-128, -100])
def test_conv_kernels_exact_at_largest_accumulator(low):
    # K = 3*3*512 = 4608 (the deep workload).  All -128 gives every product
    # +2**14, the largest accumulator any reachable conv produces; values
    # drawn from [-128, low] give sums past 2**24 with random low bits,
    # which one float32 sum over all of K would round.  Both kernels sum
    # in float32 over chunks of at most F32_EXACT_TERMS products and add
    # the chunks in float64
    rng = np.random.default_rng(-low)
    x = rng.integers(-128, low + 1, (3, 3, 512)).astype(np.int8)
    w = rng.integers(-128, low + 1, (2, 3, 3, 512)).astype(np.int8)
    expect = pixel_conv_sum(x, w, (1, 1), (1, 1), (3, 3))
    if low == -128:
        assert expect[1, 1, 0] == 4608 * 2**14
    assert expect[1, 1].min() > 2**25
    xp = np.pad(x.astype(np.float32), ((1, 1), (1, 1), (0, 0)))
    assert np.array_equal(S._conv_window_sum(xp, w, 1, 1, 3, 3, np.int32),
                          expect)
    got = S._ref_conv(x, w, np.zeros(2, np.int32), (1, 1), (1, 1), None)
    assert np.array_equal(got, expect)


def test_conv_kernels_reject_inexact_reduction():
    # c_in = 2**39 gives K * 2**14 = 2**53; zero-stride views, no memory
    w = np.broadcast_to(np.int8(0), (1, 1, 1, 2**39))
    x = np.broadcast_to(np.int8(0), (1, 1, 2**39))
    xf = np.broadcast_to(np.float32(0), (1, 1, 2**39))
    with pytest.raises(ShapeError, match="not exact"):
        S._conv_window_sum(xf, w, 1, 1, 1, 1, np.int64)
    with pytest.raises(ShapeError, match="not exact"):
        S._ref_conv(x, w, np.zeros(1, np.int32), (1, 1), (0, 0), None)
    # the bound holds for int8 operands only
    with pytest.raises(ShapeError, match="int8"):
        S._ref_conv(np.full((1, 1, 1), 300, np.int16), np.ones(
            (1, 1, 1, 1), np.int8), np.zeros(1, np.int32), (1, 1), (0, 0),
            None)
    # and the float32 sums hold for a float32 tile only: numpy would run a
    # float64 tile's GEMMs in float64
    with pytest.raises(ShapeError, match="float32"):
        S._conv_window_sum(np.zeros((1, 1, 1), np.float64),
                           np.zeros((1, 1, 1, 1), np.int8), 1, 1, 1, 1,
                           np.int64)


@pytest.mark.parametrize("kw, ci", [(1, 1025), (5, 205), (1025, 1)])
def test_conv_kernels_exact_past_float32_group(kw, ci):
    # K = 1025 products: 1024 of (-128)·(-128) = 2**14 and one of 1·1 sum
    # to 2**24 + 1, which no float32 holds, so a float32 sum of more than
    # F32_EXACT_TERMS products rounds; (1, 1025) splits one tap, (5, 205)
    # flushes after four taps, (1025, 1) after 1024 one-channel taps
    x = np.full((1, kw, ci), -128, np.int8)
    w = np.full((1, 1, kw, ci), -128, np.int8)
    x[0, -1, -1] = w[0, 0, -1, -1] = 1
    expect = np.full((1, 1, 1), 2**24 + 1, np.int64)
    xp = x.astype(np.float32)
    assert np.array_equal(S._conv_window_sum(xp, w, 1, 1, 1, 1, np.int32),
                          expect)
    got = S._ref_conv(x, w, np.zeros(1, np.int32), (1, 1), (0, 0), None)
    assert np.array_equal(got, expect)


# ---------------------------------------------------------------------------
# the two oracles share no conv code
# ---------------------------------------------------------------------------

CORPUS_BUILDS = [(n, CompileOptions()) for n in corpus.corpus_names()] + \
    [("deconv", CompileOptions(deconv_mode="upsample"))]


def _refuse(*args, **kwargs):
    raise RuntimeError("called a kernel of the other oracle")


def _corpus_runs():
    """(folded graph, program, inputs) per corpus build."""
    rng = np.random.default_rng(11)
    for name, options in CORPUS_BUILDS:
        g = corpus.corpus_graph(name)
        folded = G.fold_constants_and_quantizers(g)
        art = compile_graph(g, MachineConfig(), options)
        yield folded, art.program, {
            n: _int8(rng, folded.tensors[n].shape) for n in folded.inputs}


def test_reference_runs_without_simulator_conv(monkeypatch):
    for folded, prog, inputs in _corpus_runs():
        got = S.run_program(prog, MachineConfig(), inputs)
        with monkeypatch.context() as m:
            m.setattr(S, "_conv_window_sum", _refuse)
            ref = S.reference_execute(folded, inputs)
        assert all(np.array_equal(got[k], ref[k]) for k in ref)


def test_simulator_runs_without_reference_kernels(monkeypatch):
    for folded, prog, inputs in _corpus_runs():
        ref = S.reference_execute(folded, inputs)
        with monkeypatch.context() as m:
            m.setattr(S, "_ref_conv", _refuse)
            m.setattr(S, "_ref_maxpool", _refuse)
            got = S.run_program(prog, MachineConfig(), inputs)
        assert all(np.array_equal(got[k], ref[k]) for k in ref)


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------

def test_timing_single_instruction():
    cfg = MachineConfig(ddr_bytes_per_cycle=16, issue_overhead=0)
    ins = Instruction(op=LOAD, sub="act", src=Addr(DDR, 0),
                      dst=Addr(FM, 0, 0), rows=1, blocks=1, block_bytes=256,
                      ddr_row_stride=256, ddr_blk_stride=0)
    tr = S.run_timing(Program(instructions=[ins]), cfg)
    assert tr.events[0].start == 0
    assert tr.makespan == 16


def test_timing_load_then_dependent_conv():
    cfg = MachineConfig(issue_overhead=0)
    ld = Instruction(op=LOAD, sub="act", src=Addr(DDR, 0),
                     dst=Addr(FM, 0, 0), rows=1, blocks=1, block_bytes=256,
                     ddr_row_stride=256, ddr_blk_stride=0,
                     dpby=frozenset({CONV}))
    cv = Instruction(op=CONV, sub="conv", src=Addr(FM, 0, 0),
                     dst=Addr(FM, 0, 1), wgt_off=0, wgt_bytes=256 + 4,
                     in_rows=1, in_w=1, c_in=256, out_w=1, c_out=1,
                     kh=1, kw=1, sh=1, sw=1, pt=0, pl=0, pb=0, pr=0,
                     shift=0, dpon=frozenset({LOAD}))
    tr = S.run_timing(Program(instructions=[ld, cv]), cfg)
    load_ev = [e for e in tr.events if e.queue == LOAD][0]
    conv_ev = [e for e in tr.events if e.queue == CONV][0]
    assert conv_ev.start == load_ev.end


def test_timing_queue_events_nonoverlapping_in_order():
    cfg = MachineConfig()
    instrs = []
    for i in range(5):
        instrs.append(Instruction(op=LOAD, sub="act", src=Addr(DDR, i * 64),
                                  dst=Addr(FM, i * 64, 0), rows=1, blocks=1,
                                  block_bytes=64, ddr_row_stride=64,
                                  ddr_blk_stride=0))
    tr = S.run_timing(Program(instructions=instrs), cfg)
    evs = [e for e in tr.events if e.queue == LOAD]
    for a, b in zip(evs, evs[1:]):
        assert a.end <= b.start
        assert a.index < b.index


def test_timing_determinism():
    cfg = MachineConfig()
    instrs = [Instruction(op=MISC, sub="noop") for _ in range(4)]
    t1 = S.run_timing(Program(instructions=instrs), cfg)
    t2 = S.run_timing(Program(instructions=instrs), cfg)
    assert t1.to_dict() == t2.to_dict()


@pytest.mark.parametrize("name", ["conv_pool", "resnet_cell"])
def test_noop_lines_change_no_output(name):
    # a no-op without DPON or DPBY after every fifth instruction, on each
    # queue in turn: the program computes the same outputs, and it times
    # without a deadlock, no sooner, and hazard-free
    cfg = MachineConfig()
    art = compile_graph(corpus.corpus_graph(name), cfg)
    lines, n = [], 0
    for line in art.assembly.splitlines():
        lines.append(line)
        if not line.startswith("#"):
            if n % 5 == 0:
                lines.append(f"{OP_TYPES[n // 5 % 4]} 0b0000 0b0000 noop")
            n += 1
    prog = parse_assembly("\n".join(lines) + "\n")
    prog.param_image = art.param_image
    assert sum(ins.is_noop for ins in prog.instructions) == -(-n // 5)
    rng = np.random.default_rng(3)
    inputs = {t: rng.integers(-128, 128, prog.tensors[t]["shape"])
              .astype(np.int8) for t in prog.input_names}
    got = S.run_program(prog, cfg, inputs)
    want = S.run_program(art.program, cfg, inputs)
    assert got.keys() == want.keys()
    assert all(np.array_equal(got[t], want[t]) for t in want)
    trace = S.run_timing(prog, cfg)
    assert trace.makespan >= S.run_timing(art.program, cfg).makespan
    assert S.check_hazards(prog, trace) == []


# sha256 of json.dumps(run_timing(program).to_dict()) per corpus graph and
# pipeline setting, taken before the timing simulator was rewritten: the
# trace, event order included, must not move
TRACE_DIGESTS = {
    ("conv_pool", True): "1bd3cd5ec3fe36540ddfaa58cd3461e3e7abcb5af3c11ced4441934a441fe73c",
    ("conv_pool", False): "5ca425a0ec5899a9ff97ddf3fc1cc0b7b4c0ae188b6f220ae026eed01486993a",
    ("deconv", True): "35d62736b150b8134cc6fe8c61c558cd62e7bf8b6e60bf817c3efd910f4ca525",
    ("deconv", False): "0d74c45eb15cba711f1d2626578666626c871db0a835a823a68b62fefce13ff6",
    ("inception_cell", True): "42600a69d0b13eaa29b8e895bf5d39fcf1fa47c9fda3aa6bc0b23f9a1a8e2368",
    ("inception_cell", False): "33293df26f12fb07065d7483cf8b7b6f9f4abfb8453d75b71c09497798897c65",
    ("resnet_cell", True): "db4911134976cfaf7cb413cc31781d3cdf61096f590cf17c6ab07ed7a2aec744",
    ("resnet_cell", False): "efb0a899d176a9872e5e5249511fdcbe309f33be134f833f9b12f1a69a79190f",
    ("toy_conv", True): "ac115f0a72a06e21ba03862eade07faf00c385e534e3c6d31c90071f4f0f5439",
    ("toy_conv", False): "ac115f0a72a06e21ba03862eade07faf00c385e534e3c6d31c90071f4f0f5439",
    ("vgg_prefix", True): "4f2ec8fca9ec47a4ab2ea985468c7a71d290c5ef5a5cd3d50c81e3de05d83112",
    ("vgg_prefix", False): "a294fda52fab3e987e99db57b1b9c07e4c5bd8a3abba245960333cbacc8a4950",
    ("weight_tiled", True): "e5d80cae19883649d7376c513e08102531e81c13e0a6e8207f6d2a250d90c43f",
    ("weight_tiled", False): "e5f14eadb8a9e16cdaa88222f64f37cff55d0f67e06a8b4dea1e7fbcce335e4f",
}


def _corpus_program(name, pipeline):
    return compile_graph(corpus.corpus_graph(name), MachineConfig(),
                         CompileOptions(pipeline=pipeline)).program


@pytest.mark.parametrize("name,pipeline", sorted(TRACE_DIGESTS))
def test_timing_trace_digest_pinned(name, pipeline):
    trace = S.run_timing(_corpus_program(name, pipeline), MachineConfig())
    got = hashlib.sha256(json.dumps(trace.to_dict()).encode()).hexdigest()
    assert got == TRACE_DIGESTS[name, pipeline]


def _scanned_pairings(instructions):
    """token_pairings written as one scan of the program per channel."""
    out = {}
    for s in (LOAD, SAVE, CONV, MISC):
        for u in (LOAD, SAVE, CONV, MISC):
            if s == u:
                continue
            producers = [i for i, ins in enumerate(instructions)
                         if ins.op == s and u in ins.dpby]
            consumers = [i for i, ins in enumerate(instructions)
                         if ins.op == u and s in ins.dpon]
            if consumers:
                out[(s, u)] = [(c, producers[n] if n < len(producers)
                                else None) for n, c in enumerate(consumers)]
    return out


@pytest.mark.parametrize("name", corpus.corpus_names())
def test_token_pairings_match_channel_scan_on_corpus(name):
    for pipeline in (True, False):
        instrs = _corpus_program(name, pipeline).instructions
        got, want = S.token_pairings(instrs), _scanned_pairings(instrs)
        assert got == want and list(got) == list(want)


_MASKED_NOOPS = hst.lists(hst.tuples(
    hst.sampled_from((LOAD, SAVE, CONV, MISC)),
    hst.frozensets(hst.sampled_from((LOAD, SAVE, CONV, MISC))),
    hst.frozensets(hst.sampled_from((LOAD, SAVE, CONV, MISC)))), max_size=20)


@given(_MASKED_NOOPS)
@settings(max_examples=200, deadline=None)
def test_token_pairings_match_channel_scan_on_random_masks(spec):
    instrs = [Instruction(op=op, sub="noop", dpon=on - {op}, dpby=by - {op})
              for op, on, by in spec]
    got, want = S.token_pairings(instrs), _scanned_pairings(instrs)
    assert got == want and list(got) == list(want)


def test_timing_consumer_before_producer_in_text():
    # the CONV comes first in the program text but waits on the LOAD after
    # it; the queues are independent, so the program still simulates
    cfg = MachineConfig(issue_overhead=0)
    cv = Instruction(op=CONV, sub="conv", src=Addr(FM, 0, 0),
                     dst=Addr(FM, 0, 1), wgt_off=0, wgt_bytes=256 + 4,
                     in_rows=1, in_w=1, c_in=256, out_w=1, c_out=1,
                     kh=1, kw=1, sh=1, sw=1, pt=0, pl=0, pb=0, pr=0,
                     shift=0, dpon=frozenset({LOAD}))
    ld = Instruction(op=LOAD, sub="act", src=Addr(DDR, 0),
                     dst=Addr(FM, 0, 0), rows=1, blocks=1, block_bytes=256,
                     ddr_row_stride=256, ddr_blk_stride=0,
                     dpby=frozenset({CONV}))
    tr = S.run_timing(Program(instructions=[cv, ld]), cfg)
    assert [e.index for e in tr.events] == [0, 1]
    assert tr.events[1].start == 0 and tr.events[1].duration == 16
    assert tr.events[0].start == 16 and tr.makespan == 17


def _pool_doc(out_exp):
    """A standalone 3x2/s2 max pool with padding (1, 0) of a 9x10x8 input
    at exponent -2, its output at out_exp."""
    return graph_doc(
        [{"name": "x", "shape": [9, 10, 8], "quant": q(2.0 ** -2)},
         {"name": "y", "shape": [5, 5, 8], "quant": q(2.0 ** out_exp)}],
        [{"id": "in", "op": "input", "inputs": [], "output": "x"},
         {"id": "pool", "op": "maxpool", "inputs": ["x"], "output": "y",
          "attrs": {"kernel": [3, 2], "stride": [2, 2],
                    "padding": [1, 0]}}],
        ["x"], ["y"])


def _conv_pool_doc(out_exp):
    """conv_pool, whose fused intermediate is at exponent 6, with its
    output at out_exp."""
    doc = corpus.corpus_doc("conv_pool")
    doc["tensors"][2]["quant"] = q(2.0 ** out_exp)
    return json.dumps(doc)


# case -> (graph document, the pool instructions' shift)
RESCALING_POOLS = {
    **{f"conv_pool-exp{e}": (_conv_pool_doc(e), 6 - e) for e in (3, 5, 7, 9)},
    **{f"pool-exp{e}": (_pool_doc(e), -2 - e) for e in (-4, -1, 0, 2)},
}


@pytest.mark.parametrize("pipelined", [True, False],
                         ids=["pipeline", "sequential"])
@pytest.mark.parametrize("case", sorted(RESCALING_POOLS))
def test_rescaling_max_pool_bit_exact_and_hazard_free(case, pipelined):
    # max pools whose output scale differs from their input's requantize
    # on the machine: right shifts round, left shifts saturate
    doc, shift = RESCALING_POOLS[case]
    g, cfg = G.parse_graph(doc), MachineConfig()
    art = compile_graph(g, cfg, CompileOptions(pipeline=pipelined))
    assert {ins.shift for ins in art.program.instructions
            if ins.sub == "maxpool"} == {shift}
    folded = G.fold_constants_and_quantizers(g)
    for seed in range(3):
        x = np.random.default_rng(seed).integers(
            -128, 128, folded.tensors["x"].shape).astype(np.int8)
        got = S.run_program(art.program, cfg, {"x": x})["y"]
        assert np.array_equal(got, S.reference_execute(folded, {"x": x})["y"])
    trace = S.run_timing(art.program, cfg)
    assert S.check_hazards(art.program, trace,
                           allocs=art.memmap["fm_allocs"], cfg=cfg) == []


# ---------------------------------------------------------------------------
# hazards and timeline
# ---------------------------------------------------------------------------

def test_hazard_clean_dependent_pair():
    cfg = MachineConfig()
    ld = Instruction(op=LOAD, sub="act", src=Addr(DDR, 0),
                     dst=Addr(FM, 0, 0), rows=1, blocks=1, block_bytes=64,
                     ddr_row_stride=64, ddr_blk_stride=0,
                     dpby=frozenset({SAVE}))
    sv = Instruction(op=SAVE, sub="act", src=Addr(FM, 0, 0),
                     dst=Addr(DDR, 1024), rows=1, blocks=1, block_bytes=64,
                     ddr_row_stride=64, ddr_blk_stride=0,
                     dpon=frozenset({LOAD}))
    prog = Program(instructions=[ld, sv])
    tr = S.run_timing(prog, cfg)
    assert S.check_hazards(prog, tr) == []


def test_hazard_dropped_dpon_detected():
    cfg = MachineConfig()
    ld = Instruction(op=LOAD, sub="act", src=Addr(DDR, 0),
                     dst=Addr(FM, 0, 0), rows=1, blocks=1, block_bytes=4096,
                     ddr_row_stride=4096, ddr_blk_stride=0)
    sv = Instruction(op=SAVE, sub="act", src=Addr(FM, 0, 0),
                     dst=Addr(DDR, 8192), rows=1, blocks=1, block_bytes=64,
                     ddr_row_stride=64, ddr_blk_stride=0)
    prog = Program(instructions=[ld, sv])
    tr = S.run_timing(prog, cfg)   # save starts while the load still runs
    report = S.check_hazards(prog, tr)
    assert any(kind == "raw-hazard" for kind, *_ in report)


def test_hazard_overlapping_allocations_detected():
    cfg = MachineConfig()
    ld = Instruction(op=LOAD, sub="act", src=Addr(DDR, 0),
                     dst=Addr(FM, 0, 0), rows=1, blocks=1, block_bytes=64,
                     ddr_row_stride=64, ddr_blk_stride=0,
                     dpby=frozenset({SAVE}))
    sv = Instruction(op=SAVE, sub="act", src=Addr(FM, 0, 0),
                     dst=Addr(DDR, 1024), rows=1, blocks=1, block_bytes=64,
                     ddr_row_stride=64, ddr_blk_stride=0,
                     dpon=frozenset({LOAD}))
    prog = Program(instructions=[ld, sv])
    tr = S.run_timing(prog, cfg)
    allocs = [
        {"key": "a", "mem": 0, "start": 0, "length": 64, "first": 0,
         "last": 1},
        {"key": "b", "mem": 0, "start": 32, "length": 64, "first": 0,
         "last": 1},
    ]
    report = S.check_hazards(prog, tr, allocs=allocs, cfg=cfg)
    assert any(kind == "alloc-overlap" for kind, *_ in report)


def _pairwise_alloc_overlaps(allocs):
    """Every same-memory pair sharing a byte and an instruction, in
    (i, j) order."""
    out = []
    for i, a in enumerate(allocs):
        for b in allocs[i + 1:]:
            if a["mem"] == b["mem"] \
                    and max(a["first"], b["first"]) \
                    <= min(a["last"], b["last"]) \
                    and max(a["start"], b["start"]) \
                    < min(a["start"] + a["length"], b["start"] + b["length"]):
                out.append((a["key"], b["key"]))
    return out


@given(hst.lists(hst.tuples(hst.integers(0, 1), hst.integers(0, 255),
                            hst.integers(0, 256), hst.integers(0, 7),
                            hst.integers(0, 3)),
                 max_size=24))
@settings(max_examples=200, deadline=None)
def test_alloc_overlaps_match_pairwise_check(spec):
    # spans are inclusive instruction indices; the check needs no trace
    allocs = [{"key": f"a{i}", "mem": mem, "start": start,
               "length": length, "first": first, "last": first + extra}
              for i, (mem, start, length, first, extra) in enumerate(spec)]
    report = S.check_hazards(Program(instructions=[]),
                             S.Trace([], 0, {}, {}), allocs=allocs)
    got = [(a, b) for kind, a, b, _msg in report if kind == "alloc-overlap"]
    assert got == _pairwise_alloc_overlaps(allocs)


def _event(idx, ins, start, duration):
    return S.TraceEvent(idx, ins.op, ins.sub, ins.color(), start, start,
                        duration)


def _fm_transfer(op, fm_off, nbytes):
    fm, ddr = Addr(FM, fm_off, 0), Addr(DDR, 0)
    return Instruction(op=op, sub="act", src=(ddr, fm)[op == SAVE],
                       dst=(fm, ddr)[op == SAVE], rows=1, blocks=1,
                       block_bytes=nbytes, ddr_row_stride=nbytes,
                       ddr_blk_stride=0)


@pytest.mark.parametrize("wide_op,empty_op", [(LOAD, SAVE), (SAVE, LOAD)])
def test_hazard_zero_length_access_touches_nothing(wide_op, empty_op):
    # a LOAD writes (a SAVE reads) fm0[0, 64) over cycles 0-100; the other
    # op touches fm0[16, 16) from cycle 10: no byte, so no RAW (no WAR)
    wide, empty = _fm_transfer(wide_op, 0, 64), _fm_transfer(empty_op, 16, 0)
    prog = Program(instructions=[wide, empty])
    tr = S.Trace([_event(0, wide, 0, 100), _event(1, empty, 10, 1)], 100,
                 {}, {})
    assert S.check_hazards(prog, tr) == []


@pytest.mark.parametrize("nbytes,kinds", [(0, set()),
                                          (4, {"port-conflict"})])
@pytest.mark.parametrize("wide_op", [LOAD, SAVE])
def test_hazard_zero_length_access_holds_no_port(wide_op, nbytes, kinds):
    # a LOAD writes (a SAVE reads) fm0[0, 64) over cycles 0-100; from
    # cycle 10 a move writes (reads) nbytes of fm0 from byte 128: no byte
    # is shared, and only a move of some bytes needs the same port
    wide = _fm_transfer(wide_op, 0, 64)
    fm0, fm1 = Addr(FM, 128, 0), Addr(FM, 0, 1)
    src, dst = (fm1, fm0) if wide_op == LOAD else (fm0, fm1)
    move = Instruction(op=MISC, sub="move", src=src, dst=dst, rows=1,
                       blocks=1, block_bytes=nbytes, src_row_stride=nbytes,
                       dst_row_stride=nbytes, src_blk_stride=0,
                       dst_blk_stride=0)
    prog = Program(instructions=[wide, move])
    tr = S.Trace([_event(0, wide, 0, 100), _event(1, move, 10, 1)], 100,
                 {}, {})
    assert {kind for kind, *_ in S.check_hazards(prog, tr)} == kinds


@pytest.mark.parametrize("second", [CONV, MISC])
def test_hazard_write_after_unfinished_write_detected(second):
    # a LOAD fills fm0[0, 4096); a CONV or MISC on another queue writes
    # fm0[0, 64) with no DPON on the LOAD, so it starts while the LOAD
    # still runs.  Writes to one memory share its write port, so the
    # port check reports the pair too.
    cfg = MachineConfig()
    ld = _fm_transfer(LOAD, 0, 4096)
    if second == CONV:
        wr = Instruction(op=CONV, sub="conv", src=Addr(FM, 0, 1),
                         dst=Addr(FM, 0, 0), wgt_off=0, wgt_bytes=64 + 4,
                         in_rows=1, in_w=1, c_in=64, out_w=1, c_out=1,
                         kh=1, kw=1, sh=1, sw=1, pt=0, pl=0, pb=0, pr=0,
                         shift=0)
    else:
        wr = Instruction(op=MISC, sub="move", src=Addr(FM, 0, 1),
                         dst=Addr(FM, 0, 0), rows=1, blocks=1,
                         block_bytes=64, src_row_stride=64,
                         dst_row_stride=64, src_blk_stride=0,
                         dst_blk_stride=0)
    prog = Program(instructions=[ld, wr])
    tr = S.run_timing(prog, cfg)
    assert tr.events[1].start < tr.events[0].end
    report = S.check_hazards(prog, tr)
    assert ("waw-hazard", 1, 0) in {tuple(r[:3]) for r in report}
    assert {kind for kind, *_ in report} == {"waw-hazard", "port-conflict"}


@hst.composite
def _footprint_instr(draw):
    """A LOAD, SAVE, CONV or MISC move on DDR, PM and two FM memories.
    Footprints stay within the first 80 B of each memory, so they often
    overlap; some are strided, some are empty."""
    def ints(lo, hi):
        return draw(hst.integers(lo, hi))

    def fm():
        return Addr(FM, ints(0, 24), ints(0, 1))

    kind = draw(hst.sampled_from(("load", "save", "conv", "move")))
    if kind == "conv":
        rows, w = ints(0, 3), ints(1, 4)
        return Instruction(
            op=CONV, sub="conv", src=fm(), dst=fm(), in_rows=rows, in_w=w,
            c_in=ints(1, 4), out_w=w, c_out=ints(1, 4), kh=1, kw=1, sh=1,
            sw=1, pt=0, pl=0, pb=0, pr=0, shift=0, wgt_off=ints(0, 16),
            wgt_bytes=ints(0, 16))
    geometry = dict(rows=ints(1, 3), blocks=ints(1, 2),
                    block_bytes=ints(0, 8))
    if kind == "move":
        return Instruction(
            op=MISC, sub="move", src=fm(), dst=fm(),
            src_row_stride=ints(0, 20), dst_row_stride=ints(0, 20),
            src_blk_stride=ints(0, 10), dst_blk_stride=ints(0, 10),
            **geometry)
    ddr = Addr(DDR, ints(0, 32))
    geometry.update(ddr_row_stride=ints(0, 20), ddr_blk_stride=ints(0, 10))
    if kind == "load":
        return Instruction(op=LOAD, sub="act", src=ddr, dst=fm(), **geometry)
    return Instruction(op=SAVE, sub="act", src=fm(), dst=ddr, **geometry)


@given(hst.integers(0, 4), hst.integers(0, 3), hst.integers(0, 6),
       hst.integers(0, 30), hst.integers(0, 12), hst.integers(0, 40))
@settings(max_examples=300, deadline=None)
@example(0, 2, 3, 5, 3, 7)      # no row
@example(2, 0, 3, 5, 3, 7)      # no block
@example(1, 3, 4, 0, 6, 2)      # one row
@example(3, 1, 4, 4, 0, 9)      # contiguous rows: one range
@example(2, 3, 2, 9, 2, 0)      # adjacent blocks: still one range each
def test_exact_ranges_match_byte_enumeration(rows, blocks, size, row, blk,
                                             off):
    # the checker's exact ranges of a strided operand's footprint row hold
    # its bytes in transfer order, each once: one range for a single block
    # or for contiguous rows, else one range per block
    assume(not blocks_overlap(rows, blocks, size, row, blk))
    ins = Instruction(op=MISC, sub="move", src=Addr(FM, off, 0),
                      dst=Addr(FM, 0, 1), rows=rows, blocks=blocks,
                      block_bytes=size, src_row_stride=row,
                      src_blk_stride=blk, dst_row_stride=blocks * size,
                      dst_blk_stride=size)
    table, _mems = footprints([ins])
    ranges = S._exact_ranges(table[:1]).tolist()
    assert [b for _k, lo, hi, _i, _w in ranges for b in range(lo, hi)] \
        == _runs(off, rows, blocks, size, row, blk)
    assert all(r[0] == 0 and r[3:] == [0, 0] for r in ranges)
    if rows * blocks * size:
        one = blocks == 1 and (rows == 1 or row == size)
        assert len(ranges) == (1 if one else rows * blocks)


def _operand_ranges(ins, write):
    """The (space, mem, lo, hi) ranges of the operands `ins` writes, or
    reads, in `_FOOTPRINT_FIELDS` order, enumerated from
    `Instruction.operand`: a single block, or rows that follow each other
    with no gap, are one range, and any other operand one range per
    block, row-major."""
    out = []
    for f, w in _FOOTPRINT_FIELDS[ins.sub]:
        if w != write:
            continue
        space, mem, off, (rows, blocks, size), (row, blk) = ins.operand(f)
        if blocks == 1 and (rows == 1 or row == size):
            out.append((space, mem, off, off + rows * size))
        else:
            out += [(space, mem, (o := off + r * row + b * blk), o + size)
                    for r in range(rows) for b in range(blocks)]
    return out


def _per_byte_hazards(instrs, ev):
    """The RAW, WAR and WAW entries of `check_hazards`, in its order,
    found byte by byte from the last write range of each byte and the
    readers since that write.  A read gets one raw-hazard entry per run
    of adjacent bytes that one unfinished write range left, by writer and
    byte; a write gets one war-hazard entry per unfinished reader of its
    bytes, then one waw-hazard entry per unfinished writer, each by
    instruction."""
    writer, readers, report = {}, {}, []
    for idx, ins in enumerate(instrs):
        start = ev[idx].start
        for space, mem, lo, hi in _operand_ranges(ins, 0):
            runs = []     # [writer, lo, hi, write range]
            for b in range(lo, hi):
                w = writer.get((space, mem, b))
                if w is not None and ev[w[0]].end > start:
                    if runs and runs[-1][3] == w and runs[-1][2] == b:
                        runs[-1][2] = b + 1
                    else:
                        runs.append([w[0], b, b + 1, w])
                readers.setdefault((space, mem, b), set()).add(idx)
            report += [("raw-hazard", idx, widx,
                        f"instr {idx} reads {space}{mem}[{blo},{bhi}) "
                        f"before writer {widx} completes")
                       for widx, blo, bhi, _w in sorted(runs)]
        for k, (space, mem, lo, hi) in enumerate(_operand_ranges(ins, 1)):
            war, waw = set(), set()
            for b in range(lo, hi):
                war.update(r for r in readers.pop((space, mem, b), ())
                           if r != idx and ev[r].end > start)
                w = writer.get((space, mem, b))
                if w is not None and w[0] != idx and ev[w[0]].end > start:
                    waw.add(w[0])
                writer[(space, mem, b)] = (idx, k)
            report += [("war-hazard", idx, r,
                        f"instr {idx} overwrites {space}{mem} bytes "
                        f"instr {r} is still reading") for r in sorted(war)]
            report += [("waw-hazard", idx, w,
                        f"instr {idx} writes {space}{mem}[{lo},{hi}) "
                        f"before writer {w} completes") for w in sorted(waw)]
    return report


@given(hst.lists(hst.tuples(_footprint_instr(), hst.integers(1, 6),
                            hst.one_of(hst.just(0), hst.integers(0, 9))),
                 max_size=12))
@settings(max_examples=200, deadline=None)
def test_raw_war_tables_match_per_byte_oracle(spec):
    # each instruction starts up to `back` cycles before the previous one
    # ends, so some accesses overlap in time and some do not
    instrs, events, t = [], [], 0
    for idx, (ins, duration, back) in enumerate(spec):
        start = max(0, t - back)
        instrs.append(ins)
        events.append(_event(idx, ins, start, duration))
        t = start + duration
    report = S.check_hazards(Program(instructions=instrs),
                             S.Trace(events, t, {}, {}))
    hazards = [r for r in report
               if r[0] in ("raw-hazard", "war-hazard", "waw-hazard")]
    assert hazards == _per_byte_hazards(instrs,
                                        {e.index: e for e in events})


def _ddr_transfer(op, fm_mem, ddr_off, blocks, block_bytes):
    fm, ddr = Addr(FM, 0, fm_mem), Addr(DDR, ddr_off)
    return Instruction(op=op, sub="act", src=(ddr, fm)[op == SAVE],
                       dst=(fm, ddr)[op == SAVE], rows=1, blocks=blocks,
                       block_bytes=block_bytes,
                       ddr_row_stride=blocks * block_bytes,
                       ddr_blk_stride=block_bytes)


def _raw(idx, w, lo, hi):
    return ("raw-hazard", idx, w,
            f"instr {idx} reads ddr0[{lo},{hi}) before writer {w} completes")


@pytest.mark.parametrize("timed,want", [
    # a SAVE writes ddr0[64, 88) as three contiguous 8 B blocks, and a
    # LOAD reads all 24 B before it ends: one raw-hazard entry per block
    ([(_ddr_transfer(SAVE, 0, 64, 3, 8), 0, 100),
      (_ddr_transfer(LOAD, 1, 64, 1, 24), 10, 5)],
     [_raw(1, 0, 64, 72), _raw(1, 0, 72, 80), _raw(1, 0, 80, 88)]),
    # a second SAVE, finished before the LOAD, rewrites the middle 8 B of
    # a first one that has not: the first one's bytes are two entries
    ([(_ddr_transfer(SAVE, 0, 64, 1, 24), 0, 100),
      (_ddr_transfer(SAVE, 1, 72, 1, 8), 10, 5),
      (_ddr_transfer(LOAD, 2, 64, 1, 24), 20, 5)],
     [("waw-hazard", 1, 0, "instr 1 writes ddr0[72,80) before writer 0 "
       "completes"), _raw(2, 0, 64, 72), _raw(2, 0, 80, 88)]),
], ids=["blocks", "split"])
def test_raw_hazard_entry_per_run_of_one_write_range(timed, want):
    instrs = [ins for ins, _start, _duration in timed]
    events = [_event(idx, ins, start, duration)
              for idx, (ins, start, duration) in enumerate(timed)]
    assert _per_byte_hazards(instrs, {e.index: e for e in events}) == want
    assert S.check_hazards(Program(instructions=instrs),
                           S.Trace(events, 100, {}, {})) == want


def test_hazard_war_only_fault_detected():
    """Dropping the CONV -> LOAD back-edge of conv_pool's double-buffered
    input stream lets the LOAD into a slot overwrite the window that a
    CONV is still reading; the intact program is clean."""
    cfg = MachineConfig()
    prog = compile_graph(corpus.corpus_graph("conv_pool"), cfg).program
    assert S.check_hazards(prog, S.run_timing(prog, cfg)) == []
    load, conv = S.token_pairings(prog.instructions)[(CONV, LOAD)][0]
    instrs = list(prog.instructions)
    instrs[load] = replace(instrs[load], dpon=instrs[load].dpon - {CONV})
    instrs[conv] = replace(instrs[conv], dpby=instrs[conv].dpby - {LOAD})
    bad = replace(prog, instructions=instrs)
    report = S.check_hazards(bad, S.run_timing(bad, cfg))
    assert {kind for kind, *_ in report} == {"war-hazard"}
    assert ("war-hazard", load, conv) in {tuple(r[:3]) for r in report}


def test_hazard_checker_runs_without_dependency_derivation(monkeypatch):
    """A fresh simulator module, imported while memory.py and pipeline.py
    cannot be, finds every corpus program hazard-free."""
    cfg = MachineConfig()
    arts = [compile_graph(corpus.corpus_graph(name), cfg, options)
            for name, options in CORPUS_BUILDS]
    with monkeypatch.context() as m:
        m.setitem(sys.modules, "dpuc.memory", None)
        m.setitem(sys.modules, "dpuc.pipeline", None)
        m.delitem(sys.modules, "dpuc.simulator")
        m.setattr(dpuc, "simulator", S)   # the import below rebinds it
        fresh = importlib.import_module("dpuc.simulator")
        assert fresh is not S
        for art in arts:
            trace = fresh.run_timing(art.program, cfg)
            assert fresh.check_hazards(art.program, trace,
                                       allocs=art.memmap["fm_allocs"]) == []


def test_timeline_empty_trace():
    tr = S.Trace([], 0, {}, {})
    svg = emit_timeline(tr, "svg")
    assert svg.startswith("<svg") and "</svg>" in svg
    assert "<rect" not in svg


def test_timeline_json_roundtrip():
    cfg = MachineConfig()
    for prog in (Program(instructions=[Instruction(op=MISC, sub="noop")]),
                 compile_graph(corpus.corpus_graph("resnet_cell"),
                               cfg).program):
        tr = S.run_timing(prog, cfg)
        back = S.Trace.from_dict(json.loads(emit_timeline(tr, "json")))
        assert back.to_dict() == tr.to_dict()
        assert back.events == tr.events
        assert all(type(e) is S.TraceEvent for e in back.events)
