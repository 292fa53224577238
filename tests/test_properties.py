"""Whole-stack properties over randomized operator geometries.

Each case compiles a small graph, replays it functionally against the
reference executor, and hazard-checks the trace; shapes sweep the padding,
stride, and width-split corners that unit tests pin individually.
"""

import base64
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpuc import compiler as C
from dpuc import corpus
from dpuc import graph as G
from dpuc import lowering as L
from dpuc import simulator as S
from dpuc.compiler import CompileOptions, compile_graph
from dpuc.errors import CompileError
from dpuc.machine import CONV, FM, LOAD, MachineConfig, SAVE


def b64(a):
    return base64.b64encode(np.ascontiguousarray(a).tobytes()).decode()


def q(e):
    s = 2.0 ** e
    return {"lo": -128 * s, "hi": 127 * s, "step": s}


def conv_doc(h, w, ci, co, k, s, p, rng):
    oh = (h + 2 * p - k) // s + 1
    ow = (w + 2 * p - k) // s + 1
    wgt = rng.integers(-24, 24, (co, k, k, ci)).astype(np.int8)
    bias = rng.integers(-500, 500, co).astype(np.int32)
    return {
        "tensors": [{"name": "x", "shape": [h, w, ci], "quant": q(-2)},
                    {"name": "y", "shape": [oh, ow, co], "quant": q(4)}],
        "nodes": [
            {"id": "in", "op": "input", "inputs": [], "output": "x"},
            {"id": "c", "op": "conv", "inputs": ["x"], "output": "y",
             "attrs": {"kernel": [k, k], "stride": [s, s],
                       "padding": [p, p], "c_out": co},
             "params": {"weights": b64(wgt), "bias": b64(bias),
                        "shape": [co, k, k, ci], "quant": q(-3)}}],
        "inputs": ["x"], "outputs": ["y"],
    }


def deconv_doc(h, w, ci, co, k, p, rng):
    """A kernel-k deconv with padding p and upsample 2 of an h x w x ci
    map into co channels."""
    oh, ow = 2 * h - 1 + 2 * p - k + 1, 2 * w - 1 + 2 * p - k + 1
    wgt = rng.integers(-24, 24, (co, k, k, ci)).astype(np.int8)
    bias = rng.integers(-500, 500, co).astype(np.int32)
    return {
        "tensors": [{"name": "x", "shape": [h, w, ci], "quant": q(-2)},
                    {"name": "y", "shape": [oh, ow, co], "quant": q(4)}],
        "nodes": [
            {"id": "in", "op": "input", "inputs": [], "output": "x"},
            {"id": "d", "op": "deconv", "inputs": ["x"], "output": "y",
             "attrs": {"kernel": [k, k], "upsample": 2, "padding": p,
                       "c_out": co},
             "params": {"weights": b64(wgt), "bias": b64(bias),
                        "shape": [co, k, k, ci], "quant": q(-3)}}],
        "inputs": ["x"], "outputs": ["y"],
    }


def fm_port_users(art):
    """{(node, FM memory, "read" or "write"): the units using that port}
    over the FM operands that `Instruction.operand` names, nodes taken
    from `art.marks`."""
    users = {}
    for ins, mark in zip(art.program.instructions, art.marks, strict=True):
        for f in ("src", "src2", "dst"):
            if getattr(ins, f) is not None:
                space, mem, *_ = ins.operand(f)
                if space == FM:
                    port = (mark[0], mem, "write" if f == "dst" else "read")
                    users.setdefault(port, set()).add(ins.op)
    return users


def check_program(g, art, cfg):
    """The program of `art` matches the reference executor on the graph
    as written, `g`, for one random input, its trace is hazard-free, none
    of its LOADs and SAVEs moves zero bytes, and in each node every FM
    memory is read by at most one unit and written by at most one."""
    assert all(ins.transfer_bytes() for ins in art.program.instructions
               if ins.op in (LOAD, SAVE) and not ins.is_noop)
    shared = {port: units for port, units in fm_port_users(art).items()
              if len(units) > 1}
    assert not shared, shared
    rng = np.random.default_rng(99)
    inputs = {n: rng.integers(-128, 128, g.tensors[n].shape)
              .astype(np.int8) for n in g.inputs}
    got = S.run_program(art.program, cfg,
                        dict(zip(art.program.input_names, inputs.values())))
    ref = S.reference_execute(g, inputs)
    for name in ref:
        assert np.array_equal(got[name], ref[name]), name
    trace = S.run_timing(art.program, cfg)
    assert S.check_hazards(art.program, trace,
                           allocs=art.memmap["fm_allocs"], cfg=cfg) == []


def roundtrip(doc, cfg, options=None):
    g = G.parse_graph(json.dumps(doc))
    art = compile_graph(g, cfg, options)
    check_program(g, art, cfg)
    return art


@pytest.mark.parametrize("mode", ["series", "upsample"])
@pytest.mark.parametrize("cfg", [MachineConfig(),
                                 MachineConfig(fm_memories=2)],
                         ids=["default", "fm2"])
def test_corpus_programs_checked(cfg, mode):
    # every check of check_program, the one unit per FM port among them,
    # on three FM memories and on two, where fused nodes are unfused
    for name in corpus.corpus_names():
        g = corpus.corpus_graph(name)
        try:
            art = compile_graph(g, cfg, CompileOptions(deconv_mode=mode))
        except CompileError:
            # the deconv's shuffle or upsample needs a third FM memory
            assert name == "deconv" and cfg.fm_memories == 2
            continue
        check_program(g, art, cfg)


@st.composite
def conv_geometry(draw):
    k = draw(st.integers(1, 5))
    s = draw(st.integers(1, 3))
    p = draw(st.integers(0, k - 1))
    h = draw(st.integers(max(1, k - 2 * p), 20))
    w = draw(st.integers(max(1, k - 2 * p), 16))
    ci = draw(st.integers(1, 6))
    co = draw(st.integers(1, 6))
    if (h + 2 * p - k) // s + 1 < 1 or (w + 2 * p - k) // s + 1 < 1:
        return None
    return h, w, ci, co, k, s, p


@given(conv_geometry(), st.booleans())
@settings(max_examples=25, deadline=None)
def test_random_conv_bit_exact(geom, tight_gamma):
    if geom is None:
        return
    h, w, ci, co, k, s, p = geom
    cfg = MachineConfig(gamma=max(ci, co, 96) if tight_gamma else 8192)
    rng = np.random.default_rng(hash(geom) % (2**32))
    roundtrip(conv_doc(h, w, ci, co, k, s, p, rng), cfg)


@given(st.integers(2, 5), st.integers(1, 4), st.integers(2, 9),
       st.integers(2, 8), st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_random_deconv_both_paths_bit_exact(k, p, h, w, ci, co):
    p = min(p, k - 1)
    if p < 1:
        return
    uh, uw = (h - 1) * 2 + 1, (w - 1) * 2 + 1
    oh, ow = uh + 2 * p - k + 1, uw + 2 * p - k + 1
    if oh < 1 or ow < 1:
        return
    rng = np.random.default_rng(k * 1000 + p * 100 + h * 10 + w)
    doc = deconv_doc(h, w, ci, co, k, p, rng)
    cfg = MachineConfig()
    roundtrip(doc, cfg, CompileOptions(deconv_mode="series"))
    roundtrip(doc, cfg, CompileOptions(deconv_mode="upsample"))


@given(st.integers(3, 16), st.integers(3, 12), st.integers(1, 4),
       st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 2))
@settings(max_examples=20, deadline=None)
def test_random_conv_pool_chain_bit_exact(h, w, ci, ck, pk, ps, pp):
    co = ci + 1
    pp = min(pp, pk - 1) if pk > 1 else 0
    mh, mw = h - ck + 1, w - ck + 1
    if mh < 1 or mw < 1:
        return
    oh = (mh + 2 * pp - pk) // ps + 1
    ow = (mw + 2 * pp - pk) // ps + 1
    if oh < 1 or ow < 1:
        return
    rng = np.random.default_rng(h * 100 + w * 10 + ck)
    wgt = rng.integers(-24, 24, (co, ck, ck, ci)).astype(np.int8)
    bias = rng.integers(-500, 500, co).astype(np.int32)
    doc = {
        "tensors": [{"name": "x", "shape": [h, w, ci], "quant": q(-2)},
                    {"name": "t", "shape": [mh, mw, co], "quant": q(4)},
                    {"name": "y", "shape": [oh, ow, co], "quant": q(4)}],
        "nodes": [
            {"id": "in", "op": "input", "inputs": [], "output": "x"},
            {"id": "c", "op": "conv", "inputs": ["x"], "output": "t",
             "attrs": {"kernel": [ck, ck], "c_out": co},
             "params": {"weights": b64(wgt), "bias": b64(bias),
                        "shape": [co, ck, ck, ci], "quant": q(-3)}},
            {"id": "pl", "op": "maxpool", "inputs": ["t"], "output": "y",
             "attrs": {"kernel": [pk, pk], "stride": [ps, ps],
                       "padding": [pp, pp]}}],
        "inputs": ["x"], "outputs": ["y"],
    }
    roundtrip(doc, MachineConfig())


# ---------------------------------------------------------------------------
# structural invariants of lowered programs
# ---------------------------------------------------------------------------

def test_output_coverage_exactly_once(operand_blocks):
    # the saves of a compiled program write each output byte exactly once
    from dpuc import corpus
    cfg = MachineConfig()
    for name in corpus.corpus_names():
        art = compile_graph(corpus.corpus_graph(name), cfg)
        base, size = art.program.segments["outputs"]
        hits = np.zeros(size, np.int32)
        for ins in art.program.instructions:
            if ins.op != SAVE:
                continue
            for _sp, _m, lo, hi in operand_blocks(ins, "dst"):
                if base <= lo and hi <= base + size:
                    hits[lo - base:hi - base] += 1
        assert (hits == 1).all(), name


def touched_rows_oracle(out_lo, out_hi, k, s, p, size):
    rows = set()
    for o in range(out_lo, out_hi):
        for t in range(k):
            pos = o * s + t - p
            if 0 <= pos < size:
                rows.add(pos)
    return rows


@pytest.mark.parametrize("k,s,p", [(3, 1, 1), (5, 1, 0), (3, 2, 1),
                                   (1, 1, 0), (4, 2, 0)])
def test_leaf_receptive_field_soundness(k, s, p):
    # every input row a lowered conv tile loads is inside the true
    # receptive field of that tile's outputs, and the tiles' outputs
    # cover every output row exactly once (32x32x8 instance)
    h = w = 32
    ci, co = 8, 8
    oh = (h + 2 * p - k) // s + 1
    ow = (w + 2 * p - k) // s + 1
    if oh < 1:
        return
    rng = np.random.default_rng(0)
    doc = conv_doc(h, w, ci, co, k, s, p, rng)
    g = G.fold_constants_and_quantizers(G.parse_graph(json.dumps(doc)))
    cfg = MachineConfig()
    lowered = L.lower_node(g.nodes["c"],
                           L.LowerContext(tensors=g.tensors, h_cap=cfg.h_c),
                           cfg)
    covered = np.zeros(oh, np.int32)
    for tile in lowered.tiles:
        ins = [t for _q, grp in tile.stages for t in grp]
        loads = [t for t in ins if (t.op, t.sub) == (LOAD, "act")]
        convs = [t for t in ins if t.op == CONV]
        saves = [t for t in ins if t.op == SAVE]
        assert len(convs) == 1
        # one strip and one slab: rows are whole tensor rows in DDR
        assert all(t.src.name == "x" for t in loads)
        assert all(t.dst.name == "y" for t in saves)
        out_rows = {sv.dst.off // (ow * co) for sv in saves}
        # the tile's coordinates name the rows its saves write
        assert out_rows == set(range(*tile.rows))
        assert tile.cols == (0, ow) and tile.ch == (0, co)
        covered[sorted(out_rows)] += 1
        field = touched_rows_oracle(min(out_rows), max(out_rows) + 1,
                                    k, s, p, h)
        loaded = {ld.src.off // (w * ci) for ld in loads}
        # full-window tiles may include boundary rows the padded edge
        # outputs never touch, but never rows outside the window bound
        lo, hi, _, _ = L.receptive_range(min(out_rows), max(out_rows) + 1,
                                         k, s, p, h)
        assert field <= loaded
        assert loaded == set(range(lo, hi))
    assert (covered == 1).all()


def test_weight_tiled_fused_striped_combination():
    # four PM slabs, width strips, and pool fusion in one node
    ci, co, ck, cp, h, w = 16, 48, 3, 1, 20, 12
    mh, mw = h + 2 * cp - ck + 1, w + 2 * cp - ck + 1
    oh, ow = mh // 2, mw // 2
    pm = (co * (ck * ck * ci + 4)) // 2 + 64
    cfg = MachineConfig(pm_bytes=pm, gamma=max(ci * w, co * 4, 256))
    rng = np.random.default_rng(4)
    wgt = rng.integers(-24, 24, (co, ck, ck, ci)).astype(np.int8)
    bias = rng.integers(-500, 500, co).astype(np.int32)
    doc = {
        "tensors": [{"name": "x", "shape": [h, w, ci], "quant": q(-2)},
                    {"name": "t", "shape": [mh, mw, co], "quant": q(5)},
                    {"name": "y", "shape": [oh, ow, co], "quant": q(5)}],
        "nodes": [
            {"id": "in", "op": "input", "inputs": [], "output": "x"},
            {"id": "c", "op": "conv", "inputs": ["x"], "output": "t",
             "attrs": {"kernel": [ck, ck], "padding": [cp, cp],
                       "c_out": co},
             "params": {"weights": b64(wgt), "bias": b64(bias),
                        "shape": [co, ck, ck, ci], "quant": q(-3)}},
            {"id": "p", "op": "maxpool", "inputs": ["t"], "output": "y",
             "attrs": {"kernel": [2, 2], "stride": [2, 2]}}],
        "inputs": ["x"], "outputs": ["y"],
    }
    art = roundtrip(doc, cfg)
    shape = art.report["nodes"][0]
    assert shape["fused"] and shape["slabs"] >= 2 and shape["strips"] >= 2


def test_sequential_streams_hazard_free():
    # the --no-pipeline baseline is fully chained and must also be clean
    from dpuc import corpus
    cfg = MachineConfig()
    for name in corpus.corpus_names():
        art = compile_graph(corpus.corpus_graph(name), cfg,
                            CompileOptions(pipeline=False))
        trace = S.run_timing(art.program, cfg)
        assert S.check_hazards(art.program, trace,
                               allocs=art.memmap["fm_allocs"],
                               cfg=cfg) == [], name


# ---------------------------------------------------------------------------
# input windows resident across weight slabs
# ---------------------------------------------------------------------------

def conv_pool_doc(h, w, ci, co, rng):
    """3x3/p1 conv followed by a 2x2/s2 max pool (a fusable pair)."""
    wgt = rng.integers(-24, 24, (co, 3, 3, ci)).astype(np.int8)
    bias = rng.integers(-500, 500, co).astype(np.int32)
    return {
        "tensors": [{"name": "x", "shape": [h, w, ci], "quant": q(-2)},
                    {"name": "t", "shape": [h, w, co], "quant": q(5)},
                    {"name": "y", "shape": [h // 2, w // 2, co],
                     "quant": q(5)}],
        "nodes": [
            {"id": "in", "op": "input", "inputs": [], "output": "x"},
            {"id": "c", "op": "conv", "inputs": ["x"], "output": "t",
             "attrs": {"kernel": [3, 3], "padding": [1, 1], "c_out": co},
             "params": {"weights": b64(wgt), "bias": b64(bias),
                        "shape": [co, 3, 3, ci], "quant": q(-3)}},
            {"id": "p", "op": "maxpool", "inputs": ["t"], "output": "y",
             "attrs": {"kernel": [2, 2], "stride": [2, 2]}}],
        "inputs": ["x"], "outputs": ["y"],
    }


RESIDENT_CASES = {
    # name: (h, w, c_in, c_out, fused, machine overrides)
    "4x4x32-128": (4, 4, 32, 128, False, {"pm_bytes": 16384}),
    "6x6x32-96-pool": (6, 6, 32, 96, True, {"pm_bytes": 16384}),
    "4x40x16-64-strips": (4, 40, 16, 64, False,
                          {"pm_bytes": 8192, "gamma": 1024}),
    "4x40x16-64-strips-pool": (4, 40, 16, 64, True,
                               {"pm_bytes": 8192, "gamma": 1024}),
    # three height bands, five or three slabs
    "20x6x32-128-bands": (20, 6, 32, 128, False, {"pm_bytes": 16384}),
    "20x6x32-128-bands-pool": (20, 6, 32, 128, True, {"pm_bytes": 16384}),
    "20x40x16-64-bands-strips": (20, 40, 16, 64, False,
                                 {"pm_bytes": 8192, "gamma": 1024}),
}


def resident_case(case):
    """The graph document and machine of a RESIDENT_CASES entry."""
    h, w, ci, co, fused, over = RESIDENT_CASES[case]
    rng = np.random.default_rng(h * 1000 + w * 10 + co)
    doc = (conv_pool_doc(h, w, ci, co, rng) if fused
           else conv_doc(h, w, ci, co, 3, 1, 1, rng))
    return doc, MachineConfig(**over)


def band_window_rows(h, band_h, final_h, fused):
    """Input rows a 3x3/p1 conv reads for each height band of band_h
    final output rows; a fused 2x2/s2 pool doubles the conv rows."""
    f = 2 if fused else 1
    return [min(h, f * min(final_h, lo + band_h) + 1) - max(0, f * lo - 1)
            for lo in range(0, final_h, band_h)]


@pytest.mark.parametrize("pipelined", [True, False],
                         ids=["pipeline", "sequential"])
@pytest.mark.parametrize("case", sorted(RESIDENT_CASES))
def test_single_band_input_resident_across_slabs(case, pipelined):
    # one or several height bands and several PM slabs: each width strip
    # loads the input rows of each band once, in its first slab's tiles;
    # the later slabs' tiles carry no activation load and convolve those
    # same windows.  Outputs are compared with the reference, and the
    # hazard checker finds no planned window reused while still in use.
    h, w, ci, co, fused, _over = RESIDENT_CASES[case]
    doc, cfg = resident_case(case)
    options = CompileOptions(pipeline=pipelined)
    art = roundtrip(doc, cfg, options)
    node = art.report["nodes"][0]
    assert node["fused"] == fused
    assert node["slabs"] > 1 and node["resident"]
    assert (node["strips"] > 1) == ("strips" in case)
    rows = band_window_rows(h, node["band_h"], h // 2 if fused else h,
                            fused)
    assert (len(rows) > 1) == ("bands" in case)
    act_loads = sum(ins.op == LOAD and ins.sub == "act"
                    for ins in art.program.instructions)
    assert act_loads == sum(rows) * node["strips"]
    tree = L.tile_tree(art.tiles[node["id"]])
    for strip in tree["children"]:
        slabs = strip["children"]
        assert len(slabs) == node["slabs"]
        for si, slab in enumerate(slabs):
            leaves = [leaf["leaf"] for tile in slab["children"]
                      for leaf in tile["children"]]
            assert ("LOAD/act" in leaves) == (si == 0)
    again = compile_graph(G.parse_graph(json.dumps(doc)), cfg, options)
    assert again.assembly == art.assembly


@pytest.mark.parametrize("case", sorted(c for c in RESIDENT_CASES
                                         if "bands" in c))
def test_two_slot_plan_of_resident_windows_is_an_alloc_overlap(
        case, monkeypatch):
    # a planner that kept the two alternating slots for every stream
    # would overwrite a band's resident input window while later slabs
    # still read it: the outputs go wrong, and the hazard checker reports
    # the planned windows that share bytes while both are in use
    monkeypatch.setattr(C, "_window_slots", lambda live: {t: t % 2
                                                          for t in live})
    doc, cfg = resident_case(case)
    g = G.parse_graph(json.dumps(doc))
    art = compile_graph(g, cfg)
    inputs = {"x": np.random.default_rng(99).integers(
        -128, 128, g.tensors["x"].shape).astype(np.int8)}
    got = S.run_program(art.program, cfg, inputs)
    ref = S.reference_execute(g, inputs)
    assert not np.array_equal(got["y"], ref["y"])
    report = S.check_hazards(art.program, S.run_timing(art.program, cfg),
                             allocs=art.memmap["fm_allocs"], cfg=cfg)
    assert "alloc-overlap" in {kind for kind, *_ in report}


@pytest.mark.parametrize("pipelined", [True, False],
                         ids=["pipeline", "sequential"])
def test_weight_slab_still_in_its_pm_half_is_not_reloaded(pipelined):
    # two width strips, three slabs: strip 0 leaves slab 2 in PM half 0
    # and slab 1 in half 1, so strip 1 re-loads slab 0 and then slab 2
    # but finds slab 1 in place: 5 weight LOADs, not 6
    doc = conv_doc(4, 30, 16, 64, 3, 1, 1, np.random.default_rng(430))
    cfg = MachineConfig(pm_bytes=8192, gamma=1024)
    art = roundtrip(doc, cfg, CompileOptions(pipeline=pipelined))
    node = art.report["nodes"][0]
    assert (node["strips"], node["slabs"]) == (2, 3)
    loads = [ins for ins in art.program.instructions
             if ins.op == LOAD and ins.sub == "weight"]
    # slab s comes from its own block of the parameter image and goes to
    # PM half s % 2: the conv is the program's first node with weights,
    # so both halves are free when it starts
    blocks = sorted({ins.src.off for ins in loads})
    assert len(blocks) == 3
    order = [blocks.index(ins.src.off) for ins in loads]
    assert order == [0, 1, 2, 0, 2]
    assert [ins.dst.off for ins in loads] == [
        s % 2 * cfg.pm_bytes // 2 for s in order]
    assert node["weight_load_bytes"] == sum(ins.transfer_bytes()
                                            for ins in loads)


# ---------------------------------------------------------------------------
# weight slabs across nodes
# ---------------------------------------------------------------------------

def conv_chain_doc(h, w, chans, kernels, rng):
    """A chain of k x k / p (k // 2) convs conv1, conv2, ... through
    channel counts chans[0] -> chans[1] -> ... at H = h, W = w."""
    names = ["x"] + [f"t{i}" for i in range(1, len(chans) - 1)] + ["y"]
    nodes = [{"id": "in", "op": "input", "inputs": [], "output": "x"}]
    for i, k in enumerate(kernels, 1):
        ci, co = chans[i - 1], chans[i]
        wgt = rng.integers(-24, 24, (co, k, k, ci)).astype(np.int8)
        bias = rng.integers(-500, 500, co).astype(np.int32)
        nodes.append({
            "id": f"conv{i}", "op": "conv", "inputs": [names[i - 1]],
            "output": names[i],
            "attrs": {"kernel": [k, k], "padding": [k // 2, k // 2],
                      "c_out": co},
            "params": {"weights": b64(wgt), "bias": b64(bias),
                       "shape": [co, k, k, ci], "quant": q(-6)}})
    return {
        "tensors": [{"name": n, "shape": [h, w, c], "quant": q(-2 + 3 * i)}
                    for i, (n, c) in enumerate(zip(names, chans))],
        "nodes": nodes, "inputs": ["x"], "outputs": ["y"],
    }


SLAB_CHAIN_CASES = {
    # name: (conv1 c_out, conv2 c_out, conv1 slabs, PM halves conv1's
    # last CONV reads), with c_in 8 and a 4 KiB PM: conv2 streams 3 or 4
    # slabs
    "odd-slabs": (64, 8, 3, {0}),
    "even-slabs": (96, 8, 4, {1}),
    "one-slab-in-half": (16, 32, 1, {0}),
    "one-slab-over-half": (40, 16, 1, {0, 1}),
}


@pytest.mark.parametrize("pipelined", [True, False],
                         ids=["pipeline", "sequential"])
@pytest.mark.parametrize("case", sorted(SLAB_CHAIN_CASES))
def test_next_conv_streams_its_first_slab_into_the_free_pm_half(case,
                                                                pipelined):
    # conv2's slabs alternate from the PM half conv1's last CONV left
    # free, so its first slab loads while conv1 still convolves; a slab
    # whose half conv1 still reads waits behind conv2's first input rows
    # instead of holding them up in the in-order LOAD queue.  When conv1
    # leaves no half free, conv2's slab 0 keeps half 0.
    c1, c2, slabs1, busy = SLAB_CHAIN_CASES[case]
    doc = conv_chain_doc(12, 6, [8, c1, c2], [3, 3],
                         np.random.default_rng(c1))
    cfg = MachineConfig(pm_bytes=4096)
    options = CompileOptions(pipeline=pipelined)
    art = roundtrip(doc, cfg, options)
    nodes = {n["id"]: n for n in art.report["nodes"]}
    assert nodes["conv1"]["slabs"] == slabs1
    assert nodes["conv2"]["slabs"] > 2 and nodes["conv2"]["band_h"] < 12
    half = cfg.pm_bytes // 2
    marked = list(enumerate(zip(art.program.instructions, art.marks)))
    last_conv1 = max(i for i, (ins, m) in marked
                     if m[0] == "conv1" and ins.op == CONV)
    conv = art.program.instructions[last_conv1]
    assert set(range(conv.wgt_off // half,
                     (conv.wgt_off + conv.wgt_bytes - 1) // half + 1)) == busy
    wloads = [(i, ins) for i, (ins, m) in marked
              if m[0] == "conv2" and ins.op == LOAD and ins.sub == "weight"]
    first_rows = [i for i, (ins, m) in marked
                  if m[0] == "conv2" and m[3] == 0 and ins.op == LOAD
                  and ins.sub == "act"]
    h0 = min({0, 1} - busy, default=0)
    assert wloads[0][1].dst.off == h0 * half
    for i, ins in wloads[:2]:
        if ins.dst.off // half in busy:
            assert i > max(first_rows), (i, first_rows)
        else:
            assert i < min(first_rows), (i, first_rows)
    if pipelined and busy != {0, 1}:
        trace = S.run_timing(art.program, cfg)
        assert (trace.events[wloads[0][0]].start
                < trace.events[last_conv1].end)
    again = compile_graph(G.parse_graph(json.dumps(doc)), cfg, options)
    assert again.assembly == art.assembly
    assert again.param_image == art.param_image


@pytest.mark.parametrize("shape,makespan,instructions,ddr_bytes", [
    ((14, 128, 256), 179796, 287, 1073152),
    ((7, 256, 512), 231763, 518, 3630848),
])
def test_weight_streaming_conv_pair_makespan(shape, makespan, instructions,
                                             ddr_bytes):
    # two 3x3/p1 convs c_in -> c -> c at H = W = h streaming 5 to 37 PM
    # slabs, the shapes of the benchmark's `deep` graphs: conv2's first
    # slab loads into the PM half conv1's last CONV leaves free, so the
    # weight stream does not stall at the node boundary (188,794 and
    # 235,774 cycles when every conv restarted at half 0)
    h, c_in, c = shape
    doc = conv_chain_doc(h, h, [c_in, c, c], [3, 3],
                         np.random.default_rng(h))
    art = compile_graph(G.parse_graph(json.dumps(doc)), MachineConfig())
    assert art.report["estimated_makespan"] == makespan
    assert len(art.program.instructions) == instructions
    assert sum(ins.transfer_bytes() for ins in art.program.instructions
               if ins.op in (LOAD, SAVE)) == ddr_bytes


@st.composite
def slab_chain(draw):
    """2-3 convs of kernel 1 or 3 through 4-32 channels at a 1 KiB PM:
    each streams one slab, an even or an odd number of them."""
    n = draw(st.integers(2, 3))
    chans = draw(st.lists(st.integers(4, 32), min_size=n + 1,
                          max_size=n + 1))
    kernels = draw(st.lists(st.sampled_from((1, 3)), min_size=n,
                            max_size=n))
    return draw(st.integers(1, 10)), draw(st.integers(1, 6)), chans, kernels


@given(slab_chain())
@settings(max_examples=100, deadline=None)
def test_random_conv_chain_with_streamed_slabs_bit_exact(chain):
    # whatever PM halves one conv's slabs leave busy, the next conv's
    # slabs computed from them are bit-exact, hazard-free and
    # deterministic, with the pipeline on and off
    h, w, chans, kernels = chain
    doc = conv_chain_doc(h, w, chans, kernels,
                         np.random.default_rng(sum(chans) * h + w))
    cfg = MachineConfig(pm_bytes=1024)
    for pipelined in (True, False):
        options = CompileOptions(pipeline=pipelined)
        art = roundtrip(doc, cfg, options)
        again = compile_graph(G.parse_graph(json.dumps(doc)), cfg, options)
        assert again.assembly == art.assembly


# ---------------------------------------------------------------------------
# concat inputs the layout cannot alias
# ---------------------------------------------------------------------------

def conv1x1(nid, src, dst, c_in, c_out, rng):
    wgt = rng.integers(-24, 24, (c_out, 1, 1, c_in)).astype(np.int8)
    bias = rng.integers(-500, 500, c_out).astype(np.int32)
    return {"id": nid, "op": "conv", "inputs": [src], "output": dst,
            "attrs": {"kernel": [1, 1], "c_out": c_out},
            "params": {"weights": b64(wgt), "bias": b64(bias),
                       "shape": [c_out, 1, 1, c_in], "quant": q(-3)}}


def concat_doc(convs, concats, inputs):
    """8x8x8 graph: `convs` are 1x1 convs (id, src, dst), `concats` are
    (id, inputs, dst), and a 1x1 conv reads the last concat into y."""
    rng = np.random.default_rng(len(convs) * 10 + len(concats))
    chans = dict.fromkeys(inputs + [c[2] for c in convs], 8)
    for _nid, srcs, dst in concats:
        chans[dst] = sum(chans[t] for t in srcs)
    last = concats[-1][2]
    nodes = [{"id": f"in_{n}", "op": "input", "inputs": [], "output": n}
             for n in inputs]
    nodes += [conv1x1(nid, src, dst, 8, 8, rng) for nid, src, dst in convs]
    nodes += [{"id": nid, "op": "concat", "inputs": srcs, "output": dst}
              for nid, srcs, dst in concats]
    nodes.append(conv1x1("head", last, "y", chans[last], 8, rng))
    return {
        "tensors": [{"name": n, "shape": [8, 8, c], "quant": q(-2)}
                    for n, c in chans.items()]
                   + [{"name": "y", "shape": [8, 8, 8], "quant": q(4)}],
        "nodes": nodes, "inputs": inputs, "outputs": ["y"],
    }


CONCAT_CASES = {
    # a graph input has no saves to point into the concatenation
    "graph-input": concat_doc([("ca", "x", "a")],
                              [("cat", ["a", "r"], "cat")], ["x", "r"]),
    # cat1's parts save into cat1, so cat1 itself is copied into cat2
    "nested": concat_doc([("ca", "x", "a"), ("ca2", "x", "a2"),
                          ("ca3", "x", "a3")],
                         [("cat1", ["a", "a2"], "cat1"),
                          ("cat2", ["cat1", "a3"], "cat2")], ["x"]),
    "same-input-twice": concat_doc([("ca", "x", "a")],
                                   [("cat", ["a", "a"], "cat")], ["x"]),
}


@pytest.mark.parametrize("pipelined", [True, False],
                         ids=["pipeline", "sequential"])
@pytest.mark.parametrize("case", sorted(CONCAT_CASES))
def test_concat_copies_the_inputs_it_cannot_alias(case, pipelined):
    # before, a graph input or a concat output read by a concat was
    # aliased into its channel slice, which no instruction then wrote,
    # and the program read unwritten DDR
    doc, cfg = CONCAT_CASES[case], MachineConfig()
    options = CompileOptions(pipeline=pipelined)
    art = roundtrip(doc, cfg, options)
    assert not {"r", "cat1"} & set(art.memmap["aliases"])
    again = compile_graph(G.parse_graph(json.dumps(doc)), cfg, options)
    assert again.assembly == art.assembly


# ---------------------------------------------------------------------------
# random multi-node graphs
# ---------------------------------------------------------------------------

@st.composite
def random_dag(draw):
    """A graph document of 1-5 compute nodes over small maps: a graph input
    is at most 8x8x8, or the size of the tensor it joins.  Each node reads
    earlier tensors or new graph inputs: convs (1x1 or 3x3, stride 1-2,
    padding 0 to the kernel, so a one-row band may lie wholly in the
    padding) with inline parameters or explicit const and fix nodes, 2x2 or
    overlapping padded 3x3 max pools, eltwise adds, concats (of graph
    inputs and of concats too), upsamples, deconvs (kernel 1-4, upsample
    2, padding 0 to the kernel) and identities.  A graph input,
    a conv accumulator or the output of any other node may come through a
    fix node; every tensor nobody reads is an output."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    tensors, nodes, inputs = [], [], []
    avail = {}   # tensor -> (shape, exponent), the operands so far
    read = set()

    def tensor(name, shape, e, quantized=True):
        tensors.append({"name": name, "shape": list(shape)}
                       | ({"quant": q(e)} if quantized else {}))
        avail[name] = (tuple(shape), e)
        return name

    def result(node, shape, e):
        """Append compute `node`, perhaps writing an unquantized tensor,
        declared or not, that a fix node then quantizes."""
        nodes.append(node)
        out = node["output"]
        if not draw(st.booleans()):
            return tensor(out, shape, e)
        node["output"] = out + "_raw"
        if draw(st.booleans()):
            tensors.append({"name": out + "_raw", "shape": list(shape)})
        nodes.append({"id": node["id"] + "_fix", "op": "fix",
                      "inputs": [out + "_raw"], "output": out,
                      "attrs": q(e)})
        # the fold gives a fix's unquantized output the fix's quantizer
        return tensor(out, shape, e, quantized=draw(st.booleans()))

    def graph_input(shape):
        name = f"x{len(inputs)}"
        if draw(st.booleans()):
            tensors.append({"name": name + "_raw", "shape": list(shape)})
            nodes.append({"id": f"in{len(inputs)}", "op": "input",
                          "inputs": [], "output": name + "_raw"})
            nodes.append({"id": f"fix_{name}", "op": "fix",
                          "inputs": [name + "_raw"], "output": name,
                          "attrs": q(-2)})
            inputs.append(name + "_raw")
            return tensor(name, shape, -2, quantized=draw(st.booleans()))
        nodes.append({"id": f"in{len(inputs)}", "op": "input",
                      "inputs": [], "output": name})
        inputs.append(name)
        return tensor(name, shape, -2)

    def operand(shape=None, hw=None):
        """An earlier tensor of this shape (or these h, w), or a new graph
        input of it."""
        fits = [t for t, (sh, _e) in avail.items()
                if (shape is None or sh == shape)
                and (hw is None or sh[:2] == hw)]
        if fits and (len(inputs) >= 3 or draw(st.integers(0, 3))):
            name = fits[draw(st.integers(0, len(fits) - 1))]
        else:
            if shape is None:
                shape = hw + (draw(st.integers(1, 8)),) if hw else (
                    draw(st.integers(2, 8)), draw(st.integers(2, 8)),
                    draw(st.integers(1, 8)))
            name = graph_input(shape)
        read.add(name)
        return name

    for i in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("conv", "conv", "maxpool", "eltwise-add",
                                     "concat", "upsample", "deconv",
                                     "identity")))
        src = operand()
        (h, w, c), e = avail[src]
        out = f"t{i}"
        if kind == "conv":
            k = draw(st.sampled_from((1, 3)))
            s = draw(st.integers(1, 2))
            # a 1-pixel map needs the padding
            p = draw(st.integers(0 if min(h, w) >= k else k // 2, k))
            oh, ow = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
            co = draw(st.integers(1, 8))
            wgt = rng.integers(-24, 24, (co, k, k, c)).astype(np.int8)
            bias = rng.integers(-500, 500, co).astype(np.int32)
            attrs = {"kernel": [k, k], "stride": [s, s], "padding": [p, p],
                     "c_out": co}
            oe = e - 3 + draw(st.integers(6, 9))
            if draw(st.booleans()):
                nodes.append({"id": f"n{i}", "op": "conv", "inputs": [src],
                              "output": out, "attrs": attrs,
                              "params": {"weights": b64(wgt),
                                         "bias": b64(bias),
                                         "shape": [co, k, k, c],
                                         "quant": q(-3)}})
                tensor(out, (oh, ow, co), oe)
                continue
            nodes += [
                {"id": f"n{i}_w", "op": "const", "inputs": [],
                 "output": f"w{i}_raw",
                 "params": {"data": b64(wgt), "dtype": "int8",
                            "shape": [co, k, k, c]}},
                {"id": f"n{i}_fix_w", "op": "fix", "inputs": [f"w{i}_raw"],
                 "output": f"w{i}", "attrs": q(-3)},
                {"id": f"n{i}_b", "op": "const", "inputs": [],
                 "output": f"b{i}_raw",
                 "params": {"data": b64(bias), "dtype": "int32",
                            "shape": [co]}},
                {"id": f"n{i}_fix_b", "op": "fix", "inputs": [f"b{i}_raw"],
                 "output": f"b{i}", "attrs": q(e - 3)}]
            conv = {"id": f"n{i}", "op": "conv",
                    "inputs": [src, f"w{i}", f"b{i}"], "output": out,
                    "attrs": attrs}
            nodes.append(conv)
            if draw(st.booleans()):
                # the accumulator is quantized by its own fix node
                conv["output"] = out + "_acc"
                tensors.append({"name": out + "_acc",
                                "shape": [oh, ow, co]})
                nodes.append({"id": f"n{i}_fix", "op": "fix",
                              "inputs": [out + "_acc"], "output": out,
                              "attrs": q(oe)})
                tensor(out, (oh, ow, co), oe, quantized=draw(st.booleans()))
            else:
                tensor(out, (oh, ow, co), oe)
        elif kind == "maxpool":
            k, s, p = draw(st.sampled_from(((2, 2, 0), (3, 2, 1),
                                            (3, 1, 1))[min(h, w) < 2:]))
            oh, ow = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
            result({"id": f"n{i}", "op": "maxpool", "inputs": [src],
                    "output": out,
                    "attrs": {"kernel": [k, k], "stride": [s, s],
                              "padding": [p, p]}}, (oh, ow, c),
                   e + draw(st.integers(0, 1)))
        elif kind == "eltwise-add":
            other = operand(shape=(h, w, c))
            result({"id": f"n{i}", "op": "eltwise-add",
                    "inputs": [src, other], "output": out}, (h, w, c),
                   max(e, avail[other][1]) + draw(st.integers(0, 1)))
        elif kind == "concat":
            parts = [src] + [operand(hw=(h, w))
                             for _ in range(draw(st.integers(1, 2)))]
            result({"id": f"n{i}", "op": "concat", "inputs": parts,
                    "output": out},
                   (h, w, sum(avail[t][0][2] for t in parts)), e)
        elif kind == "deconv" and max(h, w) <= 8:
            k = draw(st.integers(1, 4))
            # the zero-inserted map, padded, must hold the kernel
            uh, uw = 2 * h - 1, 2 * w - 1
            p = draw(st.integers(max(0, -(-(k - min(uh, uw)) // 2)), k))
            co = draw(st.integers(1, 8))
            wgt = rng.integers(-24, 24, (co, k, k, c)).astype(np.int8)
            bias = rng.integers(-500, 500, co).astype(np.int32)
            result({"id": f"n{i}", "op": "deconv", "inputs": [src],
                    "output": out,
                    "attrs": {"kernel": [k, k], "upsample": 2, "padding": p,
                              "c_out": co},
                    "params": {"weights": b64(wgt), "bias": b64(bias),
                               "shape": [co, k, k, c], "quant": q(-3)}},
                   (uh + 2 * p - k + 1, uw + 2 * p - k + 1, co),
                   e - 3 + draw(st.integers(6, 9)))
        elif kind == "upsample" and max(h, w) <= 8:
            result({"id": f"n{i}", "op": "upsample", "inputs": [src],
                    "output": out, "attrs": {"factor": 2}},
                   (2 * h - 1, 2 * w - 1, c), e)
        else:
            result({"id": f"n{i}", "op": "identity", "inputs": [src],
                    "output": out}, (h, w, c), e)
    return {"tensors": tensors, "nodes": nodes, "inputs": inputs,
            "outputs": [t for t in avail if t not in read]}


# the fault classes the fuzzer has found, pinned whatever it draws:
# concat parts that cannot be aliased (a graph input, and a concat output
# read by another concat)
@example(concat_doc([("ca", "x", "a"), ("ca2", "x", "a2")],
                    [("cat1", ["a", "r"], "cat1"),
                     ("cat2", ["cat1", "a2"], "cat2")], ["x", "r"]), False)
# a kernel-1, padding-1 deconv whose first one-row band is all padding
@example(deconv_doc(3, 3, 2, 3, 1, 1, np.random.default_rng(1)), True)
# a 3x3 conv padded by its whole kernel, one-row bands in the padding
@example(conv_doc(4, 4, 2, 3, 3, 1, 3, np.random.default_rng(2)), True)
@given(random_dag(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_random_dag_bit_exact(doc, one_row_bands):
    # every random graph compiles, under both pipeline settings and, when
    # it has a deconv, both deconv modes, into a program that matches the
    # reference on the graph as written and is hazard-free; none of these
    # small graphs is expected to fail to compile, so a compile error
    # fails the test too.  One-row bands (h_c = 1) put whole bands of a
    # conv or deconv padded by its kernel in the padding.
    g = G.parse_graph(json.dumps(doc))
    cfg = MachineConfig(h_c=1, h_p=1) if one_row_bands else MachineConfig()
    modes = ("series", "upsample") if any(
        n["op"] == "deconv" for n in doc["nodes"]) else ("series",)
    for pipelined in (True, False):
        for mode in modes:
            art = compile_graph(g, cfg, CompileOptions(
                pipeline=pipelined, deconv_mode=mode))
            check_program(g, art, cfg)
