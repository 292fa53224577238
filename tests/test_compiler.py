import base64
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings

from dpuc import cli
from dpuc import compiler as C
from dpuc import corpus
from dpuc import graph as G
from dpuc import lowering as L
from dpuc import machine as M
from dpuc import simulator as S
from dpuc.compiler import CompileOptions, compile_graph
from dpuc.errors import CompileError
from dpuc.machine import Addr, CONV, LOAD, MISC, MachineConfig, SAVE, \
    emit_assembly, parse_assembly
from test_properties import random_dag


CFG = MachineConfig()


def compiled(name, **opts):
    g = corpus.corpus_graph(name)
    return compile_graph(g, CFG, CompileOptions(**opts)) if opts else \
        compile_graph(g, CFG)


def rand_inputs(folded, seed=0):
    rng = np.random.default_rng(seed)
    return {n: rng.integers(-128, 128, folded.tensors[n].shape)
            .astype(np.int8) for n in folded.inputs}


@pytest.mark.parametrize("name", corpus.corpus_names())
def test_functional_equivalence_per_graph(name):
    g = corpus.corpus_graph(name)
    art = compile_graph(g, CFG)
    folded = G.fold_constants_and_quantizers(g)
    for seed in range(3):
        inputs = rand_inputs(folded, seed)
        got = S.run_program(art.program, CFG, inputs)
        ref = S.reference_execute(folded, inputs)
        for k in ref:
            assert np.array_equal(got[k], ref[k]), (name, seed, k)


@pytest.mark.parametrize("name", corpus.corpus_names())
def test_assembly_roundtrip_per_graph(name):
    art = compiled(name)
    back = parse_assembly(art.assembly)
    assert back == art.program
    assert emit_assembly(back) == art.assembly


def _conv(rng, nid, src, dst, c_in, c_out, k=3, **attrs):
    """A k x k conv node, padded by 1 unless `attrs` say otherwise."""
    w = rng.integers(-24, 24, (c_out, k, k, c_in)).astype(np.int8)
    b = rng.integers(-1000, 1000, c_out).astype(np.int32)
    return {"id": nid, "op": "conv", "inputs": [src], "output": dst,
            "attrs": {"kernel": [k, k], "padding": [1, 1], "c_out": c_out,
                      **attrs},
            "params": {"weights": base64.b64encode(w.tobytes()).decode(),
                       "bias": base64.b64encode(b.tobytes()).decode(),
                       "shape": [c_out, k, k, c_in],
                       "quant": {"lo": -8.0, "hi": 7.9375,
                                 "step": 0.0625}}}


def _chain_graph(shapes, layers):
    """shapes: tensor name -> (h, w, c), "x" the input and the last
    layer's output the graph output; every tensor steps by 1/16."""
    return G.parse_graph(json.dumps({
        "tensors": [{"name": n, "shape": list(shape),
                     "quant": {"lo": -8.0, "hi": 7.9375, "step": 0.0625}}
                    for n, shape in shapes.items()],
        "nodes": [{"id": "in", "op": "input", "inputs": [], "output": "x"}]
                 + layers,
        "inputs": ["x"], "outputs": [layers[-1]["output"]]}))


def _scaled_shaped(h, c=32):
    # conv -> conv -> 2x2/s2 max pool -> conv at H = W = h
    rng = np.random.default_rng(h)
    return _chain_graph(
        {"x": (h, h, c), "a": (h, h, c), "b": (h, h, c),
         "p": (h // 2, h // 2, c), "y": (h // 2, h // 2, c)},
        [_conv(rng, "conv1", "x", "a", c, c),
         _conv(rng, "conv2", "a", "b", c, c),
         {"id": "pool", "op": "maxpool", "inputs": ["b"], "output": "p",
          "attrs": {"kernel": [2, 2], "stride": [2, 2]}},
         _conv(rng, "conv3", "p", "y", c, c)])


def _deep_shaped(h, c_in, c):
    # two weight-streaming 3x3 convs c_in -> c -> c at H = W = h
    rng = np.random.default_rng(c)
    return _chain_graph(
        {"x": (h, h, c_in), "a": (h, h, c), "y": (h, h, c)},
        [_conv(rng, "conv1", "x", "a", c_in, c),
         _conv(rng, "conv2", "a", "y", c, c)])


ROUNDTRIP_GRAPHS = {
    **{name: lambda name=name: corpus.corpus_graph(name)
       for name in corpus.corpus_names()},
    "scaled_h56": lambda: _scaled_shaped(56),
    "scaled_h112": lambda: _scaled_shaped(112),
    "scaled_h224": lambda: _scaled_shaped(224),
    "deep_14x14_c256": lambda: _deep_shaped(14, 128, 256),
    "deep_7x7_c512": lambda: _deep_shaped(7, 256, 512),
}


@pytest.mark.parametrize("pipelined", [True, False],
                         ids=["pipeline", "sequential"])
@pytest.mark.parametrize("name", sorted(ROUNDTRIP_GRAPHS))
def test_every_compiled_program_roundtrips_through_assembly(name, pipelined):
    # parse_assembly rejects malformed transfer geometry; nothing the
    # compiler emits may trip it
    art = compile_graph(ROUNDTRIP_GRAPHS[name](), CFG,
                        CompileOptions(pipeline=pipelined))
    assert all(ins.geometry_error() is None
               for ins in art.program.instructions)
    back = parse_assembly(emit_assembly(art.program))
    assert back == art.program
    assert emit_assembly(back) == art.assembly


FOOTPRINT_GRAPHS = [*corpus.corpus_names(), "scaled_h56", "deep_7x7_c512"]


@pytest.mark.parametrize("name", FOOTPRINT_GRAPHS)
def test_exact_footprints_follow_the_operand_model(name):
    # the hazard checker's exact ranges of every operand, expanded from its
    # footprint row, lie within [off, off + extent), in the operand's
    # memory, and the ranges are disjoint and cover exactly its rows x
    # blocks x block_bytes bytes (a one-run operand's extent); a conv's PM
    # weights are one range
    instrs = compile_graph(ROUNDTRIP_GRAPHS[name](), CFG).program.instructions
    table, mems = M.footprints(instrs)
    fp_rows = iter(table)
    for ins in instrs:
        for f, _w in M._FOOTPRINT_FIELDS[ins.sub]:
            ranges = S._exact_ranges(next(fp_rows)[None]).tolist()
            space, mem, off, (rows, blocks, size), _ = ins.operand(f)
            end = off + ins.extent(f)
            assert all(mems[k] == (space, mem) and off <= lo <= hi <= end
                       for k, lo, hi, _i, _w in ranges), (ins, f)
            if f == "wgt":
                assert [r[1:3] for r in ranges] == [
                    [ins.wgt_off, ins.wgt_off + ins.wgt_bytes]]
            ranges = sorted(r[1:3] for r in ranges)
            assert all(a[1] <= b[0] for a, b in zip(ranges, ranges[1:]))
            assert sum(hi - lo for lo, hi in ranges) == (
                ins.extent(f) if (rows, blocks) == (1, 1)
                else rows * blocks * size)
    assert next(fp_rows, None) is None


# the digest tests' machines: eight-row FM banks and a 16 KiB PM, and
# 16-byte bank rows
FOOTPRINT_MACHINES = {
    "default": CFG,
    "small": MachineConfig(fm_bank_rows=8, pm_bytes=16384),
    "fine": MachineConfig(fm_row_bytes=16, fm_bank_rows=8192)}


@pytest.mark.parametrize("machine", sorted(FOOTPRINT_MACHINES))
@pytest.mark.parametrize("name,mode", [
    *((name, "series") for name in sorted(ROUNDTRIP_GRAPHS)),
    ("deconv", "upsample")])
def test_footprint_table_matches_reads_and_writes(name, mode, machine):
    # the compile's footprint table holds, row for row, each operand an
    # instruction reads and then the one it writes: its memory, each under
    # one key, its covering range [off, off + extent), and its layout, a
    # stride 0 where it is never stepped
    art = compile_graph(ROUNDTRIP_GRAPHS[name](), FOOTPRINT_MACHINES[machine],
                        CompileOptions(deconv_mode=mode))
    instrs = art.program.instructions
    table, mems = M.footprints(instrs)
    assert len(set(mems)) == len(mems)
    assert [(*mems[k], *rest) for k, *rest in table.tolist()] == [
        (space, mem, off, off + ins.extent(f), idx, w, rows, blocks, size,
         row if rows > 1 and nbytes else 0,
         blk if blocks > 1 and nbytes else 0)
        for idx, ins in enumerate(instrs)
        for f, w in M._FOOTPRINT_FIELDS[ins.sub]
        for space, mem, off, (rows, blocks, size), (row, blk)
        in [ins.operand(f)]
        for nbytes in [rows * blocks * size]]


def test_t1_shape_first_tile():
    # first tile of the fused k=5/s1 conv + 2x2/s2 pool stream:
    # 12 activation loads, 1 conv of 8 output rows, 4 two-row pools,
    # 4 saves
    art = compiled("conv_pool")
    tile0 = [ins for ins, mark in zip(art.program.instructions, art.marks)
             if mark is not None and mark[3] == 0]
    acts = [i for i in tile0 if i.op == LOAD and i.sub == "act"]
    convs = [i for i in tile0 if i.op == CONV]
    pools = [i for i in tile0 if i.sub == "maxpool"]
    saves = [i for i in tile0 if i.op == SAVE]
    assert len(acts) == 12
    assert len(convs) == 1 and convs[0].conv_out_rows() == 8
    assert len(pools) == 4 and all(p.in_rows == 2 for p in pools)
    assert len(saves) == 4


def test_pipeline_ab_makespan():
    art_p = compiled("conv_pool")
    art_s = compiled("conv_pool", pipeline=False)
    t_p = S.run_timing(art_p.program, CFG)
    t_s = S.run_timing(art_s.program, CFG)
    assert t_p.makespan < t_s.makespan
    # functional results agree between the two streams
    folded = G.fold_constants_and_quantizers(corpus.corpus_graph("conv_pool"))
    inputs = rand_inputs(folded, 7)
    assert np.array_equal(S.run_program(art_p.program, CFG, inputs)["y"],
                          S.run_program(art_s.program, CFG, inputs)["y"])


def test_deconv_both_paths_identical_outputs():
    g = corpus.corpus_graph("deconv")
    art_series = compile_graph(g, CFG, CompileOptions(deconv_mode="series"))
    art_up = compile_graph(g, CFG, CompileOptions(deconv_mode="upsample"))
    kinds = {n["kind"] for n in art_series.report["nodes"]}
    assert "deconv-series" in kinds
    kinds_up = {n["kind"] for n in art_up.report["nodes"]}
    assert "deconv-upsample" in kinds_up
    folded = G.fold_constants_and_quantizers(g)
    for seed in range(3):
        inputs = rand_inputs(folded, seed)
        a = S.run_program(art_series.program, CFG, inputs)["y"]
        b = S.run_program(art_up.program, CFG, inputs)["y"]
        assert np.array_equal(a, b)
    # the dense series does strictly less multiply work
    ser = next(n for n in art_series.report["nodes"]
               if n["kind"] == "deconv-series")
    ups = next(n for n in art_up.report["nodes"]
               if n["kind"] == "deconv-upsample")
    assert ser["mult_count"] < ups["mult_count"]
    # and simulates faster under the default cost model
    t_ser = S.run_timing(art_series.program, CFG)
    t_up = S.run_timing(art_up.program, CFG)
    assert t_ser.makespan < t_up.makespan


def _deconv_graph(in_shape, c_out, k, s, p):
    """One deconv node "up" of kernel k, upsample s and padding p."""
    rng = np.random.default_rng(100 * k + s)
    c_in = in_shape[2]
    oh, ow, _ = G.deconv_out_shape(in_shape, c_out, (k, k), s, p)
    w = rng.integers(-24, 24, (c_out, k, k, c_in)).astype(np.int8)
    b = rng.integers(-1000, 1000, c_out).astype(np.int32)
    b64 = lambda a: base64.b64encode(a.tobytes()).decode()
    q = lambda e: {"lo": -128.0 * 2.0 ** e, "hi": 127.0 * 2.0 ** e,
                   "step": 2.0 ** e}
    return G.parse_graph(json.dumps({
        "tensors": [{"name": "x", "shape": list(in_shape), "quant": q(-2)},
                    {"name": "y", "shape": [oh, ow, c_out], "quant": q(2)}],
        "nodes": [
            {"id": "in", "op": "input", "inputs": [], "output": "x"},
            {"id": "up", "op": "deconv", "inputs": ["x"], "output": "y",
             "attrs": {"kernel": [k, k], "upsample": s, "padding": p,
                       "c_out": c_out},
             "params": {"weights": b64(w), "bias": b64(b),
                        "shape": [c_out, k, k, c_in], "quant": q(-3)}}],
        "inputs": ["x"], "outputs": ["y"],
    }))


def _check_deconv(g, art):
    """art's program matches the reference on g and is hazard-free."""
    folded = G.fold_constants_and_quantizers(g)
    inputs = rand_inputs(folded)
    got = S.run_program(art.program, CFG, inputs)["y"]
    assert np.array_equal(got, S.reference_execute(folded, inputs)["y"])
    trace = S.run_timing(art.program, CFG)
    assert S.check_hazards(art.program, trace,
                           allocs=art.memmap["fm_allocs"], cfg=CFG) == []


@pytest.mark.parametrize("pipelined", [True, False],
                         ids=["pipeline", "sequential"])
@pytest.mark.parametrize("k, s, p", [(1, 2, 0), (2, 3, 1), (3, 3, 1),
                                   (2, 2, 0)])
def test_deconv_series_falls_back_to_upsample(k, s, p, pipelined):
    # a kernel below the upsample factor, or an upsample above 2, has no
    # series decomposition, and without padding a phase window starts a
    # column into the input, a crop the conv unit cannot read: the
    # deconv lowers through upsample + conv
    g = _deconv_graph((6, 5, 4), 6, k, s, p)
    art = compile_graph(g, CFG, CompileOptions(pipeline=pipelined,
                                               deconv_mode="series"))
    assert [n["kind"] for n in art.report["nodes"]] == ["deconv-upsample"]
    _check_deconv(g, art)


@pytest.mark.parametrize("pipelined", [True, False],
                         ids=["pipeline", "sequential"])
def test_deconv_series_skips_a_phase_with_no_output_row(pipelined):
    # a 1x1 input under kernel 3 and padding 1 gives one output pixel:
    # of the four phase sub-kernels only (0, 0) has an output row or
    # column, so each tile skips the other three and issues one CONV
    g = _deconv_graph((1, 1, 4), 6, 3, 2, 1)
    art = compile_graph(g, CFG, CompileOptions(pipeline=pipelined,
                                               deconv_mode="series"))
    node, = art.report["nodes"]
    assert (node["kind"], node["sub_kernels"]) == ("deconv-series", 4)
    assert sum(ins.op == CONV for ins in art.program.instructions) == 1
    _check_deconv(g, art)


@pytest.mark.parametrize("pipelined", [True, False],
                         ids=["pipeline", "sequential"])
def test_deconv_weights_past_pm_fall_back_then_fail(pipelined):
    # the corpus deconv's four series sub-kernels take 1,152 B of PM and
    # its upsample-path kernel 1,056 B: with 1,100 B the series path falls
    # back, and with 1,024 B neither fits, so the node fails the ladder
    g = corpus.corpus_graph("deconv")
    cfg = MachineConfig(pm_bytes=1100)
    art = compile_graph(g, cfg, CompileOptions(pipeline=pipelined,
                                               deconv_mode="series"))
    assert [n["kind"] for n in art.report["nodes"]] == ["deconv-upsample"]
    inputs = rand_inputs(g)
    got = S.run_program(art.program, cfg, inputs)["y"]
    assert np.array_equal(got, S.reference_execute(g, inputs)["y"])
    assert S.check_hazards(art.program, S.run_timing(art.program, cfg),
                           allocs=art.memmap["fm_allocs"]) == []
    for mode in ("series", "upsample"):
        with pytest.raises(CompileError, match="^node up: deconv weights "
                           "need 1056 B of PM, more than its 1024 B$") as e:
            compile_graph(g, MachineConfig(pm_bytes=1024), CompileOptions(
                pipeline=pipelined, deconv_mode=mode))
        assert len(e.value.attempts) == 1


def test_conv_channel_past_pm_fails_at_first_step():
    # toy_conv's output channel takes 40 B of PM: no tiling fits 32 B
    with pytest.raises(CompileError, match="^node conv: one output channel "
                       r"needs 40 B, more than half of PM \(32 B\)$") as e:
        compile_graph(corpus.corpus_graph("toy_conv"),
                      MachineConfig(pm_bytes=64))
    assert len(e.value.attempts) == 1


Q = {"lo": -32.0, "hi": 31.75, "step": 0.25}
UPSAMPLE = {
    "tensors": [{"name": "x", "shape": [10, 8, 8], "quant": Q},
                {"name": "y", "shape": [19, 15, 8], "quant": Q}],
    "nodes": [{"id": "in", "op": "input", "inputs": [], "output": "x"},
              {"id": "up", "op": "upsample", "inputs": ["x"], "output": "y",
               "attrs": {"factor": 2}}],
    "inputs": ["x"], "outputs": ["y"],
}


@pytest.mark.parametrize("g,message", [
    (corpus.corpus_graph("deconv"), "deconv upsample path rows exceed gamma"),
    (G.parse_graph(json.dumps(UPSAMPLE)), "upsample rows exceed gamma; "
     "width splitting of zero-inserted rows is not supported")],
    ids=["deconv", "upsample"])
def test_rows_past_gamma_without_width_split_fail_at_first_step(g, message):
    # neither path width-splits, so no ladder step shortens a row of
    # 15-24 pixels x 8 channels below 64 B
    with pytest.raises(CompileError, match=f"^node up: {message}$") as e:
        compile_graph(g, MachineConfig(gamma=64))
    assert len(e.value.attempts) == 1


@pytest.mark.parametrize("name,cfg,mode,message", [
    # a 3-column input strip of 4 channels is 12 B against an 8 B gamma
    ("toy_conv", MachineConfig(gamma=8), "series",
     "cannot width-split 8 columns into 9 strips"),
    # the deconv's shuffle writes a third memory on both paths
    ("deconv", MachineConfig(fm_memories=2), "series",
     "stream out0 needs memory 2, machine has 2"),
    ("deconv", MachineConfig(fm_memories=2), "upsample",
     "needs memory 2, machine has 2")],
    ids=["width", "memories-series", "memories-upsample"])
def test_unfused_node_no_step_can_change_fails_at_first_step(name, cfg, mode,
                                                              message):
    # deeper width splits and shorter bands change neither the widest
    # strip of one column nor the data flow of an unfused node
    with pytest.raises(CompileError, match=message) as e:
        compile_graph(corpus.corpus_graph(name), cfg,
                      CompileOptions(deconv_mode=mode))
    assert len(e.value.attempts) == 1


def test_fused_node_past_gamma_still_reaches_its_unfuse_step():
    # conv_pool's fused strip of one pool column reads 6 input columns of
    # 16 channels (96 B); unfused, the conv reads 5 (80 B) and fits
    art = compile_graph(corpus.corpus_graph("conv_pool"),
                        MachineConfig(gamma=80))
    attempts = art.report["attempts"]
    assert all("cannot width-split 6 columns into 7 strips" in a
               for a in attempts[:-1]) and len(attempts) > 1
    assert attempts[-1] == "node conv: retried with {'unfuse': True}"


@pytest.mark.parametrize("cfg,fused,unfused", [
    # unfused, conv_pool's conv still reads 5 columns of 16 channels
    (MachineConfig(gamma=64), "cannot width-split 6 columns into 7 strips",
     "cannot width-split 12 columns into 13 strips"),
    # no tiling of the conv, fused or not, fits a 404 B channel in 128 B
    (MachineConfig(pm_bytes=256), "one output channel needs 404 B, more "
     "than half of PM (128 B)", "one output channel needs 404 B, more "
     "than half of PM (128 B)")], ids=["width", "pm"])
def test_fused_node_ends_at_its_unfuse_step(cfg, fused, unfused):
    # a CapacityError ends a fused node only once its unfuse step fails
    with pytest.raises(CompileError) as e:
        compile_graph(corpus.corpus_graph("conv_pool"), cfg)
    assert str(e.value) == f"node conv: {unfused}"
    assert e.value.attempts == [
        f"node conv with {step}: {fused}"
        for step in ("defaults", "{'max_h': 4}", "{'max_h': 1}")] + [
        f"node conv with {{'unfuse': True}}: {unfused}"]


def test_weight_tiling_slab_structure_and_overlap():
    art = compiled("weight_tiled")
    node = art.report["nodes"][0]
    assert node["slabs"] >= 2
    tr = S.run_timing(art.program, CFG)
    wloads = [e for e in tr.events if e.color == "load-weight"]
    convs = [e for e in tr.events if e.queue == CONV]
    assert len(wloads) == node["slabs"]
    assert any(w.start < c.end and c.start < w.end
               for w in wloads for c in convs)


def test_conv_efficiency_hand_count_weight_tiled():
    # 12x12 outputs x 256 channels x 3x3 taps x 64 input channels, at
    # 1024 MACs per cycle: 20,736 ideal CONV cycles
    art = compiled("weight_tiled")
    ideal = 12 * 12 * 256 * 3 * 3 * 64 / 1024
    assert ideal == 20736
    tr = S.run_timing(art.program, CFG)
    assert art.report["conv_efficiency"] == ideal / tr.makespan
    lo = min(e.start for e in tr.events)
    hi = max(e.end for e in tr.events)
    node = art.report["nodes"][0]
    assert node["conv_efficiency"] == ideal / (hi - lo)


def test_conv_efficiency_per_node_spans():
    # each node's ideal CONV cycles over its own first-start..last-end
    # span; the eltwise node does no CONV work
    art = compiled("resnet_cell")
    tr = S.run_timing(art.program, CFG)
    spans, ideal = {}, {}
    for ins, mark, e in zip(art.program.instructions, art.marks, tr.events):
        lo, hi = spans.get(mark[0], (e.start, e.end))
        spans[mark[0]] = (min(lo, e.start), max(hi, e.end))
        if ins.op == CONV:
            macs = (ins.conv_out_rows() * ins.out_w * ins.c_out
                    * ins.kh * ins.kw * ins.c_in)
            ideal[mark[0]] = ideal.get(mark[0], 0) + macs / 1024
    for n in art.report["nodes"]:
        lo, hi = spans[n["id"]]
        assert n["conv_efficiency"] == pytest.approx(
            ideal.get(n["id"], 0) / (hi - lo)), n["id"]
    by_id = {n["id"]: n for n in art.report["nodes"]}
    assert by_id["add"]["conv_efficiency"] == 0.0
    assert art.report["conv_efficiency"] == pytest.approx(
        sum(ideal.values()) / tr.makespan)


def _lower_big(cfg):
    g = G.fold_constants_and_quantizers(corpus.corpus_graph("weight_tiled"))
    return L.lower_node(g.nodes["big"],
                        L.LowerContext(tensors=g.tensors, h_cap=cfg.h_c), cfg)


# 16 KB FM memories: weight_tiled's conv takes six bands of two rows, and
# six input windows of 4 KB (two 2 KB bank rows each) overflow one memory
NO_FIT = MachineConfig(fm_bank_rows=1)


def test_slab_prefetch_issues_behind_activation_loads():
    # six bands, three slabs, input windows re-loaded per slab: slab 1's
    # second band prefetches slab 2, and that weight load comes after the
    # band's activation rows
    lowered = _lower_big(NO_FIT)
    assert lowered.notes["slabs"] == 3 and not lowered.notes["resident"]
    prefetches = 0
    for tile in lowered.tiles:
        queue, loads = tile.stages[0]
        assert queue == "LOAD"
        subs = [t.sub for t in loads]
        if tile.ch[0] > 0 and "weight" in subs:
            prefetches += 1
            assert subs[-1] == "weight" and subs.count("weight") == 1
            assert subs.count("act") > 0
    assert prefetches == 1


@pytest.mark.parametrize("pipelined", [True, False],
                         ids=["pipeline", "sequential"])
def test_windows_that_do_not_fit_fm_reload_per_slab(pipelined):
    # the lowering keeps weight_tiled's windows out of FM on NO_FIT from
    # the geometry, so the retry ladder is never entered; every slab's
    # tiles re-load the input rows of their band
    g = corpus.corpus_graph("weight_tiled")
    art = compile_graph(g, NO_FIT, CompileOptions(pipeline=pipelined))
    assert art.report["attempts"] == []
    node = art.report["nodes"][0]
    assert node["slabs"] == 3 and node["band_h"] == 2
    assert not node["resident"]
    # 3x3/p1 over 12 rows in bands of 2: windows of 3, 4, 4, 4, 4, 3 rows
    act_loads = sum(ins.op == LOAD and ins.sub == "act"
                    for ins in art.program.instructions)
    assert act_loads == 22 * 3
    assert node["act_load_bytes"] == 22 * 3 * 12 * 64
    folded = G.fold_constants_and_quantizers(g)
    inputs = rand_inputs(folded)
    got = S.run_program(art.program, NO_FIT, inputs)
    ref = S.reference_execute(folded, inputs)
    assert np.array_equal(got["y"], ref["y"])
    trace = S.run_timing(art.program, NO_FIT)
    assert S.check_hazards(art.program, trace,
                           allocs=art.memmap["fm_allocs"], cfg=NO_FIT) == []


def test_resident_window_live_over_every_reading_tile():
    # h_c = 12 gives weight_tiled one band, so slabs 1 and 2 convolve the
    # window slab 0 loaded.  With every stream forced into one memory, the
    # planner must keep the later slabs' windows off that window's bytes.
    cfg = MachineConfig(h_c=12)
    lowered = _lower_big(cfg)
    assert lowered.notes["resident"]
    wins = [a for tile in lowered.tiles for _q, grp in tile.stages
            for t in grp for a in (t.src, t.src2, t.dst)
            if isinstance(a, L.Win)]
    assert {a.tile for a in wins if a.stream == "in0"} == {0}
    readers = [ti for ti, tile in enumerate(lowered.tiles)
               for _q, grp in tile.stages for t in grp
               if t.op == CONV and t.src.stream == "in0" and t.src.tile == 0]
    assert readers == [0, 1, 2]
    C._plan_windows(lowered, {a.stream: 0 for a in wins}, cfg)
    allocs = lowered.allocs
    win = allocs[("in0", 0)]
    for (sname, ti), al in allocs.items():
        if sname != "in0" and ti in readers:
            assert (al.start >= win.start + win.length
                    or al.start + al.length <= win.start), (sname, ti)


def test_concat_resolved_by_save_aliasing():
    art = compiled("inception_cell")
    # the concat node itself contributes no instructions
    join = next(n for n in art.report["nodes"] if n["id"] == "join")
    assert join["tiles"] == 0
    assert art.memmap["aliases"]
    # branch saves write strided channel slices of the concat output
    strided = [i for i in art.program.instructions
               if i.op == SAVE and i.blocks > 1]
    assert strided


def test_hazard_free_and_deterministic():
    for name in corpus.corpus_names():
        a1 = compiled(name)
        a2 = compiled(name)
        assert a1.assembly == a2.assembly
        assert a1.param_image == a2.param_image
        assert json.dumps(a1.memmap, sort_keys=True) == \
            json.dumps(a2.memmap, sort_keys=True)
        t1 = S.run_timing(a1.program, CFG)
        t2 = S.run_timing(a2.program, CFG)
        assert t1.to_dict() == t2.to_dict()


def _conv_efficiency_by_events(prog, marks, trace, cfg):
    """The report's total and per-node conv efficiency, walked off the
    trace's events: ideal CONV cycles over the makespan, and per node
    over its first start to its last end."""
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


def _check_estimate_matches_trace(art, cfg):
    trace = S.run_timing(art.program, cfg)
    report = art.report
    assert report["estimated_makespan"] == trace.makespan
    assert list(report["queue_busy"].items()) == list(trace.busy.items())
    total, per_node = _conv_efficiency_by_events(art.program, art.marks,
                                                 trace, cfg)
    assert report["conv_efficiency"] == total
    for node in report["nodes"]:
        assert node["conv_efficiency"] == per_node.get(node["id"], 0.0), \
            node["id"]


ESTIMATE_GRAPHS = {
    **{name: lambda name=name: corpus.corpus_graph(name)
       for name in corpus.corpus_names()},
    "deep_14x14_c256": lambda: _deep_shaped(14, 128, 256),
    "deep_7x7_c512": lambda: _deep_shaped(7, 256, 512),
}


@pytest.mark.parametrize("pipelined", [True, False],
                         ids=["pipeline", "sequential"])
@pytest.mark.parametrize("mode", ["series", "upsample"])
@pytest.mark.parametrize("name", sorted(ESTIMATE_GRAPHS))
def test_report_estimate_matches_the_trace(name, mode, pipelined):
    # the compile's estimate schedules without trace events; its makespan,
    # queue busy cycles and conv efficiencies are the trace's, to the bit
    art = compile_graph(ESTIMATE_GRAPHS[name](), CFG, CompileOptions(
        pipeline=pipelined, deconv_mode=mode))
    _check_estimate_matches_trace(art, CFG)


def _compute_nodes(doc):
    return [n for n in doc["nodes"] if n["op"] not in ("input", "fix",
                                                       "const")]


@given(random_dag().filter(lambda doc: len(_compute_nodes(doc)) > 1))
@settings(max_examples=1, deadline=None)
def test_report_estimate_matches_the_trace_on_a_random_dag(doc):
    g = G.parse_graph(json.dumps(doc))
    modes = ("series", "upsample") if any(
        n["op"] == "deconv" for n in doc["nodes"]) else ("series",)
    for pipelined, mode in itertools.product((True, False), modes):
        art = compile_graph(g, CFG, CompileOptions(pipeline=pipelined,
                                                   deconv_mode=mode))
        _check_estimate_matches_trace(art, CFG)


def _strided_conv(h, w, c, k, stride, pad, c_out=8):
    oh, ow = ((n + 2 * pad - k) // stride + 1 for n in (h, w))
    return _chain_graph({"x": (h, w, c), "y": (oh, ow, c_out)}, [_conv(
        np.random.default_rng(k), "conv", "x", "y", c, c_out, k,
        stride=[stride, stride], padding=[pad, pad])])


@pytest.mark.parametrize("k, stride, pad, rows, cols", [
    (1, 2, 0, 5, 4),    # rows 0, 2, .., 8 and columns 0, 2, 4, 6
    (1, 3, 0, 3, 3),    # rows and columns 0, 3, 6
    (3, 2, 1, 9, 7),    # overlapping windows read every pixel
], ids=["1x1s2", "1x1s3", "3x3s2p1"])
def test_min_load_bytes_counts_the_pixels_a_conv_reads(k, stride, pad,
                                                       rows, cols):
    # a 9 x 7 x 16 input: a conv whose stride passes its kernel skips
    # input rows and columns, and its least load counts only those read
    g = _strided_conv(9, 7, 16, k, stride, pad)
    art = compile_graph(g, CFG)
    (node,) = art.report["nodes"]
    payload = 8 * (k * k * 16 + 4)
    assert node["weight_load_bytes"] == payload
    assert node["min_load_bytes"] == rows * cols * 16 + payload
    folded = G.fold_constants_and_quantizers(g)
    x = rand_inputs(folded)
    got = S.run_program(art.program, CFG,
                        dict(zip(art.program.input_names, x.values())))
    assert np.array_equal(got["y"], S.reference_execute(folded, x)["y"])


def test_conservation_saves_cover_outputs(operand_blocks):
    for name in corpus.corpus_names():
        art = compiled(name)
        out_base, out_size = art.program.segments["outputs"]
        saved = 0
        for ins in art.program.instructions:
            if ins.op != SAVE:
                continue
            for _sp, _m, lo, hi in operand_blocks(ins, "dst"):
                if out_base <= lo and hi <= out_base + out_size:
                    saved += hi - lo
        total = sum(t["bytes"] for t in art.program.tensors.values()
                    if t["segment"] == "outputs")
        assert saved == total, name


def test_queue_inorder_nonoverlapping():
    art = compiled("conv_pool")
    tr = S.run_timing(art.program, CFG)
    for op in (LOAD, SAVE, CONV, MISC):
        evs = [e for e in tr.events if e.queue == op]
        for a, b in zip(evs, evs[1:]):
            assert a.index < b.index
            assert a.end <= b.start


def test_liveness_bound_two_windows_per_stream():
    # double buffering: at any instant at most two windows of each stream
    # class are live
    art = compiled("conv_pool")
    tr = S.run_timing(art.program, CFG)
    ev = {e.index: e for e in tr.events}
    windows = {}
    for rec in art.memmap["fm_allocs"]:
        node_stream = rec["key"].rsplit("/", 1)[0]
        windows.setdefault(node_stream, []).append(
            (ev[rec["first"]].start, ev[rec["last"]].end))
    for stream, spans in windows.items():
        times = sorted({t for s in spans for t in s})
        for t in times:
            live = sum(1 for s0, s1 in spans if s0 <= t < s1)
            assert live <= 2, (stream, t)


def test_retry_ladder_reduces_height():
    tiny = MachineConfig(fm_bank_rows=1, fm_row_bytes=256, gamma=2048,
                         pm_bytes=131072)
    g = corpus.corpus_graph("conv_pool")
    art = compile_graph(g, tiny)
    assert any("retried" in a for a in art.report["attempts"])
    folded = G.fold_constants_and_quantizers(g)
    inputs = rand_inputs(folded, 1)
    got = S.run_program(art.program, tiny, inputs)
    ref = S.reference_execute(folded, inputs)
    assert np.array_equal(got["y"], ref["y"])


def test_compile_error_lists_attempts_when_exhausted():
    # a machine whose FM cannot hold even one row of the input
    hopeless = MachineConfig(fm_bank_rows=1, fm_row_bytes=16, gamma=8,
                             pm_bytes=131072)
    g = corpus.corpus_graph("toy_conv")
    with pytest.raises(CompileError) as err:
        compile_graph(g, hopeless)
    assert err.value.attempts


def test_lower_node_padded_first_tile_attributes():
    g = G.fold_constants_and_quantizers(corpus.corpus_graph("weight_tiled"))
    node = g.nodes["big"]
    ctx = L.LowerContext(tensors=g.tensors, h_cap=CFG.h_c)
    lowered = L.lower_node(node, ctx, CFG)
    convs = [ins for tile in lowered.tiles for _q, group in tile.stages
             for ins in group if ins.op == CONV]
    # 12 rows at pad 1, tile height 8: the first tile reads a clamped
    # 9-row window with an explicit top pad; the epilogue tile reads 5
    # rows with a bottom pad; an interior window would read 10
    assert convs[0].pt == 1 and convs[0].pb == 0 and convs[0].in_rows == 9
    assert convs[1].pt == 0 and convs[1].pb == 1 and convs[1].in_rows == 5


@pytest.mark.parametrize("mode", ["series", "upsample"])
def test_symbolic_addresses_name_planned_windows(mode):
    """Every window access an instruction makes lies inside the window the
    planner placed for its (stream, tile), and each window is exactly the
    furthest byte its accesses reach, rounded up to a bank row: on the
    default machine and on one with 16-byte bank rows, where the rounding
    cannot hide a window that is a row short.  Every instruction sits in
    the group of its own queue, the lowered node's operand table lists
    exactly the symbolic operands this walk finds, in its order, and
    after compile_graph no address is symbolic."""
    options = CompileOptions(deconv_mode=mode)
    fine_rows = MachineConfig(fm_row_bytes=16, fm_bank_rows=8192)
    seen = set()
    for cfg, name in itertools.product((CFG, fine_rows),
                                       corpus.corpus_names()):
        g = G.fuse_superlayers(
            G.fold_constants_and_quantizers(corpus.corpus_graph(name)), cfg)
        aliases = C._concat_aliases(g)
        for nid in G.topological_schedule(g):
            if g.nodes[nid].op == "input":
                continue
            parts, _busy = C._lower_with_ladder(
                g.nodes[nid], g.tensors | g.fused_mids(), aliases, cfg,
                options, [], ())
            for _nd, lowered in parts:
                ends = dict.fromkeys(lowered.allocs, 0)
                symbolic = []
                for ti, tile in enumerate(lowered.tiles):
                    for queue, group in tile.stages:
                        for t in group:
                            assert t.op == queue
                            for f in ("src", "src2", "dst"):
                                a = getattr(t, f)
                                if isinstance(a, (L.Win, L.TensorAt,
                                                  L.ParamAt)):
                                    symbolic.append((ti, t, f, a))
                                if isinstance(a, L.Win):
                                    key = (a.stream, a.tile)
                                    end = a.off + t.extent(f)
                                    assert 0 <= a.off, t
                                    assert end <= lowered.allocs[key].length, t
                                    ends[key] = max(ends[key], end)
                            seen.add((t.op, t.sub))
                for key, al in lowered.allocs.items():
                    assert al.length == cfg.round_to_bank_row(ends[key]), key
                # the operand table lists exactly these, in this order
                assert len(lowered.operands) == len(symbolic)
                for got, want in zip(lowered.operands, symbolic):
                    assert got[0] == want[0] and got[1] is want[1]
                    assert got[2:] == want[2:]
        art = compile_graph(corpus.corpus_graph(name), cfg, options)
        for ins in art.program.instructions:
            for a in (ins.src, ins.src2, ins.dst):
                assert a is None or isinstance(a, Addr), (name, ins)
    # the corpus exercises every instruction the lowering emits
    want = {(LOAD, "act"), (LOAD, "weight"), (CONV, "conv"),
            (MISC, "maxpool"), (MISC, "eltwise"), (SAVE, "act")}
    want |= {(MISC, "move")} if mode == "series" else {(MISC, "upsample")}
    assert want <= seen


def test_fm_roles_follow_the_data_flow(tmp_path):
    """On two FM memories a fused conv+pool needs fm2 for the pool output
    (load -> fm0, conv -> fm1, pool -> fm2), so the ladder unfuses it, the
    intermediate it then saves gets a swap slot, and the program still
    verifies; fused on the default machine, conv_pool has no swap tensor.
    A deconv's shuffle output needs fm2 on every step, so the compile
    fails with the attempt ledger."""
    cfg = MachineConfig(fm_memories=2)
    for name in ("conv_pool", "vgg_prefix"):
        g = corpus.corpus_graph(name)
        art = compile_graph(g, cfg)
        attempts = art.report["attempts"]
        assert any("needs memory 2, machine has 2" in a for a in attempts)
        assert "retried with {'unfuse': True}" in attempts[-1], attempts
        folded = G.fold_constants_and_quantizers(g)
        inputs = rand_inputs(folded, 3)
        got = S.run_program(art.program, cfg, inputs)
        ref = S.reference_execute(folded, inputs)
        for out in ref:
            assert np.array_equal(got[out], ref[out]), (name, out)
        trace = S.run_timing(art.program, cfg)
        assert S.check_hazards(art.program, trace,
                               allocs=art.memmap["fm_allocs"],
                               cfg=cfg) == [], name
        assert {a["mem"] for a in art.memmap["fm_allocs"]} == {0, 1}
        if name == "conv_pool":
            # swap holds the intermediate the kept, unfused lowering names
            assert art.memmap["tensors"]["t"] == ["swap", 0]
    # fused, the intermediate never leaves FM and gets no DDR bytes
    fused = compile_graph(corpus.corpus_graph("conv_pool"), MachineConfig())
    assert fused.report["attempts"] == []
    assert all(seg != "swap" for seg, _off in fused.memmap["tensors"].values())
    for mode in ("series", "upsample"):
        with pytest.raises(CompileError, match="needs memory 2") as err:
            compile_graph(corpus.corpus_graph("deconv"), cfg,
                          CompileOptions(deconv_mode=mode))
        assert err.value.attempts
    gpath, cpath = tmp_path / "deconv.json", tmp_path / "fm2.json"
    gpath.write_text(json.dumps(corpus.corpus_doc("deconv")))
    cfg.to_json(cpath)
    assert cli.main(["compile", str(gpath), "-c", str(cpath),
                     "-o", str(tmp_path / "art")]) == 3
