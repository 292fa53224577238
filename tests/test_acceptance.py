"""Acceptance gate: every release criterion at its stated tolerance.

Run with -s to see the per-criterion pass lines; each criterion is its
own test so the suite also reports them individually.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from dpuc import corpus
from dpuc import graph as G
from dpuc import lowering as L
from dpuc import simulator as S
from dpuc.compiler import CompileOptions, compile_graph
from dpuc.machine import CONV, LOAD, MISC, MachineConfig, SAVE

CFG = MachineConfig()


@pytest.fixture(scope="module")
def built():
    """Compile the whole corpus once."""
    out = {}
    for name in corpus.corpus_names():
        g = corpus.corpus_graph(name)
        out[name] = (compile_graph(g, CFG), g)
    return out


def _report(line):
    print(line)


def test_criterion_1_oracle_equivalence(built):
    """Functional simulation == reference executor on the graph as
    written, byte for byte, over at least 100 random int8 input seeds per
    corpus graph."""
    seeds = 100
    t0 = time.time()
    for name, (art, g) in sorted(built.items()):
        rng = np.random.default_rng(0xD0)
        for seed in range(seeds):
            inputs = {n: rng.integers(-128, 128, g.tensors[n].shape)
                      .astype(np.int8) for n in g.inputs}
            got = S.run_program(art.program, CFG,
                                dict(zip(art.program.input_names,
                                         inputs.values())))
            ref = S.reference_execute(g, inputs)
            for k in ref:
                assert np.array_equal(got[k], ref[k]), (name, seed, k)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(f"PASS criterion 1: oracle equivalence, {len(built)} graphs x "
            f"{seeds} seeds bit-exact in {elapsed:.1f}s")


def test_criterion_2_t1_structure(built):
    """First fused tile: 12 activation LOADs, 1 CONV producing 8 rows,
    4 two-row MISC pools, 4 SAVEs.  Exact match."""
    art, _ = built["conv_pool"]
    tile0 = [ins for ins, mark in zip(art.program.instructions, art.marks)
             if mark is not None and mark[3] == 0]
    acts = [i for i in tile0 if i.op == LOAD and i.sub == "act"]
    convs = [i for i in tile0 if i.op == CONV]
    pools = [i for i in tile0 if i.op == MISC and i.sub == "maxpool"]
    saves = [i for i in tile0 if i.op == SAVE]
    assert len(acts) == 12
    assert len(convs) == 1 and convs[0].conv_out_rows() == 8
    assert len(pools) == 4 and all(p.in_rows == 2 for p in pools)
    assert len(saves) == 4
    _report("PASS criterion 2: T1 structure is 12 loads, 1 conv (8 rows), "
            "4 pools (2 rows each), 4 saves")


def test_criterion_3_fusion_steady_state():
    """Every enabled fusion plan satisfies k * H_p == H_c' exactly,
    over (conv k,s) x (pool k,s) in {1,2,3,5,7} x {1,2,3}."""
    checked = 0
    enabled = 0
    for ck in (1, 2, 3, 5, 7):
        for cs in (1, 2, 3):
            for pk in (1, 2, 3, 5, 7):
                for ps in (1, 2, 3):
                    h = 96
                    if (h - ck) // cs + 1 < pk:
                        continue
                    cg = L.OpGeometry(
                        "conv", (h, 16, 8),
                        ((h - ck) // cs + 1, (16 - ck) // cs + 1, 8),
                        (ck, ck), (cs, cs), (0, 0))
                    mh, mw, mc = cg.out_shape
                    if (mh - pk) // ps + 1 < 1 or (mw - pk) // ps + 1 < 1:
                        continue
                    pg = L.OpGeometry(
                        "maxpool", cg.out_shape,
                        ((mh - pk) // ps + 1, (mw - pk) // ps + 1, mc),
                        (pk, pk), (ps, ps), (0, 0))
                    plan = L.plan_fusion(cg, pg, CFG)
                    checked += 1
                    if plan.enabled:
                        enabled += 1
                        assert plan.k >= 1
                        assert plan.k * plan.h_p == plan.h_conv
    assert enabled > 0
    _report(f"PASS criterion 3: k*H_p == H_c' exact on {enabled} enabled "
            f"plans of {checked} swept shapes")


def test_criterion_4_pipelining_speedup(built):
    """On the 8-tile fused conv+pool program: pipelined makespan beats
    sequential, and the makespan decomposes into fill + bottleneck busy
    time + drain within one group period."""
    art, _ = built["conv_pool"]
    tiles = max(m[3] for m in art.marks if m is not None) + 1
    assert tiles >= 8
    g = corpus.corpus_graph("conv_pool")
    art_seq = compile_graph(g, CFG, CompileOptions(pipeline=False))
    t_pip = S.run_timing(art.program, CFG)
    t_seq = S.run_timing(art_seq.program, CFG)
    assert t_pip.makespan < t_seq.makespan

    busiest = max(t_pip.busy, key=lambda q: t_pip.busy[q])
    evs = sorted((e for e in t_pip.events if e.queue == busiest),
                 key=lambda e: e.start)
    head = evs[0].start
    tail = t_pip.makespan - evs[-1].end
    steady = [i for i, m in enumerate(art.marks)
              if m is not None and m[1] == "steady"]
    ev = {e.index: e for e in t_pip.events}
    groups = {art.marks[i][2] for i in steady}
    period = (max(ev[i].end for i in steady)
              - min(ev[i].start for i in steady)) / len(groups)
    slack = t_pip.makespan - (head + t_pip.busy[busiest] + tail)
    assert abs(slack) <= period
    _report(f"PASS criterion 4: pipelined {t_pip.makespan} < sequential "
            f"{t_seq.makespan}; bottleneck {busiest} slack {slack} within "
            f"one group period ({period:.0f})")


def test_criterion_5_deconv_optimality(built):
    """For k in 2..7 at upsample 2: exactly four sub-kernels whose taps
    partition the kernel, strictly fewer multiplications than
    upsample+conv, and bit-identical outputs; the compiled series beats
    the compiled upsample path directionally under the default costs."""
    rng = np.random.default_rng(5)
    for k in range(2, 8):
        s, p, ci, co = 2, 2, 3, 2
        x = rng.integers(-128, 128, (6, 5, ci)).astype(np.int8)
        w = rng.integers(-32, 32, (co, k, k, ci)).astype(np.int8)
        bias = rng.integers(-50, 50, co).astype(np.int64)
        oh = (x.shape[0] - 1) * s + 1 + 2 * p - k + 1
        ow = (x.shape[1] - 1) * s + 1 + 2 * p - k + 1
        plan = L.decompose_deconv(w, s, p, x.shape, (oh, ow, co))
        assert len(plan.sub_kernels) == min(k, s) ** 2 == 4
        taps = sum(sk.taps.shape[1] * sk.taps.shape[2]
                   for sk in plan.sub_kernels)
        assert taps == k * k
        assert L.series_mult_count(plan, co, ci) < \
            L.upsample_conv_mult_count((oh, ow, co), k, ci)
        # functional identity of the decomposition
        uh, uw = (x.shape[0] - 1) * s + 1, (x.shape[1] - 1) * s + 1
        u = np.zeros((uh, uw, ci), np.int64)
        u[::s, ::s] = x
        u = np.pad(u, ((p, p), (p, p), (0, 0)))
        ref = np.zeros((oh, ow, co), np.int64)
        for oy in range(oh):
            for ox in range(ow):
                for o in range(co):
                    ref[oy, ox, o] = np.sum(
                        u[oy:oy + k, ox:ox + k]
                        * w[o].astype(np.int64)) + bias[o]
        got = np.zeros_like(ref)
        for sk in plan.sub_kernels:
            ry, rx = sk.phase
            th, tw = sk.taps.shape[1:3]
            for t in range(sk.out_rows):
                for uu in range(sk.out_cols):
                    acc = bias.copy()
                    for a in range(th):
                        for b in range(tw):
                            iy = t + a - sk.pad[0] + sk.crop[0]
                            ix = uu + b - sk.pad[1] + sk.crop[1]
                            if 0 <= iy < x.shape[0] and 0 <= ix < x.shape[1]:
                                acc += sk.taps[:, a, b].astype(np.int64) \
                                    @ x[iy, ix].astype(np.int64)
                    got[ry + t * s, rx + uu * s] = acc
        assert np.array_equal(got, ref), k

    g = corpus.corpus_graph("deconv")
    art_ser = built["deconv"][0]
    art_up = compile_graph(g, CFG, CompileOptions(deconv_mode="upsample"))
    rng2 = np.random.default_rng(6)
    inputs = {n: rng2.integers(-128, 128, g.tensors[n].shape)
              .astype(np.int8) for n in g.inputs}
    a = S.run_program(art_ser.program, CFG, inputs)["y"]
    b = S.run_program(art_up.program, CFG, inputs)["y"]
    assert np.array_equal(a, b)
    m_ser = S.run_timing(art_ser.program, CFG).makespan
    m_up = S.run_timing(art_up.program, CFG).makespan
    assert m_ser < m_up
    _report(f"PASS criterion 5: min(k,2)^2 = 4 sub-kernels partition the "
            f"kernel for k=2..7, fewer multiplications, bit-identical; "
            f"series makespan {m_ser} < upsample {m_up}")


def test_criterion_6_hazard_freedom(built):
    """check_hazards is empty on every compiler-produced program; a
    dropped DPON and an overlapped allocation are each caught."""
    for name, (art, _g) in sorted(built.items()):
        tr = S.run_timing(art.program, CFG)
        report = S.check_hazards(art.program, tr,
                                 allocs=art.memmap["fm_allocs"], cfg=CFG)
        assert report == [], (name, report[:2])

    # injected fault: strip the DPON sets from a fused stream's convs
    art, _ = built["conv_pool"]
    mutated = [replace(i, dpon=frozenset()) if i.op == CONV else i
               for i in art.program.instructions]
    mutated = [replace(i, dpby=i.dpby - {CONV}) for i in mutated]
    bad = replace(art.program)
    bad.instructions = mutated
    tr = S.run_timing(bad, CFG)
    report = S.check_hazards(bad, tr)
    assert any(kind in ("raw-hazard", "war-hazard")
               for kind, *_ in report)

    # injected fault: two live allocations forced onto the same bytes
    tr2 = S.run_timing(art.program, CFG)
    n = len(art.program.instructions) - 1
    allocs = [{"key": "a", "mem": 0, "start": 0, "length": 64,
               "first": 0, "last": n},
              {"key": "b", "mem": 0, "start": 32, "length": 64,
               "first": 0, "last": n}]
    report2 = S.check_hazards(art.program, tr2, allocs=allocs, cfg=CFG)
    assert any(kind == "alloc-overlap" for kind, *_ in report2)
    _report("PASS criterion 6: corpus hazard-free; dropped-DPON and "
            "overlapped-allocation faults both caught")


def test_criterion_7_weight_tiling(built):
    """Weights over PM capacity compile to >= 2 slabs and at least one
    weight LOAD interval intersects a CONV interval."""
    art, _ = built["weight_tiled"]
    slabs = art.report["nodes"][0]["slabs"]
    assert slabs >= 2
    tr = S.run_timing(art.program, CFG)
    wloads = [e for e in tr.events if e.color == "load-weight"]
    convs = [e for e in tr.events if e.queue == CONV]
    assert any(w.start < c.end and c.start < w.end
               for w in wloads for c in convs)
    _report(f"PASS criterion 7: {slabs} weight slabs, slab loads overlap "
            f"convolution execution")


def test_criterion_8_determinism(built):
    """Two consecutive compiles + simulations of the full corpus produce
    byte-identical artifacts and traces."""
    for name, (art, _g) in sorted(built.items()):
        g = corpus.corpus_graph(name)
        again = compile_graph(g, CFG)
        assert again.assembly == art.assembly, name
        assert again.param_image == art.param_image, name
        assert json.dumps(again.memmap, sort_keys=True) == \
            json.dumps(art.memmap, sort_keys=True), name
        t1 = S.run_timing(art.program, CFG)
        t2 = S.run_timing(again.program, CFG)
        assert t1.to_dict() == t2.to_dict(), name
    _report("PASS criterion 8: repeated compiles and simulations are "
            "byte-identical across the corpus")
