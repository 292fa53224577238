import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpuc import lowering as L
from dpuc.errors import CapacityError, InfeasibleError, UnsupportedError
from dpuc.machine import CONV, Instruction, MachineConfig


def cfg(**kw):
    return MachineConfig(**kw)


# ---------------------------------------------------------------------------
# receptive-field enumeration oracle: which input positions does each output
# position of a windowed op touch, straight from the definition
# ---------------------------------------------------------------------------

def touched_inputs(out_lo, out_hi, k, s, p, size):
    cells = set()
    for o in range(out_lo, out_hi):
        for t in range(k):
            pos = o * s + t - p
            if 0 <= pos < size:
                cells.add(pos)
    return cells


@given(st.integers(1, 7), st.integers(1, 3), st.integers(0, 3),
       st.integers(1, 40), st.data())
def test_receptive_range_matches_enumeration(k, s, p, size, data):
    out_n = (size + 2 * p - k) // s + 1
    if out_n < 1:
        return
    lo = data.draw(st.integers(0, out_n - 1))
    hi = data.draw(st.integers(lo + 1, out_n))
    ilo, ihi, plo, phi = L.receptive_range(lo, hi, k, s, p, size)
    cells = touched_inputs(lo, hi, k, s, p, size)
    # the contiguous range must cover every touched cell; without padding
    # it is exactly the touched extent
    assert cells <= set(range(ilo, ihi))
    if cells and p == 0:
        assert (ilo, ihi) == (min(cells), max(cells) + 1)
    # the range is the window's real rows and the padding its other rows,
    # so a window wholly in the padding (p >= k) is an empty range
    window = range(lo * s - p, (hi - 1) * s + k - p)
    assert set(range(ilo, ihi)) == set(window) & set(range(size))
    assert 0 <= ilo <= ihi <= size
    assert plo == sum(r < 0 for r in window)
    assert phi == sum(r >= size for r in window)


@pytest.mark.parametrize("lo,hi,k,s,p,size,want", [
    (16, 17, 1, 1, 4, 9, (9, 9, 0, 1)),    # below the last input row
    (0, 1, 1, 3, 1, 1, (0, 0, 1, 0)),      # above the first
    (0, 2, 2, 1, 4, 3, (0, 0, 3, 0)),
    (8, 10, 2, 1, 4, 3, (3, 3, 0, 3)),
    (0, 1, 1, 1, 1, 5, (0, 0, 1, 0))])     # on the edge: as before
def test_receptive_range_wholly_in_padding_is_empty(lo, hi, k, s, p, size,
                                                    want):
    # these windows hold no input row; they gave a negative row count
    # (in_lo past in_hi) or more padding than the window has rows
    assert L.receptive_range(lo, hi, k, s, p, size) == want


def width_strips(geom, cfg, min_parts=1):
    """_strip_chain over the one windowed stage of geom: per strip, the
    output column range and the input column range feeding it."""
    (_, w_i, c_i), (_, w_o, c_o) = geom.in_shape, geom.out_shape
    level = (geom.kernel[1], geom.stride[1], geom.padding[1], w_i, c_i)
    return [(out[:2], inp[:2]) for out, inp in
            L._strip_chain(w_o, c_o, [level], cfg, min_parts)]


def test_w_split_identity_when_under_gamma():
    geom = L.OpGeometry("conv", (8, 8, 4), (8, 8, 4), (3, 3), (1, 1), (1, 1))
    assert width_strips(geom, cfg(gamma=64)) == [((0, 8), (0, 8))]


def test_w_split_overlap_columns():
    # w_o=8, k=3, s=1, p=0 split in two at column 4: with 0-based half-open
    # ranges the halves read input columns [0,6) and [4,10)->[4,10), i.e.
    # 1-based [1,6] and [5,8] with overlap {5,6} on a 10-wide input
    geom = L.OpGeometry("conv", (4, 10, 1), (4, 8, 1), (1, 3), (1, 1), (0, 0))
    strips = width_strips(geom, cfg(gamma=6))
    assert strips == [((0, 4), (0, 6)), ((4, 8), (4, 10))]
    # oracle agreement, including the two-column overlap
    assert touched_inputs(0, 4, 3, 1, 0, 10) == set(range(0, 6))
    assert touched_inputs(4, 8, 3, 1, 0, 10) == set(range(4, 10))
    (_, a_in), (_, b_in) = strips
    assert set(range(*a_in)) & set(range(*b_in)) == {4, 5}


def test_w_split_unit_kernel_disjoint():
    geom = L.OpGeometry("conv", (4, 8, 2), (4, 8, 2), (1, 1), (1, 1), (0, 0))
    strips = width_strips(geom, cfg(gamma=8))
    assert len(strips) >= 2
    for (_, a_in), (_, b_in) in zip(strips, strips[1:]):
        assert a_in[1] <= b_in[0]


def test_w_split_infeasible_single_column():
    # one column is already past gamma: no deeper split helps; whether
    # unfusing may is the retry ladder's decision
    # (tests/test_compiler.py::test_fused_node_ends_at_its_unfuse_step)
    geom = L.OpGeometry("conv", (4, 8, 64), (4, 8, 64), (1, 1), (1, 1), (0, 0))
    with pytest.raises(CapacityError):
        width_strips(geom, cfg(gamma=32))


def test_tile_tree_groups_tiles_by_coordinates():
    # walked slab -> strip -> band, consecutive tiles alternate strips;
    # the tree still has one node per strip and one per slab under it, in
    # the order each first appears
    strips = [((4, 8), (3, 10)), ((0, 4), (0, 5))]
    slabs = [(8, 16), (0, 8)]
    bands = [(0, 2), (2, 3)]
    conv = Instruction(op=CONV, sub="conv")
    tiles = [L.Tile([("CONV", [conv])], rows, cols, in_cols, ch)
             for ch in slabs for cols, in_cols in strips for rows in bands]
    leaf = [{"kind": "leaf", "leaf": "CONV/conv"}]
    assert L.tile_tree(tiles) == {"kind": "node", "children": [
        {"kind": "strip", "cols": list(cols), "in_cols": list(in_cols),
         "children": [
             {"kind": "slab", "ch": list(ch), "children": [
                 {"kind": "tile", "rows": list(rows), "children": leaf}
                 for rows in bands]}
             for ch in slabs]}
        for cols, in_cols in strips]}


@given(st.integers(1, 5), st.integers(1, 3), st.integers(0, 2),
       st.integers(2, 30), st.integers(1, 6))
@settings(max_examples=60)
def test_w_split_covers_all_columns(k, s, p, w_o, c):
    w_i = (w_o - 1) * s + k - 2 * p
    if w_i < k - 2 * p or w_i < 1:
        return
    geom = L.OpGeometry("conv", (4, w_i, c), (4, w_o, c), (1, k), (1, s),
                        (0, p))
    strips = width_strips(geom, cfg(gamma=max(k * c, 2 * c, 8)), min_parts=2)
    cols = []
    for out_cols, in_cols in strips:
        cols.extend(range(*out_cols))
        need = touched_inputs(*out_cols, k, s, p, w_i)
        assert need <= set(range(*in_cols))
    assert cols == list(range(w_o))


def identity_plan(geom, cfg, h_cap):
    """The band plan of an unfused conv, as _lower_conv asks for it."""
    ident = L.OpGeometry("identity", geom.out_shape, geom.out_shape)
    return L.plan_fusion(geom, ident, cfg, h_cap=h_cap)


def band_height(geom, cfg, h_cap):
    """The planned band height, raising as _lower_conv does when no
    height fits."""
    plan = identity_plan(geom, cfg, h_cap)
    if not plan.enabled:
        raise InfeasibleError(plan.reason)
    assert plan.out_per_instr == 1 and plan.h_conv == plan.k
    return plan.k


def height_bands(geom, cfg, preferred_h):
    """Output row bands of the planned height, as _lower_conv walks them,
    each with the input row range it reads."""
    h = band_height(geom, cfg, preferred_h)
    h_o, h_i = geom.out_shape[0], geom.in_shape[0]
    k, s, p = geom.kernel[0], geom.stride[0], geom.padding[0]
    return [((lo, min(h_o, lo + h)),
             L.receptive_range(lo, min(h_o, lo + h), k, s, p, h_i)[:2])
            for lo in range(0, h_o, h)]


def test_h_split_12_row_window_for_k5():
    # preferred height 8 with a 5-tap stride-1 kernel reads 12 input rows
    geom = L.OpGeometry("conv", (64, 16, 16), (60, 12, 16), (5, 5), (1, 1),
                        (0, 0))
    out_rows, in_rows = height_bands(geom, cfg(), preferred_h=8)[0]
    assert out_rows == (0, 8)
    assert in_rows[1] - in_rows[0] == 12


def test_h_split_exact_fit_single_child():
    geom = L.OpGeometry("conv", (10, 8, 4), (8, 8, 4), (3, 3), (1, 1), (0, 0))
    assert height_bands(geom, cfg(), preferred_h=8) == [((0, 8), (0, 10))]


def test_h_split_tail_band_and_overlap():
    geom = L.OpGeometry("conv", (22, 8, 4), (20, 8, 4), (3, 3), (1, 1), (0, 0))
    bands = height_bands(geom, cfg(), preferred_h=8)
    assert [out for out, _ in bands] == [(0, 8), (8, 16), (16, 20)]
    # neighbors overlap by k - s = 2 input rows
    for (_, a_in), (_, b_in) in zip(bands, bands[1:]):
        assert a_in[1] - b_in[0] == 2
    for out_rows, in_rows in bands:
        assert touched_inputs(*out_rows, 3, 1, 0, 22) == set(range(*in_rows))


def test_h_split_reduces_height_to_fit_fm():
    small = cfg(fm_bank_rows=1, fm_row_bytes=128, gamma=256)
    # double-buffered window of (h-1)+3 rows x 64 B must fit 1024 B
    geom = L.OpGeometry("conv", (32, 16, 4), (30, 16, 4), (3, 3), (1, 1),
                        (0, 0))
    h = band_height(geom, small, 8)
    assert 1 <= h < 8
    win = (h - 1) + 3
    assert 2 * small.round_to_bank_row(win * 64) <= small.fm_bytes
    # one more row would not fit
    assert 2 * small.round_to_bank_row((win + 1) * 64) > small.fm_bytes
    # at 144 B per row only a single-row band (3-row window) fits
    wide = L.OpGeometry("conv", (32, 36, 4), (30, 36, 4), (3, 3), (1, 1),
                        (0, 0))
    assert band_height(wide, small, 8) == 1


def test_h_split_infeasible_at_height_one():
    tiny = cfg(fm_bank_rows=1, fm_row_bytes=64, gamma=8192)
    geom = L.OpGeometry("conv", (32, 32, 16), (30, 30, 16), (3, 3), (1, 1),
                        (0, 0))
    with pytest.raises(InfeasibleError, match="input window of 3 rows"):
        band_height(geom, tiny, 8)


@given(k=st.integers(1, 5), s=st.integers(1, 3), p=st.integers(0, 2),
       h=st.integers(1, 40), w=st.integers(1, 40), c_in=st.integers(1, 32),
       c_out=st.integers(1, 32), row_bytes=st.sampled_from([16, 64, 256]),
       bank_rows=st.integers(1, 4), h_cap=st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_identity_band_plan_is_largest_fitting_height(k, s, p, h, w, c_in,
                                                      c_out, row_bytes,
                                                      bank_rows, h_cap):
    # the unfused conv's band rule, spelled out as an oracle: the largest
    # height whose double-buffered input window and output band each fit
    # one FM memory
    h_o, w_o = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
    if h_o < 1 or w_o < 1:
        return
    c = cfg(fm_row_bytes=row_bytes, fm_bank_rows=bank_rows)
    geom = L.OpGeometry("conv", (h, w, c_in), (h_o, w_o, c_out), (k, k),
                        (s, s), (p, p))

    def fits(rows, row):
        return 2 * c.round_to_bank_row(rows * row) <= c.fm_bytes

    ok = [b for b in range(1, min(h_cap, h_o) + 1)
          if fits((b - 1) * s + k, w * c_in) and fits(b, w_o * c_out)]
    plan = identity_plan(geom, c, h_cap)
    assert plan.enabled == bool(ok), plan.reason
    if ok:
        assert plan.k == max(ok) and plan.out_per_instr == 1


# ---------------------------------------------------------------------------
# fusion planning
# ---------------------------------------------------------------------------

def conv_geom(h=64, w=12, c=16, out_c=16, k=5, s=1, p=0):
    oh = (h + 2 * p - k) // s + 1
    ow = (w + 2 * p - k) // s + 1
    return L.OpGeometry("conv", (h, w, c), (oh, ow, out_c), (k, k), (s, s),
                        (p, p))


def pool_geom(mid, k=2, s=2, p=0):
    oh = (mid.out_shape[0] + 2 * p - k) // s + 1
    ow = (mid.out_shape[1] + 2 * p - k) // s + 1
    return L.OpGeometry("maxpool", mid.out_shape,
                        (oh, ow, mid.out_shape[2]), (k, k), (s, s), (p, p))


def test_plan_fusion_pool_2x2_s2():
    cg = conv_geom()
    plan = L.plan_fusion(cg, pool_geom(cg, 2, 2), cfg())
    assert plan.enabled
    # one conv tile of 8 intermediate rows feeds 4 pool instructions
    assert plan.k == 4 and plan.h_conv == 8 and plan.h_p == 2
    assert plan.k * plan.h_p == plan.h_conv
    assert plan.out_per_instr == 1
    assert plan.t_h == 2 and plan.carry == 0


def test_plan_fusion_carry_disables():
    cg = conv_geom()
    plan = L.plan_fusion(cg, pool_geom(cg, 3, 2), cfg())
    assert not plan.enabled
    # rate math still reported: 1-row output window is 3 rows, 1 carried
    assert plan.h_p == 2 and plan.t_h == 3 and plan.carry == 1


def rate_match_oracle(h_conv, advance, n_rows):
    """Simulate row production/consumption; consumer takes `advance` fresh
    rows per instruction, producer makes h_conv rows per tile."""
    produced = 0
    consumed = 0
    instrs_per_tile = []
    while produced < n_rows:
        produced = min(n_rows, produced + h_conv)
        n = 0
        while consumed + advance <= produced:
            consumed += advance
            n += 1
        instrs_per_tile.append(n)
    return instrs_per_tile


@pytest.mark.parametrize("ck", [1, 2, 3, 5, 7])
@pytest.mark.parametrize("cs", [1, 2, 3])
@pytest.mark.parametrize("pk", [1, 2, 3, 5, 7])
@pytest.mark.parametrize("ps", [1, 2, 3])
def test_plan_fusion_steady_state_sweep(ck, cs, pk, ps):
    h = 96
    if (h - ck) // cs + 1 < pk:
        return
    cg = conv_geom(h=h, w=16, c=8, out_c=8, k=ck, s=cs, p=0)
    pg = pool_geom(cg, pk, ps)
    if pg.out_shape[0] < 1:
        return
    plan = L.plan_fusion(cg, pg, cfg())
    if plan.enabled:
        assert plan.k >= 1
        assert plan.k * plan.h_p == plan.h_conv
        assert plan.h_conv <= cfg().h_c
        # consumption keeps pace with production at the steady state
        per_tile = rate_match_oracle(plan.h_conv, plan.h_p,
                                     plan.h_conv * 6)
        assert all(n == plan.k for n in per_tile)
    else:
        assert plan.reason


# ---------------------------------------------------------------------------
# deconvolution decomposition, checked against an overlay oracle
# ---------------------------------------------------------------------------

def deconv_reference(x, w, bias, s, p):
    """upsample (zero-insert) + pad + stride-1 conv, from the definition"""
    h, wd, ci = x.shape
    co, k, _, _ = w.shape
    uh, uw = (h - 1) * s + 1, (wd - 1) * s + 1
    u = np.zeros((uh, uw, ci), np.int64)
    u[::s, ::s] = x
    u = np.pad(u, ((p, p), (p, p), (0, 0)))
    oh, ow = uh + 2 * p - k + 1, uw + 2 * p - k + 1
    out = np.zeros((oh, ow, co), np.int64)
    for oy in range(oh):
        for ox in range(ow):
            window = u[oy:oy + k, ox:ox + k]
            for o in range(co):
                out[oy, ox, o] = np.sum(window * w[o].transpose(0, 1, 2)) \
                    + bias[o]
    return out


def series_reference(x, plan, bias, s):
    """Evaluate the sub-convolutions and interleave by phase."""
    h, wd, ci = x.shape
    sks = plan.sub_kernels
    co = sks[0].taps.shape[0]
    oh = max(sk.phase[0] + (sk.out_rows - 1) * s for sk in sks) + 1
    ow = max(sk.phase[1] + (sk.out_cols - 1) * s for sk in sks) + 1
    out = np.zeros((oh, ow, co), np.int64)
    for sk in sks:
        ry, rx = sk.phase
        th, tw = sk.taps.shape[1], sk.taps.shape[2]
        pt, pl = sk.pad[0], sk.pad[1]
        ct, cl = sk.crop
        for t in range(sk.out_rows):
            for u_ in range(sk.out_cols):
                for o in range(co):
                    acc_o = bias[o]
                    for a in range(th):
                        for b in range(tw):
                            iy = t + a - pt + ct
                            ix = u_ + b - pl + cl
                            if 0 <= iy < h and 0 <= ix < wd:
                                acc_o += int(np.dot(
                                    x[iy, ix].astype(np.int64),
                                    sk.taps[o, a, b].astype(np.int64)))
                    out[ry + t * s, rx + u_ * s, o] = acc_o
    return out


def test_deconv_k4_s2_gives_four_2x2_kernels():
    rng = np.random.default_rng(0)
    w = rng.integers(-8, 8, (3, 4, 4, 2), dtype=np.int8)
    plan = L.decompose_deconv(w, 2, 2, (6, 6, 2), (12, 12, 3))
    assert len(plan.sub_kernels) == 4
    for sk in plan.sub_kernels:
        assert sk.taps.shape[1:3] == (2, 2)


def test_deconv_k3_s2_tap_partition_sizes():
    rng = np.random.default_rng(1)
    w = rng.integers(-8, 8, (2, 3, 3, 2), dtype=np.int8)
    h_in, w_in = 5, 5
    oh = (h_in - 1) * 2 + 1 + 2 * 2 - 3 + 1
    plan = L.decompose_deconv(w, 2, 2, (h_in, w_in, 2), (oh, oh, 2))
    sizes = sorted(sk.taps.shape[1] * sk.taps.shape[2]
                   for sk in plan.sub_kernels)
    assert sizes == [1, 2, 2, 4]  # {1x1, 1x2, 2x1, 2x2}


def test_deconv_corner_products_match_kernel_walk():
    # k=3, s=2, p=2: first output touches only the bottom-right tap; the
    # third output on the row combines taps k6 and k8 with x0 and x1
    k = np.arange(9, dtype=np.int8).reshape(1, 3, 3, 1)  # k0..k8 row-major
    x = np.arange(1, 26, dtype=np.int8).reshape(5, 5, 1)
    bias = np.zeros(1, np.int64)
    ref = deconv_reference(x, k, bias, 2, 2)
    x0 = int(x[0, 0, 0])
    x1 = int(x[0, 1, 0])
    assert ref[0, 0, 0] == x0 * 8          # x0 * k8
    assert ref[0, 1, 0] == x0 * 7          # x0 * k7
    assert ref[0, 2, 0] == x0 * 6 + x1 * 8  # x0*k6 + x1*k8


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
def test_deconv_series_equals_upsample_conv(k):
    rng = np.random.default_rng(k)
    s, p = 2, 2
    ci, co = 3, 2
    x = rng.integers(-128, 128, (5, 6, ci)).astype(np.int8)
    w = rng.integers(-64, 64, (co, k, k, ci)).astype(np.int8)
    bias = rng.integers(-100, 100, co).astype(np.int64)
    h_in, w_in = x.shape[:2]
    oh = (h_in - 1) * s + 1 + 2 * p - k + 1
    ow = (w_in - 1) * s + 1 + 2 * p - k + 1
    plan = L.decompose_deconv(w, s, p, x.shape, (oh, ow, co))
    assert len(plan.sub_kernels) == min(k, s) ** 2 == 4
    # tap sets partition the kernel without repetition
    total = sum(sk.taps.shape[1] * sk.taps.shape[2]
                for sk in plan.sub_kernels)
    assert total == k * k
    ref = deconv_reference(x, w, bias, s, p)
    got = series_reference(x, plan, bias, s)
    assert got.shape == ref.shape
    assert np.array_equal(got, ref)
    # no zero computations: strictly fewer multiplications
    assert L.series_mult_count(plan, co, ci) < \
        L.upsample_conv_mult_count((oh, ow, co), k, ci)


def test_deconv_s1_identity():
    w = np.ones((1, 3, 3, 1), np.int8)
    plan = L.decompose_deconv(w, 1, 1, (4, 4, 1), (4, 4, 1))
    assert len(plan.sub_kernels) == 1
    assert np.array_equal(plan.sub_kernels[0].taps, w)


def test_deconv_s3_unsupported():
    w = np.ones((1, 3, 3, 1), np.int8)
    with pytest.raises(UnsupportedError):
        L.decompose_deconv(w, 3, 2, (4, 4, 1), (10, 10, 1))


def test_deconv_k_smaller_than_s_falls_back():
    w = np.ones((1, 1, 1, 1), np.int8)
    with pytest.raises(UnsupportedError,
                       match="kernel 1 smaller than upsample 2"):
        L.decompose_deconv(w, 2, 1, (4, 4, 1), (7, 7, 1))


# ---------------------------------------------------------------------------
# weight tiling
# ---------------------------------------------------------------------------

def test_weight_tiling_single_slab():
    slabs = L.weight_tiling(16, 3, 3, 8, cfg(pm_bytes=65536))
    assert len(slabs) == 1
    assert slabs[0].c_lo == 0 and slabs[0].c_hi == 16


def test_weight_tiling_80kb_into_64kb_pm():
    # 80 KB of weights with 64 KB PM: slabs capped at 32 KB, so >= 3 slabs
    c_out, kh, kw, c_in = 80, 32, 32, 1  # 80 * 1024 B of taps
    slabs = L.weight_tiling(c_out, kh, kw, c_in, cfg(pm_bytes=65536))
    assert len(slabs) >= 3
    for s in slabs:
        assert s.nbytes <= 65536 // 2
    assert slabs[0].c_lo == 0 and slabs[-1].c_hi == c_out
    for a, b in zip(slabs, slabs[1:]):
        assert a.c_hi == b.c_lo  # whole-channel boundaries


def test_weight_tiling_channel_too_large():
    with pytest.raises(CapacityError, match="one output channel needs"):
        L.weight_tiling(4, 64, 64, 64, cfg(pm_bytes=131072))
