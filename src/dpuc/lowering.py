"""Recursive lowering of scheduled nodes into hardware-sized tiles.

Split order is fixed: width first (so the gamma row-vector limit holds
independent of height), then height, then weights.  Width strips are
back-propagated through the node's chain of windowed stages
(`_strip_chain`).  Every conv is lowered as a conv and its consumer, the
fused max pool or else the identity, and `plan_fusion` plans its bands:
the largest conv band, at most the retry ladder's cap
(`LowerContext.h_cap`), whose double-buffered windows fit FM.  Each
`Tile` records the output rows of its band, the output and input columns
of its width strip and the output channels of its weight slab or concat
part; `tile_tree` nests them for `dpuc compile --dump-tiles`.  Each leaf is
one ISA instruction (`machine.Instruction`) with every field final except
its addresses: src, src2 and dst stay symbolic (`Win`, `TensorAt`,
`ParamAt`) until window planning and the DDR layout place them, and the
compiler's binder then replaces them.  `lower_node` lists those operands
once per node (`LoweredNode.operands`), and FM memory roles, window
planning, the DDR swap set and the binder all read that list.  Transfer
geometry, strides, PM offsets and weight sizes are all decided here; every
activation LOAD and SAVE comes from `_transfer`, one per row of a rows x
columns x channels box of a DDR tensor.  Node attrs are read as
`graph.parse_graph` resolved them: defaults filled in, pairs as tuples.
Windows are not declared: a window is as large as the bytes its `Win`
operands touch (`compiler._plan_windows`), and its stream's FM memory
follows from which streams the writing instruction reads
(`memory.assign_fm_memories`).

Every tensor lives in DDR between nodes.  Tiles re-read their full input
window from DDR (the per-tile load stage), so consecutive tiles of a
strided kernel re-load the k - s overlapping rows.  That keeps every tile
self-contained and the per-class liveness at the two-slice
double-buffering bound.  The exception is a conv whose weights stream
through several PM slabs.  Its tiles are walked strip -> slab -> band, and
one reuse rule decides what each loads: a tile loads its (strip, band)
input window only when that window is not already in FM, and a weight
slab only when the slab's PM half does not already hold it.  The first
slab's tiles load a strip's input windows; when one window slot per band
fits one FM memory the windows stay there, and the convs of the later
slabs read them (their src `Win` names the loading tile) instead of
re-loading them once per slab.  When they do not fit, every slab's tiles
re-load their windows.

The PM double buffer is the one thing lowering takes from the node order.
Such a conv's slabs alternate between the PM halves starting from the
half the previous node with weights left free (`LowerContext.pm_busy`,
derived by the compiler from that node's last CONV), and a slab whose
half that CONV still reads when the node starts loads behind the first
band's input rows, in every width strip.  The halves change no size and
no feasibility.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import quant
from .errors import CapacityError, InfeasibleError, UnsupportedError
from .machine import Addr, CONV, Instruction, LOAD, MISC, PM, SAVE


def receptive_range(lo, hi, k, s, p, size):
    """Input range feeding output rows [lo, hi) of a windowed op.

    Returns (in_lo, in_hi, pad_lo, pad_hi), 0-based, clamped to the real
    input extent; pad_* count virtual zero rows outside it.  A range wholly
    in the padding (p >= k allows one) is empty, at the nearer edge.
    """
    raw_lo = lo * s - p
    raw_hi = (hi - 1) * s + k - p
    in_lo = min(size, max(0, raw_lo))
    in_hi = max(in_lo, min(size, raw_hi))
    return (in_lo, in_hi, max(0, min(0, raw_hi) - raw_lo),
            max(0, raw_hi - max(size, raw_lo)))


@dataclass(frozen=True)
class OpGeometry:
    op: str
    in_shape: tuple
    out_shape: tuple
    kernel: tuple = (1, 1)
    stride: tuple = (1, 1)
    padding: tuple = (0, 0)


# ---------------------------------------------------------------------------
# width and height splitting
# ---------------------------------------------------------------------------

def _even_ranges(n, parts):
    base, rem = divmod(n, parts)
    out = []
    lo = 0
    for i in range(parts):
        hi = lo + base + (1 if i < rem else 0)
        out.append((lo, hi))
        lo = hi
    return out


def _strip_chain(out_w, out_c, levels, cfg, min_parts):
    """Width strips back-propagated through a chain of windowed stages.

    levels: innermost-last list of (kw, sw, pw, in_w, c) from the final
    output toward the input; the final output byte width is levels[0]'s
    "output".  Returns per-strip lists of (lo, hi, pad_l, pad_r) per level,
    outermost (final output) first.  When no strip count from min_parts
    up to out_w fits gamma, a deeper split cannot help either: that is a
    CapacityError (unfusing a fused chain changes its levels, which the
    retry ladder decides).
    """
    parts = max(min_parts, 1)
    while True:
        if parts > out_w:
            raise CapacityError(
                f"cannot width-split {out_w} columns into {parts} strips")
        strips = []
        for lo, hi in _even_ranges(out_w, parts):
            chain = [(lo, hi, 0, 0)]
            cur = (lo, hi)
            for kw, sw, pw, in_w, _c in levels:
                ilo, ihi, pl, pr = receptive_range(cur[0], cur[1], kw, sw,
                                                   pw, in_w)
                chain.append((ilo, ihi, pl, pr))
                cur = (ilo, ihi)
            strips.append(chain)
        # gamma feasibility at every level of every strip; level 0 is the
        # final output whose byte width is the caller's out_c
        cs = [out_c] + [l[4] for l in levels]
        ok = all((rhi - rlo) * c <= cfg.gamma
                 for chain in strips
                 for (rlo, rhi, _, _), c in zip(chain, cs))
        if ok:
            return strips
        parts += 1


# ---------------------------------------------------------------------------
# band planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FusionPlan:
    """Steady-state rate match between a conv producer and its consumer.

    h_conv: producer tile height (intermediate rows per conv tile)
    h_p: consumer tile height (intermediate rows advanced per consumer
         instruction); ratio k satisfies k * h_p == h_conv exactly
    out_per_instr: consumer output rows per instruction
    t_h: intermediate window rows one consumer instruction reads,
         (out_per_instr - 1) * stride + kernel
    carry: t_h - h_p, rows re-read from the previous consumer window
    """
    enabled: bool
    k: int = 0
    h_conv: int = 0
    h_p: int = 0
    out_per_instr: int = 0
    t_h: int = 0
    carry: int = 0
    reason: str = ""


def plan_fusion(conv_geom, consumer_geom, cfg, h_cap=None):
    """The band plan of a conv and its consumer: the largest conv tile
    height H_c' <= h_cap (by default H_c) with an integer consumer ratio
    whose input window and intermediate band both fit FM double-buffered.

    The consumer is one of two.  A max pool advances max(1, h_p // stride)
    output rows per MISC instruction; the identity consumer of an unfused
    conv has no MISC stage and advances one row, so its k is the band
    height.  Pools whose kernel exceeds their stride would carry rows
    between consumer tiles, forcing reshaped (less efficient) tiles, so
    fusion is turned off for them; the rate math is still reported.
    """
    if consumer_geom.op == "maxpool":
        pk, ps = consumer_geom.kernel[0], consumer_geom.stride[0]
        out_per = max(1, cfg.h_p // ps)
    else:
        pk = ps = out_per = 1

    advance = out_per * ps
    t_h = (out_per - 1) * ps + pk
    carry = t_h - advance

    mid_h = conv_geom.out_shape[0]
    k_max = min(h_cap or cfg.h_c, mid_h) // advance
    if k_max < 1:
        return FusionPlan(False, h_p=advance, out_per_instr=out_per, t_h=t_h,
                          carry=max(0, carry),
                          reason="consumer advance exceeds conv tile height")

    h_i, w_i, c_i = conv_geom.in_shape
    _, w_m, c_m = conv_geom.out_shape
    ck, cs = conv_geom.kernel[0], conv_geom.stride[0]

    def fits(rows, row_bytes):
        return 2 * cfg.round_to_bank_row(rows * row_bytes) <= cfg.fm_bytes

    for k in range(k_max, 0, -1):
        h_conv = k * advance
        in_rows = (h_conv - 1) * cs + ck
        mid_rows = h_conv + max(0, carry)
        if fits(in_rows, w_i * c_i) and fits(mid_rows, w_m * c_m):
            if carry > 0:
                return FusionPlan(False, k=k, h_conv=h_conv, h_p=advance,
                                  out_per_instr=out_per, t_h=t_h, carry=carry,
                                  reason="consumer kernel exceeds stride; "
                                         "tiles would carry rows")
            return FusionPlan(True, k=k, h_conv=h_conv, h_p=advance,
                              out_per_instr=out_per, t_h=t_h, carry=0)
    # the last band tried was the smallest one, k = 1
    big = [f"{what} of {rows} rows x {row_bytes} B"
           for what, rows, row_bytes in (("input window", in_rows, w_i * c_i),
                                         ("conv output band", mid_rows,
                                          w_m * c_m))
           if not fits(rows, row_bytes)]
    return FusionPlan(False, h_p=advance, out_per_instr=out_per, t_h=t_h,
                      carry=max(0, carry),
                      reason=" and ".join(big) + " cannot be double-buffered "
                             f"in one FM memory ({cfg.fm_bytes} B)")


# ---------------------------------------------------------------------------
# transpose convolution decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubKernel:
    phase: tuple        # (dy, dx) output phase in [0, s)^2
    taps: np.ndarray    # (c_o, th, tw, c_i) slice of the deconv kernel
    pad: tuple          # effective (top, left, bottom, right) over X
    crop: tuple         # leading input rows/cols skipped (top, left)
    out_rows: int
    out_cols: int

    def __eq__(self, other):
        return (isinstance(other, SubKernel) and self.phase == other.phase
                and np.array_equal(self.taps, other.taps)
                and self.pad == other.pad and self.crop == other.crop
                and self.out_rows == other.out_rows
                and self.out_cols == other.out_cols)


@dataclass(frozen=True)
class DeconvPlan:
    sub_kernels: tuple


def _phase_axis(k, s, p, out_n, in_n):
    """Per-phase tap positions and geometry along one axis."""
    phases = []
    for r in range(s):
        ds = [d for d in range(k) if (r + d - p) % s == 0]
        es = [(r + d - p) // s for d in ds]
        e_min, e_max = es[0], es[-1]
        n_out = max(0, -(-(out_n - r) // s))  # ceil((out_n - r)/s)
        pad_lo = max(0, -e_min)
        crop = max(0, e_min)
        pad_hi = max(0, (n_out - 1) + e_max - (in_n - 1))
        phases.append((r, ds, pad_lo, pad_hi, crop, n_out))
    return phases


def decompose_deconv(weights, upsample, padding, in_shape, out_shape):
    """Replace upsample + conv with min(k, s)^2 dense sub-convolutions.

    Each output phase (oy % s, ox % s) collects exactly the kernel taps
    that land on non-zero positions of the zero-inserted input, so the tap
    sets partition the deconv kernel and no multiplication touches an
    inserted zero.  Phase outputs are interleaved back by a shuffle stage.
    Raises UnsupportedError where the decomposition does not apply, and
    the lowering then takes the upsample+conv path.
    """
    s = upsample
    c_o, k, _, c_i = weights.shape
    if s > 2:
        raise UnsupportedError(f"upsample {s}x{s} not supported; use the "
                               f"upsample+conv path")
    if s == 1:
        sub = SubKernel((0, 0), weights, (padding,) * 4, (0, 0),
                        out_shape[0], out_shape[1])
        return DeconvPlan((sub,))
    if k < s:
        # some output phases would receive no taps at all (bias only)
        raise UnsupportedError(f"kernel {k} smaller than upsample {s}")

    h_in, w_in, _ = in_shape
    h_out, w_out, _ = out_shape
    rows = _phase_axis(k, s, padding, h_out, h_in)
    cols = _phase_axis(k, s, padding, w_out, w_in)
    subs = []
    for ry, dys, pt, pb, crop_t, n_r in rows:
        for rx, dxs, pl, pr, crop_l, n_c in cols:
            taps = weights[:, dys][:, :, dxs]
            subs.append(SubKernel((ry, rx), taps, (pt, pl, pb, pr),
                                  (crop_t, crop_l), n_r, n_c))
    assert len(subs) == min(k, s) ** 2
    return DeconvPlan(tuple(subs))


def series_mult_count(plan, c_o, c_i):
    return sum(sk.out_rows * sk.out_cols * c_o
               * sk.taps.shape[1] * sk.taps.shape[2] * c_i
               for sk in plan.sub_kernels)


def upsample_conv_mult_count(out_shape, k, c_i):
    h, w, c_o = out_shape
    return h * w * c_o * k * k * c_i


# ---------------------------------------------------------------------------
# weight tiling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Slab:
    c_lo: int
    c_hi: int
    nbytes: int   # int8 taps + int32 biases of channels [c_lo, c_hi)


def weight_tiling(c_out, kh, kw, c_in, cfg):
    """Split conv weights into PM slabs along output channels.

    A single slab is used when weights + biases fit PM outright, at PM
    offset 0; otherwise slabs are capped at half of PM so the next slab's
    LOAD can overlap the running slab's convolutions (double buffering).
    The double buffer runs on across nodes: slab si lives in PM half
    (si + h0) % 2, where h0 is the first half the previous node with
    weights leaves free (`LowerContext.pm_busy`), so the first slab loads
    while that node still convolves.  The conv lowering issues every
    prefetch behind the activation loads of a LOAD stage, so the in-order
    LOAD queue never holds a tile's input rows behind a weight load that
    waits on a conv still reading its half.  A slab is loaded only when
    its half does not already hold it: with two slabs, or three, later
    width strips find slab 1 still in its half.
    """
    per_ch = kh * kw * c_in + 4  # int8 taps + int32 bias
    total = c_out * per_ch
    if total <= cfg.pm_bytes:
        return [Slab(0, c_out, total)]
    half = cfg.pm_bytes // 2
    ch_per_slab = half // per_ch
    if ch_per_slab < 1:
        raise CapacityError(
            f"one output channel needs {per_ch} B, more than half of PM "
            f"({half} B)")
    slabs = []
    for lo in range(0, c_out, ch_per_slab):
        hi = min(c_out, lo + ch_per_slab)
        slabs.append(Slab(lo, hi, (hi - lo) * per_ch))
    return slabs


# ---------------------------------------------------------------------------
# symbolic addresses
# ---------------------------------------------------------------------------
# The ISA fixes the stream roles: an instruction reads the windows its src
# and src2 name and writes the one its dst names.

class Win(NamedTuple):
    """Byte `off` of the FM window that tile `tile` owns on `stream`."""
    stream: str
    tile: int
    off: int


class TensorAt(NamedTuple):
    """Byte `off` of DDR tensor `name`."""
    name: str
    off: int


class ParamAt(NamedTuple):
    """Start of the node's PM block `block` in the parameter image."""
    block: int


def _weight_load(block, pm_off, nbytes):
    return Instruction(op=LOAD, sub="weight", src=ParamAt(block),
                       dst=Addr(PM, pm_off), rows=1, blocks=1,
                       block_bytes=nbytes, ddr_row_stride=nbytes,
                       ddr_blk_stride=0)


def _conv(src, dst, wgt, in_rows, in_w, c_in, out_w, c_out, kernel, stride,
          pads, shift):
    """CONV over PM bytes wgt = (off, nbytes); pads = (top, left, bottom,
    right)."""
    (kh, kw), (sh, sw), (pt, pl, pb, pr) = kernel, stride, pads
    return Instruction(op=CONV, sub="conv", src=src, dst=dst,
                       wgt_off=wgt[0], wgt_bytes=wgt[1], in_rows=in_rows,
                       in_w=in_w, c_in=c_in, out_w=out_w, c_out=c_out,
                       kh=kh, kw=kw, sh=sh, sw=sw, pt=pt, pl=pl, pb=pb,
                       pr=pr, shift=shift)


def _pool_rows(src, dst, ti, rows, in_lo, in_h, in_w, c, out_w, out_per,
               pool, pads_lr, shift):
    """The max-pool stage of tile ti: output rows [lo, hi) of its window
    on dst, out_per rows per MISC instruction, each reading its receptive
    rows from the window on src, whose first row is input row in_lo.
    pool = (kernel, stride, padding); pads_lr = the strip's (left, right)
    padding."""
    (kh, kw), (sh, sw), ph = pool[0], pool[1], pool[2][0]
    lo, hi = rows
    out = []
    for plo in range(lo, hi, out_per):
        phi = min(hi, plo + out_per)
        glo, ghi, pt, pb = receptive_range(plo, phi, kh, sh, ph, in_h)
        out.append(Instruction(
            op=MISC, sub="maxpool", src=Win(src, ti, (glo - in_lo) * in_w * c),
            dst=Win(dst, ti, (plo - lo) * out_w * c), in_rows=ghi - glo,
            in_w=in_w, c_in=c, out_w=out_w, kh=kh, kw=kw, sh=sh, sw=sw,
            pt=pt, pl=pads_lr[0], pb=pb, pr=pads_lr[1], shift=shift))
    return out


@dataclass
class Tile:
    """One tile of a node and the part of the output it covers.

    stages: ordered (queue, [Instruction]) groups; every tile of a node
    has the same queue sequence (the pipeliner aligns stages by
    position), so a stage with nothing to do keeps its place as an empty
    group.  rows: the output rows of its height band.  cols, in_cols: the
    output and input columns of its width strip, and ch: the output
    channels of its weight slab or concat part; None where the node has
    no such split.  All ranges are [lo, hi)."""
    stages: list
    rows: tuple
    cols: tuple = None
    in_cols: tuple = None
    ch: tuple = None


# tiles.json nests one level per split, outermost first
_TREE_LEVELS = (("strip", ("cols", "in_cols")), ("slab", ("ch",)))


def tile_tree(tiles):
    """The tiles.json tree of one node's tiles: a level per split the
    node has (width strip, then weight slab or concat part), grouping the
    tiles that share its coordinates, in the order each group first
    appears, whatever order the tiles were walked in; under it one node
    per tile with its output rows, and one leaf ("op/sub") per
    instruction."""
    levels = [(kind, names) for kind, names in _TREE_LEVELS
              if tiles and getattr(tiles[0], names[0]) is not None]

    def nest(run, levels):
        if not levels:
            return [{"kind": "tile", "rows": list(t.rows),
                     "children": [{"kind": "leaf", "leaf": f"{i.op}/{i.sub}"}
                                  for _q, group in t.stages for i in group]}
                    for t in run]
        (kind, names), rest = levels[0], levels[1:]
        groups = {}
        for t in run:
            groups.setdefault(tuple(getattr(t, n) for n in names),
                              []).append(t)
        return [{"kind": kind, **{n: list(v) for n, v in zip(names, key)},
                 "children": nest(part, rest)}
                for key, part in groups.items()]

    return {"kind": "node", "children": nest(tiles, levels)}


@dataclass
class LoweredNode:
    node_id: str
    tiles: list
    pm_payloads: list = field(default_factory=list)  # bytes per PM block
    notes: dict = field(default_factory=dict)
    # (tile index, instruction, field, placeholder) per symbolic src, src2
    # or dst, in stage order, src before src2 before dst; set by lower_node
    operands: list = field(default_factory=list)
    # (stream, tile) -> memory.WindowAlloc, set by the window planner
    allocs: dict = field(default_factory=dict)


@dataclass
class LowerContext:
    """Everything lower_node needs from the surrounding schedule."""
    tensors: dict                 # name -> TensorRef
    h_cap: int                    # retry ladder: tile height cap, <= h_c
    # tensor -> (concat target, channel off)
    aliases: dict = field(default_factory=dict)
    deconv_mode: str = "series"
    w_min_parts: int = 1          # retry ladder: force deeper width split
    # PM halves (0, 1) the last CONV of the previous node with weights
    # reads; derived by the compiler from the node order
    pm_busy: tuple = ()


def _exp(tensor):
    return tensor.quant.exp


def _transfer(op, ctx, tensor, rows, cols, stream, ti, ch=None):
    """One LOAD or SAVE (op) per row of the rows x cols x ch box of DDR
    tensor `tensor` (ch: every channel by default), between that row and
    tile ti's window on `stream`, where the box is packed densely.  A
    concat input aliased into its concatenation is moved to and from the
    concatenation's channel slice; a slice narrower than the tensor is
    one block per column.  A box with no byte moves nothing."""
    name, ch_off = ctx.aliases.get(tensor.name, (tensor.name, 0))
    _h, w, c = ctx.tensors[name].shape
    (lo, hi), (clo, chi) = rows, cols
    ch0, ch1 = ch or (0, tensor.shape[2])
    n = (chi - clo) * (ch1 - ch0)
    if not n:
        return []
    blocks, size, blk = ((1, n, 0) if ch1 - ch0 == c
                         else (chi - clo, ch1 - ch0, c))
    # one row never steps it: LOADs carry the box row's bytes, SAVEs the pitch
    row_stride = n if op == LOAD else w * c
    out = []
    for r in range(lo, hi):
        ddr = TensorAt(name, (r * w + clo) * c + ch_off + ch0)
        fm = Win(stream, ti, (r - lo) * n)
        src, dst = (ddr, fm) if op == LOAD else (fm, ddr)
        out.append(Instruction(op=op, sub="act", src=src, dst=dst, rows=1,
                               blocks=blocks, block_bytes=size,
                               ddr_row_stride=row_stride,
                               ddr_blk_stride=blk))
    return out


def lower_node(node, ctx, cfg):
    """Recursive tiling of one scheduled node: width, height, then weights.

    Leaves are LOAD/CONV/MISC/SAVE instructions over symbolic addresses;
    prologue and epilogue tiles differ from steady tiles in their clamped
    input ranges and explicit padding attributes.  The node's symbolic
    operands are listed once, in `LoweredNode.operands`.
    """
    if node.op not in _LOWERERS:
        raise UnsupportedError(f"cannot lower op {node.op}")
    ln = _LOWERERS[node.op](node, ctx, cfg)
    ln.operands = [(ti, ins, f, a) for ti, tile in enumerate(ln.tiles)
                   for _q, group in tile.stages for ins in group
                   for f, a in (("src", ins.src), ("src2", ins.src2),
                                ("dst", ins.dst))
                   if type(a) in _SYMBOLIC]
    return ln


def _conv_shift(ctx, node, mid_quant):
    x = ctx.tensors[node.inputs[0]]
    return quant.conv_shift(_exp(x), node.params.wgt_quant.exp,
                            mid_quant.exp)


def _lower_conv(node, ctx, cfg):
    x = ctx.tensors[node.inputs[0]]
    y = ctx.tensors[node.output]
    h_i, w_i, c_i = x.shape
    a = node.attrs
    ck, cs, cp = a["kernel"], a["stride"], a["padding"]
    fused = node.fused
    mid = fused.mid if fused else y
    h_m, w_m, c_m = mid.shape
    conv_shift = _conv_shift(ctx, node, mid.quant)
    pool_shift = _exp(mid) - _exp(y)

    slabs = weight_tiling(c_m, ck[0], ck[1], c_i, cfg)
    # several slabs alternate between the two halves of PM, starting in
    # the first half the previous node with weights left free; slab 0 or
    # 1 whose half that node's last CONV still reads loads late (below)
    halves, late = [0], []
    if len(slabs) > 1:
        h0 = next((h for h in (0, 1) if h not in ctx.pm_busy), 0)
        halves = [(si + h0) % 2 for si in range(len(slabs))]
        late = [s for s in (0, 1) if halves[s] in ctx.pm_busy]
    pm_offs = [h * (cfg.pm_bytes // 2) for h in halves]

    # the conv's consumer window: the fused pool's, or the identity
    pk, ps, pp = ((fused.kernel, fused.stride, fused.padding) if fused
                  else ((1, 1), (1, 1), (0, 0)))
    strips = _strip_chain(y.shape[1], y.shape[2],
                          [(pk[1], ps[1], pp[1], w_m, c_m),
                           (ck[1], cs[1], cp[1], w_i, c_i)],
                          cfg, ctx.w_min_parts)
    # footprint feasibility over the widest strip, not the full tensor;
    # the last two levels of a chain are the conv's output and input
    w_mid_max = max(ch[-2][1] - ch[-2][0] for ch in strips)
    w_in_max = max(ch[-1][1] - ch[-1][0] for ch in strips)
    strip_conv = OpGeometry("conv", (h_i, w_in_max, c_i),
                            (h_m, w_mid_max, c_m), ck, cs, cp)
    consumer = OpGeometry("maxpool" if fused else "identity",
                          strip_conv.out_shape, y.shape, pk, ps, pp)
    plan = plan_fusion(strip_conv, consumer, cfg, h_cap=ctx.h_cap)
    if not plan.enabled:
        raise InfeasibleError(f"node {node.id}: no band height: "
                              f"{plan.reason}")
    band_h = plan.k * plan.out_per_instr  # final rows per tile

    tiles = []
    final_h = y.shape[0]
    bands = []   # (final rows, conv output rows, input rows, pad top/bottom)
    for blo in range(0, final_h, band_h):
        bhi = min(final_h, blo + band_h)
        mlo, mhi, _, _ = receptive_range(blo, bhi, pk[0], ps[0], pp[0], h_m)
        xlo, xhi, cpt, cpb = receptive_range(mlo, mhi, ck[0], cs[0], cp[0],
                                             h_i)
        bands.append(((blo, bhi), (mlo, mhi), (xlo, xhi), (cpt, cpb)))
    nbands = len(bands)
    # a strip's input windows stay in FM from its first slab to its last
    # when the window planner's one slot per band fits one FM memory
    win_rows = max(xhi - xlo for _b, _m, (xlo, xhi), _p in bands)
    windows_fit = (nbands * cfg.round_to_bank_row(win_rows * w_in_max * c_i)
                   <= cfg.fm_bytes)
    held = [None, None]   # the slab each PM half holds

    def weight_loads(ss):
        """The LOADs of slabs ss, skipping a slab past the last one and
        one its PM half still holds."""
        out = []
        for s in ss:
            if s < len(slabs) and held[halves[s]] != s:
                held[halves[s]] = s
                out.append(_weight_load(s, pm_offs[s], slabs[s].nbytes))
        return out

    for wi, chain in enumerate(strips):
        out_rng, mid_rng, in_rng = chain[0], chain[-2], chain[-1]
        olo, ohi = out_rng[0], out_rng[1]
        mlo_s, mhi_s = mid_rng[0], mid_rng[1]
        ilo_s, ihi_s = in_rng[0], in_rng[1]
        s_in = f"in{wi}"
        loaded = {}   # band -> the tile whose window holds its input rows
        for si, slab in enumerate(slabs):
            c_slice = (slab.c_lo, slab.c_hi)
            nch = slab.c_hi - slab.c_lo
            s_mid, s_out = f"mid{wi}s{si}", f"out{wi}s{si}"
            for bi, ((blo, bhi), (mlo, mhi), (xlo, xhi), (cpt, cpb)) \
                    in enumerate(bands):
                ti = len(tiles)
                # slabs 0 and 1 go ahead of the strip's first input rows,
                # but one whose PM half was busy at the node's start is
                # prefetched behind them, like every later slab, and
                # every strip repeats that order
                first = si == 0 and bi == 0
                loads = (weight_loads(s for s in (0, 1) if s not in late)
                         if first else [])
                if bi not in loaded:
                    loads += _transfer(LOAD, ctx, x, (xlo, xhi),
                                       (ilo_s, ihi_s), s_in, ti)
                    if windows_fit:
                        loaded[bi] = ti
                if first:
                    loads += weight_loads(late)
                src_tile = loaded.get(bi, ti)
                # prefetch the next slab one band into this pass, behind
                # the band's activation loads: the prefetch waits for the
                # previous slab's conv to free its PM half, and the
                # in-order LOAD queue must not hold this band's input rows
                # behind it
                if si >= 1 and bi == min(1, nbands - 1):
                    loads += weight_loads([si + 1])
                conv = _conv(Win(s_in, src_tile, 0), Win(s_mid, ti, 0),
                             (pm_offs[si], slab.nbytes), xhi - xlo,
                             ihi_s - ilo_s, c_i, mhi_s - mlo_s, nch, ck, cs,
                             (cpt, in_rng[2], cpb, in_rng[3]), conv_shift)
                stages = [("LOAD", loads), ("CONV", [conv])]
                if fused:
                    stages.append(("MISC", _pool_rows(
                        s_mid, s_out, ti, (blo, bhi), mlo, h_m,
                        mhi_s - mlo_s, nch, ohi - olo, plan.out_per_instr,
                        (pk, ps, pp), mid_rng[2:], pool_shift)))
                stages.append(("SAVE", _transfer(
                    SAVE, ctx, y, (blo, bhi), (olo, ohi),
                    s_out if fused else s_mid, ti, c_slice)))
                tiles.append(Tile(stages, (blo, bhi), (olo, ohi),
                                  (ilo_s, ihi_s), c_slice))

    ln = LoweredNode(node.id, tiles)
    w_all, b_all = node.params.weights, node.params.bias
    ln.pm_payloads = [
        w_all[s.c_lo:s.c_hi].tobytes()
        + b_all[s.c_lo:s.c_hi].astype("<i4").tobytes()
        for s in slabs]
    ln.notes = {"kind": "conv", "fused": bool(fused), "slabs": len(slabs),
                "strips": len(strips), "band_h": band_h,
                "resident": windows_fit and len(slabs) > 1}
    return ln


def _lower_pool(node, ctx, cfg):
    x = ctx.tensors[node.inputs[0]]
    y = ctx.tensors[node.output]
    h_i, w_i, c = x.shape
    h_o, w_o, _ = y.shape
    a = node.attrs
    pk, ps, pp = a["kernel"], a["stride"], a["padding"]
    out_per = max(1, cfg.h_p // ps[0])
    shift = _exp(x) - _exp(y)
    strips = _strip_chain(w_o, c, [(pk[1], ps[1], pp[1], w_i, c)], cfg,
                          ctx.w_min_parts)
    band_h = max(1, ctx.h_cap // (out_per * ps[0])) * out_per

    tiles = []
    for wi, chain in enumerate(strips):
        (olo, ohi, _, _), (ilo, ihi, pl, pr) = chain
        s_in, s_out = f"in{wi}", f"mid{wi}"
        for blo in range(0, h_o, band_h):
            bhi = min(h_o, blo + band_h)
            ti = len(tiles)
            xlo, xhi, _, _ = receptive_range(blo, bhi, pk[0], ps[0], pp[0],
                                             h_i)
            loads = _transfer(LOAD, ctx, x, (xlo, xhi), (ilo, ihi), s_in, ti)
            pools = _pool_rows(s_in, s_out, ti, (blo, bhi), xlo, h_i,
                               ihi - ilo, c, ohi - olo, out_per,
                               (pk, ps, pp), (pl, pr), shift)
            saves = _transfer(SAVE, ctx, y, (blo, bhi), (olo, ohi), s_out,
                              ti)
            tiles.append(Tile([("LOAD", loads), ("MISC", pools),
                               ("SAVE", saves)], (blo, bhi), (olo, ohi),
                              (ilo, ihi)))
    ln = LoweredNode(node.id, tiles)
    ln.notes = {"kind": "maxpool", "strips": len(strips), "band_h": band_h}
    return ln


def _lower_elt(node, ctx, cfg):
    ta, tb = (ctx.tensors[n] for n in node.inputs)
    y = ctx.tensors[node.output]
    h, w, c = y.shape
    ea, eb, eo = quant.eltwise_exponents(_exp(ta), _exp(tb), _exp(y))
    strips = _strip_chain(w, c, [(1, 1, 0, w, c)], cfg, ctx.w_min_parts)
    band_h = max(cfg.h_e, ctx.h_cap)

    tiles = []
    for wi, chain in enumerate(strips):
        (olo, ohi, _, _), _ = chain
        sa, sb, so = f"ina{wi}", f"inb{wi}", f"mid{wi}"
        for blo in range(0, h, band_h):
            bhi = min(h, blo + band_h)
            ti = len(tiles)
            loads = (_transfer(LOAD, ctx, ta, (blo, bhi), (olo, ohi), sa, ti)
                     + _transfer(LOAD, ctx, tb, (blo, bhi), (olo, ohi), sb,
                                 ti))
            elts = []
            for j in range(-(-(bhi - blo) // cfg.h_e)):
                rlo = blo + j * cfg.h_e
                rhi = min(bhi, rlo + cfg.h_e)
                off = (rlo - blo) * (ohi - olo) * c
                elts.append(Instruction(
                    op=MISC, sub="eltwise", src=Win(sa, ti, off),
                    src2=Win(sb, ti, off), dst=Win(so, ti, off),
                    rows=rhi - rlo, w=ohi - olo, c=c, ea=ea, eb=eb, eo=eo))
            saves = _transfer(SAVE, ctx, y, (blo, bhi), (olo, ohi), so, ti)
            tiles.append(Tile([("LOAD", loads), ("MISC", elts),
                               ("SAVE", saves)], (blo, bhi), (olo, ohi),
                              (olo, ohi)))
    ln = LoweredNode(node.id, tiles)
    ln.notes = {"kind": "eltwise", "strips": len(strips), "band_h": band_h}
    return ln


def _lower_upsample(node, ctx, cfg):
    x = ctx.tensors[node.inputs[0]]
    y = ctx.tensors[node.output]
    f = node.attrs["factor"]
    h_i, w_i, c = x.shape
    h_o, w_o, _ = y.shape
    if w_i * c > cfg.gamma or w_o * c > cfg.gamma:
        raise CapacityError("upsample rows exceed gamma; width splitting "
                            "of zero-inserted rows is not supported")
    band_in = max(1, ctx.h_cap // f)
    tiles = []
    s_in, s_up = "in0", "mid0"
    for blo in range(0, h_i, band_in):
        bhi = min(h_i, blo + band_in)
        out_lo = blo * f
        out_hi = min(h_o, bhi * f)
        ti = len(tiles)
        loads = _transfer(LOAD, ctx, x, (blo, bhi), (0, w_i), s_in, ti)
        ups = [Instruction(op=MISC, sub="upsample", src=Win(s_in, ti, 0),
                           dst=Win(s_up, ti, 0), in_rows=bhi - blo, w=w_i,
                           c=c, factor=f, out_rows=out_hi - out_lo)]
        saves = _transfer(SAVE, ctx, y, (out_lo, out_hi), (0, w_o), s_up,
                          ti)
        tiles.append(Tile([("LOAD", loads), ("MISC", ups),
                           ("SAVE", saves)], (out_lo, out_hi)))
    ln = LoweredNode(node.id, tiles)
    ln.notes = {"kind": "upsample", "band_h": band_in}
    return ln


def _lower_copy(node, ctx, cfg):
    x = ctx.tensors[node.inputs[0]]
    y = ctx.tensors[node.output]
    return LoweredNode(node.id, _copy_tiles(x, y, ctx, cfg),
                       notes={"kind": "copy", "band_h": ctx.h_cap})


def _copy_tiles(x, y, ctx, cfg, part=None, tag="", tile0=0):
    """Tiles copying x into y, or into channels `part` of y for a concat
    input, one width strip at a time; they are numbered from tile0
    within their node."""
    h, w, c = x.shape
    strips = _strip_chain(w, c, [(1, 1, 0, w, c)], cfg, ctx.w_min_parts)
    tiles = []
    for wi, ((lo, hi, _, _), _) in enumerate(strips):
        s_in = f"in{tag}{wi}"
        for blo in range(0, h, ctx.h_cap):
            bhi = min(h, blo + ctx.h_cap)
            ti = tile0 + len(tiles)
            loads = _transfer(LOAD, ctx, x, (blo, bhi), (lo, hi), s_in, ti)
            saves = _transfer(SAVE, ctx, y, (blo, bhi), (lo, hi), s_in, ti,
                              part)
            tiles.append(Tile([("LOAD", loads), ("SAVE", saves)], (blo, bhi),
                              (lo, hi), (lo, hi), part))
    return tiles


def _lower_concat(node, ctx, cfg):
    """Copy-stream fallback for concat inputs that cannot be aliased.

    The driver prefers resolving concat by pointing each producer's saves
    at a channel slice of the concatenated tensor; inputs covered by such
    an alias lower to nothing here.
    """
    y = ctx.tensors[node.output]
    tiles = []
    ch = 0
    copied = 0
    for idx, name in enumerate(node.inputs):
        c = ctx.tensors[name].shape[2]
        if name not in ctx.aliases:
            tiles += _copy_tiles(ctx.tensors[name], y, ctx, cfg,
                                 (ch, ch + c), f"p{idx}", len(tiles))
            copied += 1
        ch += c
    return LoweredNode(node.id, tiles,
                       notes={"kind": "concat", "parts": len(node.inputs),
                              "copied": copied})


def _lower_deconv(node, ctx, cfg):
    x = ctx.tensors[node.inputs[0]]
    y = ctx.tensors[node.output]
    s, p = node.attrs["upsample"], node.attrs["padding"]
    if ctx.deconv_mode == "series":
        # every case the series path does not cover raises UnsupportedError
        try:
            return _lower_deconv_series(node, ctx, cfg, decompose_deconv(
                node.params.weights, s, p, x.shape, y.shape))
        except UnsupportedError:
            pass
    return _lower_deconv_upsample(node, ctx, cfg)


def _lower_deconv_series(node, ctx, cfg, plan):
    x = ctx.tensors[node.inputs[0]]
    y = ctx.tensors[node.output]
    h_i, w_i, c_i = x.shape
    h_o, w_o, c_o = y.shape
    s = node.attrs["upsample"]
    shift = _conv_shift(ctx, node, y.quant)
    if w_i * c_i > cfg.gamma or w_o * c_o > cfg.gamma:
        raise UnsupportedError("deconv series path does not width-split")

    subs = plan.sub_kernels
    if any(sk.crop[1] > 0 for sk in subs):
        # a column crop would need strided row reads the conv unit lacks
        raise UnsupportedError("deconv padding too small for the series "
                               "path; phase windows need a column crop")
    # every sub-kernel's taps + bias, packed one after another in PM
    pm_blocks = [sk.taps.size + 4 * c_o for sk in subs]
    if sum(pm_blocks) > cfg.pm_bytes:
        raise UnsupportedError(f"deconv sub-kernels need {sum(pm_blocks)} B "
                               f"of PM, more than its {cfg.pm_bytes} B")
    pm_offs = [sum(pm_blocks[:idx]) for idx in range(len(subs))]
    # phase-row tiling: each tile covers t in [tlo, thi) for every phase,
    # i.e. s * (thi - tlo) interleaved output rows
    n_t = max(sk.out_rows for sk in subs)
    s_in, s_out = "in0", "out0"
    tiles = []
    for bi, tlo in enumerate(range(0, n_t, ctx.h_cap)):
        thi = min(n_t, tlo + ctx.h_cap)
        ti = len(tiles)
        # union of the input rows every phase needs for this t-range
        xlo, xhi = h_i, 0
        phase_geo = []
        for idx, sk in enumerate(subs):
            thi_p = min(thi, sk.out_rows)
            if tlo >= sk.out_rows or sk.out_cols <= 0:
                # this phase has no outputs left (or none at all when the
                # output extent is narrower than the upsample factor)
                phase_geo.append(None)
                continue
            th = sk.taps.shape[1]
            p_eff = sk.pad[0] - sk.crop[0]
            plo, phi, ppt, ppb = receptive_range(tlo, thi_p, th, 1, p_eff,
                                                 h_i)
            phase_geo.append((plo, phi, ppt, ppb, thi_p))
            xlo, xhi = min(xlo, plo), max(xhi, phi)
        loads = []
        if bi == 0:
            loads.append(_weight_load(0, 0, sum(pm_blocks)))
        loads += _transfer(LOAD, ctx, x, (xlo, xhi), (0, w_i), s_in, ti)
        convs, shuffles = [], []
        out_lo = tlo * s
        out_hi = min(h_o, thi * s)
        for idx, sk in enumerate(subs):
            if phase_geo[idx] is None:
                continue
            plo, phi, ppt, ppb, thi_p = phase_geo[idx]
            th, tw = sk.taps.shape[1], sk.taps.shape[2]
            p_eff_l = sk.pad[1] - sk.crop[1]
            _, _, ppl, ppr = receptive_range(0, sk.out_cols, tw, 1, p_eff_l,
                                             w_i)
            ps = f"ph{idx}"
            convs.append(_conv(
                Win(s_in, ti, (plo - xlo) * w_i * c_i), Win(ps, ti, 0),
                (pm_offs[idx], pm_blocks[idx]), phi - plo, w_i, c_i,
                sk.out_cols, c_o, (th, tw), (1, 1), (ppt, ppl, ppb, ppr),
                shift))
            # interleave phase (ry, rx): its row t lands on output row
            # s * t + ry, its column j on output column s * j + rx
            ry, rx = sk.phase
            shuffles.append(Instruction(
                op=MISC, sub="move", src=Win(ps, ti, 0),
                dst=Win(s_out, ti, (ry * w_o + rx) * c_o),
                rows=thi_p - tlo, blocks=sk.out_cols, block_bytes=c_o,
                src_row_stride=sk.out_cols * c_o,
                dst_row_stride=s * w_o * c_o, src_blk_stride=c_o,
                dst_blk_stride=s * c_o))
        saves = _transfer(SAVE, ctx, y, (out_lo, out_hi), (0, w_o), s_out,
                          ti)
        tiles.append(Tile([("LOAD", loads), ("CONV", convs),
                           ("MISC", shuffles), ("SAVE", saves)],
                          (out_lo, out_hi)))
    ln = LoweredNode(node.id, tiles)
    bias = node.params.bias.astype("<i4").tobytes()
    ln.pm_payloads = [sk.taps.tobytes() + bias for sk in subs]
    ln.notes = {"kind": "deconv-series", "sub_kernels": len(subs),
                "mult_count": series_mult_count(plan, c_o, c_i)}
    return ln


def _lower_deconv_upsample(node, ctx, cfg):
    x = ctx.tensors[node.inputs[0]]
    y = ctx.tensors[node.output]
    h_i, w_i, c_i = x.shape
    h_o, w_o, c_o = y.shape
    s, p = node.attrs["upsample"], node.attrs["padding"]
    k = node.attrs["kernel"][0]
    w_u = (w_i - 1) * s + 1
    h_u = (h_i - 1) * s + 1
    shift = _conv_shift(ctx, node, y.quant)
    if max(w_i * c_i, w_u * c_i, w_o * c_o) > cfg.gamma:
        raise CapacityError("deconv upsample path rows exceed gamma")

    weights = node.params.weights
    wgt_bytes = weights.size + 4 * c_o
    if wgt_bytes > cfg.pm_bytes:
        raise CapacityError(f"deconv weights need {wgt_bytes} B of PM, "
                            f"more than its {cfg.pm_bytes} B")
    s_in, s_up, s_mid = "in0", "up0", "mid0"
    tiles = []
    for bi, blo in enumerate(range(0, h_o, ctx.h_cap)):
        bhi = min(h_o, blo + ctx.h_cap)
        ti = len(tiles)
        ulo, uhi, cpt, cpb = receptive_range(blo, bhi, k, 1, p, h_u)
        ulo_al = (ulo // s) * s
        ilo = ulo_al // s
        ihi = (uhi - 1) // s + 1
        loads = [_weight_load(0, 0, wgt_bytes)] if bi == 0 else []
        ups, up_off = [], 0
        if uhi > ulo:     # a band wholly in the padding reads no row
            loads += _transfer(LOAD, ctx, x, (ilo, ihi), (0, w_i), s_in, ti)
            ups.append(Instruction(
                op=MISC, sub="upsample", src=Win(s_in, ti, 0),
                dst=Win(s_up, ti, 0), in_rows=ihi - ilo, w=w_i, c=c_i,
                factor=s, out_rows=uhi - ulo_al))
            up_off = (ulo - ulo_al) * w_u * c_i
        conv = _conv(Win(s_up, ti, up_off),
                     Win(s_mid, ti, 0), (0, wgt_bytes), uhi - ulo, w_u, c_i,
                     w_o, c_o, (k, k), (1, 1),
                     (cpt, p, cpb, max(0, (w_o - 1) + k - p - w_u)), shift)
        saves = _transfer(SAVE, ctx, y, (blo, bhi), (0, w_o), s_mid, ti)
        tiles.append(Tile([("LOAD", loads), ("MISC", ups),
                           ("CONV", [conv]), ("SAVE", saves)], (blo, bhi)))
    ln = LoweredNode(node.id, tiles)
    ln.pm_payloads = [weights.tobytes()
                      + node.params.bias.astype("<i4").tobytes()]
    ln.notes = {"kind": "deconv-upsample",
                "mult_count": upsample_conv_mult_count(y.shape, k, c_i)}
    return ln


_LOWERERS = {"conv": _lower_conv, "maxpool": _lower_pool,
             "eltwise-add": _lower_elt, "upsample": _lower_upsample,
             "identity": _lower_copy, "deconv": _lower_deconv,
             "concat": _lower_concat}
_SYMBOLIC = {Win, TensorAt, ParamAt}   # the placeholder types
