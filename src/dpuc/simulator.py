"""Dual-mode execution of compiled programs.

Functional mode walks the instruction stream in issue order and evolves
the byte-level machine state, a table of memories each made on its first
access; its output must match the graph-level reference executor bit for
bit.  Every byte it moves, operands, preloads and outputs alike, goes
through one accessor (`MachineState.access`) in one array operation: a
flat slice when it is one run of bytes, else a (rows, blocks,
block_bytes) view.  An operand, a conv's PM weights included, takes its
memory and layout from `Instruction.operand`.  A LOAD, SAVE or move reads
its whole source before it writes, and malformed geometry (a negative
count, size or stride, or overlapping blocks) raises ShapeError.
Timing mode runs a discrete-event simulation of the four in-order queues
with the counted DPON/DPBY token semantics; it never looks at data.  One
scheduler (`simulate_timing`) keeps each instruction's issue, start and
duration in flat lists; the compile's estimate reads those, and
`run_timing` builds the `Trace` of events from them.  The
hazard checker replays a trace against exact byte ranges, expanded from
the compile's footprint table, in one sorted numpy sweep over byte
segments, to prove that the typed dependencies were sufficient.
"""

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import NamedTuple

import numpy as np

from . import quant
from .errors import DeadlockError, OutOfBoundsError, ShapeError, \
    UseBeforeDefError
from .machine import DDR, FM, LOAD, OP_TYPES, PM, SAVE, blocks_overlap, \
    footprints, instruction_cost, span


class MachineState:
    """{(space, mem): (bytes, written flags)} of DDR (ddr_bytes), the FM
    memories and PM, each made zeroed and unwritten on its first access:
    a memory no access names costs nothing."""

    def __init__(self, cfg, ddr_bytes):
        self.cfg = cfg
        self.sizes = {DDR: ddr_bytes, FM: cfg.fm_bytes, PM: cfg.pm_bytes}
        self.mems = {}

    def _pair(self, space, mem):
        pair = self.mems.get((space, mem))
        if pair is None:
            if not 0 <= mem < (self.cfg.fm_memories if space == FM else 1):
                raise OutOfBoundsError(f"{space}{mem} does not exist")
            n = self.sizes[space]
            pair = self.mems[space, mem] = (np.zeros(n, np.uint8),
                                            np.zeros(n, bool))
        return pair

    def access(self, space, mem, off, shape, strides, write):
        """Bytes and written flags of a well-formed (rows, blocks,
        block_bytes) operand at (row, block) strides from `off` of memory
        (space, mem), aliasing it, so one assignment moves the operand.
        An extent outside the memory raises OutOfBoundsError, and a read
        of any unwritten byte UseBeforeDefError naming the first."""
        (rows, blocks, size), (row, blk) = shape, strides
        n = rows * blocks * size
        one_run = not n or ((blocks == 1 or blk == size)
                            and (rows == 1 or row == blocks * size))
        if not one_run:
            n = span(shape, strides)
        buf, written = self._pair(space, mem)
        if off < 0 or off + n > buf.size:
            raise OutOfBoundsError(
                f"{space}{mem} {('read', 'write')[write]} [{off},{off + n}) "
                f"outside {buf.size} B")
        if one_run:
            view, flags = buf[off:off + n], written[off:off + n]
        else:
            view = np.ndarray(shape, np.uint8, buf, off, (row, blk, 1))
            flags = np.ndarray(shape, bool, written, off, (row, blk, 1))
        # count_nonzero is the cheapest all() of a bool array
        if not write and np.count_nonzero(flags) != flags.size:
            # the lowest address of an unwritten byte, flat view or not
            r, b, i = np.unravel_index(np.flatnonzero(~flags), shape)
            first = off + int(np.min(r * row + b * blk + i))
            raise UseBeforeDefError(
                f"{space}{mem} read [{off},{off + n}) of unwritten bytes, "
                f"the first at {first}")
        return view, flags

    def preload(self, off, data):
        """Write the bytes of `data` to DDR from `off`."""
        data = np.frombuffer(data, np.uint8)
        view, flags = self.access(DDR, 0, off, (1, 1, data.size),
                                  (data.size, data.size), write=True)
        view[...] = data
        flags[...] = True


# ---------------------------------------------------------------------------
# functional execution of one instruction
# ---------------------------------------------------------------------------

def _operand(state, ins, f, write):
    """`MachineState.access` of operand f as `ins.operand(f)` describes it;
    malformed geometry, which no view can express, raises ShapeError."""
    space, mem, off, shape, strides = ins.operand(f)
    if min(*shape, *strides) < 0 or blocks_overlap(*shape, *strides):
        raise ShapeError(ins.geometry_error())
    return state.access(space, mem, off, shape, strides, write)


def _store(state, ins, data):
    """Write data, whose size is the dst operand's, to the dst operand.
    Data read from the dst operand's memory is copied first: numpy copies
    an overlapping one-dimensional source backwards instead of buffering
    it, which is wrong when the two strides differ."""
    view, flags = _operand(state, ins, "dst", write=True)
    if data.base is view.base:
        data = data.copy()
    view[...] = data.reshape(view.shape)
    flags[...] = True


# Every int8 product is at most 2**14 in magnitude and float32 holds every
# integer up to 2**24, so a float32 sum of at most this many products is
# exact in any order (BLAS blocking and FMA included).
F32_EXACT_TERMS = 2**24 // 2**14


def _conv_window_sum(x, w, sh, sw, out_rows, out_w, dtype):
    """Per-tap sum of a padded tile: (out_rows, out_w, c_out) of dtype, an
    integer type that holds every sum (`quant.accumulator_dtype`).

    x: (rows, cols, c_in) float32 holding int8 values, padded;
    w: (c_out, kh, kw, c_in) int8.  Each tap is one contiguous
    (out_rows·out_w, c_in) @ (c_in, c_out) float32 product, split along
    c_in when c_in > F32_EXACT_TERMS.  Taps are summed in float32 while a
    group holds at most F32_EXACT_TERMS products per output; each full
    group is added into a float64 total, which is exact while
    kh·kw·c_in·2**14 < 2**53.
    """
    c_out, kh, kw, c_in = w.shape
    if x.dtype != np.float32:
        raise ShapeError(f"conv tile must be float32, got {x.dtype}")
    if kh * kw * c_in * 2**14 >= 2**53:
        raise ShapeError(f"conv reduction of {kh * kw * c_in} int8 "
                         f"products is not exact in float64")
    taps = w.transpose(1, 2, 3, 0).astype(np.float32)   # (kh, kw, ci, co)
    group = np.zeros((out_rows * out_w, c_out), np.float32)
    total, n = None, 0          # float64 sum of flushed groups; group size
    for a in range(kh):
        for b in range(kw):
            window = np.ascontiguousarray(
                x[a:a + (out_rows - 1) * sh + 1:sh,
                  b:b + (out_w - 1) * sw + 1:sw]).reshape(-1, c_in)
            for c0 in range(0, c_in, F32_EXACT_TERMS):
                c1 = min(c0 + F32_EXACT_TERMS, c_in)
                if n + c1 - c0 > F32_EXACT_TERMS:
                    total = group.astype(np.float64) if total is None \
                        else total + group
                    group[...] = 0
                    n = 0
                group += window[:, c0:c1] @ taps[a, b, c0:c1]
                n += c1 - c0
    if total is not None:
        group = total + group
    return group.astype(dtype).reshape(out_rows, out_w, c_out)


def _exec_conv(state, ins):
    x = _operand(state, ins, "src", write=False)[0].view(np.int8)
    x = x.reshape(ins.in_rows, ins.in_w, ins.c_in)
    taps_n = ins.c_out * ins.kh * ins.kw * ins.c_in
    blob = _operand(state, ins, "wgt", write=False)[0]
    w = blob[:taps_n].view(np.int8).reshape(ins.c_out, ins.kh, ins.kw,
                                            ins.c_in)
    bias = blob[taps_n:].view("<i4")
    out_rows = ins.conv_out_rows()
    # pad far enough that every window position exists; cols beyond in_w
    # contribute zeros exactly like rows beyond in_rows
    pr_eff = max(ins.pr, (ins.out_w - 1) * ins.sw + ins.kw
                 - ins.pl - ins.in_w)
    xp = np.zeros((ins.pt + ins.in_rows + ins.pb,
                   ins.pl + ins.in_w + max(pr_eff, 0), ins.c_in), np.float32)
    xp[ins.pt:ins.pt + ins.in_rows, ins.pl:ins.pl + ins.in_w] = x
    dtype = quant.accumulator_dtype(ins.kh * ins.kw * ins.c_in, bias,
                                    ins.shift)
    acc = _conv_window_sum(xp, w, ins.sh, ins.sw, out_rows, ins.out_w,
                           dtype)
    acc += bias
    _store(state, ins, quant.requantize(acc, ins.shift).view(np.uint8))


def _exec_maxpool(state, ins):
    x = _operand(state, ins, "src", write=False)[0].view(np.int8)
    x = x.reshape(ins.in_rows, ins.in_w, ins.c_in)
    out_rows = ins.conv_out_rows()
    pr = max(ins.pr, (ins.out_w - 1) * ins.sw + ins.kw - ins.pl - ins.in_w,
             0)
    if min(ins.pt, ins.pl, ins.pb) < 0:
        raise ShapeError(f"negative max pool padding {ins.pt}, {ins.pl}, "
                         f"{ins.pb}")
    if ins.pt or ins.pl or ins.pb or pr:
        xp = np.full((ins.pt + ins.in_rows + ins.pb,
                      ins.pl + ins.in_w + pr, ins.c_in), quant.INT8_MIN,
                     np.int8)
        xp[ins.pt:ins.pt + ins.in_rows, ins.pl:ins.pl + ins.in_w] = x
    else:
        xp = x
    out = np.full((out_rows, ins.out_w, ins.c_in), quant.INT8_MIN, np.int8)
    for a in range(ins.kh):
        for b in range(ins.kw):
            window = xp[a:a + (out_rows - 1) * ins.sh + 1:ins.sh,
                        b:b + (ins.out_w - 1) * ins.sw + 1:ins.sw]
            out = np.maximum(out, window)
    if ins.shift:
        # an int8 is an accumulator of no products and one int8 value
        dtype = quant.accumulator_dtype(0, quant.INT8_MIN, ins.shift)
        out = quant.requantize(out.astype(dtype), ins.shift)
    _store(state, ins, out.view(np.uint8))


def _exec_eltwise(state, ins):
    a = _operand(state, ins, "src", write=False)[0].view(np.int8)
    b = _operand(state, ins, "src2", write=False)[0].view(np.int8)
    acc = ((a.astype(np.int64) << ins.ea) + (b.astype(np.int64) << ins.eb))
    _store(state, ins, quant.requantize(acc, ins.eo).view(np.uint8))


def _exec_upsample(state, ins):
    x = _operand(state, ins, "src", write=False)[0].view(np.int8)
    x = x.reshape(ins.in_rows, ins.w, ins.c)
    ow = (ins.w - 1) * ins.factor + 1
    out = np.zeros((ins.out_rows, ow, ins.c), np.int8)
    rows = range(0, ins.out_rows, ins.factor)
    out[::ins.factor, ::ins.factor] = x[:len(rows)]
    _store(state, ins, out.view(np.uint8))


_EXEC = {"conv": _exec_conv, "maxpool": _exec_maxpool,
         "eltwise": _exec_eltwise, "upsample": _exec_upsample}


def run_functional(prog, state):
    """Execute in issue order; timing is ignored but addresses and
    arithmetic are exact.  A LOAD, SAVE or move copies its source as it
    was before the instruction, even where it overlaps the destination."""
    for idx, ins in enumerate(prog.instructions):
        try:
            if ins.is_noop:
                continue
            if ins.op in (LOAD, SAVE) or ins.sub == "move":
                _store(state, ins, _operand(state, ins, "src", False)[0])
            else:
                _EXEC[ins.sub](state, ins)
        except (UseBeforeDefError, OutOfBoundsError, ShapeError) as e:
            raise type(e)(f"at instruction {idx} ({ins.op}/{ins.sub}): {e}")
    return state


# ---------------------------------------------------------------------------
# graph-level reference executor
# ---------------------------------------------------------------------------

REF_COLS_BYTES = 2 << 20   # float32 im2col block of the reference conv


def _ref_conv(x, w, bias, stride, padding, shift):
    """im2col convolution of int8 x (h, w, ci) by int8 w (co, kh, kw, ci).

    The column matrix is built from a sliding-window view one block of
    output rows at a time into one buffer of at most about REF_COLS_BYTES;
    each block copy reads contiguous channel runs and converts int8 to
    float32 as it goes.  Every product is at most 2**14 in magnitude, so a
    float32 GEMM over K = kh·kw·ci <= F32_EXACT_TERMS columns is exact and
    a block is one such GEMM against the (kh·kw·ci, co) weight matrix.  A
    larger K is summed over K-slices of at most F32_EXACT_TERMS columns
    into a float64 block, exact while K·2**14 < 2**53.  Each block is
    finished while it is in cache: cast to the `quant.accumulator_dtype`
    accumulator, biased and requantized into the int8 output.  With shift
    None the biased int64 accumulator is returned instead."""
    sh, sw = stride
    ph, pw = padding
    co, kh, kw, ci = w.shape
    k = kh * kw * ci
    if x.dtype != np.int8 or w.dtype != np.int8:
        raise ShapeError(f"conv operands must be int8, got {x.dtype} "
                         f"and {w.dtype}")
    if k * 2**14 >= 2**53:
        raise ShapeError(f"conv reduction of {k} int8 products is not "
                         f"exact in float64")
    xp = np.pad(x, ((ph, ph), (pw, pw), (0, 0)))
    # windows in (oh, ow, kh, kw, ci) order; the weights follow it
    win = np.lib.stride_tricks.sliding_window_view(
        xp, (kh, kw), axis=(0, 1)).transpose(0, 1, 3, 4, 2)[::sh, ::sw]
    oh, ow = win.shape[:2]
    # (k, co) view of the (co, k) float32 weights: no transposing copy
    wmat = w.reshape(co, k).astype(np.float32).T
    if shift is None:
        dtype, out = np.int64, np.empty((oh, ow, co), np.int64)
    else:
        dtype = quant.accumulator_dtype(k, bias, shift)
        out = np.empty((oh, ow, co), np.int8)
    block = max(1, min(oh, REF_COLS_BYTES // (ow * k * 4)))
    buf = np.empty(block * ow * k, np.float32)
    for r0 in range(0, oh, block):
        r1 = min(r0 + block, oh)
        cols = buf[:(r1 - r0) * ow * k].reshape(r1 - r0, ow, kh, kw, ci)
        cols[...] = win[r0:r1]
        cols = cols.reshape(-1, k)
        if k <= F32_EXACT_TERMS:
            part = cols @ wmat
        else:
            part = np.zeros((len(cols), co), np.float64)
            for k0 in range(0, k, F32_EXACT_TERMS):
                k1 = min(k0 + F32_EXACT_TERMS, k)
                part += cols[:, k0:k1] @ wmat[k0:k1]
        acc = part.astype(dtype).reshape(r1 - r0, ow, co)
        acc += bias
        out[r0:r1] = acc if shift is None else quant.requantize(acc, shift)
    return out


def _ref_maxpool(x, kernel, stride, padding, shift):
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((ph, ph), (pw, pw), (0, 0)),
                constant_values=quant.INT8_MIN)
    out = np.lib.stride_tricks.sliding_window_view(
        xp, (kh, kw), axis=(0, 1))[::sh, ::sw].max(axis=(3, 4))
    if shift:
        # an int8 is an accumulator of no products and one int8 value
        dtype = quant.accumulator_dtype(0, quant.INT8_MIN, shift)
        out = quant.requantize(out.astype(dtype), shift)
    return out


def _ref_upsample(x, factor):
    h, w, c = x.shape
    out = np.zeros(((h - 1) * factor + 1, (w - 1) * factor + 1, c), np.int8)
    out[::factor, ::factor] = x
    return out


def reference_execute(g, inputs):
    """Direct nested evaluation of the graph with the centralized
    requantization policy.  Convolutions are exact im2col GEMMs per block
    of output rows: float32 over K-slices of at most F32_EXACT_TERMS
    products, summed in float64 when K is larger (|acc| <= K·2**14, far
    below 2**53); each block is then biased and requantized in the int32
    or int64 accumulator `quant.accumulator_dtype` picks.  Takes the graph
    as parsed, with explicit fix/const nodes or inline conv `params` (a
    folded graph is this form); a fused node raises ShapeError.  A tensor
    without a quantizer is a parameter's, a conv accumulator's, or takes
    that of the fix node producing it or else of the one fix node reading
    it (which then changes nothing, as the fold has it)."""
    from .graph import _topo_order

    def exp(name):
        t = g.tensors.get(name)
        if t is not None and t.quant is not None:
            return t.quant.exp
        if name in quants:
            return quants[name]
        prod = g.nodes.get(g.producer.get(name))
        fixes = ([prod] if prod is not None and prod.op == "fix" else
                 [g.nodes[c] for c in g.consumers.get(name, [])
                  if g.nodes[c].op == "fix"])
        if len(fixes) != 1:
            raise ShapeError(f"tensor {name} has no quantization info")
        return quant.step_exponent(fixes[0].attrs["step"])

    vals = {}
    for name, data in inputs.items():
        t = g.tensors[name]
        arr = np.asarray(data, np.int8)
        if arr.shape != t.shape:
            raise ShapeError(f"input {name}: got {arr.shape}, declared "
                             f"{t.shape}")
        vals[name] = arr
    quants = {}
    for name, arr in g.param_data.items():
        vals[name] = arr

    for nid in _topo_order(g):
        n = g.nodes[nid]
        if n.fused is not None:
            raise ShapeError(f"reference cannot execute fused node {nid}")
        if n.op == "input":
            if n.output not in vals:
                raise ShapeError(f"missing input tensor {n.output}")
            continue
        if n.op == "const":
            continue
        if n.op == "fix":
            src = vals[n.inputs[0]]
            q_to = quant.step_exponent(n.attrs["step"])
            if n.inputs[0] in g.param_data:
                # annotates parameters; bits unchanged
                vals[n.output] = src
                quants[n.output] = q_to
                continue
            vals[n.output] = quant.requantize(
                src.astype(np.int64), exp(n.inputs[0]) - q_to)
            continue
        if n.op in ("conv", "deconv"):
            x = vals[n.inputs[0]]
            if n.params is not None:
                w, bias = n.params.weights, n.params.bias
                wexp = n.params.wgt_quant.exp
            else:
                prms = [t for t in n.inputs if t in g.param_data
                        or t in quants]
                wname = next(t for t in prms if vals[t].dtype == np.int8)
                bname = next((t for t in prms if t != wname), None)
                w = vals[wname]
                bias = (vals[bname].astype(np.int32) if bname
                        else np.zeros(w.shape[0], np.int32))
                wexp = quants[wname]
            xexp = exp(n.inputs[0])
            out_t = g.tensors.get(n.output)
            # unfolded form: leave the accumulator for the fix node
            shift = (None if out_t is None or out_t.quant is None
                     else xexp + wexp - out_t.quant.exp)
            if n.op == "deconv":
                p = n.attrs["padding"]
                x = _ref_upsample(x, n.attrs["upsample"])
                out = _ref_conv(x, w, bias, (1, 1), (p, p), shift)
            else:
                out = _ref_conv(x, w, bias, n.attrs["stride"],
                                n.attrs["padding"], shift)
            if shift is None:
                quants[n.output] = xexp + wexp
            vals[n.output] = out
        elif n.op == "maxpool":
            x = vals[n.inputs[0]]
            shift = exp(n.inputs[0]) - exp(n.output)
            vals[n.output] = _ref_maxpool(x, n.attrs["kernel"],
                                          n.attrs["stride"],
                                          n.attrs["padding"], shift)
        elif n.op == "eltwise-add":
            a, b = vals[n.inputs[0]], vals[n.inputs[1]]
            vals[n.output] = quant.eltwise_add(
                a, b, exp(n.inputs[0]), exp(n.inputs[1]), exp(n.output))
        elif n.op == "upsample":
            vals[n.output] = _ref_upsample(vals[n.inputs[0]],
                                           n.attrs["factor"])
        elif n.op == "identity":
            vals[n.output] = vals[n.inputs[0]].copy()
        elif n.op == "concat":
            vals[n.output] = np.concatenate(
                [vals[t] for t in n.inputs], axis=2)
        else:
            raise ShapeError(f"reference cannot execute op {n.op}")
    return {name: vals[name] for name in g.outputs}


# ---------------------------------------------------------------------------
# timing simulation
# ---------------------------------------------------------------------------

class TraceEvent(NamedTuple):
    """When one instruction issued, started and for how long it ran."""

    index: int
    queue: str
    sub: str
    color: str
    issue: int
    start: int
    duration: int

    @property
    def end(self):
        return self.start + self.duration


@dataclass
class Trace:
    events: list
    makespan: int
    busy: dict
    util: dict

    def to_dict(self):
        return {
            "events": [e._asdict() for e in self.events],
            "makespan": self.makespan,
            "busy": self.busy,
            "util": self.util,
        }

    @classmethod
    def from_dict(cls, d):
        """Inverse of to_dict.  Raises ValueError for a queue outside
        OP_TYPES or a cycle count or index that is not an int."""
        events = [TraceEvent(**e) for e in d["events"]]
        for e in events:
            if e.queue not in OP_TYPES:
                raise ValueError(f"event {e.index}: unknown queue "
                                 f"{e.queue!r}")
            for name in ("index", "issue", "start", "duration"):
                if type(getattr(e, name)) is not int:
                    raise ValueError(f"event {e.index}: {name} "
                                     f"{getattr(e, name)!r} is not an int")
        if type(d["makespan"]) is not int:
            raise ValueError(f"makespan {d['makespan']!r} is not an int")
        return cls(events, d["makespan"], d["busy"], d["util"])


def token_pairings(instructions):
    """Static pairing per channel: consumer index -> producer index.

    Returns {(s, u): [(consumer, producer or None), ...]} in queue order;
    None marks a starved consumer (a deadlock once simulated).  Channels
    come in OP_TYPES order and only those with a consumer appear.  One
    pass over the program collects every channel's producers (op s, u in
    DPBY) and consumers (op u, s in DPON); the n-th consumer pairs with
    the n-th producer.
    """
    channels = [(s, u) for s in OP_TYPES for u in OP_TYPES if s != u]
    producers = {ch: [] for ch in channels}
    consumers = {ch: [] for ch in channels}
    for i, ins in enumerate(instructions):
        op = ins.op
        for u in ins.dpby:
            if u != op:
                producers[op, u].append(i)
        for s in ins.dpon:
            if s != op:
                consumers[s, op].append(i)
    out = {}
    for ch in channels:
        cons, prods = consumers[ch], producers[ch]
        if cons:
            out[ch] = [(c, prods[n] if n < len(prods) else None)
                       for n, c in enumerate(cons)]
    return out


class Timing(NamedTuple):
    """The times `simulate_timing` gives a program's instructions, in
    flat lists indexed by instruction, with the makespan and the cycles
    each queue was busy ({op: cycles} in OP_TYPES order)."""

    issue: list
    start: list
    duration: list
    makespan: int
    busy: dict


def simulate_timing(instructions, cfg):
    """Discrete-event simulation of four in-order, non-overlapping queues:
    the one scheduler, under `run_timing` and the compile's estimate.

    An instruction starts when its queue is free, its queue predecessor
    has finished, and for every type in its DPON set the paired pace
    maker (counted FIFO per producer-consumer type channel) has
    completed.  Deadlock raises DeadlockError: a consumer whose pace
    maker never issues, or a circular wait (a pass over the four queue
    heads that starts nothing).  A long but finite stall is not a
    deadlock, however many cycles it lasts.  State lives in lists indexed
    by instruction or by queue position in OP_TYPES, and the result is
    those lists (`Timing`); no per-instruction object is built.
    """
    gates = [()] * len(instructions)
    for (s, u), pairs in token_pairings(instructions).items():
        for consumer, producer in pairs:
            if producer is None:
                raise DeadlockError(
                    f"instruction {consumer} waits on a {s} pace maker "
                    f"that never issues")
            gates[consumer] += (producer,)

    qpos = {op: q for q, op in enumerate(OP_TYPES)}
    queues = [[] for _ in OP_TYPES]
    for i, ins in enumerate(instructions):
        queues[qpos[ins.op]].append(i)
    duration = [instruction_cost(ins, cfg) for ins in instructions]
    head = [0] * len(OP_TYPES)
    free_at = [0] * len(OP_TYPES)
    issued = [0] * len(instructions)
    started = [0] * len(instructions)
    done = [math.inf] * len(instructions)   # end cycle, inf until it runs
    remaining = len(instructions)
    while remaining:
        progressed = False
        for q, queue in enumerate(queues):
            h, issue = head[q], free_at[q]
            while h < len(queue):
                idx = queue[h]
                start = issue
                for p in gates[idx]:
                    if done[p] > start:
                        start = done[p]
                if start == math.inf:   # a pace maker has not run yet
                    break
                issued[idx], started[idx] = issue, start
                issue = done[idx] = start + duration[idx]
                h += 1
            if h > head[q]:
                remaining -= h - head[q]
                head[q], free_at[q] = h, issue
                progressed = True
        if remaining and not progressed:
            stuck = [queue[h] for queue, h in zip(queues, head)
                     if h < len(queue)]
            raise DeadlockError(f"typed dependencies unsatisfiable; queues "
                                f"stuck at {stuck}")
    busy = {op: sum(duration[i] for i in queue)
            for op, queue in zip(OP_TYPES, queues)}
    return Timing(issued, started, duration, max(free_at), busy)


def run_timing(prog, cfg):
    """The `Trace` of the program's `simulate_timing` schedule: one
    TraceEvent per instruction, in program order, and each queue's
    utilization (busy cycles over the makespan)."""
    instrs = prog.instructions
    t = simulate_timing(instrs, cfg)
    events = [TraceEvent(i, ins.op, ins.sub, ins.color(), issue, start, dur)
              for i, (ins, issue, start, dur) in enumerate(zip(
                  instrs, t.issue, t.start, t.duration))]
    util = {op: (t.busy[op] / t.makespan if t.makespan else 0.0)
            for op in OP_TYPES}
    return Trace(events, t.makespan, t.busy, util)


# ---------------------------------------------------------------------------
# hazard checking
# ---------------------------------------------------------------------------

def _live_alloc_overlaps(allocs):
    """Sorted index pairs (i, j), i < j, of same-memory allocations whose
    bytes overlap while both are live, that is while their inclusive
    instruction spans [first, last] intersect.

    Per memory the allocations are swept in order of first instruction.
    The ones still live are kept sorted by address, so a new one is tested
    only against those starting less than the longest one's length below
    its own start: nothing further down can reach it."""
    by_mem = {}
    for i, a in enumerate(allocs):
        lo, hi = a["start"], a["start"] + a["length"]
        if lo < hi:
            by_mem.setdefault(a["mem"], []).append(
                (a["first"], a["last"], lo, hi, i))
    pairs = set()
    for rows in by_mem.values():
        rows.sort()
        reach = max(hi - lo for _first, _last, lo, hi, _i in rows)
        live = []     # (lo, hi, i) in address order
        ends = []     # heap of (last, live entry)
        for first, last, lo, hi, i in rows:
            while ends and ends[0][0] < first:
                del live[bisect_left(live, heappop(ends)[1])]
            near = live[bisect_left(live, (lo - reach + 1,)):
                        bisect_left(live, (hi,))]
            for _lo, other_hi, k in near:
                if lo < other_hi:
                    pairs.add((min(i, k), max(i, k)))
            entry = (lo, hi, i)
            insort(live, entry)
            heappush(ends, (last, entry))
    return sorted(pairs)


def _distinct(x):
    """The sorted distinct values of a 1-d array; np.unique would import
    numpy.ma on its first call."""
    x = np.sort(x)
    keep = np.ones(len(x), bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def _exact_ranges(fp_rows):
    """The exact (memory key, lo, hi, instruction, is write) ranges of
    `machine.footprints` rows, from their layout columns, in row order:
    one for a single block or for rows with no gap between them, else one
    per block."""
    n, b, size, row, blk = fp_rows[:, 5:].T
    one = (b == 1) & ((n == 1) | (row == size))
    count = np.where(one, 1, n * b)
    at = np.repeat(np.arange(len(fp_rows)), count)
    r, c = np.divmod(np.arange(len(at)) - (np.cumsum(count) - count)[at],
                     b[at])
    out = fp_rows[at, :5]
    out[:, 1] += r * row[at] + c * blk[at]
    out[:, 2] = out[:, 1] + np.where(one, n, 1)[at] * size[at]
    return out


def _memory_hazards(acc, start, end):
    """RAW, WAR and WAW entries of the accesses `acc`, int64 rows (memory
    key, lo, hi, instruction, is write) in replay order, as (access,
    kind, other instruction, lo, hi) in report order: by access, then
    raw (0), war (1) and waw (2), then by instruction and byte; lo and
    hi bound the bytes of a raw entry.  `start` and `end` are arrays of
    the instructions' times.

    Each memory is cut into elementary segments at every range end, and
    the ranges are expanded into (segment, access) pairs sorted by
    segment and then by replay order.  A running maximum of write
    positions then gives each pair the previous write, and a running
    minimum from the other end the next one; they count only within the
    pair's own segment."""
    key, lo, hi, who, write = acc.T
    stride = int(hi.max())      # memory k is at [k·stride, (k+1)·stride)
    lo, hi = key * stride + lo, key * stride + hi
    cuts = _distinct(np.concatenate((lo, hi)))
    s0 = np.searchsorted(cuts, lo)
    n = np.searchsorted(cuts, hi) - s0
    ac = np.repeat(np.arange(len(acc)), n)
    seg = np.arange(len(ac)) - np.repeat(np.cumsum(n) - n - s0, n)
    order = np.argsort(seg, kind="stable")
    ac, seg = ac[order], seg[order]
    is_w, inst, pos = write[ac] == 1, who[ac], np.arange(len(ac))
    prev = np.maximum.accumulate(np.where(is_w, pos, -1))
    prev = np.concatenate(([-1], prev[:-1]))
    has_prev = prev >= 0
    has_prev[has_prev] = seg[prev[has_prev]] == seg[has_prev]
    nxt = np.minimum.accumulate(np.where(is_w, pos, len(ac))[::-1])[::-1]
    nxt = np.concatenate((nxt[1:], [len(ac)]))
    has_next = nxt < len(ac)
    has_next[has_next] = seg[nxt[has_next]] == seg[has_next]
    # the accesses of the previous and the next write, where there is one
    wa, na = ac[prev], ac[np.minimum(nxt, len(ac) - 1)]

    # RAW: a read of a write not finished when the read starts, one
    # entry per run of adjacent segments of one write range in one read
    m = ~is_w & has_prev
    m[m] = end[who[wa[m]]] > start[inst[m]]
    r, w, sg = ac[m], wa[m], seg[m]
    o = np.lexsort((sg, r))
    r, w, sg = r[o], w[o], sg[o]
    new = np.ones(len(r) + 1, bool)     # a run starts at pair i, or i = end
    new[1:-1] = (r[1:] != r[:-1]) | (w[1:] != w[:-1]) | (sg[1:] != sg[:-1] + 1)
    a, b = np.flatnonzero(new[:-1]), np.flatnonzero(new[1:])
    base = key[r[a]] * stride
    out = [(ra, 0, wi, blo, bhi) for ra, wi, blo, bhi in zip(
        r[a].tolist(), who[w[a]].tolist(), (cuts[sg[a]] - base).tolist(),
        (cuts[sg[b] + 1] - base).tolist())]
    # WAR: a read by another instruction, not finished when the next
    # write of its bytes starts; WAW: a write over bytes whose previous
    # writer, another instruction, has not finished
    m = ~is_w & has_next
    m[m] = (inst[m] != who[na[m]]) & (end[inst[m]] > start[who[na[m]]])
    war = _distinct(na[m] * len(start) + inst[m])
    m = is_w & has_prev
    m[m] = (who[wa[m]] != inst[m]) & (end[who[wa[m]]] > start[inst[m]])
    waw = _distinct(ac[m] * len(start) + who[wa[m]])
    for kind, pairs in ((1, war), (2, waw)):
        out += [(ra, kind, other, 0, 0) for ra, other in zip(
            *(x.tolist() for x in divmod(pairs, len(start))))]
    out.sort()
    return out


def check_hazards(prog, trace, allocs=None, cfg=None):
    """Validate a trace against exact byte footprints.

    Empty report iff (1) every read starts at or after the completion of
    the instruction that produced those bytes (RAW), no write begins
    before a pending earlier read of those bytes has finished (WAR), and
    no write begins before an earlier writer of those bytes has finished
    (WAW), (2) no two allocations of one FM memory share bytes while
    their instruction spans, first to last inclusive, overlap, and (3) no
    FM or PM port serves two concurrently-executing instructions in the
    same direction.

    For (1) the footprint table's rows (`machine.footprints`) of every
    traced instruction, in issue order, reads before writes, are expanded
    into exact byte ranges (`_exact_ranges`) and replayed by one sorted
    sweep over byte segments (`_memory_hazards`), written here rather
    than taken from `pipeline.py`, whose dependency derivation sweeps
    covering ranges the same way: the check shares only the operand
    description with what it checks.  The sweep compares
    the times of each read with those of the previous write of its bytes,
    and of each write with those of the previous write and the reads in
    between.  A read gets one raw-hazard entry per run of bytes that one
    unfinished write range left; a write gets one war-hazard entry per
    unfinished reader of its bytes and one waw-hazard entry per
    unfinished writer of them.  Entries follow the replay order of their
    read or write, raw before war before waw, then by instruction and
    byte.  The same rows give the users of each FM and PM port for (3).
    Accesses of zero bytes touch nothing and hold no port.  The
    allocations of (2) are the compiler's planned windows
    (`memmap["fm_allocs"]`), and the check is of the plan, not the
    timing: the issue order is a valid sequential execution, and in it no
    window may be reused while it is still in use.  Trace times would
    flag sound programs, since a window is coarser than its accesses:
    when the last access to one window and the first to the next touch
    different bytes of the slot, nothing orders them, and rightly so.
    `cfg` is accepted and unused.
    """
    report = []
    instrs = prog.instructions
    ev = {e.index: e for e in trace.events if 0 <= e.index < len(instrs)}
    # float64 holds every cycle count exactly
    start, end = np.zeros(len(instrs)), np.zeros(len(instrs))
    start[list(ev)] = [e.start for e in ev.values()]
    end[list(ev)] = [e.end for e in ev.values()]

    table, mems = footprints(instrs)
    traced = np.zeros(len(instrs), bool)
    traced[list(ev)] = True
    used = table[traced[table[:, 3]] & (table[:, 1] < table[:, 2])]
    acc = _exact_ranges(used)
    for rr, kind, other, blo, bhi in (_memory_hazards(acc, start, end)
                                      if len(acc) else ()):
        k, lo, hi, idx, _w = acc[rr].tolist()
        space, mem = mems[k]
        if kind == 0:
            report.append(
                ("raw-hazard", idx, other,
                 f"instr {idx} reads {space}{mem}[{blo},{bhi}) before "
                 f"writer {other} completes"))
        elif kind == 1:
            report.append(
                ("war-hazard", idx, other,
                 f"instr {idx} overwrites {space}{mem} bytes "
                 f"instr {other} is still reading"))
        else:
            report.append(
                ("waw-hazard", idx, other,
                 f"instr {idx} writes {space}{mem}[{lo},{hi}) before "
                 f"writer {other} completes"))

    if allocs:
        for i, j in _live_alloc_overlaps(allocs):
            a, b = allocs[i], allocs[j]
            report.append(
                ("alloc-overlap", a["key"], b["key"],
                 f"live allocations {a['key']} and {b['key']} "
                 f"overlap in fm{a['mem']}"))

    is_ddr = np.array([space == DDR for space, _mem in mems], bool)
    use = used[~is_ddr[used[:, 0]]]
    port, who = use[:, 0] * 2 + use[:, 4], use[:, 3]
    for p in dict.fromkeys(port.tolist()):  # (memory, direction) by first use
        space, mem = mems[p // 2]
        users = sorted(dict.fromkeys(who[port == p].tolist()),
                       key=lambda i: ev[i].start)
        for a, b in zip(users, users[1:]):
            if ev[a].end > ev[b].start:
                report.append(
                    ("port-conflict", a, b,
                     f"{space}{mem} {('read', 'write')[p % 2]} port "
                     f"used by {a} and {b} concurrently"))
    return report


# ---------------------------------------------------------------------------
# whole-program convenience runners
# ---------------------------------------------------------------------------

def run_program(prog, cfg, inputs):
    """Functional end-to-end run: preload the parameter image and the
    inputs, execute, collect outputs."""
    state = MachineState(cfg, max(
        (b + s for b, s in prog.segments.values()), default=0))
    if prog.param_image:
        state.preload(prog.segments["parameters"][0], prog.param_image)
    for name, data in inputs.items():
        t = prog.tensors[name]
        arr = np.ascontiguousarray(np.asarray(data, np.int8))
        if tuple(arr.shape) != tuple(t["shape"]):
            raise ShapeError(f"input {name}: got {arr.shape}, program "
                             f"expects {tuple(t['shape'])}")
        state.preload(prog.segments[t["segment"]][0] + t["off"], arr)
    run_functional(prog, state)
    outputs = {}
    for name, t in prog.tensors.items():
        if t["segment"] != "outputs":
            continue
        base, n = prog.segments["outputs"][0] + t["off"], t["bytes"]
        raw = state.access(DDR, 0, base, (1, 1, n), (n, n), write=False)[0]
        outputs[name] = raw.view(np.int8).reshape(t["shape"]).copy()
    return outputs
