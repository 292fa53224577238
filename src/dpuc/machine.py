"""Abstract machine definition: memories, instruction set, cost model.

The machine has four units (LOAD, SAVE, CONV, MISC), each with its own
in-order queue, three linear feature-map memories (FM) with one read and
one write port each, a linear parameter memory (PM) shared by the conv
unit, and a flat DDR split into five segments.  An access outside a memory
is an OutOfBoundsError; addresses never wrap.  Instructions synchronize
through DPON/DPBY sets over the four unit types only.

`Instruction.layout` and `Instruction.operand` describe every operand once
(shape, strides, memory) for dependency derivation, the window planner,
the hazard checker and the functional simulator, and `footprints`
tables them for a stream: covering ranges and exact blocks alike.
"""

import json
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .errors import AsmError, OutOfBoundsError, ParseError

LOAD = "LOAD"
SAVE = "SAVE"
CONV = "CONV"
MISC = "MISC"
OP_TYPES = (LOAD, SAVE, CONV, MISC)

# Fixed mask bit order (LOAD, SAVE, CONV, MISC) = bits 3..0.  The hardware
# encoding is immaterial; this order is pinned for reproducible assembly.
_MASK_BIT = {LOAD: 3, SAVE: 2, CONV: 1, MISC: 0}

DDR = "ddr"
FM = "fm"
PM = "pm"

DDR_SEGMENTS = ("inputs", "outputs", "parameters", "instructions", "swap")


def dep_mask(ops):
    m = 0
    for op in ops:
        m |= 1 << _MASK_BIT[op]
    return m


def mask_deps(mask):
    if not 0 <= mask < 16:
        raise ValueError(f"dependency mask out of range: {mask}")
    return frozenset(op for op, bit in _MASK_BIT.items() if mask & (1 << bit))


@dataclass(frozen=True)
class MachineConfig:
    """All hardware parameters; defaults are desk-scale but structurally
    faithful (three 8-bank FM memories, preferred conv height 8)."""

    fm_memories: int = 3
    fm_banks_per_memory: int = 8
    fm_bank_rows: int = 64
    fm_row_bytes: int = 2048
    pm_bytes: int = 131072
    # max width*channels bytes of a single row-vector operation; sized so a
    # 112x64 output row (7168 B) needs no width split but 224x64 does
    gamma: int = 8192
    h_c: int = 8
    h_p: int = 2
    h_e: int = 2
    ddr_bytes_per_cycle: int = 16
    conv_macs_per_cycle: int = 1024
    misc_elems_per_cycle: int = 64
    issue_overhead: int = 4
    clock_mhz: int = 300
    ddr_capacity: int = 0  # 0 = uncapped

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name in ("ddr_capacity", "issue_overhead"):
                if v < 0:
                    raise ValueError(f"{f.name} must be >= 0, got {v}")
            elif v <= 0:
                raise ValueError(f"{f.name} must be positive, got {v}")
        if self.h_c < self.h_p:
            raise ValueError("h_c must be >= h_p")

    @property
    def fm_bytes(self):
        """Capacity of one FM memory."""
        return self.fm_banks_per_memory * self.fm_bank_rows * self.fm_row_bytes

    def round_to_bank_row(self, nbytes):
        return -(-nbytes // self.fm_row_bytes) * self.fm_row_bytes

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            text = fh.read()
        try:
            return cls(**json.loads(text))
        except (TypeError, ValueError) as e:
            raise ParseError(f"config {path}: {e}") from e

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump({f.name: getattr(self, f.name) for f in fields(self)},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")


class _AddrFields(NamedTuple):
    space: str  # ddr | fm | pm
    off: int
    mem: int = 0  # fm memory index; 0 for ddr/pm


class Addr(_AddrFields):
    """A placed operand address: immutable, hashable, equal by value."""

    __slots__ = ()

    def __new__(cls, space, off, mem=0):
        if space not in (DDR, FM, PM):
            raise ValueError(f"bad address space {space}")
        return tuple.__new__(cls, (space, off, mem))

    def text(self):
        if self.space == FM:
            return f"fm{self.mem}:{self.off}"
        return f"{self.space}:{self.off}"

    __str__ = text

    @classmethod
    def parse(cls, tok):
        space, _, off = tok.partition(":")
        if space.startswith("fm") and len(space) > 2:
            return cls(FM, int(off), int(space[2:]))
        if space in (DDR, PM):
            return cls(space, int(off))
        raise ValueError(f"bad address token {tok}")


# sub-op -> ordered field names serialized after the dependency masks
_ASM_FIELDS = {
    (LOAD, "act"): ("src", "dst", "rows", "blocks", "block_bytes",
                    "ddr_row_stride", "ddr_blk_stride"),
    (LOAD, "weight"): ("src", "dst", "rows", "blocks", "block_bytes",
                       "ddr_row_stride", "ddr_blk_stride"),
    (SAVE, "act"): ("src", "dst", "rows", "blocks", "block_bytes",
                    "ddr_row_stride", "ddr_blk_stride"),
    (CONV, "conv"): ("src", "dst", "wgt_off", "wgt_bytes", "in_rows", "in_w",
                     "c_in", "out_w", "c_out", "kh", "kw", "sh", "sw",
                     "pt", "pl", "pb", "pr", "shift"),
    (MISC, "maxpool"): ("src", "dst", "in_rows", "in_w", "c_in", "out_w",
                        "kh", "kw", "sh", "sw", "pt", "pl", "pb", "pr",
                        "shift"),
    (MISC, "eltwise"): ("src", "src2", "dst", "rows", "w", "c",
                        "ea", "eb", "eo"),
    (MISC, "move"): ("src", "dst", "rows", "blocks", "block_bytes",
                     "src_row_stride", "dst_row_stride",
                     "src_blk_stride", "dst_blk_stride"),
    (MISC, "upsample"): ("src", "dst", "in_rows", "w", "c", "factor",
                         "out_rows"),
    (LOAD, "noop"): (),
    (SAVE, "noop"): (),
    (CONV, "noop"): (),
    (MISC, "noop"): (),
}

_ADDR_FIELDS = {"src", "src2", "dst"}

# timeline colour class of each sub-op
_COLORS = {
    (LOAD, "act"): "load-activation", (LOAD, "weight"): "load-weight",
    (LOAD, "noop"): "load-activation",
    (SAVE, "act"): "save", (SAVE, "noop"): "save",
    (CONV, "conv"): "conv", (CONV, "noop"): "conv",
    (MISC, "maxpool"): "pool", (MISC, "eltwise"): "eltwise",
    (MISC, "move"): "eltwise", (MISC, "upsample"): "eltwise",
    (MISC, "noop"): "eltwise",
}

# sub-op -> the operands it reads, in order; every other sub-op reads src
_READS = {"eltwise": ("src", "src2"), "conv": ("src", "wgt"), "noop": ()}

# sub-op -> the operands of its footprint as (field, is write): the
# `_READS` operands in order, then dst unless it is a no-op
_FOOTPRINT_FIELDS = {
    sub: tuple((f, 0) for f in _READS.get(sub, ("src",)))
    + (() if sub == "noop" else (("dst", 1),))
    for _op, sub in _ASM_FIELDS}

# geometry fields that may be negative, and those that must be at least 1
_SIGNED_FIELDS = {"shift", "ea", "eb", "eo"}
_POSITIVE_FIELDS = {"kh", "kw", "sh", "sw", "factor"}


def span(shape, strides):
    """Bytes a (rows, blocks, block_bytes) operand at (row, block) strides
    covers from its first block to the end of its last; 0 when it holds no
    byte."""
    rows, blocks, size = shape
    if not rows * blocks * size:
        return 0
    row, blk = strides
    return (rows - 1) * row + (blocks - 1) * blk + size


def blocks_overlap(rows, blocks, size, row, blk):
    """True when two of the rows x blocks runs of `size` bytes, run (r, b)
    at offset r·row + b·blk, share a byte (counts and strides are
    non-negative).

    Two runs overlap iff their offsets differ by less than `size`.  When
    one count is 1, that is the other stride below `size`.  Otherwise take
    the dimension with the larger stride s1 as outer and the other (count
    n2, stride s2) as inner: an inner step alone overlaps iff s2 < size.
    Past that, for an outer step d only the inner steps k = d·s1 // s2 and
    k + 1 can come within `size`, and once d·s1 reaches
    size + (n2 - 1)·s2 no later outer step can."""
    if size == 0 or rows * blocks <= 1:
        return False
    if rows == 1 or blocks == 1:
        return (blk if rows == 1 else row) < size
    (n1, s1), (n2, s2) = sorted(((rows, row), (blocks, blk)),
                                key=lambda p: p[1], reverse=True)
    if s2 < size:
        return True
    for d in range(1, n1):
        x = d * s1
        if x >= size + (n2 - 1) * s2:
            return False
        k = x // s2
        if k <= n2 - 1 and x - k * s2 < size:
            return True
        if k + 1 <= n2 - 1 and (k + 1) * s2 - x < size:
            return True
    return False


@dataclass(slots=True)
class Instruction:
    op: str
    sub: str
    dpon: frozenset = frozenset()
    dpby: frozenset = frozenset()
    src: Addr = None
    src2: Addr = None
    dst: Addr = None
    # transfer / move geometry
    rows: int = None
    blocks: int = None
    block_bytes: int = None
    ddr_row_stride: int = None
    ddr_blk_stride: int = None
    src_row_stride: int = None
    dst_row_stride: int = None
    src_blk_stride: int = None
    dst_blk_stride: int = None
    # windowed-op geometry
    in_rows: int = None
    in_w: int = None
    c_in: int = None
    out_w: int = None
    c_out: int = None
    kh: int = None
    kw: int = None
    sh: int = None
    sw: int = None
    pt: int = None
    pl: int = None
    pb: int = None
    pr: int = None
    shift: int = None
    # eltwise
    w: int = None
    c: int = None
    ea: int = None
    eb: int = None
    eo: int = None
    # upsample
    factor: int = None
    out_rows: int = None
    # conv weights
    wgt_off: int = None
    wgt_bytes: int = None

    def __post_init__(self):
        if (self.op, self.sub) not in _ASM_FIELDS:
            raise ValueError(f"unknown instruction {self.op}/{self.sub}")

    @property
    def is_noop(self):
        return self.sub == "noop"

    def conv_out_rows(self):
        """Output rows of a windowed op: a conv or a max pool."""
        return (self.in_rows + self.pt + self.pb - self.kh) // self.sh + 1

    def conv_macs(self):
        return (self.conv_out_rows() * self.out_w * self.c_out
                * self.kh * self.kw * self.c_in)

    def transfer_bytes(self):
        return self.rows * self.blocks * self.block_bytes

    def geometry_error(self):
        """Why this instruction's geometry is malformed, else None: a
        negative unsigned field, a kernel, stride, upsample factor or
        upsample width below 1, an address in another space than
        `operand` gives its operand, a CONV weight block that is not its
        taps and biases, a window taller than its padded input, an
        upsample with rows its input does not feed, or a strided operand
        whose blocks overlap.  Fields go first: `layout` divides by sh."""
        if self.is_noop:
            return None
        for name in _ASM_FIELDS[(self.op, self.sub)]:
            if name in _ADDR_FIELDS or name in _SIGNED_FIELDS:
                continue
            v = getattr(self, name)
            if v < 0:
                return f"{name}={v} is negative"
            if v < 1 and (name in _POSITIVE_FIELDS
                          or name == "w" and self.sub == "upsample"):
                return f"{name}={v} is below 1"
        for f in ("src", "src2", "dst"):
            a = getattr(self, f)
            if a is not None and (a.space, a.mem) != self.operand(f)[:2]:
                return f"{f}={a.text()} must address {self.operand(f)[0]}"
        if self.op == CONV:
            want = self.c_out * (self.kh * self.kw * self.c_in + 4)
            if self.wgt_bytes != want:
                return (f"wgt_bytes={self.wgt_bytes} is not the {want} B of "
                        f"c_out x kh x kw x c_in taps and c_out biases")
        if self.op == CONV or self.sub == "maxpool":
            if self.in_rows + self.pt + self.pb < self.kh:
                return (f"kh={self.kh} exceeds in_rows={self.in_rows} "
                        f"padded by pt={self.pt} and pb={self.pb}")
        elif self.sub == "upsample" and \
                self.out_rows > self.in_rows * self.factor:
            return (f"out_rows={self.out_rows} exceeds in_rows="
                    f"{self.in_rows} x factor={self.factor}")
        for f in ("src", "dst"):
            shape, strides = self.layout(f)
            if blocks_overlap(*shape, *strides):
                return (f"{f} blocks overlap: {shape[0]} rows x {shape[1]} "
                        f"blocks of {shape[2]} B at strides {strides[0]}, "
                        f"{strides[1]}")
        return None

    # ---- operands (one description for every reader of the program) ----

    def layout(self, f):
        """((rows, blocks, block_bytes), (row, block) strides) of operand f
        ("src", "src2", "dst" or a conv's PM weights "wgt").  The DDR side
        of a transfer and both sides of a move are strided; every other
        operand is one run of n bytes, ((1, 1, n), (n, n)).  The operand's
        address is never read, so a symbolic operand has a layout too."""
        op = self.op
        if f == "wgt":
            n = self.wgt_bytes
        elif op == LOAD or op == SAVE:
            if (f == "src") == (op == LOAD):
                return ((self.rows, self.blocks, self.block_bytes),
                        (self.ddr_row_stride, self.ddr_blk_stride))
            n = self.rows * self.blocks * self.block_bytes
        elif op == CONV:
            n = (self.in_rows * self.in_w * self.c_in if f != "dst"
                 else self.conv_out_rows() * self.out_w * self.c_out)
        elif self.sub == "move":
            return ((self.rows, self.blocks, self.block_bytes),
                    (self.src_row_stride, self.src_blk_stride) if f == "src"
                    else (self.dst_row_stride, self.dst_blk_stride))
        elif self.sub == "maxpool":
            n = (self.in_rows * self.in_w if f != "dst"
                 else self.conv_out_rows() * self.out_w) * self.c_in
        elif self.sub == "eltwise":
            n = self.rows * self.w * self.c
        elif self.sub == "upsample":
            n = (self.in_rows * self.w if f != "dst" else
                 self.out_rows * ((self.w - 1) * self.factor + 1)) * self.c
        else:
            raise AssertionError(self.sub)
        return (1, 1, n), (n, n)

    def operand(self, f):
        """(space, mem, off, shape, strides) of operand f: its `layout`
        and the memory it addresses.  A conv's "wgt" is PM at wgt_off, the
        DDR side of a transfer is DDR, a LOAD's dst is in the space its
        address names, a move uses both its addresses' spaces, else FM."""
        shape, strides = self.layout(f)
        if f == "wgt":
            return PM, 0, self.wgt_off, shape, strides
        a = getattr(self, f)
        op = self.op
        if op == LOAD and f == "dst" or self.sub == "move":
            return a.space, a.mem, a.off, shape, strides
        if op == LOAD or op == SAVE and f == "dst":
            return DDR, 0, a.off, shape, strides
        return FM, a.mem, a.off, shape, strides

    def extent(self, f):
        """Bytes operand f covers from its own address: the range from its
        first block to the end of its last, or nothing when it moves no
        byte."""
        return span(*self.layout(f))

    def color(self):
        """Timeline color class."""
        return _COLORS[self.op, self.sub]


@dataclass
class Program:
    instructions: list = field(default_factory=list)
    param_image: bytes = b""
    # tensor name -> dict(segment, off, bytes, shape, step_exp)
    tensors: dict = field(default_factory=dict)
    # segment name -> (base, size)
    segments: dict = field(default_factory=dict)

    @property
    def input_names(self):
        """The input tensors in the order of their DDR offsets: the order
        of the graph inputs, under their folded names."""
        return sorted((n for n, t in self.tensors.items()
                       if t["segment"] == "inputs"),
                      key=lambda n: self.tensors[n]["off"])

    def __eq__(self, other):
        return (isinstance(other, Program)
                and self.instructions == other.instructions
                and self.tensors == other.tensors
                and self.segments == other.segments)


def instruction_cost(ins, cfg):
    """Deterministic duration in cycles: linear in work + fixed overhead."""
    oh = cfg.issue_overhead
    if ins.is_noop:
        return oh
    if ins.op in (LOAD, SAVE):
        return math.ceil(ins.transfer_bytes() / cfg.ddr_bytes_per_cycle) + oh
    if ins.op == CONV:
        return math.ceil(ins.conv_macs() / cfg.conv_macs_per_cycle) + oh
    # the bytes written, which for a move are fewer than its dst extent
    elems = math.prod(ins.layout("dst")[0])
    return math.ceil(elems / cfg.misc_elems_per_cycle) + oh


def footprints(instructions):
    """Every instruction's footprint, taken once: an int64 table with a row
    (memory key, lo, hi, instruction, is write, rows, blocks, block_bytes,
    row stride, block stride) per `_FOOTPRINT_FIELDS` operand, in issue
    order and each instruction's reads before its writes, and the (space,
    mem) each memory key stands for.  [lo, hi) is the operand's covering
    range, and the last five columns are its `layout`, with 0 for a stride
    never stepped.  Empty ranges keep their row; a range past 64-bit
    addresses raises OutOfBoundsError."""
    keys = {}
    rows = []
    for idx, ins in enumerate(instructions):
        for f, w in _FOOTPRINT_FIELDS[ins.sub]:
            space, mem, off, shape, strides = ins.operand(f)
            n, b, size = shape
            row, blk = strides if n * b * size else (0, 0)
            rows += (keys.setdefault((space, mem), len(keys)), off,
                     off + span(shape, strides), idx, w, n, b, size,
                     row if n > 1 else 0, blk if b > 1 else 0)
    try:
        return np.fromiter(rows, np.int64).reshape(-1, 10), list(keys)
    except OverflowError:
        raise OutOfBoundsError("a range does not fit 64-bit byte "
                               "addresses") from None


def check_bounds(instructions, fp, cfg):
    """Raise OutOfBoundsError for the first range of the footprints `fp`
    (from `footprints(instructions)`) with a negative offset or outside
    its memory, naming the instruction and the range."""
    table, mems = fp
    # an FM memory that does not exist ends before byte 0, DDR without a
    # cap past every range
    limit = np.array([
        (cfg.fm_bytes if 0 <= mem < cfg.fm_memories else -1) if space == FM
        else cfg.pm_bytes if space == PM
        else cfg.ddr_capacity or np.iinfo(np.int64).max
        for space, mem in mems], np.int64)
    key, lo, hi = table[:, :3].T
    bad = np.flatnonzero((lo < 0) | (hi > limit[key]))
    if not len(bad):
        return
    k, lo, hi, idx = (int(v) for v in table[bad[0], :4])
    space, mem = mems[k]
    ins = instructions[idx]
    if lo < 0:
        text = f"negative offset in {ins.op}/{ins.sub}"
    elif space == FM and limit[k] < 0:
        text = f"fm{mem} does not exist ({cfg.fm_memories} FM memories)"
    elif space == FM:
        text = f"fm{mem} range [{lo},{hi}) exceeds {cfg.fm_bytes}"
    elif space == PM:
        text = f"pm range [{lo},{hi}) exceeds {cfg.pm_bytes}"
    else:
        text = f"ddr range [{lo},{hi}) exceeds cap"
    where = f"fm{mem}" if space == FM else space
    raise OutOfBoundsError(f"{text} (instruction {idx}, {where}[{lo},{hi}))")


# ---------------------------------------------------------------------------
# Assembly text
# ---------------------------------------------------------------------------

# the text of each of the 16 DPON/DPBY sets
_MASK_TEXT = {mask_deps(m): f"0b{m:04b}" for m in range(16)}


def _asm_writer(op, sub):
    """The function writing one `op`/`sub` instruction's line, generated
    from `_ASM_FIELDS` the way `collections.namedtuple` generates its
    methods: one compiled f-string over the instruction's DPON and DPBY
    sets (as `_MASK_TEXT`) and its `_ASM_FIELDS` values, in order, each
    as `name=value`, an address as its `text()`."""
    names = _ASM_FIELDS[(op, sub)]
    assert all(n.isidentifier() for n in (op, sub, *names))
    line = " ".join(
        [op, "{m[i.dpon]}", "{m[i.dpby]}", sub]
        + [f"{n}={{i.{n}.text()}}" if n in _ADDR_FIELDS else f"{n}={{i.{n}}}"
           for n in names])
    return eval(f"lambda i: f{line!r}", {"m": _MASK_TEXT})


_ASM_WRITERS = {key: _asm_writer(*key) for key in _ASM_FIELDS}


def emit_assembly(prog):
    """One instruction per line: OPTYPE <dpon> <dpby> <sub> <k=v...>,
    each written by its sub-op's generated writer (`_asm_writer`), so
    `_ASM_FIELDS` states the line format for writer and parser alike.

    Program metadata (segment table, tensor map) is carried in structured
    comment lines so the text round-trips completely.
    """
    lines = ["# dpuc-asm v1"]
    for name in sorted(prog.segments):
        base, size = prog.segments[name]
        lines.append(f"# segment {name} {base} {size}")
    for name in sorted(prog.tensors):
        t = prog.tensors[name]
        shape = "x".join(str(d) for d in t["shape"])
        lines.append(f"# tensor {name} {t['segment']} {t['off']} "
                     f"{t['bytes']} {shape} {t['step_exp']}")
    writers = _ASM_WRITERS
    lines += [writers[ins.op, ins.sub](ins) for ins in prog.instructions]
    return "\n".join(lines) + "\n"


def parse_assembly(text):
    """Parse assembly text into a Program.  AsmError names the first bad
    line, and a segment overlapping an earlier one; a tensor outside its
    segment is caught after the last line."""
    prog = Program()
    tensor_lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            toks = line[1:].split()
            want = {"segment": 4, "tensor": 7}.get(toks[0] if toks else None)
            if want is None:
                continue
            if len(toks) < want:
                raise AsmError(lineno, f"# {toks[0]} needs {want - 1} "
                                       f"fields, got {len(toks) - 1}")
            kind, name = toks[:2]
            try:
                if kind == "segment":
                    seg, nums = name, (int(toks[2]), int(toks[3]))
                else:
                    seg, nums = toks[2], (int(toks[3]), int(toks[4]))
                    shape = tuple(int(d) for d in toks[5].split("x"))
                    prog.tensors[name] = {
                        "segment": seg, "off": nums[0], "bytes": nums[1],
                        "shape": shape, "step_exp": int(toks[6])}
                    tensor_lines[name] = lineno
                    if min(shape) < 1 or nums[1] != math.prod(shape):
                        raise ValueError(f"{nums[1]} B is not the product "
                                         f"of positive dims {toks[5]}")
                if seg not in DDR_SEGMENTS or min(nums) < 0:
                    raise ValueError(f"want one of {DDR_SEGMENTS} and no "
                                     f"negative number, got {seg} {nums}")
                if kind == "segment":
                    lo, hi = nums[0], nums[0] + nums[1]
                    for other, (b, n) in prog.segments.items():
                        if (other != name and n and nums[1] and b < hi
                                and lo < b + n):
                            raise ValueError(f"[{lo},{hi}) overlaps segment "
                                             f"{other} [{b},{b + n})")
                    prog.segments[name] = nums
            except ValueError as e:
                raise AsmError(lineno, f"# {kind} {name}: {e}") from None
            continue
        toks = line.split()
        if len(toks) < 4:
            raise AsmError(lineno, f"too few tokens: {line!r}")
        op, dpon_t, dpby_t, sub = toks[:4]
        if op not in OP_TYPES:
            raise AsmError(lineno, f"unknown op type {op!r}")
        if (op, sub) not in _ASM_FIELDS:
            raise AsmError(lineno, f"unknown sub-op {sub!r} for {op}")
        try:
            kw = {"op": op, "sub": sub,
                  "dpon": mask_deps(int(dpon_t, 2)),
                  "dpby": mask_deps(int(dpby_t, 2))}
        except ValueError as e:
            raise AsmError(lineno, str(e)) from None
        want = _ASM_FIELDS[(op, sub)]
        got = toks[4:]
        if len(got) != len(want):
            raise AsmError(lineno, f"expected {len(want)} fields, got {len(got)}")
        for name, tok in zip(want, got):
            key, _, val = tok.partition("=")
            if key != name:
                raise AsmError(lineno, f"expected field {name}, got {key}")
            try:
                kw[name] = Addr.parse(val) if name in _ADDR_FIELDS else int(val)
            except ValueError as e:
                raise AsmError(lineno, str(e)) from None
        ins = Instruction(**kw)
        err = ins.geometry_error()
        if err:
            raise AsmError(lineno, f"{op}/{sub}: {err}")
        prog.instructions.append(ins)
    for name, lineno in tensor_lines.items():
        t = prog.tensors[name]
        segment = prog.segments.get(t["segment"])
        if segment is None or t["off"] + t["bytes"] > segment[1]:
            raise AsmError(lineno, f"# tensor {name}: [{t['off']},"
                                   f"{t['off'] + t['bytes']}) is not inside "
                                   f"a declared {t['segment']} segment")
    return prog
