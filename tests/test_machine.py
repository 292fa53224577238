import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpuc import lowering as L
from dpuc import machine as M
from dpuc import simulator as S
from dpuc.errors import AsmError, OutOfBoundsError


def mkcfg(**kw):
    return M.MachineConfig(**kw)


def test_dep_mask_bit_order():
    assert M.dep_mask({M.LOAD}) == 0b1000
    assert M.dep_mask({M.SAVE}) == 0b0100
    assert M.dep_mask({M.CONV}) == 0b0010
    assert M.dep_mask({M.MISC}) == 0b0001
    assert M.dep_mask(M.OP_TYPES) == 0b1111


@given(st.sets(st.sampled_from(M.OP_TYPES)))
def test_mask_roundtrip(ops):
    assert M.mask_deps(M.dep_mask(ops)) == frozenset(ops)


def test_noop_cost_is_overhead_only():
    cfg = mkcfg(issue_overhead=4)
    ins = M.Instruction(op=M.MISC, sub="noop")
    assert M.instruction_cost(ins, cfg) == 4


def test_load_cost_division():
    cfg = mkcfg(ddr_bytes_per_cycle=16, issue_overhead=1)
    ins = M.Instruction(op=M.LOAD, sub="act",
                        src=M.Addr(M.DDR, 0), dst=M.Addr(M.FM, 0, 0),
                        rows=4, blocks=1, block_bytes=256,
                        ddr_row_stride=256, ddr_blk_stride=0)
    # 1024 bytes at 16 B/cycle -> 64 cycles, plus unit overhead
    assert M.instruction_cost(ins, cfg) == 64 + 1


def conv_instr(in_rows=10, in_w=16, c_in=64, out_w=16, c_out=64,
               kh=3, kw=3, sh=1, sw=1, pads=(0, 0, 0, 0)):
    pt, pl, pb, pr = pads
    return M.Instruction(op=M.CONV, sub="conv",
                         src=M.Addr(M.FM, 0, 0), dst=M.Addr(M.FM, 0, 1),
                         wgt_off=0, wgt_bytes=(kh * kw * c_in + 4) * c_out,
                         in_rows=in_rows, in_w=in_w, c_in=c_in,
                         out_w=out_w, c_out=c_out, kh=kh, kw=kw,
                         sh=sh, sw=sw, pt=pt, pl=pl, pb=pb, pr=pr, shift=0)


def test_conv_cost_matches_mac_count():
    # independent arithmetic oracle for the MAC count
    cfg = mkcfg(conv_macs_per_cycle=1024, issue_overhead=0)
    ins = conv_instr(in_rows=10, in_w=18, c_in=64, out_w=16, c_out=64)
    out_rows = (10 - 3) // 1 + 1
    macs = 0
    for _ in range(out_rows):
        for _ in range(16):
            for _ in range(64):
                macs += 3 * 3  # kernel positions
    macs *= 64  # input channels
    assert out_rows == 8
    assert macs == 8 * 16 * 64 * 3 * 3 * 64
    assert M.instruction_cost(ins, cfg) == math.ceil(macs / 1024) == 4608


@given(st.integers(1, 64), st.integers(1, 64))
def test_cost_monotone_in_bytes(rows_a, rows_b):
    cfg = mkcfg()
    def load(rows):
        return M.Instruction(op=M.LOAD, sub="act",
                             src=M.Addr(M.DDR, 0), dst=M.Addr(M.FM, 0, 0),
                             rows=rows, blocks=1, block_bytes=128,
                             ddr_row_stride=128, ddr_blk_stride=0)
    ca, cb = M.instruction_cost(load(rows_a), cfg), M.instruction_cost(load(rows_b), cfg)
    if rows_a <= rows_b:
        assert ca <= cb


def sample_program():
    prog = M.Program()
    prog.segments = {"inputs": (0, 1024), "outputs": (1024, 1024),
                     "parameters": (2048, 512), "instructions": (2560, 0),
                     "swap": (2560, 0)}
    prog.tensors = {"x": {"segment": "inputs", "off": 0, "bytes": 768,
                          "shape": (4, 6, 32), "step_exp": -3}}
    prog.instructions = [
        M.Instruction(op=M.LOAD, sub="act", dpby=frozenset({M.CONV}),
                      src=M.Addr(M.DDR, 0), dst=M.Addr(M.FM, 0, 0),
                      rows=4, blocks=1, block_bytes=192,
                      ddr_row_stride=192, ddr_blk_stride=0),
        conv_instr(in_rows=4, in_w=6, c_in=32, out_w=4, c_out=8),
        M.Instruction(op=M.MISC, sub="eltwise",
                      src=M.Addr(M.FM, 0, 0), src2=M.Addr(M.FM, 64, 1),
                      dst=M.Addr(M.FM, 0, 2), rows=2, w=4, c=8,
                      ea=0, eb=1, eo=-1),
        M.Instruction(op=M.MISC, sub="noop"),
        M.Instruction(op=M.SAVE, sub="act", dpon=frozenset({M.MISC}),
                      src=M.Addr(M.FM, 0, 2), dst=M.Addr(M.DDR, 1024),
                      rows=2, blocks=4, block_bytes=8,
                      ddr_row_stride=64, ddr_blk_stride=16),
    ]
    return prog


def test_emit_single_conv_masks():
    prog = M.Program()
    prog.instructions = [
        M.Instruction(op=M.CONV, sub="conv", dpon=frozenset({M.LOAD}),
                      dpby=frozenset({M.SAVE}),
                      src=M.Addr(M.FM, 0, 0), dst=M.Addr(M.FM, 0, 1),
                      wgt_off=0, wgt_bytes=9, in_rows=3, in_w=3, c_in=1,
                      out_w=1, c_out=1, kh=3, kw=3, sh=1, sw=1,
                      pt=0, pl=0, pb=0, pr=0, shift=0)]
    text = M.emit_assembly(prog)
    line = [l for l in text.splitlines() if not l.startswith("#")][0]
    assert line.startswith("CONV 0b1000 0b0100 conv ")


def test_empty_program_emits_header_only():
    text = M.emit_assembly(M.Program())
    assert all(l.startswith("#") for l in text.splitlines())
    assert M.parse_assembly(text) == M.Program()


def test_roundtrip_sample_program():
    prog = sample_program()
    assert M.parse_assembly(M.emit_assembly(prog)) == prog


def test_parse_rejects_bad_lines():
    with pytest.raises(AsmError):
        M.parse_assembly("CONV 0b1000\n")
    with pytest.raises(AsmError):
        M.parse_assembly("FROB 0b0000 0b0000 conv\n")
    with pytest.raises(AsmError):
        M.parse_assembly("MISC 0b0000 0b0000 noop extra=1\n")


@pytest.mark.parametrize("line", [
    "# segment inputs 0",
    "# segment inputs zero 64",
    "# tensor x inputs 0",
    "# tensor x inputs 0 32 4x4x2",
    "# tensor x inputs 0 32 4xfourx2 0",
    "# segment bogus 0 64",
    "# segment inputs -8 64",
    "# segment inputs 0 -5",
    "# tensor x bogus 0 32 4x4x2 0",
    "# tensor x inputs -1 32 4x4x2 0\n# segment inputs 0 64",
    "# tensor x inputs 0 0 4x4x0 0\n# segment inputs 0 64",
    "# tensor x inputs 0 30 4x4x2 0\n# segment inputs 0 64",
    "# tensor x inputs 0 32 4x4x2 0\n# segment outputs 0 64",
    "# tensor x inputs 40 32 4x4x2 0\n# segment inputs 0 64",
])
def test_parse_rejects_bad_metadata_comment(line):
    # a tensor is checked against its segment once every line is read, so
    # the segment may follow it
    with pytest.raises(AsmError) as err:
        M.parse_assembly("# dpuc-asm v1\n" + line + "\n")
    assert err.value.lineno == 2


def test_parse_rejects_overlapping_segments():
    # an outputs segment over the inputs would run, reading the outputs
    # from bytes the inputs were loaded into
    with pytest.raises(AsmError) as err:
        M.parse_assembly("# segment inputs 0 256\n"
                         "# segment swap 256 0\n"
                         "# segment outputs 0 512\n")
    assert err.value.lineno == 3
    assert str(err.value) == ("line 3: # segment outputs: [0,512) overlaps "
                              "segment inputs [0,256)")
    # segments that only touch, or are empty, do not overlap, even an
    # empty one strictly inside another
    prog = M.parse_assembly("# segment inputs 0 256\n"
                            "# segment swap 256 0\n"
                            "# segment outputs 256 512\n"
                            "# segment parameters 300 0\n")
    assert prog.segments == {"inputs": (0, 256), "swap": (256, 0),
                             "outputs": (256, 512), "parameters": (300, 0)}


def test_parse_accepts_tensor_filling_its_segment():
    prog = M.parse_assembly("# tensor x inputs 32 32 4x4x2 -2\n"
                            "# segment inputs 64 64\n")
    assert prog.segments == {"inputs": (64, 64)}
    assert prog.tensors["x"] == {"segment": "inputs", "off": 32,
                                 "bytes": 32, "shape": (4, 4, 2),
                                 "step_exp": -2}


def _move(**geometry):
    return M.Instruction(op=M.MISC, sub="move", src=M.Addr(M.FM, 0, 0),
                         dst=M.Addr(M.FM, 0, 1), rows=2, blocks=2,
                         block_bytes=8, src_row_stride=32, dst_row_stride=16,
                         src_blk_stride=8, dst_blk_stride=8, **geometry)


# (sample-program instruction index or a move, fields to change, the
# message's first words); instruction 0 is a LOAD of 4 rows, the last a
# SAVE of 2 rows x 4 blocks of 8 B at strides 64, 16
MALFORMED_GEOMETRY = {
    "load-negative-rows": (0, {"rows": -1}, "rows=-1 is negative"),
    "load-negative-blocks": (0, {"blocks": -2}, "blocks=-2 is negative"),
    "load-negative-block-bytes": (0, {"block_bytes": -32},
                                  "block_bytes=-32 is negative"),
    "load-negative-row-stride": (0, {"ddr_row_stride": -16},
                                 "ddr_row_stride=-16 is negative"),
    "load-rows-overlap": (0, {"ddr_row_stride": 100}, "src blocks overlap"),
    "save-negative-blk-stride": (-1, {"ddr_blk_stride": -16},
                                 "ddr_blk_stride=-16 is negative"),
    "save-blocks-overlap": (-1, {"ddr_blk_stride": 4}, "dst blocks overlap"),
    "save-rows-overlap-blocks": (-1, {"ddr_row_stride": 36},
                                 "dst blocks overlap"),
    "move-negative-stride": (None, {"src_blk_stride": -8},
                             "src_blk_stride=-8 is negative"),
    "move-src-overlap": (None, {"src_row_stride": 12}, "src blocks overlap"),
    "move-dst-overlap": (None, {"dst_blk_stride": 0}, "dst blocks overlap"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_GEOMETRY))
def test_parse_rejects_malformed_transfer_geometry(case):
    at, fields, words = MALFORMED_GEOMETRY[case]
    prog = sample_program()
    if at is None:
        prog.instructions.append(_move())
        at = -1
    good = prog.instructions[at]
    assert good.geometry_error() is None
    prog.instructions[at] = bad = replace(good, **fields)
    text = M.emit_assembly(prog)
    with pytest.raises(AsmError) as err:
        M.parse_assembly(text)
    n = len(prog.instructions)
    assert err.value.lineno == len(text.splitlines()) - n + at % n + 1
    assert f"{bad.op}/{bad.sub}: {words}" in str(err.value)


# one instruction per (op, sub) and the operand(f) of each of its
# operands, worked out by hand: (space, mem, off, shape, strides)
_STRIDED = dict(rows=3, blocks=2, block_bytes=4, ddr_row_stride=32,
                ddr_blk_stride=8)
OPERANDS = {
    (M.LOAD, "act"): (
        M.Instruction(op=M.LOAD, sub="act", src=M.Addr(M.DDR, 100),
                      dst=M.Addr(M.FM, 200, 2), **_STRIDED),
        {"src": (M.DDR, 0, 100, (3, 2, 4), (32, 8)),
         "dst": (M.FM, 2, 200, (1, 1, 24), (24, 24))}),
    (M.LOAD, "weight"): (
        M.Instruction(op=M.LOAD, sub="weight", src=M.Addr(M.DDR, 100),
                      dst=M.Addr(M.PM, 300), **_STRIDED),
        {"src": (M.DDR, 0, 100, (3, 2, 4), (32, 8)),
         "dst": (M.PM, 0, 300, (1, 1, 24), (24, 24))}),
    (M.SAVE, "act"): (
        M.Instruction(op=M.SAVE, sub="act", src=M.Addr(M.FM, 200, 1),
                      dst=M.Addr(M.DDR, 100), **_STRIDED),
        {"src": (M.FM, 1, 200, (1, 1, 24), (24, 24)),
         "dst": (M.DDR, 0, 100, (3, 2, 4), (32, 8))}),
    (M.MISC, "move"): (
        M.Instruction(op=M.MISC, sub="move", src=M.Addr(M.PM, 10),
                      dst=M.Addr(M.FM, 20, 1), rows=3, blocks=2,
                      block_bytes=4, src_row_stride=16, src_blk_stride=4,
                      dst_row_stride=40, dst_blk_stride=12),
        {"src": (M.PM, 0, 10, (3, 2, 4), (16, 4)),
         "dst": (M.FM, 1, 20, (3, 2, 4), (40, 12))}),
    # 4 rows, padded to 6, under a 3-row window: 4 rows of 5 x 2 out
    # its weights are 2 x (3 x 3 x 3 taps + a 4 B bias) in PM
    (M.CONV, "conv"): (
        replace(conv_instr(in_rows=4, in_w=5, c_in=3, out_w=5, c_out=2,
                           pads=(1, 1, 1, 1)), wgt_off=96),
        {"src": (M.FM, 0, 0, (1, 1, 60), (60, 60)),
         "wgt": (M.PM, 0, 96, (1, 1, 62), (62, 62)),
         "dst": (M.FM, 1, 0, (1, 1, 40), (40, 40))}),
    # 2x2/s2 pool of 4 x 4 x 2: 2 rows of 2 x 2 out
    (M.MISC, "maxpool"): (
        M.Instruction(op=M.MISC, sub="maxpool", src=M.Addr(M.FM, 64, 2),
                      dst=M.Addr(M.FM, 128, 0), in_rows=4, in_w=4, c_in=2,
                      out_w=2, kh=2, kw=2, sh=2, sw=2, pt=0, pl=0, pb=0,
                      pr=0, shift=0),
        {"src": (M.FM, 2, 64, (1, 1, 32), (32, 32)),
         "dst": (M.FM, 0, 128, (1, 1, 8), (8, 8))}),
    (M.MISC, "eltwise"): (
        sample_program().instructions[2],
        {"src": (M.FM, 0, 0, (1, 1, 64), (64, 64)),
         "src2": (M.FM, 1, 64, (1, 1, 64), (64, 64)),
         "dst": (M.FM, 2, 0, (1, 1, 64), (64, 64))}),
    # 2 rows of 3 x 2 at factor 2: 3 rows of 5 x 2 out
    (M.MISC, "upsample"): (
        M.Instruction(op=M.MISC, sub="upsample", src=M.Addr(M.FM, 8, 0),
                      dst=M.Addr(M.FM, 16, 1), in_rows=2, w=3, c=2,
                      factor=2, out_rows=3),
        {"src": (M.FM, 0, 8, (1, 1, 12), (12, 12)),
         "dst": (M.FM, 1, 16, (1, 1, 30), (30, 30))}),
}


def test_operand_table_covers_every_instruction():
    assert set(OPERANDS) == {k for k in M._ASM_FIELDS if k[1] != "noop"}


def test_footprint_fields_cover_every_sub_op():
    # a sub-op's footprint is its operands: the reads in order, then dst,
    # its one write; a no-op's is empty
    assert set(M._FOOTPRINT_FIELDS) == {sub for _op, sub in M._ASM_FIELDS}
    for key in M._ASM_FIELDS:
        fields = M._FOOTPRINT_FIELDS[key[1]]
        want = [] if key[1] == "noop" else list(OPERANDS[key][1])
        assert [f for f, _w in fields] == want, key
        assert [w for f, w in fields] == [f == "dst" for f, _w in fields]


@pytest.mark.parametrize("key", sorted(OPERANDS))
def test_operand_and_layout(key):
    ins, want = OPERANDS[key]
    assert ins.geometry_error() is None
    # layout reads no address, so it holds for symbolic operands too
    symbolic = replace(ins, src=None, src2=None, dst=None)
    for f, (space, mem, off, shape, strides) in want.items():
        assert ins.operand(f) == (space, mem, off, shape, strides), f
        assert symbolic.layout(f) == (shape, strides), f
        rows, blocks, size = shape
        assert ins.extent(f) == ((rows - 1) * strides[0]
                                 + (blocks - 1) * strides[1] + size), f


def test_assembly_round_trips_every_sub_op():
    # one instruction of every sub-op, each with its own DPON/DPBY sets
    instrs = [ins for ins, _want in OPERANDS.values()] + [
        M.Instruction(op=op, sub="noop") for op in M.OP_TYPES]
    prog = M.Program(instructions=[
        replace(ins, dpon=M.mask_deps(k % 16), dpby=M.mask_deps(15 - k % 16))
        for k, ins in enumerate(instrs)])
    text = M.emit_assembly(prog)
    lines = [l.split() for l in text.splitlines() if not l.startswith("#")]
    assert {(l[0], l[3]) for l in lines} == set(M._ASM_FIELDS)
    for toks in lines:
        names = M._ASM_FIELDS[(toks[0], toks[3])]
        assert [t.partition("=")[0] for t in toks[4:]] == list(names)
    assert M.parse_assembly(text) == prog
    assert M.emit_assembly(M.parse_assembly(text)) == text


# each record of the back end: its type, field names and one value
RECORDS = {
    "Addr": (M.Addr, ("space", "off", "mem"), (M.FM, 64, 2)),
    "TraceEvent": (S.TraceEvent, ("index", "queue", "sub", "color", "issue",
                                  "start", "duration"),
                   (3, M.CONV, "conv", "conv", 10, 12, 40)),
    "Win": (L.Win, ("stream", "tile", "off"), ("in0", 1, 8)),
    "TensorAt": (L.TensorAt, ("name", "off"), ("x", 16)),
    "ParamAt": (L.ParamAt, ("block",), (2,)),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable_values(name):
    cls, fields, values = RECORDS[name]
    rec = cls(**dict(zip(fields, values)))
    assert tuple(getattr(rec, f) for f in fields) == values
    for f in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(rec, f, 1)
    twin = cls(*values)
    assert twin == rec and hash(twin) == hash(rec) and twin is not rec
    assert {rec: name}[twin] == name
    other = cls(*values[:-1], values[-1] + 1)
    assert other != rec


def test_addr_parses_its_text_and_checks_its_space():
    for a in (M.Addr(M.FM, 64, 2), M.Addr(M.DDR, 1024), M.Addr(M.PM, 8)):
        assert M.Addr.parse(a.text()) == a and str(a) == a.text()
    with pytest.raises(ValueError, match="bad address space xx"):
        M.Addr("xx", 0)


@st.composite
def _asm_line(draw):
    """An instruction line whose integer fields are drawn from 1..9,
    except at most one drawn from -3..0."""
    op, sub = draw(st.sampled_from(sorted(M._ASM_FIELDS)))
    names = M._ASM_FIELDS[(op, sub)]
    odd = draw(st.sampled_from((None,) + names))
    toks = [op, "0b0000", "0b0000", sub]
    for name in names:
        if name in M._ADDR_FIELDS:
            toks.append(f"{name}=" + ("ddr:0" if (op, name) in (
                (M.LOAD, "src"), (M.SAVE, "dst")) else "fm0:0"))
        else:
            v = draw(st.integers(-3, 0) if name == odd
                     else st.integers(1, 9))
            toks.append(f"{name}={v}")
    return " ".join(toks)


@given(_asm_line())
@settings(max_examples=400, deadline=None)
def test_every_accepted_instruction_costs_at_least_its_overhead(line):
    # at one unit of work per cycle, any negative work shows
    cfg = mkcfg(ddr_bytes_per_cycle=1, conv_macs_per_cycle=1,
                misc_elems_per_cycle=1)
    try:
        (ins,) = M.parse_assembly(line + "\n").instructions
    except AsmError:
        return
    assert M.instruction_cost(ins, cfg) >= cfg.issue_overhead, line


def _overlap_by_byte(rows, blocks, size, row, blk):
    seen = set()
    for r in range(rows):
        for b in range(blocks):
            run = set(range(r * row + b * blk, r * row + b * blk + size))
            if seen & run:
                return True
            seen |= run
    return False


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 9),
       st.integers(0, 40), st.integers(0, 40))
def test_blocks_overlap_matches_byte_sets(rows, blocks, size, row, blk):
    assert M.blocks_overlap(rows, blocks, size, row, blk) \
        == _overlap_by_byte(rows, blocks, size, row, blk)


def test_save_exact_ranges_are_strided(operand_blocks):
    ins = sample_program().instructions[-1]
    exact = operand_blocks(ins, "dst")
    assert len(exact) == 8
    assert exact[0] == (M.DDR, 0, 1024, 1032)
    assert exact[1] == (M.DDR, 0, 1040, 1048)
    lo = min(r[2] for r in exact)
    hi = max(r[3] for r in exact)
    assert ins.dst.off <= lo and hi <= ins.dst.off + ins.extent("dst")


def test_footprints_zero_a_stride_never_stepped():
    # a stride of a single row or block, or of an empty operand, moves no
    # byte: the table keeps 0 for it, so one past 64-bit addresses is no
    # range past them; a stepped one is a range past them
    def load(rows, block_bytes, stride):
        return M.Instruction(op=M.LOAD, sub="act", src=M.Addr(M.DDR, 64),
                             dst=M.Addr(M.FM, 0, 0), rows=rows, blocks=1,
                             block_bytes=block_bytes, ddr_row_stride=stride,
                             ddr_blk_stride=2**64)
    for rows, size, n in ((1, 32, 32), (3, 0, 0)):
        table, mems = M.footprints([load(rows, size, 2**64)])
        assert mems == [(M.DDR, 0), (M.FM, 0)]
        assert table[0].tolist() == [0, 64, 64 + n, 0, 0, rows, 1, size,
                                     0, 0]
    with pytest.raises(OutOfBoundsError, match="64-bit"):
        M.footprints([load(3, 32, 2**62)])


def test_config_json_roundtrip(tmp_path):
    cfg = mkcfg(gamma=4096, h_c=8)
    p = tmp_path / "cfg.json"
    cfg.to_json(p)
    assert M.MachineConfig.from_json(p) == cfg


def test_config_validation():
    with pytest.raises(ValueError):
        mkcfg(h_c=1, h_p=2)
    with pytest.raises(ValueError):
        mkcfg(gamma=0)


def _format_writer(ins):
    """The assembly line of `ins` as one `str.format` template over its
    `_ASM_FIELDS` writes it: the writer the generated ones replaced, kept
    as their oracle."""
    names = M._ASM_FIELDS[(ins.op, ins.sub)]
    tmpl = " ".join([ins.op, "{}", "{}", ins.sub]
                    + [f"{n}={{}}" for n in names])
    return tmpl.format(f"0b{M.dep_mask(ins.dpon):04b}",
                       f"0b{M.dep_mask(ins.dpby):04b}",
                       *(getattr(ins, n) for n in names))


_SPACES = {  # (op, sub, address field) -> the spaces it may address
    **{(M.LOAD, sub, "src"): (M.DDR,) for sub in ("act", "weight")},
    **{(M.LOAD, sub, "dst"): (M.FM, M.PM, M.DDR)
       for sub in ("act", "weight")},
    (M.SAVE, "act", "dst"): (M.DDR,),
    **{(M.MISC, "move", f): (M.FM, M.PM, M.DDR) for f in ("src", "dst")},
}
_BIG = 1 << 23   # strides and offsets reach 8 MB


@st.composite
def _stride(draw, count, least):
    """A stride for `count` steps none of whose runs of `least` bytes
    overlap: anything, zero included, when it is never stepped."""
    if count <= 1:
        return draw(st.sampled_from((0, least)) | st.integers(0, _BIG))
    return least + draw(st.integers(0, 3) | st.integers(0, _BIG))


@st.composite
def _any_instruction(draw):
    """A well-formed instruction of any (op, sub), every `_ASM_FIELDS`
    field drawn: FM, DDR and PM addresses where its operand may name
    them, all 16 DPON and DPBY sets, negative shift, ea, eb and eo, and
    strides from zero to megabytes."""
    op, sub = draw(st.sampled_from(sorted(M._ASM_FIELDS)))
    kw = {"dpon": M.mask_deps(draw(st.integers(0, 15))),
          "dpby": M.mask_deps(draw(st.integers(0, 15)))}
    for name in M._ASM_FIELDS[(op, sub)]:
        if name in M._ADDR_FIELDS:
            space = draw(st.sampled_from(_SPACES.get((op, sub, name),
                                                     (M.FM,))))
            mem = draw(st.integers(0, 2)) if space == M.FM else 0
            kw[name] = M.Addr(space, draw(st.integers(0, _BIG)), mem)
        elif name in M._SIGNED_FIELDS:
            kw[name] = draw(st.integers(-12, 12))
        elif name in M._POSITIVE_FIELDS:
            kw[name] = draw(st.integers(1, 5))
        elif name in ("ddr_row_stride", "ddr_blk_stride", "src_row_stride",
                      "dst_row_stride", "src_blk_stride", "dst_blk_stride",
                      "wgt_bytes"):
            continue    # set from the shape below
        else:
            kw[name] = draw(st.integers(0 if name != "w" else 1, 40))
    if "blocks" in kw:       # each strided side: blocks, then rows, apart
        sides = ("ddr",) if op != M.MISC else ("src", "dst")
        for side in sides:
            kw[f"{side}_blk_stride"] = blk = draw(
                _stride(kw["blocks"], kw["block_bytes"]))
            kw[f"{side}_row_stride"] = draw(_stride(
                kw["rows"], (kw["blocks"] - 1) * blk + kw["block_bytes"]
                if kw["blocks"] else 0))
    if sub == "conv":
        kw["wgt_bytes"] = kw["c_out"] * (kw["kh"] * kw["kw"] * kw["c_in"]
                                         + 4)
    if "kh" in kw:           # the window fits the padded input
        kw["pb"] = max(kw["pb"], kw["kh"] - kw["in_rows"] - kw["pt"])
    if sub == "upsample":
        kw["out_rows"] = min(kw["out_rows"], kw["in_rows"] * kw["factor"])
    return M.Instruction(op=op, sub=sub, **kw)


@given(_any_instruction())
@settings(max_examples=600, deadline=None)
def test_generated_writer_matches_the_format_template(ins):
    # the writer generated from `_ASM_FIELDS` writes the line the format
    # template does, and the parser reads that line back as `ins`
    assert ins.geometry_error() is None
    text = M.emit_assembly(M.Program(instructions=[ins]))
    assert text.splitlines()[-1] == _format_writer(ins)
    assert M.parse_assembly(text).instructions == [ins]
