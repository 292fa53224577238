import base64
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from dpuc import cli
from dpuc import corpus
from dpuc.compiler import CompileOptions, compile_graph
from dpuc.graph import parse_graph
from dpuc.machine import CONV, LOAD, MachineConfig, SAVE
from dpuc.simulator import check_hazards, reference_execute, run_program, \
    run_timing


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    assert cli.main(["corpus", "-o", str(d)]) == 0
    return d


def test_compile_run_viz_roundtrip(corpus_dir, tmp_path):
    art = tmp_path / "art"
    rc = cli.main(["compile", str(corpus_dir / "toy_conv.json"),
                   "-o", str(art), "--dump-tiles"])
    assert rc == 0
    for f in ("program.asm", "params.bin", "memmap.json", "report.json",
              "config.json", "tiles.json"):
        assert (art / f).exists()

    x = np.random.default_rng(0).integers(-128, 128, (8, 8, 4)).astype(np.int8)
    xfile = tmp_path / "x.bin"
    x.tofile(xfile)
    out = tmp_path / "out"
    rc = cli.main(["run", str(art), "--mode", "both",
                   "--input", f"x={xfile}", "--out-dir", str(out)])
    assert rc == 0
    assert (out / "y.bin").exists()
    assert (out / "trace.json").exists()

    svg = tmp_path / "t.svg"
    rc = cli.main(["viz", str(out / "trace.json"), "-o", str(svg)])
    assert rc == 0
    body = svg.read_text()
    assert body.startswith("<svg") and "<rect" in body
    # four lanes labelled by queue
    for lane in ("LOAD", "SAVE", "CONV", "MISC"):
        assert lane in body


@pytest.mark.parametrize("name,levels,rows", [
    ("weight_tiled", ("strip", "slab"), 12), ("deconv", (), 24)])
def test_dump_tiles_gives_every_tile_its_coordinates(corpus_dir, tmp_path,
                                                     name, levels, rows):
    # every tile names its output rows; a conv tile sits under its width
    # strip's columns and its weight slab's channels, a deconv tile (no
    # width or weight split) directly under the node; and the leaves are
    # the program's instructions
    art = tmp_path / "art"
    assert cli.main(["compile", str(corpus_dir / f"{name}.json"),
                     "-o", str(art), "--dump-tiles"]) == 0
    trees = json.loads((art / "tiles.json").read_text())
    report = json.loads((art / "report.json").read_text())
    assert list(trees) == [n["id"] for n in report["nodes"]]
    keys = {"strip": ["children", "cols", "in_cols", "kind"],
            "slab": ["ch", "children", "kind"]}
    leaves = 0
    for tree in trees.values():
        assert tree["kind"] == "node"
        groups = [tree]
        for kind in levels:
            groups = [g for parent in groups for g in parent["children"]]
            assert all(sorted(g) == keys[kind] and g["kind"] == kind
                       for g in groups)
        for group in groups:
            tiles = group["children"]
            assert all(t["kind"] == "tile" for t in tiles)
            bands = [t["rows"] for t in tiles]
            assert bands[0][0] == 0 and bands[-1][1] == rows
            assert all(a[1] == b[0] for a, b in zip(bands, bands[1:]))
            leaves += sum(len(t["children"]) for t in tiles)
    assert leaves == report["instructions"]


def test_run_output_matches_reference(corpus_dir, tmp_path):
    art = tmp_path / "art"
    assert cli.main(["compile", str(corpus_dir / "resnet_cell.json"),
                     "-o", str(art)]) == 0
    g = parse_graph((corpus_dir / "resnet_cell.json").read_text())
    x = np.random.default_rng(9).integers(-128, 128, (16, 16, 8)) \
        .astype(np.int8)
    xfile = tmp_path / "x.bin"
    x.tofile(xfile)
    assert cli.main(["run", str(art), "--mode", "functional",
                     "--input", f"x={xfile}",
                     "--out-dir", str(tmp_path)]) == 0
    got = np.fromfile(tmp_path / "y.bin", np.int8).reshape(16, 16, 8)
    ref = reference_execute(g, {"x": x})["y"]
    assert np.array_equal(got, ref)


def test_verify_full_corpus_exit_zero(corpus_dir):
    for name in corpus.corpus_names():
        rc = cli.main(["verify", str(corpus_dir / f"{name}.json"),
                       "--seeds", "2"])
        assert rc == 0, name


def _padded_doc(op, h, w, c, k, s, p):
    """A conv (stride s) or deconv (upsample s) of kernel k and padding p
    from an h x w x c input to 4 channels."""
    if op == "conv":
        oh, ow = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
        attrs = {"kernel": [k, k], "stride": [s, s], "padding": [p, p]}
    else:
        oh, ow = ((n - 1) * s + 2 * p - k + 2 for n in (h, w))
        attrs = {"kernel": [k, k], "upsample": s, "padding": p}
    rng = np.random.default_rng(k * 100 + p)
    wgt = rng.integers(-24, 24, (4, k, k, c)).astype(np.int8)
    bias = rng.integers(-500, 500, 4).astype(np.int32)
    b64 = lambda a: base64.b64encode(a.tobytes()).decode()
    return {
        "tensors": [{"name": "x", "shape": [h, w, c],
                     "quant": {"lo": -32.0, "hi": 31.75, "step": 0.25}},
                    {"name": "y", "shape": [oh, ow, 4],
                     "quant": {"lo": -2048.0, "hi": 2032.0, "step": 16.0}}],
        "nodes": [{"id": "in", "op": "input", "inputs": [], "output": "x"},
                  {"id": op, "op": op, "inputs": ["x"], "output": "y",
                   "attrs": {**attrs, "c_out": 4},
                   "params": {"weights": b64(wgt), "bias": b64(bias),
                              "shape": [4, k, k, c],
                              "quant": {"lo": -16.0, "hi": 15.875,
                                        "step": 0.125}}}],
        "inputs": ["x"], "outputs": ["y"]}


# (op, h, w, c, kernel, stride or upsample, padding, flags): padding that
# reaches a whole kernel puts a band of output rows, or the whole output,
# in the padding.  Before such a band lowered to a bias-only CONV over an
# empty window, the first failed to run (in_rows=-3, exit 1), and the
# others ended in an internal error (KeyError 'in0' in the FM memory
# roles; a negative upsample row count in the simulator), exit 4.
PADDED_PAST_KERNEL = {
    "conv-band-below-input": ("conv", 9, 2, 4, 1, 1, 4, []),
    "conv-all-padding": ("conv", 1, 1, 4, 1, 3, 1, []),
    "deconv-upsample-band-below-input": ("deconv", 2, 2, 8, 2, 2, 4,
                                         ["--deconv-mode", "upsample"]),
}


@pytest.mark.parametrize("case", sorted(PADDED_PAST_KERNEL))
def test_verify_padding_past_the_kernel_exit_zero(tmp_path, capsys, case):
    *shape, flags = PADDED_PAST_KERNEL[case]
    path = tmp_path / "g.json"
    path.write_text(json.dumps(_padded_doc(*shape)))
    capsys.readouterr()
    assert cli.main(["verify", str(path), "--seeds", "1"] + flags) == 0
    out = capsys.readouterr()
    assert out.out.startswith(f"PASS {path}: 1 seeds bit-exact"), out
    assert out.err == ""


# (op, h, w, c, kernel, stride or upsample, padding), machine and deconv
# mode -> (instructions, makespan) pipelined and sequential.  A width
# strip whose input columns lie wholly in the padding loads nothing
# (before: one zero-byte LOAD per row, 49 instructions and 240 cycles
# sequential), and a deconv band wholly in the padding neither loads nor
# upsamples (before: 18 and 130 with the input row below it loaded, 20
# and 105 with a top band's empty upsample too).  A CONV may then read
# its upsampled stream before the tile that writes it, and a window that
# nothing writes reserves no byte.
PADDED_BOXES = {
    "conv-strip-in-padding": (("conv", 3, 1, 4, 1, 1, 4),
                              MachineConfig(gamma=16), "series",
                              {True: (43, 176), False: (43, 216)}),
    "deconv-upsample-band-below-input": (("deconv", 2, 2, 8, 2, 2, 4),
                                         MachineConfig(), "upsample",
                                         {True: (16, 113), False: (16, 120)}),
    "deconv-upsample-first-band-in-padding": (
        ("deconv", 2, 2, 4, 1, 2, 1), MachineConfig(h_c=1, h_p=1),
        "upsample", {True: (17, 45), False: (17, 91)}),
}


@pytest.mark.parametrize("pipelined", [True, False],
                         ids=["pipeline", "sequential"])
@pytest.mark.parametrize("case", sorted(PADDED_BOXES))
def test_padding_moves_no_empty_box(case, pipelined):
    shape, cfg, mode, want = PADDED_BOXES[case]
    g = parse_graph(json.dumps(_padded_doc(*shape)))
    art = compile_graph(g, cfg, CompileOptions(pipeline=pipelined,
                                               deconv_mode=mode))
    instrs = art.program.instructions
    trace = run_timing(art.program, cfg)
    assert (len(instrs), trace.makespan) == want[pipelined]
    assert all(ins.transfer_bytes() for ins in instrs
               if ins.op in (LOAD, SAVE) and not ins.is_noop)
    written = [(ins.dst.mem, ins.dst.off) for ins in instrs
               if not ins.is_noop and ins.dst.space == "fm"]
    assert all(any(m == a["mem"] and 0 <= off - a["start"] < a["length"]
                   for m, off in written)
               for a in art.memmap["fm_allocs"] if a["length"])
    x = np.random.default_rng(3).integers(-128, 128, shape[1:4],
                                          dtype=np.int8)
    assert np.array_equal(run_program(art.program, cfg, {"x": x})["y"],
                          reference_execute(g, {"x": x})["y"])
    assert check_hazards(art.program, trace,
                         allocs=art.memmap["fm_allocs"]) == []


def test_verify_corrupted_params_exit_one(corpus_dir, monkeypatch):
    from dpuc import compiler as C
    real = C.compile_graph

    def corrupting(g, cfg, options=None):
        art = real(g, cfg, options)
        img = bytearray(art.param_image)
        img[0] ^= 0x7F
        art.program.param_image = bytes(img)
        return art

    monkeypatch.setattr(cli, "compile_graph", corrupting)
    rc = cli.main(["verify", str(corpus_dir / "toy_conv.json"),
                   "--seeds", "1"])
    assert rc == 1


def test_verify_stripped_dpon_exit_two(corpus_dir, monkeypatch):
    from dpuc import compiler as C
    real = C.compile_graph

    def stripping(g, cfg, options=None):
        art = real(g, cfg, options)
        art.program.instructions = [
            replace(i, dpon=frozenset(), dpby=frozenset())
            for i in art.program.instructions]
        return art

    monkeypatch.setattr(cli, "compile_graph", stripping)
    rc = cli.main(["verify", str(corpus_dir / "conv_pool.json"),
                   "--seeds", "1"])
    assert rc == 2


def _compiled_then(edit):
    """compile_graph, then `edit` the compiled instruction list in place."""
    from dpuc import compiler as C
    real = C.compile_graph

    def compile_and_edit(g, cfg, options=None):
        art = real(g, cfg, options)
        edit(art.program.instructions)
        return art
    return compile_and_edit


def _last_save(instructions):
    return max(i for i, ins in enumerate(instructions) if ins.op == SAVE)


def test_verify_program_that_fails_to_run_exit_one(corpus_dir, monkeypatch,
                                                   capsys):
    # an error from running the program verify just compiled is a verify
    # failure, not bad input: without its last SAVE, toy_conv's program
    # leaves the last row of y unwritten
    monkeypatch.setattr(cli, "compile_graph", _compiled_then(
        lambda ins: ins.pop(_last_save(ins))))
    rc = cli.main(["verify", str(corpus_dir / "toy_conv.json"),
                   "--seeds", "1"])
    assert rc == 1
    out = capsys.readouterr()
    assert out.out.startswith("FAIL program: seed 0: ddr0 read [256,768) "
                              "of unwritten bytes, the first at 704\n"), \
        out.out
    assert out.err == ""


def test_verify_program_that_deadlocks_exit_two(corpus_dir, monkeypatch,
                                                capsys):
    # the one CONV of toy_conv signals its first SAVE; a last SAVE that
    # also waits on a CONV waits forever
    def starve(ins):
        i = _last_save(ins)
        ins[i] = replace(ins[i], dpon=frozenset({CONV}))
    monkeypatch.setattr(cli, "compile_graph", _compiled_then(starve))
    rc = cli.main(["verify", str(corpus_dir / "toy_conv.json"),
                   "--seeds", "1"])
    assert rc == 2
    out = capsys.readouterr()
    assert out.out.startswith("FAIL timing: instruction "), out.out
    assert "never issues" in out.out
    assert out.err == ""


def test_verify_compile_failure_exit_three(corpus_dir, tmp_path):
    cfgfile = tmp_path / "hopeless.json"
    MachineConfig(fm_bank_rows=1, fm_row_bytes=16, gamma=8).to_json(cfgfile)
    rc = cli.main(["verify", str(corpus_dir / "toy_conv.json"),
                   "-c", str(cfgfile)])
    assert rc == 3


def test_ddr_capacity_exit_three(corpus_dir, tmp_path, capsys):
    # toy_conv's DDR layout takes 66,624 B
    graph = str(corpus_dir / "toy_conv.json")
    cfgfile = tmp_path / "cap.json"
    cfgfile.write_text('{"ddr_capacity": 4096}')
    capsys.readouterr()
    assert cli.main(["compile", graph, "-o", str(tmp_path / "capped"),
                     "-c", str(cfgfile)]) == 3
    assert capsys.readouterr().err == \
        "error: DDR layout needs 66624 B, cap is 4096 B\n"
    assert cli.main(["verify", graph, "-c", str(cfgfile)]) == 3
    assert "FAIL compile" in capsys.readouterr().out
    # artifacts compiled uncapped, then run on a machine with less DDR
    art = tmp_path / "art"
    assert cli.main(["compile", graph, "-o", str(art)]) == 0
    MachineConfig(ddr_capacity=1000).to_json(art / "config.json")
    xfile = tmp_path / "x.bin"
    np.zeros((8, 8, 4), np.int8).tofile(xfile)
    for mode in ("timing", "functional"):
        capsys.readouterr()
        assert cli.main(["run", str(art), "--mode", mode, "--input",
                         f"x={xfile}", "--out-dir", str(tmp_path / "out")]) \
            == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "exceeds cap" in err, err


# one edit of toy_conv's artifacts per bounds condition: (program.asm
# text replaced once, or config fields) and the message.  Instruction 0
# loads the 320 weight bytes from ddr[768,1088) to pm[0,320), 1-8 load
# 32 B rows from ddr[0,256) to fm0.
OUT_OF_BOUNDS = {
    "negative-offset": (("src=ddr:0 ", "src=ddr:-32 "), {},
                        "negative offset in LOAD/act "
                        "(instruction 1, ddr[-32,0))"),
    "past-64-bit": (("src=ddr:0 ", f"src=ddr:{2 ** 64} "), {},
                    "a range does not fit 64-bit byte addresses"),
    # three rows 2**62 B apart end past 2**63 from an offset of 0
    "past-64-bit-stride": (("src=ddr:0 dst=fm0:0 rows=1 blocks=1 "
                            "block_bytes=32 ddr_row_stride=32 ",
                            "src=ddr:0 dst=fm0:0 rows=3 blocks=1 "
                            f"block_bytes=32 ddr_row_stride={2 ** 62} "), {},
                           "a range does not fit 64-bit byte addresses"),
    "missing-fm": (("dst=fm0:0 ", "dst=fm9:0 "), {},
                   "fm9 does not exist (3 FM memories) "
                   "(instruction 1, fm9[0,32))"),
    "fm-bytes": ((), {"fm_banks_per_memory": 1, "fm_bank_rows": 1,
                      "fm_row_bytes": 64},
                 "fm0 range [64,96) exceeds 64 (instruction 3, fm0[64,96))"),
    "pm-bytes": ((), {"pm_bytes": 256},
                 "pm range [0,320) exceeds 256 (instruction 0, pm[0,320))"),
    "ddr-capacity": ((), {"ddr_capacity": 1000},
                     "ddr range [768,1088) exceeds cap "
                     "(instruction 0, ddr[768,1088))"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_BOUNDS))
def test_run_rejects_out_of_bounds_artifacts_exit_three(corpus_dir, tmp_path,
                                                        capsys, case):
    edit, fields, message = OUT_OF_BOUNDS[case]
    art = tmp_path / "art"
    assert cli.main(["compile", str(corpus_dir / "toy_conv.json"),
                     "-o", str(art)]) == 0
    if edit:
        asm = art / "program.asm"
        text = asm.read_text()
        assert edit[0] in text
        asm.write_text(text.replace(*edit, 1))
    if fields:
        MachineConfig(**fields).to_json(art / "config.json")
    capsys.readouterr()
    assert cli.main(["run", str(art), "--mode", "timing"]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_compile_and_verify_leave_numpy_ma_unimported(corpus_dir, tmp_path):
    # numpy.ma costs about 17 ms to import, and np.unique imports it on
    # its first call: the compile and the checks take distinct values by
    # sorting instead
    graph, out = str(corpus_dir / "toy_conv.json"), str(tmp_path / "art")
    code = ("import sys\n"
            "from dpuc import cli\n"
            f"assert cli.main(['compile', {graph!r}, '-o', {out!r}]) == 0\n"
            f"assert cli.main(['verify', {graph!r}]) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_verify_without_seeds_exit_three(corpus_dir, capsys, seeds):
    # no seed means nothing was compared; exit 2 would mean a hazard
    rc = cli.main(["verify", str(corpus_dir / "toy_conv.json"),
                   "--seeds", seeds])
    assert rc == 3
    out = capsys.readouterr()
    assert "PASS" not in out.out
    assert out.err == f"error: --seeds must be at least 1, got {seeds}\n"


def _toy_weights(shape):
    doc = corpus.toy_conv()
    doc["nodes"][1]["params"].update(
        weights=base64.b64encode(bytes(int(np.prod(shape)))).decode(),
        shape=list(shape))
    return doc


@pytest.mark.parametrize("cmd", ["compile", "verify"])
@pytest.mark.parametrize("shape", [(8, 5, 5, 4), (4, 3, 3, 8), (8, 9, 4)],
                         ids=["kernel", "channels", "3d"])
def test_params_that_do_not_match_the_node_exit_three(tmp_path, capsys, cmd,
                                                      shape):
    # these compiled, or failed inside the simulator, before the check
    path = tmp_path / "g.json"
    path.write_text(json.dumps(_toy_weights(shape)))
    argv = [cmd, str(path)]
    argv += ["-o", str(tmp_path / "art")] if cmd == "compile" else \
        ["--seeds", "1"]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: node conv: weights"), err


# edits of toy_conv's second LOAD (rows=1 blocks=1 block_bytes=32
# ddr_row_stride=32): a negative block size, a negative row stride, and
# rows whose blocks overlap
MALFORMED_GEOMETRY = {
    "negative-block-bytes": {"block_bytes": -32},
    "negative-row-stride": {"rows": 2, "ddr_row_stride": -16},
    "overlapping-rows": {"rows": 2, "ddr_row_stride": 16},
}


@pytest.mark.parametrize("mode", ["timing", "functional"])
@pytest.mark.parametrize("case", sorted(MALFORMED_GEOMETRY))
def test_run_rejects_malformed_transfer_geometry_exit_three(
        corpus_dir, tmp_path, capsys, case, mode):
    # before the check, timing mode ran such a LOAD and functional mode
    # skipped it silently and blamed the CONV that read its bytes
    art = tmp_path / "art"
    assert cli.main(["compile", str(corpus_dir / "toy_conv.json"),
                     "-o", str(art)]) == 0
    asm = art / "program.asm"
    lines = asm.read_text().splitlines()
    at = [i for i, l in enumerate(lines) if l.startswith("LOAD")][1]
    toks = lines[at].split()
    assert toks[3:6] == ["act", "src=ddr:0", "dst=fm0:0"]
    fields = dict(t.split("=") for t in toks[4:])
    fields.update(MALFORMED_GEOMETRY[case])
    lines[at] = " ".join(toks[:4] + [f"{k}={v}" for k, v in fields.items()])
    asm.write_text("\n".join(lines) + "\n")
    xfile = tmp_path / "x.bin"
    np.zeros((8, 8, 4), np.int8).tofile(xfile)
    capsys.readouterr()
    rc = cli.main(["run", str(art), "--mode", mode, "--input", f"x={xfile}",
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {at + 1}: LOAD/act: "), err
    assert "Traceback" not in err


# toy_conv's metadata line (by its first words) and its replacement; before
# the checks these ended in an internal error (exit 4) or ran (exit 0)
MALFORMED_METADATA = {
    "input-past-segment": ("# tensor x inputs",
                           "# tensor x inputs 900000 256 8x8x4 -2"),
    "output-bytes": ("# tensor y outputs", "# tensor y outputs 0 500 8x8x8 3"),
    "output-zero-dim": ("# tensor y outputs",
                        "# tensor y outputs 0 512 8x8x0 3"),
    "unknown-segment": ("# tensor x inputs",
                        "# tensor x bogus 0 256 8x8x4 -2"),
    "negative-size": ("# segment inputs", "# segment inputs 0 -5"),
    # ran at exit 0 and wrote a y.bin whose first half was the input
    "overlapping-segments": ("# segment outputs", "# segment outputs 0 512"),
}


@pytest.mark.parametrize("mode", ["timing", "functional"])
@pytest.mark.parametrize("case", sorted(MALFORMED_METADATA))
def test_run_rejects_malformed_metadata_exit_three(corpus_dir, tmp_path,
                                                   capsys, case, mode):
    words, edit = MALFORMED_METADATA[case]
    art = tmp_path / "art"
    assert cli.main(["compile", str(corpus_dir / "toy_conv.json"),
                     "-o", str(art)]) == 0
    asm = art / "program.asm"
    lines = asm.read_text().splitlines()
    at = next(i for i, l in enumerate(lines) if l.startswith(words + " "))
    lines[at] = edit
    asm.write_text("\n".join(lines) + "\n")
    np.zeros((8, 8, 4), np.int8).tofile(tmp_path / "x.bin")
    capsys.readouterr()
    rc = cli.main(["run", str(art), "--mode", mode, "--out-dir",
                   str(tmp_path / "out"), "--input",
                   f"x={tmp_path / 'x.bin'}"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {at + 1}: "), err
    assert "Traceback" not in err


# toy_conv's first instruction with the words given, the replacement of one
# of its operands, and the space that operand must address; before the
# check the first two ran in functional mode at exit 0 and wrote a y.bin
# other than the unedited program's
MISPLACED_OPERANDS = {
    "conv-src-in-ddr": ("CONV", "src=fm0:0", "src=ddr:0", "fm"),
    "save-src-in-pm": ("SAVE", "src=fm1:0", "src=pm:0", "fm"),
    "load-src-in-fm": ("LOAD 0b0000 0b0000 act", "src=ddr:0", "src=fm0:0",
                       "ddr"),
}


@pytest.mark.parametrize("mode", ["timing", "functional"])
@pytest.mark.parametrize("case", sorted(MISPLACED_OPERANDS))
def test_run_rejects_operand_in_another_space_exit_three(
        corpus_dir, tmp_path, capsys, case, mode):
    words, old, new, space = MISPLACED_OPERANDS[case]
    art = tmp_path / "art"
    assert cli.main(["compile", str(corpus_dir / "toy_conv.json"),
                     "-o", str(art)]) == 0
    asm = art / "program.asm"
    lines = asm.read_text().splitlines()
    at = next(i for i, l in enumerate(lines) if l.startswith(words + " "))
    assert f" {old} " in lines[at]
    lines[at] = lines[at].replace(f" {old} ", f" {new} ")
    asm.write_text("\n".join(lines) + "\n")
    np.zeros((8, 8, 4), np.int8).tofile(tmp_path / "x.bin")
    capsys.readouterr()
    rc = cli.main(["run", str(art), "--mode", mode, "--out-dir",
                   str(tmp_path / "out"), "--input",
                   f"x={tmp_path / 'x.bin'}"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {at + 1}: "), err
    assert err.rstrip().endswith(f"{new} must address {space}"), err


# (graph, compile flags, edited sub-op, field edits, the message after
# "OP/sub: "); before the check, toy_conv's CONV with c_out=-8 ran in
# timing mode at "utilization CONV=-0.11", and sh=0 ended in an internal
# ZeroDivisionError; with wgt_bytes=100 it ran in timing mode and failed
# only in functional mode, at run time
MALFORMED_WINDOWED = {
    "conv-negative-c_out": ("toy_conv", [], "conv", {"c_out": -8},
                            "c_out=-8 is negative"),
    "conv-weight-bytes": ("toy_conv", [], "conv", {"wgt_bytes": 100},
                          "wgt_bytes=100 is not the 320 B of c_out x kh x "
                          "kw x c_in taps and c_out biases"),
    "conv-zero-stride": ("toy_conv", [], "conv", {"sh": 0}, "sh=0 is below 1"),
    "maxpool-zero-kernel": ("conv_pool", [], "maxpool", {"kh": 0},
                            "kh=0 is below 1"),
    "eltwise-negative-width": ("resnet_cell", [], "eltwise", {"w": -16},
                               "w=-16 is negative"),
    "upsample-zero-factor": ("deconv", ["--deconv-mode", "upsample"],
                             "upsample", {"factor": 0}, "factor=0 is below 1"),
    # a window taller than its padded input, and upsampled rows the
    # input does not feed
    "conv-kernel-past-rows": ("toy_conv", [], "conv",
                              {"in_rows": 1, "pt": 0, "pb": 0},
                              "kh=3 exceeds in_rows=1 padded by pt=0 and "
                              "pb=0"),
    "maxpool-kernel-past-rows": ("conv_pool", [], "maxpool", {"in_rows": 1},
                                 "kh=2 exceeds in_rows=1 padded by pt=0 and "
                                 "pb=0"),
    "upsample-rows-past-factor": ("deconv", ["--deconv-mode", "upsample"],
                                  "upsample", {"out_rows": 11},
                                  "out_rows=11 exceeds in_rows=5 x "
                                  "factor=2"),
}


@pytest.mark.parametrize("mode", ["timing", "functional"])
@pytest.mark.parametrize("case", sorted(MALFORMED_WINDOWED))
def test_run_rejects_malformed_windowed_geometry_exit_three(
        corpus_dir, tmp_path, capsys, case, mode):
    graph, flags, sub, edits, words = MALFORMED_WINDOWED[case]
    art = tmp_path / "art"
    assert cli.main(["compile", str(corpus_dir / f"{graph}.json"),
                     "-o", str(art)] + flags) == 0
    asm = art / "program.asm"
    lines = asm.read_text().splitlines()
    at = next(i for i, l in enumerate(lines) if l.split()[3:4] == [sub])
    toks = lines[at].split()
    fields = dict(t.split("=") for t in toks[4:])
    assert set(edits) <= set(fields)
    fields.update(edits)
    lines[at] = " ".join(toks[:4] + [f"{k}={v}" for k, v in fields.items()])
    asm.write_text("\n".join(lines) + "\n")
    inputs = []
    for line in lines:
        t = line.split()
        if t[:2] == ["#", "tensor"] and t[3] == "inputs":
            shape = tuple(int(d) for d in t[6].split("x"))
            np.zeros(shape, np.int8).tofile(tmp_path / f"{t[2]}.bin")
            inputs += ["--input", f"{t[2]}={tmp_path / f'{t[2]}.bin'}"]
    assert inputs
    capsys.readouterr()
    rc = cli.main(["run", str(art), "--mode", mode, "--out-dir",
                   str(tmp_path / "out")] + inputs)
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {at + 1}: {toks[0]}/{sub}: {words}"), \
        err


def test_no_pipeline_flag_produces_slower_program(corpus_dir, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert cli.main(["compile", str(corpus_dir / "conv_pool.json"),
                     "-o", str(a)]) == 0
    assert cli.main(["compile", str(corpus_dir / "conv_pool.json"),
                     "-o", str(b), "--no-pipeline"]) == 0
    ra = json.loads((a / "report.json").read_text())
    rb = json.loads((b / "report.json").read_text())
    assert ra["estimated_makespan"] < rb["estimated_makespan"]


def test_cost_model_linearity(corpus_dir, tmp_path):
    # doubling conv throughput halves conv lane durations (+- rounding)
    from dpuc.cli import load_artifacts
    from dpuc.simulator import run_timing
    art = tmp_path / "art"
    assert cli.main(["compile", str(corpus_dir / "toy_conv.json"),
                     "-o", str(art)]) == 0
    prog, cfg = load_artifacts(str(art))
    fast = replace(cfg, conv_macs_per_cycle=cfg.conv_macs_per_cycle * 2)
    t1 = run_timing(prog, cfg)
    t2 = run_timing(prog, fast)
    for e1, e2 in zip(t1.events, t2.events):
        if e1.queue == "CONV" and e1.sub == "conv":
            work = e1.duration - cfg.issue_overhead
            half = e2.duration - cfg.issue_overhead
            assert abs(half - work / 2) <= 1


def test_artifacts_byte_identical_across_runs(corpus_dir, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for d in (a, b):
        assert cli.main(["compile", str(corpus_dir / "inception_cell.json"),
                         "-o", str(d)]) == 0
    for f in ("program.asm", "params.bin", "memmap.json", "report.json"):
        assert (a / f).read_bytes() == (b / f).read_bytes()


def test_env_config_default(corpus_dir, tmp_path, monkeypatch):
    cfgfile = tmp_path / "env.json"
    MachineConfig(gamma=4096).to_json(cfgfile)
    monkeypatch.setenv(cli.CONFIG_ENV, str(cfgfile))
    art = tmp_path / "art"
    assert cli.main(["compile", str(corpus_dir / "toy_conv.json"),
                     "-o", str(art)]) == 0
    saved = json.loads((art / "config.json").read_text())
    assert saved["gamma"] == 4096


def _trace_body(**event):
    ev = {"index": 0, "queue": "LOAD", "sub": "act",
          "color": "load-activation", "issue": 0, "start": 0,
          "duration": 5, **event}
    return json.dumps({"events": [ev], "makespan": 5, "busy": {},
                       "util": {}})


def test_compile_line_reports_conv_efficiency(corpus_dir, tmp_path, capsys):
    # weight_tiled: 20,736 ideal CONV cycles over a 29,468-cycle makespan
    rc = cli.main(["compile", str(corpus_dir / "weight_tiled.json"),
                   "-o", str(tmp_path / "art")])
    assert rc == 0
    line = capsys.readouterr().out
    assert "estimated makespan 29468 cycles, CONV efficiency 0.70 " in line
    report = json.loads((tmp_path / "art" / "report.json").read_text())
    assert report["conv_efficiency"] == 20736 / 29468
    # two bands of 9 and 5 input rows of 12 x 64 B, loaded once for all
    # three slabs; 256 channels of 3x3x64 taps and an int32 bias, once
    node = report["nodes"][0]
    assert node["act_load_bytes"] == (9 + 5) * 12 * 64
    assert node["weight_load_bytes"] == 256 * (9 * 64 + 4)
    assert node["min_load_bytes"] == 12 * 12 * 64 + 256 * (9 * 64 + 4)
    assert "(conv LOAD 159232 B, node minimum 157696 B)" in line


def test_viz_wellformed_trace_body_renders(tmp_path):
    # the malformed bodies below differ from this one in a single value
    path = tmp_path / "trace.json"
    path.write_text(_trace_body())
    assert cli.main(["viz", str(path), "-o", str(tmp_path / "t.svg")]) == 0


def test_viz_bad_path_fails(tmp_path):
    rc = cli.main(["viz", str(tmp_path / "missing.json")])
    assert rc == 3


@pytest.mark.parametrize("cmd", ["compile", "verify"])
def test_missing_graph_file_exit_three(tmp_path, capsys, cmd):
    argv = [cmd, str(tmp_path / "missing.json")]
    if cmd == "compile":
        argv += ["-o", str(tmp_path / "art")]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "missing.json" in err


@pytest.mark.parametrize("body", ['{"events": [{"x": 1}]}', '{"events": 1}',
                                  "[]", "not json",
                                  _trace_body(queue="DMA"),
                                  _trace_body(start="a")])
def test_viz_malformed_trace_exit_three(tmp_path, capsys, body):
    path = tmp_path / "trace.json"
    path.write_text(body)
    assert cli.main(["viz", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("body", ['{"bogus": 1}', '{"gamma": 0}',
                                  '{"gamma": "big"}', "[]", "not json"])
def test_malformed_config_exit_three(corpus_dir, tmp_path, capsys, body):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(body)
    rc = cli.main(["compile", str(corpus_dir / "toy_conv.json"),
                   "-o", str(tmp_path / "art"), "-c", str(cfgfile)])
    assert rc == 3
    assert capsys.readouterr().err.startswith(f"error: config {cfgfile}")


def test_internal_error_exit_four(corpus_dir, tmp_path, capsys, monkeypatch):
    def broken(g, cfg, options=None):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(cli, "compile_graph", broken)
    rc = cli.main(["compile", str(corpus_dir / "toy_conv.json"),
                   "-o", str(tmp_path / "art")])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: ZeroDivisionError: injected")
    assert "Traceback" not in err
