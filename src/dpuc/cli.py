"""Command-line driver: compile, run, verify, viz.

compile lowers a graph JSON into an artifact directory (assembly text,
parameter image, memory map, report, optional tile trees).  run executes
compiled artifacts functionally and/or through the timing simulator.
verify is the release gate: it compiles, replays random inputs through
the program and through the reference executor on the graph as written
(quantizers and constants unfolded, nothing fused), and hazard-checks the
trace.  It exits 0 on a pass; 1 when an output differs or the program
fails to run (`FAIL mismatch:`, `FAIL program:`); 2 when the trace has a
hazard or cannot be timed (`FAIL hazards:`, `FAIL timing:`, a deadlock);
3 when the graph does not compile.  viz renders a trace as a four-lane
SVG or JSON timeline.

Every command exits 3 with an `error:` line for bad input: a typed
DpucError, or a file that cannot be read or written.  Any other exception
is a fault of dpuc itself and exits 4 with an `internal error:` line.
"""

import argparse
import json
import os
import sys
import traceback

import numpy as np

from .compiler import CompileOptions, compile_graph
from .corpus import write_corpus
from .errors import CompileError, DpucError, ParseError
from .graph import parse_graph
from .lowering import tile_tree
from .machine import MachineConfig, check_bounds, footprints, \
    parse_assembly
from .simulator import Trace, check_hazards, reference_execute, \
    run_program, run_timing
from .timeline import emit_timeline

CONFIG_ENV = "DPUC_CONFIG"


def load_config(path):
    if path:
        return MachineConfig.from_json(path)
    env = os.environ.get(CONFIG_ENV)
    if env:
        return MachineConfig.from_json(env)
    return MachineConfig()


def _write(path, data):
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(path, mode) as fh:
        fh.write(data)


def save_artifacts(art, cfg, outdir):
    os.makedirs(outdir, exist_ok=True)
    _write(os.path.join(outdir, "program.asm"), art.assembly)
    _write(os.path.join(outdir, "params.bin"), art.param_image)
    _write(os.path.join(outdir, "memmap.json"),
           json.dumps(art.memmap, indent=1, sort_keys=True) + "\n")
    _write(os.path.join(outdir, "report.json"),
           json.dumps(art.report, indent=1, sort_keys=True) + "\n")
    cfg.to_json(os.path.join(outdir, "config.json"))


def load_artifacts(artdir):
    with open(os.path.join(artdir, "program.asm")) as fh:
        prog = parse_assembly(fh.read())
    with open(os.path.join(artdir, "params.bin"), "rb") as fh:
        prog.param_image = fh.read()
    cfg = MachineConfig.from_json(os.path.join(artdir, "config.json"))
    check_bounds(prog.instructions, footprints(prog.instructions), cfg)
    return prog, cfg


def cmd_compile(args):
    with open(args.graph) as fh:
        g = parse_graph(fh.read())
    cfg = load_config(args.config)
    options = CompileOptions(pipeline=not args.no_pipeline,
                             deconv_mode=args.deconv_mode)
    art = compile_graph(g, cfg, options)
    save_artifacts(art, cfg, args.out)
    if args.dump_tiles:
        trees = {nid: tile_tree(tiles) for nid, tiles in art.tiles.items()}
        _write(os.path.join(args.out, "tiles.json"),
               json.dumps(trees, indent=1, sort_keys=True) + "\n")
    weighted = [n for n in art.report["nodes"] if "min_load_bytes" in n]
    loaded = sum(n["act_load_bytes"] + n["weight_load_bytes"]
                 for n in weighted)
    least = sum(n["min_load_bytes"] for n in weighted)
    print(f"compiled {args.graph}: {art.report['instructions']} "
          f"instructions, estimated makespan "
          f"{art.report['estimated_makespan']} cycles, CONV efficiency "
          f"{art.report['conv_efficiency']:.2f} (conv LOAD {loaded} B, "
          f"node minimum {least} B) -> {args.out}")
    return 0


def _load_inputs(prog, specs):
    inputs = {}
    for spec in specs or []:
        name, _, path = spec.partition("=")
        if not path:
            raise DpucError(f"--input expects name=path, got {spec!r}")
        if name not in prog.tensors:
            raise DpucError(f"program has no tensor {name!r}")
        shape = tuple(prog.tensors[name]["shape"])
        data = np.fromfile(path, dtype=np.int8)
        if data.size != int(np.prod(shape)):
            raise DpucError(f"input {name}: file has {data.size} bytes, "
                            f"tensor needs {int(np.prod(shape))}")
        inputs[name] = data.reshape(shape)
    return inputs


def cmd_run(args):
    prog, cfg = load_artifacts(args.artifacts)
    outdir = args.out_dir or args.artifacts
    os.makedirs(outdir, exist_ok=True)
    if args.mode in ("functional", "both"):
        inputs = _load_inputs(prog, args.input)
        missing = [n for n, t in prog.tensors.items()
                   if t["segment"] == "inputs" and n not in inputs]
        if missing:
            raise DpucError(f"missing --input for {missing}")
        outputs = run_program(prog, cfg, inputs)
        for name, arr in sorted(outputs.items()):
            path = os.path.join(outdir, f"{name}.bin")
            arr.astype("<i1").tofile(path)
            print(f"wrote {path} {arr.shape}")
    if args.mode in ("timing", "both"):
        trace = run_timing(prog, cfg)
        path = args.trace or os.path.join(outdir, "trace.json")
        _write(path, emit_timeline(trace, "json"))
        print(f"wrote {path}: makespan {trace.makespan} cycles, "
              f"utilization " + ", ".join(
                  f"{q}={u:.2f}" for q, u in sorted(trace.util.items())))
    return 0


def cmd_verify(args):
    if args.seeds < 1:
        raise DpucError(f"--seeds must be at least 1, got {args.seeds}")
    with open(args.graph) as fh:
        g = parse_graph(fh.read())
    cfg = load_config(args.config)
    options = CompileOptions(pipeline=not args.no_pipeline,
                             deconv_mode=args.deconv_mode)
    try:
        art = compile_graph(g, cfg, options)
    except (CompileError, DpucError) as e:
        print(f"FAIL compile: {e}")
        return 3
    rng = np.random.default_rng(args.rng_seed)
    for seed in range(args.seeds):
        inputs = {n: rng.integers(-128, 128, g.tensors[n].shape)
                  .astype(np.int8) for n in g.inputs}
        try:
            got = run_program(art.program, cfg,
                              dict(zip(art.program.input_names,
                                       inputs.values())))
        except DpucError as e:
            print(f"FAIL program: seed {seed}: {e}")
            return 1
        ref = reference_execute(g, inputs)
        for name in ref:
            if not np.array_equal(got[name], ref[name]):
                bad = int(np.sum(got[name] != ref[name]))
                print(f"FAIL mismatch: seed {seed} tensor {name}: "
                      f"{bad} bytes differ")
                return 1
    try:
        trace = run_timing(art.program, cfg)
    except DpucError as e:
        print(f"FAIL timing: {e}")
        return 2
    report = check_hazards(art.program, trace,
                           allocs=art.memmap["fm_allocs"], cfg=cfg)
    if report:
        print(f"FAIL hazards: {len(report)} entries; first: {report[0][3]}")
        return 2
    print(f"PASS {args.graph}: {args.seeds} seeds bit-exact, trace "
          f"hazard-free ({len(art.program.instructions)} instructions, "
          f"makespan {trace.makespan})")
    return 0


def cmd_viz(args):
    with open(args.trace) as fh:
        text = fh.read()
    try:
        trace = Trace.from_dict(json.loads(text))
    except (ValueError, KeyError, TypeError) as e:
        raise ParseError(f"{args.trace} is not a trace: {e!r}") from e
    doc = emit_timeline(trace, args.format)
    if args.out:
        _write(args.out, doc)
        print(f"wrote {args.out}")
    else:
        print(doc, end="")
    return 0


def cmd_corpus(args):
    paths = write_corpus(args.out)
    for p in paths:
        print(p)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="dpuc",
        description="compiler and simulator for a four-queue int8 CNN "
                    "accelerator")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_common(p):
        p.add_argument("-c", "--config", default=None,
                       help=f"machine config JSON (default ${CONFIG_ENV} "
                            f"or built-in defaults)")
        p.add_argument("--no-pipeline", action="store_true",
                       help="emit the sequential stream (A/B baseline)")
        p.add_argument("--deconv-mode", choices=("series", "upsample"),
                       default="series",
                       help="transpose convolution lowering path")

    p = sub.add_parser("compile", help="compile a graph JSON to artifacts")
    p.add_argument("graph")
    p.add_argument("-o", "--out", required=True)
    add_common(p)
    p.add_argument("--dump-tiles", action="store_true",
                   help="also write tiles.json: per node, its tiles "
                        "nested by width strip and weight slab or concat "
                        "part, each with its output rows and instructions")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="run compiled artifacts")
    p.add_argument("artifacts")
    p.add_argument("--mode", choices=("functional", "timing", "both"),
                   default="both")
    p.add_argument("--input", action="append", metavar="NAME=FILE",
                   help="raw little-endian int8 (h,w,c) row-major")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--trace", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify",
                       help="compile + random-input oracle + hazard check")
    p.add_argument("graph")
    add_common(p)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--rng-seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("viz", help="render a trace JSON")
    p.add_argument("trace")
    p.add_argument("-o", "--out", default=None)
    p.add_argument("--format", choices=("svg", "json"), default="svg")
    p.set_defaults(func=cmd_viz)

    p = sub.add_parser("corpus", help="write the shipped graph corpus")
    p.add_argument("-o", "--out", default="corpus")
    p.set_defaults(func=cmd_corpus)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DpucError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except Exception as e:
        where = traceback.extract_tb(e.__traceback__)[-1]
        print(f"internal error: {type(e).__name__}: {e} "
              f"({os.path.basename(where.filename)}:{where.lineno})",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
