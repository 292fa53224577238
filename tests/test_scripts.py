"""Smoke tests of the experiment scripts, run as from the command line
or loaded in-process, each writing only under a temporary directory.
`dpuc corpus` is checked against the committed corpus, and the parity
sweep's records of toy_conv against a second sweep of it.  The
benchmark's tracer is checked against the functions it wraps, and the
summaries of the paired-run and in-process A/B tools against canned
results (no benchmark runs here)."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from dpuc import cli, corpus
from dpuc.compiler import CompileOptions
from dpuc.machine import MachineConfig

ROOT = os.path.join(os.path.dirname(__file__), "..")
SCRIPTS = os.path.join(ROOT, "scripts")


def run_script(name, *args, cwd):
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name), *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_make_corpus_matches_committed_corpus(tmp_path):
    # `dpuc corpus -o DIR` regenerates corpus/ byte for byte
    out = tmp_path / "corpus"
    assert cli.main(["corpus", "-o", str(out)]) == 0
    committed = os.path.join(ROOT, "corpus")
    assert sorted(os.listdir(out)) == sorted(os.listdir(committed))
    for fname in os.listdir(committed):
        with open(os.path.join(committed, fname), "rb") as fh:
            assert (out / fname).read_bytes() == fh.read(), fname


def test_ab_pipeline_prints_every_corpus_graph(tmp_path):
    lines = run_script("ab_pipeline.py", cwd=tmp_path).splitlines()
    names = corpus.corpus_names()
    assert len(lines) == 1 + len(names) == 8
    for name, line in zip(names, lines[1:]):
        graph, seq, pip, speedup = line.split()[:4]
        assert graph == name
        assert int(seq) >= int(pip) > 0 and speedup.endswith("x")


def test_render_timelines_writes_one_svg_per_job(tmp_path):
    out = tmp_path / "timelines"
    run_script("render_timelines.py", out, cwd=tmp_path)
    svgs = sorted(p.name for p in out.iterdir())
    assert svgs == sorted([f"{n}.svg" for n in corpus.corpus_names()]
                          + ["deconv_upsample_path.svg"])
    for name in svgs:
        assert (out / name).read_text().lstrip().startswith("<svg")


def test_artifact_sweep_writes_every_record(tmp_path):
    # toy_conv on the default machine, both deconv modes and pipeline
    # settings; a second sweep of the same tree is identical file for file
    sweep = _load_script("artifact_sweep")
    g = corpus.corpus_graph("toy_conv")
    runs = ["series-pipeline", "series-sequential",
            "upsample-pipeline", "upsample-sequential"]
    for out in ("a", "b"):
        for run in runs:
            mode, pipeline = run.split("-")
            sweep.sweep_one(g, MachineConfig(), CompileOptions(
                pipeline=pipeline == "pipeline", deconv_mode=mode),
                tmp_path / out / run)
    for run in runs:
        a, b = tmp_path / "a" / run, tmp_path / "b" / run
        files = sorted(p.name for p in a.iterdir())
        assert files == ["config.json", "hazards.txt", "memmap.json",
                         "outputs.txt", "params.bin", "program.asm",
                         "report.json", "trace.json"]
        for name in files:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        assert len((a / "outputs.txt").read_text().splitlines()) == 2
        assert (a / "hazards.txt").read_text().startswith(
            "as compiled:\ndpon-cleared: every 7th DPON cleared:\n")
    # on conv_pool's pipelined program the oracle catches each fault, and
    # only as the hazard kind the fault is made for
    caught = sweep.sweep_one(corpus.corpus_graph("conv_pool"),
                             MachineConfig(), CompileOptions(),
                             tmp_path / "conv_pool")
    assert caught == {"dpon-cleared": {"raw-hazard"},
                      "window-rebased": {"alloc-overlap"},
                      "stream-moved": {"port-conflict"}}
    assert (tmp_path / "conv_pool" / "hazards.txt").read_text().endswith(
        "dpon-cleared caught: raw-hazard\n"
        "window-rebased caught: alloc-overlap\n"
        "stream-moved caught: port-conflict\n")


def test_traced_functions_exist():
    # the benchmark's --trace 1 runs swap each (module, attr) of
    # perfbench/tracing.WRAPPED for a wrapper; a renamed function would
    # break those runs only
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    for mod, attr, _span in tracing.WRAPPED:
        assert mod.__name__.startswith("dpuc."), mod.__name__
        assert callable(getattr(mod, attr, None)), (mod.__name__, attr)


def _load_script(name):
    path = os.path.join(SCRIPTS, f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result_line(verify_s, cycles, failed=0):
    # the last line perfbench/run.py prints
    return json.dumps({"correct": not failed, "attempted": 10,
                       "failed": failed, "metrics": {
                           "verify_s": {"value": verify_s, "unit": "s"},
                           "sim_cycles": {"value": cycles,
                                          "unit": "cycles"}}})


def test_ab_pairs_summary_counts_wins_and_applies_the_gain_rule():
    ab = _load_script("ab_pairs")
    parent = [0.20, 0.21, 0.19, 0.20, 0.22, 0.20, 0.21, 0.19, 0.20, 0.20]
    change = [0.17, 0.18, 0.16, 0.17, 0.18, 0.17, 0.22, 0.16, 0.17, 0.17]
    lines = [(_result_line(p, 100), _result_line(c, 100))
             for p, c in zip(parent, change)]
    got = ab.summarize(lines, {"verify_s": "lower", "sim_cycles": "lower"})
    assert got["_ops"] == {"parent": (0, 100), "change": (0, 100)}
    v = got["verify_s"]
    assert v["wins"] == 9 and v["pairs"] == 10
    assert v["parent"] == pytest.approx((0.2, 0.2, 0.2075))
    assert v["change"][1] == pytest.approx(0.17)
    assert v["rel"] == pytest.approx(-0.15)
    assert v["gain"]
    # equal values win nothing
    assert got["sim_cycles"]["wins"] == 0 and not got["sim_cycles"]["gain"]
    # 8 wins of 10 fall short of the rule, however large the gap
    worse = [(a, _result_line(0.3, 100)) if k == 0 else (a, b)
             for k, (a, b) in enumerate(lines)]
    v = ab.summarize(worse)["verify_s"]
    assert v["wins"] == 8 and not v["gain"]
    # a gap inside the parent's quartile distance is no gain either
    near = [(_result_line(p, 100), _result_line(p - 0.001, 100))
            for p in parent]
    v = ab.summarize(near)["verify_s"]
    assert v["wins"] == 10 and not v["gain"]
    # nor is a faster change that fails more operations
    failing = [(a, _result_line(c, 100, failed=k == 3))
               for k, ((a, _b), c) in enumerate(zip(lines, change))]
    v = ab.summarize(failing)
    assert v["_ops"]["change"] == (1, 100)
    assert v["verify_s"]["wins"] == 9 and not v["verify_s"]["gain"]
    # higher is better: the sign flips
    v = ab.summarize(lines, {"verify_s": "higher"})["verify_s"]
    assert v["wins"] == 1 and not v["gain"]
    lines_out = ab.report_lines(got)
    assert lines_out[0] == "parent: 0 of 100 operations failed"
    assert lines_out[-2].split()[0] == "verify_s"
    assert lines_out[-2].split()[-2:] == ["9/10", "yes"]


def _traced_line(hazard_s, reference_s):
    # the last line of a `--trace 1` run: per-layer metrics only
    return json.dumps({"correct": True, "attempted": 10, "failed": 0,
                       "metrics": {
                           "simulator.hazard_s": {"value": hazard_s,
                                                  "unit": "s"},
                           "simulator.hazard_alloc_pairs": {"value": 7,
                                                            "unit": "count"},
                           "simulator.reference_s": {"value": reference_s,
                                                     "unit": "s"}}})


def test_ab_pairs_layer_lines_give_per_layer_medians():
    ab = _load_script("ab_pairs")
    lines = [(_traced_line(0.050, 0.040), _traced_line(0.015, 0.029)),
             (_traced_line(0.048, 0.041), _traced_line(0.016, 0.030)),
             (_traced_line(0.060, 0.039), _traced_line(0.014, 0.028))]
    out = ab.layer_lines(lines)
    assert out[0].split() == ["layer", "parent", "median", "change",
                              "median", "change"]
    # timed layers only, in result order; medians side by side, no verdict
    assert [line.split() for line in out[1:]] == [
        ["simulator.hazard_s", "0.05", "0.015", "-70.0%"],
        ["simulator.reference_s", "0.04", "0.029", "-27.5%"]]


def test_ab_inproc_summary_gives_quartiles_and_pair_ratios():
    ab = _load_script("ab_inproc")
    times = [(0.040, 0.036), (0.044, 0.038), (0.042, 0.0378),
             (0.050, 0.040), (0.041, 0.0369)]
    got = ab.summarize(times)
    assert got["parent"] == pytest.approx((0.041, 0.042, 0.044))
    assert got["change"] == pytest.approx((0.0369, 0.0378, 0.038))
    # the median of the per-pair ratios, not the ratio of the medians
    assert got["ratio"] == pytest.approx((0.8636, 0.9, 0.9), abs=1e-4)
    lines = ab.report_lines(got)
    assert [l.split()[0] for l in lines] == ["side", "parent", "change",
                                             "ratio"]
    assert lines[-1] == "ratio change/parent: median 0.900 [0.864, 0.900]"
    # no verdict: nothing says whether the change is a gain
    assert not any("gain" in l or "yes" in l for l in lines)


def test_ab_inproc_times_the_dependency_step(tmp_path):
    # one tree on both sides: the footprints plus token encoding of every
    # corpus case, and the same DPON/DPBY on every instruction
    out = run_script("ab_inproc.py", ROOT, ROOT, "--workload", "corpus",
                     "--phase", "deps", "--pairs", "1",
                     cwd=tmp_path).splitlines()
    n = len(corpus.corpus_names()) + 1   # and deconv through upsample
    assert out[0] == (f"workload corpus, phase deps, {n} cases, 1 pairs "
                      f"(seconds per pass)")
    assert [line.split()[0] for line in out[1:-1]] == [
        "side", "parent", "change", "ratio"]
    assert out[-1] == f"dpon/dpby: identical on all {n} cases"


def test_ab_inproc_times_the_assembly_writer(tmp_path):
    # one tree on both sides: `emit_assembly` over every corpus case's
    # compiled program, and the same text on both sides
    out = run_script("ab_inproc.py", ROOT, ROOT, "--workload", "corpus",
                     "--phase", "emit", "--pairs", "1",
                     cwd=tmp_path).splitlines()
    n = len(corpus.corpus_names()) + 1   # and deconv through upsample
    assert out[0] == (f"workload corpus, phase emit, {n} cases, 1 pairs "
                      f"(seconds per pass)")
    assert [line.split()[0] for line in out[1:-1]] == [
        "side", "parent", "change", "ratio"]
    assert out[-1] == f"assemblies: identical on all {n} cases"
