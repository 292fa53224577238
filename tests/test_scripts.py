"""Smoke tests of the experiment scripts: each runs in a subprocess, as
from the command line, and writes only under a temporary directory.  The
benchmark's tracer is checked against the functions it wraps."""

import importlib.util
import os
import subprocess
import sys

from dpuc import corpus

ROOT = os.path.join(os.path.dirname(__file__), "..")
SCRIPTS = os.path.join(ROOT, "scripts")


def run_script(name, *args, cwd):
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name), *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_make_corpus_matches_committed_corpus(tmp_path):
    out = tmp_path / "corpus"
    run_script("make_corpus.py", out, cwd=tmp_path)
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
