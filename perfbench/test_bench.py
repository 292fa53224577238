"""Self-test of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/test_bench.py

It runs every workload briefly (about a minute in all) and checks that
the benchmark measures what it claims: BENCHMARK.json matches the
harness, every span fires, compile self times add up to compile wall
time, exact metrics repeat across runs and seeds, the corpus makespans
reproduce the published baseline, and a directory without the sources
gives no result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import bench  # noqa: E402
import hostclock  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from dpuc.machine import MachineConfig  # noqa: E402

# pipelined makespans of the shipped corpus at the commit that introduced
# this benchmark
BASELINE_MAKESPANS = {
    "conv_pool": 5526, "deconv": 652, "inception_cell": 836,
    "resnet_cell": 1008, "toy_conv": 158, "vgg_prefix": 4312,
    "weight_tiled": 29468,
}
EXACT = ("sim_cycles", "instructions", "ddr_bytes")


@pytest.fixture(scope="module", params=W.NAMES)
def runs(request):
    """One plain and one traced round at seed 1, and the shortest
    untraced runs at seeds 1 and 2, of one workload."""
    wl = request.param
    cfg = MachineConfig()
    clock = hostclock.Clock()
    prepared, _ = bench.set_up(wl, 1, cfg, clock)
    runner, tracer, layers, _ = bench.run_traced(prepared, cfg, clock, 0, wl)
    return {"workload": wl, "runner": runner, "tracer": tracer,
            "layers": layers,
            "untraced": [bench.measure(wl, seed, 0, 0, clock)
                         for seed in (1, 2)]}


def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(W.NAMES)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == W.WHY
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(bench.PER_LAYER)


def test_every_operation_passes(runs):
    for report in runs["untraced"]:
        assert report["result"]["failed"] == 0, report["errors"]
        assert report["fail_ratio"] == 0
    assert runs["runner"].failed == 0, runs["runner"].errors


def test_every_span_fires(runs):
    fired = {span[0] for span in runs["tracer"].spans}
    assert fired == set(tracing.SPAN_NAMES)


def test_per_layer_metrics_complete(runs):
    names = {name for name, _unit in bench.PER_LAYER}
    reported = set(runs["layers"]) | set(
        bench.simulated_metrics(runs["runner"].stats))
    assert names <= reported


def test_compile_self_times_account_for_its_wall_time(runs):
    """Per compile_graph call: the self times of every span below it plus
    its own self time sum to its wall time, and every span below it has a
    per-layer metric."""
    spans = runs["tracer"].spans
    children = {}
    for sid, span in enumerate(spans):
        children.setdefault(span[3], []).append(sid)
    metrics = {name for name, _unit in bench.PER_LAYER}

    def self_sum(sid):
        name, t0, t1, *_ = spans[sid]
        assert bench.SELF_TIME_METRIC[name] in metrics
        kids = children.get(sid, [])
        own = (t1 - t0) - sum(spans[k][2] - spans[k][1] for k in kids)
        return own + sum(self_sum(k) for k in kids)

    compiles = [sid for sid, s in enumerate(spans)
                if s[0] == "compiler.compile"]
    assert compiles
    for sid in compiles:
        wall = spans[sid][2] - spans[sid][1]
        assert self_sum(sid) == pytest.approx(wall, rel=1e-9, abs=1e-12)


def test_exact_metrics_repeat_across_runs_and_seeds(runs):
    first, second = runs["untraced"]
    assert first["simulated"] == second["simulated"]
    assert first["simulated"] == bench.simulated_metrics(runs["runner"].stats)
    for name in EXACT:
        assert first["result"]["metrics"][name] \
            == second["result"]["metrics"][name]
    assert first["makespans"] == second["makespans"]


def test_corpus_makespans_match_baseline(runs):
    if runs["workload"] != "corpus":
        pytest.skip("baseline makespans are published for the corpus only")
    got = runs["untraced"][0]["makespans"]
    assert {n: got[n] for n in BASELINE_MAKESPANS} == BASELINE_MAKESPANS


def test_no_result_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
