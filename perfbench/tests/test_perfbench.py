"""Fast checks of the benchmark at tiny sizes.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT)]

import run  # noqa: E402
import suite  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = [metric["name"] for metric in SPEC["per_layer"]]
END_TO_END = [metric["name"] for metric in SPEC["end_to_end"]]


@pytest.fixture(scope="module", params=list(suite.WORKLOADS))
def passes(request, tmp_path_factory):
    """(workload, plain pass, traced pass) at tiny sizes."""
    workdir = tmp_path_factory.mktemp("perfbench")
    bench = suite.prepare(request.param, run.DEFAULT_SEED, suite.TINY, workdir)
    return request.param, bench.run_pass(False), bench.run_pass(True)


def test_benchmark_json_lists_the_suites_workloads():
    assert [workload["name"] for workload in SPEC["workloads"]] == list(suite.WORKLOADS)


def test_metric_and_workload_names_use_only_allowed_characters():
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    sections = ("workloads", "end_to_end", "per_layer")
    names = [entry["name"] for key in sections for entry in SPEC[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert pattern.fullmatch(name), name


def test_every_op_passes_its_checks(passes):
    _, plain, traced = passes
    for result in (plain, traced):
        assert result.ops > 0
        assert result.failures == {}


def test_traced_and_untraced_fingerprints_match(passes):
    _, plain, traced = passes
    assert plain.fingerprint
    assert plain.digest() == traced.digest()


def test_every_end_to_end_metric_is_emitted_and_nonzero(passes):
    workload, plain, _ = passes
    args = argparse.Namespace(workload=workload, seed=run.DEFAULT_SEED)
    metrics = run._end_to_end(args, [plain], ok_frac=1.0)
    assert list(metrics) == END_TO_END
    assert all(value > 0 for value in metrics.values()), metrics


def test_every_per_layer_metric_is_emitted(passes):
    _, plain, traced = passes
    layers = run._per_layer([plain], [traced], PER_LAYER)
    assert set(layers) == set(PER_LAYER)
    assert layers["obs.traced_wall_s"] > 0


def test_each_workload_calls_only_its_layers(passes):
    workload, plain, traced = passes
    layers = run._per_layer([plain], [traced], PER_LAYER)
    host = layers["hypervisor.dispatch.calls"]
    cluster = layers["cluster.planning.calls.h256"]
    store = layers["store.put.calls"] + layers["store.lookup.calls"] + layers["store.query.calls"]
    if workload == "host-paper":
        assert host > 0 and cluster == 0 and store == 0 and layers["sweep.execute.calls"] == 0
    elif workload == "fleet-scale":
        assert cluster > 0 and host == 0 and store == 0
    else:
        assert host == 0 and cluster == 0
        assert min(layers[f"store.{op}.calls"] for op in ("put", "lookup", "query")) > 0
        assert layers["store.hit_ratio.cold"] == 0.0
        assert layers["store.hit_ratio.warm"] == 1.0


def test_a_tree_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "host-paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
