"""Smoke test of the benchmark: every workload at tiny size, untraced and
traced, checked against the metrics BENCHMARK.json declares.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import probe  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

META_KEYS = {"schema", "workload", "seed", "seconds", "trace", "scale", "cpu_model", "nproc", "blas",
             "blas_threads", "python", "numpy", "git_rev", "source_sha256", "run_config_sha256", "samples"}


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def cache_root(tmp_path_factory):
    return str(tmp_path_factory.mktemp("bench_cache"))


def test_spec_matches_harness(spec):
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    layers = list(probe.LAYER_METRICS) + [("trace.overhead_s", "s", "lower"),
                                          ("trace.overhead_frac", "frac", "lower")]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_emits_every_metric(workload, spec, cache_root):
    originals = {(owner, name): owner.__dict__[name] for owner, name in probe.patch_points()}
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, meta, record = run.run(workload, seed=3, seconds=0.0, trace=trace, scale="tiny",
                                       cache_root=cache_root, in_process_build=True)
        assert result["correct"], record["problems"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(meta) == META_KEYS and meta["blas_threads"] <= meta["nproc"]
        assert record["fingerprint"]
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
        leaked = [name for (owner, name), fn in originals.items() if owner.__dict__[name] is not fn]
        assert not leaked
    layer = {name: m["value"] for name, m in result["metrics"].items()}
    assert layer["imageops.conv2d.fwd_ms"] > 0 and layer["nets.backbone_ms"] > 0
    if workload == "detect_eval":
        assert layer["autodiff.backward_ms"] == 0 and layer["imageops.conv2d.bwd_ms"] == 0
    else:
        assert layer["autodiff.backward_ms"] > 0 and layer["autodiff.graph_nodes"] > 0
    if workload == "teacher_train":
        assert layer["distill.pd_ms"] == 0 and layer["train.teacher_cache_hit_frac"] == 0
    if workload == "distill_full":
        assert layer["distill.pd_ms"] > 0 and layer["train.teacher_cache_mb"] > 0
    if workload == "ablate_mini":
        assert layer["experiments.row_s"] > 0 and layer["distill.pd_ms"] > 0


def test_fails_without_the_library(tmp_path):
    """In a directory holding only the benchmark, the command fails and
    prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "teacher_train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
