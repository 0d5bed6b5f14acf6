"""Smoke test of the benchmark: every workload at a tiny size, traced and not.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py
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

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from panelqa import metrics, tensor, training  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
NAMES = {0: [m["name"] for m in SPEC["end_to_end"]],
         1: [m["name"] for m in SPEC["per_layer"]]}


def bench(root, *args):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=600, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == NAMES[trace]
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if trace:
        path = os.path.join(run.OUT, "results",
                            f"{workload}-seed3-trace1.json")
        with open(path, encoding="utf-8") as fh:
            wall_ms = json.load(fh)["traced_ms_per_op"]
        self_ms = sum(values[name] for name in tracing.TIMED.values())
        assert 0 < self_ms <= wall_ms
    else:
        assert all(v > 0 for v in values.values())


def test_wrappers_removed_and_metrics_match_spec():
    sites = [(owner, attr) for owner, attr, _ in tracing.TARGETS]
    sites += [(tensor.Tensor, "_make"), (training, "forward_scores"),
              (metrics, "load_image")]
    before = [owner.__dict__[attr] for owner, attr in sites]
    workdir = os.path.join(run.OUT, f"smoke-{os.getpid()}")
    try:
        for name in run.WORKLOADS:
            tracer = tracing.Tracer()
            outcome = workloads.run(name, 3, 0.5, True, True, workdir, tracer)
            after = [owner.__dict__[attr] for owner, attr in sites]
            assert all(a is b for a, b in zip(after, before)), name
            assert outcome.traced and outcome.plain
            assert set(run.per_layer(outcome, tracer)) == set(NAMES[1])
            assert set(run.end_to_end(outcome, 0.0)) == set(NAMES[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_fails_without_the_package_sources():
    bare = os.path.join(run.OUT, f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = bench(bare, "--workload", "train_c7", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
