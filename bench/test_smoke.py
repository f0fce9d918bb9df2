"""Smoke check of the benchmark: tiny runs of every workload.

Run from the root of a checkout with ``python3 -m pytest -q bench/test_smoke.py``
(about a minute).  Each run measures one second and completes at least one
pass over its instances.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, seed, trace):
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_on_two_seeds(workload):
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for seed in (1, 2):
        info, result = _run(workload, seed, 0)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], info["failures"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert info["fail_ratio"] == 0
        assert _units(result) == expected
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_spans_nest(workload):
    info, result = _run(workload, 1, 1)
    assert result["correct"], info["failures"]
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    with open(os.path.join(ROOT, info["spans_file"]), encoding="utf-8") as fh:
        spans = json.load(fh)
    assert spans
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] >= 0:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"], (s, parent)
            assert parent["op"] == s["op"]
    rows = [[s[k] for k in ("name", "start", "end", "parent", "op", "failed")] for s in spans]
    assert min(tracing.self_times(rows)) >= -1e-9
