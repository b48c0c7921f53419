"""Smoke test of the benchmark at reduced sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload is run untraced and traced with ``--smoke``; each run must
pass its correctness checks and emit exactly the metrics BENCHMARK.json
declares for that mode, each with its declared unit.
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
META = json.loads((HERE / "meta.json").read_text(encoding="utf-8"))


@functools.cache
def run(workload: str, trace: int, seed: int = 3) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_unit(workload, trace):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace:
        for entry in META["layers"]:
            for metric in entry["metrics"]:
                value = result["metrics"][f"{entry['layer']}.{metric}"]["value"]
                if workload in entry.get("zero_on", ()):
                    assert value == 0, (entry["layer"], metric)


def test_layer_map_names_declared_metrics():
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    for entry in META["layers"]:
        for metric in entry["metrics"]:
            assert f"{entry['layer']}.{metric}" in per_layer
        for workload, moved in entry["moves"].items():
            assert workload in workloads
            assert set(moved) <= end_to_end
    assert set(META["end_to_end"]) == end_to_end


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_computed_counts_repeat(workload):
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]
    first, second = run(workload, 1), run.__wrapped__(workload, 1)
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
