"""Self-test of the benchmark: every workload once at reduced size.

    python3 -m pytest perfbench -q

Checks the result line against BENCHMARK.json (every metric emitted, with its
unit), that no op fails, that the traced run reaches every listed function on
some workload, and that the benchmark refuses to run without the drt sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke(workload: str, trace: int) -> tuple[dict, str]:
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


@pytest.fixture(scope="module")
def traced_results() -> dict[str, dict]:
    return {w: smoke(w, 1)[0] for w in WORKLOADS}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, stdout = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert re.search(r"failed_frac=0$", stdout, re.M)
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["metrics"]["ok_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload, traced_results):
    result = traced_results[workload]
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert want == tracer.layer_metric_units()
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_every_function_is_reached(traced_results):
    for name in tracer.SPAN_NAMES:
        calls = [r["metrics"][f"{name}.calls"]["value"] for r in traced_results.values()]
        assert max(calls) > 0, f"{name} is never called"
        errors = [r["metrics"][f"{name}.errors"]["value"] for r in traced_results.values()]
        assert max(errors) == 0, f"{name} raised"


def test_predictions_name_real_metrics():
    names = {m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    rows = json.loads((HERE / "predictions.json").read_text())["rows"]
    for row in rows:
        for metric in row["layer_metrics"] + row["moves"]:
            assert metric in names, metric
        assert set(row["on"] + row["flat_on"]) <= set(WORKLOADS)


def test_bounds():
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "golden", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
