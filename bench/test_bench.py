"""Quick-mode checks of the benchmark itself (a few seconds).

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def quick(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def expected(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    text, result = quick(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("fail_share 0.0 ") for line in text)
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == expected("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run(workload):
    text, result = quick(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert any(line.endswith("traced identical: True") for line in text)
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == expected("per_layer")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["engine.steps"] > 0
    assert 0 < metrics["engine.idle_step_share"] < 1
    if workload == "unauth-wide":
        assert metrics["signatures.sign.calls"] == 0
        assert metrics["authtools.chain_ok.calls"] == 0
    if workload == "auth-chains":
        assert metrics["signatures.verify.calls"] > 0
        assert metrics["authtools.max_chain_len"] >= 2


def test_counts_repeat_for_a_seed():
    _, first = quick("auth-chains", 1)
    _, second = quick("auth-chains", 1)
    counts = [
        {k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"}
        for r in (first, second)
    ]
    assert counts[0] == counts[1]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "unauth-wide", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
