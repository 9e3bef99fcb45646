"""Self-checks of the benchmark itself (not part of the package's tests).

From the root of a checkout:  python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXACT_COUNTERS = (
    "states.eigensolves_per_op",
    "oracle.sweep_passes_per_search",
    "oracle.peel_searches_per_op",
    "oracle.greedy_decompose.calls_per_op",
)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


def _traced_metrics(workload: str) -> dict:
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "2", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize(
    "workload", ["verdict-mix", "decompose-separable", "oracle-ces", "batch-cli"]
)
def test_exact_counters_repeat_for_a_seed(workload):
    first = _traced_metrics(workload)
    second = _traced_metrics(workload)
    for name in EXACT_COUNTERS:
        assert first[name] == second[name], name
    if workload != "oracle-ces":
        assert first["states.eigensolves_per_op"] > 0
    if workload in ("decompose-separable", "oracle-ces"):
        assert first["oracle.sweep_passes_per_search"] > 0
    if workload == "decompose-separable":
        probe = "oracle.greedy_decompose.full_rank_2x2_failed_ratio"
        assert first[probe] == second[probe]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    proc = _run(tmp_path, "--workload", "verdict-mix", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
