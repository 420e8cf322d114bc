"""The runner end to end: result lines, and refusal without a source tree."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run

ROOT = Path(__file__).resolve().parents[2]


def _run(cwd, workload, trace, seconds="0.5"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_has_every_metric(workload, trace):
    found = _run(ROOT, workload, trace)
    assert found.returncode == 0, found.stderr
    lines = found.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[0] for line in lines[:-1] if line}
    if trace:
        assert set(run.PER_LAYER_PRINTED) <= printed
    else:
        assert {"setup_wall_s", "throughput_rps", "latency_p50_ms", "latency_tail_ms",
                "failure_ratio", "reference_ms", "env"} <= printed


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    found = _run(tmp_path, "round-trip", 0, seconds="1")
    assert found.returncode != 0
    assert '"metrics"' not in found.stdout
