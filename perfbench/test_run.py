"""Smoke test of the benchmark command in quick mode.

    python3 -m pytest -q perfbench/test_run.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METADATA = ("git_rev", "python", "numpy", "scipy", "networkx", "nproc",
            "seed", "shots", "wall_s", "digest", "ler")


def run(cwd, *args):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_reports_every_metric(workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", "3", "--trace",
               str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    report, result = json.loads(report_line), json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert all(key in report for key in METADATA)
    if trace:
        assert report["checks"]["traced_digest_equals_untraced"]


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "--workload", SPEC["workloads"][0]["name"],
               "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
