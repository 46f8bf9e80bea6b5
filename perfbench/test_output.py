"""The benchmark's own test: its output document against BENCHMARK.json.

Run from the repository root with ``python3 -m pytest perfbench -q``. Each
case runs one short benchmark invocation in a subprocess.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(cwd: Path, workload: str, trace: int, seconds: str = "1") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_output_document(trace):
    child = invoke(ROOT, "service-burst", trace)
    assert child.returncode == 0, child.stderr
    lines = child.stdout.splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == expected[name]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0, name
    report = json.loads(child.stderr.strip().splitlines()[-1])
    assert report["workload"] == "service-burst"
    assert {"nproc", "python", "numpy", "seed", "load_before", "load_after"} <= set(report["host"])
    for metric in report["metrics"]:
        assert metric["workload"] == "service-burst" and metric["samples"] >= 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = invoke(tmp_path, "service-burst", 0)
    assert child.returncode != 0
    assert child.stdout == ""
