"""Smoke test: each workload once at tiny scale, both modes, plus a fault.

    python -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from common import E2E_UNITS, LAYER_UNITS  # noqa: E402

WORKLOADS = ("oneshot", "replay", "served")


def run(workload: str, trace: int, *extra: str):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny", *extra],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1]), proc.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_prints_with_its_unit(workload, trace):
    code, lines, result, stderr = run(workload, trace)
    assert code == 0, stderr
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = LAYER_UNITS if trace else E2E_UNITS
    assert set(result["metrics"]) == set(units)
    for name, unit in units.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert isinstance(metric["value"], float)
        assert f"{workload} {name} " in "\n".join(lines[:-1])
    if not trace:
        for name in ("goodput_ops_s", "latency_p50_ms", "setup_s",
                     "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0


def test_layers_are_exercised_where_chosen():
    hit_ratio = {
        w: run(w, 1)[2]["metrics"]["plan.hit_ratio"]["value"]
        for w in WORKLOADS
    }
    assert hit_ratio["oneshot"] == 0.0
    assert hit_ratio["replay"] == 1.0
    assert 0.0 < hit_ratio["served"] < 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_result_counts_as_failure(workload):
    code, _, result, _ = run(workload, 0, "--inject-fault")
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 1


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oneshot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
