"""Smoke run of every workload: each metric is printed with its unit and no call fails.

Run from the repository root: ``python3 -m pytest perfbench/tests``. The
runs are short, so the figures mean nothing; only names, units and
correctness are checked. ``large_tables`` always runs one whole cycle, so
its runs take the longest.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    CONTRACT = json.load(_handle)

# Every workload the benchmark knows, including those left out of the contract.
WORKLOADS = list(workloads.BY_NAME)


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _check_output(out: subprocess.CompletedProcess, declared: list[dict], human: list[str]) -> None:
    assert out.returncode == 0, out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, out.stdout
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    report = "\n".join(lines[:-1])
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert re.search(rf"^\s+{re.escape(name)}\s+-?[0-9.]+ {re.escape(unit)}$", report, re.M), name
    for line in human:
        assert re.search(rf"^\s+{line}", report, re.M), line
    env = json.loads(re.search(r"^\s+env (\{.*\})$", report, re.M).group(1))
    assert env["separate_processes"] is True
    assert {"python", "nproc", "commit", "loadavg_start", "loadavg_end", "network"} <= set(env)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    out = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    human = [r"failed_ratio\s+0\.0000 ratio", r"latency_p99_ms\s+(n/a|[0-9.]+) ms"]
    _check_output(out, CONTRACT["end_to_end"], human)
    for metric in CONTRACT["end_to_end"]:
        assert json.loads(out.stdout.splitlines()[-1])["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    out = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    _check_output(out, CONTRACT["per_layer"], [r"failed_ratio\s+0\.0000 ratio"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(str(tmp_path), "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""
