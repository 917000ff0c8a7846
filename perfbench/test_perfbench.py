"""Smoke test of the benchmark at tiny input sizes.

    python3 -m pytest perfbench/test_perfbench.py

Every workload runs once untraced and once traced; each must print every
metric BENCHMARK.json names, with its unit, and the traced run must leave
a span file that parses.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

from run import Runner, prepare  # noqa: E402
from workloads import WORKLOADS, analyze_configs  # noqa: E402


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace):
    out = bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    *_, record_line, result_line = out.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in expected}
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    record = json.loads(record_line)["record"]
    assert record["environment"]["backend"] in ("numpy", "numba")
    if not trace:
        assert all(v > 0 for v in values)
        return
    spans = [json.loads(line) for line in (ROOT / record["spans_file"]).read_text().splitlines()]
    ids = {s["id"] for s in spans}
    assert [s["name"] for s in spans if s["parent"] is None] == ["cli.run_cli"]
    assert all(s["parent"] in ids and s["start"] <= s["end"] for s in spans if s["parent"] is not None)


def test_inputs_depend_only_on_the_seed():
    for name in ("analyze_large", "analyze_small_batch"):
        assert analyze_configs(name, 5, tiny=True) == analyze_configs(name, 5, tiny=True)
        assert analyze_configs(name, 5, tiny=True) != analyze_configs(name, 6, tiny=True)


@pytest.mark.parametrize("workload", ["analyze_small_batch", "search_exhaustive"])
def test_a_wrong_report_fails_the_check(workload):
    job, environment = prepare(workload, 3, tiny=True)
    runner = Runner(job, 3, tiny=True, backend=environment["backend"])
    proc, work = runner.cli_run()
    assert work is not None and not runner.failures
    proc.stdout = proc.stdout.replace('"lines": "1"', '"lines": "2"', 1).replace(
        '"actual": "', '"actual": "1', 1)
    assert runner.verify(proc, "mutated") is None
    assert len(runner.failures) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    out = bench(tmp_path, "search_local", 0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
