"""The benchmark under ``perfbench/`` seen from the test suite: its smoke
workload runs clean against this checkout, and every input it generates
stays inside the size guards."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from sievelogic.scenario import parse_scenario, scenario_operators

from conftest import passes_subset_guard

ROOT = Path(__file__).resolve().parent.parent

# Prints the text of every scenario file the four workloads write, seeds 1-3.
_SCENARIOS_SCRIPT = """
import json, workloads
print(json.dumps([
    req.text
    for name in workloads.WORKLOADS
    for seed in (1, 2, 3)
    for req in workloads.generate(name, seed)
    if req.filename.endswith(".scn")
]))
"""


def test_smoke_workload_runs_clean():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "1",
         "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


@pytest.fixture(scope="module")
def bench_scenarios():
    done = subprocess.run(
        [sys.executable, "-c", _SCENARIOS_SCRIPT],
        cwd=ROOT / "perfbench", capture_output=True, text=True, check=True, timeout=120,
    )
    return [parse_scenario(text) for text in json.loads(done.stdout)]


def test_bench_inputs_pass_subset_guard(monkeypatch, bench_scenarios):
    assert len(bench_scenarios) >= 30
    for scn in bench_scenarios:
        ops = scenario_operators(scn)
        assert passes_subset_guard(monkeypatch, ops, scn.close_under_questions)
