"""The benchmark under ``perfbench/`` seen from the test suite: its smoke
workload runs clean against this checkout, and every input it generates
stays inside the size guards, as does every bundled fixture."""

import json
import subprocess
import sys

import pytest

from sievelogic.heyting import open_set_heyting, sieve_algebra
from sievelogic.presheaf import _search_order
from sievelogic.quantum import MAX_QUESTIONS, _overlap_graphs, build_operator_category
from sievelogic.scenario import (
    looks_like_topology,
    parse_scenario,
    parse_topology,
    scenario_operators,
)
from sievelogic.spectral import _overlaps

from conftest import category_shape, scenario_category
from golden import PERFBENCH, WORKLOAD_SUBCOMMAND, bench_inputs, bundled_fixture
from oracles import endpoint_table, matrix_operator_category, max_search_order

ROOT = PERFBENCH.parent
_FIXTURES = ["sigma_z.scn", "sigma_zx.scn", "cabello18.scn", "sierpinski.top", "vposet.top"]


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
    return [parse_scenario(text) for workload in WORKLOAD_SUBCOMMAND
            for _, name, text in bench_inputs(workload) if name.endswith(".scn")]


def test_bench_inputs_pass_closure_guard(bench_scenarios):
    # Every input builds, with room under the guard, into the category the
    # matrix reference builds, whose relation fixes its composites.
    assert len(bench_scenarios) >= 30
    for scn in bench_scenarios:
        ops = scenario_operators(scn)
        close = scn.close_under_questions
        questions = sum((1 << len(op.spectrum)) - 2 for op in ops) if close else 0
        assert questions <= MAX_QUESTIONS // 8
        ocat = build_operator_category(ops, close)
        assert category_shape(ocat) == category_shape(matrix_operator_category(ops, close))
        assert list(ocat.base.composition.items()) == list(endpoint_table(ocat.base).items())


def test_fast_paths_match_references_on_bench_inputs(bench_scenarios):
    # The overlap graphs from distinct vectors equal the pairwise ones, and
    # the heap search order equals the max reference, on every input.
    for scn in bench_scenarios:
        ops = scenario_operators(scn)
        assert _overlap_graphs(ops) == [[_overlaps(a, b) for b in ops] for a in ops]
        base = build_operator_category(ops, scn.close_under_questions).base
        assert _search_order(base) == max_search_order(base)


def test_heyting_inputs_pass_table_guard(heyting_bench_inputs):
    texts = [text for _, _, text in heyting_bench_inputs]
    texts += [bundled_fixture(name).read_text() for name in _FIXTURES]
    assert len(texts) == 12 + len(_FIXTURES)
    for text in texts:
        if looks_like_topology(text):
            open_set_heyting(parse_topology(text))
            continue
        base = scenario_category(text).base
        for obj in base.objects:
            sieve_algebra(base, obj)
