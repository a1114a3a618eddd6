"""Tests of the benchmark's own generators, oracles and command line.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import workloads
from oracles import (
    born_probabilities,
    check_report,
    closed_ks_expectation,
    partition_arrows,
    split_members,
    upper_sets,
)

ROOT = Path(__file__).resolve().parents[1]


def _levels(bases):
    return [[(Fraction(i + 1), r) for i, r in enumerate(b)] for b in bases]


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def test_peres_has_24_rays_in_24_bases_each_ray_in_four():
    rays = workloads.peres_rays()
    bases = workloads.orthogonal_bases(rays)
    assert len(set(rays)) == 24 and len(bases) == 24
    assert all(sum(i in b for b in bases) == 4 for i in range(24))


def test_cabello_rays_each_in_two_bases():
    rays = [r for b in workloads.CABELLO_BASES for r in b]
    assert len(set(rays)) == 18
    assert all(rays.count(r) == 2 for r in set(rays))
    for b in workloads.CABELLO_BASES:
        assert all(_dot(x, y) == 0 for x, y in itertools.combinations(b, 2))


def test_colourings_of_the_standard_sets():
    cabello = closed_ks_expectation(_levels(workloads.CABELLO_BASES), [])
    peres = closed_ks_expectation(_levels(workloads.peres_bases()), [])
    assert (cabello.objects, cabello.arrows, cabello.ray_colourings) == (101, 517, 0)
    assert (peres.objects, peres.arrows, peres.ray_colourings) == (164, 964, 0)
    assert not cabello.sections and not peres.sections
    for drop in range(9):
        rest = [b for i, b in enumerate(workloads.CABELLO_BASES) if i != drop]
        minus = closed_ks_expectation(_levels(rest), [])
        assert minus.ray_colourings == 26 and len(minus.sections) == 26


def test_relabelling_keeps_orthogonality_and_counts():
    rng = random.Random(7)
    contexts = workloads.relabel(rng, workloads.CABELLO_BASES, "c")
    for ctx in contexts:
        rays = [r for _, r in workloads.basis_rays(ctx)]
        assert all(_dot(x, y) == 0 for x, y in itertools.combinations(rays, 2))
    exp = closed_ks_expectation([workloads.basis_rays(c) for c in contexts],
                                [c.name for c in contexts])
    assert (exp.objects, exp.arrows, len(exp.sections)) == (101, 517, 0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS) + ["smoke"])
def test_generation_is_seeded(name):
    first = workloads.generate(name, 3)
    assert [r.text for r in first] == [r.text for r in workloads.generate(name, 3)]
    assert [r.text for r in first] != [r.text for r in workloads.generate(name, 4)]


@pytest.mark.parametrize("n", [3, 5, 6, 7])
def test_exact_basis_is_orthogonal(n):
    basis = workloads.exact_basis(random.Random(n), n)
    assert len(basis) == n
    assert all(_dot(x, y) == 0 for x, y in itertools.combinations(basis, 2))
    assert all(_dot(x, x) > 0 for x in basis)


def test_partition_refinement_arrows():
    top = {0: 1, 1: 2, 2: 3}
    merged = {0: 5, 1: 5, 2: 6}
    const = {0: 0, 1: 0, 2: 0}
    exp = partition_arrows([("t", top), ("m", merged), ("k", const)], 3)
    assert set(exp.arrows) == {("t", "t"), ("t", "m"), ("t", "k"), ("m", "m"),
                               ("m", "k"), ("k", "k")}
    assert exp.arrows[("t", "m")] == {1: 5, 2: 5, 3: 6}
    # Up-sets of the chain t < m < k seen from t: {}, {k}, {m,k}, {t,m,k}.
    assert exp.sieves == {"t": 4, "m": 3, "k": 2}


def test_born_probabilities_sum_to_one():
    levels = workloads.basis_rays(workloads.relabel(random.Random(1), workloads.peres_bases(), "p")[0])
    state = workloads.random_state(random.Random(2), 4)
    assert sum(born_probabilities(state, levels).values()) == 1


def test_topologies_are_upper_sets_within_the_size_window():
    req = workloads.topology_request(random.Random(5), "t", 7)
    low, high = workloads.TOPOLOGY_OPENS
    assert low <= len(req.expect.opens) <= high
    order = {"a": {"b"}, "b": set()}
    assert set(upper_sets(order)) == {frozenset(), frozenset("b"), frozenset("ab")}


def test_split_members_respects_brackets():
    assert split_members("{id_a,a->a[1,2],b}") == {"id_a", "a->a[1,2]", "b"}
    assert split_members("{}") == frozenset()


_CHAIN = """command: heyting
scenario: x.top
kind: topology
topology.elements: 3
topology.element.0: {}
topology.element.1: {b}
topology.element.2: {a,b}
topology.zero: 0
topology.one: 2
topology.meet.0: 0,0,0
topology.meet.1: 0,1,1
topology.meet.2: 0,1,2
topology.join.0: 0,1,2
topology.join.1: 1,1,2
topology.join.2: 2,2,2
topology.implies.0: 2,2,2
topology.implies.1: 0,2,2
topology.implies.2: 0,1,2
topology.not: 2,0,0
topology.excluded_middle_violations: 1
topology.excluded_middle_violation.0: {b}
"""


def test_table_check_accepts_a_chain_and_rejects_corruptions():
    from oracles import HeytingTopologyExpect
    exp = HeytingTopologyExpect(frozenset(upper_sets({"a": {"b"}, "b": set()})))
    assert check_report(exp, _CHAIN) == []
    for bad in ("topology.meet.1: 0,1,2", "topology.implies.1: 0,1,2",
                "topology.not: 2,1,0", "topology.excluded_middle_violations: 0"):
        key = bad.split(":")[0]
        text = "".join(
            (bad + "\n") if line.startswith(key + ":") else line + "\n"
            for line in _CHAIN.splitlines()
        )
        assert check_report(exp, text), bad


def _run(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_is_correct(trace):
    proc = _run(ROOT, "--workload", "smoke", "--seed", "1", "--seconds", "0.1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 5
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "smoke", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
