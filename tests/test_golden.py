"""Report bytes pinned by digest, under pytest.

The table, the inputs and the digest helpers live in ``tests/golden.py``,
which also checks and regenerates the table without pytest; see there.
"""

from __future__ import annotations

import random
import re

import pytest

from golden import (
    SUBCOMMANDS,
    WORKLOAD_SUBCOMMAND,
    _digests,
    _fixture_inputs,
    _golden,
    _reports,
    bench_inputs,
)


def test_bundled_fixture_reports(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _digests("fixtures", _fixture_inputs(), SUBCOMMANDS) == _golden("fixtures")


@pytest.mark.parametrize("workload", sorted(WORKLOAD_SUBCOMMAND))
def test_bench_reports(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digests = _digests(workload, bench_inputs(workload), [WORKLOAD_SUBCOMMAND[workload]])
    assert digests == _golden(workload)


def _spread(rng: random.Random, text: str) -> str:
    """``text`` with random blanks, spaces and tabs, before and after every
    line and in place of every space."""
    def blanks(least: int) -> str:
        return "".join(rng.choice(" \t") for _ in range(rng.randint(least, 3)))
    return "".join(
        blanks(0) + re.sub(" ", lambda _: blanks(1), line) + blanks(0) + "\n"
        for line in text.splitlines()
    )


@pytest.mark.parametrize("group", ["fixtures", *sorted(WORKLOAD_SUBCOMMAND)])
def test_reports_do_not_depend_on_blank_layout(group, tmp_path, monkeypatch):
    """Every fixture under each subcommand, and every seed-1 bench input
    under its workload's, rewritten with indentation and wider separators
    under the same file name, gives the same bytes in both formats. Only a
    parse error's column may differ: it moves with its line's blanks."""
    monkeypatch.chdir(tmp_path)
    rng = random.Random(group)
    if group == "fixtures":
        inputs, commands = _fixture_inputs(), SUBCOMMANDS
    else:
        inputs = [entry for entry in bench_inputs(group) if entry[0] == 1]
        commands = [WORKLOAD_SUBCOMMAND[group]]
    spread = [(seed, name, _spread(rng, text)) for seed, name, text in inputs]
    assert all(new != old for (_, _, new), (_, _, old) in zip(spread, inputs))

    def columnless(reports):
        return {k: re.sub(r"(line \d+, column )\d+:", r"\1_:", v) for k, v in reports.items()}
    assert columnless(_reports(group, spread, commands)) == columnless(
        _reports(group, inputs, commands)
    )

