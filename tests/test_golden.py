"""Report bytes pinned by digest.

``golden_reports.json`` holds the SHA-256 of every report in both formats:
all five subcommands on each bundled fixture, whatever the exit code, and
each seed 1-3 perfbench input under its own workload's subcommand. Each
report is rendered with the bare file name as its path, so the
``scenario`` line does not depend on where the file sits.

A change that alters report bytes on purpose regenerates the file with
``PYTHONPATH=src python tests/test_golden.py`` and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import re
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from sievelogic.cli import main

from conftest import bench_inputs, bundled_fixture

GOLDEN = Path(__file__).resolve().parent / "golden_reports.json"
FIXTURES = ["cabello18.scn", "sierpinski.top", "sigma_z.scn", "sigma_zx.scn", "vposet.top"]
SUBCOMMANDS = ["validate", "category", "valuate", "ks-search", "heyting"]
WORKLOAD_SUBCOMMAND = {
    "ks-certify": "ks-search",
    "heyting-tables": "heyting",
    "spectrum-scan": "category",
    "valuate-queries": "valuate",
}


def _reports(group: str, inputs, commands) -> dict[str, str]:
    """Every report on ``inputs`` (``(seed, filename, text)``) under each of
    ``commands``, in both formats, keyed by group, seed, file, subcommand and
    format. Writes each input into the working directory."""
    out = {}
    for seed, name, text in inputs:
        Path(name).write_text(text, encoding="utf-8")
        for command in commands:
            for fmt in ("human", "record"):
                buf = io.StringIO()
                with redirect_stdout(buf):
                    main([command, name, "--format", fmt])
                out[f"{group} {seed} {name} {command} {fmt}"] = buf.getvalue()
    return out


def _digests(group: str, inputs, commands) -> dict[str, str]:
    """The SHA-256 of each of ``_reports``."""
    return {
        key: hashlib.sha256(report.encode("utf-8")).hexdigest()
        for key, report in _reports(group, inputs, commands).items()
    }


def _fixture_inputs() -> list[tuple[int, str, str]]:
    return [(0, name, bundled_fixture(name).read_text(encoding="utf-8")) for name in FIXTURES]


def _golden(group: str) -> dict[str, str]:
    table = json.loads(GOLDEN.read_text())
    return {k: v for k, v in table.items() if k.split(" ", 1)[0] == group}


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


if __name__ == "__main__":
    table = {}
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        table.update(_digests("fixtures", _fixture_inputs(), SUBCOMMANDS))
        for workload, command in sorted(WORKLOAD_SUBCOMMAND.items()):
            table.update(_digests(workload, bench_inputs(workload), [command]))
        os.chdir(Path(__file__).resolve().parent)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN}", file=sys.stderr)
