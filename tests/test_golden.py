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


def _digests(group: str, inputs, commands) -> dict[str, str]:
    """The digest of every report on ``inputs`` (``(seed, filename, text)``)
    under each of ``commands``, in both formats, keyed by group, seed, file,
    subcommand and format. Writes each input into the working directory."""
    out = {}
    for seed, name, text in inputs:
        Path(name).write_text(text, encoding="utf-8")
        for command in commands:
            for fmt in ("human", "record"):
                buf = io.StringIO()
                with redirect_stdout(buf):
                    main([command, name, "--format", fmt])
                digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
                out[f"{group} {seed} {name} {command} {fmt}"] = digest
    return out


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
