"""Report bytes pinned by digest, with nothing but the standard library.

``golden_reports.json`` holds the SHA-256 of every report in both formats:
all five subcommands on each bundled fixture, whatever the exit code, and
each seed 1-3 perfbench input under its own workload's subcommand. Each
report is rendered with the bare file name as its path, so the
``scenario`` line does not depend on where the file sits.

    PYTHONPATH=src python tests/golden.py --check   # compare, exit 1 on a difference
    PYTHONPATH=src python tests/golden.py --write   # regenerate the table

Both run in a temporary directory and leave the checkout as it was. A
change that alters report bytes on purpose regenerates the table and says
so in CHANGES.md. ``tests/test_golden.py`` makes the same comparison under
pytest.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import sievelogic
from sievelogic.cli import main

TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"
GOLDEN = TESTS / "golden_reports.json"
FIXTURES = ["cabello18.scn", "sierpinski.top", "sigma_z.scn", "sigma_zx.scn", "vposet.top"]
SUBCOMMANDS = ["validate", "category", "valuate", "ks-search", "heyting"]
WORKLOAD_SUBCOMMAND = {
    "ks-certify": "ks-search",
    "heyting-tables": "heyting",
    "spectrum-scan": "category",
    "valuate-queries": "valuate",
}


def bundled_fixture(name: str) -> Path:
    """Path of a fixture file shipped with the package."""
    path = Path(sievelogic.__file__).resolve().parent / "fixtures" / name
    if not path.exists():
        raise FileNotFoundError(f"no bundled fixture named {name!r}")
    return path


def perfbench_json(script: str, *args: str):
    """What ``script``, run inside ``perfbench/`` with ``args``, prints as JSON."""
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        cwd=PERFBENCH, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(done.stdout)


# Prints the seed, name and text of every input of one workload, seeds 1-3.
_BENCH_INPUTS_SCRIPT = """
import json, sys, workloads
print(json.dumps([
    (seed, req.filename, req.text)
    for seed in (1, 2, 3)
    for req in workloads.generate(sys.argv[1], seed)
]))
"""


def bench_inputs(workload: str) -> list[tuple[int, str, str]]:
    """``(seed, filename, text)`` of every input of ``workload``, seeds 1-3."""
    return [tuple(entry) for entry in perfbench_json(_BENCH_INPUTS_SCRIPT, workload)]


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


def _all_digests() -> dict[str, str]:
    """Every digest the table pins, computed in a temporary directory."""
    table = {}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        try:
            table.update(_digests("fixtures", _fixture_inputs(), SUBCOMMANDS))
            for workload, command in sorted(WORKLOAD_SUBCOMMAND.items()):
                table.update(_digests(workload, bench_inputs(workload), [command]))
        finally:
            os.chdir(here)
    return table


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with the table")
    mode.add_argument("--write", action="store_true", help="regenerate the table")
    args = parser.parse_args()
    table = _all_digests()
    if args.write:
        GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(table)} digests to {GOLDEN}", file=sys.stderr)
        sys.exit(0)
    golden = json.loads(GOLDEN.read_text())
    differ = sorted(k for k in golden.keys() | table.keys() if golden.get(k) != table.get(k))
    for key in differ:
        print(f"differs: {key}", file=sys.stderr)
    held = sum(table.get(k) == v for k, v in golden.items())
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"Python {version}: {held} of {len(golden)} digests hold")
    sys.exit(1 if differ else 0)
