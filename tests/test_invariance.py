"""Reports do not depend on the basis or on the order of the operators.

A unitary ``U`` applied to every eigenvector and every state keeps every
projector relation and every Born probability, so each subcommand must
print the same report, exit code included, on the rotated scenario.
``U`` is an exact Cayley unitary, so rotated entries are long Gaussian
rationals where the fixtures have entries in {0, 1, -1}.

Shuffling the ``OPERATOR`` blocks keeps the category and its sections, so
``ks-search`` must count the same objects, arrows and sections; its
``work.nodes`` may move, since the search order breaks ties by token.
"""

import io
import random
import re
from contextlib import redirect_stdout

import pytest

from sievelogic.cli import main
from sievelogic.exact import conj_transpose, identity_matrix
from sievelogic.scenario import parse_scenario, parse_vector

from golden import SUBCOMMANDS, bundled_fixture
from families import format_vector, hardy, peres24
from oracles import cayley_unitary, dense_mat_mul, dense_mat_vec


def rotated_scenario(text: str, u) -> str:
    """``text`` with every parenthesized vector of its EIGENVALUE and STATE
    lines replaced by ``u`` times it; every other byte is kept."""
    rotate = lambda m: format_vector(dense_mat_vec(u, parse_vector(m.group())))
    return "".join(
        re.sub(r"\([^()]*\)", rotate, line)
        if line.lstrip().startswith(("EIGENVALUE", "STATE")) else line
        for line in text.splitlines(keepends=True)
    )


def report(command: str, path) -> tuple[int, str]:
    """The record-format report of ``command`` on ``path``, less its
    ``scenario`` line (the one line that names the file)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([command, str(path), "--format", "record"])
    lines = buf.getvalue().splitlines(keepends=True)
    return code, "".join(line for line in lines if not line.startswith("scenario "))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", ["sigma_z.scn", "sigma_zx.scn", "cabello18.scn"])
def test_reports_do_not_depend_on_the_basis(name, seed, tmp_path):
    text = bundled_fixture(name).read_text()
    dim = parse_scenario(text).dimension
    u = cayley_unitary(random.Random(seed), dim, 3)
    assert dense_mat_mul(conj_transpose(u), u) == identity_matrix(dim)
    assert u != identity_matrix(dim)
    rotated = tmp_path / name
    rotated.write_text(rotated_scenario(text, u))
    assert rotated.read_text() != text
    for command in SUBCOMMANDS:
        assert report(command, rotated) == report(command, bundled_fixture(name)), command


def shuffled_operators(text: str, rng: random.Random) -> str:
    """``text`` with its OPERATOR blocks, each an OPERATOR line and the
    EIGENVALUE lines after it, in an order drawn from ``rng``; the lines
    before the first block and after the last stay in place."""
    lines = text.splitlines(keepends=True)
    starts = [i for i, line in enumerate(lines) if line.startswith("OPERATOR")]
    end = starts[-1] + 1
    while end < len(lines) and lines[end].startswith("EIGENVALUE"):
        end += 1
    blocks = [lines[a:b] for a, b in zip(starts, starts[1:] + [end])]
    assert all(line.startswith("EIGENVALUE") for block in blocks for line in block[1:])
    rng.shuffle(blocks)
    return "".join(lines[:starts[0]] + [line for block in blocks for line in block] + lines[end:])


OPERATOR_ORDER_INPUTS = {
    "cabello18": lambda: bundled_fixture("cabello18.scn").read_text(),
    "peres24": peres24,
    "hardy": hardy,
}


def search_counts(path) -> tuple:
    """The exit code of ``ks-search`` on ``path`` and its three counts."""
    code, out = report("ks-search", path)
    record = dict(line.split(" ", 1) for line in out.splitlines())
    return code, record["objects"], record["arrows"], record["sections"]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", list(OPERATOR_ORDER_INPUTS))
def test_search_counts_do_not_depend_on_operator_order(name, seed, tmp_path):
    text = OPERATOR_ORDER_INPUTS[name]()
    shuffled = shuffled_operators(text, random.Random(seed))
    assert shuffled != text
    assert sorted(shuffled.splitlines()) == sorted(text.splitlines())
    (tmp_path / "given.scn").write_text(text)
    (tmp_path / "shuffled.scn").write_text(shuffled)
    assert search_counts(tmp_path / "shuffled.scn") == search_counts(tmp_path / "given.scn")
