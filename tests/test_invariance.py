"""Report bytes do not depend on the basis.

A unitary ``U`` applied to every eigenvector and every state keeps every
projector relation and every Born probability, so each subcommand must
print the same report, exit code included, on the rotated scenario.
``U`` is an exact Cayley unitary, so rotated entries are long Gaussian
rationals where the fixtures have entries in {0, 1, -1}.
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
from oracles import cayley_unitary, dense_mat_mul, dense_mat_vec, format_vector


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
