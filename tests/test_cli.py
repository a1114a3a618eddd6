import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import sievelogic
from sievelogic import cli, exact, fincat, heyting, quantum, scenario
from sievelogic.cli import main
from sievelogic.presheaf import global_section_search
from sievelogic.quantum import dual_presheaf

from conftest import bundled_fixture, peres_bases
from genscen import scenario_text
from oracles import (
    backtrack_section_search,
    count_one_per_basis_colorings,
    dict_table_pairs,
    matrix_born_prob,
)


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def record_dict(output: str) -> dict:
    pairs = {}
    for line in output.splitlines():
        key, _, value = line.partition(" ")
        pairs[key] = value
    return pairs


def human_dict(output: str) -> dict:
    pairs = {}
    for line in output.splitlines():
        if ": " in line:
            key, _, value = line.partition(": ")
            pairs[key] = value
    return pairs


SIGMA_Z = str(bundled_fixture("sigma_z.scn"))
SIGMA_ZX = str(bundled_fixture("sigma_zx.scn"))
CABELLO = str(bundled_fixture("cabello18.scn"))
SIERPINSKI = str(bundled_fixture("sierpinski.top"))
VPOSET_TOP = str(bundled_fixture("vposet.top"))
# The directory that holds the package, for subprocesses.
SRC = str(Path(sievelogic.__file__).resolve().parents[1])


@pytest.fixture
def cabello_queries(tmp_path):
    """Cabello-18 with queries, so that valuate reports sieves and
    probabilities strictly between 0 and 1 too."""
    path = tmp_path / "cabello18_queries.scn"
    path.write_text(
        Path(CABELLO).read_text()
        + "STATE psi (1, 1, 0, 0)\nSTATE phi (1, 2i, 3, -1+2i)\n"
        + "QUERY psi basis1 {1}\nQUERY psi basis1 {1,2}\n"
        + "QUERY phi basis2 {3}\nQUERY phi basis2 {1,2,4}\n"
    )
    return str(path)


# --- validate ----------------------------------------------------------------

def test_validate_bundled_ok():
    code, out = run_cli("validate", SIGMA_Z)
    assert code == 0
    assert "valid: true" in out


def test_validate_rejects_non_orthogonal(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("DIM 2\nOPERATOR b\nEIGENVALUE 1 : (1,0), (1,1)\n")
    code, out = run_cli("validate", str(bad))
    assert code == 1
    assert "InvariantViolation" in out
    assert "NotOrthogonal" in out
    assert "'b'" in out


def test_validate_rejects_incomplete_basis(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("DIM 3\nOPERATOR b\nEIGENVALUE 1 : (1,0,0)\nEIGENVALUE 2 : (0,1,0)\n")
    code, out = run_cli("validate", str(bad))
    assert code == 1
    assert "IncompleteBasis" in out


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("DIM two\n")
    code, out = run_cli("validate", str(bad))
    assert code == 2
    assert "ParseError" in out
    assert "line 1" in out


def test_parse_error_names_the_bad_query_token(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("DIM 2\nOPERATOR z\nEIGENVALUE 1 : (1,0)\nEIGENVALUE -1 : (0,1)\n"
                   "STATE s1 (1,0)\nQUERY s1 z {1, x}\n")
    code, out = run_cli("valuate", str(bad), "--format", "record")
    assert code == 2
    rec = record_dict(out)
    assert rec["error"] == "ParseError"
    assert rec["detail"] == "line 6, column 16: not a rational: 'x'"


def test_repeated_query_eigenvalue_exits_2(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("DIM 2\nOPERATOR z\nEIGENVALUE 1 : (1,0)\nEIGENVALUE -1 : (0,1)\n"
                   "STATE up (1,0)\nQUERY up z {1, 1}\n")
    code, out = run_cli("valuate", str(bad), "--format", "record")
    assert code == 2
    rec = record_dict(out)
    assert rec["error"] == "ParseError"
    assert rec["detail"] == "line 6, column 16: duplicate eigenvalue 1 in QUERY"


def test_colliding_arrow_tokens_are_refused(tmp_path):
    # Equal eigenspaces make arrows both ways between 'a' and 'a->a', and
    # both are named 'a->a->a': the library refuses the category, and a
    # scenario file cannot name such an operator.
    eigendata = [(0, [(1, 0)]), (1, [(0, 1)])]
    ops = [quantum.make_operator(name, 2, eigendata) for name in ("a", "a->a")]
    with pytest.raises(fincat.CategoryError, match="duplicate arrow token 'a->a->a'"):
        quantum.build_operator_category(ops)
    path = tmp_path / "collide.scn"
    path.write_text("DIM 2\nOPERATOR a\nEIGENVALUE 0 : (1,0)\nEIGENVALUE 1 : (0,1)\n"
                    "OPERATOR a->a\nEIGENVALUE 0 : (1,0)\nEIGENVALUE 1 : (0,1)\n")
    code, out = run_cli("category", str(path), "--format", "record")
    assert code == 2
    assert record_dict(out)["detail"] == "line 5, column 10: operator name 'a->a' contains '->'"


@pytest.mark.parametrize("fmt", ["human", "record"])
def test_state_with_two_vectors_is_parse_failure(tmp_path, fmt):
    bad = tmp_path / "two.scn"
    bad.write_text("DIM 2\nOPERATOR z\nEIGENVALUE 1 : (1,0)\nEIGENVALUE -1 : (0,1)\n"
                   "STATE s (1,0) (0,1)\n")
    done = subprocess.run(
        [sys.executable, "-m", "sievelogic.cli", "validate", str(bad), "--format", fmt],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert done.returncode == 2
    assert done.stderr == ""
    pairs = record_dict(done.stdout) if fmt == "record" else human_dict(done.stdout)
    assert pairs["error"] == "ParseError"
    assert "STATE needs exactly one vector" in pairs["detail"]


def test_missing_file_is_parse_failure():
    code, out = run_cli("validate", "no/such/file.scn")
    assert code == 2


def test_path_is_read_as_given(tmp_path):
    # The path is opened as typed: a trailing slash after a file is no
    # directory, and an empty path names no file.
    good = tmp_path / "z.scn"
    good.write_text("DIM 2\nOPERATOR z\nEIGENVALUE 1 : (1,0)\nEIGENVALUE -1 : (0,1)\n")
    code, out = run_cli("validate", f"{good}/", "--format", "record")
    assert code == 2
    assert record_dict(out)["detail"] == f"line 0, column 0: cannot read {good}/: Not a directory"
    code, out = run_cli("validate", "", "--format", "record")
    assert code == 2
    assert record_dict(out)["detail"] == "line 0, column 0: no such file: "


def test_directory_is_parse_failure(tmp_path):
    code, out = run_cli("validate", str(tmp_path), "--format", "record")
    assert code == 2
    rec = record_dict(out)
    assert rec["error"] == "ParseError"
    assert "cannot read" in rec["detail"]


def test_non_utf8_file_is_parse_failure(tmp_path):
    bad = tmp_path / "latin1.scn"
    bad.write_bytes("DIM 2\nOPERATOR \u00e9\n".encode("latin-1"))
    code, out = run_cli("heyting", str(bad), "--format", "record")
    assert code == 2
    rec = record_dict(out)
    assert rec["error"] == "ParseError"
    assert "cannot read" in rec["detail"]
    assert "utf-8" in rec["detail"]


# --- refusals, one case per branch ----------------------------------------------

_Z = "DIM 2\nOPERATOR z\nEIGENVALUE 1 : (1,0)\nEIGENVALUE -1 : (0,1)\n"

REFUSALS = {
    "empty-vector": ("validate", "DIM 2\nOPERATOR z\nEIGENVALUE 1 : ()\n",
                     2, "ParseError", None, "line 3, column 16: empty vector"),
    "state-without-vector": ("validate", _Z + "STATE s\n",
                             2, "ParseError", None,
                             "line 5, column 7: STATE needs a name and a vector"),
    "duplicate-close": ("validate", _Z + "CLOSE on\nCLOSE off\n",
                        2, "ParseError", None, "line 6, column 1: duplicate CLOSE"),
    "empty-query": ("valuate", _Z + "STATE s (1,0)\nQUERY s z {}\n",
                    2, "ParseError", None,
                    "line 6, column 7: QUERY needs at least one eigenvalue"),
    "missing-dim": ("validate", "# only a comment\n",
                    2, "ParseError", None, "line 1, column 1: missing DIM"),
    "duplicate-points": ("heyting", "POINTS a\nPOINTS b\n",
                         2, "ParseError", None, "line 2, column 1: duplicate POINTS"),
    "long-eigenvector": ("validate", _Z.replace("(1,0)", "(1,0,0)"),
                         1, "InvariantViolation", "DimensionMismatch",
                         "operator 'z': eigenvector of 1 has length 3"),
    "zero-eigenvector": ("validate", _Z.replace("(1,0)", "(0,0)"),
                         1, "InvariantViolation", "IncompleteBasis",
                         "operator 'z': zero vector under 1"),
    "zero-state": ("validate", _Z + "STATE s (0, 0)\n",
                   1, "InvariantViolation", "SpectralError",
                   "state 's': state vector must be nonzero"),
    "query-outside-spectrum": ("valuate", _Z + "STATE s (1,0)\nQUERY s z {5/2}\n",
                               1, "InvariantViolation", "NotInSpectrum",
                               "{5/2} not in the spectrum of 'z'"),
    "query-two-outside-spectrum": ("validate", _Z + "STATE s (1,0)\nQUERY s z {7, 1, 5/2}\n",
                                   1, "InvariantViolation", "NotInSpectrum",
                                   "{5/2,7} not in the spectrum of 'z'"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusal_report(tmp_path, case):
    command, text, code, error, law, detail = REFUSALS[case]
    path = tmp_path / "refused.scn"
    path.write_text(text)
    got, out = run_cli(command, str(path), "--format", "record")
    rec = record_dict(out)
    assert got == code
    assert list(rec) == ["command", "scenario", "error", *(["law"] if law else []), "detail"]
    assert (rec["error"], rec.get("law"), rec["detail"]) == (error, law, detail)


def _z_category():
    return quantum.build_operator_category(
        [quantum.make_operator("z", 2, [(1, [(1, 0)]), (-1, [(0, 1)])])]
    )


# Refusals that no scenario or topology file reaches: the library's own.
LIBRARY_REFUSALS = {
    "topology-without-points": (
        lambda: scenario.parse_topology(""),
        scenario.ParseError, "line 1, column 1: missing POINTS"),
    "eigenvalue-without-vectors": (
        lambda: quantum.make_operator("z", 1, [(1, [])]),
        quantum.IncompleteBasis, "operator 'z': eigenvalue 1 has no vectors"),
    "category-without-operators": (
        lambda: quantum.build_operator_category([]),
        quantum.SpectralError, "an operator category needs at least one operator"),
    "nu-state-of-wrong-length": (
        lambda: quantum.nu_state(_z_category(), quantum.make_state((1, 0, 0)), "z", [1]),
        quantum.DimensionMismatch, "state has length 3, operator 'z' has dimension 2"),
    "repeated-object": (
        lambda: fincat.thin_category(["p", "p"], [("p", "p")]),
        fincat.CategoryError, "duplicate object tokens"),
    "identity-of-unknown-object": (
        lambda: fincat.thin_category(["p"], [("p", "p")]).identity("q"),
        fincat.UnknownObject, "no object with token 'q'"),
    "float-as-fraction": (
        lambda: exact.as_fraction(1.5),
        TypeError, "expected int or Fraction, got float"),
}


@pytest.mark.parametrize("case", list(LIBRARY_REFUSALS))
def test_library_refusal(case):
    call, error, detail = LIBRARY_REFUSALS[case]
    with pytest.raises(error) as caught:
        call()
    assert (type(caught.value), str(caught.value)) == (error, detail)


# --- category ----------------------------------------------------------------

def test_category_sigma_z_unclosed():
    code, out = run_cli("category", SIGMA_Z, "--format", "record")
    assert code == 0
    rec = record_dict(out)
    assert rec["objects"] == "1"
    assert rec["arrows"] == "1"
    assert rec["object.0.sieves"] == "2"


def test_category_closed_counts(tmp_path):
    closed = tmp_path / "closed.scn"
    closed.write_text(
        "DIM 2\nOPERATOR sigma_z\nEIGENVALUE 1 : (1,0)\nEIGENVALUE -1 : (0,1)\nCLOSE on\n"
    )
    code, out = run_cli("category", str(closed), "--format", "record")
    rec = record_dict(out)
    assert rec["objects"] == "5"
    assert rec["arrows"] == "19"


def test_category_no_cross_arrows(tmp_path):
    two = tmp_path / "two.scn"
    two.write_text(
        "DIM 2\nOPERATOR z\nEIGENVALUE 1 : (1,0)\nEIGENVALUE -1 : (0,1)\n"
        "OPERATOR x\nEIGENVALUE 1 : (1,1)\nEIGENVALUE -1 : (1,-1)\nCLOSE off\n"
    )
    code, out = run_cli("category", str(two), "--format", "record")
    rec = record_dict(out)
    assert rec["objects"] == "2"
    assert rec["arrows"] == "2"
    assert rec["arrow.0.id"] == "id_x"
    assert rec["arrow.1.id"] == "id_z"


# --- valuate -----------------------------------------------------------------

def test_valuate_bundled_queries():
    code, out = run_cli("valuate", SIGMA_ZX, "--format", "record")
    assert code == 0
    rec = record_dict(out)
    # Query 0: plus on sigma_z at {1} is certain only after total coarse-graining.
    assert rec["query.0.probability"] == "1/2"
    assert rec["query.0.sieve.kind"] == "intermediate"
    assert rec["query.0.sieve.size"] == "2"
    assert rec["query.0.sieve.member.0.arrow"] == "sigma_z->const0"
    assert rec["query.0.sieve.member.1.arrow"] == "sigma_z->const1"
    # Query 1: plus is an eigenstate of sigma_x.
    assert rec["query.1.probability"] == "1"
    assert rec["query.1.sieve.kind"] == "principal"
    # Query 2: eigenstate of sigma_z.
    assert rec["query.2.sieve.kind"] == "principal"
    assert rec["query.2.probability"] == "1"
    # Query 3: the full spectrum is certain for every state.
    assert rec["query.3.delta"] == "{-1,1}"
    assert rec["query.3.sieve.kind"] == "principal"


def test_valuate_eigenstate_unclosed():
    code, out = run_cli("valuate", SIGMA_Z, "--format", "record")
    rec = record_dict(out)
    assert rec["query.0.sieve.kind"] == "principal"
    assert rec["query.0.probability"] == "1"
    assert rec["query.1.sieve.kind"] == "empty"
    assert rec["query.1.probability"] == "1/2"


def test_valuate_requires_queries(tmp_path):
    empty = tmp_path / "noq.scn"
    empty.write_text("DIM 2\nOPERATOR z\nEIGENVALUE 1 : (1,0)\nEIGENVALUE -1 : (0,1)\n")
    code, out = run_cli("valuate", str(empty))
    assert code == 1
    assert "QUERY" in out


# --- ks-search ---------------------------------------------------------------

def test_ks_search_sigma_z():
    code, out = run_cli("ks-search", SIGMA_Z, "--format", "record")
    assert code == 0
    rec = record_dict(out)
    assert rec["sections"] == "2"
    assert rec["section.0.sigma_z"] == "-1"
    assert rec["section.1.sigma_z"] == "1"
    assert "certificate" not in rec


def test_ks_search_guard_exit():
    code, out = run_cli("ks-search", SIGMA_ZX, "--guard", "3")
    assert code == 3
    assert "SizeLimitExceeded" in out
    assert "guard: 3" in out


def test_ks_search_guard_boundary_on_cabello(cabello):
    result = global_section_search(dual_presheaf(cabello))
    nodes = result.nodes
    assert (nodes, result.prunes) == (149, 24)  # the README example
    code, out = run_cli("ks-search", CABELLO, "--guard", str(nodes))
    assert code == 0
    assert f"work.nodes: {nodes}\nwork.prunes: {result.prunes}\n" in out
    code, out = run_cli("ks-search", CABELLO, "--guard", str(nodes - 1))
    assert code == 3
    assert f"guard: {nodes - 1}" in out


def test_ks_search_peres24(peres24_path, peres24):
    bases = peres_bases()
    assert len(bases) == 24
    assert count_one_per_basis_colorings(24, bases) == 0
    code, out = run_cli("ks-search", str(peres24_path), "--format", "record")
    assert code == 0
    rec = record_dict(out)
    assert (rec["objects"], rec["arrows"], rec["sections"]) == ("164", "964", "0")
    assert rec["certificate"] == "KS-obstruction"
    reference = backtrack_section_search(dual_presheaf(peres24))
    assert reference.sections == ()
    assert 10 * int(rec["work.nodes"]) <= reference.nodes


def diagonal_scenario(tmp_path, levels: int, close: bool) -> str:
    lines = [f"DIM {levels}", "OPERATOR diag"]
    for i in range(levels):
        ray = ", ".join("1" if j == i else "0" for j in range(levels))
        lines.append(f"EIGENVALUE {i + 1} : ({ray})")
    lines.append("CLOSE on" if close else "CLOSE off")
    path = tmp_path / f"diag{levels}.scn"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# objects, arrows, sections, work.nodes and work.prunes of each input.
AT_SCALE = {
    "kernaghan_peres": ("5197", "27109", "0", "473", "64"),
    "mermin_star": ("1257", "6289", "0", "2664", "64"),
    "diag12": ("4097", "20477", "12", "49164", "0"),
}


@pytest.mark.parametrize("which", list(AT_SCALE))
def test_ks_search_at_scale(request, tmp_path, which):
    # About a second each with the heap order and the undo trail; 8-12 s
    # for Kernaghan-Peres and the 12-level diagonal with the quadratic
    # order and a copy of every domain per node.
    if which == "kernaghan_peres":
        path = tmp_path / "kp.scn"
        path.write_text(request.getfixturevalue("kernaghan_peres_text"))
    elif which == "mermin_star":
        path = request.getfixturevalue("mermin_path")
    else:
        path = diagonal_scenario(tmp_path, 12, True)
    code, out = run_cli("ks-search", str(path), "--format", "record")
    assert code == 0
    rec = record_dict(out)
    keys = ("objects", "arrows", "sections", "work.nodes", "work.prunes")
    assert tuple(rec[k] for k in keys) == AT_SCALE[which]
    assert ("certificate" in rec) == (rec["sections"] == "0")


def test_category_diag9_one_object_one_arrow(tmp_path):
    code, out = run_cli("category", diagonal_scenario(tmp_path, 9, False), "--format", "record")
    assert code == 0
    rd = record_dict(out)
    assert (rd["objects"], rd["arrows"]) == ("1", "1")
    assert rd["arrow.0.fn"] == ",".join(f"{v}:{v}" for v in range(1, 10))


@pytest.mark.parametrize("close", [False, True])
def test_category_21_levels_exits_3(tmp_path, close):
    # Only question closure grows exponentially with the levels: the
    # unclosed operator is one object, the closed one trips the guard.
    code, out = run_cli("category", diagonal_scenario(tmp_path, 21, close), "--format", "record")
    rd = record_dict(out)
    if not close:
        assert code == 0
        assert (rd["objects"], rd["arrows"]) == ("1", "1")
        return
    assert code == 3
    assert rd["error"] == "SizeLimitExceeded"
    assert rd["detail"].startswith("question closure: ")
    assert rd["detail"].endswith("make 2097150, over the guard of 8192")
    assert rd["guard"] == "8192"


def test_category_closed_diag5_reports_the_sieve_cap(tmp_path):
    # 33 arrows out of the 5-level operator trip the sieve enumeration cap;
    # the guard line names that cap, not the --guard node budget.
    code, out = run_cli("category", diagonal_scenario(tmp_path, 5, True))
    assert code == 3
    rd = human_dict(out)
    assert rd["detail"] == "object 'diag' has 33 outgoing arrows; sieve enumeration is capped at 20"
    assert rd["guard"] == "20"


def fan_scenario(tmp_path) -> str:
    """A 6-level diagonal operator D and 11 distinct yes/no coarse-grainings
    of it, unclosed: 12 arrows out of D, 2^11 + 1 sieves on it."""
    def ray(i):
        return "(" + ", ".join("1" if j == i else "0" for j in range(6)) + ")"
    lines = ["DIM 6", "OPERATOR D"]
    lines += [f"EIGENVALUE {i + 1} : {ray(i)}" for i in range(6)]
    blocks = [{i} for i in range(6)] + [{0, j} for j in range(1, 6)]
    for k, block in enumerate(blocks):
        lines.append(f"OPERATOR Q{k}")
        lines.append("EIGENVALUE 0 : " + ", ".join(ray(i) for i in range(6) if i not in block))
        lines.append("EIGENVALUE 1 : " + ", ".join(ray(i) for i in sorted(block)))
    path = tmp_path / "fan11.scn"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_heyting_table_guard_exits_3(tmp_path):
    path = fan_scenario(tmp_path)
    code, out = run_cli("category", path, "--format", "record")
    assert code == 0
    assert record_dict(out)["object.0.sieves"] == "2049"
    code, out = run_cli("heyting", path, "--format", "record")
    assert code == 3
    rd = record_dict(out)
    assert rd["error"] == "SizeLimitExceeded"
    assert rd["detail"] == (
        "heyting table: object 'D' has 2049 elements, so 4198401 table cells, "
        "over the guard of 1048576"
    )
    assert rd["guard"] == "1048576"


def test_heyting_table_guard_names_no_sieve(tmp_path, monkeypatch):
    path = fan_scenario(tmp_path)
    expected = run_cli("heyting", path)
    assert expected[0] == 3

    def refuse(*args):
        raise AssertionError("a sieve was named before the table guard")

    monkeypatch.setattr(heyting, "Sieve", refuse)
    assert run_cli("heyting", path) == expected


def chain_topology(tmp_path, n, first=0):
    """A file of n points whose opens are the first k points, for k from
    ``first`` to n: a topology for first=0, none without the empty set."""
    points = [f"p{i}" for i in range(n)]
    lines = ["POINTS " + " ".join(points)]
    lines.extend("OPEN " + " ".join(points[:k]) for k in range(first, n + 1))
    path = tmp_path / f"chain{n}.top"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_heyting_table_guard_exits_3_on_a_chain_topology(tmp_path):
    # 1,025 nested opens trip the table guard, 1,050,625 cells, before any
    # topology law is checked.
    code, out = run_cli("heyting", chain_topology(tmp_path, 1024), "--format", "record")
    assert code == 3
    rd = record_dict(out)
    assert rd["error"] == "SizeLimitExceeded"
    assert rd["detail"] == (
        "heyting table: topology on 1024 points has 1025 elements, so 1050625 "
        "table cells, over the guard of 1048576"
    )
    assert rd["guard"] == "1048576"


def test_heyting_table_guard_comes_before_the_topology_laws(tmp_path, monkeypatch):
    def refuse(points, opens):
        raise AssertionError("topology laws checked past a tripped table guard")

    path = chain_topology(tmp_path, 1024)
    monkeypatch.setattr(heyting, "_open_masks", refuse)
    assert run_cli("heyting", path, "--format", "record") == (3, (
        f"command heyting\nscenario {path}\nerror SizeLimitExceeded\n"
        "detail heyting table: topology on 1024 points has 1025 elements, so 1050625 "
        "table cells, over the guard of 1048576\nguard 1048576\n"
    ))


def test_heyting_non_topology_over_the_table_guard_exits_3(tmp_path):
    # 1,025 opens without the empty set: the guard trips before the laws.
    code, out = run_cli("heyting", chain_topology(tmp_path, 1025, first=1), "--format", "record")
    assert code == 3
    assert record_dict(out)["detail"] == (
        "heyting table: topology on 1025 points has 1025 elements, so 1050625 "
        "table cells, over the guard of 1048576"
    )


@pytest.mark.parametrize("guard", ["0", "-5", "x"])
def test_guard_below_one_rejected_at_parsing(guard, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("ks-search", SIGMA_Z, "--guard", guard)
    assert exc.value.code == 2
    assert "--guard" in capsys.readouterr().err


@pytest.mark.parametrize("guard", ["\u0663", "\uff13\uff10", "3\u0663"])
def test_guard_takes_ascii_digits_only(guard, capsys):
    # U+0663 (Arabic-Indic three) and U+FF13 U+FF10 (fullwidth 30) are
    # decimal to str.isdecimal, but an integer is a run of ASCII digits.
    with pytest.raises(SystemExit) as exc:
        run_cli("ks-search", SIGMA_Z, "--guard", guard)
    assert exc.value.code == 2
    assert f"--guard: must be an integer >= 1, got {guard!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "category", "valuate", "heyting"])
def test_guard_only_on_ks_search(command, capsys):
    path = SIERPINSKI if command == "heyting" else SIGMA_Z
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--guard", "5", path)
    assert exc.value.code == 2
    assert "error: unrecognized arguments: --guard" in capsys.readouterr().err


# --- heyting -----------------------------------------------------------------

def test_heyting_sierpinski_flags():
    code, out = run_cli("heyting", SIERPINSKI, "--format", "record")
    assert code == 0
    rec = record_dict(out)
    assert rec["topology.excluded_middle_violations"] == "1"
    assert rec["topology.excluded_middle_violation.0"] == "{a}"


def test_heyting_discrete_no_flags(tmp_path):
    disc = tmp_path / "disc.top"
    disc.write_text("POINTS a b\nOPEN\nOPEN a\nOPEN b\nOPEN a b\n")
    code, out = run_cli("heyting", str(disc), "--format", "record")
    rec = record_dict(out)
    assert rec["topology.excluded_middle_violations"] == "0"


def test_heyting_vposet_topology():
    code, out = run_cli("heyting", VPOSET_TOP, "--format", "record")
    rec = record_dict(out)
    assert rec["topology.elements"] == "5"
    assert rec["topology.excluded_middle_violation.0"] == "{q}"


def test_heyting_scenario_v_shape(tmp_path):
    # A fine context with two incomparable coarse-grainings: the sieve
    # algebra at the fine context is the five-element V algebra and the
    # single-coarsening sieves violate excluded middle.
    scn = tmp_path / "v.scn"
    scn.write_text(
        "DIM 3\n"
        "OPERATOR A\nEIGENVALUE 1 : (1,0,0)\nEIGENVALUE 2 : (0,1,0)\nEIGENVALUE 3 : (0,0,1)\n"
        "OPERATOR B\nEIGENVALUE 5 : (1,0,0), (0,1,0)\nEIGENVALUE 6 : (0,0,1)\n"
        "OPERATOR C\nEIGENVALUE 7 : (1,0,0)\nEIGENVALUE 8 : (0,1,0), (0,0,1)\n"
        "CLOSE off\n"
    )
    code, out = run_cli("heyting", str(scn), "--format", "record")
    assert code == 0
    rec = record_dict(out)
    assert rec["object.A.elements"] == "5"
    violations = {
        v for k, v in rec.items()
        if k.startswith("object.A.excluded_middle_violation.")
    }
    assert "{A->B}" in violations
    assert "{A->C}" in violations


def test_heyting_member_sets_print_apart(tmp_path):
    # Point names hold no ',', '{' or '}', so '{a,b}' names one set only:
    # the open {a,b} of three points, never the one point 'a,b'.
    comma = tmp_path / "comma.top"
    comma.write_text("POINTS a,b c\nOPEN\nOPEN a,b\nOPEN a,b c\n")
    code, out = run_cli("heyting", str(comma), "--format", "record")
    assert code == 2
    assert record_dict(out)["detail"] == "line 1, column 8: point name 'a,b' contains ','"
    three = tmp_path / "three.top"
    three.write_text("POINTS a b c\nOPEN\nOPEN a b\nOPEN a b c\n")
    code, out = run_cli("heyting", str(three), "--format", "record")
    assert code == 0
    assert record_dict(out)["topology.element.1"] == "{a,b}"


def test_heyting_open_first_file_is_read_as_a_topology(tmp_path):
    path = tmp_path / "open_first.top"
    path.write_text("OPEN a\nPOINTS a\n")
    code, out = run_cli("heyting", str(path), "--format", "record")
    assert code == 2
    assert record_dict(out)["detail"] == "line 1, column 1: POINTS must precede OPEN"


def test_heyting_invalid_topology_exit(tmp_path):
    bad = tmp_path / "bad.top"
    bad.write_text("POINTS a b c\nOPEN\nOPEN a\nOPEN b\nOPEN a b c\n")
    code, out = run_cli("heyting", str(bad))
    assert code == 1
    assert "NotATopology" in out


# --- shared report behaviour --------------------------------------------------

@pytest.mark.parametrize("command,path", [
    ("validate", SIGMA_Z),
    ("category", SIGMA_ZX),
    ("valuate", SIGMA_ZX),
    ("ks-search", SIGMA_ZX),
    ("heyting", SIERPINSKI),
])
def test_reports_deterministic(command, path):
    code1, out1 = run_cli(command, path)
    code2, out2 = run_cli(command, path)
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3 = run_cli(command, path, "--format", "record")
    code4, out4 = run_cli(command, path, "--format", "record")
    assert out3 == out4


@pytest.mark.parametrize("command,path", [
    ("validate", SIGMA_Z),
    ("category", SIGMA_ZX),
    ("valuate", SIGMA_ZX),
    ("ks-search", SIGMA_ZX),
    ("heyting", SIERPINSKI),
])
def test_record_and_human_agree(command, path):
    _, human = run_cli(command, path)
    _, record = run_cli(command, path, "--format", "record")
    hd = human_dict(human)
    rd = record_dict(record)
    assert hd == rd


def test_human_certificate_note(tmp_path):
    code, out = run_cli("ks-search", CABELLO)
    assert code == 0
    assert "sections: 0" in out
    assert "KS obstruction certified" in out


_HASHSEED_SCRIPT = """
import json, sys
from sievelogic.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    sys.stdout.write(f"exit {code}\\n")
"""


def _reports_under_hashseed(seed: int, argvs: list[list[str]]) -> str:
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _HASHSEED_SCRIPT, json.dumps(argvs)],
        env=env, capture_output=True, check=True,
    )
    return done.stdout.decode("utf-8")


def test_reports_identical_across_hash_seeds(tmp_path, heyting_bench_inputs):
    # A closed four-level context: its largest sieve algebra has 130 elements.
    contexts1 = tmp_path / "contexts1_0.scn"
    contexts1.write_text(next(
        text for seed, name, text in heyting_bench_inputs
        if (seed, name) == (1, "contexts1_0.scn")
    ))
    argvs = [
        [command, path, "--format", fmt]
        for command, path in [
            ("category", SIGMA_Z), ("category", SIGMA_ZX), ("category", CABELLO),
            ("ks-search", SIGMA_Z), ("ks-search", SIGMA_ZX), ("ks-search", CABELLO),
            ("valuate", SIGMA_Z), ("valuate", SIGMA_ZX),
            ("heyting", SIGMA_Z), ("heyting", SIGMA_ZX),
            ("heyting", SIERPINSKI), ("heyting", VPOSET_TOP),
            ("heyting", str(contexts1)),
        ]
        for fmt in ("human", "record")
    ]
    outputs = [_reports_under_hashseed(seed, argvs) for seed in (0, 1, 2)]
    assert outputs[0].count("exit 0\n") == len(argvs)
    assert "elements: 130\n" in outputs[0] and "elements 130\n" in outputs[0]
    # Every ks-search report, in both formats, ends its work counters with
    # work.prunes right after work.nodes.
    lines = outputs[0].splitlines()
    for sep in (": ", " "):
        at = [i for i, line in enumerate(lines) if line.startswith(f"work.prunes{sep}")]
        assert len(at) == 3
        assert all(lines[i - 1].startswith(f"work.nodes{sep}") for i in at)
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_valuate_probabilities_identical_across_hash_seeds(cabello_queries):
    # Every printed probability is the projector-matrix Rayleigh quotient,
    # and the reports do not depend on the hash seed.
    paths = [SIGMA_ZX, SIGMA_Z, cabello_queries]
    argvs = [["valuate", path, "--format", "record"] for path in paths]
    outputs = [_reports_under_hashseed(seed, argvs) for seed in (0, 3)]
    assert outputs[1] == outputs[0]
    reports = outputs[0].split("exit 0\n")
    assert len(reports) == len(paths) + 1 and reports[-1] == ""
    checked = 0
    for path, report in zip(paths, reports):
        rec = record_dict(report)
        scn = scenario.parse_scenario(Path(path).read_text())
        ops = {op.name: op for op in scenario.scenario_operators(scn)}
        states = scenario.scenario_states(scn)
        assert sum(key.endswith(".probability") for key in rec) == len(scn.queries)
        for i, q in enumerate(scn.queries):
            prob = matrix_born_prob(states[q.state], ops[q.operator], q.delta)
            assert rec[f"query.{i}.probability"] == scenario.format_rational(prob)
            checked += 1
    assert checked == 4 + 2 + 4


# --- heyting reports against the dict-view rendering --------------------------

def assert_heyting_matches_reference(monkeypatch, path):
    """``heyting`` stdout in both formats equals the report whose table
    fields are read cell by cell through the pair-keyed views."""
    with monkeypatch.context() as m:
        m.setattr(cli, "_table_pairs", dict_table_pairs)
        pairs, notes = cli._cmd_heyting(path, None)
    for fmt in ("human", "record"):
        assert run_cli("heyting", path, "--format", fmt) == (0, cli._render(pairs, fmt, notes))


@pytest.mark.parametrize(
    "name", ["sigma_z.scn", "sigma_zx.scn", "cabello18.scn", "sierpinski.top", "vposet.top"]
)
def test_heyting_report_matches_reference_on_fixtures(monkeypatch, name):
    assert_heyting_matches_reference(monkeypatch, str(bundled_fixture(name)))


def test_heyting_report_matches_reference_on_generated(monkeypatch, tmp_path, generated_scenarios):
    for g in generated_scenarios:
        path = tmp_path / f"generated{g.seed}.scn"
        path.write_text(scenario_text(g))
        assert_heyting_matches_reference(monkeypatch, str(path))


def test_heyting_report_matches_reference_on_bench_inputs(
    monkeypatch, tmp_path, heyting_bench_inputs
):
    assert len(heyting_bench_inputs) == 12
    for seed, name, text in heyting_bench_inputs:
        path = tmp_path / f"{seed}_{name}"
        path.write_text(text)
        assert_heyting_matches_reference(monkeypatch, str(path))


@pytest.mark.parametrize("path", [CABELLO, VPOSET_TOP])
def test_heyting_report_reads_no_pair_view(monkeypatch, path):
    def refuse(table):
        raise AssertionError("a pair-keyed view was built")

    for view in ("leq", "meet", "join", "implies", "neg"):
        monkeypatch.setattr(heyting.HeytingAlgebraTable, view, property(refuse))
    code, _ = run_cli("heyting", path)
    assert code == 0


# --- operators built once, projectors only where read ------------------------

@pytest.mark.parametrize("command", ["validate", "category", "valuate", "ks-search", "heyting"])
def test_each_operator_built_once_per_report(monkeypatch, command):
    built = []
    original = scenario.make_operator

    def counting(name, dim, eigendata):
        built.append(name)
        return original(name, dim, eigendata)

    monkeypatch.setattr(scenario, "make_operator", counting)
    run_cli(command, CABELLO)
    names = [decl.name for decl in scenario.parse_scenario(Path(CABELLO).read_text()).operators]
    assert built == names


def test_each_state_built_once_per_valuate_report(monkeypatch, cabello_queries):
    built = []
    original = scenario.make_state

    def counting(vec):
        built.append(vec)
        return original(vec)

    monkeypatch.setattr(scenario, "make_state", counting)
    assert run_cli("valuate", cabello_queries)[0] == 0
    states = scenario.parse_scenario(Path(cabello_queries).read_text()).states
    assert built == list(states.values())


@pytest.mark.parametrize("command", ["validate", "category", "valuate", "ks-search", "heyting"])
def test_reports_compute_no_projector(monkeypatch, cabello_queries, command):
    def refuse(op):
        raise AssertionError(f"projectors of {op.name!r} computed")

    expected = run_cli(command, cabello_queries)
    monkeypatch.setattr(quantum.SpectralOperator, "projectors", property(refuse))
    assert run_cli(command, cabello_queries) == expected
    assert expected[0] == 0


@pytest.mark.parametrize("command", ["validate", "category", "valuate", "ks-search", "heyting"])
def test_reports_build_no_composition_table(monkeypatch, cabello_queries, command):
    # Reports compose through compose_ids; the derived table is for
    # library callers only.
    def refuse(cat):
        raise AssertionError("a composition table was built")

    expected = run_cli(command, cabello_queries)
    monkeypatch.setattr(fincat.FinCategory, "composition", property(refuse))
    assert run_cli(command, cabello_queries) == expected
    assert expected[0] == 0


@pytest.mark.parametrize("command", ["category", "valuate"])
def test_reports_build_no_eigenvalue_dict(monkeypatch, cabello_queries, command):
    # Arrow functions are printed from the level maps, not from
    # arrow_function's per-arrow eigenvalue dicts.
    def refuse(self, arrow_id):
        raise AssertionError(f"eigenvalue dict of {arrow_id!r} built")

    expected = run_cli(command, cabello_queries)
    monkeypatch.setattr(quantum.OperatorCategory, "arrow_function", refuse)
    assert run_cli(command, cabello_queries) == expected
    assert expected[0] == 0


def test_mermin_star_has_no_section(mermin_path):
    code, out = run_cli("ks-search", str(mermin_path), "--format", "record")
    assert code == 0
    rec = record_dict(out)
    assert (rec["objects"], rec["arrows"], rec["sections"]) == ("1257", "6289", "0")
    assert rec["certificate"] == "KS-obstruction"


# --- process start-up and exit ------------------------------------------------

COLD_MODULES = ("sievelogic.spectral", "sievelogic.topos")


def test_import_loads_no_dataclasses_inspect_pathlib_or_cold_module():
    # Every report is one process, and importing dataclasses (which pulls
    # in inspect, ast, dis and tokenize) would cost each one about 17 ms,
    # pathlib about 5 ms, heapq (which only the search reads) about 0.5 ms,
    # and the library-only modules their compile time.
    # -S keeps site's own imports out of sys.modules.
    unwanted = {"dataclasses", "heapq", "inspect", "pathlib", *COLD_MODULES}
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys, sievelogic.cli; print(sorted({unwanted!r} & set(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, check=True,
    )
    assert done.stdout == "[]\n"


def test_reports_load_no_cold_module(exit_path_inputs, cabello_queries):
    # One report of each kind in a fresh interpreter, through cli.main.
    reports = [
        ["category", SIGMA_Z], ["valuate", cabello_queries], ["ks-search", SIGMA_Z],
        ["heyting", exit_path_inputs["contexts2"]], ["heyting", VPOSET_TOP],
    ]
    script = (
        "import io, sys, contextlib, sievelogic.cli as cli\n"
        f"for argv in {reports!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        f"print(sorted({set(COLD_MODULES)!r} & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, check=True,
    )
    assert done.stdout == "[]\n"


@pytest.fixture
def exit_path_inputs(tmp_path, heyting_bench_inputs):
    """Inputs for one report of each exit path; two contexts make a heyting
    report of about 0.4 MB, far beyond any stream buffer."""
    contexts2 = tmp_path / "contexts2_2.scn"
    contexts2.write_text(next(
        text for seed, name, text in heyting_bench_inputs
        if (seed, name) == (1, "contexts2_2.scn")
    ))
    no_query = tmp_path / "noq.scn"
    no_query.write_text("DIM 2\nOPERATOR z\nEIGENVALUE 1 : (1,0)\nEIGENVALUE -1 : (0,1)\n")
    return {"contexts2": str(contexts2), "no_query": str(no_query),
            "missing": str(tmp_path / "missing.scn")}


@pytest.mark.parametrize("argv, code", [
    (["validate", SIGMA_Z], 0),
    (["heyting", "contexts2"], 0),
    (["valuate", "no_query"], 1),
    (["validate", "missing"], 2),
    (["ks-search", SIGMA_ZX, "--guard", "1"], 3),
    (["validate", SIGMA_Z, "--no-such-flag"], 2),
], ids=["small", "large", "invalid", "missing", "guard", "bad-flag"])
def test_process_exit_matches_main(exit_path_inputs, argv, code):
    # The process ends with os._exit once the report is flushed; with
    # PYTHONUNBUFFERED unset, stdout is block-buffered into the pipe, so a
    # lost flush would show here as a missing or truncated report.
    argv = [exit_path_inputs.get(arg, arg) for arg in argv]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "sievelogic.cli", *argv], env=env, capture_output=True,
    )
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            expected = main(argv)
        except SystemExit as exc:  # argparse rejects the flag
            expected = exc.code
    assert (done.returncode, expected) == (code, code)
    assert done.stdout == out.getvalue().encode("utf-8")
    assert done.stderr == err.getvalue().encode("utf-8")
    if argv[0] == "heyting":
        assert len(done.stdout) > 400_000
