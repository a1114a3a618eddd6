from fractions import Fraction as F

import pytest

from sievelogic.exact import QC
from sievelogic.heyting import NotATopology, open_set_heyting
from sievelogic.quantum import NotInSpectrum, NotOrthogonal
from sievelogic.scenario import (
    ParseError,
    UnknownName,
    build_scenario_category,
    format_rational,
    looks_like_topology,
    parse_complex,
    parse_rational,
    parse_scenario,
    parse_topology,
    parse_vector,
    scenario_operators,
    scenario_states,
    validate_scenario,
)

from conftest import bundled_fixture
from families import format_complex, format_vector, scenario_text


# --- number grammar ----------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("1", F(1)),
    ("-1", F(-1)),
    ("3/4", F(3, 4)),
    ("-12/8", F(-3, 2)),
    ("−2", F(-2)),  # U+2212 minus sign
    ("0", F(0)),
])
def test_parse_rational(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize("text", ["1.5", "one", "1/0", "--1", "1/-2", ""])
def test_parse_rational_rejects(text):
    with pytest.raises(ValueError):
        parse_rational(text)


@pytest.mark.parametrize("text,re_part,im_part", [
    ("1", F(1), F(0)),
    ("-2/3", F(-2, 3), F(0)),
    ("i", F(0), F(1)),
    ("-i", F(0), F(-1)),
    ("2/3i", F(0), F(2, 3)),
    ("-2i", F(0), F(-2)),
    ("1+2i", F(1), F(2)),
    ("1/2-3/4i", F(1, 2), F(-3, 4)),
    ("-1+1i", F(-1), F(1)),
    ("−1−2i", F(-1), F(-2)),
])
def test_parse_complex(text, re_part, im_part):
    assert parse_complex(text) == QC(re_part, im_part)


@pytest.mark.parametrize("text", ["1+i", "i+1", "1+2j", "2i+1", "1 + 2i"])
def test_parse_complex_rejects(text):
    with pytest.raises(ValueError):
        parse_complex(text)


def test_parse_vector():
    assert parse_vector("(1, 0, 1+1i)") == (
        QC(F(1), F(0)), QC(F(0), F(0)), QC(F(1), F(1))
    )


def test_vector_needs_parens():
    with pytest.raises(ValueError):
        parse_vector("1, 0")


@pytest.mark.parametrize("value", [
    QC(F(1), F(0)), QC(F(0), F(1)), QC(F(0), F(-1)), QC(F(2, 3), F(0)),
    QC(F(0), F(-5, 7)), QC(F(1), F(1)), QC(F(-1, 2), F(-3, 4)), QC(F(0), F(0)),
])
def test_complex_round_trip(value):
    assert parse_complex(format_complex(value)) == value


def test_rational_round_trip():
    for value in (F(0), F(-7, 3), F(22), F(1, 999)):
        assert parse_rational(format_rational(value)) == value


def test_vector_round_trip():
    v = (QC(F(1), F(-2)), QC(F(0), F(1)), QC(F(-1, 3), F(0)))
    assert parse_vector(format_vector(v)) == v


# --- scenario files ----------------------------------------------------------

GOOD = """
# comment
DIM 2
OPERATOR z
EIGENVALUE 1 : (1, 0)
EIGENVALUE -1 : (0, 1)
STATE plus (1, 1)
CLOSE on
QUERY plus z {1, -1}
"""


def test_parse_scenario_good():
    scn = parse_scenario(GOOD)
    assert scn.dimension == 2
    assert [op.name for op in scn.operators] == ["z"]
    assert scn.operators[0].eigendata[0] == (F(1), [(QC(F(1), F(0)), QC(F(0), F(0)))])
    assert list(scn.states) == ["plus"]
    assert scn.close_under_questions
    assert scn.queries[0].delta == (F(1), F(-1))
    validate_scenario(scn, scenario_operators(scn))


def test_scenario_text_writes_states_close_and_queries_in_order():
    operators = [("z", [(1, [(1, 0)]), (-1, [(0, 1)])])]
    text = scenario_text(2, operators, True, [("plus", (1, 1))], [("plus", "z", (1, -1))])
    assert "\n" + text == GOOD.replace("\n# comment", "")


def test_degenerate_eigenvalue_vectors():
    scn = parse_scenario(
        "DIM 3\nOPERATOR a\nEIGENVALUE 0 : (1,0,0), (0,1,0)\nEIGENVALUE 1 : (0,0,1)\n"
    )
    assert len(scn.operators[0].eigendata[0][1]) == 2
    validate_scenario(scn, scenario_operators(scn))


@pytest.mark.parametrize("text,fragment", [
    ("OPERATOR z\n", "DIM"),
    ("DIM 0\n", "positive"),
    ("DIM 2\nDIM 2\n", "duplicate DIM"),
    ("DIM 2\nEIGENVALUE 1 : (1,0)\n", "outside"),
    ("DIM 2\nOPERATOR z\nEIGENVALUE 1 (1,0)\n", "vectors"),
    ("DIM 2\nOPERATOR z\nEIGENVALUE x : (1,0)\n", "rational"),
    ("DIM 2\nOPERATOR z\nOPERATOR z\n", "duplicate operator"),
    ("DIM 2\nOPERATOR z\nEIGENVALUE 1 : (1,0)\nEIGENVALUE 1 : (0,1)\n", "duplicate eigenvalue"),
    ("DIM 2\nFOO bar\n", "unknown keyword"),
    ("DIM 2\nOPERATOR z\nEIGENVALUE 1 : (1,0)\nQUERY a z 1\n", "QUERY"),
    ("DIM 2\nOPERATOR z\nEIGENVALUE 1 : (1,0)\nQUERY a z {1, 2/2}\n",
     "duplicate eigenvalue 1 in QUERY"),
    ("DIM 2\n", "no operators"),
    ("DIM 2\nOPERATOR z\nSTATE s (1,0)\nSTATE s (0,1)\n", "duplicate state"),
    ("DIM 2\nOPERATOR z\nSTATE s (1,0) (0,1)\n", "exactly one vector"),
    ("DIM 2\nOPERATOR z\nSTATE s (1,0), (0,1), (1,1)\n", "exactly one vector"),
])
def test_parse_scenario_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_scenario(text)


def test_parse_error_carries_position():
    try:
        parse_scenario("DIM 2\nOPERATOR z\nEIGENVALUE q : (1,0)\n")
    except ParseError as exc:
        assert exc.line == 3
        assert exc.column >= 1
    else:
        pytest.fail("expected ParseError")


@pytest.mark.parametrize("text,detail", [
    ("DIM 2\nOPERATOR z\nEIGENVALUE E : (1,0)\n", "line 3, column 12: not a rational: 'E'"),
    (
        "DIM 2\nOPERATOR z\nEIGENVALUE 1 : (1,0)\nEIGENVALUE -1 : (0,1)\n"
        "STATE s1 (1,0)\nQUERY s1 z {1, x}\n",
        "line 6, column 16: not a rational: 'x'",
    ),
    # The column is counted in the line as written: indentation and wider
    # blanks move it, and a tab is one column.
    ("DIM 2\nOPERATOR z\n    EIGENVALUE x : (0,1)\n", "line 3, column 16: not a rational: 'x'"),
    ("DIM    0\n", "line 1, column 8: dimension must be positive"),
    ("DIM 2\nOPERATOR  z  y\n", "line 2, column 11: OPERATOR needs a single name"),
    ("  DIM 2\n\tDIM 2\n", "line 2, column 2: duplicate DIM"),
    ("DIM 2\nOPERATOR z\n CLOSE maybe\n", "line 3, column 8: CLOSE must be 'on' or 'off'"),
    ("DIM 2\nOPERATOR z\n  STATE  s  (1,0) (0,1)\n",
     "line 3, column 13: STATE needs exactly one vector"),
    ("DIM 2\nOPERATOR z\nEIGENVALUE 1 : (1,0)\nSTATE\ts\t(1,0)\nQUERY\ts\tz\t{1,\tx}\n",
     "line 5, column 15: not a rational: 'x'"),
    # A missing field is one past the line's end.
    ("DIM\n", "line 1, column 4: bad dimension ''"),
    # A tab separates; it is never part of a name.
    ("DIM 2\nOPERATOR a\tb\n", "line 2, column 10: OPERATOR needs a single name"),
    # Integers are runs of ASCII digits.
    ("DIM 1_0\n", "line 1, column 5: bad dimension '1_0'"),
    ("DIM +2\n", "line 1, column 5: bad dimension '+2'"),
    ("DIM 2\nOPERATOR z\nEIGENVALUE \u0663 : (1,0)\n", "line 3, column 12: not a rational: '\u0663'"),
    ("DIM 2\nOPERATOR z\nEIGENVALUE 1 : (\u0663,0)\n",
     "line 3, column 16: not a complex entry: '\u0663'"),
    # Arrow tokens are 'p->q', so no operator name holds '->'.
    ("DIM 2\nOPERATOR b->c\n", "line 2, column 10: operator name 'b->c' contains '->'"),
    # Sets print as '{a,b}', so no operator or point name holds ',', '{' or '}'.
    ("DIM 2\nOPERATOR b,c\n", "line 2, column 10: operator name 'b,c' contains ','"),
    ("DIM 2\nOPERATOR {b\n", "line 2, column 10: operator name '{b' contains '{'"),
    ("DIM 2\n OPERATOR b}\n", "line 2, column 11: operator name 'b}' contains '}'"),
    ("POINTS a,b c\nOPEN\nOPEN a,b\nOPEN a,b c\n",
     "line 1, column 8: point name 'a,b' contains ','"),
    ("POINTS a\t{b\n", "line 1, column 10: point name '{b' contains '{'"),
    ("  POINTS a  b  c}\n", "line 1, column 16: point name 'c}' contains '}'"),
])
def test_parse_error_column_is_the_token(text, detail):
    with pytest.raises(ParseError) as exc:
        (parse_topology if looks_like_topology(text) else parse_scenario)(text)
    assert str(exc.value) == detail


def test_tabs_and_runs_of_blanks_separate_like_one_space():
    tabbed = ("\tDIM\t2\n  OPERATOR\t z\nEIGENVALUE\t1\t:\t(1,\t0)\nEIGENVALUE  -1 : (0, 1)  \n"
              "STATE\tplus\t(1, 1)\nCLOSE \ton\nQUERY\tplus\tz\t{1,\t-1}\t\n")
    assert parse_scenario(tabbed) == parse_scenario(GOOD)


def test_validate_scenario_unknown_state():
    scn = parse_scenario(
        "DIM 2\nOPERATOR z\nEIGENVALUE 1 : (1,0)\nEIGENVALUE -1 : (0,1)\n"
        "QUERY ghost z {1}\n"
    )
    with pytest.raises(UnknownName, match="ghost"):
        validate_scenario(scn, scenario_operators(scn))


def test_validate_scenario_unknown_operator():
    scn = parse_scenario(
        "DIM 2\nOPERATOR z\nEIGENVALUE 1 : (1,0)\nEIGENVALUE -1 : (0,1)\n"
        "STATE s (1,0)\nQUERY s ghost {1}\n"
    )
    with pytest.raises(UnknownName, match="ghost"):
        validate_scenario(scn, scenario_operators(scn))


def test_validate_scenario_delta_outside_spectrum():
    scn = parse_scenario(
        "DIM 2\nOPERATOR z\nEIGENVALUE 1 : (1,0)\nEIGENVALUE -1 : (0,1)\n"
        "STATE s (1,0)\nQUERY s z {5}\n"
    )
    with pytest.raises(NotInSpectrum):
        validate_scenario(scn, scenario_operators(scn))


def test_validate_scenario_not_orthogonal():
    scn = parse_scenario(
        "DIM 2\nOPERATOR bad\nEIGENVALUE 1 : (1,0), (1,1)\n"
    )
    with pytest.raises(NotOrthogonal):
        validate_scenario(scn, scenario_operators(scn))


def test_validate_scenario_wrong_state_length():
    scn = parse_scenario(
        "DIM 2\nOPERATOR z\nEIGENVALUE 1 : (1,0)\nEIGENVALUE -1 : (0,1)\n"
        "STATE s (1,0,0)\n"
    )
    with pytest.raises(Exception, match="length"):
        scenario_states(scn)


# --- topology files ----------------------------------------------------------

def test_parse_topology():
    top = parse_topology("POINTS a b\nOPEN\nOPEN a\nOPEN a b\n")
    assert top.points == frozenset({"a", "b"})
    assert frozenset({"a"}) in top.opens


def test_parse_topology_not_closed():
    # Parsing reads the syntax only; the laws are checked with the table.
    top = parse_topology("POINTS a b c\nOPEN\nOPEN a\nOPEN b\nOPEN a b c\n")
    assert top.opens == {frozenset(), frozenset("a"), frozenset("b"), frozenset("abc")}
    with pytest.raises(NotATopology) as exc:
        open_set_heyting(top)
    assert str(exc.value) == "not closed under union: ['a'] | ['b']"


def test_parse_topology_requires_points_first():
    with pytest.raises(ParseError, match="POINTS"):
        parse_topology("OPEN a\n")


def test_parse_topology_reads_lines_as_written():
    assert parse_topology("POINTS\ta  b\n OPEN\nOPEN\ta\nOPEN a\tb\n") == parse_topology(
        "POINTS a b\nOPEN\nOPEN a\nOPEN a b\n"
    )
    for text, detail in [
        ("  POINTS  a a\n", "line 1, column 11: duplicate point names"),
        ("POINTS a\n\t\tPLACE a\n", "line 2, column 3: unknown keyword 'PLACE'"),
    ]:
        with pytest.raises(ParseError) as exc:
            parse_topology(text)
        assert str(exc.value) == detail


def test_looks_like_topology():
    assert looks_like_topology("# note\nPOINTS a\nOPEN\nOPEN a\n")
    # A file that opens with OPEN is a topology file in the wrong order.
    assert looks_like_topology("OPEN a\nPOINTS a\n")
    assert not looks_like_topology(GOOD)
    assert not looks_like_topology("# only a comment\n")


# --- bundled fixtures --------------------------------------------------------

def test_bundled_scenarios_valid():
    for name in ("sigma_z.scn", "sigma_zx.scn", "cabello18.scn"):
        scn = parse_scenario(bundled_fixture(name).read_text())
        validate_scenario(scn, scenario_operators(scn))


def test_bundled_topologies_valid():
    for name in ("sierpinski.top", "vposet.top"):
        open_set_heyting(parse_topology(bundled_fixture(name).read_text()))


def test_bundled_sigma_z_category():
    scn = parse_scenario(bundled_fixture("sigma_z.scn").read_text())
    ocat = build_scenario_category(scn, scenario_operators(scn))
    assert len(ocat.base.objects) == 1
    assert len(ocat.base.arrows) == 1


def test_cabello_fixture_shape():
    scn = parse_scenario(bundled_fixture("cabello18.scn").read_text())
    assert scn.dimension == 4
    assert len(scn.operators) == 9
    rays = set()
    for op in scn.operators:
        assert len(op.eigendata) == 4
        for _, vecs in op.eigendata:
            (v,) = vecs
            assert all(e.im == 0 and e.re in (F(-1), F(0), F(1)) for e in v)
            rays.add(tuple(e.re for e in v))
    assert len(rays) == 18
    assert scn.close_under_questions


def test_missing_bundled_fixture():
    with pytest.raises(FileNotFoundError):
        bundled_fixture("nope.scn")
