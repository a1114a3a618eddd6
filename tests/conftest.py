import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from sievelogic.fincat import Arrow, build_category, poset_to_category
from sievelogic.quantum import (
    build_operator_category,
    function_of,
    make_operator,
)
from sievelogic.scenario import (
    build_scenario_category,
    parse_scenario,
    scenario_operators,
)

import families
from golden import bench_inputs, bundled_fixture


@pytest.fixture(scope="session")
def heyting_bench_inputs():
    return bench_inputs("heyting-tables")


@pytest.fixture(scope="session")
def valuate_bench_inputs():
    return bench_inputs("valuate-queries")


# --- plain categories -------------------------------------------------------

@pytest.fixture(scope="session")
def one_object():
    return build_category(
        ["A"], [Arrow("id_A", "A", "A")], {"A": "id_A"}, {}
    )


@pytest.fixture(scope="session")
def two_free():
    # Two objects with a single free arrow between them.
    arrows = [Arrow("id_A", "A", "A"), Arrow("id_B", "B", "B"), Arrow("f", "A", "B")]
    table = {("id_B", "f"): "f", ("f", "id_A"): "f"}
    return build_category(["A", "B"], arrows, {"A": "id_A", "B": "id_B"}, table)


@pytest.fixture(scope="session")
def chain2():
    return poset_to_category(["p", "q"], [("p", "q")])


@pytest.fixture(scope="session")
def chain3():
    return poset_to_category(["p", "q", "r"], [("p", "q"), ("q", "r"), ("p", "r")])


@pytest.fixture(scope="session")
def antichain2():
    return poset_to_category(["p", "q"], [])


@pytest.fixture(scope="session")
def vposet():
    return poset_to_category(["p", "q", "r"], [("p", "q"), ("p", "r")])


@pytest.fixture(scope="session")
def diamond():
    return poset_to_category(
        ["p", "q", "r", "s"],
        [("p", "q"), ("p", "r"), ("q", "s"), ("r", "s"), ("p", "s")],
    )


def idempotent_fork():
    """A non-thin category: an idempotent e on A and two parallel arrows
    f, g: A -> B with f e = g e = f."""
    arrows = [Arrow("id_A", "A", "A"), Arrow("id_B", "B", "B"), Arrow("e", "A", "A"),
              Arrow("f", "A", "B"), Arrow("g", "A", "B")]
    table = {("e", "e"): "e", ("f", "e"): "f", ("g", "e"): "f"}
    return build_category(["A", "B"], arrows, {"A": "id_A", "B": "id_B"}, table)


POSET_FIXTURES = ["chain2", "chain3", "antichain2", "vposet", "diamond"]

PLAIN_CATEGORY_FIXTURES = ["one_object", "two_free"] + POSET_FIXTURES


# --- spectral operators and their categories --------------------------------

@pytest.fixture(scope="session")
def sigma_z():
    return make_operator("sigma_z", 2, [(1, [(1, 0)]), (-1, [(0, 1)])])


@pytest.fixture(scope="session")
def sigma_x():
    return make_operator("sigma_x", 2, [(1, [(1, 1)]), (-1, [(1, -1)])])


@pytest.fixture(scope="session")
def sz_unclosed(sigma_z):
    return build_operator_category([sigma_z])


@pytest.fixture(scope="session")
def sz_closed(sigma_z):
    return build_operator_category([sigma_z], close_under_questions=True)


@pytest.fixture(scope="session")
def zx_unclosed(sigma_z, sigma_x):
    return build_operator_category([sigma_z, sigma_x])


@pytest.fixture(scope="session")
def zx_closed(sigma_z, sigma_x):
    return build_operator_category([sigma_z, sigma_x], close_under_questions=True)


@pytest.fixture(scope="session")
def vshape3():
    # One fine-grained context with two incomparable coarse-grainings:
    # the base category is the V poset.
    a = make_operator("A", 3, [(1, [(1, 0, 0)]), (2, [(0, 1, 0)]), (3, [(0, 0, 1)])])
    b = function_of(a, {Fraction(1): 5, Fraction(2): 5, Fraction(3): 6}, name="B")
    c = function_of(a, {Fraction(1): 7, Fraction(2): 8, Fraction(3): 8}, name="C")
    return build_operator_category([a, b, c])


@pytest.fixture(scope="session")
def colorable3():
    # Two dimension-3 bases sharing one ray; closed under questions this is
    # small enough to count colorings by hand.
    b1 = make_operator(
        "b1", 3, [(1, [(1, 0, 0)]), (2, [(0, 1, 0)]), (3, [(0, 0, 1)])]
    )
    b2 = make_operator(
        "b2", 3, [(1, [(1, 0, 0)]), (2, [(0, 1, 1)]), (3, [(0, 1, -1)])]
    )
    return build_operator_category([b1, b2], close_under_questions=True)


OPERATOR_CATEGORY_FIXTURES = [
    "sz_unclosed", "sz_closed", "zx_unclosed", "zx_closed", "vshape3", "colorable3",
]

ALL_CATEGORY_FIXTURES = PLAIN_CATEGORY_FIXTURES + OPERATOR_CATEGORY_FIXTURES


def scenario_category(text: str):
    scn = parse_scenario(text)
    return build_scenario_category(scn, scenario_operators(scn))


def bundled_category(name: str):
    return scenario_category(bundled_fixture(name).read_text())


@pytest.fixture(scope="session")
def cabello():
    return bundled_category("cabello18.scn")


# --- Kochen-Specker sets ------------------------------------------------------

@pytest.fixture(scope="session")
def peres24_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("peres") / "peres24.scn"
    path.write_text(families.peres24())
    return path


@pytest.fixture(scope="session")
def peres24(peres24_path):
    return scenario_category(peres24_path.read_text())


@pytest.fixture(scope="session")
def mermin_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("mermin") / "mermin_star.scn"
    path.write_text(families.mermin_star())
    return path


@pytest.fixture(scope="session")
def kernaghan_peres_text():
    return families.kernaghan_peres()


@pytest.fixture(scope="session")
def bundled_categories(cabello):
    """The categories of every bundled scenario fixture."""
    return [bundled_category("sigma_z.scn"), bundled_category("sigma_zx.scn"), cabello]


@pytest.fixture(scope="session")
def generated_scenarios():
    from genscen import random_closed_scenario

    return [random_closed_scenario(seed) for seed in range(50)]


@pytest.fixture(scope="session")
def generated_categories(generated_scenarios):
    return [g.category for g in generated_scenarios]


# Every thin operator category the suite builds: the small fixtures, the
# Cabello-18 scenario and the seeded generated scenarios.
THIN_OPERATOR_FIXTURES = OPERATOR_CATEGORY_FIXTURES + ["cabello", "generated_categories"]


@pytest.fixture
def operator_categories(request):
    """Indirection fixture: the operator categories of a fixture, as a list."""
    value = request.getfixturevalue(request.param)
    return value if isinstance(value, list) else [value]


@pytest.fixture
def fixture_category(request):
    """Indirection fixture: resolves a category fixture by name."""
    value = request.getfixturevalue(request.param)
    return getattr(value, "base", value)


@pytest.fixture
def operator_category(request):
    return request.getfixturevalue(request.param)


# --- diagonal operators ------------------------------------------------------

def diagonal_operator(name, values):
    """The diagonal operator with one level per value, in dimension len(values)."""
    n = len(values)
    return make_operator(
        name, n, [(v, [tuple(int(i == j) for j in range(n))]) for i, v in enumerate(values)]
    )


def category_shape(ocat):
    """Object names, arrows and their level images, in build order."""
    return (
        list(ocat.base.objects),
        [(a.id, a.dom, a.cod, ocat.images[a.id]) for a in ocat.base.arrows.values()],
        [op.spectrum for op in ocat.operators.values()],
    )
