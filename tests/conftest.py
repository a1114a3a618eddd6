import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from sievelogic.exact import (
    QC,
    QC_ONE,
    identity_matrix,
    is_zero_vector,
    mat_add,
    mat_mul,
    vector,
)
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

from golden import PERFBENCH, bench_inputs, bundled_fixture, perfbench_json
from oracles import format_vector, inner, matrix


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


# --- Peres's 24 rays ---------------------------------------------------------

def peres_rays() -> list[tuple[int, ...]]:
    """Peres's 24 rays in dimension 4: e_i, e_i +- e_j and (1, +-1, +-1, +-1)."""
    rays = [tuple(int(k == i) for k in range(4)) for i in range(4)]
    for i, j in itertools.combinations(range(4), 2):
        for s in (1, -1):
            rays.append(tuple(1 if k == i else s if k == j else 0 for k in range(4)))
    rays.extend((1,) + signs for signs in itertools.product((1, -1), repeat=3))
    return rays


def peres_bases() -> list[tuple[int, ...]]:
    """Every four mutually orthogonal Peres rays, as sorted ray indices."""
    rays = peres_rays()

    def orthogonal(a, b):
        return sum(x * y for x, y in zip(rays[a], rays[b])) == 0

    return [
        quad for quad in itertools.combinations(range(len(rays)), 4)
        if all(orthogonal(a, b) for a, b in itertools.combinations(quad, 2))
    ]


def bases_scenario_text(prefix: str, bases) -> str:
    """One operator per basis, named ``prefix`` and its index, with
    eigenvalue k + 1 on its k-th vector, closed under questions."""
    lines = [f"DIM {len(bases[0])}"]
    for b, basis in enumerate(bases):
        lines.append(f"OPERATOR {prefix}{b}")
        for k, v in enumerate(basis):
            lines.append(f"EIGENVALUE {k + 1} : {format_vector(vector(v))}")
    lines.append("CLOSE on")
    return "\n".join(lines) + "\n"


def peres_scenario_text() -> str:
    rays = peres_rays()
    return bases_scenario_text(
        "peres", [[rays[r] for r in quad] for quad in peres_bases()]
    )


@pytest.fixture(scope="session")
def peres24_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("peres") / "peres24.scn"
    path.write_text(peres_scenario_text())
    return path


@pytest.fixture(scope="session")
def peres24(peres24_path):
    return scenario_category(peres24_path.read_text())


# --- Mermin's star and the Kernaghan-Peres set -------------------------------

_PAULI = {
    "I": matrix([[1, 0], [0, 1]]),
    "X": matrix([[0, 1], [1, 0]]),
    "Y": matrix([[0, QC(Fraction(0), Fraction(-1))], [QC(Fraction(0), Fraction(1)), 0]]),
}

# Mermin's star (PRL 65, 3373, 1990): five lines of four commuting
# three-qubit Pauli products, each product on two lines. The products on
# the first line multiply to -I, on the others to +I, and the first three
# products of each line are independent.
MERMIN_LINES = [
    ("XXX", "XYY", "YXY", "YYX"),
    ("XII", "IXI", "IIX", "XXX"),
    ("XII", "IYI", "IIY", "XYY"),
    ("YII", "IXI", "IIY", "YXY"),
    ("YII", "IYI", "IIX", "YYX"),
]


def _pauli_product(word: str):
    m = ((QC_ONE,),)
    for letter in word:
        p = _PAULI[letter]
        m = tuple(
            tuple(x * y for x in row for y in prow) for row in m for prow in p
        )
    return m


def mermin_bases():
    """The eight joint eigenvectors of each line: for each sign pattern,
    the first nonzero column of the product of (I +- O_k) over the line's
    first three products, divided by the gcd of its integer parts, so every
    entry is 0, +-1 or +-i."""
    ident = identity_matrix(8)
    bases = []
    for line in MERMIN_LINES:
        products = [_pauli_product(word) for word in line[:3]]
        basis = []
        for signs in itertools.product((1, -1), repeat=3):
            m = ident
            for sign, o in zip(signs, products):
                m = mat_mul(m, mat_add(ident, tuple(tuple(e * sign for e in row) for row in o)))
            col = next(c for c in zip(*m) if not is_zero_vector(c))
            g = math.gcd(*(int(x) for e in col for x in (e.re, e.im)))
            basis.append(tuple(e / g for e in col))
        bases.append(basis)
    return bases


def kernaghan_peres_bases():
    """Every eight mutually orthogonal rays among the star's 40 (Kernaghan
    and Peres, Phys. Lett. A 198, 1, 1995), in lexicographic ray order."""
    rays = [v for basis in mermin_bases() for v in basis]
    n = len(rays)
    orth = [
        sum(1 << j for j in range(n) if j != i and inner(rays[i], rays[j]).is_zero())
        for i in range(n)
    ]
    found = []

    def grow(chosen, candidates):
        if len(chosen) == 8:
            found.append([rays[i] for i in chosen])
            return
        for j in range(n):
            if candidates >> j & 1:
                grow(chosen + [j], candidates & orth[j] & ~((2 << j) - 1))

    grow([], (1 << n) - 1)
    return found


@pytest.fixture(scope="session")
def mermin_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("mermin") / "mermin_star.scn"
    path.write_text(bases_scenario_text("line", mermin_bases()))
    return path


@pytest.fixture(scope="session")
def kernaghan_peres_text():
    return bases_scenario_text("kp", kernaghan_peres_bases())


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
