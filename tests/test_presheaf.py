import math

import pytest
from hypothesis import given, settings, strategies as st

from sievelogic import topos
from sievelogic.errors import SizeLimitExceeded
from sievelogic.heyting import Sieve, is_sieve, principal_sieve
from sievelogic.fincat import Arrow, Check, build_category, poset_to_category
from sievelogic.presheaf import (
    Check as PresheafCheck,
    ComponentDomainMismatch,
    NaturalTransformation,
    NotASubobject,
    NotNatural,
    Presheaf,
    Subobject,
    characteristic_arrow,
    check_global_section,
    element_key,
    enumerate_natural_transformations,
    enumerate_subobjects,
    global_section_search,
    global_sections,
    is_natural,
    make_presheaf,
    omega_presheaf,
    subobject_from_arrow,
    subobject_from_family,
    terminal_presheaf,
    validate_presheaf,
    validate_subobject,
)
from sievelogic.presheaf import _constraints, _forward_check, _search_order
from sievelogic.quantum import coarse_graining_presheaf, dual_presheaf

from conftest import (
    ALL_CATEGORY_FIXTURES,
    PLAIN_CATEGORY_FIXTURES,
    idempotent_fork,
    scenario_category,
)
from oracles import (
    backtrack_section_search,
    brute_force_sections,
    copy_forward_check,
    max_search_order,
    product_natural_transformations,
    product_subobjects,
)


def two_point_fiber(chain2):
    # X(p) = {a, b}, X(q) = {c}, both mapped to c.
    return make_presheaf(
        chain2,
        {"p": ["a", "b"], "q": ["c"]},
        {
            "id_p": {"a": "a", "b": "b"},
            "id_q": {"c": "c"},
            "p->q": {"a": "c", "b": "c"},
        },
    )


def arrow_fixture(chain2):
    # X(p) = {x}, X(q) = {y}, x mapped to y.
    return make_presheaf(
        chain2,
        {"p": ["x"], "q": ["y"]},
        {"id_p": {"x": "x"}, "id_q": {"y": "y"}, "p->q": {"x": "y"}},
    )


# --- functor validation ------------------------------------------------------

def test_validate_terminal(chain3):
    assert validate_presheaf(terminal_presheaf(chain3))


@pytest.mark.parametrize("fixture_category", ALL_CATEGORY_FIXTURES, indirect=True)
def test_validate_omega(fixture_category):
    check = validate_presheaf(omega_presheaf(fixture_category))
    assert check.ok, check.witness


def test_validate_reports_composition_witness(chain3):
    # p->r disagrees with q->r after p->q.
    x = make_presheaf(
        chain3,
        {"p": [0, 1], "q": [0, 1], "r": [0, 1]},
        {
            "id_p": {0: 0, 1: 1}, "id_q": {0: 0, 1: 1}, "id_r": {0: 0, 1: 1},
            "p->q": {0: 0, 1: 1}, "q->r": {0: 0, 1: 1}, "p->r": {0: 1, 1: 0},
        },
    )
    check = validate_presheaf(x)
    assert not check.ok
    assert "p->" in check.witness


def test_validate_reports_identity_witness(chain2):
    x = make_presheaf(
        chain2,
        {"p": [0, 1], "q": [0]},
        {"id_p": {0: 1, 1: 0}, "id_q": {0: 0}, "p->q": {0: 0, 1: 0}},
    )
    check = validate_presheaf(x)
    assert not check.ok and "identity" in check.witness


# --- terminal object ---------------------------------------------------------

def test_terminal_single_section(chain3):
    assert len(global_sections(terminal_presheaf(chain3))) == 1


def test_terminal_sizes(chain3):
    t = terminal_presheaf(chain3)
    assert all(len(t.at(obj)) == 1 for obj in chain3.objects)


@pytest.mark.parametrize(
    "fixture_category",
    ["one_object", "chain2", "chain3", "vposet", "antichain2"],
    indirect=True,
)
def test_unique_map_to_terminal(fixture_category):
    cat = fixture_category
    t = terminal_presheaf(cat)
    om = omega_presheaf(cat)
    for x in (t, om):
        assert len(enumerate_natural_transformations(x, t)) == 1


# --- the classifier ----------------------------------------------------------

def test_omega_sizes_chain(chain3):
    om = omega_presheaf(chain3)
    assert {obj: len(om.at(obj)) for obj in chain3.objects} == {"p": 4, "q": 3, "r": 2}


def test_omega_one_object(one_object):
    assert len(omega_presheaf(one_object).at("A")) == 2


def test_omega_vposet(vposet):
    assert len(omega_presheaf(vposet).at("p")) == 5


def test_identity_transformation_natural(chain3):
    om = omega_presheaf(chain3)
    nt = NaturalTransformation(
        om, om, {obj: {e: e for e in om.at(obj)} for obj in chain3.objects}
    )
    assert is_natural(nt)


def test_constant_to_terminal_natural(chain2):
    x = two_point_fiber(chain2)
    t = terminal_presheaf(chain2)
    nt = NaturalTransformation(
        x, t, {obj: {e: "*" for e in x.at(obj)} for obj in chain2.objects}
    )
    assert is_natural(nt)


def test_permuted_component_not_natural(chain2):
    om = omega_presheaf(chain2)
    # Swap two sieves at q; the unique failing square is p->q.
    sieves_q = sorted(om.at("q"), key=element_key)
    swap = {sieves_q[0]: sieves_q[1], sieves_q[1]: sieves_q[0]}
    if len(sieves_q) > 2:
        swap.update({sv: sv for sv in sieves_q[2:]})
    comps = {
        "p": {e: e for e in om.at("p")},
        "q": swap,
    }
    check = is_natural(NaturalTransformation(om, om, comps))
    assert not check.ok
    assert check.witness == "p->q"


def test_component_domain_mismatch(chain2):
    om = omega_presheaf(chain2)
    with pytest.raises(ComponentDomainMismatch):
        is_natural(NaturalTransformation(om, om, {"p": {}, "q": {}}))


def test_characteristic_full_and_empty(chain3):
    x = terminal_presheaf(chain3)
    om = omega_presheaf(chain3)
    full = subobject_from_family(x, {obj: x.at(obj) for obj in chain3.objects})
    chi = characteristic_arrow(full, om)
    assert all(
        chi.components[obj]["*"] == principal_sieve(chain3, obj)
        for obj in chain3.objects
    )
    empty = subobject_from_family(x, {})
    chi0 = characteristic_arrow(empty, om)
    assert all(not chi0.components[obj]["*"].members for obj in chain3.objects)


def test_characteristic_chain_example(chain2):
    x = arrow_fixture(chain2)
    k = subobject_from_family(x, {"q": ["y"]})
    chi = characteristic_arrow(k)
    assert chi.components["p"]["x"] == Sieve("p", frozenset({"p->q"}))
    assert chi.components["q"]["y"] == principal_sieve(chain2, "q")
    assert is_natural(chi)
    back = subobject_from_arrow(chi)
    assert back.sub.object_sets == k.sub.object_sets


def test_validate_subobject_returns_check(chain2):
    assert PresheafCheck is Check
    x = arrow_fixture(chain2)
    assert validate_subobject(subobject_from_family(x, {"q": ["y"]})) == Check(True)
    # x lies in the family but its image y does not: not closed under p->q.
    open_family = Presheaf(
        chain2, {"p": frozenset({"x"}), "q": frozenset()}, {"id_p": {"x": "x"}}
    )
    check = validate_subobject(Subobject(open_family, x))
    assert isinstance(check, Check) and not check
    assert check.witness == "not closed under 'p->q' at 'x'"
    with pytest.raises(NotASubobject, match="not closed under 'p->q'"):
        subobject_from_family(x, {"p": ["x"]})


@pytest.mark.parametrize(
    "fixture_category", ["chain2", "chain3", "vposet", "antichain2"], indirect=True
)
def test_characteristic_values_are_sieves(fixture_category):
    cat = fixture_category
    om = omega_presheaf(cat)
    for sub in enumerate_subobjects(om):
        chi = characteristic_arrow(sub, om)
        for obj, comp in chi.components.items():
            for sv in comp.values():
                assert is_sieve(cat, obj, sv.members)


def test_subobject_from_arrow_principal_recovers_all(chain2):
    x = two_point_fiber(chain2)
    om = omega_presheaf(chain2)
    chi = NaturalTransformation(
        x, om,
        {obj: {e: principal_sieve(chain2, obj) for e in x.at(obj)}
         for obj in chain2.objects},
    )
    k = subobject_from_arrow(chi)
    assert k.sub.object_sets == x.object_sets


def test_subobject_from_arrow_empty_sieve_gives_empty(chain2):
    from sievelogic.heyting import empty_sieve

    x = two_point_fiber(chain2)
    om = omega_presheaf(chain2)
    chi = NaturalTransformation(
        x, om,
        {obj: {e: empty_sieve(obj) for e in x.at(obj)} for obj in chain2.objects},
    )
    k = subobject_from_arrow(chi)
    assert all(not k.sub.object_sets[obj] for obj in chain2.objects)


def test_subobject_from_arrow_rejects_non_natural(chain2):
    om = omega_presheaf(chain2)
    sieves_q = sorted(om.at("q"), key=element_key)
    swap = {sieves_q[0]: sieves_q[1], sieves_q[1]: sieves_q[0]}
    comps = {"p": {e: e for e in om.at("p")}, "q": swap}
    with pytest.raises(NotNatural):
        subobject_from_arrow(NaturalTransformation(om, om, comps))


# --- subobject enumeration ---------------------------------------------------

def test_subobjects_terminal_one_object(one_object):
    assert len(enumerate_subobjects(terminal_presheaf(one_object))) == 2


def test_subobjects_terminal_chain2(chain2):
    subs = enumerate_subobjects(terminal_presheaf(chain2))
    families = {
        (frozenset(s.sub.object_sets["p"]), frozenset(s.sub.object_sets["q"]))
        for s in subs
    }
    star = frozenset({"*"})
    none = frozenset()
    assert families == {(none, none), (none, star), (star, star)}


def test_subobjects_omega_one_object(one_object):
    assert len(enumerate_subobjects(omega_presheaf(one_object))) == 4


def test_subobjects_guard():
    big = poset_presheaf_guard_case()
    with pytest.raises(SizeLimitExceeded) as exc:
        enumerate_subobjects(big)
    assert exc.value.limit == 1 << 20


def poset_presheaf_guard_case():
    from sievelogic.fincat import poset_to_category

    cat = poset_to_category(["p"], [])
    return make_presheaf(
        cat,
        {"p": list(range(21))},
        {"id_p": {i: i for i in range(21)}},
    )


# --- global sections ---------------------------------------------------------

def assert_search_matches_backtracking(x):
    """Same sections in the same order as plain backtracking, after no more
    values tried; returns both results."""
    got, ref = global_section_search(x), backtrack_section_search(x)
    assert got.sections == ref.sections
    assert got.order == ref.order
    assert got.nodes <= ref.nodes
    assert got.prunes <= got.nodes
    return got, ref


def test_sections_two_point_fiber(chain2):
    x = two_point_fiber(chain2)
    secs = global_sections(x)
    assert len(secs) == 2
    assert all(check_global_section(x, gs) for gs in secs)


def test_sections_empty_object(chain2):
    x = make_presheaf(
        chain2,
        {"p": [], "q": ["c"]},
        {"id_p": {}, "id_q": {"c": "c"}, "p->q": {}},
    )
    assert global_sections(x) == []


@pytest.mark.parametrize("fixture_category", ALL_CATEGORY_FIXTURES, indirect=True)
def test_sections_match_brute_force(fixture_category):
    cat = fixture_category
    for x in (terminal_presheaf(cat), omega_presheaf(cat)):
        got, _ = assert_search_matches_backtracking(x)
        bound = 1
        for obj in cat.objects:
            bound *= max(len(x.object_sets[obj]), 1)
        if bound > 1 << 20:
            continue
        expected = brute_force_sections(x)
        assert len(got.sections) == len(expected)
        assert all(gs.choice in expected for gs in got.sections)


def test_sections_deterministic(vposet):
    om = omega_presheaf(vposet)
    first = global_section_search(om)
    second = global_section_search(om)
    assert first == second


def test_section_search_node_budget(chain3):
    with pytest.raises(SizeLimitExceeded) as exc:
        global_section_search(omega_presheaf(chain3), node_budget=2)
    assert exc.value.limit == 2


def test_transformation_enumeration_guard(chain3):
    om = omega_presheaf(chain3)
    with pytest.raises(SizeLimitExceeded, match="over the 2\\^1 guard") as exc:
        enumerate_natural_transformations(om, om, max_log2=1)
    assert exc.value.limit == 2


# --- the propagating search against plain backtracking ------------------------
# test_sections_match_brute_force also runs it on every category fixture.

@pytest.mark.parametrize("operator_categories",
                         ["bundled_categories", "generated_categories"], indirect=True)
def test_search_matches_backtracking_on_dual_presheaves(operator_categories):
    for ocat in operator_categories:
        assert_search_matches_backtracking(dual_presheaf(ocat))


def test_search_cuts_cabello_nodes_tenfold(cabello):
    got, ref = assert_search_matches_backtracking(dual_presheaf(cabello))
    assert not got.sections
    assert 10 * got.nodes <= ref.nodes


def fork_presheaf(b_elements):
    """On the idempotent fork: e fixes 0 and 2 only, f and g send 2
    outside B's set, and they agree on 0 alone."""
    return make_presheaf(
        idempotent_fork(),
        {"A": [0, 1, 2], "B": b_elements},
        {
            "id_A": {0: 0, 1: 1, 2: 2},
            "id_B": {b: b for b in b_elements},
            "e": {0: 0, 1: 0, 2: 2},
            "f": {0: "b0", 1: "b0", 2: "outside"},
            "g": {0: "b0", 1: "b1", 2: "outside"},
        },
    )


def test_search_on_endo_parallel_and_outside_values():
    got, ref = assert_search_matches_backtracking(fork_presheaf(["b0", "b1"]))
    assert [gs.choice for gs in got.sections] == [{"A": 0, "B": "b0"}]
    # A tries only e's fixed points 0 and 2, B is forced to b0 after 0,
    # and 2 empties B's domain at once. Backtracking tries A = 0, 1, 2
    # and both values of B after 0 and after 2.
    assert (got.nodes, got.prunes, ref.nodes) == (3, 1, 7)


def test_search_on_an_empty_element_set():
    got, ref = assert_search_matches_backtracking(fork_presheaf([]))
    assert got.sections == ()
    assert (got.nodes, got.prunes) == (0, 0)


def test_search_propagates_one_value_domains_before_the_first_choice(chain2):
    # q has one element, so p is narrowed to its preimage before p, the
    # first object of the order, tries anything.
    x = make_presheaf(
        chain2,
        {"p": [0, 1], "q": ["c"]},
        {"id_p": {0: 0, 1: 1}, "id_q": {"c": "c"}, "p->q": {0: "c", 1: "outside"}},
    )
    got, ref = assert_search_matches_backtracking(x)
    assert [gs.choice for gs in got.sections] == [{"p": 0, "q": "c"}]
    assert (got.nodes, got.prunes, ref.nodes) == (2, 0, 4)


def test_search_depth_is_not_bounded_by_recursion():
    # One depth per object: 1,200 objects run past Python's default
    # recursion limit of 1,000.
    cat = poset_to_category([f"x{i}" for i in range(1200)], [])
    got = global_section_search(terminal_presheaf(cat))
    assert len(got.sections) == 1
    assert (got.nodes, got.prunes) == (1200, 0)


@st.composite
def function_categories(draw, max_objects=5):
    """A random finite category: objects are sets of one to three points
    and arrows the composition closure of random functions between them.
    Generators with equal ends give endo-arrows, and distinct functions
    with the same ends give parallel arrows. Arrows are
    ``(dom, cod, images)`` triples."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=max_objects))
    n = len(sizes)

    def functions(ends):
        i, j = ends
        images = st.tuples(*[st.integers(0, sizes[j] - 1)] * sizes[i])
        return images.map(lambda t: (i, j, t))

    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    fns = {(i, i, tuple(range(sizes[i]))) for i in range(n)}
    fns |= set(draw(st.lists(ends.flatmap(functions), min_size=2, max_size=6)))
    while True:
        composites = {
            (f[0], g[1], tuple(g[2][v] for v in f[2]))
            for f in fns for g in fns if f[1] == g[0]
        }
        if composites <= fns:
            break
        fns |= composites
    objs = [f"o{i}" for i in range(n)]
    name = {f: f"{objs[f[0]]}>{objs[f[1]]}:{''.join(map(str, f[2]))}" for f in fns}
    table = {
        (name[g], name[f]): name[(f[0], g[1], tuple(g[2][v] for v in f[2]))]
        for f in fns for g in fns if f[1] == g[0]
    }
    cat = build_category(
        objs,
        [Arrow(name[f], objs[f[0]], objs[f[1]]) for f in sorted(fns)],
        {objs[i]: name[(i, i, tuple(range(sizes[i])))] for i in range(n)},
        table,
    )
    return cat, {name[f]: f for f in fns}, sizes


@st.composite
def search_presheaves(draw):
    """On a random function category: the functor sending each object to
    its points, and random maps on random element sets (one of them
    sometimes empty) whose values may fall outside their codomain set."""
    cat, fns, sizes = draw(function_categories())
    objs = cat.objects
    points = make_presheaf(
        cat,
        {obj: range(size) for obj, size in zip(objs, sizes)},
        {aid: dict(enumerate(f[2])) for aid, f in fns.items()},
    )
    empty = draw(st.sampled_from((None, None, None) + objs))
    sets = {obj: range(0 if obj == empty else draw(st.integers(2, 4))) for obj in objs}
    maps = {}
    for aid, a in cat.arrows.items():
        if cat.is_identity(aid):
            maps[aid] = {v: v for v in sets[a.dom]}
        else:
            # The value len(sets[a.cod]) lies outside the codomain set.
            values = st.integers(0, len(sets[a.cod]))
            maps[aid] = {v: draw(values) for v in sets[a.dom]}
    return points, make_presheaf(cat, sets, maps)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(search_presheaves())
def test_search_matches_backtracking_on_random_categories(presheaves):
    for x in presheaves:
        got, _ = assert_search_matches_backtracking(x)
        assert all(check_global_section(x, gs) for gs in got.sections)


# --- the heap order and the undo trail against their references ---------------

@pytest.mark.parametrize("fixture_category", ALL_CATEGORY_FIXTURES, indirect=True)
def test_search_order_matches_max_reference_on_fixtures(fixture_category):
    assert _search_order(fixture_category) == max_search_order(fixture_category)


def test_search_order_matches_max_reference_on_scenarios(
    bundled_categories, peres24, generated_categories
):
    for ocat in [*bundled_categories, peres24, *generated_categories]:
        assert _search_order(ocat.base) == max_search_order(ocat.base)


def test_search_order_matches_max_reference_at_scale(mermin_path, kernaghan_peres_text):
    # 1,257 and 5,197 objects: the reference takes about 0.5 and 10 s.
    for text in (mermin_path.read_text(), kernaghan_peres_text):
        base = scenario_category(text).base
        assert _search_order(base) == max_search_order(base)


@st.composite
def shuffled_posets(draw):
    """A random poset on up to 14 points whose names sort in a random
    order, so placed neighbours, out-degree and token all decide ties."""
    n = draw(st.integers(1, 14))
    names = draw(st.permutations([f"p{i:02d}" for i in range(n)]))
    up = [1 << i for i in range(n)]
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3 * n)):
        up[min(i, j)] |= 1 << max(i, j)
    for i in reversed(range(n)):  # transitive closure, upper points first
        for j in range(i + 1, n):
            if up[i] >> j & 1:
                up[i] |= up[j]
    return poset_to_category(
        names, [(names[i], names[j]) for i in range(n) for j in range(n) if up[i] >> j & 1]
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(shuffled_posets(), function_categories().map(lambda drawn: drawn[0])))
def test_search_order_matches_max_reference_on_random_categories(cat):
    assert _search_order(cat) == max_search_order(cat)


@st.composite
def constraint_systems(draw):
    """Widths and arcs for ``_constraints``: functional arcs (each row one
    value, or none), relational arcs (any rows) and self-arcs. An empty
    domain ends the search at once, so one in ten systems has one."""
    widths = draw(st.lists(st.integers(1, 4), min_size=2, max_size=8))
    if draw(st.integers(0, 9)) == 0:
        widths[draw(st.integers(0, len(widths) - 1))] = 0
    n = len(widths)
    arcs = []
    for _ in range(draw(st.integers(0, 14))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.one_of(st.just(i), st.integers(0, n - 1)))
        if draw(st.booleans()):
            row = st.integers(-1, widths[j] - 1).map(lambda k: 1 << k if k >= 0 else 0)
        else:
            row = st.integers(0, (1 << widths[j]) - 1)
        arcs.append((i, j, draw(st.lists(row, min_size=widths[i], max_size=widths[i]))))
    return widths, arcs


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(constraint_systems(), st.integers(0, 40))
def test_trail_engine_matches_copy_engine(system, budget):
    initial, links = _constraints(*system)
    got = _forward_check(list(initial), links, math.inf)
    assert got == copy_forward_check(list(initial), links, math.inf)
    # The budget raises at the same node: after exactly ``nodes`` values.
    nodes = got[1]
    assert _forward_check(list(initial), links, nodes) == got
    if nodes:
        with pytest.raises(SizeLimitExceeded):
            _forward_check(list(initial), links, nodes - 1)
    assert outcome(_forward_check, list(initial), links, budget) == outcome(
        copy_forward_check, list(initial), links, budget
    )


# --- enumerations against the product-filter references ----------------------

def outcome(enumerate, *args):
    """What an enumeration returns, or the message and limit of its guard."""
    try:
        return enumerate(*args)
    except SizeLimitExceeded as exc:
        return str(exc), exc.limit


def assert_enumerations_match_references(presheaves):
    """Subobjects of each presheaf and transformations between each ordered
    pair equal the references list for list, in order, or trip the same
    guard; transformations from the terminal presheaf (first) pick the
    global sections. Returns how many enumerations ran under their guard."""
    ran = 0
    t = presheaves[0]
    for x in presheaves:
        subs = outcome(enumerate_subobjects, x)
        assert subs == outcome(product_subobjects, x)
        ran += isinstance(subs, list)
        for y in presheaves:
            nts = outcome(enumerate_natural_transformations, x, y)
            assert nts == outcome(product_natural_transformations, x, y)
            ran += isinstance(nts, list)
        points = outcome(enumerate_natural_transformations, t, x)
        if isinstance(points, list):
            objs = x.cat.objects
            assert {tuple(nt.components[obj]["*"] for obj in objs) for nt in points} == {
                tuple(gs.choice[obj] for obj in objs) for gs in global_sections(x)
            }
    return ran


@pytest.mark.parametrize("name", PLAIN_CATEGORY_FIXTURES + ["idempotent_fork"])
def test_enumerations_match_references_on_plain_categories(request, name):
    cat = idempotent_fork() if name == "idempotent_fork" else request.getfixturevalue(name)
    assert assert_enumerations_match_references(
        [terminal_presheaf(cat), omega_presheaf(cat)]
    ) >= 4


@pytest.mark.parametrize("name", PLAIN_CATEGORY_FIXTURES)
def test_subobject_enumeration_needs_no_validation(request, monkeypatch, name):
    # The engine's "in forces in" rows make every solution closed, so the
    # enumeration never checks a family; checking afterwards finds none open.
    cat = request.getfixturevalue(name)

    def forbidden(*args):
        raise AssertionError("enumerate_subobjects validated a family")

    monkeypatch.setattr(topos, "validate_subobject", forbidden)
    monkeypatch.setattr(topos, "subobject_from_family", forbidden)
    found = [enumerate_subobjects(x) for x in (terminal_presheaf(cat), omega_presheaf(cat))]
    monkeypatch.undo()
    assert len(found[0]) >= 2 and len(found[1]) >= 2
    assert all(validate_subobject(s) for subs in found for s in subs)


@pytest.mark.parametrize(
    "operator_category", ["sz_unclosed", "sz_closed", "zx_unclosed", "zx_closed"],
    indirect=True,
)
def test_enumerations_match_references_on_operator_presheaves(operator_category):
    ocat = operator_category
    assert assert_enumerations_match_references([
        terminal_presheaf(ocat.base), dual_presheaf(ocat), coarse_graining_presheaf(ocat),
    ]) >= 4


def test_enumerations_trip_the_same_guards(chain3):
    om = omega_presheaf(chain3)
    for limit in (1, 5):
        assert outcome(enumerate_subobjects, om, limit) == outcome(
            product_subobjects, om, limit
        ) == (f"subobject enumeration over 2^9 families exceeds the 2^{limit} guard",
              2 ** limit)
        got = outcome(enumerate_natural_transformations, om, om, limit)
        assert got == outcome(product_natural_transformations, om, om, limit)
        assert got[1] == 2 ** limit


def test_enumeration_orders():
    # Subobjects in bit-mask order per object, the first object most
    # significant; transformations lexicographic by component.
    cat = poset_to_category(["p", "q"], [("p", "q")])
    x = make_presheaf(
        cat, {"p": [0, 1], "q": [0]},
        {"id_p": {0: 0, 1: 1}, "id_q": {0: 0}, "p->q": {0: 0, 1: 0}},
    )
    assert [
        (sorted(s.sub.at("p")), sorted(s.sub.at("q"))) for s in enumerate_subobjects(x)
    ] == [([], []), ([], [0]), ([0], [0]), ([1], [0]), ([0, 1], [0])]
    assert [
        (nt.components["p"][0], nt.components["p"][1], nt.components["q"][0])
        for nt in enumerate_natural_transformations(x, x)
    ] == [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)]


def test_section_order_on_tuples_and_other_elements():
    # element_key orders by kind, numbers before the repr of anything it
    # has no kind for, then strings, then tuples by their entries' keys;
    # the sections of one object come in that order.
    cat = poset_to_category(["p"], [])
    elements = [(1, "a"), "s", 2.5, (0, "b"), None, 3]
    x = make_presheaf(cat, {"p": elements}, {"id_p": {e: e for e in elements}})
    got = [gs.choice["p"] for gs in global_section_search(x).sections]
    assert got == [3, 2.5, None, "s", (0, "b"), (1, "a")]


def test_enumerations_with_an_empty_target_set(chain2):
    x = two_point_fiber(chain2)
    y = make_presheaf(chain2, {"p": [], "q": ["c"]}, {"id_p": {}, "id_q": {"c": "c"}, "p->q": {}})
    # Returned before the guard is consulted.
    assert enumerate_natural_transformations(x, y, max_log2=-1) == []
    assert product_natural_transformations(x, y, max_log2=-1) == []
    assert enumerate_natural_transformations(y, x) == product_natural_transformations(y, x)
    assert len(enumerate_natural_transformations(y, x)) == 1


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(function_categories())
def test_enumerations_match_references_on_random_categories(drawn):
    cat, fns, sizes = drawn
    points = make_presheaf(
        cat,
        {obj: range(size) for obj, size in zip(cat.objects, sizes)},
        {aid: dict(enumerate(f[2])) for aid, f in fns.items()},
    )
    assert_enumerations_match_references([terminal_presheaf(cat), points])


# --- classifier bijection (smoke; the full sweep is in the acceptance suite) --

def test_classifier_bijection_vposet(vposet):
    om = omega_presheaf(vposet)
    t = terminal_presheaf(vposet)
    subs = enumerate_subobjects(t)
    nts = enumerate_natural_transformations(t, om)
    assert len(subs) == len(nts)
    for sub in subs:
        chi = characteristic_arrow(sub, om)
        assert subobject_from_arrow(chi).sub.object_sets == sub.sub.object_sets
    for chi in nts:
        k = subobject_from_arrow(chi)
        chi_back = characteristic_arrow(k, om)
        assert chi_back.components == chi.components
