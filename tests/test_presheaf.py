import pytest

from sievelogic.errors import SizeLimitExceeded
from sievelogic.heyting import Sieve, is_sieve, principal_sieve
from sievelogic.fincat import Check
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

from conftest import ALL_CATEGORY_FIXTURES
from oracles import brute_force_sections


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
        bound = 1
        for obj in cat.objects:
            bound *= max(len(x.object_sets[obj]), 1)
        if bound > 1 << 20:
            continue
        got = [gs.choice for gs in global_sections(x)]
        expected = brute_force_sections(x)
        assert len(got) == len(expected)
        assert all(choice in expected for choice in got)


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
