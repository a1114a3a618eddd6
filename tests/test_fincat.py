import pytest

from sievelogic.fincat import (
    Arrow,
    AssociativityViolation,
    CompositionDomainMismatch,
    IdentityLawViolation,
    MissingIdentity,
    NotAPoset,
    NotComposable,
    UnknownObject,
    arrows_from,
    build_category,
    compose,
    poset_to_category,
    thin_category,
)

from conftest import (
    ALL_CATEGORY_FIXTURES,
    PLAIN_CATEGORY_FIXTURES,
    POSET_FIXTURES,
    THIN_OPERATOR_FIXTURES,
)
from oracles import endpoint_table


def test_one_object_category(one_object):
    assert one_object.objects == ("A",)
    assert [a.id for a in arrows_from(one_object, "A")] == ["id_A"]


def test_free_arrow_category(two_free):
    f = two_free.arrow("f")
    assert compose(two_free, two_free.arrow("id_B"), f) == f
    assert compose(two_free, f, two_free.arrow("id_A")) == f


def test_identity_law_violation_rejected():
    arrows = [Arrow("id_A", "A", "A"), Arrow("id_B", "B", "B"), Arrow("f", "A", "B")]
    for pair, entry in [
        (("f", "id_A"), "id_A"), (("id_B", "f"), "id_B"), (("id_A", "id_A"), "f"),
    ]:
        with pytest.raises(IdentityLawViolation, match="f"):
            build_category(["A", "B"], arrows, {"A": "id_A", "B": "id_B"}, {pair: entry})


def test_missing_identity():
    with pytest.raises(MissingIdentity, match="B"):
        build_category(
            ["A", "B"], [Arrow("id_A", "A", "A"), Arrow("id_B", "B", "B")],
            {"A": "id_A"}, {},
        )


def test_composition_domain_mismatch():
    arrows = [Arrow("id_A", "A", "A"), Arrow("id_B", "B", "B"), Arrow("f", "A", "B")]
    with pytest.raises(CompositionDomainMismatch):
        build_category(
            ["A", "B"], arrows, {"A": "id_A", "B": "id_B"},
            {("f", "f"): "f"},  # f after f is not composable
        )


def test_missing_composite_rejected():
    # Two composable non-identity arrows with no table entry.
    arrows = [
        Arrow("id_A", "A", "A"), Arrow("id_B", "B", "B"), Arrow("id_C", "C", "C"),
        Arrow("f", "A", "B"), Arrow("g", "B", "C"), Arrow("h", "A", "C"),
    ]
    idents = {"A": "id_A", "B": "id_B", "C": "id_C"}
    with pytest.raises(CompositionDomainMismatch, match="no composite"):
        build_category(["A", "B", "C"], arrows, idents, {})
    cat = build_category(["A", "B", "C"], arrows, idents, {("g", "f"): "h"})
    assert compose(cat, cat.arrow("g"), cat.arrow("f")).id == "h"


def test_associativity_violation():
    # (a a) a = b a = i but a (a a) = a b = a.
    arrows = [Arrow("i", "A", "A"), Arrow("a", "A", "A"), Arrow("b", "A", "A")]
    with pytest.raises(AssociativityViolation):
        build_category(
            ["A"], arrows, {"A": "i"},
            {("a", "a"): "b", ("a", "b"): "a", ("b", "a"): "i", ("b", "b"): "i"},
        )


def test_monoid_category_accepted():
    # Z/2 as a one-object category: e after e = identity.
    arrows = [Arrow("i", "A", "A"), Arrow("e", "A", "A")]
    cat = build_category(["A"], arrows, {"A": "i"}, {("e", "e"): "i"})
    assert cat.compose_ids("e", "e") == "i"


def test_chain_poset_category(chain3):
    # Comparable pairs: three reflexive + (p,q), (q,r), (p,r).
    assert len(chain3.objects) == 3
    assert len(chain3.arrows) == 6
    assert sorted(a.id for a in arrows_from(chain3, "p")) == ["id_p", "p->q", "p->r"]
    assert compose(chain3, chain3.arrow("q->r"), chain3.arrow("p->q")).id == "p->r"


def test_chain_compose_wrong_order(chain3):
    with pytest.raises(NotComposable):
        compose(chain3, chain3.arrow("p->q"), chain3.arrow("q->r"))


def test_compose_identity(chain3):
    f = chain3.arrow("p->q")
    assert compose(chain3, chain3.arrow("id_q"), f) == f


def test_antichain(antichain2):
    assert len(antichain2.arrows) == 2
    assert [a.id for a in arrows_from(antichain2, "p")] == ["id_p"]


def test_vposet_arrow_count(vposet):
    assert len(arrows_from(vposet, "p")) == 3


def test_not_a_poset_antisymmetry():
    with pytest.raises(NotAPoset, match="antisymmetry"):
        poset_to_category(["p", "q"], [("p", "q"), ("q", "p")])


def test_not_a_poset_transitivity():
    # poset_to_category treats the relation as given (plus reflexivity);
    # a missing transitive pair is a witnessed failure.
    with pytest.raises(NotAPoset) as exc:
        poset_to_category(["p", "q", "r"], [("p", "q"), ("q", "r")])
    assert str(exc.value) == "transitivity fails: 'p' -> 'q' -> 'r' but no arrow 'p' -> 'r'"


@pytest.mark.parametrize("pair", [("p", "x"), ("x", "x")])
def test_not_a_poset_unknown_element(pair):
    with pytest.raises(NotAPoset, match="unknown"):
        poset_to_category(["p", "q"], [pair])


def test_unknown_object(chain3):
    with pytest.raises(UnknownObject):
        arrows_from(chain3, "nope")


def test_poset_thinness(diamond):
    endpoints = [(a.dom, a.cod) for a in diamond.arrows.values()]
    assert len(endpoints) == len(set(endpoints))


@pytest.mark.parametrize("fixture_category,f_id,g_id", [
    ("two_free", "nope", "f"), ("two_free", "id_A", "f"),
    ("chain3", "p->q", "nope"), ("chain3", "p->q", "q->r"),
], indirect=["fixture_category"])
def test_compose_ids_rejects_what_does_not_compose(fixture_category, f_id, g_id):
    # An unknown token, then a pair that does not meet, on a category
    # built from a table (two_free) and on a thin one (chain3).
    with pytest.raises(NotComposable) as exc:
        fixture_category.compose_ids(f_id, g_id)
    assert str(exc.value) == f"arrows {f_id!r} after {g_id!r} do not compose"


@pytest.mark.parametrize("fixture_category", ALL_CATEGORY_FIXTURES, indirect=True)
def test_associativity_exhaustive(fixture_category):
    cat = fixture_category
    for h in cat.arrows.values():
        for g in arrows_from(cat, h.cod):
            gh = cat.compose_ids(g.id, h.id)
            for f in arrows_from(cat, g.cod):
                fg = cat.compose_ids(f.id, g.id)
                assert cat.compose_ids(fg, h.id) == cat.compose_ids(f.id, gh)


@pytest.mark.parametrize("fixture_category", ALL_CATEGORY_FIXTURES, indirect=True)
def test_identity_laws_exhaustive(fixture_category):
    cat = fixture_category
    for a in cat.arrows.values():
        assert cat.compose_ids(cat.identities[a.cod], a.id) == a.id
        assert cat.compose_ids(a.id, cat.identities[a.dom]) == a.id


# --- thin constructor ----------------------------------------------------------

def _thin(*pairs):
    objs = sorted({x for pair in pairs for x in pair})
    return thin_category(objs, pairs)


def test_thin_category_composes_by_endpoints():
    cat = _thin(("a", "a"), ("b", "b"), ("a", "b"))
    assert list(cat.arrows) == ["id_a", "id_b", "a->b"]
    assert cat.identities == {"a": "id_a", "b": "id_b"}
    assert cat.compose_ids("a->b", "id_a") == "a->b"
    assert cat.compose_ids("id_b", "a->b") == "a->b"
    assert len(cat.composition) == 4


def test_thin_category_allows_cycles():
    # A preorder, not a poset: a <= b <= a with two distinct arrows.
    cat = _thin(("a", "a"), ("b", "b"), ("a", "b"), ("b", "a"))
    assert cat.compose_ids("b->a", "a->b") == "id_a"


def test_thin_category_requires_reflexivity():
    with pytest.raises(MissingIdentity, match="'b'"):
        _thin(("a", "a"), ("a", "b"))


@pytest.mark.parametrize(
    "operator_categories", PLAIN_CATEGORY_FIXTURES + THIN_OPERATOR_FIXTURES, indirect=True
)
def test_composition_is_the_endpoint_table(operator_categories):
    # Every category here is thin, so its relation fixes the table the
    # thin constructor used to store, in the order it stored it.
    for cat in operator_categories:
        cat = getattr(cat, "base", cat)
        assert list(cat.composition.items()) == list(endpoint_table(cat).items())


@pytest.mark.parametrize(
    "operator_categories", POSET_FIXTURES + THIN_OPERATOR_FIXTURES, indirect=True
)
def test_build_category_accepts_thin_tables(operator_categories):
    for cat in operator_categories:
        cat = getattr(cat, "base", cat)
        checked = build_category(
            cat.objects, cat.arrows.values(), cat.identities, cat.composition
        )
        assert checked.composition == cat.composition
