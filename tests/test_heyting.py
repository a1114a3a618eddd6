import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from sievelogic.errors import SieveLogicError, SizeLimitExceeded
from sievelogic.fincat import (
    Check,
    UnknownArrow,
    build_category,
    Arrow,
    arrows_from,
    poset_to_category,
)
from sievelogic import heyting
from sievelogic.heyting import (
    MAX_OUT_ARROWS,
    MAX_TABLE_CELLS,
    BaseMismatch,
    FiniteTopology,
    HeytingAlgebraTable,
    NotATopology,
    Sieve,
    all_sieves,
    codomain_view,
    empty_sieve,
    excluded_middle_violations,
    is_sieve,
    make_sieve,
    make_topology,
    open_set_heyting,
    principal_sieve,
    push_sieve,
    sieve_algebra,
    sieve_implies,
    sieve_join,
    sieve_leq,
    sieve_meet,
    sieve_not,
    validate_heyting_table,
)

from conftest import ALL_CATEGORY_FIXTURES, idempotent_fork
from oracles import (
    dict_validate_heyting_table,
    power_set_sieves,
    set_topology_defect,
    subset_filter_sieves,
    union_implies,
)


def s(base, *members):
    return Sieve(base, frozenset(members))


def with_fields(table, **changed):
    """A new table: ``table``'s five fields, those in ``changed`` replaced."""
    fields = dict(
        elements=table.elements, meet_rows=table.meet_rows, join_rows=table.join_rows,
        implies_rows=table.implies_rows, not_row=table.not_row,
    )
    return HeytingAlgebraTable(**(fields | changed))


# --- sieve membership -------------------------------------------------------

def test_is_sieve_chain_tail(chain3):
    assert is_sieve(chain3, "p", {"p->r"})


def test_is_sieve_closure_counterexample(chain3):
    # q->r after p->q gives p->r, which is missing.
    assert not is_sieve(chain3, "p", {"p->q"})


def test_make_sieve(chain3):
    assert make_sieve(chain3, "p", ["p->q", "p->r"]) == s("p", "p->q", "p->r")
    assert make_sieve(chain3, "q", []) == empty_sieve("q")
    # q->r after p->q gives p->r, which is missing.
    with pytest.raises(SieveLogicError, match=r"^not a sieve on 'p': \['p->q'\]$"):
        make_sieve(chain3, "p", {"p->q"})
    fork = idempotent_fork()
    assert make_sieve(fork, "A", ("e", "f")) == s("A", "e", "f")
    # f after e is f, which is missing.
    with pytest.raises(SieveLogicError, match=r"^not a sieve on 'A': \['e'\]$"):
        make_sieve(fork, "A", {"e"})


def test_sieve_membership_is_by_arrow_token(chain3):
    sieve = make_sieve(chain3, "p", ["p->q", "p->r"])
    assert "p->q" in sieve and "p->r" in sieve
    # Not by tuple field: the base "p" is no member.
    assert "id_p" not in sieve and "p" not in sieve


def test_empty_set_is_sieve(chain3):
    for obj in chain3.objects:
        assert is_sieve(chain3, obj, set())


def test_is_sieve_unknown_arrow(chain3):
    with pytest.raises(UnknownArrow):
        is_sieve(chain3, "p", {"bogus"})


def test_is_sieve_wrong_base(chain3):
    assert not is_sieve(chain3, "q", {"p->q"})


# --- principal sieves and enumeration ---------------------------------------

def test_principal_chain(chain3):
    assert principal_sieve(chain3, "p") == s("p", "id_p", "p->q", "p->r")


def test_principal_one_object(one_object):
    assert principal_sieve(one_object, "A") == s("A", "id_A")


def test_principal_vposet(vposet):
    assert len(principal_sieve(vposet, "p").members) == 3


def test_all_sieves_chain(chain3):
    got = all_sieves(chain3, "p")
    expected = {
        frozenset(),
        frozenset({"p->r"}),
        frozenset({"p->q", "p->r"}),
        frozenset({"id_p", "p->q", "p->r"}),
    }
    assert {sv.members for sv in got} == expected
    assert len(got) == 4


def test_all_sieves_vposet(vposet):
    got = {sv.members for sv in all_sieves(vposet, "p")}
    assert got == {
        frozenset(),
        frozenset({"p->q"}),
        frozenset({"p->r"}),
        frozenset({"p->q", "p->r"}),
        frozenset({"id_p", "p->q", "p->r"}),
    }


def test_all_sieves_chain_top(chain3):
    assert len(all_sieves(chain3, "r")) == 2


def test_all_sieves_lexicographic_order(chain3):
    got = all_sieves(chain3, "p")
    keys = [sv.sorted_members() for sv in got]
    assert keys == sorted(keys)


@pytest.mark.parametrize("fixture_category", ALL_CATEGORY_FIXTURES, indirect=True)
def test_all_sieves_matches_power_set_oracle(fixture_category):
    cat = fixture_category
    for obj in cat.objects:
        assert {sv.members for sv in all_sieves(cat, obj)} == power_set_sieves(cat, obj)


def test_all_sieves_guard():
    # 21 free arrows out of one object exceed the enumeration cap.
    objs = ["A"] + [f"B{i}" for i in range(21)]
    arrows = [Arrow(f"id_{o}", o, o) for o in objs]
    arrows += [Arrow(f"f{i}", "A", f"B{i}") for i in range(21)]
    cat = build_category(objs, arrows, {o: f"id_{o}" for o in objs}, {})
    with pytest.raises(SizeLimitExceeded):
        all_sieves(cat, "A")


# --- lattice operations ------------------------------------------------------

def test_meet_with_principal_and_join_with_empty(chain3):
    top = principal_sieve(chain3, "p")
    bottom = empty_sieve("p")
    for sv in all_sieves(chain3, "p"):
        assert sieve_meet(sv, top) == sv
        assert sieve_join(sv, bottom) == sv


def test_join_vposet(vposet):
    assert sieve_join(s("p", "p->q"), s("p", "p->r")) == s("p", "p->q", "p->r")


def test_meet_chain(chain3):
    assert sieve_meet(s("p", "p->r"), s("p", "p->q", "p->r")) == s("p", "p->r")


def test_base_mismatch(chain3):
    with pytest.raises(BaseMismatch):
        sieve_meet(s("p"), s("q"))


def test_implies_reflexive(chain3):
    for sv in all_sieves(chain3, "p"):
        assert sieve_implies(chain3, sv, sv) == principal_sieve(chain3, "p")


def test_implies_vacuous(vposet):
    for sv in all_sieves(vposet, "p"):
        assert sieve_implies(vposet, empty_sieve("p"), sv) == principal_sieve(vposet, "p")


def test_implies_vposet(vposet):
    assert sieve_implies(vposet, s("p", "p->q"), empty_sieve("p")) == s("p", "p->r")


def test_not_top_bottom(chain3):
    top = principal_sieve(chain3, "p")
    assert sieve_not(chain3, top) == empty_sieve("p")
    assert sieve_not(chain3, empty_sieve("p")) == top


def test_not_vposet_excluded_middle_fails(vposet):
    nq = sieve_not(vposet, s("p", "p->q"))
    assert nq == s("p", "p->r")
    joined = sieve_join(s("p", "p->q"), nq)
    assert joined == s("p", "p->q", "p->r")
    assert joined != principal_sieve(vposet, "p")


def test_not_chain_tail(chain3):
    assert sieve_not(chain3, s("p", "p->r")) == empty_sieve("p")


def test_not_equals_implies_empty(vposet):
    for sv in all_sieves(vposet, "p"):
        assert sieve_not(vposet, sv) == sieve_implies(vposet, sv, empty_sieve("p"))


# --- pushforward -------------------------------------------------------------

def test_push_member_gives_principal(chain3):
    f = chain3.arrow("p->q")
    sv = s("p", "p->q", "p->r")
    assert push_sieve(chain3, f, sv) == principal_sieve(chain3, "q")


def test_push_empty(chain3):
    f = chain3.arrow("p->q")
    assert push_sieve(chain3, f, empty_sieve("p")) == empty_sieve("q")


def test_push_chain(chain3):
    f = chain3.arrow("p->q")
    assert push_sieve(chain3, f, s("p", "p->r")) == s("q", "q->r")


def test_push_base_mismatch(chain3):
    with pytest.raises(BaseMismatch):
        push_sieve(chain3, chain3.arrow("q->r"), s("p", "p->r"))


@pytest.mark.parametrize("fixture_category", ALL_CATEGORY_FIXTURES, indirect=True)
def test_push_functorial(fixture_category):
    cat = fixture_category
    for obj in cat.objects:
        sieves = all_sieves(cat, obj)
        ident = cat.identity(obj)
        for sv in sieves:
            assert push_sieve(cat, ident, sv) == sv
        for g in arrows_from(cat, obj):
            for h in arrows_from(cat, g.cod):
                hg = cat.arrows[cat.compose_ids(h.id, g.id)]
                for sv in sieves:
                    assert push_sieve(cat, hg, sv) == push_sieve(
                        cat, h, push_sieve(cat, g, sv)
                    )


def test_push_member_principal_all_fixture_sieves(vposet):
    for obj in vposet.objects:
        for sv in all_sieves(vposet, obj):
            for aid in sv.members:
                arrow = vposet.arrows[aid]
                assert push_sieve(vposet, arrow, sv) == principal_sieve(
                    vposet, arrow.cod
                )


# --- poset-specific views ----------------------------------------------------

def test_codomain_view_is_upper_set(chain3):
    for sv in all_sieves(chain3, "p"):
        cods = codomain_view(chain3, sv)
        order = {"p": 0, "q": 1, "r": 2}
        for c in cods:
            for other in chain3.objects:
                if order[other] >= order[c]:
                    assert other in cods


def test_upper_set_iff_sieve(vposet):
    # In a poset category the sieve condition is exactly upper-closure of
    # the codomain set.
    leq = {("p", "p"), ("q", "q"), ("r", "r"), ("p", "q"), ("p", "r")}
    for obj in vposet.objects:
        outs = [a for a in arrows_from(vposet, obj)]
        for mask in range(1 << len(outs)):
            chosen = {outs[i] for i in range(len(outs)) if mask >> i & 1}
            ids = {a.id for a in chosen}
            cods = {a.cod for a in chosen}
            upper = all(
                other in cods
                for c in cods for other in vposet.objects if (c, other) in leq
            )
            assert is_sieve(vposet, obj, ids) == upper


# --- Heyting law suites ------------------------------------------------------

@pytest.mark.parametrize("fixture_category", ALL_CATEGORY_FIXTURES, indirect=True)
def test_sieve_algebra_laws(fixture_category):
    cat = fixture_category
    for obj in cat.objects:
        check = validate_heyting_table(sieve_algebra(cat, obj))
        assert check, f"{obj}: {check.witness}"


@pytest.mark.parametrize("fixture_category", ALL_CATEGORY_FIXTURES, indirect=True)
def test_weak_excluded_middle_bound(fixture_category):
    cat = fixture_category
    for obj in cat.objects:
        top = principal_sieve(cat, obj)
        for sv in all_sieves(cat, obj):
            assert sieve_leq(sieve_join(sv, sieve_not(cat, sv)), top)


# --- finite topologies -------------------------------------------------------

def sierpinski():
    return make_topology(["a", "b"], [[], ["a"], ["a", "b"]])


def discrete2():
    return make_topology(["a", "b"], [[], ["a"], ["b"], ["a", "b"]])


def test_discrete_is_boolean():
    table = open_set_heyting(discrete2())
    check = validate_heyting_table(table)
    assert check, check.witness
    assert excluded_middle_violations(table) == ()


def test_validate_heyting_table_names_failure():
    table = open_set_heyting(sierpinski())
    assert validate_heyting_table(table) == Check(True)
    # A not row that sends everything to the top breaks neg x = x => zero.
    broken = with_fields(table, not_row=(table.one_index,) * len(table.elements))
    assert broken.neg == {x: table.one for x in table.elements}
    check = validate_heyting_table(broken)
    assert isinstance(check, Check) and not check
    assert check.witness.startswith("neg ")


def test_sierpinski_negation():
    table = open_set_heyting(sierpinski())
    a = frozenset({"a"})
    assert table.neg[a] == frozenset()
    assert table.join[(a, table.neg[a])] == a != table.one
    assert excluded_middle_violations(table) == (a,)


def test_negation_of_bounds():
    for topology in (sierpinski(), discrete2()):
        table = open_set_heyting(topology)
        assert table.neg[frozenset()] == table.one
        assert table.neg[table.one] == frozenset()


def test_open_set_heyting_laws():
    # With no points the empty set is the only open, and zero is one. In a
    # one-element table an itemgetter returns a bare index, so the law
    # check takes its one-z-at-a-time path and must find no failure there.
    for topology in (sierpinski(), discrete2(), make_topology([], [[]])):
        check = validate_heyting_table(open_set_heyting(topology))
        assert check, check.witness


def test_vposet_topology_matches_sieve_algebra(vposet):
    # The upper sets of the V poset form the same five-element algebra as
    # the sieves on its bottom object; excluded middle fails in both.
    table = open_set_heyting(
        make_topology(
            ["p", "q", "r"],
            [[], ["q"], ["r"], ["q", "r"], ["p", "q", "r"]],
        )
    )
    assert len(table.elements) == 5
    check = validate_heyting_table(table)
    assert check, check.witness
    assert frozenset({"q"}) in excluded_middle_violations(table)
    assert len(all_sieves(vposet, "p")) == 5


def test_not_a_topology_missing_empty():
    with pytest.raises(NotATopology, match="empty"):
        make_topology(["a"], [["a"]])


def test_not_a_topology_union():
    with pytest.raises(NotATopology, match="union"):
        make_topology(["a", "b", "c"], [[], ["a"], ["b"], ["a", "b", "c"]])


def test_not_a_topology_stray_point():
    with pytest.raises(NotATopology, match="subset"):
        make_topology(["a"], [[], ["a"], ["b"]])


@pytest.mark.parametrize("opens,witness", [
    ([[], ["a"], ["b"], ["a", "b", "c"]], "not closed under union: ['a'] | ['b']"),
    ([[], ["a", "b"], ["b", "c"], ["a", "b", "c"]],
     "not closed under intersection: ['a', 'b'] & ['b', 'c']"),
    ([["a"], ["a", "b", "c"]], "the empty set is not open"),
])
def test_open_set_heyting_names_the_broken_law(opens, witness):
    # A FiniteTopology built directly is checked by open_set_heyting, which
    # names the same witness as make_topology.
    topology = FiniteTopology(frozenset("abc"), frozenset(map(frozenset, opens)))
    with pytest.raises(NotATopology) as exc:
        open_set_heyting(topology)
    assert str(exc.value) == witness
    with pytest.raises(NotATopology) as exc:
        make_topology("abc", opens)
    assert str(exc.value) == witness


# Families of opens over at most five points, a sixth point name allowed in
# an open as a stray point.
_FAMILIES = st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(frozenset(f"p{i}" for i in range(n))),
    st.frozensets(st.frozensets(st.sampled_from([f"p{i}" for i in range(n + 1)]), max_size=n),
                  max_size=12),
))


def raised(build, *args):
    """The text of the NotATopology ``build(*args)`` raises, or None."""
    try:
        build(*args)
    except NotATopology as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(_FAMILIES)
def test_topology_defect_matches_set_reference(family):
    # At most 12 opens, so open_set_heyting passes its table guard.
    pts, fam = family
    expected = set_topology_defect(pts, fam)
    assert raised(make_topology, pts, fam) == expected
    assert raised(open_set_heyting, FiniteTopology(pts, fam)) == expected


@settings(max_examples=100, deadline=None)
@given(_FAMILIES.map(lambda f: (f[0], f[1] | {frozenset(), f[0]})))
def test_topology_defect_matches_set_reference_with_bounds(family):
    # With the empty and full sets always open, the pair laws decide.
    pts, fam = family
    expected = set_topology_defect(pts, fam)
    assert raised(make_topology, pts, fam) == expected
    assert raised(open_set_heyting, FiniteTopology(pts, fam)) == expected


# --- the mask kernel against the per-pair reference ---------------------------

# Random finite posets: up to six points, any set of pairs i < j, closed
# transitively. With ``cycles``, any pairs i != j in either direction: a
# preorder, whose points on a cycle share every open (a space not T0).
@st.composite
def posets(draw, max_points=6, cycles=False):
    n = draw(st.integers(1, max_points))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    rel = set(draw(st.sets(pairs.filter(lambda t: t[0] != t[1] if cycles else t[0] < t[1]))))
    for k, i, j in itertools.product(range(n), repeat=3):
        if (i, k) in rel and (k, j) in rel:
            rel.add((i, j))
    points = [f"x{i}" for i in range(n)]
    return points, {(points[i], points[j]) for i, j in rel}


_kernel_settings = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def assert_table_matches_reference(cat, obj, validate=True):
    """Every cell of sieve_algebra against the per-pair operations, with
    every value one of the table's own elements."""
    table = sieve_algebra(cat, obj)
    els = table.elements
    assert els == subset_filter_sieves(cat, obj)
    assert table.zero == empty_sieve(obj) and table.one == principal_sieve(cat, obj)
    shared = {id(x) for x in els}
    assert {id(table.zero), id(table.one)} <= shared
    for x in els:
        assert table.neg[x] == sieve_not(cat, x) and id(table.neg[x]) in shared
        for y in els:
            key = (x, y)
            assert table.leq[key] == sieve_leq(x, y)
            assert table.meet[key] == sieve_meet(x, y)
            assert table.join[key] == sieve_join(x, y)
            assert table.implies[key] == sieve_implies(cat, x, y)
            assert {id(table.meet[key]), id(table.join[key]), id(table.implies[key])} <= shared
    if validate:
        check = validate_heyting_table(table)
        assert check, f"{obj}: {check.witness}"


@_kernel_settings
@given(posets())
def test_sieve_kernel_matches_reference_on_random_posets(poset):
    cat = poset_to_category(*poset)
    for obj in cat.objects:
        assert all_sieves(cat, obj) == subset_filter_sieves(cat, obj)
        assert_table_matches_reference(cat, obj)


def test_sieve_kernel_matches_reference_on_non_thin_category():
    cat = idempotent_fork()
    assert len(all_sieves(cat, "A")) == 7
    for obj in cat.objects:
        assert_table_matches_reference(cat, obj)


@pytest.mark.parametrize("fixture_category", ALL_CATEGORY_FIXTURES, indirect=True)
def test_sieve_kernel_matches_reference_on_fixtures(fixture_category):
    # test_sieve_algebra_laws validates these tables.
    for obj in fixture_category.objects:
        assert_table_matches_reference(fixture_category, obj, validate=False)


# validate_heyting_table is cubic: one 130-element algebra (a closed
# four-level context, nine of them in Cabello-18) takes about 0.4 s, so
# the law check stops there; every cell of any larger one still meets the
# per-pair reference.
_VALIDATE_MAX = 130


@pytest.mark.parametrize("operator_categories",
                         ["bundled_categories", "generated_categories"], indirect=True)
def test_sieve_kernel_matches_reference_on_operator_categories(operator_categories):
    sizes = set()
    for ocat in operator_categories:
        cat = ocat.base
        for obj in cat.objects:
            size = len(all_sieves(cat, obj))
            sizes.add(size)
            assert_table_matches_reference(cat, obj, validate=size <= _VALIDATE_MAX)
    assert max(sizes) <= _VALIDATE_MAX


def upper_set_topology(points, rel):
    """The Alexandrov topology of a poset: its upper sets."""
    opens = []
    for bits in range(1 << len(points)):
        o = frozenset(p for i, p in enumerate(points) if bits >> i & 1)
        if all(q in o for p, q in rel if p in o):
            opens.append(o)
    return make_topology(points, opens)


def assert_implies_matches_union_of_opens(topology):
    table = open_set_heyting(topology)
    for x in table.elements:
        assert table.neg[x] == union_implies(topology, x, frozenset())
        for y in table.elements:
            assert table.implies[(x, y)] == union_implies(topology, x, y)
    check = validate_heyting_table(table)
    assert check, check.witness


@_kernel_settings
@given(posets(max_points=5))
def test_open_set_implies_matches_union_of_opens(poset):
    assert_implies_matches_union_of_opens(upper_set_topology(*poset))


@_kernel_settings
@given(posets(max_points=5, cycles=True))
@example((["x0", "x1", "x2"], {("x0", "x1"), ("x1", "x0")}))
def test_open_set_implies_matches_union_of_opens_on_preorders(preorder):
    assert_implies_matches_union_of_opens(upper_set_topology(*preorder))


@pytest.mark.parametrize("n", [2, 3, 7, 16, 33, 64])
def test_open_set_implies_matches_union_of_opens_on_chains(n):
    # The opens are the first k points, k = 0 .. n.
    points = [f"p{i}" for i in range(n)]
    assert_implies_matches_union_of_opens(make_topology(points, [points[:k] for k in range(n + 1)]))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(posets(max_points=5), st.data())
def test_validate_matches_dict_reference_on_broken_tables(poset, data):
    # One cell moved to another element (with its mirror cell, if drawn,
    # so that commutativity still holds and later laws get their turn):
    # the row check and the triple-at-a-time check through the views
    # agree, witness included.
    table = open_set_heyting(upper_set_topology(*poset))
    n = len(table.elements)
    field = data.draw(st.sampled_from(["meet_rows", "join_rows", "implies_rows", "not_row"]))
    x, y, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    if field == "not_row":
        broken = with_fields(table, not_row=table.not_row[:x] + (k,) + table.not_row[x + 1:])
    else:
        rows = [list(row) for row in getattr(table, field)]
        rows[x][y] = k
        if data.draw(st.booleans()):
            rows[y][x] = k
        broken = with_fields(table, **{field: tuple(map(tuple, rows))})
    assert validate_heyting_table(broken) == dict_validate_heyting_table(broken)


@st.composite
def near_lattice_tables(draw):
    """Tables whose one-element and two-element laws mostly hold while the
    three-element ones may not: a bounded antisymmetric relation that need
    not be transitive, meets and joins that are some common lower or upper
    bound, and ``x => y`` the adjoint where one exists."""
    n = draw(st.integers(3, 6))
    top = n - 1
    leq = [[x == y or x == 0 or y == top for y in range(n)] for x in range(n)]
    for x, y in itertools.combinations(range(1, top), 2):
        order = draw(st.sampled_from(["none", "up", "down"]))
        leq[x][y], leq[y][x] = order == "up", order == "down"

    def bound(x, y, below):
        if leq[x][y] or leq[y][x]:
            return x if leq[x][y] == below else y
        return draw(st.sampled_from(
            [z for z in range(n) if (leq[z][x] and leq[z][y] if below else leq[x][z] and leq[y][z])]
        ))

    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for x, y in itertools.combinations_with_replacement(range(n), 2):
        meet[x][y] = meet[y][x] = bound(x, y, True)
        join[x][y] = join[y][x] = bound(x, y, False)

    def adjoint(x, y):
        fits = [w for w in range(n) if leq[meet[w][x]][y]]
        best = [w for w in fits if all(leq[v][w] for v in fits)]
        return best[0] if best else draw(st.sampled_from(fits))

    implies = tuple(tuple(adjoint(x, y) for y in range(n)) for x in range(n))
    return HeytingAlgebraTable(
        tuple(f"e{i}" for i in range(n)), tuple(map(tuple, meet)), tuple(map(tuple, join)),
        implies, tuple(row[0] for row in implies),
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(near_lattice_tables())
def test_validate_matches_dict_reference_on_near_lattices(table):
    assert validate_heyting_table(table) == dict_validate_heyting_table(table)


def test_validate_names_join_associativity_failure():
    # Of all the row comparisons for the pair (e1, e2), only the one for
    # join associativity differs, at z = e3.
    rows = lambda *r: tuple(map(tuple, r))
    table = HeytingAlgebraTable(
        tuple(f"e{i}" for i in range(6)),
        rows([0, 0, 0, 0, 0, 0], [0, 1, 2, 1, 4, 1], [0, 2, 2, 0, 0, 2],
             [0, 1, 0, 3, 0, 3], [0, 4, 0, 0, 4, 4], [0, 1, 2, 3, 4, 5]),
        rows([0, 1, 2, 3, 4, 5], [1, 1, 1, 3, 1, 5], [2, 1, 2, 5, 1, 5],
             [3, 3, 5, 3, 5, 5], [4, 1, 1, 5, 4, 5], [5, 5, 5, 5, 5, 5]),
        rows([5, 5, 5, 5, 5, 5], [0, 5, 2, 5, 4, 5], [0, 5, 5, 0, 4, 5],
             [0, 1, 0, 5, 2, 5], [0, 5, 3, 3, 5, 5], [0, 1, 2, 3, 4, 5]),
        (5, 0, 0, 0, 0, 0),
    )
    check = validate_heyting_table(table)
    assert check == dict_validate_heyting_table(table)
    assert check.witness == "join associativity fails on 'e1', 'e2', 'e3'"


def test_pair_views_are_built_on_first_read_and_read_only(vposet):
    table = sieve_algebra(vposet, "p")
    assert not {"leq", "meet", "join", "implies", "neg"} & set(vars(table))
    assert table.meet is table.meet
    with pytest.raises(AttributeError):
        table.meet = {}
    with pytest.raises(TypeError):
        table.meet[(table.zero, table.one)] = table.one


# --- the table guard ----------------------------------------------------------

def bottom_under(k):
    """A bottom point below k pairwise incomparable points."""
    points = ["b"] + [f"t{i}" for i in range(k)]
    return poset_to_category(points, [("b", t) for t in points[1:]])


def test_table_guard_trips_under_the_out_arrow_cap():
    # 12 out-arrows pass the enumeration cap, but the 2^11 + 1 sieves would
    # fill more than 2^20 cells per table.
    cat = bottom_under(11)
    assert len(arrows_from(cat, "b")) == 12 <= MAX_OUT_ARROWS
    assert len(all_sieves(cat, "b")) == 2049
    with pytest.raises(SizeLimitExceeded) as exc:
        sieve_algebra(cat, "b")
    assert exc.value.limit == MAX_TABLE_CELLS
    assert str(exc.value) == (
        "heyting table: object 'b' has 2049 elements, so 4198401 table cells, "
        "over the guard of 1048576"
    )


def test_table_guard_trips_before_any_sieve_is_named(monkeypatch):
    # The guard reads the count of sieve masks; sorting and naming 2,049
    # sieves would only be wasted.
    def refuse(*args):
        raise AssertionError("a sieve was named before the table guard")

    monkeypatch.setattr(heyting, "Sieve", refuse)
    with pytest.raises(SizeLimitExceeded) as exc:
        sieve_algebra(bottom_under(11), "b")
    assert str(exc.value) == (
        "heyting table: object 'b' has 2049 elements, so 4198401 table cells, "
        "over the guard of 1048576"
    )


def test_table_guard_trips_on_topologies():
    points = frozenset(f"p{i}" for i in range(11))
    opens = frozenset(
        frozenset(c) for r in range(12) for c in itertools.combinations(sorted(points), r)
    )
    with pytest.raises(SizeLimitExceeded) as exc:
        open_set_heyting(FiniteTopology(points, opens))
    assert exc.value.limit == MAX_TABLE_CELLS
    assert str(exc.value).startswith("heyting table: topology on 11 points has 2048 elements")


def test_out_arrow_cap_names_its_limit():
    with pytest.raises(SizeLimitExceeded) as exc:
        all_sieves(bottom_under(20), "b")
    assert exc.value.limit == MAX_OUT_ARROWS
