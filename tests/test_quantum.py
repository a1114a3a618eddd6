import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import sievelogic
from sievelogic import quantum
from sievelogic.errors import SizeLimitExceeded
from sievelogic.exact import (
    QC,
    identity_matrix,
    mat_add,
    vector,
    zero_matrix,
)
from sievelogic.fincat import UnknownObject, arrows_from
from sievelogic.heyting import (
    empty_sieve,
    is_sieve,
    principal_sieve,
    push_sieve,
)
from sievelogic.presheaf import (
    global_sections,
    is_natural,
    validate_presheaf,
)
from sievelogic.quantum import (
    DimensionMismatch,
    DuplicateEigenvalue,
    IncompleteBasis,
    IncompleteValuation,
    NameCollision,
    NotInSpectrum,
    NotOrthogonal,
    PartialFunction,
    SieveValuation,
    SpectralAlgebra,
    SpectralOperator,
    born_prob,
    build_operator_category,
    coarse_graining_presheaf,
    dual_presheaf,
    find_arrow,
    func_check,
    function_of,
    ks_global_section_search,
    make_operator,
    make_state,
    nu_state,
    nu_state_valuation,
    spectral_projector,
    spectrum_subsets,
    valuation_transformation,
    verify_spectral_operator,
)
from sievelogic.scenario import (
    parse_scenario,
    scenario_operators,
    scenario_states,
)
from sievelogic.spectral import _overlaps

from conftest import (
    OPERATOR_CATEGORY_FIXTURES,
    THIN_OPERATOR_FIXTURES,
    bundled_category,
    bundled_fixture,
    category_shape,
    diagonal_operator,
    mermin_bases,
    scenario_category,
)
from genscen import random_orthogonal_basis
from oracles import (
    endpoint_table,
    inner,
    matrix,
    matrix_born_prob,
    matrix_find_arrow,
    matrix_operator_category,
    norm_sq,
    outer_self,
    projector_fixpoint_sieve,
    projector_leq,
)

HALF = matrix([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])


# --- construction ------------------------------------------------------------

def test_make_sigma_z(sigma_z):
    assert sigma_z.spectrum == (F(-1), F(1))
    assert spectral_projector(sigma_z, [1]) == matrix([[1, 0], [0, 0]])
    assert spectral_projector(sigma_z, [-1]) == matrix([[0, 0], [0, 1]])


def test_make_hadamard_basis(sigma_x):
    assert spectral_projector(sigma_x, [1]) == HALF


def test_make_operator_not_orthogonal():
    with pytest.raises(NotOrthogonal):
        make_operator("bad", 2, [(1, [(1, 0), (1, 1)])])


def test_make_operator_cross_eigenvalue_overlap():
    with pytest.raises((NotOrthogonal, IncompleteBasis)):
        make_operator("bad", 2, [(1, [(1, 0)]), (2, [(1, 1)])])


def test_make_operator_duplicate_eigenvalue():
    with pytest.raises(DuplicateEigenvalue):
        make_operator("bad", 2, [(1, [(1, 0)]), (1, [(0, 1)])])


def test_make_operator_incomplete():
    with pytest.raises(IncompleteBasis):
        make_operator("bad", 3, [(1, [(1, 0, 0)]), (2, [(0, 1, 0)])])


def test_make_operator_complex_entries():
    from sievelogic.exact import QC

    op = make_operator(
        "y", 2,
        [(1, [(1, QC(F(0), F(1)))]), (-1, [(1, QC(F(0), F(-1)))])],
    )
    p = spectral_projector(op, [1])
    assert p[0][0] == QC(F(1, 2), F(0))
    assert p[0][1] == QC(F(0), F(-1, 2))
    assert p[1][0] == QC(F(0), F(1, 2))


def test_degenerate_eigenvalue_rank2():
    op = make_operator(
        "deg", 3,
        [(0, [(1, 0, 0), (0, 1, 0)]), (5, [(0, 0, 1)])],
    )
    assert spectral_projector(op, [0]) == matrix([[1, 0, 0], [0, 1, 0], [0, 0, 0]])


# --- make_operator against the reference verifier --------------------------

def _assembled(name, dim, eigendata):
    """The operator make_operator would return, assembled without its checks."""
    groups = sorted(
        ((F(v), [vector(x) for x in vecs]) for v, vecs in eigendata), key=lambda g: g[0]
    )
    projectors = []
    for _, vecs in groups:
        p = zero_matrix(dim)
        for v in vecs:
            ns = norm_sq(v)
            p = mat_add(p, tuple(tuple(e / ns for e in row) for row in outer_self(v)))
        projectors.append(p)
    return SpectralOperator(name, dim, tuple(g[0] for g in groups), tuple(projectors))


def _fixture_eigendata():
    for name in ("sigma_z.scn", "sigma_zx.scn", "cabello18.scn"):
        scn = parse_scenario(bundled_fixture(name).read_text())
        for decl in scn.operators:
            yield decl.name, scn.dimension, decl.eigendata


def _genscen_eigendata(seed):
    rng = random.Random(seed)
    dim = rng.choice([2, 3, 4])
    basis = random_orthogonal_basis(rng, dim)
    values = rng.sample(range(-3, 4), rng.randint(1, dim))
    groups = [[basis[i]] for i in range(len(values))]
    for v in basis[len(values):]:
        groups[rng.randrange(len(values))].append(v)
    return f"g{seed}", dim, list(zip(values, groups))


ACCEPTED_EIGENDATA = list(_fixture_eigendata()) + [_genscen_eigendata(s) for s in range(40)]


@pytest.mark.parametrize("name,dim,eigendata", ACCEPTED_EIGENDATA)
def test_make_operator_agrees_with_verifier(name, dim, eigendata):
    op = make_operator(name, dim, eigendata)
    verify_spectral_operator(op)
    assert op == _assembled(name, dim, eigendata)


def _overlapping(eigendata):
    """Add to the first vector of the first group one vector of the last
    group: orthogonality within groups survives, across them it fails."""
    groups = [(v, list(vecs)) for v, vecs in eigendata]
    first, last = groups[0][1], groups[-1][1]
    first[0] = tuple(a + b for a, b in zip(first[0], last[-1]))
    return groups


OVERLAPPING_EIGENDATA = [("bad", 2, [(1, [(1, 0)]), (2, [(1, 1)])])] + [
    (name, dim, _overlapping(eigendata))
    for name, dim, eigendata in ACCEPTED_EIGENDATA
    if len(eigendata) > 1
]


@pytest.mark.parametrize("name,dim,eigendata", OVERLAPPING_EIGENDATA)
def test_make_operator_overlap_matches_verifier(name, dim, eigendata):
    with pytest.raises(NotOrthogonal) as expected:
        verify_spectral_operator(_assembled(name, dim, eigendata))
    with pytest.raises(NotOrthogonal) as got:
        make_operator(name, dim, eigendata)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize(
    "operator_categories", ["bundled_categories", "generated_categories"], indirect=True
)
def test_closed_category_objects_pass_the_verifier(operator_categories):
    # Seeds, questions and constants all take their projectors from their
    # vectors by one rule; each object must satisfy the operator laws.
    spectra = set()
    for ocat in operator_categories:
        for op in ocat.operators.values():
            verify_spectral_operator(op)
            spectra.add(len(op.spectrum))
    assert {1, 2} <= spectra


# --- functions of operators --------------------------------------------------

def test_function_identity(sigma_z):
    same = function_of(sigma_z, {F(1): 1, F(-1): -1}, name="copy")
    assert (same.spectrum, same.projectors) == (sigma_z.spectrum, sigma_z.projectors)


def test_function_square_merges(sigma_z):
    sq = function_of(sigma_z, {F(1): 1, F(-1): 1}, name="sq")
    assert sq.spectrum == (F(1),)
    assert sq.projectors == (identity_matrix(2),)


def test_function_relabels(sigma_z):
    op = function_of(sigma_z, {F(1): 3, F(-1): 7}, name="r")
    assert op.spectrum == (F(3), F(7))
    assert spectral_projector(op, [3]) == spectral_projector(sigma_z, [1])


def test_function_partial(sigma_z):
    with pytest.raises(PartialFunction):
        function_of(sigma_z, {F(1): 1})


# --- spectral projectors -----------------------------------------------------

def test_projector_full_and_empty(sigma_z):
    assert spectral_projector(sigma_z, sigma_z.spectrum) == identity_matrix(2)
    assert spectral_projector(sigma_z, []) == zero_matrix(2)


def test_projector_singleton(sigma_z):
    assert spectral_projector(sigma_z, [1]) == matrix([[1, 0], [0, 0]])


def test_projector_not_in_spectrum(sigma_z):
    with pytest.raises(NotInSpectrum):
        spectral_projector(sigma_z, [2])


def test_spectral_algebra(sigma_z):
    alg = SpectralAlgebra(sigma_z)
    assert len(alg.elements()) == 4
    assert alg.atoms() == (frozenset({F(-1)}), frozenset({F(1)}))
    full = frozenset(sigma_z.spectrum)
    for d1 in alg.elements():
        assert alg.join(d1, alg.complement(d1)) == full
        assert alg.meet(d1, alg.complement(d1)) == frozenset()
        for d2 in alg.elements():
            assert alg.projector(alg.meet(d1, d2)) == mat_mul_commuting(
                alg.projector(d1), alg.projector(d2)
            )


def mat_mul_commuting(p, q):
    from sievelogic.exact import mat_mul

    assert mat_mul(p, q) == mat_mul(q, p)
    return mat_mul(p, q)


# --- arrows ------------------------------------------------------------------

def test_find_arrow_to_coarsening(sigma_z):
    one = function_of(sigma_z, {F(1): 1, F(-1): 1}, name="one")
    assert find_arrow(sigma_z, one) == {F(1): F(1), F(-1): F(1)}


def test_find_arrow_absent(sigma_z, sigma_x):
    assert find_arrow(sigma_z, sigma_x) is None
    assert find_arrow(sigma_x, sigma_z) is None


def test_find_arrow_identity(sigma_z):
    assert find_arrow(sigma_z, sigma_z) == {F(1): F(1), F(-1): F(-1)}


def test_find_arrow_is_public():
    assert sievelogic.find_arrow is find_arrow
    assert "find_arrow" in sievelogic.__all__


def test_find_arrow_dimension():
    a = make_operator("a", 2, [(1, [(1, 0)]), (2, [(0, 1)])])
    b = make_operator("b", 3, [(1, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])])
    with pytest.raises(DimensionMismatch):
        find_arrow(a, b)


def test_find_arrow_scaled_pair(sigma_z):
    doubled = make_operator("dz", 2, [(2, [(1, 0)]), (-2, [(0, 1)])])
    assert find_arrow(sigma_z, doubled) == {F(1): F(2), F(-1): F(-2)}
    assert find_arrow(doubled, sigma_z) == {F(2): F(1), F(-2): F(-1)}


# --- category building -------------------------------------------------------

def test_single_unclosed(sz_unclosed):
    assert len(sz_unclosed.base.objects) == 1
    assert len(sz_unclosed.base.arrows) == 1


def test_single_closed_objects(sz_closed):
    assert set(sz_closed.base.objects) == {
        "sigma_z", "sigma_z[1]", "sigma_z[-1]", "const0", "const1"
    }
    # The two questions are relabelings of sigma_z itself, so the three of
    # them form an isomorphism clique; each object also maps to both
    # constants: 5 identities + 6 + 6 + 2 = 19.
    assert len(sz_closed.base.arrows) == 19
    assert {a.cod for a in arrows_from(sz_closed.base, "sigma_z")} == {
        "sigma_z", "sigma_z[1]", "sigma_z[-1]", "const0", "const1"
    }


def test_question_projectors(sz_closed):
    q = sz_closed.operators["sigma_z[1]"]
    assert q.spectrum == (F(0), F(1))
    assert spectral_projector(q, [1]) == matrix([[1, 0], [0, 0]])


def test_two_incompatible_unclosed(zx_unclosed):
    assert len(zx_unclosed.base.objects) == 2
    assert len(zx_unclosed.base.arrows) == 2  # identities only


def test_zx_closed_counts(zx_closed):
    assert len(zx_closed.base.objects) == 8
    # Two isomorphism cliques of three, arrows into the two constants from
    # all six non-constant objects, the constant swap, and 8 identities:
    # 8 + 6 + 6 + 12 + 2 = 34.
    assert len(zx_closed.base.arrows) == 34
    cross = [
        a for a in zx_closed.base.arrows.values()
        if "sigma_z" in a.dom and "sigma_x" in a.cod
    ]
    assert not cross


def test_scaled_operators_stay_distinct(sigma_z):
    doubled = make_operator("dz", 2, [(2, [(1, 0)]), (-2, [(0, 1)])])
    ocat = build_operator_category([sigma_z, doubled])
    assert len(ocat.base.objects) == 2
    assert len(ocat.base.arrows) == 4  # identities plus both relabelings


def test_name_collision(sigma_z):
    copy = make_operator("sigma_z", 2, [(1, [(1, 0)]), (-1, [(0, 1)])])
    with pytest.raises(NameCollision):
        build_operator_category([sigma_z, copy])


def test_dimension_mismatch_category(sigma_z):
    other = make_operator("three", 3, [(1, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])])
    with pytest.raises(DimensionMismatch):
        build_operator_category([sigma_z, other])


def assert_matches_pairwise_find_arrow(ocat):
    # find_arrow and the build against the projector-matrix reference, on
    # every ordered pair of objects: each stored image has one valid
    # codomain level per domain level, identities fix every level, and the
    # accessor gives the reference's function.
    names = ocat.base.objects
    endpoints = {(a.dom, a.cod): a.id for a in ocat.base.arrows.values()}
    for a_name in names:
        for b_name in names:
            a_op, b_op = ocat.operators[a_name], ocat.operators[b_name]
            fn = matrix_find_arrow(a_op, b_op)
            assert find_arrow(a_op, b_op) == fn
            if fn is None:
                assert (a_name, b_name) not in endpoints
                continue
            aid = endpoints[(a_name, b_name)]
            image = ocat.images[aid]
            assert type(image) is tuple and len(image) == len(a_op.spectrum)
            assert all(0 <= j < len(b_op.spectrum) for j in image)
            if a_name == b_name:
                assert image == tuple(range(len(a_op.spectrum)))
            assert ocat.arrow_function(aid) == fn


@pytest.mark.parametrize(
    "operator_categories",
    OPERATOR_CATEGORY_FIXTURES + ["bundled_categories", "generated_categories"],
    indirect=True,
)
def test_category_matches_pairwise_find_arrow(operator_categories):
    for ocat in operator_categories:
        assert_matches_pairwise_find_arrow(ocat)


@pytest.mark.parametrize("n", range(1, 10))
def test_diagonal_category_matches_pairwise_find_arrow(n):
    # An n-level diagonal operator and seeded coarse-grainings of it and of
    # each other, relabelings and coincident coarse-grainings included.
    rng = random.Random(n)
    ops = [diagonal_operator("top", [F(v, 2) for v in rng.sample(range(-9, 10), n)])]
    for k in range(4):
        source = rng.choice(ops)
        targets = rng.sample(range(-5, 6), rng.randint(1, len(source.spectrum)))
        fn = {a: rng.choice(targets) for a in source.spectrum}
        ops.append(function_of(source, fn, name=f"g{k}"))
    assert_matches_pairwise_find_arrow(build_operator_category(ops))


@pytest.mark.parametrize("close", [False, True])
def test_subset_guard_trips_before_any_subset_sum(monkeypatch, close):
    # A 21-level operator walks no spectral subset: closed, the closure
    # guard trips before the first question; unclosed, the build needs none.
    def refuse(*args):
        raise AssertionError("the build walked spectral subsets")

    monkeypatch.setattr(quantum, "_subset_masks", refuse)
    monkeypatch.setattr(quantum, "_coarsening", refuse)
    wide = [diagonal_operator("wide", list(range(21)))]
    if not close:
        assert list(build_operator_category(wide).base.arrows) == ["id_wide"]
        return
    with pytest.raises(SizeLimitExceeded) as info:
        build_operator_category(wide, close_under_questions=True)
    assert str(info.value) == (
        "question closure: 2^n - 2 questions per n-level operator make "
        "2097150, over the guard of 8192"
    )
    assert info.value.limit == quantum.MAX_QUESTIONS == 1 << 13


def test_closure_guard_counts_every_operator():
    # A 13-level operator has 8,190 questions, inside the guard; with a
    # three-level operator beside it, 8,196 are over it.
    big = diagonal_operator("big", list(range(13)))
    three = function_of(big, {F(v): min(v, 2) for v in range(13)}, name="three")
    with pytest.raises(SizeLimitExceeded, match="make 8196, over the guard of 8192"):
        build_operator_category([three, big], close_under_questions=True)


def test_closure_guard_admits_its_limit():
    # 8,190 + 2 questions: exactly the guard. The two-level operator is the
    # question big[0,...,5], so it adds no object.
    big = diagonal_operator("big", list(range(13)))
    two = function_of(big, {F(v): int(v < 6) for v in range(13)}, name="two")
    ocat = build_operator_category([big, two], close_under_questions=True)
    assert len(ocat.base.objects) == 2 + 8189 + 2
    assert "big[0,1,2,3,4,5]" not in ocat.operators
    assert "big->two" in ocat.base.arrows


@pytest.mark.parametrize("close", [False, True])
def test_diag9_passes_subset_guard(close):
    # 510 questions, well inside the guard: the operator, its questions and
    # the two constants.
    ocat = build_operator_category(
        [diagonal_operator("d", list(range(9)))], close_under_questions=close
    )
    assert len(ocat.base.objects) == (1 + 510 + 2 if close else 1)


# --- the overlap build against the matrix reference --------------------------

def assert_matches_matrix_reference(ops, close):
    assert category_shape(build_operator_category(ops, close)) == category_shape(
        matrix_operator_category(ops, close)
    )


@pytest.mark.parametrize("close", [False, True])
@pytest.mark.parametrize("name", ["sigma_z.scn", "sigma_zx.scn", "cabello18.scn"])
def test_build_matches_matrix_reference_on_fixtures(name, close):
    scn = parse_scenario(bundled_fixture(name).read_text())
    assert_matches_matrix_reference(scenario_operators(scn), close)


def test_build_matches_matrix_reference_on_generated(generated_scenarios):
    for g in generated_scenarios:
        assert category_shape(g.category) == category_shape(
            matrix_operator_category(g.operators, True)
        )


def test_mermin_star_matches_matrix_reference(mermin_path):
    entries = {(e.re, e.im) for basis in mermin_bases() for v in basis for e in v}
    assert entries == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}
    scn = parse_scenario(mermin_path.read_text())
    ops = scenario_operators(scn)
    ocat = build_operator_category(ops, close_under_questions=True)
    assert (len(ocat.base.objects), len(ocat.base.arrows)) == (1257, 6289)
    assert category_shape(ocat) == category_shape(
        matrix_operator_category(ops, close_under_questions=True)
    )
    assert list(ocat.base.composition.items()) == list(endpoint_table(ocat.base).items())


def test_kernaghan_peres_passes_closure_guard(kernaghan_peres_text):
    ocat = scenario_category(kernaghan_peres_text)
    assert (len(ocat.base.objects), len(ocat.base.arrows)) == (5197, 27109)
    # The build's relation is transitive: it gives the table of 93,973
    # composites that thin categories once stored.
    table = endpoint_table(ocat.base)
    assert len(table) == 93973
    assert list(ocat.base.composition.items()) == list(table.items())


def _edge_families():
    """Operator families whose closed categories hold arrows that no
    question-only rule produces, each with one such arrow."""
    sz = make_operator("sigma_z", 2, [(1, [(1, 0)]), (-1, [(0, 1)])])
    a = diagonal_operator("A", [1, 2, 3])
    flat = make_operator("five", 3, [(5, [(1, 0, 0), (0, 1, 1), (0, 1, -1)])])
    question = function_of(a, {F(1): 1, F(2): 0, F(3): 0}, name="q")
    twin = make_operator("B", 3, [(1, [(2, 0, 0)]), (2, [(0, 3, 0)]), (3, [(0, 0, 1)])])
    rename = SpectralOperator("A[1]", 3, a.spectrum, a.projectors)
    const = make_operator("const0", 3, [(7, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])])
    again = function_of(a, {F(1): 1, F(2): 0, F(3): 0}, name="r")
    low = make_operator("low", 3, [(5, [(1, 0, 0)]), (7, [(0, 1, 0), (0, 0, 1)])])
    rest = function_of(a, {F(1): 0, F(2): 1, F(3): 1}, name="c")
    return [
        ("question_to_two_level_seed", [sz], "sigma_z[1]->sigma_z"),
        ("question_to_one_level_seed", [a, flat], "A[1]->five"),
        ("constant_to_one_level_seed", [a, flat], "const0->five"),
        ("zero_one_seed_equals_question", [a, question], "A[2,3]->q"),
        ("structurally_equal_seeds", [a, twin], "B->A"),
        ("name_collides_with_question", [a, rename], "A->A[1]'"),
        ("name_collides_with_constant", [a, const], "const0'->const0"),
        ("two_zero_one_seeds_share_a_projector", [a, question, again], "q->r"),
        ("lower_level_on_a_question", [a, low], "A[1]->low"),
        ("zero_one_seed_equals_a_complement", [a, rest], "A[1]->c"),
    ]


@pytest.mark.parametrize("close", [False, True])
@pytest.mark.parametrize(
    "ops,arrow", [case[1:] for case in _edge_families()], ids=[case[0] for case in _edge_families()]
)
def test_build_matches_matrix_reference_on_edge_cases(ops, arrow, close):
    assert_matches_matrix_reference(ops, close)
    if close:
        assert arrow in build_operator_category(ops, close_under_questions=True).base.arrows


_VALUES = [F(v) for v in (-1, 0, 1, 2, 5)] + [F(1, 2)]
_NAMES = ["A", "B", "C", "A[1]", "A[0,1]", "B[-1]", "const0", "const1"]


@st.composite
def operator_families(draw):
    """One to four operators on a shared dimension: fresh orthogonal bases
    (rational or complex, with degenerate eigenvalues), coarsenings, {0, 1}
    coarsenings, relabelled copies and operators given only by their
    projectors, under names that may collide with questions and constants."""
    rng = draw(st.randoms(use_true_random=False))
    dim = draw(st.integers(2, 4))
    names = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=4, unique=True))
    ops = []
    for name in names:
        kind = draw(st.sampled_from(
            ["basis", "coarsening", "question", "copy", "projectors"] if ops else ["basis"]
        ))
        if kind == "basis":
            if draw(st.booleans()):
                basis = random_orthogonal_basis(rng, dim)
            else:
                basis = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
            values = draw(st.lists(st.sampled_from(_VALUES), min_size=1, max_size=dim, unique=True))
            groups = [[v] for v in basis[:len(values)]]
            for v in basis[len(values):]:
                groups[draw(st.integers(0, len(values) - 1))].append(v)
            ops.append(make_operator(name, dim, list(zip(values, groups))))
            continue
        source = draw(st.sampled_from(ops))
        if kind == "coarsening":
            fn = {a: draw(st.sampled_from(_VALUES)) for a in source.spectrum}
        elif kind == "question":
            fn = {a: draw(st.sampled_from([0, 1])) for a in source.spectrum}
        else:
            fn = {a: a for a in source.spectrum}
        op = function_of(source, fn, name=name)
        if kind == "projectors":
            op = SpectralOperator(name, dim, op.spectrum, op.projectors)
        ops.append(op)
    return ops


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(operator_families(), st.booleans())
def test_build_matches_matrix_reference_on_random_families(ops, close):
    assert_matches_matrix_reference(ops, close)


# --- overlap graphs from distinct vectors -------------------------------------

def assert_overlap_graphs_match_pairwise(ops):
    assert quantum._overlap_graphs(ops) == [[_overlaps(a, b) for b in ops] for a in ops]


def test_overlap_graphs_match_pairwise(
    generated_scenarios, peres24_path, mermin_path, kernaghan_peres_text
):
    texts = [bundled_fixture(name).read_text()
             for name in ("sigma_z.scn", "sigma_zx.scn", "cabello18.scn")]
    texts += [peres24_path.read_text(), mermin_path.read_text(), kernaghan_peres_text]
    families = [scenario_operators(parse_scenario(text)) for text in texts]
    families += [g.operators for g in generated_scenarios]
    families += [case[1] for case in _edge_families()]
    # Levels that hold several vectors: degenerate levels and coarse-grainings.
    assert any(len(vs) > 1 for ops in families for op in ops for vs in op.vectors)
    for ops in families:
        assert_overlap_graphs_match_pairwise(ops)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(operator_families())
def test_overlap_graphs_match_pairwise_on_random_families(ops):
    assert_overlap_graphs_match_pairwise(ops)


def test_projector_view_is_cached_and_kept(sigma_z):
    given_projectors = (matrix([[1, 0], [0, 0]]), matrix([[0, 0], [0, 1]]))
    op = SpectralOperator("p", 2, (F(-1), F(1)), given_projectors)
    assert op.projectors is given_projectors
    assert op.vectors == (
        (((1, 0), (0, 0)),),
        (((0, 1), (0, 0)),),
    )
    assert sigma_z.projectors is sigma_z.projectors


@pytest.mark.parametrize("operator_category", OPERATOR_CATEGORY_FIXTURES, indirect=True)
def test_thinness(operator_category):
    endpoints = [(a.dom, a.cod) for a in operator_category.base.arrows.values()]
    assert len(endpoints) == len(set(endpoints))


@pytest.mark.parametrize("operator_categories", THIN_OPERATOR_FIXTURES, indirect=True)
def test_arrow_functions_reproduce_codomain(operator_categories):
    for ocat in operator_categories:
        for a in ocat.base.arrows.values():
            image = function_of(ocat.operators[a.dom], ocat.arrow_function(a.id))
            cod = ocat.operators[a.cod]
            assert (image.spectrum, image.projectors) == (cod.spectrum, cod.projectors)


def test_vshape_category_is_v_poset(vshape3):
    assert len(vshape3.base.objects) == 3
    assert len(vshape3.base.arrows) == 5
    outs = {a.cod for a in arrows_from(vshape3.base, "A")}
    assert outs == {"A", "B", "C"}
    assert len(arrows_from(vshape3.base, "B")) == 1


# --- Born probabilities ------------------------------------------------------

def test_born_eigenstate(sigma_z):
    up = make_state([1, 0])
    assert born_prob(up, sigma_z, [1]) == 1


def test_born_superposition(sigma_z):
    plus = make_state([1, 1])
    assert born_prob(plus, sigma_z, [1]) == F(1, 2)


def test_born_full_spectrum(sigma_z):
    psi = make_state([3, F(-2, 7)])
    assert born_prob(psi, sigma_z, sigma_z.spectrum) == 1


def test_born_complex_state(sigma_x):
    from sievelogic.exact import QC

    psi = make_state([QC(F(1), F(0)), QC(F(0), F(1))])
    assert born_prob(psi, sigma_x, [1]) == F(1, 2)


def test_born_sums_to_one(sigma_z, sigma_x):
    for op in (sigma_z, sigma_x):
        for entries in ([1, 2], [F(1, 3), F(-5)], [0, 1]):
            psi = make_state(entries)
            assert sum(born_prob(psi, op, [a]) for a in op.spectrum) == 1


def test_born_dimension_mismatch(sigma_z):
    with pytest.raises(DimensionMismatch):
        born_prob(make_state([1, 0, 0]), sigma_z, [1])


def test_born_checks_dimension_before_spectrum(sigma_z):
    with pytest.raises(DimensionMismatch):
        born_prob(make_state([1, 0, 0]), sigma_z, [7])
    with pytest.raises(NotInSpectrum):
        born_prob(make_state([1, 0]), sigma_z, [7])


def test_state_integer_form_is_computed_once():
    psi = make_state([F(1, 2), QC(F(0), F(1, 3))])
    assert psi.ints == ((3, 0), (0, 2))
    assert psi.ints is psi.ints


# --- Born probabilities against the matrix oracle ----------------------------

def assert_born_matches_matrix(ops, states):
    """``born_prob`` equals the projector-matrix Rayleigh quotient on every
    level subset of every operator, and the single levels sum to 1."""
    for op in ops:
        for state in states:
            for delta in spectrum_subsets(op):
                assert born_prob(state, op, delta) == matrix_born_prob(state, op, delta)
            assert sum(born_prob(state, op, [a]) for a in op.spectrum) == 1


def polarization_states(dim):
    """e_i, e_i + e_j and e_i + i e_j: the Born probabilities of these fix
    the whole quadratic form <psi, P psi>, hence the projector P."""
    unit = [[int(i == j) for j in range(dim)] for i in range(dim)]
    states = [make_state(e) for e in unit]
    for i in range(dim):
        for j in range(i + 1, dim):
            for c in (QC(F(1), F(0)), QC(F(0), F(1))):
                states.append(make_state([QC.of(x) + c * y for x, y in zip(unit[i], unit[j])]))
    return states


def test_projector_given_vectors_are_orthogonal():
    # Both columns of P+ = 1/2 [[1, 1], [1, 1]] are (1, 1); one vector
    # spans its range, so the state (1, 0) has probability 1/2, not 1.
    minus = matrix([[F(1, 2), F(-1, 2)], [F(-1, 2), F(1, 2)]])
    op = SpectralOperator("x", 2, (F(-1), F(1)), (minus, HALF))
    assert op.vectors == ((((1, -1), (0, 0)),), (((1, 1), (0, 0)),))
    up = make_state([1, 0])
    assert born_prob(up, op, [1]) == F(1, 2) == matrix_born_prob(up, op, [1])
    assert_born_matches_matrix([op], polarization_states(2))


def test_projector_given_rank_two_dependent_columns():
    # The plane orthogonal to (1, 1, 1): three pairwise non-orthogonal
    # columns that sum to zero. Gram-Schmidt keeps two orthogonal vectors.
    plane = matrix([[F(2 if i == j else -1, 3) for j in range(3)] for i in range(3)])
    line = matrix([[F(1, 3)] * 3 for _ in range(3)])
    op = SpectralOperator("w", 3, (F(0), F(1)), (line, plane))
    verify_spectral_operator(op)
    assert op.vectors == (
        (((1, 1, 1), (0, 0, 0)),),
        (((2, -1, -1), (0, 0, 0)), ((0, 1, -1), (0, 0, 0))),
    )
    assert_born_matches_matrix([op], polarization_states(3))


@pytest.mark.parametrize("name", ["sigma_z.scn", "sigma_zx.scn", "cabello18.scn"])
def test_born_matches_matrix_on_fixtures(name):
    ocat = bundled_category(name)
    dim = next(iter(ocat.operators.values())).dim
    scn = parse_scenario(bundled_fixture(name).read_text())
    # The scenario's states, every polarization state and one off every ray.
    states = list(scenario_states(scn).values()) + polarization_states(dim)
    states.append(make_state([2, QC(F(0), F(-3))] + [F(1, 2), -1][:dim - 2]))
    assert_born_matches_matrix(ocat.operators.values(), states)


def test_born_matches_matrix_on_generated(generated_scenarios):
    for g in generated_scenarios:
        assert_born_matches_matrix(g.category.operators.values(), g.states)


def test_born_matches_matrix_on_valuate_bench_inputs(valuate_bench_inputs):
    queries = 0
    for seed, name, text in valuate_bench_inputs:
        scn = parse_scenario(text)
        ops = {op.name: op for op in scenario_operators(scn)}
        states = scenario_states(scn)
        for q in scn.queries:
            state, op = states[q.state], ops[q.operator]
            assert born_prob(state, op, q.delta) == matrix_born_prob(state, op, q.delta)
            queries += 1
    assert queries == 3 * (8 + 100 + 100 + 40)


@st.composite
def states_of(draw, dim):
    """A nonzero Gaussian-rational state vector of length ``dim``."""
    parts = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    entries = draw(st.lists(st.builds(QC, parts, parts), min_size=dim, max_size=dim))
    if all(e.is_zero() for e in entries):
        entries[0] = QC(F(1), F(0))
    return make_state(entries)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_born_matches_matrix_on_random_families(data):
    ops = data.draw(operator_families())
    states = data.draw(st.lists(states_of(ops[0].dim), min_size=1, max_size=3))
    assert_born_matches_matrix(ops, states)


# --- dual and coarse-graining presheaves -------------------------------------

@pytest.mark.parametrize("operator_category", OPERATOR_CATEGORY_FIXTURES, indirect=True)
def test_dual_presheaf_sizes_and_laws(operator_category):
    ocat = operator_category
    d = dual_presheaf(ocat)
    check = validate_presheaf(d)
    assert check.ok, check.witness
    for name, op in ocat.operators.items():
        assert len(d.at(name)) == len(op.spectrum)


@pytest.mark.parametrize("operator_category", OPERATOR_CATEGORY_FIXTURES, indirect=True)
def test_coarse_graining_sizes_and_laws(operator_category):
    ocat = operator_category
    g = coarse_graining_presheaf(ocat)
    check = validate_presheaf(g)
    assert check.ok, check.witness
    for name, op in ocat.operators.items():
        assert len(g.at(name)) == 2 ** len(op.spectrum)


def test_dual_restriction_collapses(sigma_z):
    sq = function_of(sigma_z, {F(1): 1, F(-1): 1}, name="sq")
    ocat = build_operator_category([sigma_z, sq])
    d = dual_presheaf(ocat)
    (aid,) = [
        a.id for a in ocat.base.arrows.values()
        if a.dom == "sigma_z" and a.cod == "sq"
    ]
    assert d.map(aid) == {F(1): F(1), F(-1): F(1)}


def test_single_context_dual_sections(sz_unclosed):
    assert len(global_sections(dual_presheaf(sz_unclosed))) == 2


def test_coarse_graining_merge(sigma_z):
    sq = function_of(sigma_z, {F(1): 1, F(-1): 1}, name="sq")
    ocat = build_operator_category([sigma_z, sq])
    g = coarse_graining_presheaf(ocat)
    (aid,) = [
        a.id for a in ocat.base.arrows.values()
        if a.dom == "sigma_z" and a.cod == "sq"
    ]
    assert g.map(aid)[frozenset({F(1)})] == frozenset({F(1)})
    assert g.map(aid)[frozenset({F(1), F(-1)})] == frozenset({F(1)})
    assert g.map(aid)[frozenset()] == frozenset()


@pytest.mark.parametrize("operator_category", OPERATOR_CATEGORY_FIXTURES, indirect=True)
def test_monotone_coarse_graining(operator_category):
    # Coarser propositions are weaker: the projector can only grow.
    ocat = operator_category
    for arrow in ocat.base.arrows.values():
        fn = ocat.arrow_function(arrow.id)
        dom_op, cod_op = ocat.operators[arrow.dom], ocat.operators[arrow.cod]
        for delta in spectrum_subsets(dom_op):
            image = frozenset(fn[v] for v in delta)
            assert projector_leq(
                spectral_projector(dom_op, delta),
                spectral_projector(cod_op, image),
            )


# --- state valuations --------------------------------------------------------

def test_nu_eigenstate_principal(sz_closed):
    up = make_state([1, 0])
    sieve = nu_state(sz_closed, up, "sigma_z", [1])
    assert sieve == principal_sieve(sz_closed.base, "sigma_z")


def test_nu_full_spectrum_principal(sz_closed):
    for entries in ([1, 0], [1, 1], [2, F(1, 3)]):
        psi = make_state(entries)
        sieve = nu_state(sz_closed, psi, "sigma_z", [1, -1])
        assert sieve == principal_sieve(sz_closed.base, "sigma_z")


def test_nu_superposition_total_coarsenings_only(sz_closed):
    plus = make_state([1, 1])
    sieve = nu_state(sz_closed, plus, "sigma_z", [1])
    assert sieve.members == {"sigma_z->const0", "sigma_z->const1"}
    assert "id_sigma_z" not in sieve.members


def test_nu_values_are_sieves(sz_closed, zx_closed):
    for ocat in (sz_closed, zx_closed):
        for entries in ([1, 0], [1, 1], [1, -2]):
            psi = make_state(entries)
            for name, op in ocat.operators.items():
                for delta in spectrum_subsets(op):
                    sieve = nu_state(ocat, psi, name, delta)
                    assert is_sieve(ocat.base, name, sieve.members)


def test_nu_projector_fixpoint_equals_probability_one(zx_closed):
    # Membership through the exact eigenvector condition agrees with
    # membership through certainty of the coarse-grained proposition.
    for entries in ([1, 0], [1, 1], [2, -3]):
        psi = make_state(entries)
        for name, op in zx_closed.operators.items():
            for delta in spectrum_subsets(op):
                sieve = nu_state(zx_closed, psi, name, delta)
                for arrow in arrows_from(zx_closed.base, name):
                    fn = zx_closed.arrow_function(arrow.id)
                    image = frozenset(fn[v] for v in delta)
                    certain = born_prob(
                        psi, zx_closed.operators[arrow.cod], image
                    ) == 1
                    assert (arrow.id in sieve.members) == certain


def assert_nu_matches_projector_fixpoint(ocat, states):
    for state in states:
        for name, op in ocat.operators.items():
            for delta in spectrum_subsets(op):
                sieve = nu_state(ocat, state, name, delta)
                assert sieve.members == projector_fixpoint_sieve(ocat, state, name, delta)


def test_nu_matches_projector_fixpoint_sigma_zx():
    scn = parse_scenario(bundled_fixture("sigma_zx.scn").read_text())
    states = [make_state(v) for v in scn.states.values()]
    states.append(make_state([2, QC(F(0), F(-3))]))
    assert_nu_matches_projector_fixpoint(bundled_category("sigma_zx.scn"), states)


def test_nu_matches_projector_fixpoint_cabello(cabello):
    # A ray of the scenario (probabilities 0 and 1 occur, so sieves are
    # principal, empty and in between) and a vector on no ray.
    states = [make_state(v) for v in ([1, -1, 1, -1], [1, QC(F(0), F(1)), 2, -1])]
    assert_nu_matches_projector_fixpoint(cabello, states)


def test_nu_matches_projector_fixpoint_generated(generated_scenarios):
    for g in generated_scenarios[:20]:
        assert_nu_matches_projector_fixpoint(g.category, g.states)


def test_nu_empty_delta_is_empty_sieve(sz_closed):
    psi = make_state([1, 1])
    assert nu_state(sz_closed, psi, "sigma_z", []) == empty_sieve("sigma_z")


def test_nu_unknown_object(sz_closed):
    with pytest.raises(UnknownObject):
        nu_state(sz_closed, make_state([1, 0]), "nope", [1])


def test_nu_not_in_spectrum(sz_closed):
    with pytest.raises(NotInSpectrum):
        nu_state(sz_closed, make_state([1, 0]), "sigma_z", [7])


# --- functional composition --------------------------------------------------

def test_func_check_nu_state(zx_closed):
    for entries in ([1, 0], [1, 1], [1, -1], [3, 5]):
        valuation = nu_state_valuation(zx_closed, make_state(entries))
        assert func_check(valuation)


def test_func_check_principal_everywhere(sz_closed):
    values = {
        (name, delta): principal_sieve(sz_closed.base, name)
        for name, op in sz_closed.operators.items()
        for delta in spectrum_subsets(op)
    }
    assert func_check(SieveValuation(sz_closed, values))


def test_func_check_perturbed(sz_closed):
    valuation = nu_state_valuation(sz_closed, make_state([1, 1]))
    broken = dict(valuation.values)
    key = ("sigma_z", frozenset({F(1)}))
    assert broken[key].members  # the original value is a proper sieve
    broken[key] = empty_sieve("sigma_z")
    result = func_check(SieveValuation(sz_closed, broken))
    assert not result.ok
    assert result.witness is not None


def test_func_check_incomplete(sz_closed):
    valuation = nu_state_valuation(sz_closed, make_state([1, 1]))
    partial = dict(valuation.values)
    partial.pop(("sigma_z", frozenset({F(1)})))
    with pytest.raises(IncompleteValuation):
        func_check(SieveValuation(sz_closed, partial))


def test_func_check_equals_naturality(zx_closed):
    from sievelogic.presheaf import omega_presheaf

    g = coarse_graining_presheaf(zx_closed)
    om = omega_presheaf(zx_closed.base)
    valuation = nu_state_valuation(zx_closed, make_state([2, -1]))
    nt = valuation_transformation(valuation, g, om)
    assert func_check(valuation) and is_natural(nt)
    broken = dict(valuation.values)
    broken[("sigma_z", frozenset({F(1)}))] = empty_sieve("sigma_z")
    bad = SieveValuation(zx_closed, broken)
    nt_bad = valuation_transformation(bad, g, om)
    assert (not func_check(bad)) and (not is_natural(nt_bad).ok)


def test_func_check_along_pushforward_definition(sz_closed):
    valuation = nu_state_valuation(sz_closed, make_state([1, 1]))
    for arrow in sz_closed.base.arrows.values():
        fn = sz_closed.arrow_function(arrow.id)
        for delta in spectrum_subsets(sz_closed.operators[arrow.dom]):
            image = frozenset(fn[v] for v in delta)
            assert valuation.values[(arrow.cod, image)] == push_sieve(
                sz_closed.base, arrow, valuation.values[(arrow.dom, delta)]
            )


# --- global-section search over the dual presheaf ----------------------------

def test_sz_closed_sections(sz_closed):
    assert len(ks_global_section_search(sz_closed)) == 2


def test_zx_closed_sections(zx_closed):
    secs = ks_global_section_search(zx_closed)
    assert len(secs) == 4


def test_colorable3_sections_match_coloring_oracle(colorable3):
    from oracles import enumerate_one_per_basis_colorings

    secs = ks_global_section_search(colorable3)
    # Five rays, two triads sharing ray 0.
    colorings = enumerate_one_per_basis_colorings(5, [(0, 1, 2), (0, 3, 4)])
    assert len(colorings) == 5
    assert len(secs) == 5
    # The rank-one questions biject sections with colorings.
    ray_questions = ["b1[1]", "b1[2]", "b1[3]", "b2[2]", "b2[3]"]
    induced = {
        tuple(int(sec.choice[q]) for q in ray_questions) for sec in secs
    }
    assert induced == set(colorings)


def test_pruned_coloring_count_matches_every_coloring():
    from oracles import count_one_per_basis_colorings, enumerate_one_per_basis_colorings

    rng = random.Random(5)
    for _ in range(200):
        n_rays = rng.randint(1, 10)
        bases = [
            tuple(sorted(rng.sample(range(n_rays), rng.randint(1, min(4, n_rays)))))
            for _ in range(rng.randint(0, 6))
        ]
        assert count_one_per_basis_colorings(n_rays, bases) == len(
            enumerate_one_per_basis_colorings(n_rays, bases)
        )


def test_dim2_categories_have_sections(sz_unclosed, sz_closed, zx_unclosed, zx_closed):
    for ocat in (sz_unclosed, sz_closed, zx_unclosed, zx_closed):
        assert len(ks_global_section_search(ocat)) >= 1
