"""Acceptance suite.

Every criterion is exact (integer counts and rational equalities; the only
tolerance anywhere is the 30-second wall-clock bound on the dim-4
obstruction run) and prints one PASS/FAIL line. Run with ``pytest
tests/test_acceptance.py -v -s`` to see the lines as they happen.
"""

import io
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction as F

from sievelogic.cli import main
from sievelogic.fincat import arrows_from
from sievelogic.heyting import (
    excluded_middle_violations,
    make_topology,
    open_set_heyting,
    principal_sieve,
    sieve_algebra,
    sieve_join,
    sieve_leq,
    sieve_not,
    validate_heyting_table,
)
from sievelogic.presheaf import (
    characteristic_arrow,
    enumerate_natural_transformations,
    enumerate_subobjects,
    is_natural,
    make_presheaf,
    omega_presheaf,
    subobject_from_arrow,
    terminal_presheaf,
    validate_presheaf,
)
from sievelogic.quantum import (
    born_prob,
    coarse_graining_presheaf,
    dual_presheaf,
    ks_global_section_search,
    make_state,
    nu_state,
    nu_state_valuation,
    func_check,
    spectral_projector,
    spectrum_subsets,
    valuation_transformation,
)
from sievelogic.scenario import parse_scenario

from conftest import ALL_CATEGORY_FIXTURES, OPERATOR_CATEGORY_FIXTURES, bundled_fixture
from oracles import dense_mat_vec, projector_leq


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {title}")
        raise
    print(f"ACCEPTANCE {number} PASS: {title}")


def _run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def _pick_states(dim):
    if dim == 2:
        return [make_state([1, 0]), make_state([1, 1]), make_state([2, -3])]
    if dim == 3:
        return [make_state([1, 0, 0]), make_state([1, 1, -1])]
    return [make_state([1, 0, 0, 0]), make_state([1, 1, 1, 1])]


def test_criterion_1_kochen_specker_reproduction():
    with criterion(1, "dim-4 18-ray obstruction: search and coloring oracle both find 0"):
        started = time.monotonic()
        path = str(bundled_fixture("cabello18.scn"))
        code, out = _run_cli("ks-search", path, "--format", "record")
        assert code == 0
        record = dict(line.split(" ", 1) for line in out.splitlines())
        assert record["sections"] == "0"
        assert record["certificate"] == "KS-obstruction"

        # Independent oracle: exhaustive enumeration of all 2^18 ray
        # colorings under the one-distinguished-ray-per-context constraint.
        scn = parse_scenario(bundled_fixture("cabello18.scn").read_text())
        ray_index: dict[tuple, int] = {}
        bases = []
        for op in scn.operators:
            basis = []
            for _, vecs in op.eigendata:
                ray = tuple(e.re for e in vecs[0])
                basis.append(ray_index.setdefault(ray, len(ray_index)))
            bases.append(tuple(basis))
        assert len(ray_index) == 18
        masks = [sum(1 << i for i in basis) for basis in bases]
        admissible = 0
        for coloring in range(1 << 18):
            if all((coloring & m).bit_count() == 1 for m in masks):
                admissible += 1
        assert admissible == 0

        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_2_dimension_two_control(
    sz_unclosed, sz_closed, zx_unclosed, zx_closed, generated_scenarios
):
    with criterion(2, "every dim-2 fixture keeps a global section; lone context has exactly 2"):
        assert len(ks_global_section_search(sz_unclosed)) == 2
        for ocat in (sz_closed, zx_unclosed, zx_closed):
            assert len(ks_global_section_search(ocat)) >= 1
        dim2 = [g for g in generated_scenarios if g.dim == 2]
        assert dim2
        for g in dim2:
            assert len(ks_global_section_search(g.category)) >= 1


def test_criterion_3_func_suite(generated_scenarios):
    with criterion(3, "functional composition holds for every generated state valuation"):
        assert len(generated_scenarios) >= 50
        assert {g.dim for g in generated_scenarios} == {2, 3, 4}
        checked = 0
        for g in generated_scenarios:
            coarse = coarse_graining_presheaf(g.category)
            omega = omega_presheaf(g.category.base)
            for state in g.states:
                valuation = nu_state_valuation(g.category, state)
                assert func_check(valuation)
                nt = valuation_transformation(valuation, coarse, omega)
                check = is_natural(nt)
                assert check.ok, f"seed {g.seed}: {check.witness}"
                checked += 1
        assert checked >= 50


def test_criterion_4_classifier_bijection(request):
    with criterion(4, "subobjects and arrows into the classifier biject on every in-guard case"):
        chain2 = request.getfixturevalue("chain2")
        cases = []
        for name in ALL_CATEGORY_FIXTURES:
            value = request.getfixturevalue(name)
            cat = getattr(value, "base", value)
            cases.append((name, terminal_presheaf(cat)))
        for name in ("one_object", "two_free", "chain2", "chain3", "antichain2", "vposet"):
            cases.append((name, omega_presheaf(request.getfixturevalue(name))))
        for name in ("sz_unclosed", "sz_closed", "vshape3"):
            cases.append((name, dual_presheaf(request.getfixturevalue(name))))
        cases.append(("sz_unclosed", coarse_graining_presheaf(
            request.getfixturevalue("sz_unclosed"))))
        cases.append(("chain2", make_presheaf(
            chain2,
            {"p": ["a", "b"], "q": ["c"]},
            {"id_p": {"a": "a", "b": "b"}, "id_q": {"c": "c"},
             "p->q": {"a": "c", "b": "c"}},
        )))
        cases.append(("chain2", make_presheaf(
            chain2,
            {"p": ["x"], "q": ["y", "z"]},
            {"id_p": {"x": "x"}, "id_q": {"y": "y", "z": "z"},
             "p->q": {"x": "y"}},
        )))

        from sievelogic.errors import SizeLimitExceeded

        ran = 0
        categories_used = set()
        for name, x in cases:
            omega = omega_presheaf(x.cat)
            try:
                subs = enumerate_subobjects(x)
                nts = enumerate_natural_transformations(x, omega)
            except SizeLimitExceeded:
                continue
            assert len(subs) == len(nts), name
            for sub in subs:
                chi = characteristic_arrow(sub, omega)
                assert is_natural(chi)
                back = subobject_from_arrow(chi)
                assert back.sub.object_sets == sub.sub.object_sets, name
            for chi in nts:
                k = subobject_from_arrow(chi)
                chi_back = characteristic_arrow(k, omega)
                assert chi_back.components == chi.components, name
            ran += 1
            categories_used.add(id(x.cat))
        assert ran >= 20, f"only {ran} cases ran"
        assert len(categories_used) >= 5


def test_criterion_5_heyting_laws(request, vposet):
    with criterion(5, "all sieve algebras satisfy the Heyting laws; excluded middle fails on the witnesses"):
        for name in ALL_CATEGORY_FIXTURES:
            value = request.getfixturevalue(name)
            cat = getattr(value, "base", value)
            for obj in cat.objects:
                table = sieve_algebra(cat, obj)
                check = validate_heyting_table(table)
                assert check, f"{name}.{obj}: {check.witness}"
                top = principal_sieve(cat, obj)
                for sv in table.elements:
                    assert sieve_leq(sieve_join(sv, sieve_not(cat, sv)), top)
        # The V-poset witness: a single-branch sieve misses its complement.
        from sievelogic.heyting import Sieve
        branch = Sieve("p", frozenset({"p->q"}))
        joined = sieve_join(branch, sieve_not(vposet, branch))
        assert joined != principal_sieve(vposet, "p")
        # The Sierpinski witness.
        table = open_set_heyting(
            make_topology(["a", "b"], [[], ["a"], ["a", "b"]])
        )
        assert excluded_middle_violations(table) == (frozenset({"a"}),)


def test_criterion_6_monotonicity_and_born_exactness(
    request, cabello, generated_scenarios
):
    with criterion(6, "coarse-graining monotonicity, Born exactness, and both certainty routes agree"):
        categories = [
            request.getfixturevalue(name) for name in OPERATOR_CATEGORY_FIXTURES
        ]
        categories.append(cabello)
        categories.extend(g.category for g in generated_scenarios[:10])
        for ocat in categories:
            for arrow in ocat.base.arrows.values():
                fn = ocat.arrow_function(arrow.id)
                dom_op = ocat.operators[arrow.dom]
                cod_op = ocat.operators[arrow.cod]
                for delta in spectrum_subsets(dom_op):
                    image = frozenset(fn[v] for v in delta)
                    assert projector_leq(
                        spectral_projector(dom_op, delta),
                        spectral_projector(cod_op, image),
                    )
        # Born exactness: exact rationals summing to one over each spectrum.
        for ocat in categories[:6]:
            dim = next(iter(ocat.operators.values())).dim
            for state in _pick_states(dim):
                for op in ocat.operators.values():
                    probs = [born_prob(state, op, [a]) for a in op.spectrum]
                    assert all(isinstance(p, F) for p in probs)
                    assert sum(probs) == 1
        # Both lines of the state-valuation definition agree everywhere.
        for ocat in categories[:6] + [g.category for g in generated_scenarios[:5]]:
            dim = next(iter(ocat.operators.values())).dim
            for state in _pick_states(dim)[:2]:
                for name, op in ocat.operators.items():
                    for delta in spectrum_subsets(op):
                        sieve = nu_state(ocat, state, name, delta)
                        for arrow in arrows_from(ocat.base, name):
                            fn = ocat.arrow_function(arrow.id)
                            image = frozenset(fn[v] for v in delta)
                            cod_op = ocat.operators[arrow.cod]
                            fixpoint = (
                                dense_mat_vec(
                                    spectral_projector(cod_op, image), state.vector
                                ) == state.vector
                            )
                            certain = born_prob(state, cod_op, image) == 1
                            assert fixpoint == certain
                            assert (arrow.id in sieve.members) == certain


def test_criterion_7_total_proposition_law(request, generated_scenarios):
    with criterion(7, "the full-spectrum proposition is totally true in every state and context"):
        categories = [
            request.getfixturevalue(name) for name in OPERATOR_CATEGORY_FIXTURES
        ]
        categories.extend(g.category for g in generated_scenarios[:15])
        for ocat in categories:
            dim = next(iter(ocat.operators.values())).dim
            for state in _pick_states(dim):
                for name, op in ocat.operators.items():
                    sieve = nu_state(ocat, state, name, op.spectrum)
                    assert sieve == principal_sieve(ocat.base, name)
        for g in generated_scenarios:
            for state in g.states:
                for name, op in g.category.operators.items():
                    sieve = nu_state(g.category, state, name, op.spectrum)
                    assert sieve == principal_sieve(g.category.base, name)


def test_criterion_8_functor_validation(request, cabello):
    with criterion(8, "classifier, dual, coarse-graining and terminal presheaves all pass the functor laws"):
        for name in ALL_CATEGORY_FIXTURES:
            value = request.getfixturevalue(name)
            cat = getattr(value, "base", value)
            for x in (terminal_presheaf(cat), omega_presheaf(cat)):
                check = validate_presheaf(x)
                assert check.ok, f"{name}: {check.witness}"
        for name in OPERATOR_CATEGORY_FIXTURES:
            ocat = request.getfixturevalue(name)
            for x in (dual_presheaf(ocat), coarse_graining_presheaf(ocat)):
                check = validate_presheaf(x)
                assert check.ok, f"{name}: {check.witness}"
        for x in (
            terminal_presheaf(cabello.base),
            omega_presheaf(cabello.base),
            dual_presheaf(cabello),
            coarse_graining_presheaf(cabello),
        ):
            check = validate_presheaf(x)
            assert check.ok, check.witness
