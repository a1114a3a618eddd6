"""Independent brute-force oracles the tests check the library against.

These deliberately avoid the code paths they verify: section search is a
full product-space filter or plain backtracking with no propagation, in
an order found by a ``max`` over every remaining object at each step,
and the forward-checking engine has a twin that copies every domain at
each node instead of undoing a trail;
subobjects and natural transformations are product-space filters too,
sieve enumeration is a raw power-set filter (through the definitional
membership test, and as a closure-mask filter over all 2^n subsets), and
the ray colorings are plain bit twiddling, counted ray by ray or listed
from every coloring.
The state-induced sieve is recomputed one arrow at a time from the
codomain's spectral projector, open-set implication is the union of every
open that qualifies, a topology's laws are checked on frozensets pair by
pair, and matrix products sum every term, zeros included.
Heyting report fields are rendered, and the Heyting laws checked, through
a table's pair-keyed views, one cell and one element lookup at a time.
A thin category's composites are read off its arrows' endpoints, one
composable pair at a time. The operator category is built from projector
matrices: subset sums of each object's projectors, interned by value,
under a budget of matrix entries. Born probabilities are Rayleigh
quotients of the summed projector matrix.
A change of basis is the Cayley transform of a random skew-Hermitian
matrix, inverted by Gauss-Jordan elimination, so it is exactly unitary.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Iterable, Sequence

from sievelogic.errors import SizeLimitExceeded
from sievelogic.exact import (
    QC,
    QC_ZERO,
    Matrix,
    RationalLike,
    Vector,
    as_fraction,
    identity_matrix,
    is_zero_vector,
    mat_add,
    mat_mul,
    zero_matrix,
)
from sievelogic.fincat import Check, FinCategory, arrows_from, thin_category
from sievelogic.heyting import FiniteTopology, HeytingAlgebraTable, Sieve, is_sieve
from sievelogic.presheaf import (
    DEFAULT_ENUM_LOG2,
    DEFAULT_NODE_BUDGET,
    GlobalSection,
    NaturalTransformation,
    Presheaf,
    SectionSearchResult,
    Subobject,
    element_key,
    subobject_from_family,
)
from sievelogic.quantum import (
    DimensionMismatch,
    NameCollision,
    OperatorCategory,
    SpectralError,
    SpectralOperator,
    State,
    spectral_projector,
    spectrum_subsets,
)


def brute_force_sections(x: Presheaf) -> list[dict]:
    """All matching families, by filtering the full product of choices."""
    objs = x.cat.objects
    pools = [sorted(x.object_sets[o], key=element_key) for o in objs]
    total = 1
    for pool in pools:
        total *= max(len(pool), 1)
        assert total <= 1 << 20, "oracle only runs on fixtures inside the guard"
    sections = []
    for combo in itertools.product(*pools):
        choice = dict(zip(objs, combo))
        if all(
            x.arrow_maps[a.id][choice[a.dom]] == choice[a.cod]
            for a in x.cat.arrows.values()
        ):
            sections.append(choice)
    return sections


def max_search_order(cat: FinCategory) -> tuple[str, ...]:
    """The search order by its definition: repeatedly take the object with
    the most already-ordered constraint neighbours, breaking ties by
    descending out-degree and then by token, with a ``max`` over every
    remaining object at each step. The reference for ``_search_order``."""
    neighbours: dict[str, set[str]] = {obj: set() for obj in cat.objects}
    out_degree = {obj: 0 for obj in cat.objects}
    for a in cat.arrows.values():
        out_degree[a.dom] += 1
        if a.dom != a.cod:
            neighbours[a.dom].add(a.cod)
            neighbours[a.cod].add(a.dom)
    token_rank = {obj: i for i, obj in enumerate(sorted(cat.objects))}
    placed: set[str] = set()
    ordered: list[str] = []
    remaining = set(cat.objects)
    while remaining:
        best = max(
            remaining,
            key=lambda o: (len(neighbours[o] & placed), out_degree[o], -token_rank[o]),
        )
        ordered.append(best)
        placed.add(best)
        remaining.discard(best)
    return tuple(ordered)


def copy_forward_check(
    initial: list[int], links, node_budget: float
) -> tuple[list[list[int]], int, int]:
    """``_forward_check`` with a fresh copy of every domain at each node in
    place of the undo trail: the reference for its solutions, their order,
    ``nodes``, ``prunes`` and the node at which the budget raises."""
    n = len(initial)

    def propagate(domains: list[int], queue: list[int]) -> bool:
        while queue:
            i = queue.pop()
            k = domains[i].bit_length() - 1
            for j, row in links[i]:
                d = domains[j]
                narrowed = d & row[k]
                if narrowed != d:
                    if not narrowed:
                        return False
                    domains[j] = narrowed
                    if not narrowed & (narrowed - 1):
                        queue.append(j)
        return True

    solutions: list[list[int]] = []
    stack: list[tuple[list[int], int]] = []

    def descend(domains: list[int]) -> None:
        if len(stack) == n:
            solutions.append([d.bit_length() - 1 for d in domains])
        else:
            stack.append((domains, domains[len(stack)]))

    nodes = prunes = 0
    initial = list(initial)
    if all(initial) and propagate(
        initial, [i for i, d in enumerate(initial) if not d & (d - 1)]
    ):
        descend(initial)
    while stack:
        domains, left = stack[-1]
        if not left:
            stack.pop()
            continue
        i = len(stack) - 1
        bit = left & -left
        stack[-1] = (domains, left ^ bit)
        nodes += 1
        if nodes > node_budget:
            raise SizeLimitExceeded(
                f"global-section search exceeded its node budget of {node_budget}",
                node_budget,
            )
        trial = domains.copy()
        trial[i] = bit
        if propagate(trial, [i]):
            descend(trial)
        else:
            prunes += 1
    return solutions, nodes, prunes


def backtrack_section_search(
    x: Presheaf, node_budget: int = DEFAULT_NODE_BUDGET
) -> SectionSearchResult:
    """Plain backtracking over objects in ``max_search_order``, checking
    each value against the assigned neighbours only: the reference for the
    sections, their order and the node count of the propagating search.
    It cuts no branch by domain wipe-out, so ``prunes`` is 0."""
    cat = x.cat
    order = max_search_order(cat)
    pos = {obj: i for i, obj in enumerate(order)}
    n = len(order)

    elements = [sorted(x.object_sets[obj], key=element_key) for obj in order]
    against_earlier: list[list] = [[] for _ in range(n)]  # (map, j, outgoing?)
    self_maps: list[list] = [[] for _ in range(n)]
    for a in cat.arrows.values():
        if cat.is_identity(a.id):
            continue
        m = x.arrow_maps[a.id]
        if a.dom == a.cod:
            self_maps[pos[a.dom]].append(m)
        elif pos[a.dom] > pos[a.cod]:
            against_earlier[pos[a.dom]].append((m, pos[a.cod], True))
        else:
            against_earlier[pos[a.cod]].append((m, pos[a.dom], False))

    assignment: list = [None] * n
    sections: list[GlobalSection] = []
    nodes = 0

    def extend(i: int) -> None:
        nonlocal nodes
        if i == n:
            sections.append(
                GlobalSection({obj: assignment[pos[obj]] for obj in cat.objects})
            )
            return
        for v in elements[i]:
            nodes += 1
            if nodes > node_budget:
                raise SizeLimitExceeded(
                    f"global-section search exceeded its node budget of {node_budget}",
                    node_budget,
                )
            if any(m[v] != v for m in self_maps[i]):
                continue
            ok = True
            for m, j, outgoing in against_earlier[i]:
                if outgoing:
                    if m[v] != assignment[j]:
                        ok = False
                        break
                elif m[assignment[j]] != v:
                    ok = False
                    break
            if ok:
                assignment[i] = v
                extend(i + 1)
        assignment[i] = None

    extend(0)
    return SectionSearchResult(tuple(sections), nodes, 0, order)


def product_subobjects(
    x: Presheaf, max_total_elements: int = DEFAULT_ENUM_LOG2
) -> list[Subobject]:
    """Every family of subsets closed under the arrow maps, exactly once:
    the full product of every object's subsets, filtered.

    Guarded: the product of ``2**|X(A)|`` over objects must stay at or
    below ``2**max_total_elements``.
    """
    total = sum(len(x.object_sets[obj]) for obj in x.cat.objects)
    if total > max_total_elements:
        raise SizeLimitExceeded(
            f"subobject enumeration over 2^{total} families exceeds "
            f"the 2^{max_total_elements} guard",
            2 ** max_total_elements,
        )
    objs = x.cat.objects
    per_obj: list[list[frozenset]] = []
    for obj in objs:
        els = sorted(x.object_sets[obj], key=element_key)
        subsets = [
            frozenset(e for i, e in enumerate(els) if mask >> i & 1)
            for mask in range(1 << len(els))
        ]
        per_obj.append(subsets)
    arrows = list(x.cat.arrows.values())
    result = []
    for combo in itertools.product(*per_obj):
        family = dict(zip(objs, combo))
        if all(
            x.arrow_maps[a.id][e] in family[a.cod]
            for a in arrows for e in family[a.dom]
        ):
            result.append(subobject_from_family(x, family))
    return result


def product_natural_transformations(
    x: Presheaf, y: Presheaf, max_log2: float = DEFAULT_ENUM_LOG2
) -> list[NaturalTransformation]:
    """Exhaustive enumeration of arrows ``x -> y`` with early square checks:
    one product of component choices per object, recursing over objects.

    Guarded by the product of ``|Y(A)| ** |X(A)|`` over objects staying at
    or below ``2**max_log2``.
    """
    cat = x.cat
    objs = cat.objects
    x_els = {obj: sorted(x.object_sets[obj], key=element_key) for obj in objs}
    y_els = {obj: sorted(y.object_sets[obj], key=element_key) for obj in objs}

    bound = 0.0
    for obj in objs:
        nx, ny = len(x_els[obj]), len(y_els[obj])
        if nx and ny == 0:
            return []
        if nx and ny > 1:
            bound += nx * math.log2(ny)
    if bound > max_log2:
        raise SizeLimitExceeded(
            f"transformation enumeration needs 2^{bound:.1f} candidates, "
            f"over the 2^{max_log2} guard",
            2 ** max_log2,
        )

    # For the object at position i, the arrows whose squares become fully
    # checkable once components 0..i are all chosen.
    pos = {obj: i for i, obj in enumerate(objs)}
    checkable: list[list] = [[] for _ in objs]
    for a in cat.arrows.values():
        checkable[max(pos[a.dom], pos[a.cod])].append(a)

    components: dict[str, dict] = {}
    result: list[NaturalTransformation] = []

    def extend(i: int) -> None:
        if i == len(objs):
            result.append(NaturalTransformation(x, y, dict(components)))
            return
        obj = objs[i]
        xs = x_els[obj]
        for choice in itertools.product(y_els[obj], repeat=len(xs)):
            comp = dict(zip(xs, choice))
            components[obj] = comp
            if all(
                y.arrow_maps[a.id][components[a.dom][e]]
                == components[a.cod][x.arrow_maps[a.id][e]]
                for a in checkable[i]
                for e in x.object_sets[a.dom]
            ):
                extend(i + 1)
        components.pop(obj, None)

    extend(0)
    return result


def endpoint_table(cat: FinCategory) -> dict[tuple[str, str], str]:
    """The composition table of a thin category, filled from its arrows'
    endpoints: for each arrow f and each g out of ``f.cod``, ``g after f``
    is the arrow ``f.dom -> g.cod``. Fails if that arrow is missing, that
    is, if the relation is not transitive."""
    between = {(a.dom, a.cod): a.id for a in cat.arrows.values()}
    assert len(between) == len(cat.arrows), "not a thin category"
    table = {}
    for f in cat.arrows.values():
        for g in arrows_from(cat, f.cod):
            assert (f.dom, g.cod) in between, (
                f"transitivity fails: {f.dom!r} -> {f.cod!r} -> {g.cod!r}"
            )
            table[(g.id, f.id)] = between[(f.dom, g.cod)]
    return table


def power_set_sieves(cat: FinCategory, obj: str) -> set[frozenset]:
    """Every sieve on obj, found by testing each arrow subset directly."""
    outs = [a.id for a in arrows_from(cat, obj)]
    assert len(outs) <= 16
    found = set()
    for mask in range(1 << len(outs)):
        subset = frozenset(aid for i, aid in enumerate(outs) if mask >> i & 1)
        if is_sieve(cat, obj, subset):
            found.add(subset)
    return found


def subset_filter_sieves(cat: FinCategory, obj: str) -> tuple[Sieve, ...]:
    """Every sieve on obj in ``all_sieves`` order, by walking all 2^n arrow
    subsets s and keeping those that contain the closure mask of each
    member."""
    outs = arrows_from(cat, obj)
    n = len(outs)
    assert n <= 18, "oracle only walks 2^18 subsets or fewer"
    index = {a.id: i for i, a in enumerate(outs)}
    ext = [0] * n
    for i, a in enumerate(outs):
        for g in arrows_from(cat, a.cod):
            ext[i] |= 1 << index[cat.compose_ids(g.id, a.id)]
    # required[s] = union of closure masks over the members of s.
    required = [0] * (1 << n)
    found = []
    for s in range(1 << n):
        if s:
            low = s & -s
            required[s] = required[s ^ low] | ext[low.bit_length() - 1]
        if required[s] & ~s == 0:
            found.append(Sieve(obj, frozenset(outs[i].id for i in range(n) if s >> i & 1)))
    found.sort(key=lambda sv: sv.sorted_members())
    return tuple(found)


def set_topology_defect(pts: frozenset, fam: frozenset) -> str | None:
    """The first topology law ``fam`` breaks, with the witness that
    ``heyting._open_masks`` raises, or None; found by frozenset unions and
    intersections over every pair of opens in ``_set_key`` order."""
    opens = sorted(fam, key=lambda o: (len(o), tuple(sorted(o))))
    for o in opens:
        if not o <= pts:
            return f"open set {sorted(o)} is not a subset of the points"
    if frozenset() not in fam:
        return "the empty set is not open"
    if pts not in fam:
        return "the full point set is not open"
    for i, o1 in enumerate(opens):
        for o2 in opens[i:]:
            if o1 | o2 not in fam:
                return f"not closed under union: {sorted(o1)} | {sorted(o2)}"
            if o1 & o2 not in fam:
                return f"not closed under intersection: {sorted(o1)} & {sorted(o2)}"
    return None


def union_implies(topology: FiniteTopology, o1: frozenset, o2: frozenset) -> frozenset:
    """``o1 => o2`` in the open-set algebra: the union of every open u with
    u & o1 <= o2."""
    best = frozenset()
    for u in topology.opens:
        if u & o1 <= o2:
            best |= u
    return best


def dict_table_pairs(prefix: str, table: HeytingAlgebraTable, label) -> list[tuple[str, str]]:
    """The ``heyting`` report fields of one table, read cell by cell
    through its pair-keyed views: each cell's element is looked up by
    value in the element index."""
    pairs = []
    index = {el: i for i, el in enumerate(table.elements)}
    pairs.append((f"{prefix}.elements", str(len(table.elements))))
    for i, el in enumerate(table.elements):
        pairs.append((f"{prefix}.element.{i}", label(el)))
    pairs.append((f"{prefix}.zero", str(index[table.zero])))
    pairs.append((f"{prefix}.one", str(index[table.one])))
    for op_name, op_table in (
        ("meet", table.meet), ("join", table.join), ("implies", table.implies)
    ):
        for i, e1 in enumerate(table.elements):
            row = ",".join(
                str(index[op_table[(e1, e2)]]) for e2 in table.elements
            )
            pairs.append((f"{prefix}.{op_name}.{i}", row))
    pairs.append(
        (f"{prefix}.not",
         ",".join(str(index[table.neg[e]]) for e in table.elements))
    )
    violations = [x for x in table.elements if table.join[(x, table.neg[x])] != table.one]
    pairs.append((f"{prefix}.excluded_middle_violations", str(len(violations))))
    for i, el in enumerate(violations):
        pairs.append((f"{prefix}.excluded_middle_violation.{i}", label(el)))
    return pairs


def dict_validate_heyting_table(table: HeytingAlgebraTable) -> Check:
    """The Heyting-algebra laws checked one triple at a time through the
    pair-keyed views, in the order and with the witnesses of
    ``validate_heyting_table``."""
    els = table.elements
    leq, meet, join, imp = table.leq, table.meet, table.join, table.implies
    for x in els:
        if not leq[(table.zero, x)]:
            return Check(False, f"zero not below {x!r}")
        if not leq[(x, table.one)]:
            return Check(False, f"{x!r} not below one")
        if table.neg[x] != imp[(x, table.zero)]:
            return Check(False, f"neg {x!r} differs from {x!r} => zero")
        if not leq[(x, x)]:
            return Check(False, f"leq not reflexive at {x!r}")
        if meet[(x, x)] != x or join[(x, x)] != x:
            return Check(False, f"idempotence fails at {x!r}")
    for x in els:
        for y in els:
            if leq[(x, y)] and leq[(y, x)] and x != y:
                return Check(False, f"leq not antisymmetric on {x!r}, {y!r}")
            if leq[(x, y)] != (meet[(x, y)] == x):
                return Check(False, f"leq/meet disagree on {x!r}, {y!r}")
            if leq[(x, y)] != (join[(x, y)] == y):
                return Check(False, f"leq/join disagree on {x!r}, {y!r}")
            if meet[(x, y)] != meet[(y, x)] or join[(x, y)] != join[(y, x)]:
                return Check(False, f"commutativity fails on {x!r}, {y!r}")
            if meet[(x, join[(x, y)])] != x or join[(x, meet[(x, y)])] != x:
                return Check(False, f"absorption fails on {x!r}, {y!r}")
    for x in els:
        for y in els:
            for z in els:
                if leq[(x, y)] and leq[(y, z)] and not leq[(x, z)]:
                    return Check(False, f"transitivity fails on {x!r}, {y!r}, {z!r}")
                if meet[(meet[(x, y)], z)] != meet[(x, meet[(y, z)])]:
                    return Check(False, f"meet associativity fails on {x!r}, {y!r}, {z!r}")
                if join[(join[(x, y)], z)] != join[(x, join[(y, z)])]:
                    return Check(False, f"join associativity fails on {x!r}, {y!r}, {z!r}")
                if meet[(x, join[(y, z)])] != join[(meet[(x, y)], meet[(x, z)])]:
                    return Check(False, f"distributivity fails on {x!r}, {y!r}, {z!r}")
                if join[(x, meet[(y, z)])] != meet[(join[(x, y)], join[(x, z)])]:
                    return Check(False, f"dual distributivity fails on {x!r}, {y!r}, {z!r}")
                if leq[(x, imp[(y, z)])] != leq[(meet[(x, y)], z)]:
                    return Check(False, f"adjunction fails on {x!r}, {y!r}, {z!r}")
    return Check(True)


# --- dense vectors and matrices, which the library itself does not need -----

def matrix(rows: Iterable[Iterable[QC | RationalLike]]) -> Matrix:
    return tuple(tuple(QC.of(e) for e in row) for row in rows)


def outer_self(v: Vector) -> Matrix:
    """The rank-one matrix ``v v†`` (unnormalized)."""
    return tuple(tuple(vi * vj.conj() for vj in v) for vi in v)


def inner(u: Vector, v: Vector) -> QC:
    """Physics-convention inner product, conjugate-linear in the first slot."""
    acc = QC_ZERO
    for x, y in zip(u, v):
        acc = acc + x.conj() * y
    return acc


def norm_sq(v: Vector) -> Fraction:
    value = inner(v, v)
    # <v, v> is real by construction; the imaginary part cancels exactly.
    assert not value.im
    return value.re


def format_complex(value: QC) -> str:
    """A complex entry in the scenario grammar, which parses back to ``value``."""
    if not value.im:
        return str(value.re)
    if not value.re:
        if value.im == 1:
            return "i"
        if value.im == -1:
            return "-i"
        return f"{value.im}i"
    sign = "+" if value.im > 0 else "-"
    return f"{value.re}{sign}{abs(value.im)}i"


def format_vector(v: Vector) -> str:
    """A vector in the scenario grammar, which parses back to ``v``."""
    return "(" + ", ".join(format_complex(e) for e in v) + ")"


def dense_mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The matrix product, summing every term."""
    return tuple(
        tuple(
            sum((a[i][k] * b[k][j] for k in range(len(b))), QC_ZERO)
            for j in range(len(b[0]))
        )
        for i in range(len(a))
    )


def dense_mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(sum((x * y for x, y in zip(row, v)), QC_ZERO) for row in m)


def projector_leq(p: Matrix, q: Matrix) -> bool:
    """Exact subspace containment ``ran p <= ran q`` for projectors p, q."""
    return mat_mul(q, p) == p


def count_one_per_basis_colorings(n_rays: int, bases: list[tuple[int, ...]]) -> int:
    """Number of 0/1 ray assignments giving each basis exactly one 1.

    Rays are colored one at a time in index order, and a partial coloring
    is dropped as soon as a basis holds two 1s, or has every ray colored
    and no 1; so 24 rays take milliseconds instead of 2^24 full colorings.
    ``enumerate_one_per_basis_colorings`` walks every coloring.
    """
    masks = [sum(1 << i for i in basis) for basis in bases]
    if 0 in masks:
        return 0
    # closed_by[r]: the bases whose highest ray is r.
    closed_by = [[m for m in masks if m.bit_length() == r + 1] for r in range(n_rays)]

    def count(r: int, ones: int) -> int:
        if r == n_rays:
            return 1
        total = 0
        for coloring in (ones, ones | 1 << r):
            if all((coloring & m).bit_count() <= 1 for m in masks) and all(
                (coloring & m).bit_count() == 1 for m in closed_by[r]
            ):
                total += count(r + 1, coloring)
        return total

    return count(0, 0)


def enumerate_one_per_basis_colorings(
    n_rays: int, bases: list[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    masks = [sum(1 << i for i in basis) for basis in bases]
    out = []
    for coloring in range(1 << n_rays):
        if all((coloring & m).bit_count() == 1 for m in masks):
            out.append(tuple(coloring >> i & 1 for i in range(n_rays)))
    return out


def projector_fixpoint_sieve(
    ocat: OperatorCategory, state: State, context: str, delta
) -> frozenset[str]:
    """Members of the state-induced sieve at ``(context, delta)``: every arrow
    out of the context whose codomain projector onto the image of delta fixes
    the state, one projector and one matrix-vector product per arrow."""
    dset = frozenset(as_fraction(d) for d in delta)
    members = set()
    for arrow in arrows_from(ocat.base, context):
        fn = ocat.arrow_function(arrow.id)
        projector = spectral_projector(ocat.operators[arrow.cod], {fn[v] for v in dset})
        if dense_mat_vec(projector, state.vector) == state.vector:
            members.add(arrow.id)
    return frozenset(members)


def matrix_born_prob(state: State, op: SpectralOperator, delta) -> Fraction:
    """The Born probability of ``delta`` as the Rayleigh quotient
    <psi, P psi> / <psi, psi>, with P the projector matrix of ``delta``."""
    value = inner(state.vector, dense_mat_vec(spectral_projector(op, delta), state.vector))
    assert not value.im
    return value.re / norm_sq(state.vector)


# Question closure and arrow discovery both walk the 2^n spectral subsets
# of n-level operators, touching dim^2 matrix entries per subset. One
# budget of entries is shared by both steps of a build, and every walk is
# charged before either step starts.
MAX_SUBSET_ENTRIES = 1 << 20


def _structural_key(op: SpectralOperator) -> tuple:
    """Identity up to naming: spectrum plus aligned projector list."""
    return (op.spectrum, op.projectors)


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def gauss_jordan_inverse(m: Matrix) -> Matrix:
    """The inverse of an invertible square matrix by Gauss-Jordan
    elimination over QC, dividing by ``z`` as ``conj(z) / |z|^2``."""
    n = len(m)
    rows = [list(row) + list(unit) for row, unit in zip(m, identity_matrix(n))]
    for c in range(n):
        p = next(r for r in range(c, n) if not rows[r][c].is_zero())
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [x * pivot.conj() / (pivot.re ** 2 + pivot.im ** 2) for x in rows[c]]
        for r in range(n):
            if r != c and not rows[r][c].is_zero():
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return tuple(tuple(row[n:]) for row in rows)


def cayley_unitary(rng: random.Random, dim: int, s: int) -> Matrix:
    """The Cayley transform ``(I - K)(I + K)^-1`` of a random skew-Hermitian
    ``K`` whose entries have real and imaginary parts drawn from [-s, s]:
    exactly unitary over the Gaussian rationals, with no square root.
    ``I + K`` is invertible because the eigenvalues of ``K`` are imaginary."""
    draw = lambda: Fraction(rng.randint(-s, s))
    k = [[QC_ZERO] * dim for _ in range(dim)]
    for i in range(dim):
        k[i][i] = QC(Fraction(0), draw())
        for j in range(i + 1, dim):
            k[i][j] = QC(draw(), draw())
            k[j][i] = -k[i][j].conj()
    eye = identity_matrix(dim)
    return dense_mat_mul(mat_sub(eye, k), gauss_jordan_inverse(mat_add(eye, k)))


def _charge_subsets(spent: int, stage: str, op: SpectralOperator, walks: int) -> int:
    """``spent`` plus ``walks`` walks over the 2^n subsets of ``op``'s
    spectrum; raises SizeLimitExceeded once that passes the budget."""
    n = len(op.spectrum)
    spent += walks * (1 << n) * op.dim * op.dim
    if spent > MAX_SUBSET_ENTRIES:
        raise SizeLimitExceeded(
            f"{stage}: the 2^{n} spectral subsets of operator {op.name!r} "
            f"(dimension {op.dim}) bring the subset work to {spent} matrix "
            f"entries, over the guard of {MAX_SUBSET_ENTRIES}",
            MAX_SUBSET_ENTRIES,
        )
    return spent


def _subset_sums(projectors: Sequence[Matrix]) -> Iterable[tuple[int, Matrix]]:
    """Every nonempty subset of ``projectors`` as (bit mask, sum), depth
    first: each sum is its parent's plus one projector, and only the sums
    on the current path stay alive."""
    n = len(projectors)

    def walk(mask: int, total: Matrix | None, start: int):
        for i in range(start, n):
            child = projectors[i] if total is None else mat_add(total, projectors[i])
            yield mask | 1 << i, child
            yield from walk(mask | 1 << i, child, i + 1)

    return walk(0, None, 0)


def _question_name(op_name: str, delta: Iterable[Fraction]) -> str:
    return f"{op_name}[{','.join(str(v) for v in sorted(delta))}]"


def matrix_operator_category(
    operators: Sequence[SpectralOperator],
    close_under_questions: bool = False,
) -> OperatorCategory:
    """The operator category from projector matrices: the engine's former
    build and the reference for :func:`build_operator_category`.

    With the flag set, every proper nonempty spectral subset of every given
    operator is adjoined as a yes/no operator with spectrum inside {0, 1},
    structurally equal operators are deduplicated, and the two constant
    operators are added once as shared objects. Arrows are all spectrum
    functions between objects (identities included); the underlying
    category is thin. Each arrow is stored, as in the engine, as the
    codomain level index of each domain level.
    """
    seeds = list(operators)
    if not seeds:
        raise SpectralError("an operator category needs at least one operator")
    dim = seeds[0].dim
    names: set[str] = set()
    for op in seeds:
        if op.dim != dim:
            raise DimensionMismatch(
                f"operator {op.name!r} has dimension {op.dim}, expected {dim}"
            )
        if op.name in names:
            raise NameCollision(f"duplicate operator name {op.name!r}")
        names.add(op.name)

    objects: list[SpectralOperator] = list(seeds)
    structural: dict[tuple, str] = {}
    for op in seeds:
        structural.setdefault(_structural_key(op), op.name)

    def adjoin(candidate: SpectralOperator) -> None:
        if _structural_key(candidate) in structural:
            return
        name = candidate.name
        while name in names:
            name = name + "'"
        if name != candidate.name:
            candidate = SpectralOperator(
                name, candidate.dim, candidate.spectrum, candidate.projectors
            )
        names.add(name)
        structural[_structural_key(candidate)] = name
        objects.append(candidate)

    # Closure walks a seed's 2^n subsets and adds at most 2^n yes/no
    # operators, each with 4 subsets for arrow discovery to walk: 5 walks'
    # worth. Arrow discovery walks each seed once more.
    spent = 0
    for op in seeds:
        if close_under_questions:
            spent = _charge_subsets(spent, "question closure", op, 5)
        spent = _charge_subsets(spent, "arrow discovery", op, 1)

    if close_under_questions:
        ident = identity_matrix(dim)
        zero_f, one_f = Fraction(0), Fraction(1)
        for op in seeds:
            subset_sums = dict(_subset_sums(op.projectors))
            bit = {a: 1 << i for i, a in enumerate(op.spectrum)}
            for delta in spectrum_subsets(op):
                if not delta or len(delta) == len(op.spectrum):
                    continue
                p1 = subset_sums[sum(bit[a] for a in delta)]
                p0 = mat_sub(ident, p1)
                adjoin(
                    SpectralOperator(
                        _question_name(op.name, delta), dim, (zero_f, one_f), (p0, p1)
                    )
                )
        # The empty and full subsets collapse to the constants, shared once.
        adjoin(SpectralOperator("const0", dim, (zero_f,), (ident,)))
        adjoin(SpectralOperator("const1", dim, (one_f,), (ident,)))

    op_by_name = {op.name: op for op in objects}

    # Arrow discovery: B is a function of A iff every projector of B is a
    # sum of projectors of A. Each distinct projector gets an int id once;
    # each object then looks up each of its 2^n - 1 subset sums once and
    # records the mask that hits each projector id. B is a codomain iff all
    # its projectors are hit. The hitting masks are then disjoint and cover
    # A (nonzero orthogonal projectors are linearly independent and both
    # families sum to the identity), so they are the blocks of the unique
    # spectrum function and nothing needs checking afterwards.
    interned: dict[Matrix, int] = {}
    projector_ids = [
        tuple(interned.setdefault(p, len(interned)) for p in op.projectors)
        for op in objects
    ]
    holders: dict[int, list[int]] = {}
    for k, ids in enumerate(projector_ids):
        for pid in ids:
            holders.setdefault(pid, []).append(k)

    related: list[tuple[str, str]] = []
    images: list[tuple[int, ...]] = []

    for a_op in objects:
        hit: dict[int, int] = {}
        for mask, total in _subset_sums(a_op.projectors):
            pid = interned.get(total)
            if pid is not None:
                hit[pid] = mask
        for k in sorted({k for pid in hit for k in holders[pid]}):
            if not all(pid in hit for pid in projector_ids[k]):
                continue
            b_op = objects[k]
            image = [None] * len(a_op.spectrum)
            for j, pid in enumerate(projector_ids[k]):
                for i in range(len(image)):
                    if hit[pid] >> i & 1:
                        image[i] = j
            related.append((a_op.name, b_op.name))
            images.append(tuple(image))

    base = thin_category([op.name for op in objects], related)
    return OperatorCategory(base, op_by_name, dict(zip(base.arrows, images)))


def _first_nonzero_column(m: Matrix) -> Vector:
    n = len(m)
    for j in range(n):
        col = tuple(m[i][j] for i in range(n))
        if not is_zero_vector(col):
            return col
    raise SpectralError("projector is the zero matrix")


def matrix_find_arrow(
    a_op: SpectralOperator, b_op: SpectralOperator
) -> dict[Fraction, Fraction] | None:
    """The unique spectrum function carrying ``a_op`` onto ``b_op``, if any,
    from projector matrices: the reference for ``find_arrow``.

    Exists iff every projector of ``b_op`` is an exact sum of projectors of
    ``a_op``. The candidate is located through a range vector of each
    projector and then verified exactly, so the answer is never heuristic.
    """
    if a_op.dim != b_op.dim:
        raise DimensionMismatch(
            f"operators {a_op.name!r} and {b_op.name!r} have different dimensions"
        )
    if len(b_op.spectrum) > len(a_op.spectrum):
        return None
    mapping: dict[Fraction, Fraction] = {}
    for a, pa in zip(a_op.spectrum, a_op.projectors):
        col = _first_nonzero_column(pa)
        target = None
        for b, pb in zip(b_op.spectrum, b_op.projectors):
            if dense_mat_vec(pb, col) == col:
                target = b
                break
        if target is None:
            return None
        mapping[a] = target
    for b, pb in zip(b_op.spectrum, b_op.projectors):
        block = zero_matrix(a_op.dim)
        for a, pa in zip(a_op.spectrum, a_op.projectors):
            if mapping[a] == b:
                block = mat_add(block, pa)
        if block != pb:
            return None
    return mapping
