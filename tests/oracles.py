"""Independent brute-force oracles the tests check the library against.

These deliberately avoid the code paths they verify: section search is a
full product-space filter or plain backtracking with no propagation,
sieve enumeration is a raw power-set filter (through the definitional
membership test, and as a closure-mask filter over all 2^n subsets), and
the ray colorings are plain bit twiddling, counted ray by ray or listed
from every coloring.
The state-induced sieve is recomputed one arrow at a time from the
codomain's spectral projector, open-set implication is the union of every
open that qualifies, and matrix products sum every term, zeros included.
"""

from __future__ import annotations

import itertools

from sievelogic.errors import SizeLimitExceeded
from sievelogic.exact import QC_ZERO, Matrix, Vector, as_fraction, mat_vec
from sievelogic.fincat import FinCategory, arrows_from
from sievelogic.heyting import FiniteTopology, Sieve, is_sieve
from sievelogic.presheaf import (
    DEFAULT_NODE_BUDGET,
    GlobalSection,
    Presheaf,
    SectionSearchResult,
    _search_order,
    element_key,
)
from sievelogic.quantum import OperatorCategory, State, spectral_projector


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


def backtrack_section_search(
    x: Presheaf, node_budget: int = DEFAULT_NODE_BUDGET
) -> SectionSearchResult:
    """Plain backtracking over objects in the library's fixed order, checking
    each value against the assigned neighbours only: the reference for the
    sections, their order and the node count of the propagating search.
    It cuts no branch by domain wipe-out, so ``prunes`` is 0."""
    cat = x.cat
    order = _search_order(cat)
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


def union_implies(topology: FiniteTopology, o1: frozenset, o2: frozenset) -> frozenset:
    """``o1 => o2`` in the open-set algebra: the union of every open u with
    u & o1 <= o2."""
    best = frozenset()
    for u in topology.opens:
        if u & o1 <= o2:
            best |= u
    return best


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
        fn = ocat.arrow_functions[arrow.id]
        projector = spectral_projector(ocat.operators[arrow.cod], {fn[v] for v in dset})
        if mat_vec(projector, state.vector) == state.vector:
            members.add(arrow.id)
    return frozenset(members)
