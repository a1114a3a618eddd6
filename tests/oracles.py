"""Independent brute-force oracles the tests check the library against.

These deliberately avoid the code paths they verify: section search is a
full product-space filter, sieve enumeration is a raw power-set filter
through the definitional membership test, and the ray-coloring count is
plain bit twiddling. The state-induced sieve is recomputed one arrow at a
time from the codomain's spectral projector.
"""

from __future__ import annotations

import itertools

from sievelogic.exact import as_fraction, mat_vec
from sievelogic.fincat import FinCategory, arrows_from
from sievelogic.heyting import is_sieve
from sievelogic.presheaf import Presheaf, element_key
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


def count_one_per_basis_colorings(n_rays: int, bases: list[tuple[int, ...]]) -> int:
    """Number of 0/1 ray assignments giving each basis exactly one 1."""
    masks = [sum(1 << i for i in basis) for basis in bases]
    count = 0
    for coloring in range(1 << n_rays):
        if all((coloring & m).bit_count() == 1 for m in masks):
            count += 1
    return count


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
