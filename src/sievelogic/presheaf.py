"""Presheaves as covariant set-valued functors on a finite category.

Everything a presheaf stores is explicit: a finite element set per object
and a total map per arrow. Elements are opaque hashable tokens with
equality only; any further meaning (projectors, eigenvalues) lives in the
quantum layer. The covariant convention is used throughout: all arrow
maps push forward.

The module provides the sieve-valued subobject classifier, characteristic
arrows and their converse, and three deterministic searches on one
forward-checking engine over int bitmask domains: global sections, and
the guarded enumerations of subobjects and natural transformations. Each
compiles the arrow maps into constraints, so a value chosen for one
variable narrows the domains of the variables it is linked to.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .errors import SieveLogicError, SizeLimitExceeded
from .fincat import Check, FinCategory, arrows_from
from .heyting import Sieve, all_sieves, principal_sieve, push_sieve


class ComponentDomainMismatch(SieveLogicError):
    pass


class NotASubobject(SieveLogicError):
    pass


class NotNatural(SieveLogicError):
    pass


DEFAULT_NODE_BUDGET = 1 << 20
DEFAULT_ENUM_LOG2 = 20


def element_key(x) -> tuple:
    """A total, run-stable sort key over the element kinds used here."""
    if isinstance(x, Sieve):
        return ("sieve", x.base, x.sorted_members())
    if isinstance(x, frozenset):
        return ("set", tuple(sorted(element_key(e) for e in x)))
    if isinstance(x, (int, Fraction)):
        return ("q", x)
    if isinstance(x, str):
        return ("s", x)
    if isinstance(x, tuple):
        return ("t", tuple(element_key(e) for e in x))
    return ("r", repr(x))


class Presheaf(NamedTuple):
    """A covariant functor to finite sets: ``object_sets`` per object and a
    total ``arrow_maps`` dict per arrow token."""

    cat: FinCategory
    object_sets: dict[str, frozenset]
    arrow_maps: dict[str, dict]

    def at(self, obj: str) -> frozenset:
        return self.object_sets[obj]

    def map(self, arrow_id: str) -> dict:
        return self.arrow_maps[arrow_id]


def make_presheaf(
    cat: FinCategory,
    object_sets: Mapping[str, Iterable],
    arrow_maps: Mapping[str, Mapping],
) -> Presheaf:
    return Presheaf(
        cat,
        {obj: frozenset(els) for obj, els in object_sets.items()},
        {aid: dict(m) for aid, m in arrow_maps.items()},
    )


def validate_presheaf(x: Presheaf) -> Check:
    """Diagnostic functor-law check: identities act as identities and the
    map of a composite is the composite of the maps. Never raises; the
    witness names the first offending arrow (pair)."""
    cat = x.cat
    for obj in cat.objects:
        if obj not in x.object_sets:
            return Check(False, f"no element set for object {obj!r}")
    for a in cat.arrows.values():
        m = x.arrow_maps.get(a.id)
        if m is None:
            return Check(False, f"no map for arrow {a.id!r}")
        if set(m.keys()) != set(x.object_sets[a.dom]):
            return Check(False, f"map of {a.id!r} is not total on its domain")
        for v in m.values():
            if v not in x.object_sets[a.cod]:
                return Check(False, f"map of {a.id!r} leaves its codomain")
    for obj, iid in cat.identities.items():
        m = x.arrow_maps[iid]
        for e in x.object_sets[obj]:
            if m[e] != e:
                return Check(False, f"identity law fails at {obj!r} on {e!r}")
    for (f_id, g_id), h_id in cat.composition.items():
        mf, mg, mh = x.arrow_maps[f_id], x.arrow_maps[g_id], x.arrow_maps[h_id]
        for e in x.object_sets[cat.arrows[g_id].dom]:
            if mf[mg[e]] != mh[e]:
                return Check(
                    False, f"composition law fails for {f_id!r} after {g_id!r} on {e!r}"
                )
    return Check(True)


def terminal_presheaf(cat: FinCategory) -> Presheaf:
    """The terminal presheaf: a singleton at every object."""
    star = "*"
    return Presheaf(
        cat,
        {obj: frozenset((star,)) for obj in cat.objects},
        {aid: {star: star} for aid in cat.arrows},
    )


def omega_presheaf(cat: FinCategory) -> Presheaf:
    """The subobject classifier: all sieves per object, arrows push forward."""
    sets = {obj: all_sieves(cat, obj) for obj in cat.objects}
    maps = {}
    for a in cat.arrows.values():
        maps[a.id] = {s: push_sieve(cat, a, s) for s in sets[a.dom]}
    return Presheaf(cat, {obj: frozenset(sv) for obj, sv in sets.items()}, maps)


class NaturalTransformation(NamedTuple):
    source: Presheaf
    target: Presheaf
    components: dict[str, dict]


def is_natural(nt: NaturalTransformation) -> Check:
    """True iff every square commutes; the witness names the failing arrow."""
    x, y = nt.source, nt.target
    if x.cat is not y.cat and x.cat.arrows != y.cat.arrows:
        raise ComponentDomainMismatch("source and target live on different categories")
    for obj in x.cat.objects:
        comp = nt.components.get(obj)
        if comp is None or set(comp.keys()) != set(x.object_sets[obj]):
            raise ComponentDomainMismatch(
                f"component at {obj!r} is not a total map on the source set"
            )
        for v in comp.values():
            if v not in y.object_sets[obj]:
                raise ComponentDomainMismatch(
                    f"component at {obj!r} does not land in the target set"
                )
    for a in x.cat.arrows.values():
        n_dom, n_cod = nt.components[a.dom], nt.components[a.cod]
        xm, ym = x.arrow_maps[a.id], y.arrow_maps[a.id]
        for e in x.object_sets[a.dom]:
            if ym[n_dom[e]] != n_cod[xm[e]]:
                return Check(False, a.id)
    return Check(True)


class Subobject(NamedTuple):
    """A per-object subset family ``sub`` of ``parent`` closed under the maps."""

    sub: Presheaf
    parent: Presheaf


def validate_subobject(s: Subobject) -> Check:
    x, k = s.parent, s.sub
    for obj in x.cat.objects:
        if not k.object_sets.get(obj, frozenset()) <= x.object_sets[obj]:
            return Check(False, f"subset inclusion fails at {obj!r}")
    for a in x.cat.arrows.values():
        xm = x.arrow_maps[a.id]
        km = k.arrow_maps.get(a.id, {})
        for e in k.object_sets.get(a.dom, frozenset()):
            if xm[e] not in k.object_sets.get(a.cod, frozenset()):
                return Check(False, f"not closed under {a.id!r} at {e!r}")
            if km.get(e) != xm[e]:
                return Check(False, f"map of {a.id!r} is not the restriction at {e!r}")
    return Check(True)


def _restriction(parent: Presheaf, sets: dict[str, frozenset]) -> Subobject:
    """The family ``sets`` with ``parent``'s maps restricted to it, unchecked."""
    maps = {
        aid: {e: m[e] for e in sets[parent.cat.arrows[aid].dom]}
        for aid, m in parent.arrow_maps.items()
    }
    return Subobject(Presheaf(parent.cat, sets, maps), parent)


def subobject_from_family(parent: Presheaf, family: Mapping[str, Iterable]) -> Subobject:
    """Build a Subobject from per-object subsets, restricting the maps."""
    s = _restriction(parent, {o: frozenset(family.get(o, ())) for o in parent.cat.objects})
    check = validate_subobject(s)
    if not check:
        raise NotASubobject(check.witness)
    return s


def characteristic_arrow(
    k: Subobject, omega: Presheaf | None = None
) -> NaturalTransformation:
    """The classifying arrow of a subobject: at stage ``A`` an element ``x``
    is sent to the sieve of arrows pushing ``x`` into the subobject."""
    check = validate_subobject(k)
    if not check:
        raise NotASubobject(check.witness)
    x = k.parent
    cat = x.cat
    if omega is None:
        omega = omega_presheaf(cat)
    components: dict[str, dict] = {}
    for obj in cat.objects:
        comp = {}
        for e in x.object_sets[obj]:
            members = frozenset(
                f.id for f in arrows_from(cat, obj)
                if x.arrow_maps[f.id][e] in k.sub.object_sets[f.cod]
            )
            comp[e] = Sieve(obj, members)
        components[obj] = comp
    return NaturalTransformation(x, omega, components)


def subobject_from_arrow(chi: NaturalTransformation) -> Subobject:
    """The converse of the classifier: pull back the principal sieves."""
    check = is_natural(chi)
    if not check:
        raise NotNatural(f"naturality fails at arrow {check.witness!r}")
    x = chi.source
    cat = x.cat
    family = {
        obj: frozenset(
            e for e in x.object_sets[obj]
            if chi.components[obj][e] == principal_sieve(cat, obj)
        )
        for obj in cat.objects
    }
    try:
        return subobject_from_family(x, family)
    except NotASubobject as exc:
        raise NotNatural(
            f"arrow does not classify a subobject (is the target the "
            f"sieve classifier?): {exc}"
        ) from None


def enumerate_subobjects(
    x: Presheaf, max_total_elements: int = DEFAULT_ENUM_LOG2
) -> list[Subobject]:
    """Every family of subsets closed under the arrow maps, exactly once,
    in ascending bit-mask order per object (bit ``i`` is the ``i``-th
    element in ``element_key`` order), the first object most significant.

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
    # One out (0) / in (1) variable per element, each object's last element
    # first; along every arrow an element in the family forces its image in,
    # so every solution is closed.
    els = {obj: sorted(x.object_sets[obj], key=element_key)[::-1] for obj in x.cat.objects}
    var = {cell: v for v, cell in enumerate((o, e) for o in els for e in els[o])}
    initial, links = _constraints([2] * len(var), [
        (var[a.dom, e], var[a.cod, x.arrow_maps[a.id][e]], [0b11, 0b10])
        for a in x.cat.arrows.values() for e in x.object_sets[a.dom]
    ])
    results = []
    for values in _forward_check(initial, links, math.inf)[0]:
        k = iter(values)  # each object's cells are contiguous
        results.append(_restriction(x, {o: frozenset(e for e in els[o] if next(k)) for o in els}))
    return results


class GlobalSection(NamedTuple):
    """A choice of one element per object satisfying the matching condition."""

    choice: dict[str, object]


def check_global_section(x: Presheaf, gs: GlobalSection) -> bool:
    for a in x.cat.arrows.values():
        if x.arrow_maps[a.id][gs.choice[a.dom]] != gs.choice[a.cod]:
            return False
    return all(gs.choice[obj] in x.object_sets[obj] for obj in x.cat.objects)


class SectionSearchResult(NamedTuple):
    """The sections found, the values tried (``nodes``), the values whose
    propagation emptied a domain (``prunes``) and the object order."""

    sections: tuple[GlobalSection, ...]
    nodes: int
    prunes: int
    order: tuple[str, ...]


def _search_order(cat: FinCategory) -> tuple[str, ...]:
    """Fixed backtracking order: repeatedly take the object with the most
    already-ordered constraint neighbours, breaking ties by descending
    out-degree and then by token. Highly connected hubs come first, so
    every later object is checked against assigned neighbours immediately.
    """
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


# links[i]: (j, row) pairs; row[k] masks the values left at variable j
# while variable i takes its value k.
_Links = list[list[tuple[int, list[int]]]]


def _constraints(
    widths: list[int], arcs: Iterable[tuple[int, int, list[int]]]
) -> tuple[list[int], _Links]:
    """The initial domains and links of ``_forward_check``: variable ``i``
    ranges over ``widths[i]`` values, and each arc ``(i, j, forward)`` links
    ``i`` to ``j`` by its forward row and ``j`` back to ``i`` by the preimage
    row. An arc from a variable to itself instead keeps the values ``k``
    that ``forward[k]`` allows: for a map, its fixed points."""
    initial = [(1 << w) - 1 for w in widths]
    links: _Links = [[] for _ in widths]
    for i, j, forward in arcs:
        if i == j:
            initial[i] &= sum(1 << k for k, row in enumerate(forward) if row >> k & 1)
            continue
        preimage = [0] * widths[j]
        for k, row in enumerate(forward):
            while row:
                low = row & -row
                preimage[low.bit_length() - 1] |= 1 << k
                row ^= low
        links[i].append((j, forward))
        links[j].append((i, preimage))
    return initial, links


def _forward_check(
    initial: list[int], links: _Links, node_budget: float
) -> tuple[list[list[int]], int, int]:
    """Forward checking over int bitmask domains: every choice of one
    value index per variable that the links allow, in lexicographic order,
    with the values tried (nodes) and those pruned. Assigning value ``k`` to
    variable ``i`` ANDs ``row[k]`` into each linked domain, a domain left
    with one value propagates in turn, and one that empties cuts the branch.
    Trying more than ``node_budget`` values raises SizeLimitExceeded."""
    n = len(initial)

    def propagate(domains: list[int], queue: list[int]) -> bool:
        """Narrow the neighbours of every one-value domain on ``queue``;
        False as soon as a domain empties."""
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
    # stack[i]: the domains on reaching depth i and the values of variable i
    # still to try; explicit, so depth is not bounded by the recursion limit.
    stack: list[tuple[list[int], int]] = []

    def descend(domains: list[int]) -> None:
        if len(stack) == n:
            solutions.append([d.bit_length() - 1 for d in domains])
        else:
            stack.append((domains, domains[len(stack)]))

    nodes = prunes = 0
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


def global_section_search(
    x: Presheaf, node_budget: int = DEFAULT_NODE_BUDGET
) -> SectionSearchResult:
    """``_forward_check`` with one variable per object in ``_search_order``,
    ranging over its elements in ``element_key`` order, and a functional arc
    per non-identity arrow: the sections and their order are those of plain
    backtracking."""
    cat = x.cat
    order = _search_order(cat)
    pos = {obj: i for i, obj in enumerate(order)}
    elements = [sorted(x.object_sets[obj], key=element_key) for obj in order]
    bits = [{e: 1 << k for k, e in enumerate(els)} for els in elements]
    initial, links = _constraints([len(els) for els in elements], [
        (pos[a.dom], pos[a.cod],
         [bits[pos[a.cod]].get(x.arrow_maps[a.id][e], 0) for e in elements[pos[a.dom]]])
        for a in cat.arrows.values() if not cat.is_identity(a.id)
    ])
    solutions, nodes, prunes = _forward_check(initial, links, node_budget)
    sections = tuple(
        GlobalSection({obj: elements[pos[obj]][values[pos[obj]]] for obj in cat.objects})
        for values in solutions
    )
    return SectionSearchResult(sections, nodes, prunes, order)


def global_sections(
    x: Presheaf, node_budget: int = DEFAULT_NODE_BUDGET
) -> list[GlobalSection]:
    """Complete, duplicate-free list of global sections, deterministic order."""
    return list(global_section_search(x, node_budget).sections)


def enumerate_natural_transformations(
    x: Presheaf, y: Presheaf, max_log2: float = DEFAULT_ENUM_LOG2
) -> list[NaturalTransformation]:
    """Exhaustive enumeration of arrows ``x -> y``, lexicographic by
    component: objects in ``cat.objects`` order, then each object's source
    elements and target values in ``element_key`` order.

    Guarded by the product of ``|Y(A)| ** |X(A)|`` over objects staying at
    or below ``2**max_log2``.
    """
    objs = x.cat.objects
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
    # One variable per source element, ranging over the target set; every
    # arrow f (identities too) is a functional arc from (A, e) to
    # (cod f, X(f)(e)) through Y(f).
    var = {cell: v for v, cell in enumerate((obj, e) for obj in objs for e in x_els[obj])}
    bits = {obj: {e: 1 << k for k, e in enumerate(els)} for obj, els in y_els.items()}
    arcs = []
    for a in x.cat.arrows.values():
        xm, ym = x.arrow_maps[a.id], y.arrow_maps[a.id]
        forward = [bits[a.cod].get(ym[v], 0) for v in y_els[a.dom]]
        arcs.extend((var[a.dom, e], var[a.cod, xm[e]], forward) for e in x_els[a.dom])
    initial, links = _constraints([len(y_els[obj]) for obj, _ in var], arcs)
    results = []
    for values in _forward_check(initial, links, math.inf)[0]:
        k = iter(values)  # each object's cells are contiguous
        results.append(NaturalTransformation(x, y, {
            obj: {e: y_els[obj][next(k)] for e in x_els[obj]} for obj in objs
        }))
    return results
