"""Presheaves as covariant set-valued functors on a finite category.

Everything a presheaf stores is explicit: a finite element set per object
and a total map per arrow. Elements are opaque hashable tokens with
equality only; any further meaning (projectors, eigenvalues) lives in the
quantum layer. The covariant convention is used throughout: all arrow
maps push forward.

The module holds the global-section search, on one forward-checking
engine over int bitmask domains that compiles the arrow maps into
constraints, so a value chosen for one variable narrows the domains of
the variables it is linked to. The library-only rest lives in ``topos``
and resolves here on first access: construction and the functor-law
check, the sieve-valued subobject classifier, natural transformations,
subobjects and characteristic arrows, and the guarded enumerations of
subobjects and transformations on the same engine.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import SieveLogicError, SizeLimitExceeded, lazy_names
from .fincat import FinCategory
from .heyting import Sieve

__getattr__, __dir__ = lazy_names(globals(), {"Check": "fincat", **dict.fromkeys((
    "NaturalTransformation", "Subobject", "characteristic_arrow", "check_global_section",
    "enumerate_natural_transformations", "enumerate_subobjects", "global_sections",
    "is_natural", "make_presheaf", "omega_presheaf", "subobject_from_arrow",
    "subobject_from_family", "terminal_presheaf", "validate_presheaf", "validate_subobject",
), "topos")})


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


class GlobalSection(NamedTuple):
    """A choice of one element per object satisfying the matching condition."""

    choice: dict[str, object]


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
    A lazy heap gives each next object: placing one pushes its unplaced
    neighbours again with their new counts, and stale entries are skipped.
    """
    import heapq  # here, so that only reports that search pay for the import

    neighbours: dict[str, set[str]] = {obj: set() for obj in cat.objects}
    out_degree = {obj: 0 for obj in cat.objects}
    for a in cat.arrows.values():
        out_degree[a.dom] += 1
        if a.dom != a.cod:
            neighbours[a.dom].add(a.cod)
            neighbours[a.cod].add(a.dom)
    token_rank = {obj: i for i, obj in enumerate(sorted(cat.objects))}
    near = dict.fromkeys(cat.objects, 0)  # ordered neighbours; -1 once ordered itself
    heap = [(0, -out_degree[obj], token_rank[obj], obj) for obj in cat.objects]
    heapq.heapify(heap)
    ordered: list[str] = []
    while heap:
        count, _, _, obj = heapq.heappop(heap)
        if near[obj] != -count:  # ordered already, or a stale count
            continue
        ordered.append(obj)
        near[obj] = -1
        for nb in neighbours[obj]:
            if near[nb] >= 0:
                near[nb] += 1
                heapq.heappush(heap, (-near[nb], -out_degree[nb], token_rank[nb], nb))
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
    Trying more than ``node_budget`` values raises SizeLimitExceeded. One
    domain list serves the search: every narrowing, the trial assignment
    included, first records ``(index, old mask)`` on a trail, and each depth
    undoes the trail to its mark before its next value."""
    n = len(initial)
    domains = initial
    trail: list[tuple[int, int]] = []

    def propagate(queue: list[int]) -> bool:
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
                    trail.append((j, d))
                    domains[j] = narrowed
                    if not narrowed & (narrowed - 1):
                        queue.append(j)
        return True

    solutions: list[list[int]] = []
    # stack[i]: the trail length on reaching depth i and the values of variable
    # i still to try; explicit, so depth is not bounded by the recursion limit.
    stack: list[tuple[int, int]] = []

    def descend() -> None:
        if len(stack) == n:
            solutions.append([d.bit_length() - 1 for d in domains])
        else:
            stack.append((len(trail), domains[len(stack)]))

    nodes = prunes = 0
    if all(initial) and propagate([i for i, d in enumerate(initial) if not d & (d - 1)]):
        descend()
    while stack:
        mark, left = stack[-1]
        if not left:
            stack.pop()
            continue
        i = len(stack) - 1
        bit = left & -left
        stack[-1] = (mark, left ^ bit)
        nodes += 1
        if nodes > node_budget:
            raise SizeLimitExceeded(
                f"global-section search exceeded its node budget of {node_budget}",
                node_budget,
            )
        while len(trail) > mark:
            j, d = trail.pop()
            domains[j] = d
        trail.append((i, domains[i]))
        domains[i] = bit
        if propagate([i]):
            descend()
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
