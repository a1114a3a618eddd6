"""Sieves with their full Heyting-algebra structure, and finite open-set
Heyting algebras.

A sieve on an object ``A`` is a set of arrows out of ``A`` closed under
post-composition; the set of all sieves on ``A`` is a Heyting algebra with
the principal sieve as unit and the empty sieve as null.

Sieves are stored as explicit arrow-token sets, never as codomain sets, so
the same code serves thin and non-thin categories. Enumeration and the
operation tables work on bit masks over ``arrows_from(obj)`` instead: the
mask of an arrow's post-composites fixes which sets are sieves, and meet,
join and implication become a few integer operations per pair. The
per-pair operations (``sieve_meet``, ``sieve_implies``, ...), the checked
constructors, pushforward, the thin-category codomain view and the law
check ``validate_heyting_table`` are the definitional reference no report
runs: they live in ``topos`` and resolve here on first access.

A Heyting table is stored as rows of element indices, one row per element
for meet, join and implies plus one not row, filled by one mask kernel for
sieves and for open sets alike. The pair-keyed ``leq``/``meet``/``join``/
``implies``/``neg`` mappings are read-only views over those rows, built
only when first read; the law check and the CLI read the rows.
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import or_
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import Frozen, SieveLogicError, SizeLimitExceeded, lazy_names
from .fincat import Arrow, FinCategory, arrows_from

__getattr__, __dir__ = lazy_names(globals(), {"Check": "fincat", **dict.fromkeys((
    "codomain_view", "empty_sieve", "is_sieve", "make_sieve", "make_topology",
    "principal_sieve", "push_sieve", "sieve_implies", "sieve_join", "sieve_leq",
    "sieve_meet", "sieve_not", "validate_heyting_table",
), "topos")})


class BaseMismatch(SieveLogicError):
    """Two sieves (or a sieve and an arrow) disagree about their base object."""


class NotATopology(SieveLogicError):
    pass


# Sieve enumeration cap; fixture categories stay at or below 16 outgoing
# arrows per object, the hard stop at 20 matches the package-wide 2**20
# enumeration guard.
MAX_OUT_ARROWS = 20

# Heyting-table cap: an algebra of n elements fills n**2 cells in each of
# its operation tables, so this admits up to 1,024 elements.
MAX_TABLE_CELLS = 1 << 20


class Sieve(NamedTuple):
    """A post-composition-closed set of arrow tokens out of ``base``."""

    base: str
    members: frozenset[str]

    def sorted_members(self) -> tuple[str, ...]:
        return tuple(sorted(self.members))

    def __contains__(self, arrow_id: str) -> bool:
        return arrow_id in self.members


def _sieve_masks(cat: FinCategory, obj: str) -> tuple[tuple[Arrow, ...], list[int], list[int]]:
    """The arrows out of ``obj``, the bit mask over them of each sieve on
    ``obj``, once and unordered, and the closure table: ``below[j]`` holds
    each arrow ``f`` with ``j`` among its post-composites ``g after f``, the
    transpose of ``ext[f]`` (``f`` among them), filled in the same pass.

    Branches on the lowest undecided arrow: taking it in takes in its
    post-composites, leaving it out leaves out every arrow that has it as a
    post-composite. Neither choice can contradict an earlier one, since
    post-composites of post-composites are post-composites, so every leaf
    is a distinct sieve and the walk costs O(sieves * arrows).
    """
    outs = arrows_from(cat, obj)
    n = len(outs)
    if n > MAX_OUT_ARROWS:
        raise SizeLimitExceeded(
            f"object {obj!r} has {n} outgoing arrows; "
            f"sieve enumeration is capped at {MAX_OUT_ARROWS}",
            MAX_OUT_ARROWS,
        )
    index = {a.id: i for i, a in enumerate(outs)}
    ext, below = [0] * n, [0] * n
    for i, a in enumerate(outs):
        for g in arrows_from(cat, a.cod):
            j = index[cat.compose_ids(g.id, a.id)]
            ext[i] |= 1 << j
            below[j] |= 1 << i
    full = (1 << n) - 1
    found = []
    stack = [(0, 0)]  # (arrows taken in, arrows left out)
    while stack:
        taken, left = stack.pop()
        free = full & ~(taken | left)
        if not free:
            found.append(taken)
            continue
        i = (free & -free).bit_length() - 1
        stack.append((taken, left | below[i]))
        stack.append((taken | ext[i], left))
    return outs, found, below


def _named_sieves(obj: str, outs: tuple[Arrow, ...], masks: list[int]) -> tuple[Sieve, ...]:
    """Sorts ``masks`` in place by their bits (the arrows are sorted by
    token, so this orders the sieves by token) and returns their sieves."""
    n = len(outs)
    masks.sort(key=lambda s: [i for i in range(n) if s >> i & 1])
    return tuple(
        Sieve(obj, frozenset(outs[i].id for i in range(n) if s >> i & 1)) for s in masks
    )


def all_sieves(cat: FinCategory, obj: str) -> tuple[Sieve, ...]:
    """Every sieve on ``obj`` exactly once, lexicographic by arrow tokens."""
    outs, masks, _ = _sieve_masks(cat, obj)
    return _named_sieves(obj, outs, masks)


# ---------------------------------------------------------------------------
# Finite topologies and Heyting-algebra tables


class FiniteTopology(NamedTuple):
    points: frozenset[str]
    opens: frozenset[frozenset[str]]


class HeytingAlgebraTable(Frozen):
    """A finite Heyting algebra given by total operation tables.

    The tables are stored as rows of element indices: ``meet_rows[i][j]``
    is the index in ``elements`` of ``elements[i] meet elements[j]``, and
    likewise for join and implies; ``not_row[i]`` is the index of
    ``neg elements[i]``. The bounds are the meet and the join of all the
    elements, and ``x <= y`` iff ``x => y`` is the top. The pair-keyed
    ``leq``/``meet``/``join``/``implies`` mappings and the ``neg`` mapping
    are read-only views, built on first read; their values are the
    table's own element objects.

    Immutable, and equal and hashed by its five fields. ``cached_property``
    stores the views in the instance ``__dict__`` directly, which is why
    this is a plain class and not a tuple.
    """

    _fields = ("elements", "meet_rows", "join_rows", "implies_rows", "not_row")

    elements: tuple
    meet_rows: tuple[tuple[int, ...], ...]
    join_rows: tuple[tuple[int, ...], ...]
    implies_rows: tuple[tuple[int, ...], ...]
    not_row: tuple[int, ...]

    def __init__(self, elements, meet_rows, join_rows, implies_rows, not_row):
        self.__dict__.update(
            elements=elements, meet_rows=meet_rows, join_rows=join_rows,
            implies_rows=implies_rows, not_row=not_row,
        )

    @cached_property
    def zero_index(self) -> int:
        return reduce(lambda i, j: self.meet_rows[i][j], range(len(self.elements)))

    @cached_property
    def one_index(self) -> int:
        return reduce(lambda i, j: self.join_rows[i][j], range(len(self.elements)))

    @property
    def zero(self):
        return self.elements[self.zero_index]

    @property
    def one(self):
        return self.elements[self.one_index]

    def _pair_view(self, rows, value) -> Mapping:
        els = self.elements
        return MappingProxyType({
            (x, y): value(k) for x, row in zip(els, rows) for y, k in zip(els, row)
        })

    @cached_property
    def leq(self) -> Mapping:
        one = self.one_index
        return self._pair_view(self.implies_rows, lambda k: k == one)

    @cached_property
    def meet(self) -> Mapping:
        return self._pair_view(self.meet_rows, self.elements.__getitem__)

    @cached_property
    def join(self) -> Mapping:
        return self._pair_view(self.join_rows, self.elements.__getitem__)

    @cached_property
    def implies(self) -> Mapping:
        return self._pair_view(self.implies_rows, self.elements.__getitem__)

    @cached_property
    def neg(self) -> Mapping:
        els = self.elements
        return MappingProxyType({x: els[k] for x, k in zip(els, self.not_row)})


class _Implied(dict):
    """Bad mask ``m1 & ~m2`` -> index of ``m1 => m2``, filled on first
    lookup: the complement of the closure of the bad mask, the union of
    ``below[j]`` over its bits ``j``. The closure is reflexive and
    transitive, so a bit already in the union adds nothing and is skipped."""

    def __init__(self, below: list[int], pos: dict[int, int]):
        super().__init__()
        self.below, self.pos, self.full = below, pos, (1 << len(below)) - 1

    def __missing__(self, bad: int) -> int:
        hit, rest = 0, bad
        while rest:
            hit |= self.below[(rest & -rest).bit_length() - 1]
            rest &= ~hit
        k = self[bad] = self.pos[self.full ^ hit]
        return k


def _mask_table(elements: tuple, masks: list[int], below: list[int]) -> HeytingAlgebraTable:
    """The table of ``elements``, each given by its bit mask, where the
    masks are closed under ``&``, ``|`` and the implication that the closure
    table ``below`` gives (see ``_Implied``). Every cell is found by its mask."""
    pos = {m: i for i, m in enumerate(masks)}
    implied = _Implied(below, pos)
    meet = tuple(tuple([pos[m1 & m2] for m2 in masks]) for m1 in masks)
    join = tuple(tuple([pos[m1 | m2] for m2 in masks]) for m1 in masks)
    implies = tuple(tuple([implied[m1 & ~m2] for m2 in masks]) for m1 in masks)
    zero = pos[0]
    return HeytingAlgebraTable(
        elements, meet, join, implies, tuple(row[zero] for row in implies)
    )


def _set_key(o: frozenset) -> tuple:
    return (len(o), tuple(sorted(o)))


def _check_table_size(what: str, elements: int) -> None:
    cells = elements * elements
    if cells > MAX_TABLE_CELLS:
        raise SizeLimitExceeded(
            f"heyting table: {what} has {elements} elements, so {cells} "
            f"table cells, over the guard of {MAX_TABLE_CELLS}",
            MAX_TABLE_CELLS,
        )


def _open_masks(points: frozenset, fam: frozenset) -> tuple[tuple, list[int]]:
    """The opens of ``fam`` in ``_set_key`` order and their bit masks over
    the sorted points. Raises NotATopology naming the first law broken: an
    open outside the points, then the empty and the full set, then each
    pair of opens in order, union before intersection."""
    opens = tuple(sorted(fam, key=_set_key))
    for o in opens:
        if not o <= points:
            raise NotATopology(f"open set {sorted(o)} is not a subset of the points")
    bit = {p: 1 << i for i, p in enumerate(sorted(points))}
    masks = [sum(map(bit.__getitem__, o)) for o in opens]
    known = set(masks)
    if 0 not in known:
        raise NotATopology("the empty set is not open")
    if (1 << len(points)) - 1 not in known:
        raise NotATopology("the full point set is not open")
    for i, (o1, m1) in enumerate(zip(opens, masks)):
        for o2, m2 in zip(opens[i:], masks[i:]):
            if m1 | m2 not in known:
                raise NotATopology(f"not closed under union: {sorted(o1)} | {sorted(o2)}")
            if m1 & m2 not in known:
                raise NotATopology(f"not closed under intersection: {sorted(o1)} & {sorted(o2)}")
    return opens, masks


def open_set_heyting(topology: FiniteTopology) -> HeytingAlgebraTable:
    """The Heyting algebra of open sets: meet is intersection, join is union,
    negation is the interior of the complement.

    Past the table guard, ``_open_masks`` checks the laws on the masks the
    table is built from. ``o1 => o2`` is the interior of ``(points - o1) |
    o2``, the complement of the closure of ``o1 - o2``: the union of the
    point closures, each the complement of the opens that miss its point.
    """
    _check_table_size(f"topology on {len(topology.points)} points", len(topology.opens))
    opens, masks = _open_masks(*topology)
    n = len(topology.points)
    full = (1 << n) - 1
    closure = [full ^ reduce(or_, (m for m in masks if not m >> q & 1), 0) for q in range(n)]
    return _mask_table(opens, masks, closure)


def sieve_algebra(cat: FinCategory, obj: str) -> HeytingAlgebraTable:
    """The Heyting algebra of all sieves on ``obj``, tabulated.

    Each sieve is a bit mask over ``arrows_from(obj)``: meet and join are
    ``&`` and ``|``, and ``s1 => s2`` keeps the arrows none of whose
    post-composites lie in ``s1`` but not ``s2``. The table guard counts the
    masks before any sieve is sorted or named.
    """
    outs, masks, below = _sieve_masks(cat, obj)
    _check_table_size(f"object {obj!r}", len(masks))
    return _mask_table(_named_sieves(obj, outs, masks), masks, below)


def excluded_middle_violations(table: HeytingAlgebraTable) -> tuple:
    """Elements x with ``x join neg x != one`` (empty for Boolean algebras)."""
    one = table.one_index
    return tuple(
        x for x, row, k in zip(table.elements, table.join_rows, table.not_row)
        if row[k] != one
    )
