"""Sieves with their full Heyting-algebra structure, and finite open-set
Heyting algebras.

A sieve on an object ``A`` is a set of arrows out of ``A`` closed under
post-composition; the set of all sieves on ``A`` is a Heyting algebra with
the principal sieve as unit and the empty sieve as null. In a thin (poset)
category a sieve is the same thing as an upper set of codomains, and a
read-only codomain view is provided for that case.

Sieves are stored as explicit arrow-token sets, never as codomain sets, so
the same code serves thin and non-thin categories. Enumeration and the
operation tables work on bit masks over ``arrows_from(obj)`` instead: the
mask of an arrow's post-composites fixes which sets are sieves, and meet,
join and implication become a few integer operations per pair. The
per-pair operations (``sieve_meet``, ``sieve_implies``, ...) stay as the
definitional reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import SieveLogicError, SizeLimitExceeded
from .fincat import Arrow, Check, FinCategory, NotAPoset, UnknownArrow, arrows_from


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


@dataclass(frozen=True, slots=True)
class Sieve:
    """A post-composition-closed set of arrow tokens out of ``base``."""

    base: str
    members: frozenset[str]

    def sorted_members(self) -> tuple[str, ...]:
        return tuple(sorted(self.members))

    def __contains__(self, arrow_id: str) -> bool:
        return arrow_id in self.members


def empty_sieve(base: str) -> Sieve:
    return Sieve(base, frozenset())


def principal_sieve(cat: FinCategory, obj: str) -> Sieve:
    """The sieve of all arrows out of ``obj``; the unit element of its algebra."""
    return Sieve(obj, frozenset(a.id for a in arrows_from(cat, obj)))


def is_sieve(cat: FinCategory, base: str, arrow_ids: Iterable[str]) -> bool:
    """True iff every member has domain ``base`` and post-composites stay inside."""
    ids = set(arrow_ids)
    for arrow_id in ids:
        a = cat.arrow(arrow_id)  # raises UnknownArrow
        if a.dom != base:
            return False
    for arrow_id in ids:
        a = cat.arrows[arrow_id]
        for g in arrows_from(cat, a.cod):
            if cat.compose_ids(g.id, arrow_id) not in ids:
                return False
    return True


def make_sieve(cat: FinCategory, base: str, arrow_ids: Iterable[str]) -> Sieve:
    """Checked constructor; raises if the set is not a sieve on ``base``."""
    ids = frozenset(arrow_ids)
    if not is_sieve(cat, base, ids):
        raise SieveLogicError(f"not a sieve on {base!r}: {sorted(ids)}")
    return Sieve(base, ids)


def _closure_masks(cat: FinCategory, obj: str) -> tuple[tuple[Arrow, ...], list[int]]:
    """The arrows out of ``obj`` and, for each arrow ``f``, the bit mask
    (over that order) of its post-composites ``g after f``; ``f`` itself is
    one of them. A set is a sieve iff it contains the mask of each member."""
    outs = arrows_from(cat, obj)
    if len(outs) > MAX_OUT_ARROWS:
        raise SizeLimitExceeded(
            f"object {obj!r} has {len(outs)} outgoing arrows; "
            f"sieve enumeration is capped at {MAX_OUT_ARROWS}",
            MAX_OUT_ARROWS,
        )
    index = {a.id: i for i, a in enumerate(outs)}
    ext = []
    for a in outs:
        mask = 0
        for g in arrows_from(cat, a.cod):
            mask |= 1 << index[cat.compose_ids(g.id, a.id)]
        ext.append(mask)
    return outs, ext


def all_sieves(cat: FinCategory, obj: str) -> tuple[Sieve, ...]:
    """Every sieve on ``obj`` exactly once, lexicographic by arrow tokens.

    Branches on the lowest undecided arrow: taking it in takes in its
    post-composites, leaving it out leaves out every arrow that has it as a
    post-composite. Neither choice can contradict an earlier one, since
    post-composites of post-composites are post-composites, so every leaf
    is a distinct sieve and the walk costs O(sieves * arrows).
    """
    outs, ext = _closure_masks(cat, obj)
    n = len(outs)
    below = [sum(1 << j for j in range(n) if ext[j] >> i & 1) for i in range(n)]
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

    sieves = [
        Sieve(obj, frozenset(outs[i].id for i in range(n) if s >> i & 1))
        for s in found
    ]
    sieves.sort(key=lambda sv: sv.sorted_members())
    return tuple(sieves)


def _same_base(s1: Sieve, s2: Sieve) -> str:
    if s1.base != s2.base:
        raise BaseMismatch(f"sieve bases differ: {s1.base!r} vs {s2.base!r}")
    return s1.base


def sieve_leq(s1: Sieve, s2: Sieve) -> bool:
    _same_base(s1, s2)
    return s1.members <= s2.members


def sieve_meet(s1: Sieve, s2: Sieve) -> Sieve:
    return Sieve(_same_base(s1, s2), s1.members & s2.members)


def sieve_join(s1: Sieve, s2: Sieve) -> Sieve:
    return Sieve(_same_base(s1, s2), s1.members | s2.members)


def sieve_implies(cat: FinCategory, s1: Sieve, s2: Sieve) -> Sieve:
    """Relative pseudo-complement: the largest sieve S with S meet s1 <= s2.

    An arrow ``f: A -> B`` belongs iff every post-composite ``g after f``
    that lands in ``s1`` also lands in ``s2``.
    """
    base = _same_base(s1, s2)
    members = set()
    for f in arrows_from(cat, base):
        ok = True
        for g in arrows_from(cat, f.cod):
            gf = cat.compose_ids(g.id, f.id)
            if gf in s1.members and gf not in s2.members:
                ok = False
                break
        if ok:
            members.add(f.id)
    return Sieve(base, frozenset(members))


def sieve_not(cat: FinCategory, s: Sieve) -> Sieve:
    """Pseudo-complement: arrows none of whose post-composites land in ``s``."""
    return sieve_implies(cat, s, empty_sieve(s.base))


def push_sieve(cat: FinCategory, f: Arrow, s: Sieve) -> Sieve:
    """Push a sieve on ``dom f`` forward to ``cod f``.

    The result is ``{h out of cod f | h after f in s}``; when ``f`` itself
    belongs to ``s`` this is the whole principal sieve on ``cod f``.
    """
    if cat.arrows.get(f.id) != f:
        raise UnknownArrow(f"arrow {f.id!r} does not belong to this category")
    if f.dom != s.base:
        raise BaseMismatch(
            f"arrow {f.id!r} starts at {f.dom!r} but the sieve is based at {s.base!r}"
        )
    members = frozenset(
        h.id for h in arrows_from(cat, f.cod)
        if cat.compose_ids(h.id, f.id) in s.members
    )
    return Sieve(f.cod, members)


def codomain_view(cat: FinCategory, s: Sieve) -> frozenset[str]:
    """The upper set of codomains a sieve selects, for thin categories only."""
    endpoints = {(a.dom, a.cod) for a in cat.arrows.values()}
    if len(endpoints) != len(cat.arrows):
        raise NotAPoset("codomain view requires a thin category")
    return frozenset(cat.arrows[m].cod for m in s.members)


# ---------------------------------------------------------------------------
# Finite topologies and Heyting-algebra tables


@dataclass(frozen=True)
class FiniteTopology:
    points: frozenset[str]
    opens: frozenset[frozenset[str]]


def make_topology(points: Iterable[str], opens: Iterable[Iterable[str]]) -> FiniteTopology:
    """Validate a finite family of opens; raises NotATopology with a witness."""
    pts = frozenset(points)
    fam = frozenset(frozenset(o) for o in opens)
    for o in fam:
        if not o <= pts:
            raise NotATopology(f"open set {sorted(o)} is not a subset of the points")
    if frozenset() not in fam:
        raise NotATopology("the empty set is not open")
    if pts not in fam:
        raise NotATopology("the full point set is not open")
    for o1 in fam:
        for o2 in fam:
            if o1 | o2 not in fam:
                raise NotATopology(
                    f"not closed under union: {sorted(o1)} | {sorted(o2)}"
                )
            if o1 & o2 not in fam:
                raise NotATopology(
                    f"not closed under intersection: {sorted(o1)} & {sorted(o2)}"
                )
    return FiniteTopology(pts, fam)


@dataclass(frozen=True)
class HeytingAlgebraTable:
    """A finite Heyting algebra given by total operation tables."""

    elements: tuple
    leq: dict
    meet: dict
    join: dict
    implies: dict
    neg: dict
    zero: object
    one: object


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


def open_set_heyting(topology: FiniteTopology) -> HeytingAlgebraTable:
    """The Heyting algebra of open sets: meet is intersection, join is union,
    negation is the interior of the complement.

    ``o1 => o2`` is the interior of ``(points - o1) | o2``: the points whose
    smallest open neighbourhood (the meet of the opens around them) lies
    inside that set.
    """
    opens = sorted(topology.opens, key=_set_key)
    _check_table_size(f"topology on {len(topology.points)} points", len(opens))
    zero = frozenset()
    one = topology.points
    nbhd = {p: one.intersection(*(o for o in opens if p in o)) for p in one}
    leq, meet, join, implies = {}, {}, {}, {}
    for o1 in opens:
        outside = one - o1
        for o2 in opens:
            key = (o1, o2)
            leq[key] = o1 <= o2
            meet[key] = o1 & o2
            join[key] = o1 | o2
            allowed = outside | o2
            implies[key] = frozenset(p for p in one if nbhd[p] <= allowed)
    neg = {o: implies[(o, zero)] for o in opens}
    return HeytingAlgebraTable(tuple(opens), leq, meet, join, implies, neg, zero, one)


def sieve_algebra(cat: FinCategory, obj: str) -> HeytingAlgebraTable:
    """The Heyting algebra of all sieves on ``obj``, tabulated.

    Each sieve is a bit mask over ``arrows_from(obj)``: ``<=`` is mask
    containment, meet and join are ``&`` and ``|``, and ``s1 => s2`` keeps
    the arrows none of whose post-composites lie in ``s1`` but not ``s2``.
    Every cell holds one of the shared elements, looked up by its mask.
    """
    sieves = all_sieves(cat, obj)
    _check_table_size(f"object {obj!r}", len(sieves))
    outs, ext = _closure_masks(cat, obj)
    index = {a.id: i for i, a in enumerate(outs)}
    masks = [sum(1 << index[m] for m in sv.members) for sv in sieves]
    by_mask = dict(zip(masks, sieves))
    implied = {}  # m1 & ~m2 -> s1 => s2
    leq, meet, join, implies = {}, {}, {}, {}
    for s1, m1 in zip(sieves, masks):
        for s2, m2 in zip(sieves, masks):
            key = (s1, s2)
            bad = m1 & ~m2
            leq[key] = not bad
            meet[key] = by_mask[m1 & m2]
            join[key] = by_mask[m1 | m2]
            if bad not in implied:
                implied[bad] = by_mask[
                    sum(1 << i for i, e in enumerate(ext) if not e & bad)
                ]
            implies[key] = implied[bad]
    zero = by_mask[0]
    neg = {s: implies[(s, zero)] for s in sieves}
    return HeytingAlgebraTable(
        sieves, leq, meet, join, implies, neg, zero, by_mask[(1 << len(outs)) - 1],
    )


def validate_heyting_table(table: HeytingAlgebraTable) -> Check:
    """Exhaustively check the distributive-lattice laws, the bounds, the
    Heyting adjunction and ``neg x = x => 0``. The witness names the first
    failing law and its elements."""
    els = table.elements
    leq, meet, join, imp = table.leq, table.meet, table.join, table.implies

    if table.zero not in els or table.one not in els:
        return Check(False, "zero or one is not an element")
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
                # The adjunction s <= (s1 => s2) iff s meet s1 <= s2.
                if leq[(x, imp[(y, z)])] != leq[(meet[(x, y)], z)]:
                    return Check(False, f"adjunction fails on {x!r}, {y!r}, {z!r}")
    return Check(True)


def excluded_middle_violations(table: HeytingAlgebraTable) -> tuple:
    """Elements x with ``x join neg x != one`` (empty for Boolean algebras)."""
    return tuple(
        x for x in table.elements if table.join[(x, table.neg[x])] != table.one
    )
