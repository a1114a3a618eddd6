"""Finite categories with eager, total validation.

A category is stored as explicit object and arrow tokens plus one rule
composing any composable pair, checked when it is built, so every other
module can trust any :class:`FinCategory` it is handed.
:func:`build_category` validates a user-supplied table, then composes by
it: identity arrows, domain/codomain bookkeeping, the identity laws, and
associativity over every composable triple. :func:`thin_category` builds
posets and the operator preorder from their related pairs, one arrow per
pair, named ``id_p`` or ``p->q``, and composes by the endpoints, so it
stores no table and is associative by construction; the relation must be
transitive, which :func:`poset_to_category` checks on user input.

Composition order: for ``g: C -> B`` and ``f: B -> A`` the composite is
``compose(cat, f, g) = f after g : C -> A``. All modules use this order.
Arrow identity is nominal (by token); outside thin categories parallel
arrows may coexist.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import Frozen, SieveLogicError


class CategoryError(SieveLogicError):
    """Structural violation detected while building or using a category."""


class MissingIdentity(CategoryError):
    pass


class CompositionDomainMismatch(CategoryError):
    pass


class AssociativityViolation(CategoryError):
    pass


class IdentityLawViolation(CategoryError):
    pass


class NotAPoset(CategoryError):
    pass


class UnknownObject(CategoryError):
    pass


class UnknownArrow(CategoryError):
    pass


class NotComposable(CategoryError):
    pass


# Objects are opaque string tokens, unique within one category.
ObjectId = str


class Arrow(Frozen):
    """An arrow ``id: dom -> cod``, identified by its token; immutable.

    A plain class, not a tuple: reports read arrow fields tens of
    thousands of times, and a slot is read two to three times faster than
    a named-tuple field.
    """

    __slots__ = _fields = ("id", "dom", "cod")

    def __init__(self, id: str, dom: ObjectId, cod: ObjectId):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)


class Check(NamedTuple):
    """The outcome of a diagnostic check; falsy on failure, with a witness
    naming what failed."""

    ok: bool
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.ok


class FinCategory:
    """An immutable, fully validated finite category; ``compose(f, g)``
    gives the token of ``f after g`` for a composable pair of its arrows.
    Instances come from :func:`build_category` or :func:`thin_category`;
    nothing mutates them afterwards, so they are safe to share across threads.
    """

    __slots__ = ("objects", "arrows", "identities", "_compose", "_by_dom",
                 "_identity_ids")

    def __init__(
        self,
        objects: tuple[str, ...],
        arrows: dict[str, Arrow],
        identities: dict[str, str],
        compose: Callable[[Arrow, Arrow], str],
    ):
        self.objects = objects
        self.arrows = arrows
        self.identities = identities
        self._compose = compose
        by_dom: dict[str, list[Arrow]] = {obj: [] for obj in objects}
        for a in arrows.values():
            by_dom[a.dom].append(a)
        self._by_dom = {obj: tuple(sorted(lst, key=lambda a: a.id)) for obj, lst in by_dom.items()}
        self._identity_ids = frozenset(identities.values())

    def __repr__(self) -> str:
        return f"FinCategory({len(self.objects)} objects, {len(self.arrows)} arrows)"

    def arrow(self, arrow_id: str) -> Arrow:
        try:
            return self.arrows[arrow_id]
        except KeyError:
            raise UnknownArrow(f"no arrow with token {arrow_id!r}") from None

    def identity(self, obj: str) -> Arrow:
        try:
            return self.arrows[self.identities[obj]]
        except KeyError:
            raise UnknownObject(f"no object with token {obj!r}") from None

    def is_identity(self, arrow_id: str) -> bool:
        return arrow_id in self._identity_ids

    @property
    def composition(self) -> dict[tuple[str, str], str]:
        """``{(f_id, g_id): f after g}`` over every composable pair, g in
        arrow order and f by token; derived afresh on each read."""
        return {(f.id, g.id): self._compose(f, g)
                for g in self.arrows.values() for f in self._by_dom[g.cod]}

    def compose_ids(self, f_id: str, g_id: str) -> str:
        """Token of ``f after g``; raises NotComposable when undefined."""
        f, g = self.arrows.get(f_id), self.arrows.get(g_id)
        if f is None or g is None or g.cod != f.dom:
            raise NotComposable(f"arrows {f_id!r} after {g_id!r} do not compose")
        return self._compose(f, g)


def arrows_from(cat: FinCategory, obj: str) -> tuple[Arrow, ...]:
    """All arrows with domain ``obj`` (the identity included), sorted by token."""
    try:
        return cat._by_dom[obj]
    except KeyError:
        raise UnknownObject(f"no object with token {obj!r}") from None


def compose(cat: FinCategory, f: Arrow, g: Arrow) -> Arrow:
    """The composite ``f after g`` for ``g: C -> B`` and ``f: B -> A``."""
    for a in (f, g):
        if cat.arrows.get(a.id) != a:
            raise UnknownArrow(f"arrow {a.id!r} does not belong to this category")
    if g.cod != f.dom:
        raise NotComposable(
            f"cod of {g.id!r} is {g.cod!r} but dom of {f.id!r} is {f.dom!r}"
        )
    return cat.arrows[cat._compose(f, g)]


def _tokens(
    objects: Iterable[str], arrows: Iterable[Arrow]
) -> tuple[tuple[str, ...], dict[str, Arrow]]:
    """Objects and arrows by token, rejecting duplicate and dangling tokens."""
    objs = tuple(objects)
    obj_set = set(objs)
    if len(obj_set) != len(objs):
        raise CategoryError("duplicate object tokens")
    arrow_map: dict[str, Arrow] = {}
    for a in arrows:
        if a.id in arrow_map:
            raise CategoryError(f"duplicate arrow token {a.id!r}")
        if a.dom not in obj_set:
            raise UnknownObject(f"arrow {a.id!r} has unknown domain {a.dom!r}")
        if a.cod not in obj_set:
            raise UnknownObject(f"arrow {a.id!r} has unknown codomain {a.cod!r}")
        arrow_map[a.id] = a
    return objs, arrow_map


def build_category(
    objects: Iterable[str],
    arrows: Iterable[Arrow],
    identities: Mapping[str, str],
    composition_table: Mapping[tuple[str, str], str],
) -> FinCategory:
    """Validate and assemble a finite category.

    ``composition_table`` maps ``(f_id, g_id)`` to the token of ``f after g``.
    Entries forced by the identity laws may be omitted; everything else must
    be present. Raises MissingIdentity, CompositionDomainMismatch,
    AssociativityViolation or IdentityLawViolation, naming the offending
    arrows.
    """
    objs, arrow_map = _tokens(objects, arrows)
    ident: dict[str, str] = {}
    for obj in objs:
        if obj not in identities:
            raise MissingIdentity(f"object {obj!r} has no identity arrow")
        iid = identities[obj]
        if iid not in arrow_map:
            raise MissingIdentity(f"identity {iid!r} of {obj!r} is not an arrow")
        ia = arrow_map[iid]
        if ia.dom != obj or ia.cod != obj:
            raise MissingIdentity(
                f"identity {iid!r} of {obj!r} has endpoints {ia.dom!r} -> {ia.cod!r}"
            )
        ident[obj] = iid

    identity_ids = set(ident.values())
    table: dict[tuple[str, str], str] = {}
    for (f_id, g_id), h_id in composition_table.items():
        for a_id in (f_id, g_id, h_id):
            if a_id not in arrow_map:
                raise UnknownArrow(f"composition table mentions unknown arrow {a_id!r}")
        f, g, h = arrow_map[f_id], arrow_map[g_id], arrow_map[h_id]
        if g.cod != f.dom:
            raise CompositionDomainMismatch(
                f"table defines {f_id!r} after {g_id!r} but cod {g.cod!r} != dom {f.dom!r}"
            )
        # The identity laws fix entries involving identities outright.
        forced = f_id if g_id in identity_ids else (g_id if f_id in identity_ids else None)
        if forced is not None and h_id != forced:
            raise IdentityLawViolation(
                f"table entry {f_id!r} after {g_id!r} = {h_id!r} violates the "
                f"identity law (expected {forced!r})"
            )
        if h.dom != g.dom or h.cod != f.cod:
            raise CompositionDomainMismatch(
                f"composite of {f_id!r} after {g_id!r} must go "
                f"{g.dom!r} -> {f.cod!r}, got {h_id!r}: {h.dom!r} -> {h.cod!r}"
            )
        table[(f_id, g_id)] = h_id

    # Identity laws force id after f = f and f after id = f; user entries
    # for these pairs were checked above.
    for a in arrow_map.values():
        table.setdefault((ident[a.cod], a.id), a.id)
        table.setdefault((a.id, ident[a.dom]), a.id)

    cat = FinCategory(objs, arrow_map, ident, lambda f, g: table[f.id, g.id])
    # Totality on composable pairs.
    for g in arrow_map.values():
        for f in arrows_from(cat, g.cod):
            if (f.id, g.id) not in table:
                raise CompositionDomainMismatch(
                    f"no composite defined for {f.id!r} after {g.id!r}"
                )

    # Associativity over every composable triple.
    for h in arrow_map.values():
        for g in arrows_from(cat, h.cod):
            gh = table[(g.id, h.id)]
            for f in arrows_from(cat, g.cod):
                fg = table[(f.id, g.id)]
                if table[(fg, h.id)] != table[(f.id, gh)]:
                    raise AssociativityViolation(
                        f"({f.id!r} after {g.id!r}) after {h.id!r} != "
                        f"{f.id!r} after ({g.id!r} after {h.id!r})"
                    )

    return cat


def thin_category(
    objects: Iterable[str], related: Iterable[tuple[str, str]]
) -> FinCategory:
    """The thin category with one arrow per related pair ``(dom, cod)``,
    identities ``(p, p)`` included, named ``id_p`` or ``p->q``; the arrows
    keep the order of ``related``.

    The composite of ``f: q -> r`` after ``g: p -> q`` is the arrow
    ``p -> r``, read off the relation, which must therefore be transitive.
    Raises MissingIdentity unless the relation is reflexive, and
    CategoryError if two arrows share a token.
    """
    between = {(p, q): f"id_{p}" if p == q else f"{p}->{q}" for p, q in related}
    objs, arrow_map = _tokens(objects, (Arrow(a, p, q) for (p, q), a in between.items()))
    identities: dict[str, str] = {}
    for obj in objs:
        if (obj, obj) not in between:
            raise MissingIdentity(f"object {obj!r} has no identity arrow")
        identities[obj] = between[(obj, obj)]
    return FinCategory(objs, arrow_map, identities, lambda f, g: between[g.dom, f.cod])


def poset_to_category(
    elements: Sequence[str],
    leq_relation: Iterable[tuple[str, str]],
) -> FinCategory:
    """The thin category of a finite poset: one arrow ``p -> q`` iff p <= q.

    ``leq_relation`` is the full set of related pairs, reflexive pairs
    included or not (reflexivity is required either way and checked).
    Raises NotAPoset with a witness on any axiom failure.
    """
    elems = tuple(elements)
    # Pairs left after the identities, unknown elements included, become
    # arrows; the thin constructor rejects those with unknown endpoints.
    rel = set(leq_relation) - {(p, p) for p in elems}
    for p, q in rel:
        if p != q and (q, p) in rel:
            raise NotAPoset(f"antisymmetry fails: {p!r} <= {q!r} and {q!r} <= {p!r}")

    try:
        cat = thin_category(elems, [(p, p) for p in elems] + sorted(rel))
    except CategoryError as exc:
        raise NotAPoset(str(exc)) from None
    for f in cat.arrows.values():
        for g in arrows_from(cat, f.cod):  # rel holds no pair (p, p)
            if f.dom != g.cod and (f.dom, g.cod) not in rel:
                raise NotAPoset(
                    f"transitivity fails: {f.dom!r} -> {f.cod!r} -> {g.cod!r} "
                    f"but no arrow {f.dom!r} -> {g.cod!r}"
                )
    return cat
