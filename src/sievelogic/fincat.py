"""Finite categories with eager, total validation.

A category is stored as explicit object and arrow tokens plus one rule
composing any composable pair, checked when it is built, so every other
module can trust any :class:`FinCategory` it is handed.
:func:`thin_category` builds the operator preorder (and posets) from
their related pairs, one arrow per pair, named ``id_p`` or ``p->q``, and
composes by the endpoints, so it stores no table and is associative by
construction. The categories built from a user-supplied composition table
(``build_category``) or poset (``poset_to_category``), ``compose`` and
the ``Check`` record live in ``topos``, which no report imports, and
resolve here on first access.

Composition order: for ``g: C -> B`` and ``f: B -> A`` the composite is
``compose(cat, f, g) = f after g : C -> A``. All modules use this order.
Arrow identity is nominal (by token); outside thin categories parallel
arrows may coexist.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .errors import Frozen, SieveLogicError, lazy_names

__getattr__, __dir__ = lazy_names(globals(), dict.fromkeys(
    ("Check", "build_category", "compose", "poset_to_category"), "topos"))


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
