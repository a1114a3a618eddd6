"""The topos machinery that no report runs; ``fincat``, ``heyting`` and
``presheaf`` resolve these names on first read: the ``Check`` record,
``compose`` and the categories built and checked from a composition table
or a poset; the per-pair sieve operations (the mask kernel's reference),
pushforward, the codomain view, the Heyting-law check and ``make_topology``;
presheaf construction and its law check, the classifier Omega, natural
transformations, subobjects, characteristic arrows both ways, and the
guarded enumerations on the forward-checking engine of ``presheaf``.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import SieveLogicError, SizeLimitExceeded
from .fincat import (
    Arrow, AssociativityViolation, CategoryError, CompositionDomainMismatch, FinCategory,
    IdentityLawViolation, MissingIdentity, NotAPoset, NotComposable, UnknownArrow, _tokens,
    arrows_from, thin_category,
)
from .heyting import (
    BaseMismatch, FiniteTopology, HeytingAlgebraTable, Sieve, _open_masks, all_sieves,
)
from .presheaf import (
    DEFAULT_ENUM_LOG2, DEFAULT_NODE_BUDGET, ComponentDomainMismatch, GlobalSection,
    NotASubobject, NotNatural, Presheaf, _constraints, _forward_check, element_key,
    global_section_search,
)


class Check(NamedTuple):
    """The outcome of a diagnostic check; falsy on failure, with a witness
    naming what failed."""

    ok: bool
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.ok


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


def validate_heyting_table(table: HeytingAlgebraTable) -> Check:
    """Exhaustively check the distributive-lattice laws, the bounds, the
    Heyting adjunction and ``neg x = x => 0``. The witness names the first
    failing law and its elements.

    The three-element laws compare whole rows: for each pair ``(x, y)``
    each side is one row over ``z``, read by an ``itemgetter`` of another
    row (``by[s](r)`` is the row ``z -> r[s[z]]``), and the elements are
    named one ``z`` at a time only once a pair fails. (In a one-element
    table an ``itemgetter`` returns a bare index, so its single pair
    always takes the one-``z``-at-a-time path.)
    """
    els = table.elements
    n = len(els)
    meet, join, imp, neg = table.meet_rows, table.join_rows, table.implies_rows, table.not_row
    zero, one = table.zero_index, table.one_index
    leq = [tuple(k == one for k in row) for row in imp]

    for x in range(n):
        ex = els[x]
        if not leq[zero][x]:
            return Check(False, f"zero not below {ex!r}")
        if not leq[x][one]:
            return Check(False, f"{ex!r} not below one")
        if neg[x] != imp[x][zero]:
            return Check(False, f"neg {ex!r} differs from {ex!r} => zero")
        if not leq[x][x]:
            return Check(False, f"leq not reflexive at {ex!r}")
        if meet[x][x] != x or join[x][x] != x:
            return Check(False, f"idempotence fails at {ex!r}")
    for x in range(n):
        for y in range(n):
            ex, ey = els[x], els[y]
            if leq[x][y] and leq[y][x] and x != y:
                return Check(False, f"leq not antisymmetric on {ex!r}, {ey!r}")
            if leq[x][y] != (meet[x][y] == x):
                return Check(False, f"leq/meet disagree on {ex!r}, {ey!r}")
            if leq[x][y] != (join[x][y] == y):
                return Check(False, f"leq/join disagree on {ex!r}, {ey!r}")
            if meet[x][y] != meet[y][x] or join[x][y] != join[y][x]:
                return Check(False, f"commutativity fails on {ex!r}, {ey!r}")
            if meet[x][join[x][y]] != x or join[x][meet[x][y]] != x:
                return Check(False, f"absorption fails on {ex!r}, {ey!r}")
    # Once the pair laws hold, x <= y <= z with x not below z makes
    # meet(meet(x, y), z) = meet(x, z) differ from meet(x, meet(y, z)) = x,
    # so the meet-associativity rows also catch every transitivity failure.
    by_meet, by_join, by_imp = ([itemgetter(*row) for row in rows] for rows in (meet, join, imp))
    for x in range(n):
        mx, jx, lx = meet[x], join[x], leq[x]
        for y in range(n):
            mxy, jxy = mx[y], jx[y]
            if (
                meet[mxy] != by_meet[y](mx)
                or join[jxy] != by_join[y](jx)
                or by_join[y](mx) != by_meet[x](join[mxy])
                or by_meet[y](jx) != by_join[x](meet[jxy])
                or by_imp[y](lx) != leq[mxy]
            ):
                witness = _triple_witness(table, leq, x, y)
                if witness:
                    return Check(False, witness)
    return Check(True)


def _triple_witness(table: HeytingAlgebraTable, leq: list, x: int, y: int) -> str | None:
    """The first three-element law to fail on ``(x, y, z)``, over ``z`` in order."""
    els = table.elements
    meet, join, imp = table.meet_rows, table.join_rows, table.implies_rows
    for z in range(len(els)):
        on = f"{els[x]!r}, {els[y]!r}, {els[z]!r}"
        if leq[x][y] and leq[y][z] and not leq[x][z]:
            return f"transitivity fails on {on}"
        if meet[meet[x][y]][z] != meet[x][meet[y][z]]:
            return f"meet associativity fails on {on}"
        if join[join[x][y]][z] != join[x][join[y][z]]:
            return f"join associativity fails on {on}"
        if meet[x][join[y][z]] != join[meet[x][y]][meet[x][z]]:
            return f"distributivity fails on {on}"
        if join[x][meet[y][z]] != meet[join[x][y]][join[x][z]]:
            return f"dual distributivity fails on {on}"
        # The adjunction s <= (s1 => s2) iff s meet s1 <= s2.
        if leq[x][imp[y][z]] != leq[meet[x][y]][z]:
            return f"adjunction fails on {on}"
    return None


def make_topology(points: Iterable[str], opens: Iterable[Iterable[str]]) -> FiniteTopology:
    """Validate a finite family of opens; raises NotATopology with a witness."""
    topology = FiniteTopology(frozenset(points), frozenset(map(frozenset, opens)))
    _open_masks(*topology)
    return topology


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


def check_global_section(x: Presheaf, gs: GlobalSection) -> bool:
    for a in x.cat.arrows.values():
        if x.arrow_maps[a.id][gs.choice[a.dom]] != gs.choice[a.cod]:
            return False
    return all(gs.choice[obj] in x.object_sets[obj] for obj in x.cat.objects)


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
