"""Exact finite-dimensional operator layer.

Self-adjoint operators are defined by exact spectral data (distinct
rational eigenvalues with Gaussian-rational eigenprojectors), never by
numerical diagonalization, so every check in this module is an exact
equality. Operators form a thin category: there is an arrow ``A -> B``
precisely when some function on the spectrum of ``A`` carries its
spectral data onto ``B``, and that function is then unique.

On top of the category sit the dual presheaf (spectrum elements,
restricted along arrows), whose missing global sections express the
Kochen-Specker obstruction, and the state-induced sieve valuation. The
library-only rest lives in ``spectral`` and resolves here on first
access: projector matrices and the exact verifier, spectral algebras,
functions of an operator, the pairwise arrow test, the coarse-graining
presheaf, whole valuations and the functional-composition check.

States are stored unnormalized. A Born probability is read off the
eigenvector overlaps: the squared overlaps of the state with the
pairwise-orthogonal Gaussian-integer vectors of the levels asked about,
each over its vector's squared norm, summed and divided by the state's
squared norm. All arithmetic stays inside the integers and rationals, and
no projector matrix is built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from operator import or_
from typing import Iterable, NamedTuple, Sequence

from .errors import Frozen, SieveLogicError, SizeLimitExceeded, lazy_names
from .exact import (
    IntVector, Matrix, RationalLike, Vector, as_fraction, int_inner, int_vector,
    is_zero_vector, orthogonal, vector,
)
from .fincat import FinCategory, UnknownObject, arrows_from, thin_category
from .heyting import Sieve
from .presheaf import Presheaf

__getattr__, __dir__ = lazy_names(globals(), {"Check": "fincat", **dict.fromkeys((
    "SieveValuation", "SpectralAlgebra", "_overlaps", "coarse_graining_presheaf", "find_arrow",
    "func_check", "function_of", "ks_global_section_search", "nu_state_valuation",
    "spectral_projector", "spectrum_subsets", "valuation_transformation",
    "verify_spectral_operator",
), "spectral")})


class SpectralError(SieveLogicError):
    """Base class for errors in the exact operator layer."""


class NotOrthogonal(SpectralError):
    pass


class IncompleteBasis(SpectralError):
    pass


class DuplicateEigenvalue(SpectralError):
    pass


class PartialFunction(SpectralError):
    pass


class NotInSpectrum(SpectralError):
    pass


class DimensionMismatch(SpectralError):
    pass


class NameCollision(SpectralError):
    pass


class IncompleteValuation(SpectralError):
    pass


class SpectralOperator:
    """A self-adjoint operator given by its exact spectral decomposition.

    ``vectors`` and ``projectors`` are aligned with the ascending
    ``spectrum``. The Gaussian-integer vectors under an eigenvalue are
    pairwise orthogonal and span its eigenspace; projectors not given are
    derived from them when first read. :func:`make_operator` guarantees
    exactly that the projectors are Hermitian, idempotent, mutually
    orthogonal, and sum to the identity.
    """

    def __init__(self, name: str, dim: int, spectrum: Sequence[Fraction], projectors):
        from .spectral import _orthogonal_columns

        self.name, self.dim, self.spectrum = name, dim, tuple(spectrum)
        self.projectors: tuple[Matrix, ...] = tuple(projectors)
        self.vectors: tuple[tuple[IntVector, ...], ...] = tuple(
            _orthogonal_columns(p) for p in self.projectors
        )

    @classmethod
    def _spanned(cls, name, dim, spectrum, vectors) -> "SpectralOperator":
        """Spanned by ``vectors``; the projectors are derived from them."""
        op = cls.__new__(cls)
        op.name, op.dim, op.spectrum, op.vectors = name, dim, tuple(spectrum), vectors
        return op

    @cached_property
    def projectors(self) -> tuple[Matrix, ...]:
        """Each level's sum of v v-dagger / |v|^2 over its vectors, which
        are pairwise orthogonal: the projector onto their span."""
        from .spectral import _projector

        return tuple(map(_projector, self.vectors))

    def __eq__(self, other):
        return isinstance(other, SpectralOperator) and (
            (self.name, self.dim, self.spectrum, self.projectors)
            == (other.name, other.dim, other.spectrum, other.projectors)
        )

    def __hash__(self):
        return hash((self.name, self.dim, self.spectrum))


class State(Frozen):
    """An unnormalized, nonzero state vector; immutable, equal and hashed
    by its one field ``vector``. A plain class, not a tuple, so that
    ``ints`` can cache in the instance ``__dict__``."""

    _fields = ("vector",)
    vector: Vector

    def __init__(self, vector: Vector):
        self.__dict__["vector"] = vector

    @cached_property
    def ints(self) -> IntVector:
        """The vector scaled onto Gaussian integers, computed once."""
        return int_vector(self.vector)


def make_state(entries: Iterable) -> State:
    v = vector(entries)
    if is_zero_vector(v):
        raise SpectralError("state vector must be nonzero")
    return State(v)


def make_operator(
    name: str,
    dim: int,
    eigendata: Iterable[tuple[RationalLike, Iterable[Sequence]]],
) -> SpectralOperator:
    """Build an operator from (eigenvalue, orthogonal unnormalized
    eigenvectors) groups. ``dim`` pairwise-orthogonal eigenvectors form a
    basis, so the projectors are Hermitian, idempotent, mutually orthogonal
    and sum to the identity by construction.

    Raises NotOrthogonal, IncompleteBasis or DuplicateEigenvalue, naming
    the operator and the offending data.
    """
    groups: list[tuple[Fraction, list[IntVector]]] = []
    seen: set[Fraction] = set()
    total = 0
    for raw_val, raw_vecs in eigendata:
        val = as_fraction(raw_val)
        if val in seen:
            raise DuplicateEigenvalue(f"operator {name!r}: eigenvalue {val} repeated")
        seen.add(val)
        vecs = [vector(v) for v in raw_vecs]
        if not vecs:
            raise IncompleteBasis(f"operator {name!r}: eigenvalue {val} has no vectors")
        for v in vecs:
            if len(v) != dim:
                raise DimensionMismatch(
                    f"operator {name!r}: eigenvector of {val} has length {len(v)}"
                )
            if is_zero_vector(v):
                raise IncompleteBasis(f"operator {name!r}: zero vector under {val}")
        ints = [int_vector(v) for v in vecs]
        for i in range(len(ints)):
            for j in range(i + 1, len(ints)):
                if not orthogonal(ints[i], ints[j]):
                    raise NotOrthogonal(
                        f"operator {name!r}: vectors {i} and {j} under eigenvalue "
                        f"{val} are not orthogonal"
                    )
        total += len(vecs)
        groups.append((val, ints))
    if total != dim:
        raise IncompleteBasis(
            f"operator {name!r}: {total} eigenvectors for dimension {dim}"
        )
    groups.sort(key=lambda g: g[0])
    for i, (a, ints_a) in enumerate(groups):
        for b, ints_b in groups[i + 1:]:
            if not all(orthogonal(u, v) for u in ints_a for v in ints_b):
                raise NotOrthogonal(
                    f"operator {name!r}: projectors of {a} and {b} are not orthogonal"
                )
    return SpectralOperator._spanned(
        name, dim, (g[0] for g in groups), tuple(tuple(g[1]) for g in groups)
    )


def _coarsening(op: SpectralOperator, name: str, spectrum, masks) -> SpectralOperator:
    """The operator with eigenvalue ``spectrum[k]`` on the sum of the
    eigenspaces of ``op`` in ``masks[k]`` (bit i: ``op.spectrum[i]``)."""
    return SpectralOperator._spanned(
        name, op.dim, spectrum,
        tuple(tuple(v for i in _bits(m) for v in op.vectors[i]) for m in masks),
    )


def _levels(op: SpectralOperator, delta: Iterable[RationalLike]) -> list[int]:
    """The indices in ``op.spectrum`` of the eigenvalues in ``delta``."""
    dset = frozenset(as_fraction(d) for d in delta)
    extra = dset - set(op.spectrum)
    if extra:
        shown = ",".join(map(str, sorted(extra)))
        raise NotInSpectrum(f"{{{shown}}} not in the spectrum of {op.name!r}")
    return [i for i, a in enumerate(op.spectrum) if a in dset]


def _subset_masks(n: int) -> list[int]:
    """Every mask over n levels, by size, then by the indices of its levels."""
    return sorted(range(1 << n), key=lambda m: (m.bit_count(), list(_bits(m))))


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _check_length(state: State, op: SpectralOperator) -> None:
    if len(state.vector) != op.dim:
        raise DimensionMismatch(
            f"state has length {len(state.vector)}, operator {op.name!r} has dimension {op.dim}"
        )


def born_prob(
    state: State, op: SpectralOperator, delta: Iterable[RationalLike]
) -> Fraction:
    """Exact Born probability that the quantity lies in ``delta``.

    The vectors under each level are pairwise orthogonal, so the projector
    onto the eigenspaces in ``delta`` sends psi to the sum of its
    components <v, psi> v / |v|^2. The probability is therefore the sum of
    |<v, psi>|^2 / |v|^2 over those vectors, divided by |psi|^2: integer
    inner products, and no projector matrix."""
    _check_length(state, op)
    psi = state.ints
    weight = Fraction(0)
    for i in _levels(op, delta):
        for v in op.vectors[i]:
            x, y = int_inner(v, psi)
            weight += Fraction(x * x + y * y, int_inner(v, v)[0])
    return weight / int_inner(psi, psi)[0]


def _function(a_op: SpectralOperator, b_op: SpectralOperator, image) -> dict[Fraction, Fraction]:
    """Level ``i`` of ``a_op`` to level ``image[i]`` of ``b_op``, as eigenvalues."""
    return {a: b_op.spectrum[j] for a, j in zip(a_op.spectrum, image)}


class OperatorCategory(NamedTuple):
    """A thin category of spectral operators: objects tagged by name, each
    arrow stored once as its spectrum function on levels: ``images[aid][i]``
    is the codomain level of domain level ``i``. ``arrow_function`` gives
    one arrow's eigenvalue dict. Unhashable, since two of its fields are
    dicts.
    """

    base: FinCategory
    operators: dict[str, SpectralOperator]
    images: dict[str, tuple[int, ...]]

    def operator(self, name: str) -> SpectralOperator:
        try:
            return self.operators[name]
        except KeyError:
            raise UnknownObject(f"no operator named {name!r}") from None

    def arrow_function(self, arrow_id: str) -> dict[Fraction, Fraction]:
        a = self.base.arrows[arrow_id]
        return _function(self.operators[a.dom], self.operators[a.cod], self.images[arrow_id])


# Each question becomes an object; an n-level operator has 2^n - 2. Every
# question has spectrum _BOOL, and each constant one of its values.
MAX_QUESTIONS = 1 << 13
_BOOL = (Fraction(0), Fraction(1))


def _overlap_graphs(seeds: Sequence[SpectralOperator]) -> list[list[list[int]]]:
    """The overlap graph of every ordered pair of seeds: ``[s][t][i]`` masks
    the levels of ``t`` whose eigenspaces are not orthogonal to level ``i``
    of ``s`` (bit j: ``t.spectrum[j]``). Seeds share vectors, so each pair
    of distinct vectors is tested once; a level meets the vectors that any
    of its own vectors meets."""
    index: dict[IntVector, int] = {}
    levels = [[[index.setdefault(v, len(index)) for v in vs] for vs in op.vectors] for op in seeds]
    distinct = list(index)
    meets = [0] * len(distinct)
    for i, u in enumerate(distinct):
        for j in range(i, len(distinct)):
            if not orthogonal(u, distinct[j]):
                meets[i] |= 1 << j
                meets[j] |= 1 << i
    held = [[sum(1 << k for k in ks) for ks in op] for op in levels]
    met = [[reduce(or_, map(meets.__getitem__, ks)) for ks in op] for op in levels]
    return [
        [[sum(1 << j for j, h in enumerate(held_t) if h & m) for m in met_s] for held_t in held]
        for met_s in met
    ]


def _image(overlap: Sequence[int]) -> tuple[int, ...] | None:
    """Each domain level's codomain level, if the overlap graph makes an arrow."""
    if all(m and not m & (m - 1) for m in overlap):
        return tuple(m.bit_length() - 1 for m in overlap)
    return None


def _reach(overlap: Sequence[int]) -> list[int]:
    """The union of the overlap masks of the levels in each mask."""
    reach = [0] * (1 << len(overlap))
    for m in range(1, len(reach)):
        low = m & -m
        reach[m] = reach[m ^ low] | overlap[low.bit_length() - 1]
    return reach


def build_operator_category(
    operators: Sequence[SpectralOperator],
    close_under_questions: bool = False,
) -> OperatorCategory:
    """Assemble the operator category, optionally closed under questions.

    With the flag set, every proper nonempty spectral subset of every given
    operator is adjoined as a yes/no operator with spectrum inside {0, 1},
    structurally equal operators are deduplicated, and the two constant
    operators are added once as shared objects. Arrows are all spectrum
    functions between objects (identities included); the underlying
    category is thin.

    Everything is read off the overlap graphs of the given operators.
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
    if close_under_questions:
        questions = sum((1 << len(op.spectrum)) - 2 for op in seeds)
        if questions > MAX_QUESTIONS:
            raise SizeLimitExceeded(
                f"question closure: 2^n - 2 questions per n-level operator make "
                f"{questions}, over the guard of {MAX_QUESTIONS}", MAX_QUESTIONS,
            )

    overlap = _overlap_graphs(seeds)
    # targets[k][j]: the image of the arrow k -> j, level by level.
    objects = list(seeds)
    targets: list[dict[int, tuple[int, ...]]] = [
        {t: image for t in range(len(seeds)) if (image := _image(overlap[s][t])) is not None}
        for s in range(len(seeds))
    ]
    if close_under_questions:
        reach = [[_reach(row) for row in rows] for rows in overlap]

        # (A, delta) and (B, delta') have the same projector iff delta |
        # delta' is a union of components of the overlap graph of A and B,
        # that is iff each is the other's reach. Questions go by the first.
        def first(s: int, mask: int) -> tuple[int, int]:
            for t in range(s):
                image = reach[s][t][mask]
                if reach[t][s][image] == mask:
                    return t, image
            return s, mask

        def adjoin(source: SpectralOperator, name: str, spectrum, masks) -> int:
            while name in names:
                name = name + "'"
            names.add(name)
            objects.append(_coarsening(source, name, spectrum, masks))
            targets.append({})
            return len(objects) - 1

        # under[key]: each two-level object Y whose level i is the projector
        # of question ``key``, with the image of that question's arrow onto Y
        # (1 -> i). A seed with spectrum {0, 1} is the question of its 1.
        under: dict[tuple[int, int], dict[int, tuple[int, int]]] = {}
        question: dict[tuple[int, int], int] = {}
        for t, op in enumerate(seeds):
            if len(op.spectrum) == 2:
                for i in (0, 1):
                    under.setdefault(first(t, 1 << i), {})[t] = ((1, 0), (0, 1))[i]
                if op.spectrum == _BOOL:
                    question.setdefault(first(t, 0b10), t)
        for s, op in enumerate(seeds):
            full = (1 << len(op.spectrum)) - 1
            for mask in _subset_masks(len(op.spectrum))[1:-1]:
                key = first(s, mask)
                if key not in question:
                    delta = ",".join(str(op.spectrum[i]) for i in _bits(mask))
                    q = question[key] = adjoin(
                        op, f"{op.name}[{delta}]", _BOOL, (full ^ mask, mask)
                    )
                    under.setdefault(key, {})[q] = (0, 1)
                    under.setdefault(first(s, full ^ mask), {})[q] = (1, 0)
                targets[s][question[key]] = tuple(mask >> i & 1 for i in range(len(op.spectrum)))
        for key, q in question.items():
            targets[q].update(under[key])
        # The empty and full subsets collapse to the constants, shared once.
        for value in _BOOL:
            if all(op.spectrum != (value,) for op in seeds):
                adjoin(seeds[0], f"const{value}", (value,), ((1 << len(seeds[0].spectrum)) - 1,))
        flat = [j for j, op in enumerate(objects) if len(op.spectrum) == 1]
        for a_op, out in zip(objects, targets):
            for j in flat:
                out[j] = (0,) * len(a_op.spectrum)

    related = [(k, j) for k, out in enumerate(targets) for j in sorted(out)]
    base = thin_category(
        [op.name for op in objects], [(objects[k].name, objects[j].name) for k, j in related]
    )
    images = dict(zip(base.arrows, [targets[k][j] for k, j in related]))
    return OperatorCategory(base, {op.name: op for op in objects}, images)


def dual_presheaf(ocat: OperatorCategory) -> Presheaf:
    """Homomorphisms of each spectral algebra onto {0, 1}, represented by
    their characteristic atoms (one per eigenvalue); arrows restrict, which
    on atoms is just the spectrum function."""
    sets = {name: frozenset(op.spectrum) for name, op in ocat.operators.items()}
    return Presheaf(ocat.base, sets, {aid: ocat.arrow_function(aid) for aid in ocat.base.arrows})


def nu_state(
    ocat: OperatorCategory,
    state: State,
    context: "SpectralOperator | str",
    delta: Iterable[RationalLike],
) -> Sieve:
    """The state-induced truth value of "the quantity lies in delta" at the
    given context: the sieve of arrows whose coarse-grained proposition the
    state satisfies with certainty (an exact projector fixpoint).

    The codomain projector of ``fn(delta)`` is the sum of the context's
    projectors over ``fn^-1(fn(delta))``, and their ranges are orthogonal,
    so it fixes the state iff every other projector of the context kills
    it (the state is orthogonal to its vectors). One kill test per level
    decides every arrow: the levels that do not kill the state must map
    into the image of ``delta``."""
    name = context.name if isinstance(context, SpectralOperator) else context
    op = ocat.operator(name)
    levels = _levels(op, delta)
    _check_length(state, op)
    psi = state.ints
    live = [i for i, vs in enumerate(op.vectors) if not all(orthogonal(v, psi) for v in vs)]
    members = set()
    for arrow in arrows_from(ocat.base, name):
        image = ocat.images[arrow.id]
        if {image[i] for i in live} <= {image[i] for i in levels}:
            members.add(arrow.id)
    return Sieve(name, frozenset(members))
