"""Exact finite-dimensional operator layer.

Self-adjoint operators are defined by exact spectral data (distinct
rational eigenvalues with Gaussian-rational eigenprojectors), never by
numerical diagonalization, so every check in this module is an exact
equality. Operators form a thin category: there is an arrow ``A -> B``
precisely when some function on the spectrum of ``A`` carries its
spectral data onto ``B``, and that function is then unique.

On top of the category sit the two presheaves this package cares about --
the dual presheaf (spectrum elements, restricted along arrows) whose
missing global sections express the Kochen-Specker obstruction, and the
coarse-graining presheaf of spectral subsets -- plus sieve-valued
valuations, the functional-composition check, and the state-induced
valuation.

States are stored unnormalized and probabilities are computed as Rayleigh
quotients, which keeps all arithmetic inside the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import SieveLogicError, SizeLimitExceeded
from .exact import (
    Matrix,
    Vector,
    RationalLike,
    as_fraction,
    identity_matrix,
    inner,
    is_hermitian,
    is_idempotent,
    is_zero_matrix,
    is_zero_vector,
    mat_add,
    mat_mul,
    mat_sub,
    mat_vec,
    norm_sq,
    outer_self,
    vector,
    zero_matrix,
)
from .fincat import Arrow, Check, FinCategory, UnknownObject, arrows_from, thin_category
from .heyting import Sieve, push_sieve
from .presheaf import (
    GlobalSection,
    NaturalTransformation,
    Presheaf,
    global_sections,
    make_presheaf,
    omega_presheaf,
    DEFAULT_NODE_BUDGET,
)


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


@dataclass(frozen=True)
class SpectralOperator:
    """A self-adjoint operator given by its exact spectral decomposition.

    ``spectrum`` is sorted ascending and ``projectors`` is aligned with it.
    The projectors are Hermitian, idempotent, mutually orthogonal, and sum
    to the identity; :func:`make_operator` guarantees all of that exactly.
    """

    name: str
    dim: int
    spectrum: tuple[Fraction, ...]
    projectors: tuple[Matrix, ...]

    def projector_of(self, eigenvalue: RationalLike) -> Matrix:
        val = as_fraction(eigenvalue)
        for a, p in zip(self.spectrum, self.projectors):
            if a == val:
                return p
        raise NotInSpectrum(f"{val} is not an eigenvalue of {self.name!r}")

    def structural_key(self) -> tuple:
        """Identity up to naming: spectrum plus aligned projector list."""
        return (self.spectrum, self.projectors)


@dataclass(frozen=True)
class State:
    """An unnormalized, nonzero state vector."""

    vector: Vector


def make_state(entries: Iterable) -> State:
    v = vector(entries)
    if is_zero_vector(v):
        raise SpectralError("state vector must be nonzero")
    return State(v)


def verify_spectral_operator(op: SpectralOperator) -> None:
    """Exact verification of every SpectralOperator invariant."""
    if len(op.spectrum) != len(set(op.spectrum)):
        raise DuplicateEigenvalue(f"operator {op.name!r} repeats an eigenvalue")
    for a, p in zip(op.spectrum, op.projectors):
        if not is_hermitian(p):
            raise SpectralError(f"operator {op.name!r}: projector of {a} not Hermitian")
        if not is_idempotent(p):
            raise NotOrthogonal(f"operator {op.name!r}: projector of {a} not idempotent")
        if is_zero_matrix(p):
            raise IncompleteBasis(f"operator {op.name!r}: projector of {a} is zero")
    for i in range(len(op.projectors)):
        for j in range(i + 1, len(op.projectors)):
            if not is_zero_matrix(mat_mul(op.projectors[i], op.projectors[j])):
                raise NotOrthogonal(
                    f"operator {op.name!r}: projectors of {op.spectrum[i]} and "
                    f"{op.spectrum[j]} are not orthogonal"
                )
    total = zero_matrix(op.dim)
    for p in op.projectors:
        total = mat_add(total, p)
    if total != identity_matrix(op.dim):
        raise IncompleteBasis(f"operator {op.name!r}: projectors do not sum to identity")


def _scaled_outer(v: Vector) -> Matrix:
    ns = norm_sq(v)
    return tuple(tuple(e / ns for e in row) for row in outer_self(v))


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
    groups: list[tuple[Fraction, list[Vector]]] = []
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
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                if not inner(vecs[i], vecs[j]).is_zero():
                    raise NotOrthogonal(
                        f"operator {name!r}: vectors {i} and {j} under eigenvalue "
                        f"{val} are not orthogonal"
                    )
        total += len(vecs)
        groups.append((val, vecs))
    if total != dim:
        raise IncompleteBasis(
            f"operator {name!r}: {total} eigenvectors for dimension {dim}"
        )
    groups.sort(key=lambda g: g[0])
    for i, (a, vecs_a) in enumerate(groups):
        for b, vecs_b in groups[i + 1:]:
            if any(not inner(u, v).is_zero() for u in vecs_a for v in vecs_b):
                raise NotOrthogonal(
                    f"operator {name!r}: projectors of {a} and {b} are not orthogonal"
                )
    projectors = []
    for _, vecs in groups:
        p = zero_matrix(dim)
        for v in vecs:
            p = mat_add(p, _scaled_outer(v))
        projectors.append(p)
    return SpectralOperator(name, dim, tuple(g[0] for g in groups), tuple(projectors))


def function_of(
    op: SpectralOperator,
    fn: Mapping[Fraction, RationalLike],
    name: str | None = None,
) -> SpectralOperator:
    """Apply a total function on the spectrum: eigenvalues map through
    ``fn`` and projectors of merged eigenvalues add up."""
    grouped: dict[Fraction, Matrix] = {}
    for a, p in zip(op.spectrum, op.projectors):
        if a not in fn:
            raise PartialFunction(
                f"function is undefined on eigenvalue {a} of {op.name!r}"
            )
        b = as_fraction(fn[a])
        grouped[b] = mat_add(grouped[b], p) if b in grouped else p
    spectrum = tuple(sorted(grouped))
    return SpectralOperator(
        name if name is not None else f"f({op.name})",
        op.dim,
        spectrum,
        tuple(grouped[b] for b in spectrum),
    )


def spectral_projector(op: SpectralOperator, delta: Iterable[RationalLike]) -> Matrix:
    """The projector onto the eigenspaces of the eigenvalues in ``delta``."""
    dset = frozenset(as_fraction(d) for d in delta)
    extra = dset - set(op.spectrum)
    if extra:
        raise NotInSpectrum(
            f"{sorted(extra)} not in the spectrum of {op.name!r}"
        )
    total = zero_matrix(op.dim)
    for a, p in zip(op.spectrum, op.projectors):
        if a in dset:
            total = mat_add(total, p)
    return total


def spectrum_subsets(op: SpectralOperator) -> tuple[frozenset[Fraction], ...]:
    """All subsets of the spectrum, ordered by size then by sorted values."""
    vals = op.spectrum
    subsets = [
        frozenset(v for i, v in enumerate(vals) if mask >> i & 1)
        for mask in range(1 << len(vals))
    ]
    subsets.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return tuple(subsets)


@dataclass(frozen=True)
class SpectralAlgebra:
    """The Boolean algebra of spectral projectors of one operator, with the
    Boolean operations acting on spectrum subsets."""

    operator: SpectralOperator

    def elements(self) -> tuple[frozenset[Fraction], ...]:
        return spectrum_subsets(self.operator)

    def projector(self, delta: Iterable[RationalLike]) -> Matrix:
        return spectral_projector(self.operator, delta)

    def meet(self, d1: frozenset, d2: frozenset) -> frozenset:
        return d1 & d2

    def join(self, d1: frozenset, d2: frozenset) -> frozenset:
        return d1 | d2

    def complement(self, d: frozenset) -> frozenset:
        return frozenset(self.operator.spectrum) - d

    def atoms(self) -> tuple[frozenset[Fraction], ...]:
        return tuple(frozenset((a,)) for a in self.operator.spectrum)


def _first_nonzero_column(m: Matrix) -> Vector:
    n = len(m)
    for j in range(n):
        col = tuple(m[i][j] for i in range(n))
        if not is_zero_vector(col):
            return col
    raise SpectralError("projector is the zero matrix")


def find_arrow(
    a_op: SpectralOperator, b_op: SpectralOperator
) -> dict[Fraction, Fraction] | None:
    """The unique spectrum function carrying ``a_op`` onto ``b_op``, if any.

    Exists iff every projector of ``b_op`` is an exact sum of projectors of
    ``a_op``. The candidate is located through a range vector of each
    projector and then verified exactly, so the answer is never heuristic.
    """
    if a_op.dim != b_op.dim:
        raise DimensionMismatch(
            f"operators {a_op.name!r} and {b_op.name!r} have different dimensions"
        )
    if len(b_op.spectrum) > len(a_op.spectrum):
        return None
    mapping: dict[Fraction, Fraction] = {}
    for a, pa in zip(a_op.spectrum, a_op.projectors):
        col = _first_nonzero_column(pa)
        target = None
        for b, pb in zip(b_op.spectrum, b_op.projectors):
            if mat_vec(pb, col) == col:
                target = b
                break
        if target is None:
            return None
        mapping[a] = target
    for b, pb in zip(b_op.spectrum, b_op.projectors):
        block = zero_matrix(a_op.dim)
        for a, pa in zip(a_op.spectrum, a_op.projectors):
            if mapping[a] == b:
                block = mat_add(block, pa)
        if block != pb:
            return None
    return mapping


def born_prob(
    state: State, op: SpectralOperator, delta: Iterable[RationalLike]
) -> Fraction:
    """Exact Born probability that the quantity lies in ``delta``, computed
    as a Rayleigh quotient of the unnormalized state."""
    if len(state.vector) != op.dim:
        raise DimensionMismatch(
            f"state has length {len(state.vector)}, operator {op.name!r} "
            f"has dimension {op.dim}"
        )
    e = spectral_projector(op, delta)
    value = inner(state.vector, mat_vec(e, state.vector))
    assert not value.im
    return value.re / norm_sq(state.vector)


@dataclass(frozen=True)
class OperatorCategory:
    """A thin category of spectral operators: objects tagged by name, each
    arrow carrying the spectrum function that realizes it."""

    base: FinCategory
    operators: dict[str, SpectralOperator]
    arrow_functions: dict[str, dict[Fraction, Fraction]]

    def operator(self, name: str) -> SpectralOperator:
        try:
            return self.operators[name]
        except KeyError:
            raise UnknownObject(f"no operator named {name!r}") from None

    def arrow_function(self, arrow_id: str) -> dict[Fraction, Fraction]:
        return self.arrow_functions[arrow_id]


# Question closure and arrow discovery both walk the 2^n spectral subsets
# of n-level operators, touching dim^2 matrix entries per subset. One
# budget of entries is shared by both steps of a build, and every walk is
# charged before either step starts.
MAX_SUBSET_ENTRIES = 1 << 20


def _charge_subsets(spent: int, stage: str, op: SpectralOperator, walks: int) -> int:
    """``spent`` plus ``walks`` walks over the 2^n subsets of ``op``'s
    spectrum; raises SizeLimitExceeded once that passes the budget."""
    n = len(op.spectrum)
    spent += walks * (1 << n) * op.dim * op.dim
    if spent > MAX_SUBSET_ENTRIES:
        raise SizeLimitExceeded(
            f"{stage}: the 2^{n} spectral subsets of operator {op.name!r} "
            f"(dimension {op.dim}) bring the subset work to {spent} matrix "
            f"entries, over the guard of {MAX_SUBSET_ENTRIES}",
            MAX_SUBSET_ENTRIES,
        )
    return spent


def _subset_sums(projectors: Sequence[Matrix]) -> Iterable[tuple[int, Matrix]]:
    """Every nonempty subset of ``projectors`` as (bit mask, sum), depth
    first: each sum is its parent's plus one projector, and only the sums
    on the current path stay alive."""
    n = len(projectors)

    def walk(mask: int, total: Matrix | None, start: int):
        for i in range(start, n):
            child = projectors[i] if total is None else mat_add(total, projectors[i])
            yield mask | 1 << i, child
            yield from walk(mask | 1 << i, child, i + 1)

    return walk(0, None, 0)


def _question_name(op_name: str, delta: Iterable[Fraction]) -> str:
    return f"{op_name}[{','.join(str(v) for v in sorted(delta))}]"


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

    objects: list[SpectralOperator] = list(seeds)
    structural: dict[tuple, str] = {}
    for op in seeds:
        structural.setdefault(op.structural_key(), op.name)

    def adjoin(candidate: SpectralOperator) -> None:
        if candidate.structural_key() in structural:
            return
        name = candidate.name
        while name in names:
            name = name + "'"
        if name != candidate.name:
            candidate = SpectralOperator(
                name, candidate.dim, candidate.spectrum, candidate.projectors
            )
        names.add(name)
        structural[candidate.structural_key()] = name
        objects.append(candidate)

    # Closure walks a seed's 2^n subsets and adds at most 2^n yes/no
    # operators, each with 4 subsets for arrow discovery to walk: 5 walks'
    # worth. Arrow discovery walks each seed once more.
    spent = 0
    for op in seeds:
        if close_under_questions:
            spent = _charge_subsets(spent, "question closure", op, 5)
        spent = _charge_subsets(spent, "arrow discovery", op, 1)

    if close_under_questions:
        ident = identity_matrix(dim)
        zero_f, one_f = Fraction(0), Fraction(1)
        for op in seeds:
            subset_sums = dict(_subset_sums(op.projectors))
            bit = {a: 1 << i for i, a in enumerate(op.spectrum)}
            for delta in spectrum_subsets(op):
                if not delta or len(delta) == len(op.spectrum):
                    continue
                p1 = subset_sums[sum(bit[a] for a in delta)]
                p0 = mat_sub(ident, p1)
                adjoin(
                    SpectralOperator(
                        _question_name(op.name, delta), dim, (zero_f, one_f), (p0, p1)
                    )
                )
        # The empty and full subsets collapse to the constants, shared once.
        adjoin(SpectralOperator("const0", dim, (zero_f,), (ident,)))
        adjoin(SpectralOperator("const1", dim, (one_f,), (ident,)))

    op_by_name = {op.name: op for op in objects}

    # Arrow discovery: B is a function of A iff every projector of B is a
    # sum of projectors of A. Each distinct projector gets an int id once;
    # each object then looks up each of its 2^n - 1 subset sums once and
    # records the mask that hits each projector id. B is a codomain iff all
    # its projectors are hit. The hitting masks are then disjoint and cover
    # A (nonzero orthogonal projectors are linearly independent and both
    # families sum to the identity), so they are the blocks of the unique
    # spectrum function and nothing needs checking afterwards.
    interned: dict[Matrix, int] = {}
    projector_ids = [
        tuple(interned.setdefault(p, len(interned)) for p in op.projectors)
        for op in objects
    ]
    holders: dict[int, list[int]] = {}
    for k, ids in enumerate(projector_ids):
        for pid in ids:
            holders.setdefault(pid, []).append(k)

    arrows: list[Arrow] = []
    functions: dict[str, dict[Fraction, Fraction]] = {}

    for a_op in objects:
        hit: dict[int, int] = {}
        for mask, total in _subset_sums(a_op.projectors):
            pid = interned.get(total)
            if pid is not None:
                hit[pid] = mask
        for k in sorted({k for pid in hit for k in holders[pid]}):
            if not all(pid in hit for pid in projector_ids[k]):
                continue
            b_op = objects[k]
            value = [None] * len(a_op.spectrum)
            for b, pid in zip(b_op.spectrum, projector_ids[k]):
                for i in range(len(value)):
                    if hit[pid] >> i & 1:
                        value[i] = b
            if a_op.name == b_op.name:
                aid = f"id_{a_op.name}"
            else:
                aid = f"{a_op.name}->{b_op.name}"
            arrows.append(Arrow(aid, a_op.name, b_op.name))
            functions[aid] = dict(zip(a_op.spectrum, value))

    base = thin_category([op.name for op in objects], arrows)
    return OperatorCategory(base, op_by_name, functions)


def dual_presheaf(ocat: OperatorCategory) -> Presheaf:
    """Homomorphisms of each spectral algebra onto {0, 1}, represented by
    their characteristic atoms (one per eigenvalue); arrows restrict, which
    on atoms is just the spectrum function."""
    sets = {name: frozenset(op.spectrum) for name, op in ocat.operators.items()}
    maps = {}
    for a in ocat.base.arrows.values():
        fn = ocat.arrow_functions[a.id]
        maps[a.id] = {val: fn[val] for val in ocat.operators[a.dom].spectrum}
    return make_presheaf(ocat.base, sets, maps)


def coarse_graining_presheaf(ocat: OperatorCategory) -> Presheaf:
    """Spectral subsets per object; an arrow sends a subset to its image.

    Spectra are finite, so the image of a subset is just its pointwise
    image; the measurability subtleties of the continuous case do not
    arise here.
    """
    sets = {
        name: frozenset(spectrum_subsets(op)) for name, op in ocat.operators.items()
    }
    maps = {}
    for a in ocat.base.arrows.values():
        fn = ocat.arrow_functions[a.id]
        maps[a.id] = {
            s: frozenset(fn[v] for v in s)
            for s in spectrum_subsets(ocat.operators[a.dom])
        }
    return make_presheaf(ocat.base, sets, maps)


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
    it: one kill test per eigenvalue decides every arrow."""
    name = context.name if isinstance(context, SpectralOperator) else context
    op = ocat.operator(name)
    dset = frozenset(as_fraction(d) for d in delta)
    extra = dset - set(op.spectrum)
    if extra:
        raise NotInSpectrum(f"{sorted(extra)} not in the spectrum of {name!r}")
    if len(state.vector) != op.dim:
        raise DimensionMismatch("state dimension does not match the category")
    killed = {
        a: is_zero_vector(mat_vec(p, state.vector))
        for a, p in zip(op.spectrum, op.projectors)
    }
    members = set()
    for arrow in arrows_from(ocat.base, name):
        fn = ocat.arrow_functions[arrow.id]
        image = {fn[v] for v in dset}
        if all(killed[a] for a in op.spectrum if fn[a] not in image):
            members.add(arrow.id)
    return Sieve(name, frozenset(members))


@dataclass(frozen=True)
class SieveValuation:
    """A sieve per (context, spectral subset) pair."""

    category: OperatorCategory
    values: dict[tuple[str, frozenset], Sieve]

    def value(self, name: str, delta: Iterable[RationalLike]) -> Sieve:
        key = (name, frozenset(as_fraction(d) for d in delta))
        try:
            return self.values[key]
        except KeyError:
            raise IncompleteValuation(
                f"valuation has no entry for {key[0]!r} at {sorted(key[1])}"
            ) from None


def nu_state_valuation(ocat: OperatorCategory, state: State) -> SieveValuation:
    """The full state-induced valuation over every context and subset."""
    values = {}
    for name, op in ocat.operators.items():
        for s in spectrum_subsets(op):
            values[(name, s)] = nu_state(ocat, state, name, s)
    return SieveValuation(ocat, values)


def func_check(valuation: SieveValuation) -> Check:
    """Generalized functional composition: pushing the value at (A, delta)
    along any arrow must give the value at the coarse-grained proposition.
    Equivalently the valuation's components form a natural transformation
    from the coarse-graining presheaf to the sieve classifier."""
    ocat = valuation.category
    for name, op in ocat.operators.items():
        for s in spectrum_subsets(op):
            if (name, s) not in valuation.values:
                raise IncompleteValuation(
                    f"valuation missing {name!r} at {sorted(s)}"
                )
    for arrow in ocat.base.arrows.values():
        fn = ocat.arrow_functions[arrow.id]
        for s in spectrum_subsets(ocat.operators[arrow.dom]):
            image = frozenset(fn[v] for v in s)
            lhs = valuation.values[(arrow.cod, image)]
            rhs = push_sieve(ocat.base, arrow, valuation.values[(arrow.dom, s)])
            if lhs != rhs:
                return Check(
                    False,
                    f"arrow {arrow.id!r} at delta {{{','.join(map(str, sorted(s)))}}}",
                )
    return Check(True)


def valuation_transformation(
    valuation: SieveValuation,
    coarse: Presheaf | None = None,
    omega: Presheaf | None = None,
):
    """The components ``delta-projector -> sieve`` of a valuation, packaged
    as a transformation from the coarse-graining presheaf to the classifier
    (natural exactly when the valuation satisfies functional composition)."""
    ocat = valuation.category
    if coarse is None:
        coarse = coarse_graining_presheaf(ocat)
    if omega is None:
        omega = omega_presheaf(ocat.base)
    components = {
        name: {s: valuation.value(name, s) for s in spectrum_subsets(op)}
        for name, op in ocat.operators.items()
    }
    return NaturalTransformation(coarse, omega, components)


def ks_global_section_search(
    ocat: OperatorCategory, node_budget: int = DEFAULT_NODE_BUDGET
) -> list[GlobalSection]:
    """Global sections of the dual presheaf; an empty list certifies the
    Kochen-Specker obstruction for this finite fragment."""
    return global_sections(dual_presheaf(ocat), node_budget)
