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

from .errors import SieveLogicError
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
from .fincat import Arrow, FinCategory, UnknownObject, arrows_from, thin_category
from .heyting import Sieve, push_sieve
from .presheaf import (
    Check,
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


def _set_partitions(items: list) -> Iterable[list[list]]:
    """All set partitions of ``items``, in a deterministic order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


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

    if close_under_questions:
        ident = identity_matrix(dim)
        zero_f, one_f = Fraction(0), Fraction(1)
        for op in seeds:
            for delta in spectrum_subsets(op):
                if not delta or len(delta) == len(op.spectrum):
                    continue
                p1 = spectral_projector(op, delta)
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

    # Arrow discovery: an arrow A -> B exists iff some set partition of the
    # projectors of A sums blockwise to the projector set of B; the blocks
    # then determine the unique spectrum function, which carries A onto B
    # by construction. Indexing objects by their projector set makes this
    # one lookup per partition.
    by_projector_set: dict[frozenset, list[str]] = {}
    for op in objects:
        by_projector_set.setdefault(frozenset(op.projectors), []).append(op.name)

    arrows: list[Arrow] = []
    functions: dict[str, dict[Fraction, Fraction]] = {}

    for a_op in objects:
        n = len(a_op.spectrum)
        for partition in _set_partitions(list(range(n))):
            blocks = []
            for block in partition:
                total = a_op.projectors[block[0]]
                for i in block[1:]:
                    total = mat_add(total, a_op.projectors[i])
                blocks.append(total)
            key = frozenset(blocks)
            for b_name in by_projector_set.get(key, ()):
                b_op = op_by_name[b_name]
                value_of = dict(zip(b_op.projectors, b_op.spectrum))
                fn: dict[Fraction, Fraction] = {}
                for block, bp in zip(partition, blocks):
                    for i in block:
                        fn[a_op.spectrum[i]] = value_of[bp]
                if a_op.name == b_name:
                    aid = f"id_{a_op.name}"
                else:
                    aid = f"{a_op.name}->{b_name}"
                arrows.append(Arrow(aid, a_op.name, b_name))
                functions[aid] = fn

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
    state satisfies with certainty (an exact projector fixpoint)."""
    name = context.name if isinstance(context, SpectralOperator) else context
    op = ocat.operator(name)
    dset = frozenset(as_fraction(d) for d in delta)
    extra = dset - set(op.spectrum)
    if extra:
        raise NotInSpectrum(f"{sorted(extra)} not in the spectrum of {name!r}")
    if len(state.vector) != op.dim:
        raise DimensionMismatch("state dimension does not match the category")
    members = set()
    for arrow in arrows_from(ocat.base, name):
        fn = ocat.arrow_functions[arrow.id]
        image = frozenset(fn[v] for v in dset)
        projector = spectral_projector(ocat.operators[arrow.cod], image)
        if mat_vec(projector, state.vector) == state.vector:
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
