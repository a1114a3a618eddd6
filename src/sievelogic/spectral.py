"""The matrix and valuation layer that no report runs (reports read
operators through their integer eigenvectors alone); ``exact`` and
``quantum`` resolve these names on first read: dense matrices and their
exact predicates, projectors from eigenvectors and back, the verifier of
every operator invariant, spectral subsets and algebras, functions of an
operator, the pairwise arrow test, the coarse-graining presheaf, whole
valuations, the functional-composition check and the Kochen-Specker
section list.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, NamedTuple, Sequence

from .exact import (
    QC, QC_ONE, QC_ZERO, IntVector, Matrix, RationalLike, as_fraction, int_inner, int_vector,
    orthogonal,
)
from .heyting import Sieve
from .presheaf import DEFAULT_NODE_BUDGET, GlobalSection, Presheaf
from .quantum import (
    DimensionMismatch, DuplicateEigenvalue, IncompleteBasis, IncompleteValuation, NotOrthogonal,
    OperatorCategory, PartialFunction, SpectralError, SpectralOperator, State, _bits,
    _coarsening, _function, _image, _levels, _subset_masks, dual_presheaf, nu_state,
)
from .topos import Check, NaturalTransformation, global_sections, omega_presheaf, push_sieve


def identity_matrix(n: int) -> Matrix:
    return tuple(
        tuple(QC_ONE if i == j else QC_ZERO for j in range(n)) for i in range(n)
    )


def zero_matrix(n: int) -> Matrix:
    return tuple(tuple(QC_ZERO for _ in range(n)) for _ in range(n))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(
        tuple(_dot(row, col) for col in bt) for row in a
    )


def _dot(row: Iterable[QC], col: Iterable[QC]) -> QC:
    # Projectors and rays are mostly zeros; a zero factor adds nothing.
    acc = QC_ZERO
    for x, y in zip(row, col):
        if (x.re or x.im) and (y.re or y.im):
            acc = acc + x * y
    return acc


def conj_transpose(m: Matrix) -> Matrix:
    return tuple(tuple(m[j][i].conj() for j in range(len(m))) for i in range(len(m[0])))


def is_zero_matrix(m: Matrix) -> bool:
    return all(e.is_zero() for row in m for e in row)


def is_hermitian(m: Matrix) -> bool:
    return m == conj_transpose(m)


def is_idempotent(m: Matrix) -> bool:
    return mat_mul(m, m) == m


def _projector(vectors: Sequence[IntVector]) -> Matrix:
    """The sum of v v-dagger / |v|^2 over pairwise-orthogonal Gaussian-integer
    vectors, over their common denominator, one exact entry at a time."""
    norms = [int_inner(v, v)[0] for v in vectors]
    d = lcm(*norms)
    terms = [(re, im, d // n) for (re, im), n in zip(vectors, norms)]
    axis = range(len(terms[0][0]))
    return tuple(
        tuple(
            QC(Fraction(sum(k * (a[i] * a[j] + b[i] * b[j]) for a, b, k in terms), d),
               Fraction(sum(k * (b[i] * a[j] - a[i] * b[j]) for a, b, k in terms), d))
            for j in axis
        )
        for i in axis
    )


def _orthogonal_columns(p: Matrix) -> tuple[IntVector, ...]:
    """Pairwise-orthogonal Gaussian-integer vectors spanning the columns of
    ``p``: fraction-free Gram-Schmidt, each residual divided by the gcd of
    its entries and dropped when zero."""
    basis: list[IntVector] = []
    for column in zip(*p):
        re, im = int_vector(column)
        for u in basis:
            x, y = int_inner(u, (re, im))
            if x or y:
                # n r - <u, r> u is orthogonal to u.
                n = int_inner(u, u)[0]
                re, im = (
                    tuple(n * r - x * a + y * b for r, a, b in zip(re, *u)),
                    tuple(n * r - x * b - y * a for r, a, b in zip(im, *u)),
                )
        g = gcd(*re, *im)
        if g:
            basis.append((tuple(r // g for r in re), tuple(r // g for r in im)))
    return tuple(basis)


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


def spectral_projector(op: SpectralOperator, delta: Iterable[RationalLike]) -> Matrix:
    """The projector onto the eigenspaces of the eigenvalues in ``delta``."""
    total = zero_matrix(op.dim)
    for i in _levels(op, delta):
        total = mat_add(total, op.projectors[i])
    return total


def spectrum_subsets(op: SpectralOperator) -> tuple[frozenset[Fraction], ...]:
    """All subsets of the spectrum, ordered by size then by sorted values."""
    return tuple(
        frozenset(op.spectrum[i] for i in _bits(m)) for m in _subset_masks(len(op.spectrum))
    )


class SpectralAlgebra(NamedTuple):
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


def function_of(
    op: SpectralOperator,
    fn: Mapping[Fraction, RationalLike],
    name: str | None = None,
) -> SpectralOperator:
    """Apply a total function on the spectrum: eigenvalues map through
    ``fn`` and projectors of merged eigenvalues add up."""
    masks: dict[Fraction, int] = {}
    for i, a in enumerate(op.spectrum):
        if a not in fn:
            raise PartialFunction(
                f"function is undefined on eigenvalue {a} of {op.name!r}"
            )
        b = as_fraction(fn[a])
        masks[b] = masks.get(b, 0) | 1 << i
    spectrum = tuple(sorted(masks))
    name = name if name is not None else f"f({op.name})"
    return _coarsening(op, name, spectrum, [masks[b] for b in spectrum])


def _overlaps(a_op: SpectralOperator, b_op: SpectralOperator) -> list[int]:
    """The overlap graph of two operators: for each eigenvalue of ``a_op``,
    the mask of those of ``b_op`` whose eigenspaces are not orthogonal to
    its own (bit j: ``b_op.spectrum[j]``)."""
    return [
        sum(
            1 << j for j, vb in enumerate(b_op.vectors)
            if not all(orthogonal(u, v) for u in va for v in vb)
        )
        for va in a_op.vectors
    ]


def find_arrow(
    a_op: SpectralOperator, b_op: SpectralOperator
) -> dict[Fraction, Fraction] | None:
    """The unique spectrum function carrying ``a_op`` onto ``b_op``, if any:
    it exists iff each eigenspace of ``a_op`` overlaps exactly one of
    ``b_op``, its image."""
    if a_op.dim != b_op.dim:
        raise DimensionMismatch(
            f"operators {a_op.name!r} and {b_op.name!r} have different dimensions"
        )
    image = _image(_overlaps(a_op, b_op))
    return None if image is None else _function(a_op, b_op, image)


def coarse_graining_presheaf(ocat: OperatorCategory) -> Presheaf:
    """Spectral subsets per object; an arrow sends a subset to its image.

    Spectra are finite, so the image of a subset is just its pointwise
    image; the measurability subtleties of the continuous case do not
    arise here.
    """
    subsets = {name: spectrum_subsets(op) for name, op in ocat.operators.items()}
    maps = {}
    for a in ocat.base.arrows.values():
        fn = ocat.arrow_function(a.id)
        maps[a.id] = {s: frozenset(fn[v] for v in s) for s in subsets[a.dom]}
    return Presheaf(ocat.base, {name: frozenset(s) for name, s in subsets.items()}, maps)


class SieveValuation(NamedTuple):
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
        fn = ocat.arrow_function(arrow.id)
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
