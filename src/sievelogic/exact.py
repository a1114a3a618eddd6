"""Exact Gaussian-rational scalars, vectors and Gaussian-integer vectors.

All arithmetic in the operator layer runs over complex numbers whose real
and imaginary parts are `fractions.Fraction` values. Vectors and square
matrices are nested tuples of those scalars, equality is literal, and
nothing anywhere in this module rounds. Reports need only the vectors;
the dense matrix functions live in ``spectral`` and resolve here on first
access.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Union

from .errors import Frozen, lazy_names

__getattr__, __dir__ = lazy_names(globals(), dict.fromkeys((
    "conj_transpose", "identity_matrix", "is_hermitian", "is_idempotent",
    "is_zero_matrix", "mat_add", "mat_mul", "zero_matrix",
), "spectral"))

RationalLike = Union[int, Fraction]


def as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class QC(Frozen):
    """A Gaussian rational ``re + im*i``; immutable.

    A plain class, not a tuple: a tuple's ``__rmul__`` would make ``2 * z``
    repeat the tuple instead of scaling ``z``.
    """

    __slots__ = _fields = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    @staticmethod
    def of(value: "QC | RationalLike") -> "QC":
        if isinstance(value, QC):
            return value
        return QC(as_fraction(value), Fraction(0))

    def conj(self) -> "QC":
        return QC(self.re, -self.im)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __add__(self, other: "QC | RationalLike") -> "QC":
        o = QC.of(other)
        return QC(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: "QC | RationalLike") -> "QC":
        o = QC.of(other)
        return QC(self.re - o.re, self.im - o.im)

    def __mul__(self, other: "QC | RationalLike") -> "QC":
        o = QC.of(other)
        return QC(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, divisor: RationalLike) -> "QC":
        # Only rational divisors arise here (norms are real); keeps the
        # implementation honest about staying inside the Gaussian rationals.
        d = as_fraction(divisor)
        return QC(self.re / d, self.im / d)

    def __neg__(self) -> "QC":
        return QC(-self.re, -self.im)


QC_ZERO = QC(Fraction(0), Fraction(0))
QC_ONE = QC(Fraction(1), Fraction(0))

Vector = tuple[QC, ...]
Matrix = tuple[tuple[QC, ...], ...]
IntVector = tuple[tuple[int, ...], tuple[int, ...]]  # real parts, imaginary parts


def vector(entries: Iterable[QC | RationalLike]) -> Vector:
    return tuple(QC.of(e) for e in entries)


def is_zero_vector(v: Vector) -> bool:
    return all(e.is_zero() for e in v)


def int_vector(v: Vector) -> IntVector:
    """``v`` scaled by the lcm of its denominators, onto Gaussian integers."""
    scale = lcm(*(x.denominator for e in v for x in (e.re, e.im)))
    return tuple(int(e.re * scale) for e in v), tuple(int(e.im * scale) for e in v)


def int_inner(u: IntVector, v: IntVector) -> tuple[int, int]:
    """``<u, v>`` of two Gaussian-integer vectors, conjugate-linear in
    ``u``, as (real part, imaginary part)."""
    (a, b), (c, d) = u, v
    return (sum(map(mul, a, c)) + sum(map(mul, b, d)),
            sum(map(mul, a, d)) - sum(map(mul, b, c)))


def orthogonal(u: IntVector, v: IntVector) -> bool:
    """Whether the inner product of two Gaussian-integer vectors is 0."""
    (a, b), (c, d) = u, v
    return (sum(map(mul, a, c)) + sum(map(mul, b, d)) == 0
            and sum(map(mul, a, d)) == sum(map(mul, b, c)))
