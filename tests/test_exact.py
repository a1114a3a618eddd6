from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from sievelogic.exact import (
    QC,
    conj_transpose,
    identity_matrix,
    is_hermitian,
    is_idempotent,
    mat_add,
    mat_mul,
    vector,
    zero_matrix,
)

from oracles import dense_mat_mul, inner, matrix, norm_sq, outer_self, projector_leq


def test_qc_arithmetic():
    a = QC(F(1, 2), F(1))
    b = QC(F(2), F(-1, 3))
    assert a + b == QC(F(5, 2), F(2, 3))
    assert a - b == QC(F(-3, 2), F(4, 3))
    # (1/2 + i)(2 - i/3) = 1 + 1/3 + 2i - i/6 * i... computed by hand:
    # re = 1/2*2 - 1*(-1/3) = 4/3, im = 1/2*(-1/3) + 1*2 = 11/6
    assert a * b == QC(F(4, 3), F(11, 6))
    assert -a == QC(F(-1, 2), F(-1))
    assert a.conj() == QC(F(1, 2), F(-1))
    assert (a / 2) == QC(F(1, 4), F(1, 2))


def test_qc_of_and_zero():
    assert QC.of(3) == QC(F(3), F(0))
    assert QC.of(F(1, 2)).re == F(1, 2)
    assert QC(F(0), F(0)).is_zero()
    assert not QC(F(0), F(1)).is_zero()


def test_inner_is_conjugate_linear_first():
    u = vector([QC(F(0), F(1))])  # i
    v = vector([1])
    assert inner(u, v) == QC(F(0), F(-1))
    assert inner(v, u) == QC(F(0), F(1))


def test_norm_sq_complex():
    v = vector([QC(F(1), F(1)), QC(F(0), F(-2))])
    assert norm_sq(v) == F(6)


def test_outer_self_projector():
    v = vector([1, 1])
    p = tuple(tuple(e / norm_sq(v) for e in row) for row in outer_self(v))
    assert is_hermitian(p)
    assert is_idempotent(p)
    assert p == matrix([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])


def test_matrix_algebra():
    ident = identity_matrix(2)
    z = zero_matrix(2)
    m = matrix([[1, 2], [3, 4]])
    assert mat_add(m, z) == m
    assert mat_mul(m, ident) == m
    assert mat_mul(ident, m) == m


def test_conj_transpose():
    m = matrix([[QC(F(1), F(2)), QC(F(0), F(-1))], [QC(F(3), F(0)), QC(F(0), F(0))]])
    assert conj_transpose(m)[0][1] == QC(F(3), F(0))
    assert conj_transpose(m)[1][0] == QC(F(0), F(1))
    assert conj_transpose(conj_transpose(m)) == m


def test_projector_leq():
    p = matrix([[1, 0], [0, 0]])
    ident = identity_matrix(2)
    assert projector_leq(p, ident)
    assert not projector_leq(ident, p)
    assert projector_leq(p, p)


# --- products skip zero factors ---------------------------------------------

_entries = st.builds(
    QC,
    st.sampled_from([F(0), F(0), F(0), F(1), F(-1), F(1, 2), F(-3, 4)]),
    st.sampled_from([F(0), F(0), F(0), F(1), F(-2, 3)]),
)


@st.composite
def _square_pair(draw):
    n = draw(st.integers(1, 4))
    rows = st.lists(_entries, min_size=n, max_size=n).map(tuple)
    a = draw(st.lists(rows, min_size=n, max_size=n).map(tuple))
    b = draw(st.lists(rows, min_size=n, max_size=n).map(tuple))
    return a, b


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_square_pair())
def test_products_match_dense_products(mats):
    a, b = mats
    assert mat_mul(a, b) == dense_mat_mul(a, b)


def test_projector_products_match_dense_products(bundled_categories):
    # Every distinct projector of sigma_z, sigma_zx and Cabello-18 times
    # itself and times its neighbour in the list, which need not commute.
    projectors = list(dict.fromkeys(
        p for ocat in bundled_categories
        for op in ocat.operators.values() for p in op.projectors
    ))
    assert len(projectors) > 90
    for p, q in zip(projectors, projectors[1:] + projectors[:1]):
        assert mat_mul(p, p) == dense_mat_mul(p, p) == p
        if len(p) == len(q):
            assert mat_mul(p, q) == dense_mat_mul(p, q)
