from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlab import linalg
from ringlab.rings import StructureAlgebra
from ringlab.scalars import GF, QQ
from ringlab.subgroups import subspace_from_vectors


def _matrices(p, rows=3, cols=4):
    return st.lists(
        st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
        min_size=1, max_size=rows)


@given(_matrices(5))
@settings(max_examples=60, deadline=None)
def test_rref_modp_idempotent_and_canonical(rows):
    p = 5
    A = np.array(rows, dtype=np.int64)
    R, piv = linalg.rref_modp(A, p)
    R2, piv2 = linalg.rref_modp(R, p)
    assert np.array_equal(R, R2) and piv == piv2
    # pivot columns carry unit vectors
    for ri, c in enumerate(piv):
        col = R[:, c]
        assert col[ri] == 1 and np.count_nonzero(col) == 1
    # row space is preserved: every original row reduces to zero
    rem = linalg.reduce_rows_modp(A, R, piv, p)
    assert not rem.any()


@given(_matrices(3))
@settings(max_examples=60, deadline=None)
def test_kernel_modp(rows):
    p = 3
    A = np.array(rows, dtype=np.int64)
    K, _ = linalg.kernel_modp(A, p)
    assert K.shape[0] == A.shape[1] - len(linalg.rref_modp(A, p)[1])
    for v in K:
        assert not ((A @ v) % p).any()


@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_rref_frac_membership(rows):
    R, piv = linalg.rref_frac(rows)
    for row in rows:
        assert linalg.member_frac(row, R, piv)
    for ri, c in enumerate(piv):
        assert R[ri][c] == 1


def test_merge_frac_grows_only_when_new():
    basis, piv = linalg.rref_frac([[1, 0, 0]])
    b2, p2, grew = linalg.merge_frac(basis, piv, [[2, 0, 0]])
    assert not grew
    b3, p3, grew = linalg.merge_frac(basis, piv, [[0, 1, 0]])
    assert grew and len(b3) == 2


def test_kernel_frac():
    rows = [[1, 2, 3], [2, 4, 6]]
    K = linalg.kernel_frac(rows, 3)
    assert len(K) == 2
    for v in K:
        assert sum(Fraction(a) * x for a, x in zip(rows[0], v)) == 0


_SMALL_ROWS = st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4),
                       max_size=4)


@given(_SMALL_ROWS, _SMALL_ROWS)
@settings(max_examples=60, deadline=None)
def test_subspace_lattice_agrees_over_q_and_fp(u_rows, w_rows):
    """Both field backends through the same Subspace code.  With entries in
    [-2, 2] every minor of a width-4 matrix is at most 256 in absolute value
    (Hadamard), so no rank drops modulo 10007 and the dimensions agree."""
    dims = []
    for field in (QQ, GF(10007)):
        ring = StructureAlgebra(field, 4, np.zeros((4, 4, 4), dtype=np.int64))
        U = subspace_from_vectors(ring, u_rows)
        W = subspace_from_vectors(ring, w_rows)
        meet, join = U.intersect(W), U.join(W)
        assert U.dim + W.dim == join.dim + meet.dim
        assert U.contains_subgroup(meet) and W.contains_subgroup(meet)
        dims.append((U.dim, W.dim, join.dim, meet.dim))
    assert dims[0] == dims[1]


def test_is_field_modp():
    I, A, B = np.eye(2, dtype=np.int64), np.array([[0, 1], [2, 0]]), np.array([[1, 1], [1, 2]])
    # F9 = F3[i], i^2 = -1, as 2x2 matrices
    assert linalg.is_field_modp([I, A], 3)
    # M2(F3) on the basis 1, i, j, ij with i^2 = j^2 = -1, ij = -ji: each
    # basis element has x^3 = ±x, so Frobenius alone does not see that it
    # is no field; commutativity does
    assert not linalg.is_field_modp([I, A, B, A @ B % 3], 3)
    # F3 x F3 fixes two dimensions; F3[x]/(x^2) has a nilpotent
    assert not linalg.is_field_modp([np.diag([1, 0]), np.diag([0, 1])], 3)
    assert not linalg.is_field_modp([I, np.array([[0, 1], [0, 0]])], 3)
    assert not linalg.is_field_modp(np.zeros((0, 2, 2), dtype=np.int64), 3)
