from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlab import (cyclic_group, dynamics_skew_group_ring, full_matrix_algebra,
                     linalg, make_structure_algebra)
from ringlab.ideals import first_proper_line_ideal
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


def _change_basis(C, P, p):
    """The constants on the basis f_a = sum_i P[a, i] e_i."""
    Q = linalg.ModP(p).solve(P, np.eye(len(P), dtype=np.int64))
    return np.einsum("ai,bj,ijk,kc->abc", P, P, C, Q) % p


@st.composite
def _block(draw, p, d):
    """Random constants, or an algebra with a unit or a left unit: e_0
    adjoined to random constants (with a random e_0 part in their
    products), on a random basis so that e_0 is no basis vector."""
    C = np.array(draw(st.lists(st.integers(0, p - 1), min_size=d ** 3,
                               max_size=d ** 3))).reshape(d, d, d)
    unit = draw(st.sampled_from(["none", "two-sided", "left"]))
    if unit == "none":
        return C
    C[0] = np.eye(d, dtype=np.int64)
    if unit == "two-sided":
        C[:, 0] = np.eye(d, dtype=np.int64)
    P = np.array(draw(st.lists(st.integers(0, p - 1), min_size=d * d,
                               max_size=d * d))).reshape(d, d)
    if len(linalg.rref_modp(P, p)[1]) < d:
        P = np.eye(d, dtype=np.int64)
    return _change_basis(C, P, p)


@st.composite
def _algebras(draw, max_dim):
    """(constants, p) over F_2, F_3 or F_5: random or unital blocks, direct
    sums of two of them, and full matrix algebras, so that simple and
    non-simple, unital and non-unital algebras all appear."""
    p = draw(st.sampled_from([2, 3, 5]))
    kind = draw(st.sampled_from(["block", "sum", "matrix"]))
    if kind == "matrix":
        n = draw(st.integers(1, 2))
        return full_matrix_algebra(n, GF(p)).constants, p
    if kind == "block":
        return draw(_block(p, draw(st.integers(1, max_dim)))), p
    d1 = draw(st.integers(1, max_dim - 1))
    d2 = draw(st.integers(1, max_dim - d1))
    A, B = draw(_block(p, d1)), draw(_block(p, d2))
    C = np.zeros((d1 + d2,) * 3, dtype=np.int64)
    C[:d1, :d1, :d1], C[d1:, d1:, d1:] = A, B
    return C, p


def _is_unit(C, u, p):
    d = len(C)
    eye = np.eye(d, dtype=np.int64)
    return (np.array_equal(np.tensordot(u, C, axes=(0, 0)) % p, eye)
            and np.array_equal(np.tensordot(C, u, axes=(1, 0)) % p, eye))


@given(_algebras(5))
@settings(max_examples=150, deadline=None)
def test_commutant_through_the_unit_is_the_whole_commutant(algebra):
    C, p = algebra
    d = len(C)
    u = linalg.unit_modp(C, p)
    assert u is None or _is_unit(C, u, p)
    fast, full = linalg.commutant_modp(C, p), linalg.commutant_modp(C, p, through_unit=False)
    assert linalg.rref_modp(fast.reshape(-1, d * d), p)[0].tobytes() == \
        linalg.rref_modp(full.reshape(-1, d * d), p)[0].tobytes()
    # a commutant basis is independent
    assert len(linalg.rref_modp(fast.reshape(-1, d * d), p)[1]) == len(fast)


@given(_algebras(4))
@settings(max_examples=100, deadline=None)
def test_density_agrees_with_the_line_walk(algebra):
    C, p = algebra
    ring = make_structure_algebra(len(C), GF(p), C.tolist())
    simple = bool(C.any()) and first_proper_line_ideal(ring) is None
    assert linalg.density_simple_modp(C, p) == simple


def test_unit_modp():
    assert linalg.unit_modp(full_matrix_algebra(2, GF(3)).constants, 3).tolist() == [1, 0, 0, 1]
    # F_3[x]/(x^2) on the basis x, 1 + x; its radical x·F_3 alone has no unit
    C = np.array([[[0, 0], [1, 0]], [[1, 0], [1, 1]]])
    assert linalg.unit_modp(C, 3).tolist() == [2, 1]
    assert linalg.unit_modp(C[:1, :1, :1], 3) is None


def test_density_of_a_unital_algebra_solves_for_d_unknowns(monkeypatch):
    # Z6 acting on 4 points by a 3-cycle: a unital survey ring of dimension 24
    rot = (1, 2, 0, 3)
    action, g = {}, (0, 1, 2, 3)
    for k in range(6):
        action[k], g = g, tuple(rot[x] for x in g)
    ring = dynamics_skew_group_ring(4, cyclic_group(6), action, GF(2)).ring
    d = ring.dim
    assert d == 24
    unknowns = []
    original = linalg.kernel_modp

    def counted(A, p):
        unknowns.append(np.shape(A)[1])
        return original(A, p)

    monkeypatch.setattr(linalg, "kernel_modp", counted)
    assert not linalg.density_simple_modp(ring.constants, 2)
    assert unknowns and max(unknowns) <= d
