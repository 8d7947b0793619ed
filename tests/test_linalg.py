from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlab import (cayley_tower, cyclic_group, dynamics_skew_group_ring, full_matrix_algebra,
                     gf_extension, is_simple, linalg, make_structure_algebra)
from ringlab.errors import TooLarge
from ringlab.ideals import IdealBasis, first_proper_line_ideal
from ringlab.rings import StructureAlgebra, direct_sum_algebra, functions_ring
from ringlab.linalg import GF, QQ
from ringlab.subgroups import Subspace, subspace_from_vectors


def _matrices(p, rows=3, cols=4):
    return st.lists(
        st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
        min_size=1, max_size=rows)


@st.composite
def _rref_inputs(draw):
    """(matrix, p): up to 8x8 over F_2, F_3, F_5 or F_7, tall or wide, with
    some columns zeroed out."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    A = np.array(draw(st.lists(st.integers(0, p - 1), min_size=m * n, max_size=m * n)),
                 dtype=np.int64).reshape(m, n)
    A[:, sorted(draw(st.sets(st.integers(0, n - 1))))] = 0
    return A, p


@given(_rref_inputs())
@settings(max_examples=200, deadline=None)
def test_rref_modp_idempotent_and_canonical(matrix):
    A, p = matrix
    R, piv = linalg.rref_modp(A, p)
    R2, piv2 = linalg.rref_modp(R, p)
    assert np.array_equal(R, R2) and piv == piv2
    # pivot columns carry unit vectors, and each row starts at its pivot
    for ri, c in enumerate(piv):
        col = R[:, c]
        assert col[ri] == 1 and np.count_nonzero(col) == 1
        assert not R[ri, :c].any()
    assert list(piv) == sorted(set(piv))
    # row space is preserved: every original row reduces to zero
    rem = linalg.reduce_rows_modp(A, R, piv, p)
    assert not rem.any()


@st.composite
def _merge_inputs(draw):
    """(U, rows, p): a spanning set U of a subspace of F_p^n (empty, random,
    or the full space) and rows to adjoin to it (random, zero, or in the
    span of U)."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 6))

    def matrix(k):
        return np.array(draw(st.lists(st.integers(0, p - 1), min_size=k * n,
                                      max_size=k * n)), dtype=np.int64).reshape(k, n)

    span = draw(st.sampled_from(["empty", "random", "full"]))
    if span == "empty":
        U = matrix(0)
    elif span == "random":
        U = matrix(draw(st.integers(1, n)))
    else:
        U = np.vstack([matrix(draw(st.integers(0, 2))), np.eye(n, dtype=np.int64)])
    k = draw(st.integers(0, 5))
    kind = draw(st.sampled_from(["random", "zero", "in span"]))
    if kind == "random":
        rows = matrix(k)
    elif kind == "zero":
        rows = np.zeros((k, n), dtype=np.int64)
    else:
        coeffs = np.array(draw(st.lists(st.integers(0, p - 1), min_size=k * len(U),
                                        max_size=k * len(U))), dtype=np.int64)
        rows = coeffs.reshape(k, len(U)) @ U % p
    return U, rows, p


@given(_merge_inputs())
@settings(max_examples=300, deadline=None)
def test_merge_modp_is_the_rref_of_the_stacked_rows(inputs):
    U, rows, p = inputs
    basis, pivots = linalg.rref_modp(U, p)
    merged, merged_pivots, grew, fresh = linalg.merge_modp(basis, pivots, rows, p)
    stacked, stacked_pivots = linalg.rref_modp(np.vstack([U, rows]), p)
    assert merged.dtype == stacked.dtype and merged.shape == stacked.shape
    assert merged.tobytes() == stacked.tobytes() and merged_pivots == stacked_pivots
    # the fresh block is the rref of what the rows leave over the basis
    rem = linalg.reduce_rows_modp(rows, basis, pivots, p)
    assert fresh.tobytes() == linalg.rref_modp(rem, p)[0].tobytes()
    assert grew == (len(merged_pivots) > len(pivots)) == (len(fresh) > 0)
    assert grew or merged is basis


@given(_matrices(3))
@settings(max_examples=60, deadline=None)
def test_kernel_modp(rows):
    p = 3
    A = np.array(rows, dtype=np.int64)
    K, _ = linalg.kernel_modp(A, p)
    assert K.shape[0] == A.shape[1] - len(linalg.rref_modp(A, p)[1])
    for v in K:
        assert not ((A @ v) % p).any()


def _reference_reduce_rows(rows, basis, pivots, p):
    """reduce_rows_modp one pivot at a time."""
    R = np.array(rows, dtype=np.int64).reshape(-1, basis.shape[1]) % p
    for ri, c in enumerate(pivots):
        coef = R[:, c]
        nz = np.nonzero(coef)[0]
        if nz.size:
            R[nz] = (R[nz] - np.outer(coef[nz], basis[ri])) % p
    return R


def _reference_kernel_modp(A, p):
    """kernel_modp by two eliminations: the rref of A, one kernel row per
    free column, and the rref of those rows."""
    R, pivots = linalg.rref_modp(A, p)
    n = A.shape[1]
    rows = []
    for f in (c for c in range(n) if c not in pivots):
        v = np.zeros(n, dtype=np.int64)
        v[f] = 1
        for ri, c in enumerate(pivots):
            v[c] = -int(R[ri, f]) % p
        rows.append(v)
    return linalg.rref_modp(np.array(rows).reshape(-1, n), p)


def _reference_kernel_frac(rows, n):
    """kernel_frac by two eliminations, as (rows, pivots)."""
    R, pivots = linalg.rref_frac(rows, width=n)
    out = []
    for f in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[f] = -1
        for ri, c in enumerate(pivots):
            v[c] = R[ri][f]
        out.append(v)
    return linalg.rref_frac(out, width=n) if out else ((), ())


@st.composite
def _kernel_inputs(draw):
    """(A, p): an m×n matrix over F_p, m ≤ 7 and 1 ≤ n ≤ 7, for p one of
    2, 3, 5, 7 and 2097143, the largest prime below MAX_MODULUS.  It has no
    rows, is zero, is random, has full rank min(m, n) (L @ E for L
    unitriangular and E a partial permutation) or rank below it (a product
    through k < min(m, n) dimensions)."""
    p = draw(st.sampled_from([2, 3, 5, 7, 2097143]))
    m, n = draw(st.integers(0, 7)), draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["empty", "zero", "random", "full rank", "rank deficient"]))

    def matrix(rows, cols):
        return np.array(draw(st.lists(st.integers(0, p - 1), min_size=rows * cols,
                                      max_size=rows * cols)), dtype=np.int64).reshape(rows, cols)

    if kind == "empty":
        return np.zeros((0, n), dtype=np.int64), p
    if kind == "zero":
        return np.zeros((m, n), dtype=np.int64), p
    if kind == "random":
        return matrix(m, n), p
    if kind == "full rank":
        L = np.tril(matrix(m, m), -1) + np.eye(m, dtype=np.int64)
        E = np.zeros((m, n), dtype=np.int64)
        cols = draw(st.permutations(range(n)))[:min(m, n)]
        E[np.arange(len(cols)), cols] = 1
        return L @ E % p, p
    k = draw(st.integers(0, max(0, min(m, n) - 1)))
    return matrix(m, k) @ matrix(k, n) % p, p


@given(_kernel_inputs())
@settings(max_examples=300, deadline=None)
def test_one_product_and_one_elimination_equal_the_reference_loops(matrix):
    A, p = matrix
    m, n = A.shape
    # reduce_rows_modp: A and the unit rows against the rref of A, and A
    # against the rref of its first rows
    for basis_rows, rows in ((A, np.vstack([A, np.eye(n, dtype=np.int64)])),
                             (A[:(m + 1) // 2], A)):
        basis, pivots = linalg.rref_modp(basis_rows, p)
        got = linalg.reduce_rows_modp(rows, basis, pivots, p)
        want = _reference_reduce_rows(rows, basis, pivots, p)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    K, pivots = linalg.kernel_modp(A, p)
    want, want_pivots = _reference_kernel_modp(A, p)
    assert K.dtype == want.dtype and K.shape == want.shape
    assert K.tobytes() == want.tobytes() and pivots == want_pivots
    assert all(type(c) is int for c in pivots)
    assert not (A @ K.T % p).any()
    # the same integer matrix over Q
    rows = A.tolist()
    K = linalg.kernel_frac(rows, n)
    want, want_pivots = _reference_kernel_frac(rows, n)
    assert K == want and _all_fractions(K)
    assert QQ.kernel(rows, n) == (want, want_pivots)


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


def _reference_rref(rows, n):
    """Plain Gauss-Jordan over Fractions, one pivot column at a time: the
    reference the fraction-free Q kernels must equal."""
    A = [[Fraction(x) for x in row] for row in rows]
    r, pivots = 0, []
    for c in range(n):
        sel = next((i for i in range(r, len(A)) if A[i][c] != 0), None)
        if sel is None:
            continue
        A[r], A[sel] = A[sel], A[r]
        lead = A[r][c]
        A[r] = [x / lead for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in A[:r]), tuple(pivots)


def _reference_kernel(rows, n):
    R, pivots = _reference_rref(rows, n)
    out = []
    for f in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for ri, c in enumerate(pivots):
            v[c] = -R[ri][f]
        out.append(v)
    return _reference_rref(out, n)[0]


# rationals with denominators 1, 2, 3, 5 and 7, negative ones, and plain ints
_RATIONALS = st.one_of(st.integers(-6, 6),
                       st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5, 7])))


@st.composite
def _q_matrices(draw, max_rows=8):
    """(rows, n): up to ``max_rows`` rows of width n in 1..8, wide or tall,
    some of them zero, and sometimes one more row that is a combination of
    the first two."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(0, max_rows))
    rows = draw(st.lists(st.lists(_RATIONALS, min_size=n, max_size=n), min_size=m, max_size=m))
    if m:
        for i in draw(st.sets(st.integers(0, m - 1), max_size=2)):
            rows[i] = [0] * n
    if m >= 2 and draw(st.booleans()):
        a, b = draw(_RATIONALS), draw(_RATIONALS)
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[1])])
    return rows, n


def _all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


@given(_q_matrices())
@settings(max_examples=200, deadline=None)
def test_q_kernels_equal_plain_gauss_jordan(matrix):
    rows, n = matrix
    expected = _reference_rref(rows, n)
    R, pivots = linalg.rref_frac(rows, width=n)
    assert (R, pivots) == expected and _all_fractions(R)
    K = linalg.kernel_frac(rows, n)
    assert K == _reference_kernel(rows, n) and _all_fractions(K)
    for row in rows:
        assert linalg.member_frac(row, R, pivots)
    # a vector outside the span: member_frac must say so
    for v in ([int(i == c) for i in range(n)] for c in range(n)):
        inside = len(_reference_rref(list(R) + [v], n)[1]) == len(pivots)
        assert linalg.member_frac(v, R, pivots) == inside


@given(_q_matrices(max_rows=5), st.data())
@settings(max_examples=200, deadline=None)
def test_merge_frac_equals_the_rref_of_the_stacked_rows(matrix, data):
    U, n = matrix
    new = data.draw(st.lists(st.lists(_RATIONALS, min_size=n, max_size=n), max_size=4))
    basis, pivots = _reference_rref(U, n)
    merged, merged_pivots, grew = linalg.merge_frac(basis, pivots, new)
    assert (merged, merged_pivots) == _reference_rref(U + new, n)
    assert _all_fractions(merged)
    assert grew == (len(merged_pivots) > len(pivots))


@st.composite
def _q_algebras(draw):
    """Structure constants of dimension 1..4 over Q, non-integral, about
    half of them zero."""
    d = draw(st.integers(1, 4))
    entry = st.one_of(st.just(0), _RATIONALS)
    C = draw(st.lists(entry, min_size=d ** 3, max_size=d ** 3))
    return make_structure_algebra(d, QQ, np.array(C, dtype=object).reshape(d, d, d))


def _vectors(d, k):
    return st.lists(st.lists(_RATIONALS, min_size=d, max_size=d), min_size=k, max_size=k)


@given(_q_algebras(), st.data())
@settings(max_examples=100, deadline=None)
def test_q_products_equal_a_dense_fraction_einsum(alg, data):
    d, F = alg.dim, alg.F
    C = [[[Fraction(c) for c in vec] for vec in plane] for plane in alg.constants.tolist()]

    def product(x, y):
        return tuple(sum((Fraction(x[i]) * Fraction(y[j]) * C[i][j][k]
                          for i in range(d) for j in range(d)), Fraction(0))
                     for k in range(d))

    X, Y = data.draw(_vectors(d, 2)), data.draw(_vectors(d, 3))
    got = alg.mul_coords(X[0], Y[0])
    assert got == product(X[0], Y[0]) and _all_fractions([got])
    got = F.products(alg, X, Y)
    assert got == [product(x, y) for x in X for y in Y] and _all_fractions(got)
    M = data.draw(_vectors(2, d))
    got = F.mapped_products(alg, M)
    expected = [[sum((C[i][j][k] * Fraction(M[k][l]) for k in range(d)), Fraction(0))
                 for l in range(2)] for i in range(d) for j in range(d)]
    assert got.tolist() == expected and _all_fractions(got)
    L, R = F.mult_matrices(alg, X[0])
    eye = [[int(i == j) for j in range(d)] for i in range(d)]
    assert L.tolist() == [list(product(X[0], e)) for e in eye] and _all_fractions(L)
    assert R.tolist() == [list(product(e, X[0])) for e in eye] and _all_fractions(R)
    assert (F.commutators(alg, [X[0]]) == R - L).all()
    # several rows: one block of d columns per row, in order
    blocks = [R - L for L, R in (F.mult_matrices(alg, x) for x in X)]
    assert (F.commutators(alg, X) == np.hstack(blocks)).all()


def test_kernel_frac_makes_no_fraction_arithmetic(monkeypatch):
    """The center equations of the sedenions (256 x 16) are solved over
    ints: no Fraction is multiplied, added, subtracted or divided."""
    S = cayley_tower(QQ, 4).rings[-1]
    sides = [S.F.mult_matrices(S, b.data) for b in S.spanning_elements()]
    D = np.hstack([R - L for L, R in sides]).T
    assert D.shape == (256, 16)
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__",
                 "__truediv__", "__rtruediv__"):
        def counted(*args, _original=getattr(Fraction, name), _name=name):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(Fraction, name, counted)
    K = linalg.kernel_frac(D, 16)
    monkeypatch.undo()
    assert calls == []
    # the center of the sedenions is the scalars
    assert K == ((Fraction(1),) + (Fraction(0),) * 15,)


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


def _change_basis(C, P, p):
    """The constants on the basis f_a = sum_i P[a, i] e_i."""
    Q = linalg.ModP(p).solve(P, np.eye(len(P), dtype=np.int64))
    return np.einsum("ai,bj,ijk,kc->abc", P, P, C, Q, optimize=True) % p


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


def _invertible(draw, p, d):
    """A random invertible d x d matrix over F_p (the identity when the
    drawn one is singular)."""
    P = np.array(draw(st.lists(st.integers(0, p - 1), min_size=d * d,
                               max_size=d * d))).reshape(d, d)
    return P if len(linalg.rref_modp(P, p)[1]) == d else np.eye(d, dtype=np.int64)


@st.composite
def _norton_algebras(draw):
    """(constants, p) of dimension at most 5, on a random basis: the
    algebras of :func:`_algebras`, direct sums of matrix algebras, and the
    fields F_4, F_8 and F_9 over their prime fields."""
    kind = draw(st.sampled_from(["random", "matrix sum", "field"]))
    if kind == "random":
        C, p = draw(_algebras(5))
    elif kind == "matrix sum":
        p = draw(st.sampled_from([2, 3, 5]))
        sizes = draw(st.sampled_from([(1, 1), (1, 1, 1), (2, 1), (1, 2)]))
        C = direct_sum_algebra([full_matrix_algebra(n, GF(p)) for n in sizes]).constants
    else:
        q, p = draw(st.sampled_from([(4, 2), (8, 2), (9, 3)]))
        C = gf_extension(q)[0].constants
    return _change_basis(np.asarray(C, dtype=np.int64), _invertible(draw, p, len(C)), p), p


@given(_norton_algebras())
@settings(max_examples=150, deadline=None)
def test_norton_agrees_with_density_and_the_line_walk(algebra):
    # Norton's test decides every example, and the line walk is the
    # reference
    C, p = algebra
    ring = make_structure_algebra(len(C), GF(p), C.tolist())
    simple = bool(C.any()) and first_proper_line_ideal(ring) is None
    assert linalg.norton_modp(C, p).holds is simple


@given(_norton_algebras())
@settings(max_examples=150, deadline=None)
def test_norton_shows_a_proper_ideal_exactly_when_a_line_is_proper(algebra):
    # R·R = 0 is decided before Norton's test, which shows no submodule there
    C, p = algebra
    ring = make_structure_algebra(len(C), GF(p), C.tolist())
    walk = first_proper_line_ideal(ring) if C.any() else None
    decision = linalg.norton_modp(C, p)
    simple, submodule = decision.holds, decision.submodule
    assert simple is not None
    assert (submodule is not None) == (walk is not None)
    if submodule is None:
        return
    ideal = IdealBasis(ring, Subspace(ring, *submodule), check=True)
    assert not ideal.is_zero() and not ideal.span.is_full()
    # the walk finds its line no later than that of the first rref row
    last = tuple(submodule[0][0].tolist())
    assert first_proper_line_ideal(ring, last).key() == walk.key()


def _proper_ideal(ring, witness):
    IdealBasis(ring, witness.span, check=True)
    return not witness.is_zero() and not witness.span.is_full()


@given(_norton_algebras())
@settings(max_examples=150, deadline=None)
def test_over_the_cap_verdicts_agree_with_the_walked_ones(algebra):
    # Norton's test decides every example, so over the cap no verdict is
    # left to the witness search
    C, p = algebra
    ring = make_structure_algebra(len(C), GF(p), C.tolist())
    over = is_simple(ring, cap=1)
    assert over.status == is_simple(ring).status
    # the R·R = 0 witness is the same at every cap, and 0 when d = 1
    if over.status == "NotSimple" and C.any():
        assert _proper_ideal(ring, over.witness)


def test_large_matrix_algebras_are_simple_at_the_default_cap():
    # 2^36 and 2^64 elements: Norton's test decides them, in milliseconds
    assert is_simple(full_matrix_algebra(6, GF(2))).status == "Simple"
    assert is_simple(full_matrix_algebra(8, GF(2))).status == "Simple"


def test_over_the_cap_sums_of_matrix_algebras_show_a_proper_ideal():
    # M2(F3) + M3(F3) (3^13 elements) and M4(F2) + M3(F2) (2^25), each on
    # 10 random bases: NotSimple, with Norton's submodule as the witness
    rng = np.random.default_rng(20)
    for sizes, p in (((2, 3), 3), ((4, 3), 2)):
        C = direct_sum_algebra([full_matrix_algebra(n, GF(p)) for n in sizes]).constants
        d = len(C)
        for _ in range(10):
            P = rng.integers(0, p, (d, d))
            while len(linalg.rref_modp(P, p)[1]) < d:
                P = rng.integers(0, p, (d, d))
            ring = make_structure_algebra(d, GF(p), _change_basis(C, P, p).tolist())
            v = is_simple(ring)
            assert v.status == "NotSimple" and _proper_ideal(ring, v.witness)
            assert v.witness.measure() in (4, 9, 16)


def test_norton_decides_m5_f2_on_a_random_basis():
    rng = np.random.default_rng(5)
    P = rng.integers(0, 2, (25, 25))
    while len(linalg.rref_modp(P, 2)[1]) < 25:
        P = rng.integers(0, 2, (25, 25))
    C = _change_basis(full_matrix_algebra(5, GF(2)).constants, P, 2)
    assert linalg.norton_modp(C, 2).holds is True


def test_norton_proves_nothing_from_a_null_space_of_two_summands():
    # on M2(F2) + M2(F2) and M2(F2) + F2 a factor of theta often has a null
    # space in both summands, dimension 2k; a vector of it can spin up the
    # whole ring in the module and in its dual, so only with dim N = k do
    # two full spans prove the module irreducible
    rng = np.random.default_rng(11)
    for C in (direct_sum_algebra([full_matrix_algebra(2, GF(2))] * 2).constants,
              direct_sum_algebra([full_matrix_algebra(n, GF(2)) for n in (2, 1)]).constants):
        d = len(C)
        for _ in range(40):
            P = rng.integers(0, 2, (d, d))
            if len(linalg.rref_modp(P, 2)[1]) == d:
                assert linalg.norton_modp(_change_basis(C, P, 2), 2).holds is False


def test_without_trials_density_gives_the_same_verdicts(monkeypatch):
    # with no trial Norton's test decides nothing, at any dimension; the
    # F_p algebras under the cap are then walked, and the rotation ring
    # (2^24 elements) goes to the witness search, with the same verdicts
    algebras = [(full_matrix_algebra(2, GF(3)).constants, 3),
                (functions_ring(2, GF(3)).constants, 3),
                (gf_extension(9)[0].constants, 3),
                (gf_extension(8)[0].constants, 2),
                (_rotation_ring().constants, 2),
                (direct_sum_algebra([full_matrix_algebra(2, GF(2))] * 2).constants, 2)]
    verdicts = [linalg.norton_modp(C, p).holds for C, p in algebras]
    assert verdicts == [True, False, True, True, False, False]
    monkeypatch.setattr(linalg, "NORTON_TRIALS", 0)
    assert all(linalg.norton_modp(C, p) == linalg.Decision(None) for C, p in algebras)
    rings = [make_structure_algebra(len(C), GF(p), C.tolist()) for C, p in algebras]
    assert [is_simple(ring).status for ring in rings] == \
        ["Simple" if v else "NotSimple" for v in verdicts]


def test_unit_modp():
    assert linalg.ModP(3).unit(full_matrix_algebra(2, GF(3))).tolist() == [1, 0, 0, 1]
    # F_3[x]/(x^2) on the basis x, 1 + x; its radical x·F_3 alone has no unit
    C = np.array([[[0, 0], [1, 0]], [[1, 0], [1, 1]]])
    assert linalg.ModP(3).unit(make_structure_algebra(2, GF(3), C)).tolist() == [2, 1]
    assert linalg.ModP(3).unit(make_structure_algebra(1, GF(3), C[:1, :1, :1])) is None


def _rotation_ring():
    """Z6 acting on 4 points by a 3-cycle, over F_2: a unital survey ring of
    dimension 24 that is not simple."""
    rot = (1, 2, 0, 3)
    action, g = {}, (0, 1, 2, 3)
    for k in range(6):
        action[k], g = g, tuple(rot[x] for x in g)
    ring = dynamics_skew_group_ring(4, cyclic_group(6), action, GF(2)).ring
    assert ring.dim == 24
    return ring


def test_spin_ups_eliminate_only_the_adjoined_block(monkeypatch):
    """merge_modp row-reduces no more rows than it is given, never the
    basis again, and an ideal closure reduces its candidates once a round."""
    ring = _rotation_ring()
    rref, reduce, merge = linalg.rref_modp, linalg.reduce_rows_modp, linalg.merge_modp
    blocks, eliminated = [], []
    count = {"reduce": 0, "grew": 0}

    def counted_rref(mat, p):
        if blocks:
            eliminated.append((len(mat), blocks[-1]))
        return rref(mat, p)

    def counted_reduce(rows, basis, pivots, p):
        count["reduce"] += 1
        return reduce(rows, basis, pivots, p)

    def counted_merge(basis, pivots, newrows, p):
        blocks.append(len(newrows))
        try:
            out = merge(basis, pivots, newrows, p)
        finally:
            blocks.pop()
        count["grew"] += bool(out[2])
        return out

    monkeypatch.setattr(linalg, "rref_modp", counted_rref)
    monkeypatch.setattr(linalg, "reduce_rows_modp", counted_reduce)
    monkeypatch.setattr(linalg, "merge_modp", counted_merge)
    # the multiplication algebra, spun up from the identity in slabs
    eye = np.eye(ring.dim, dtype=np.int64)
    linalg.spin_modp(eye.reshape(1, -1), linalg.multiplications_modp(ring.constants, 2), 2)
    for seed in (eye[:1], eye[5:6], np.ones((1, ring.dim), dtype=np.int64)):
        count.update(reduce=0, grew=0)
        rows, pivots = ring.F.closure(ring, seed)
        # every round but a last one that adds nothing grows the span
        rounds = count["grew"] + (len(pivots) < ring.dim)
        assert count["grew"] and count["reduce"] == rounds
    assert eliminated and all(rows <= block for rows, block in eliminated)


def test_products_are_exact_at_the_largest_modulus():
    # 2097143 is the largest prime below MAX_MODULUS = 2^21.  A second
    # contraction over unreduced partial products reaches d^2 (p-1)^3, about
    # 1.5e20 at d = 4, far past int64.
    p, d = 2097143, 4
    assert p <= linalg.MAX_MODULUS
    rng = np.random.default_rng(7)
    C = rng.integers(0, p, (d, d, d))
    alg = StructureAlgebra(GF(p), d, C)
    X, Y = rng.integers(0, p, (3, d)), rng.integers(0, p, (2, d))
    exact = [[sum(int(x[i]) * int(y[j]) * int(C[i, j, k])
                  for i in range(d) for j in range(d)) % p for k in range(d)]
             for x in X for y in Y]
    assert alg.F.products(alg, X, Y).tolist() == exact
    R, pivots = linalg.rref_modp([[p - 1, 5], [p - 2, 7]], p)
    assert R.tolist() == [[1, 0], [0, 1]] and pivots == (0, 1)


def test_a_modulus_past_int64_arithmetic_is_refused():
    # at p = 4000000007 one product of two residues is past 2^63
    with pytest.raises(TooLarge, match="4000000007"):
        linalg.ModP(4000000007)
    with pytest.raises(TooLarge):
        StructureAlgebra(GF(4000000007), 1, [[[1]]])
