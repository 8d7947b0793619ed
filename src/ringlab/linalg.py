"""Exact linear algebra over the two scalar fields, F_p and Q.

This is the only module that knows how a field's vectors are stored and
reduced.  Each field has one backend object, and both backends have the same
small method set:

* ``ModP(p)``: F_p, rows are 2-D int64 arrays with entries in [0, p),
  reduced by vectorized numpy elimination, for p up to ``MAX_MODULUS``,
  below which no sum the kernels form overflows int64;
* ``Rational``: Q, rows are tuples of ``Fraction``s, matrices are numpy
  object arrays of ``Fraction``s, reduced by exact Python elimination.

A structure algebra picks its backend once, from its scalar field
(:func:`backend`); every caller then works through it and never asks which
field it is on.  Matrices are numpy arrays in both cases, so shape-level code
(transpose, slicing, ``@``) is shared, and the backend's ``reduce`` takes the
place of ``% p``.  Subspaces are kept in reduced row echelon form, which is
canonical: two subspaces are equal iff their rref bases are identical.  All
routines are pure; nothing mutates its inputs.

The row-reduction kernels (``rref_modp``, ``reduce_rows_modp``,
``merge_modp``, ``kernel_modp``, ``rref_frac``, ``merge_frac``,
``kernel_frac``) are module-level functions; the backends look them up by
name at call time.  So do the F_p decisions built on them.  ``simple_modp``
is the one F_p simplicity decision, which ideals and certificates use
without enumerating elements: Norton's irreducibility test (the MeatAxe),
with ``density_simple_modp`` (and its steps ``commutant_modp`` and
``is_field_modp``) as the fallback when every trial is inconclusive.  The Q
backend runs it on reductions modulo ``LIFT_PRIMES``, which can prove a
Q-algebra simple (``simple_reduction``).
Where elements must be enumerated, ``combinations_modp`` yields them as
fixed-size blocks of rows, so scans over them are matrix products.

``spin_modp`` is the one loop that grows an F_p basis.  It spins up
vectors under a stack of operators (ideal closures, Norton's test) and,
from the identity, the unital algebra a stack generates (the closure
algebra E of a subring's lines, the density fallback's multiplication
algebra).  Each round grows one rref basis through ``merge_modp``, which
reduces the candidates against the basis once, eliminates only their
remainders, and back-substitutes that fresh block into the basis; the block
is the next round's frontier.  The basis itself is never eliminated again.
The operators of an algebra's multiplications, L_b and R_b, come from
``multiplications_modp``, and its unit from the backends' ``unit``.

Crossed products are built on stacks: ``homomorphism_sides`` checks a whole
stack of linear maps for multiplicativity, ``twisted_blocks`` builds the
multiplication blocks of a stack of maps, and ``matmul`` composes stacks
pairwise.  ``ModP`` does each in a fixed number of contractions; ``Rational``
loops over the stack.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from .errors import TooLarge


# ---------------------------------------------------------------------------
# mod-p path (p prime), matrices are 2-D int64 arrays with entries in [0, p)
# ---------------------------------------------------------------------------

def rref_modp(mat, p):
    """Reduced row echelon form over F_p.  Returns (basis, pivots).

    Gauss-Jordan elimination, one pivot column at a time.  The pivot row is
    the one with the largest entry in the column: any nonzero entry gives
    the same canonical result.  It is scaled to a leading 1, the column is
    cleared from every row by one broadcast product, and the scaled row is
    written back in place r (the row it displaces moves to the pivot row's
    place).  A column that is zero in the whole matrix stays zero under row
    operations, so only the others are visited.
    """
    A = (np.array(mat, dtype=np.int64) % p).reshape(-1, np.shape(mat)[-1]) if np.size(mat) else np.zeros((0, np.shape(mat)[-1]), dtype=np.int64)
    m = A.shape[0]
    r = 0
    pivots = []
    for c in np.flatnonzero(A.any(axis=0)).tolist():
        if r == m:
            break
        i = r + int(A[r:, c].argmax())
        lead = int(A[i, c])
        if not lead:
            continue
        row = A[i] * pow(lead, p - 2, p) % p
        A[i] = A[r]
        A -= A[:, c, None] * row
        A %= p
        A[r] = row
        pivots.append(c)
        r += 1
    return A[:r].copy(), tuple(pivots)


def reduce_rows_modp(rows, basis, pivots, p):
    """Eliminate ``rows`` against an rref ``basis``; returns the remainders."""
    R = np.array(rows, dtype=np.int64).reshape(-1, basis.shape[1] if basis.size else np.shape(rows)[-1]) % p
    for ri, c in enumerate(pivots):
        coef = R[:, c]
        nz = np.nonzero(coef)[0]
        if nz.size:
            R[nz] = (R[nz] - np.outer(coef[nz], basis[ri])) % p
    return R


def member_modp(vec, basis, pivots, p):
    rem = reduce_rows_modp(np.asarray(vec, dtype=np.int64).reshape(1, -1), basis, pivots, p)
    return not rem.any()


def merge_modp(basis, pivots, newrows, p):
    """Adjoin rows to an rref basis.  Returns (basis, pivots, grew, fresh):
    the rref of the span of both, whether it is larger, and ``fresh``, the
    rref of the rows' remainders against ``basis`` (no rows when the span
    did not grow).

    The basis is never eliminated again.  The rows are reduced against it
    once, and only their nonzero remainders are row-reduced, to ``fresh``.
    The rows of ``fresh`` vanish in every pivot column of the basis, so
    subtracting B[:, fresh pivots] @ fresh from the basis rows B that are
    nonzero in those columns clears them and leaves the old pivots as they
    were.  Sorting the rows of both by pivot then gives the rref of the
    joint span, which is canonical: the same bytes as eliminating the
    stacked rows.  The first three values are :meth:`ModP.merge`'s.
    """
    rem = reduce_rows_modp(newrows, basis, pivots, p)
    fresh, new = rref_modp(rem[rem.any(axis=1)], p)
    if not new:
        return basis, pivots, False, fresh
    cols = basis[:, new]
    hit = cols.any(axis=1)
    basis = basis.copy()
    basis[hit] = (basis[hit] - cols[hit] @ fresh) % p
    joint = tuple(pivots) + new
    return np.vstack([basis, fresh])[np.argsort(joint)], tuple(sorted(joint)), True, fresh


def kernel_modp(A, p):
    """Right kernel {x : A x = 0} over F_p, returned as rref rows."""
    A = np.array(A, dtype=np.int64) % p
    n = A.shape[1]
    R, pivots = rref_modp(A, p)
    pivset = set(pivots)
    free = [c for c in range(n) if c not in pivset]
    rows = []
    for f in free:
        v = np.zeros(n, dtype=np.int64)
        v[f] = 1
        for ri, c in enumerate(pivots):
            v[c] = (-int(R[ri, f])) % p
        rows.append(v)
    if not rows:
        return np.zeros((0, n), dtype=np.int64), ()
    return rref_modp(np.array(rows), p)


def spin_modp(seed_rows, ops, p, stop=None):
    """The smallest subspace that contains the rows ``seed_rows`` and that
    every operator maps into itself, as (rref basis, pivots): the MeatAxe
    spin-up (Parker 1984).  This is the one loop that grows an F_p basis.
    With ``stop``, a dimension the caller knows the subspace cannot pass, it
    ends as soon as the span reaches that dimension; the default is the
    whole space.

    ``ops`` is a (m, n, n) stack of operators.  Rows of width n are vectors,
    and M acts as v ↦ v @ M.  Rows of width n² are flattened n×n matrices X,
    and M acts as X ↦ X @ M; the spin-up of the identity is then the unital
    algebra that the stack generates.  Both are the same product: a matrix
    is n vectors.  Each round adjoins the images of the rows the previous
    round added, by :func:`merge_modp`.  A vector frontier (a fresh rref
    block, at most n rows) is merged at once.  A matrix frontier (up to n²
    matrices) is merged in slabs of at most n²/2 candidate rows, because
    eliminating a block costs its rows × n² × its rank, and whole rounds of
    up to m·n² rows made the M4(F2) closure algebra 3× slower.  The spin-up
    stops as soon as the span reaches ``stop``, within a round too.
    """
    m, n, _ = ops.shape
    rows, pivots = rref_modp(seed_rows, p)
    width = rows.shape[1]
    stop = width if stop is None else stop
    frontier = rows
    while frontier.shape[0] and len(pivots) < stop:
        step = frontier.shape[0] if width == n else max(1, width // (2 * m))
        fresh = []
        for start in range(0, frontier.shape[0], step):
            images = frontier[start:start + step].reshape(-1, n) @ ops % p
            rows, pivots, _, block = merge_modp(rows, pivots, images.reshape(-1, width), p)
            if len(pivots) >= stop:
                return rows, pivots
            fresh.append(block)
        frontier = fresh[0] if len(fresh) == 1 else np.concatenate(fresh)
    return rows, pivots


def multiplications_modp(C, p, rows=None):
    """L_b and R_b for each row b of ``rows`` (each basis vector e_i when
    None: L_{e_i} = C[i], R_{e_i} = C[:, i]), as the (2k, d, d) stack that
    :func:`spin_modp` takes: v @ L_b = b·v and v @ R_b = v·b."""
    if rows is None:
        return np.concatenate([C, C.transpose(1, 0, 2)])
    return np.concatenate([np.tensordot(rows, C, axes=(1, 0)),      # (k, j, m): b·e_j
                           np.tensordot(rows, C, axes=(1, 1))]) % p  # (k, i, m): e_i·b


# rows per block of enumerated elements: large enough that numpy, not the
# interpreter, does the work; small enough that a block of a 2^20-element
# scan stays a few MB
BLOCK_ROWS = 1 << 12


def combinations_modp(rows, p):
    """Every F_p combination of ``rows``, as blocks of at most BLOCK_ROWS rows.

    Combination number ``i`` has the coefficient tuple that
    ``itertools.product(range(p), repeat=len(rows))`` yields at position ``i``,
    so the all-zero combination comes first.
    """
    rows = np.asarray(rows, dtype=np.int64)
    r = rows.shape[0]
    weights = p ** np.arange(r - 1, -1, -1, dtype=np.int64)
    total = p ** r
    for start in range(0, total, BLOCK_ROWS):
        index = np.arange(start, min(start + BLOCK_ROWS, total), dtype=np.int64)
        yield ((index[:, None] // weights) % p) @ rows % p


def _matpow_modp(M, e, p):
    """M^e mod p for a stack of square matrices, by repeated squaring."""
    out = np.broadcast_to(np.eye(M.shape[-1], dtype=np.int64), M.shape).copy()
    while e:
        if e & 1:
            out = (out @ M) % p
        M = (M @ M) % p
        e >>= 1
    return out


def is_field_modp(mats, p):
    """Is the span of the square matrices ``mats`` over F_p a field?

    ``mats`` is a basis of an algebra of matrices: closed under products.  A
    finite division ring is a field (Wedderburn), so a non-commutative span
    is not one.  On a commutative one x -> x^p is F_p-linear; it is injective
    iff the algebra has no nilpotents, that is iff it is a product of finite
    fields, and then its fixed space has one dimension per factor.
    """
    K = np.asarray(mats, dtype=np.int64) % p
    k = K.shape[0]
    if k == 0:
        return False
    for i in range(k - 1):
        if ((K[i] @ K[i + 1:] - K[i + 1:] @ K[i]) % p).any():
            return False
    frob = _matpow_modp(K, p, p).reshape(k, -1)
    if len(rref_modp(frob, p)[1]) < k:
        return False
    return len(rref_modp((frob - K.reshape(k, -1)) % p, p)[1]) == k - 1


def commutant_modp(C, p, through_unit=True):
    """The operators that commute with every multiplication of the F_p-algebra
    with structure constants ``C``, as a (k, d, d) stack of independent
    matrices acting on row vectors.

    The commutations with each generator are imposed, one at a time, on a
    space known to contain the commutant.  With a two-sided unit 1 (one
    linear solve, :meth:`_Field.unit`) that space is {L_c}, d unknowns: the
    commutant of a unital algebra is its centroid, since T(y) = T(1·y) =
    T(1)·y makes T = L_{T(1)} (Schafer 1966, *An Introduction to
    Nonassociative Algebras*, §II.1).  L_c = 0 forces c = c·1 = 0, so the d
    left multiplications are a basis.  Without a unit, or with
    ``through_unit`` False, the space is all of End(A), d^2 unknowns.
    """
    C = np.asarray(C, dtype=np.int64) % p
    d = C.shape[0]
    if through_unit and ModP(p).unit(C) is not None:
        K = C
    else:
        K = np.eye(d * d, dtype=np.int64).reshape(d * d, d, d)
    # the scalars always commute and lie in either start space, so a
    # one-dimensional K is final
    for g in multiplications_modp(C, p):
        if K.shape[0] == 1:
            break
        eqs = ((K @ g - g @ K) % p).reshape(K.shape[0], d * d)
        coeffs, _ = kernel_modp(eqs.T, p)
        K = np.tensordot(coeffs, K, axes=(1, 0)) % p
    return K


def density_simple_modp(C, p):
    """Is the F_p-algebra with structure constants ``C`` simple?  The
    fallback of :func:`simple_modp`, and the reference its tests compare
    with: it spins up the multiplication algebra from the identity by
    :func:`spin_modp`, up to d²/k operators of d² entries, so it costs seconds
    at d = 32 where Norton's test takes milliseconds.

    Its ideals are the subspaces invariant under its multiplication algebra
    M, the unital algebra of operators generated by the left and right
    multiplications L_{e_i}, R_{e_i}.  So it is simple iff its square is
    nonzero and it is an irreducible M-module.  By Schur and Jacobson density
    that holds iff the commutant D of M is a division algebra, hence a field
    of some dimension k, and dim M = d^2 / k, the dimension of End_D(A) for
    the D-space A.  All of it is linear algebra polynomial in d.

    Operators act on row vectors, x -> x @ X: L_{e_i} = C[i], R_{e_i} =
    C[:, i].  That reverses products, which changes neither the commutant
    nor the dimension of the algebra generated.  When the algebra has a
    unit, its commutant is its centroid {L_c : c central} (Schafer 1966,
    *An Introduction to Nonassociative Algebras*, §II.1), found with d
    unknowns instead of d^2 (:func:`commutant_modp`).  Short of d² / k, the
    spin-up ends with a round that adds nothing.
    """
    C = np.asarray(C, dtype=np.int64) % p
    d = C.shape[0]
    if not C.any():
        return False
    K = commutant_modp(C, p)
    k = K.shape[0]
    # a field D makes A a D-space, so k divides d
    if d % k or not is_field_modp(K, p):
        return False
    # M lies in End_D(A), so reaching its dimension d^2 / k is equality, and
    # the spin-up stops there
    algebra = spin_modp(np.eye(d, dtype=np.int64).reshape(1, -1),
                        multiplications_modp(C, p), p, stop=d * d // k)
    return len(algebra[1]) == d * d // k


# Norton's irreducibility test draws its random elements from a generator
# seeded afresh on every call, so a verdict never depends on call order.  It
# makes at most NORTON_TRIALS trials before density decides (no call has
# needed more than 3 on the benchmark workloads, nor more than 6 on 2,000
# random algebras of dimension at most 5), and at most NORTON_SPLITS
# attempts per trial to split its null space down to one factor
NORTON_SEED = 0x4E0
NORTON_TRIALS = 16
NORTON_SPLITS = 8


def simple_modp(C, p):
    """Is the F_p-algebra with structure constants ``C`` simple?

    Its ideals are the subspaces of A = F_p^d that the multiplications
    L_{e_i}, R_{e_i} map into themselves, so it is simple iff C ≠ 0 and A is
    an irreducible module under them.  Norton's irreducibility test (the
    MeatAxe; Parker 1984, Holt & Rees 1994) decides that with a few spin-ups
    of single vectors, and never builds the multiplication algebra: each
    trial (:func:`_norton_trial`) either finds a proper submodule (not
    simple), proves irreducibility by Norton's lemma (simple), or is
    inconclusive.  When ``NORTON_TRIALS`` trials are all inconclusive,
    :func:`density_simple_modp` decides.  Both answers are proofs.
    """
    C = np.asarray(C, dtype=np.int64) % p
    if not C.any():
        return False
    if C.shape[0] == 1:
        return True
    gens = multiplications_modp(C, p)
    rng = random.Random(NORTON_SEED)
    for _ in range(NORTON_TRIALS):
        verdict = _norton_trial(gens, p, rng)
        if verdict is not None:
            return verdict
    return density_simple_modp(C, p)


def _norton_trial(gens, p, rng):
    """One trial of Norton's test on F_p^d under the operators ``gens`` (a
    (m, d, d) stack acting on rows): False when it spins up a proper
    submodule, True when Norton's lemma proves the module irreducible, None
    when neither.

    θ = X + Y·Z for random combinations X, Y, Z of the generators (their
    combinations alone are too special: on M_n(F_p), L_c has every
    eigenvalue doubled).  N = ker(θ^{p^k} − θ) for the least k where it is
    nonzero, so every irreducible factor f of χ_θ whose null space lies in
    N has degree exactly k; N is split toward a single such null space
    (:func:`_split_null_space`).  A nonzero v ∈ N is spun up under the
    generators, and a nonzero w with f(θ)w = 0, for f the minimal
    polynomial of v under θ, under their transposes (the dual module).
    Either span being proper exhibits a proper submodule.  When both are
    the whole space and dim N = k, N = ker f(θ) with dim N = deg f, and
    Norton's lemma says the module is irreducible.  A proper submodule U
    either meets N, and then contains N, which is a line over the field
    F_p[θ]/(f), hence v; or it does not, and then f(θ) is invertible on U,
    so w lies in the annihilator of U, a proper submodule of the dual.
    """
    m, d, _ = gens.shape
    X, Y, Z = (np.tensordot([rng.randrange(p) for _ in range(m)], gens, axes=(0, 0)) % p
               for _ in range(3))
    theta = (X + Y @ Z) % p
    power = theta
    for k in range(1, d + 1):
        power = _matpow_modp(power, p, p)
        N, pivots = kernel_modp((power - theta).T, p)
        if N.shape[0]:
            break
    N, pivots = _split_null_space(N, pivots, theta, k, p, rng)
    v = N[:1]
    if len(spin_modp(v, gens, p)[1]) < d:
        return False
    # the Krylov rows v θ^i (i ≤ dim N, since N is θ-invariant) first
    # become dependent at the degree of v's minimal polynomial
    krylov = [v[0]]
    for _ in range(N.shape[0]):
        krylov.append(krylov[-1] @ theta % p)
    degree = len(rref_modp(np.array(krylov), p)[1])
    f, _ = kernel_modp(np.array(krylov[:degree + 1]).T, p)
    f_theta = np.zeros((d, d), dtype=np.int64)
    for c in f[0][::-1].tolist():
        f_theta = (f_theta @ theta + c * np.eye(d, dtype=np.int64)) % p
    w, _ = kernel_modp(f_theta, p)
    if len(spin_modp(w[:1], gens.transpose(0, 2, 1), p)[1]) < d:
        return False
    return True if N.shape[0] == k else None


def _split_null_space(N, pivots, theta, k, p, rng):
    """Split the θ-invariant rref basis N, a sum of null spaces of distinct
    irreducible factors of degree k, toward one of them (dimension k), in at
    most NORTON_SPLITS attempts.  Returns (basis, pivots).

    On each summand a random polynomial r in θ acts as an element of
    F_{p^k}.  So s = r^{(p^k−1)/2} − 1 (p odd) or the trace r + r² + … +
    r^{2^{k−1}} (p = 2) is zero on the summands where that element is a
    nonzero square, or has trace 0, and invertible on the others; its
    kernel, when proper and nonzero, replaces N.
    """
    for _ in range(NORTON_SPLITS):
        n = N.shape[0]
        if n == k:
            break
        # θ on N in the coordinates of its rref basis: read off the pivots
        T = (N @ theta % p)[:, pivots]
        eye = np.eye(n, dtype=np.int64)
        r, power = 0 * eye, eye
        for _ in range(n):
            r = (r + rng.randrange(p) * power) % p
            power = power @ T % p
        if p == 2:
            s = r
            for _ in range(k - 1):
                r = r @ r % 2
                s = (s + r) % 2
        else:
            s = (_matpow_modp(r, (p ** k - 1) // 2, p) - eye) % p
        K, _ = kernel_modp(s.T, p)
        if 0 < K.shape[0] < n:
            N, pivots = rref_modp(K @ N % p, p)
    return N, pivots


# ---------------------------------------------------------------------------
# rational path, rows are tuples of Fractions
# ---------------------------------------------------------------------------

def _frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def rref_frac(rows, width=None):
    """Reduced row echelon form over Q.  Returns (rows tuple, pivots)."""
    A = _frac_rows(rows)
    if not A:
        return (), ()
    n = width if width is not None else len(A[0])
    m = len(A)
    r = 0
    pivots = []
    for c in range(n):
        if r == m:
            break
        sel = None
        for i in range(r, m):
            if A[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        A[r], A[sel] = A[sel], A[r]
        inv = 1 / A[r][c]
        A[r] = [x * inv for x in A[r]]
        for i in range(m):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in A[:r]), tuple(pivots)


def reduce_row_frac(vec, basis, pivots):
    v = [Fraction(x) for x in vec]
    for ri, c in enumerate(pivots):
        if v[c] != 0:
            f = v[c]
            row = basis[ri]
            v = [x - f * y for x, y in zip(v, row)]
    return v


def member_frac(vec, basis, pivots):
    return all(x == 0 for x in reduce_row_frac(vec, basis, pivots))


def merge_frac(basis, pivots, newrows):
    fresh = []
    b, pv = list(basis), list(pivots)
    grew = False
    for row in newrows:
        rem = reduce_row_frac(row, b, pv)
        if any(x != 0 for x in rem):
            fresh.append(rem)
            grew = True
    if not grew:
        return tuple(basis), tuple(pivots), False
    nb, npiv = rref_frac(list(basis) + fresh)
    return nb, npiv, True


def kernel_frac(rows, n):
    """Right kernel {x : A x = 0} over Q for the matrix with the given rows."""
    R, pivots = rref_frac(rows, width=n)
    pivset = set(pivots)
    free = [c for c in range(n) if c not in pivset]
    out = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for ri, c in enumerate(pivots):
            v[c] = -R[ri][f]
        out.append(v)
    return rref_frac(out, width=n)[0] if out else ()


# ---------------------------------------------------------------------------
# field backends
# ---------------------------------------------------------------------------

class _Field:
    """The methods both backends share, written once on top of the kernels.

    Subclasses provide ``dtype``, ``modulus``, ``reduce``, ``coords``,
    ``rows``, ``key``, ``rref``, ``member``, ``merge``, ``kernel``,
    ``products``, ``mapped_products``, ``mult_matrices``,
    ``homomorphism_sides``, ``twisted_blocks``, ``associator_witness`` and
    ``simple_reduction``.
    """

    def array(self, x):
        """``x`` as a numpy array of this field's dtype (not reduced)."""
        return np.asarray(x, dtype=self.dtype)

    def matrix(self, rows, width):
        """``rows`` as a reduced 2-D array of shape (len(rows), width)."""
        return self.reduce(self.array(rows).reshape(-1, width))

    def zeros(self, shape):
        return self.reduce(np.zeros(shape, dtype=np.int64))

    def eye(self, n):
        return self.reduce(np.eye(n, dtype=np.int64))

    def matmul(self, X, Y):
        """X @ Y, reduced; stacks of matrices multiply pairwise."""
        return self.reduce(self.array(X) @ self.array(Y))

    def rank(self, rows, width):
        return len(self.rref(rows, width)[1])

    def intersect(self, U, W, width):
        """Rref basis and pivots of span(U) ∩ span(W), by Zassenhaus: rows of
        the rref of [[U U], [W 0]] whose left half vanishes carry the
        intersection in their right half."""
        U, W = self.matrix(U, width), self.matrix(W, width)
        R, _ = self.rref(np.vstack([np.hstack([U, U]), np.hstack([W, 0 * W])]),
                         2 * width)
        return self.rref([row[width:] for row in R if not any(row[:width])], width)

    def solve(self, A, b):
        """One x with A x = b, or None when there is none.  ``b`` is a vector,
        or a matrix whose columns are right-hand sides (x is then a matrix)."""
        A = self.array(A)
        B = self.array(b).reshape(A.shape[0], -1)
        n = A.shape[1]
        R, pivots = self.rref(np.hstack([A, B]), n + B.shape[1])
        if pivots and pivots[-1] >= n:
            return None
        x = self.zeros((n, B.shape[1]))
        for ri, c in enumerate(pivots):
            x[c] = R[ri][n:]
        return x if np.ndim(b) == 2 else x[:, 0]

    def unit(self, C):
        """The two-sided unit of the algebra with structure constants ``C``,
        as a coordinate vector, or None when it has none.

        e·e_j = e_j and e_j·e = e_j are 2d² linear equations in the d
        coordinates of e: rows (j, k) hold the e_k coefficient of e·e_j,
        then of e_j·e.
        """
        C = self.array(C)
        d = C.shape[0]
        A = np.vstack([C.transpose(1, 2, 0).reshape(d * d, d),
                       C.transpose(0, 2, 1).reshape(d * d, d)])
        return self.solve(A, np.tile(self.eye(d).ravel(), 2))


# the largest p that ModP admits: see its docstring
MAX_MODULUS = 1 << 21


class ModP(_Field):
    """F_p: int64 arrays, vectorized elimination, dense contractions.

    Every kernel reduces mod p after each product of two arrays, so the
    largest number it forms is a sum of at most n products of residues, for
    n the width of a row: below n·p² < 2^63.  ``MAX_MODULUS`` = 2^21 keeps
    that true for rows of width up to 2^21 (a d² row of operators up to
    d = 1448); a larger p raises TooLarge.
    """

    dtype = np.int64

    def __init__(self, p):
        if p > MAX_MODULUS:
            raise TooLarge(f"prime {p} exceeds the largest supported modulus "
                           f"{MAX_MODULUS} of int64 arithmetic mod p")
        self.modulus = self.p = p

    def reduce(self, M):
        return np.asarray(M, dtype=np.int64) % self.p

    def coords(self, v):
        """A vector as a coordinate tuple of Python ints."""
        return tuple(np.asarray(v).tolist())

    def rows(self, rows, width):
        return np.asarray(rows, dtype=np.int64).reshape(-1, width)

    def key(self, rows):
        return rows.tobytes()

    def rref(self, rows, width):
        return rref_modp(self.rows(rows, width), self.p)

    def member(self, vec, basis, pivots):
        return member_modp(np.asarray(vec, dtype=np.int64), basis, pivots, self.p)

    def merge(self, basis, pivots, newrows):
        return merge_modp(basis, pivots, newrows, self.p)[:3]

    def kernel(self, A, width):
        return kernel_modp(self.rows(A, width), self.p)

    def products(self, alg, X, Y):
        """Rows x·y for every x in X and y in Y (x-major)."""
        T = np.tensordot(self.array(X), alg.constants, axes=(1, 0)) % self.p   # (m, j, k)
        return (np.einsum("mjk,nj->mnk", T, self.array(Y)) % self.p).reshape(-1, alg.dim)

    def mapped_products(self, alg, M):
        """Rows (e_i e_j)·M for every basis pair (i-major): the constants
        reshaped to (d², d), times M."""
        d = alg.dim
        return alg.constants.reshape(d * d, d) @ self.array(M) % self.p

    def mult_matrices(self, alg, a):
        """(L, R) with L[j] = a·e_j and R[i] = e_i·a."""
        a = self.array(a)
        return (np.tensordot(a, alg.constants, axes=(0, 0)) % self.p,
                np.tensordot(alg.constants, a, axes=(1, 0)) % self.p)

    def homomorphism_sides(self, src, tgt, Ms):
        """Both sides of m(xy) = m(x) m(y) on basis pairs, for a stack of
        maps from ``src`` to ``tgt``: ``Ms`` is (m, d, e), each M_k a matrix
        on coordinate rows, and the result is two (m, d, d, e) arrays whose
        [k, i, j] rows are (e_i e_j)·M_k and (e_i M_k)(e_j M_k).  Three
        contractions for the whole stack, whatever its length."""
        p, Ms = self.p, self.array(Ms)
        m, d, _ = Ms.shape
        left = src.constants.reshape(d * d, d) @ Ms % p
        # T[k, i, b] = (e_i M_k)·f_b for f_b the basis of tgt
        T = np.einsum("kia,abl->kibl", Ms, tgt.constants) % p
        right = np.einsum("kibl,kjb->kijl", T, Ms) % p
        return left.reshape(m, d, d, -1), right

    def twisted_blocks(self, alg, Ss, alpha, opposite):
        """The blocks (m, d, h, d) whose [k, i, j] row is (e_i · s)·alpha,
        or (s · e_i)·alpha when ``opposite``, for s = S_k[j] the rows of a
        stack ``Ss`` (m, h, d) of elements of ``alg``: a crossed product's
        products e_i u_g · e_j u_h for a stack of sigma_g sharing their
        twist and alpha.  Two contractions for the whole stack."""
        p, C = self.p, alg.constants
        spec = "bil,kjb->kijl" if opposite else "ibl,kjb->kijl"
        X = np.einsum(spec, C, self.array(Ss)) % p
        return X @ self.mult_matrices(alg, alpha)[1] % p

    def associator_witness(self, alg):
        """The first basis triple (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k)."""
        C, p = alg.constants, self.p
        left = np.einsum("ijm,mkl->ijkl", C, C) % p
        right = np.einsum("jkm,iml->ijkl", C, C) % p
        bad = np.argwhere(np.any(left != right, axis=3))
        return tuple(bad[0].tolist()) if bad.size else None

    def simple_reduction(self, C):
        """p when the algebra with structure constants ``C`` is simple by
        :func:`simple_modp`, else None: over F_p that decides, so None means
        not simple."""
        return self.p if simple_modp(C, self.p) else None


class Rational(_Field):
    """Q: tuples of Fractions, exact elimination, sparse contractions (two
    full constant tensors are never contracted: the dense object-array
    einsum is orders of magnitude slower than the sparse loops)."""

    dtype = object
    modulus = None

    def reduce(self, M):
        M = np.asarray(M, dtype=object)
        return np.array([Fraction(x) for x in M.flat], dtype=object).reshape(M.shape)

    def coords(self, v):
        return tuple(v)

    def rows(self, rows, width):
        return tuple(tuple(Fraction(x) for x in r) for r in rows)

    def key(self, rows):
        return rows

    def rref(self, rows, width):
        return rref_frac(rows, width=width)

    def member(self, vec, basis, pivots):
        return member_frac(vec, basis, pivots)

    def merge(self, basis, pivots, newrows):
        return merge_frac(basis, pivots, newrows)

    def kernel(self, A, width):
        # kernel_frac returns an rref basis without its pivots: each is the
        # first nonzero entry of its row
        rows = kernel_frac(A, width)
        return rows, tuple(next(c for c, x in enumerate(row) if x) for row in rows)

    def products(self, alg, X, Y):
        return [alg.mul_coords(x, y) for x in X for y in Y]

    def mapped_products(self, alg, M):
        d, M = alg.dim, self.array(M)
        nonzero = [[(l, x) for l, x in enumerate(row) if x] for row in M]
        out = self.zeros((d * d, M.shape[1]))
        for (i, j), terms in alg._pairs.items():
            row = out[i * d + j]
            for k, c in terms:
                for l, x in nonzero[k]:
                    row[l] += c * x
        return out

    def mult_matrices(self, alg, a):
        basis = [alg.basis_element(i).data for i in range(alg.dim)]
        return (self.array([alg.mul_coords(a, e) for e in basis]),
                self.array([alg.mul_coords(e, a) for e in basis]))

    def homomorphism_sides(self, src, tgt, Ms):
        """See :meth:`ModP.homomorphism_sides`; one map at a time, sparse."""
        d = src.dim
        left = [self.mapped_products(src, M) for M in Ms]
        right = [self.array(self.products(tgt, M, M)) for M in Ms]
        return (np.stack(left).reshape(len(Ms), d, d, -1),
                np.stack(right).reshape(len(Ms), d, d, -1))

    def twisted_blocks(self, alg, Ss, alpha, opposite):
        """See :meth:`ModP.twisted_blocks`; one map at a time, sparse."""
        d, eye, blocks = alg.dim, self.eye(alg.dim), []
        for S in Ss:
            h = len(S)
            if opposite:
                X = self.array(self.products(alg, S, eye)).reshape(h, d, d).transpose(1, 0, 2)
            else:
                X = self.array(self.products(alg, eye, S))
            blocks.append(self.array(self.products(alg, X.reshape(-1, d), [alpha])
                                     ).reshape(d, h, d))
        return np.stack(blocks)

    def associator_witness(self, alg):
        d, pairs = alg.dim, alg._pairs
        for i in range(d):
            for j in range(d):
                ij = pairs.get((i, j), [])
                for k in range(d):
                    acc = [Fraction(0)] * d
                    for m, c in ij:
                        for l, c2 in pairs.get((m, k), []):
                            acc[l] += c * c2
                    for m, c in pairs.get((j, k), []):
                        for l, c2 in pairs.get((i, m), []):
                            acc[l] -= c * c2
                    if any(acc):
                        return i, j, k
        return None

    def simple_reduction(self, C):
        """The first prime q of ``LIFT_PRIMES`` at which the Q-algebra A with
        structure constants ``C``, reduced mod q, is simple by
        :func:`simple_modp`; None when no tried prime decides.

        A prime dividing a denominator of ``C`` is skipped.  For the others
        the Z_(q)-span Λ of the basis is a ring, and Λ/qΛ is the reduction.
        A proper nonzero ideal I of A meets Λ in a saturated ideal, a direct
        summand of rank dim I, whose image is a proper nonzero ideal of
        Λ/qΛ.  So simplicity mod q proves simplicity over Q.  The converse
        fails (Q(i) splits mod 5), so None says nothing about A.
        """
        C = np.asarray(C, dtype=object)
        flat = [Fraction(x) for x in C.flat]
        for q in LIFT_PRIMES:
            if any(x.denominator % q == 0 for x in flat):
                continue
            Cq = [x.numerator * pow(x.denominator, -1, q) % q for x in flat]
            if simple_modp(np.array(Cq, dtype=np.int64).reshape(C.shape), q):
                return q
        return None


# the primes a Q-algebra is reduced modulo to prove it simple: odd, so that
# the Cayley-Dickson conjugation survives, and several, because a simple
# algebra can split at one of them (5 = (2+i)(2-i) splits Q(i))
LIFT_PRIMES = (3, 5, 7, 11)

RATIONAL = Rational()


def backend(field):
    """The backend of a scalar field (Q or a prime field F_p)."""
    return RATIONAL if field.char == 0 else ModP(field.n)
