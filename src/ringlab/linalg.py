"""The two scalar fields, F_p and Q, and exact linear algebra over them.

This is the only module that knows how a field's scalars and vectors are
stored and reduced.  Each field is one object, its backend, and both
backends have the same small method set: the scalar arithmetic (``name``,
``zero``, ``one``, ``coerce``, ``add``, ``neg``, ``mul``, ``inv``, ``div``)
and the vector methods of :class:`_Field`.

* ``GF(p)``, the one ``ModP(p)`` for a prime p: F_p, scalars are Python
  ints in [0, p), rows are 2-D int64 arrays with entries in [0, p),
  reduced by vectorized numpy elimination, for p up to ``MAX_MODULUS``,
  below which no sum the kernels form overflows int64;
* ``QQ`` (``RATIONAL``), the one ``Rational``: Q, scalars are
  ``Fraction``s, rows are tuples of them, matrices are numpy object arrays
  of them.  Inside, it works on Python ints: rows are
  scaled to integers and reduced by fraction-free Gauss-Jordan elimination,
  and products read one integer table per algebra (``product_table``: the
  constants as numerators over a common denominator).  Between its own
  steps a value stays integer rows over one denominator, and values are
  compared as integers: a/u = b/v iff a·v = b·u.  A ``Fraction`` is made
  only where a result leaves the backend, once per entry; a method that
  returns a verdict or a mask (``product_failures``,
  ``associates_and_commutes``, ``commutator_witness``, ``equal``) or a
  null space it reduces from integer rows (``commutant``) makes none
  along the way.

A structure algebra's field is its backend; every caller works through it
and never asks which field it is on: the backends also own the number of
elements (``size``), ideal closure, enumeration, random elements, the Q
field test and the JSON form (see :class:`_Field`).  A backend has no
``modulus``: F_p's prime is ``GF(p).p``.
Matrices are numpy arrays in both cases, so shape-level code
(transpose, slicing, ``@``) is shared, and the backend's ``reduce`` takes the
place of ``% p``.  Subspaces are kept in reduced row echelon form, which is
canonical: two subspaces are equal iff their rref bases are identical.  All
routines are pure; nothing mutates its inputs.

The row-reduction kernels (``rref_modp``, ``reduce_rows_modp``,
``merge_modp``, ``kernel_modp``, ``rref_frac``, ``merge_frac``,
``kernel_frac``) are module-level functions; the backends look them up by
name at call time.  So do the F_p decisions built on them.  Reducing rows
against an rref basis is one product, R − R[:, pivots] @ basis, and a
null space is one elimination in both fields: of A with its columns
reversed, whose free columns give the kernel's rref rows directly.
``irreducible_modp`` is the one F_p irreducibility decision: Norton's test
(the MeatAxe) on any stack of operators, which finds a proper invariant
subspace, proves there is none, or is undecided, without enumerating
elements.  Two questions ask it.  ``norton_modp``, the one F_p simplicity
decision, asks it on an algebra's multiplications and returns its
:class:`Decision`: a "not simple" comes with the proper submodule it found,
an ideal, and a call that no trial decides is undecided, at any size.
``ideals._line_closures`` asks it on a subring's multiplications together
with maps, for every stable-ideal quantifier.  Each backend's
``simplicity`` is the one simplicity decision that ``ideals.is_simple``
reads, and through it field recognition and the degree-map scan: ``ModP``
runs ``norton_modp``, and ``Rational`` runs it on reductions modulo
``LIFT_PRIMES``, which can prove a Q-algebra simple.
Where elements must be enumerated, ``combinations_modp`` yields them as
fixed-size blocks of rows, so scans over them are matrix products.  A
structure algebra's products (``mul_coords``) run on its ``product_table``,
built on first use: a sparse loop over ints, with one ``% p`` or one
``Fraction`` per output coordinate.

``spin_modp`` is the one loop that grows an F_p basis.  It spins up
vectors under a stack of operators (ideal closures, Norton's test) and,
from the identity, the unital algebra a stack generates (the closure
algebra E of a subring's lines).  Each round grows one rref basis through
``merge_modp``, which reduces the candidates against the basis in one
product, eliminates only their remainders, and back-substitutes that fresh block into
the basis; the block is the next round's frontier.  The basis itself is never eliminated again.
The operators of an algebra's multiplications, L_b and R_b, come from
``multiplications_modp``, and its unit from the backends' ``unit``.

Crossed products are built on stacks: ``product_failures`` checks a whole
stack of linear maps for (anti-)multiplicativity, ``twisted_blocks`` builds
the multiplication blocks of a stack of maps, and ``matmul`` composes stacks
pairwise.  ``ModP`` does each in a fixed number of contractions; ``Rational``
loops over the stack, on integer rows.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from dataclasses import dataclass
from functools import cache
from math import gcd, isqrt, lcm
from typing import NamedTuple

import numpy as np

from .errors import InfiniteScalarField, TooLarge


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
    """Eliminate ``rows`` against an rref ``basis``; returns the remainders.

    One product: R − R[:, pivots] @ basis.  Each basis row is zero at every
    other pivot column, so clearing one pivot never changes a row's entry
    at another, and the coefficients are R's own entries at the pivots.
    The largest sum it forms is width·(p−1)², inside :class:`ModP`'s bound.
    """
    R = np.array(rows, dtype=np.int64).reshape(-1, basis.shape[1] if basis.size else np.shape(rows)[-1]) % p
    if not pivots:
        return R
    return (R - R[:, list(pivots)] @ basis) % p


def member_modp(vec, basis, pivots, p):
    rem = reduce_rows_modp(np.asarray(vec, dtype=np.int64).reshape(1, -1), basis, pivots, p)
    return not rem.any()


def merge_modp(basis, pivots, newrows, p):
    """Adjoin rows to an rref basis.  Returns (basis, pivots, grew, fresh):
    the rref of the span of both, whether it is larger, and ``fresh``, the
    rref of the rows' remainders against ``basis`` (no rows when the span
    did not grow).

    The basis is never eliminated again.  The rows are reduced against it
    in one product (:func:`reduce_rows_modp`), and only their nonzero
    remainders are row-reduced, to ``fresh``.
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
    """Right kernel {x : A x = 0} over F_p, returned as (rref rows, pivots),
    from one elimination.  Zero equations are dropped before it, whose
    every step costs a pass over all the rows (a centralizer's equations
    are mostly zero).

    A is reduced with its columns reversed, to R.  For each free column f,
    the kernel row has 1 at f and −R[:, f] at the pivot columns (read back
    through the reversal).  A row of R is zero left of its pivot, so in
    the original order every other nonzero of that row lies right of f:
    the rows, taken by increasing f, are already the canonical rref of the
    null space, with the free columns as pivots.
    """
    A = np.array(A, dtype=np.int64) % p
    n = A.shape[1]
    R, pivots = rref_modp(A[A.any(axis=1), ::-1], p)
    pivset = set(pivots)
    # the free columns in reversed coordinates, largest first: the kernel
    # rows in order of their pivots in the original ones
    free = [c for c in range(n - 1, -1, -1) if c not in pivset]
    K = np.zeros((len(free), n), dtype=np.int64)
    K[:, list(pivots)] = -R[:, free].T % p
    K[np.arange(len(free)), free] = 1
    return K[:, ::-1].copy(), tuple(n - 1 - c for c in free)


def spin_modp(seed_rows, ops, p):
    """The smallest subspace that contains the rows ``seed_rows`` and that
    every operator maps into itself, as (rref basis, pivots): the MeatAxe
    spin-up (Parker 1984).  This is the one loop that grows an F_p basis.

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
    ends when the span is the whole space, or after a round that adds
    nothing.
    """
    m, n, _ = ops.shape
    rows, pivots = rref_modp(seed_rows, p)
    width = rows.shape[1]
    frontier = rows
    while frontier.shape[0] and len(pivots) < width:
        step = frontier.shape[0] if width == n else max(1, width // (2 * m))
        fresh = []
        for start in range(0, frontier.shape[0], step):
            images = frontier[start:start + step].reshape(-1, n) @ ops % p
            rows, pivots, _, block = merge_modp(rows, pivots, images.reshape(-1, width), p)
            if len(pivots) == width:
                return rows, pivots
            fresh.append(block)
        frontier = fresh[0] if len(fresh) == 1 else np.concatenate(fresh)
    return rows, pivots


def multiplications_modp(C, p):
    """L_{e_i} = C[i] and R_{e_i} = C[:, i] for each basis vector e_i, as
    the (2d, d, d) stack that :func:`spin_modp` takes: v @ L_b = b·v and
    v @ R_b = v·b."""
    return np.concatenate([C, C.transpose(1, 0, 2)])


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


# Norton's irreducibility test draws its random elements from a generator
# seeded afresh on every call, so a verdict never depends on call order.  It
# makes at most NORTON_TRIALS trials before it gives up undecided (no call
# has needed more than 3 on the benchmark workloads, nor more than 6 on
# 2,110 algebras over F_2, F_3 and F_5: random, sparse and block sums of
# dimension at most 5, and truncated polynomial rings, sums of matrix
# algebras and of fields up to dimension 9 on random bases; none was left
# undecided), and at most NORTON_SPLITS attempts per trial to split its
# null space down to one factor
NORTON_SEED = 0x4E0
NORTON_TRIALS = 16
NORTON_SPLITS = 8


@dataclass(frozen=True, slots=True)
class Decision:
    """What a decision procedure found about the subspaces that a stack of
    operators maps into themselves, the one value of the backends'
    ``simplicity`` and the spans' ``stable_closures``: ``holds`` is True
    when no proper nonzero one exists, False when ``submodule`` is one (as
    (rref basis, pivots), or a span from a span; None for C = 0), and None
    when undecided.  ``decided_by`` names the procedure (see
    ``ideals.Verdict``), ``reason`` what to print with a Simple read off
    anything but the algebra itself, or with an undecided Q-algebra that
    no witness search refutes, and ``close(seed, bound=None)`` the
    closure of a line, for a walk that a span's decision leaves open."""
    holds: bool | None
    submodule: object = None
    reason: str | None = None
    decided_by: str | None = None
    close: object = None


def norton_modp(C, p):
    """The :class:`Decision` of whether the F_p-algebra with structure
    constants ``C`` is simple: ``holds`` True or False, or None when no
    trial decides, and, when it is not, the (rref basis, pivots) of a
    proper nonzero ideal that proves it, or None when C = 0.

    Its ideals are the subspaces of A = F_p^d that the multiplications
    L_{e_i}, R_{e_i} map into themselves, so it is simple iff C ≠ 0 and A is
    an irreducible module under them: :func:`irreducible_modp` on
    :func:`multiplications_modp`, which also decides d = 1.  This is the
    one F_p simplicity decision; a call that no trial decides, at any d,
    is undecided.
    """
    C = np.asarray(C, dtype=np.int64) % p
    if not C.any():
        return Decision(False, decided_by="products-vanish")
    return irreducible_modp(multiplications_modp(C, p), p)


def irreducible_modp(ops, p):
    """Norton's irreducibility test (the MeatAxe; Parker 1984, Holt & Rees
    1994) on F_p^k under the (m, k, k) operator stack ``ops``, acting on
    rows, as a :class:`Decision` decided by "norton": ``holds`` True when
    no proper nonzero subspace is invariant under every operator, False
    with a proper nonzero invariant subspace as (rref basis, pivots) when
    one is found, None (undecided) when ``NORTON_TRIALS`` trials
    (:func:`_norton_trial`) are all inconclusive.  A space of dimension
    k ≤ 1 has no proper nonzero subspace, so it is irreducible.

    It decides with a few spin-ups of single vectors and never builds the
    algebra the operators generate.  The stack is what is asked: an
    algebra's multiplications (:func:`norton_modp`), or those of a subring
    together with maps (``ideals._line_closures``).
    """
    if ops.shape[-1] <= 1:
        return Decision(True, decided_by="norton")
    rng = random.Random(NORTON_SEED)
    for _ in range(NORTON_TRIALS):
        found = _norton_trial(ops, p, rng)
        if found is True:
            return Decision(True, decided_by="norton")
        if found is not None:
            return Decision(False, found, decided_by="norton")
    return Decision(None)


def _norton_trial(gens, p, rng):
    """One trial of Norton's test on F_p^d under the operators ``gens`` (a
    (m, d, d) stack acting on rows): a proper nonzero submodule, as (rref
    basis, pivots), when it finds one; True when Norton's lemma proves the
    module irreducible; None when neither.

    θ = X + Y·Z for random combinations X, Y, Z of the generators (their
    combinations alone are too special: on M_n(F_p), L_c has every
    eigenvalue doubled).  N = ker(θ^{p^k} − θ) for the least k where it is
    nonzero, so every irreducible factor f of χ_θ whose null space lies in
    N has degree exactly k.  A nonzero v ∈ N is spun up under the
    generators; a proper span ends the trial.  Only when the span is the
    whole space and dim N > k is N split toward a single such null space
    (:func:`_split_null_space`), and v, now from the smaller N, spun up
    again.  Then a nonzero w with f(θ)w = 0, for f the minimal polynomial of
    v under θ, is spun up under their transposes (the dual module).
    Either span being proper exhibits a proper submodule.  When both are
    the whole space and dim N = k, N = ker f(θ) with dim N = deg f, and
    Norton's lemma says the module is irreducible.  A proper submodule U
    either meets N, and then contains N, which is a line over the field
    F_p[θ]/(f), hence v; or it does not, and then f(θ) is invertible on U,
    so w lies in the annihilator of U, a proper submodule of the dual.
    A proper span W of the dual gives the proper submodule {x : x·W = 0}:
    for x in it, (x g)·w = x·(w gᵀ) = 0, since W is invariant under gᵀ.
    """
    m, d, _ = gens.shape
    # the coefficients of X, then of Y, then of Z, contracted at once
    X, Y, Z = np.tensordot([[rng.randrange(p) for _ in range(m)] for _ in range(3)],
                           gens, axes=(1, 0)) % p
    theta = (X + Y @ Z) % p
    power = theta
    for k in range(1, d + 1):
        power = _matpow_modp(power, p, p)
        N, pivots = kernel_modp((power - theta).T, p)
        if N.shape[0]:
            break
    span = spin_modp(N[:1], gens, p)
    if len(span[1]) == d and N.shape[0] > k:
        N, pivots = _split_null_space(N, pivots, theta, k, p, rng)
        span = spin_modp(N[:1], gens, p)
    if len(span[1]) < d:
        return span
    v = N[:1]
    # the Krylov rows v θ^i (i ≤ dim N, since N is θ-invariant) first
    # become dependent at the degree of v's minimal polynomial
    krylov = [v[0]]
    for _ in range(N.shape[0]):
        krylov.append(krylov[-1] @ theta % p)
    degree = len(rref_modp(np.array(krylov), p)[1])
    f, _ = kernel_modp(np.array(krylov[:degree + 1]).T, p)
    eye = np.eye(d, dtype=np.int64)
    f_theta = np.zeros((d, d), dtype=np.int64)
    for c in f[0][::-1].tolist():
        f_theta = (f_theta @ theta + c * eye) % p
    w, _ = kernel_modp(f_theta, p)
    dual, pivots = spin_modp(w[:1], gens.transpose(0, 2, 1), p)
    if len(pivots) < d:
        return kernel_modp(dual, p)
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
# rational path: Fractions in and out, Python ints inside
# ---------------------------------------------------------------------------

ZERO, ONE = Fraction(0), Fraction(1)


def _fraction(x):
    """``x`` as a Fraction.  A Fraction passes through unchanged; a numpy
    integer becomes a Python int first, so no int64 reaches the arithmetic."""
    if type(x) is Fraction:
        return x
    return Fraction(int(x) if isinstance(x, np.integer) else x)


# :func:`_fraction` as a numpy ufunc on object arrays
_FRACTIONS = np.frompyfunc(_fraction, 1, 1)
_NUMERATORS = np.frompyfunc(operator.attrgetter("numerator"), 1, 1)


def nonzero(X):
    """The mask of the nonzero entries of an array of ints or of rationals,
    read off the numerators: no Fraction is compared or truth-tested."""
    return (_NUMERATORS(X) if X.dtype == object else X).astype(bool)


def _rational(x):
    """``x`` as an int or a Fraction, both of which pass through unchanged."""
    return x if type(x) is int else _fraction(x)


def _scaled(rows):
    """Rows of rationals as (integer rows, den): the rows times den, the lcm
    of all their denominators."""
    rows = [[_rational(x) for x in row] for row in rows]
    den = lcm(*[x.denominator for row in rows for x in row])
    if den == 1:
        return [[x.numerator for x in row] for row in rows], 1
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def _integer_row(row):
    """``row`` times the lcm of its own denominators, as Python ints; a
    row of Python ints is taken as it is."""
    row = list(row)
    if all(type(x) is int for x in row):
        return row
    return _scaled([row])[0][0]


def _is_perfect_square(f):
    """Is the rational ``f`` the square of a rational?"""
    if f < 0:
        return False
    p, q = f.numerator, f.denominator
    rp, rq = isqrt(p), isqrt(q)
    return rp * rp == p and rq * rq == q


def _fractions(ints, den):
    """The rational row ``ints`` / ``den``, as a tuple of Fractions."""
    return tuple(Fraction(x, den) if x else ZERO for x in ints)


def _int_array(X):
    """(integer array, den): the array ``X`` of rationals times den, the lcm
    of its denominators, as an object array of Python ints."""
    X = np.asarray(X, dtype=object)
    (ints,), den = _scaled([X.flat])
    return np.array(ints, dtype=object).reshape(X.shape), den


def _fraction_array(ints, den):
    """``ints`` / ``den`` as an object array of Fractions, for ``ints`` an
    array (or nested lists) of Python ints: numpy finds the nonzero
    entries, and only they become new Fractions; the others are ZERO."""
    ints = np.asarray(ints, dtype=object)
    out = np.full(ints.shape, ZERO, dtype=object)
    nonzero = np.flatnonzero(ints)
    out.flat[nonzero] = [Fraction(x, den) for x in ints.flat[nonzero].tolist()]
    return out


def _reduce_int(v, basis):
    """The integer row ``v`` reduced against ``basis``, a dict pivot -> integer
    row that vanishes at every other pivot: a multiple of the rational
    remainder, divided by its content.  All zeros when ``v`` is in the span.

    Clearing pivot c multiplies ``v`` by the pivot entry b[c] over its gcd
    with v[c], which keeps the entries integral without dividing."""
    for c, b in basis.items():
        x = v[c]
        if x:
            p = b[c]
            g = gcd(p, x)
            p, x = p // g, x // g
            v = [p * a - x * e for a, e in zip(v, b)]
    g = gcd(*v)
    return v if g < 2 else [a // g for a in v]


def _adjoin_int(v, basis):
    """Adjoin the nonzero reduced integer row ``v`` to ``basis`` (see
    :func:`_reduce_int`): its pivot is its first nonzero column, cleared
    from every basis row that is nonzero there."""
    c = next(i for i, a in enumerate(v) if a)
    p = v[c]
    for k, b in basis.items():
        x = b[c]
        if x:
            g = gcd(p, x)
            row = [(p // g) * a - (x // g) * e for a, e in zip(b, v)]
            g = gcd(*row)
            basis[k] = row if g < 2 else [a // g for a in row]
    basis[c] = v


def _echelon_int(rows, n):
    """The integer basis (see :func:`_reduce_int`) of the rational ``rows``
    of width ``n``, adjoined one row at a time: fraction-free Gauss-Jordan
    elimination, where each new row is divided by its content instead of
    by the previous pivot as in Bareiss (1968).  Stops when the basis spans
    all n columns."""
    basis = {}
    for row in rows:
        if len(basis) == n:
            break
        v = _reduce_int(_integer_row(row), basis)
        if any(v):
            _adjoin_int(v, basis)
    return basis


def _rref_out(basis):
    """An integer basis as (rref rows, pivots): each row divided by its
    pivot entry, which makes the pivot 1 and the denominators positive."""
    pivots = tuple(sorted(basis))
    return tuple(_fractions(basis[c], basis[c][c]) for c in pivots), pivots


def rref_frac(rows, width=None):
    """Reduced row echelon form over Q.  Returns (rows tuple, pivots).

    The rows are eliminated as integer rows (see :func:`_echelon_int`);
    Fractions are made only for the output, once per entry.  The rref is
    canonical, so it does not depend on how it was computed."""
    rows = list(rows)
    if not rows:
        return (), ()
    return _rref_out(_echelon_int(rows, width if width is not None else len(rows[0])))


def _basis_int(basis, pivots):
    """An rref basis over Q as an integer basis: each row times the lcm of
    its denominators, keyed by its pivot."""
    return {c: _integer_row(row) for c, row in zip(pivots, basis)}


def reduce_row_frac(vec, basis, pivots):
    """The remainder of ``vec`` against the rref basis, as a row of integers:
    a nonzero multiple of the rational remainder, or all zeros."""
    return _reduce_int(_integer_row(vec), _basis_int(basis, pivots))


def member_frac(vec, basis, pivots):
    return not any(reduce_row_frac(vec, basis, pivots))


def merge_frac(basis, pivots, newrows):
    """Adjoin rows to an rref basis over Q.  Returns (basis, pivots, grew):
    the rref of the span of both and whether it is larger.  The rows are
    reduced against the basis as integer rows, and only their nonzero
    remainders are eliminated with it."""
    B = _basis_int(basis, pivots)
    fresh = [v for v in (_reduce_int(_integer_row(row), B) for row in newrows) if any(v)]
    if not fresh:
        return tuple(basis), tuple(pivots), False
    nb, npiv = rref_frac(list(basis) + fresh)
    return nb, npiv, True


def kernel_frac(rows, n):
    """Right kernel {x : A x = 0} over Q for the matrix with the given rows,
    as rref rows, from one elimination: :func:`kernel_modp`'s construction
    on the integer basis (:func:`_echelon_int`) of the rows with their
    columns reversed.  Its row b with pivot c has R[ri, f] = b[f] / b[c],
    so each kernel entry is one Fraction(−b[f], b[c]): no Fraction
    arithmetic."""
    basis = _echelon_int((list(row)[::-1] for row in rows), n)
    out = []
    # f and c are reversed coordinates; the free columns largest first give
    # the kernel rows in order of their pivots in the original ones
    for f in range(n - 1, -1, -1):
        if f not in basis:
            v = [ZERO] * n
            v[f] = ONE
            for c, b in basis.items():
                if b[f]:
                    v[c] = Fraction(-b[f], b[c])
            out.append(tuple(v[::-1]))
    return tuple(out)


class ProductTable(NamedTuple):
    """See :func:`product_table`."""

    terms: list
    den: int

    def entries(self):
        """(i, j, k, n) for every nonzero constant C[i, j, k] = n / den."""
        return ((i, j, k, n) for i, row in enumerate(self.terms)
                for j, cell in enumerate(row) for k, n in cell)


def product_table(C):
    """The sparse integer product table of structure constants ``C`` (a
    d×d×d array of ints or Fractions): (terms, den) with den the lcm of the
    denominators and terms[i][j] the tuple of (k, n) with C[i, j, k] = n /
    den ≠ 0.  Over F_p den is 1 and n the residue.  The nonzero constants
    are found from their numerators (:func:`nonzero`)."""
    d = len(C)
    index = np.argwhere(nonzero(C))
    (values,), den = _scaled([C[tuple(index.T)].tolist()])
    cells = {}
    for (i, j, k), n in zip(index.tolist(), values):
        cells.setdefault((i, j), []).append((k, n))
    # an empty cell is the one empty tuple, so a sparse table stays small
    return ProductTable([[tuple(cells.get((i, j), ())) for j in range(d)] for i in range(d)],
                        den)


def _products_int(terms, xs, ys):
    """The integer rows x·y for every x in ``xs`` and y in ``ys`` (x-major),
    by the sparse loop over the table's ``terms``."""
    d = len(terms)
    ys = [[(j, b) for j, b in enumerate(y) if b] for y in ys]
    out = []
    for x in xs:
        xs_nz = [(terms[i], a) for i, a in enumerate(x) if a]
        for y in ys:
            acc = [0] * d
            for row, a in xs_nz:
                for j, b in y:
                    s = a * b
                    for k, c in row[j]:
                        acc[k] += s * c
            out.append(acc)
    return out


def _mapped_int(table, Ms):
    """The integer rows (e_i e_j)·M for every basis pair (i-major), for M
    the integer rows ``Ms``: one pass over the table's entries."""
    d = len(table.terms)
    nonzero = [[(l, x) for l, x in enumerate(row) if x] for row in Ms]
    out = [[0] * len(Ms[0]) for _ in range(d * d)]
    for i, j, k, n in table.entries():
        row = out[i * d + j]
        for l, x in nonzero[k]:
            row[l] += n * x
    return out


def _identity_ints(d):
    """The d×d identity as integer rows."""
    return [[int(i == j) for j in range(d)] for i in range(d)]


# ---------------------------------------------------------------------------
# field backends
# ---------------------------------------------------------------------------

class _Field:
    """The methods both backends share, written once on top of the kernels.

    Subclasses provide the scalar arithmetic (``name``, ``zero``, ``one``,
    ``coerce``, ``add``, ``neg``, ``mul``, ``inv``), ``dtype``, ``size``
    (the number of vectors of length n: p^n, or None over Q), ``reduce``,
    ``coords``, ``rows``, ``key``, ``rref``, ``member``, ``merge``,
    ``kernel``, ``equal``, ``unit``, ``mul_coords``, ``left_multiplications``
    (a stack a span computes once and hands to ``products`` and
    ``commutant``; None over Q, which has none), ``products``,
    ``mapped_products``, ``mult_matrices``, ``commutators``, ``commutant``,
    ``product_failures``, ``twisted_blocks``, ``associates_and_commutes``,
    ``associator_witness``, ``commutator_witness``, ``products_vanish``
    (R·R = 0), and what callers would otherwise branch on the field for:
    ``simplicity`` (the simplicity decision, a :class:`Decision` whose
    ``submodule`` is the (rref basis, pivots) of a proper nonzero ideal
    that proves a False, or None), ``closure`` (the ideal
    seed rows generate), ``element_blocks`` (every combination of rows),
    ``random_coords`` and ``json``.
    """

    def is_field_algebra(self, alg, unit):
        """Is the commutative associative algebra ``alg`` with unit ``unit``
        a field?  Asked only where :func:`ringlab.ideals.is_simple` is
        undecided; None, undecided too, unless a backend has a test of its
        own (:meth:`Rational.is_field_algebra`)."""
        return None

    def div(self, a, b):
        return self.mul(a, self.inv(b))

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
    zero, one = 0, 1

    def __init__(self, p):
        if p > MAX_MODULUS:
            raise TooLarge(f"prime {p} exceeds the largest supported modulus "
                           f"{MAX_MODULUS} of int64 arithmetic mod p")
        self.p = p
        self.name = f"Fp:{p}"

    def __eq__(self, other):
        return isinstance(other, ModP) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    # -- scalars: Python ints in [0, p) -------------------------------------
    def coerce(self, x):
        """``x`` (an int, or a string such as "13") reduced mod p."""
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if not a % self.p:
            raise ZeroDivisionError(f"0 is not invertible mod {self.p}")
        return pow(a, -1, self.p)

    # -- vectors and matrices -----------------------------------------------
    def size(self, n):
        return self.p ** n

    def reduce(self, M):
        return np.asarray(M, dtype=np.int64) % self.p

    def zeros(self, shape):
        # zero is reduced already: no pass of ``% p`` over the array
        return np.zeros(shape, dtype=np.int64)

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

    def equal(self, X, Y):
        """The boolean array X == Y, for arrays that broadcast together."""
        return np.asarray(X) == np.asarray(Y)

    def unit(self, alg):
        """The two-sided unit of the structure algebra ``alg``, as a
        coordinate vector, or None when it has none.

        e·e_j = e_j and e_j·e = e_j are 2d² linear equations in the d
        coordinates of e: rows (j, k) hold the e_k coefficient of e·e_j,
        then of e_j·e.
        """
        C, d = alg.constants, alg.dim
        A = np.vstack([C.transpose(1, 2, 0).reshape(d * d, d),
                       C.transpose(0, 2, 1).reshape(d * d, d)])
        return self.solve(A, np.tile(self.eye(d).ravel(), 2))

    def mul_coords(self, alg, x, y):
        """x·y on coordinate tuples: the sparse loop over the algebra's
        :func:`product_table`, with one ``% p`` per output coordinate."""
        p = self.p
        return tuple(v % p for v in _products_int(alg._table.terms, [x], [y])[0])

    def left_multiplications(self, alg, X):
        """The (k, d, d) stack of L_x, row j x·e_j, for the k rows x of
        ``X``: one contraction with the constants, which a span computes
        once and hands to both :meth:`products` and :meth:`commutators`."""
        return np.tensordot(self.rows(X, alg.dim), alg.constants, axes=(1, 0)) % self.p

    def products(self, alg, X, Y, left=None):
        """Rows x·y for every x in X and y in Y (x-major); ``left``, when
        given, is :meth:`left_multiplications` of X."""
        T = self.left_multiplications(alg, X) if left is None else left   # (m, j, k)
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

    def commutators(self, alg, A, left=None):
        """The (d, k·d) matrix whose b-th block of d columns is R_b − L_b,
        for (L_b, R_b) = :meth:`mult_matrices` of the b-th of the k rows of
        ``A``: row i holds every e_i·b − b·e_i, so x commutes with every
        row iff x @ it = 0.  Two contractions for all the rows, or one when
        ``left`` is :meth:`left_multiplications` of A already."""
        A = self.rows(A, alg.dim)
        L = self.left_multiplications(alg, A) if left is None else left
        R = np.tensordot(A, alg.constants, axes=(1, 1))
        return ((R - L) % self.p).transpose(1, 0, 2).reshape(alg.dim, -1)

    def commutant(self, alg, A, left=None):
        """(rref basis, pivots) of the x that commute with every row of
        ``A``: the null space of :meth:`commutators`, x @ it = 0."""
        return kernel_modp(self.commutators(alg, A, left).T, self.p)

    def product_failures(self, src, tgt, Ms, anti):
        """The (m, d, d) mask of the basis pairs (i, j) where m(e_i e_j) !=
        m(e_i) m(e_j), or m(e_j) m(e_i) when ``anti``, for a stack of maps
        from ``src`` to ``tgt``: ``Ms`` is (m, d, e), each M_k a matrix on
        coordinate rows.  Three contractions for the whole stack, whatever
        its length: the sides' [k, i, j] rows are (e_i e_j)·M_k and
        (e_i M_k)(e_j M_k)."""
        p, Ms = self.p, self.array(Ms)
        m, d, _ = Ms.shape
        left = (src.constants.reshape(d * d, d) @ Ms % p).reshape(m, d, d, -1)
        # T[k, i, b] = (e_i M_k)·f_b for f_b the basis of tgt
        T = np.einsum("kia,abl->kibl", Ms, tgt.constants) % p
        right = np.einsum("kibl,kjb->kijl", T, Ms) % p
        if anti:
            right = right.transpose(0, 2, 1, 3)
        return np.any(left != right, axis=3)

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

    def associates_and_commutes(self, alg, a):
        """Whether a·b = b·a for every basis element b and a(bc) =
        (ba)c = b(ac) = (bc)a for every basis pair (b, c), all pairs at
        once: L = R, then the four sides' (i, j) rows a(e_i e_j),
        (e_i a)e_j, e_i(a e_j) and (e_i e_j)a, for (L, R) =
        :meth:`mult_matrices`."""
        L, R = self.mult_matrices(alg, a)
        if not np.array_equal(L, R):
            return False
        eye = self.eye(alg.dim)
        sides = (self.mapped_products(alg, L), self.products(alg, R, eye),
                 self.products(alg, eye, L), self.mapped_products(alg, R))
        return all(np.array_equal(sides[0], side) for side in sides[1:])

    def associator_witness(self, alg):
        """The first basis triple (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k)."""
        C, p = alg.constants, self.p
        left = np.einsum("ijm,mkl->ijkl", C, C) % p
        right = np.einsum("jkm,iml->ijkl", C, C) % p
        bad = np.argwhere(np.any(left != right, axis=3))
        return tuple(bad[0].tolist()) if bad.size else None

    def commutator_witness(self, alg):
        """The first basis pair (i, j) with e_i e_j != e_j e_i."""
        C = alg.constants
        bad = np.argwhere(np.any(C != C.transpose(1, 0, 2), axis=2))
        return tuple(bad[0].tolist()) if bad.size else None

    def products_vanish(self, alg):
        """Is every product of ``alg`` zero?  Its constants, at once."""
        return not alg.constants.any()

    def simplicity(self, alg):
        """See :class:`_Field`: :func:`norton_modp`, which shows the proper
        submodule it spun up with every False, and is undecided only when
        none of its trials decides."""
        return norton_modp(alg.constants, self.p)

    def closure(self, alg, seed):
        """(rref basis, pivots) of the ideal of ``alg`` that the rows
        ``seed`` generate: their spin-up under every L_{e_i} and R_{e_i}."""
        return spin_modp(self.rows(seed, alg.dim),
                         multiplications_modp(alg.constants, self.p), self.p)

    def element_blocks(self, rows, cap):
        """:func:`combinations_modp` of ``rows``; TooLarge past ``cap``."""
        total = self.size(len(rows))
        if total > cap:
            raise TooLarge(f"{total} elements exceeds cap {cap}")
        return combinations_modp(rows, self.p)

    def random_coords(self, rng, d):
        return tuple(rng.randrange(self.p) for _ in range(d))

    def json(self, coords):
        return [int(x) for x in coords]


class Rational(_Field):
    """Q: tuples of Fractions outside, Python ints inside.

    Elimination is fraction-free (:func:`rref_frac`): rows are scaled to
    integers, eliminated over ints, and divided by their pivots once at the
    end.  Products read the algebra's integer :func:`product_table`, the
    constants as numerators over one common denominator, in sparse loops
    (two full constant tensors are never contracted: the dense object-array
    einsum is orders of magnitude slower).  Each output coordinate becomes
    one Fraction, and only where it leaves the backend: a step whose
    result another step reads (the products inside ``twisted_blocks``, the
    sides of ``product_failures`` and ``associates_and_commutes``, the
    commutator equations of ``commutant``) keeps integer rows over one
    denominator, and checks compare integers, a/u = b/v as a·v = b·u.  A
    Fraction given to the backend passes through unchanged.
    """

    dtype = object
    name = "Q"
    zero, one = ZERO, ONE

    # -- scalars: Fractions in lowest terms ---------------------------------
    # coerce reads an int, a Fraction or a string such as "1/2"
    coerce = staticmethod(_fraction)
    add = staticmethod(operator.add)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("0 is not invertible in Q")
        return 1 / _fraction(a)

    # -- vectors and matrices -----------------------------------------------
    def size(self, n):
        return None

    def reduce(self, M):
        """``M`` as a new object array of Fractions: :func:`_fraction` on
        every entry, called from numpy's loop rather than a Python one."""
        return np.asarray(_FRACTIONS(np.asarray(M, dtype=object)), dtype=object)

    def zeros(self, shape):
        # Fractions are immutable, so every entry can be the one ZERO
        return np.full(shape, ZERO, dtype=object)

    def eye(self, n):
        out = self.zeros((n, n))
        np.fill_diagonal(out, ONE)
        return out

    def coords(self, v):
        return tuple(v)

    def rows(self, rows, width):
        return tuple(tuple(_fraction(x) for x in r) for r in rows)

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

    def equal(self, X, Y):
        """The boolean array X == Y, for arrays that broadcast together,
        compared as integers: X·dx and Y·dy over their common denominators,
        cross-multiplied."""
        (X, dx), (Y, dy) = _int_array(X), _int_array(Y)
        return X * dy == Y * dx

    def matmul(self, X, Y):
        """X @ Y, on integer arrays; stacks of matrices multiply pairwise."""
        (X, dx), (Y, dy) = _int_array(X), _int_array(Y)
        return _fraction_array(X @ Y, dx * dy)

    def unit(self, alg):
        """See :meth:`ModP.unit`.  The equations are integer rows read
        off the product table in one pass, with the right-hand side den·δ
        for den the table's denominator, so no Fraction is made before the
        elimination."""
        table, d = alg._table, alg.dim
        A = [[0] * d for _ in range(2 * d * d)]
        for i, j, k, n in table.entries():           # e_i e_j has n at e_k
            A[j * d + k][i] += n                     # in e·e_j
            A[(d + i) * d + k][j] += n               # in e_i·e
        rhs = [table.den * (j == k) for j in range(d) for k in range(d)]
        return self.solve(np.array(A, dtype=object), np.array(rhs + rhs, dtype=object))

    def mul_coords(self, alg, x, y):
        """x·y on coordinate tuples: one Fraction per output coordinate."""
        return self.products(alg, [x], [y])[0]

    def left_multiplications(self, alg, X):
        """None: over Q products and commutators are read off the sparse
        integer table row by row, so there is no dense stack to share."""
        return None

    def products(self, alg, X, Y, left=None):
        """Rows x·y for every x in X and y in Y (x-major), as tuples."""
        table = alg._table
        xs, dx = _scaled(X)
        ys, dy = _scaled(Y)
        den = table.den * dx * dy
        return [_fractions(row, den) for row in _products_int(table.terms, xs, ys)]

    def mapped_products(self, alg, M):
        """See :meth:`ModP.mapped_products`; one pass over the table."""
        Ms, dm = _scaled(M)
        return _fraction_array(_mapped_int(alg._table, Ms), alg._table.den * dm)

    def _mult_ints(self, alg, a):
        """(L, R, den): :meth:`mult_matrices` as integer rows over den, in
        one pass over the table's entries."""
        table, d = alg._table, alg.dim
        (a,), da = _scaled([a])
        L = [[0] * d for _ in range(d)]
        R = [[0] * d for _ in range(d)]
        for i, j, k, n in table.entries():
            if a[i]:
                L[j][k] += a[i] * n
            if a[j]:
                R[i][k] += a[j] * n
        return L, R, table.den * da

    def mult_matrices(self, alg, a):
        """(L, R) with L[j] = a·e_j and R[i] = e_i·a."""
        L, R, den = self._mult_ints(alg, a)
        return _fraction_array(L, den), _fraction_array(R, den)

    def commutators(self, alg, A, left=None):
        """See :meth:`ModP.commutators`; one row at a time, each R − L
        subtracted over ints."""
        blocks = []
        for a in self.rows(A, alg.dim):
            L, R, den = self._mult_ints(alg, a)
            blocks.append(_fraction_array(
                [[r - l for l, r in zip(Lr, Rr)] for Lr, Rr in zip(L, R)], den))
        return np.hstack(blocks) if blocks else self.zeros((alg.dim, 0))

    def commutant(self, alg, A, left=None):
        """See :meth:`ModP.commutant`.  The equations are the columns of
        :meth:`commutators` as integer rows: row (r, l) holds the l-th
        coordinate of e_i·a − a·e_i at i, for a the r-th row of ``A``
        scaled by the rows' common denominator.  Scaling by a positive
        integer leaves the null space as it is, so no Fraction is made
        before the elimination; one pass over the table's entries builds
        the equations of every row."""
        d = alg.dim
        rows, _ = _scaled(A)
        at = [[] for _ in range(d)]          # at[j]: (r, a_j) for each row r with a_j != 0
        for r, a in enumerate(rows):
            for j, x in enumerate(a):
                if x:
                    at[j].append((r, x))
        equations = [[0] * d for _ in range(len(rows) * d)]
        for i, j, k, n in alg._table.entries():      # e_i e_j has n at e_k
            for r, x in at[j]:
                equations[r * d + k][i] += x * n     # in e_i·a
            for r, x in at[i]:
                equations[r * d + k][j] -= x * n     # in a·e_j
        return self.kernel(equations, d)

    def product_failures(self, src, tgt, Ms, anti):
        """See :meth:`ModP.product_failures`; one map at a time, on integer
        rows.  For M over dm, the left side (e_i e_j)·M is integers over
        den_src·dm and the right side (e_i M)(e_j M) integers over
        den_tgt·dm², so a/u = b/v is checked as a·v = b·u."""
        d, bad = src.dim, []
        for M in Ms:
            ints, dm = _scaled(M)
            left = np.array(_mapped_int(src._table, ints), dtype=object).reshape(d, d, -1)
            right = np.array(_products_int(tgt._table.terms, ints, ints),
                             dtype=object).reshape(d, d, -1)
            if anti:
                right = right.transpose(1, 0, 2)
            bad.append(np.any(left * (tgt._table.den * dm) != right * src._table.den,
                              axis=2))
        return np.array(bad, dtype=bool).reshape(len(Ms), d, d)

    def twisted_blocks(self, alg, Ss, alpha, opposite):
        """See :meth:`ModP.twisted_blocks`; one map at a time, sparse.  The
        products e_i·s (or s·e_i) stay integer rows over den·ds, so each
        block makes its Fractions once, over den²·ds·d_alpha."""
        table, d = alg._table, alg.dim
        eye = _identity_ints(d)
        (alpha,), da = _scaled([alpha])
        blocks = []
        for S in Ss:
            S, ds = _scaled(S)
            h = len(S)
            if opposite:
                X = _products_int(table.terms, S, eye)        # row j·d + i: s_j·e_i
                X = [X[j * d + i] for i in range(d) for j in range(h)]
            else:
                X = _products_int(table.terms, eye, S)        # row i·h + j: e_i·s_j
            blocks.append(_fraction_array(_products_int(table.terms, X, [alpha]),
                                          table.den * table.den * ds * da).reshape(d, h, d))
        return np.stack(blocks)

    def associates_and_commutes(self, alg, a):
        """See :meth:`ModP.associates_and_commutes`, on integer rows: L and
        R share one denominator den·d_a, for den the table's and d_a that
        of ``a``, and the four sides share den²·d_a, so they are equal as
        values iff they are equal as integers."""
        L, R, _ = self._mult_ints(alg, a)
        if L != R:
            return False
        table, eye = alg._table, _identity_ints(alg.dim)
        side = _mapped_int(table, L)
        return (side == _products_int(table.terms, R, eye)
                == _products_int(table.terms, eye, L) == _mapped_int(table, R))

    def associator_witness(self, alg):
        """The first basis triple (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k),
        compared on the integer table (both sides carry the factor den²)."""
        d, terms = alg.dim, alg._table.terms
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    acc = [0] * d
                    for m, c in terms[i][j]:
                        for l, c2 in terms[m][k]:
                            acc[l] += c * c2
                    for m, c in terms[j][k]:
                        for l, c2 in terms[i][m]:
                            acc[l] -= c * c2
                    if any(acc):
                        return i, j, k
        return None

    def commutator_witness(self, alg):
        """The first basis pair (i, j) with e_i e_j != e_j e_i, compared on
        the integer table, whose cells list their nonzero (k, n) in order."""
        d, terms = alg.dim, alg._table.terms
        return next(((i, j) for i in range(d) for j in range(d)
                     if terms[i][j] != terms[j][i]), None)

    def products_vanish(self, alg):
        """See :meth:`ModP.products_vanish`: the product table, which
        :meth:`simplicity` reads too, lists the nonzero constants."""
        return not any(map(any, alg._table.terms))

    def simplicity(self, alg):
        """See :class:`_Field`: a True decided by "reduction-mod-q", with
        the reason "reduction mod q", for the first prime q of
        ``LIFT_PRIMES`` at which the Q-algebra A ``alg``, reduced mod q, is
        simple by :func:`norton_modp`; undecided when no tried prime
        proves it.

        A prime dividing a denominator of the constants (so their common
        denominator) is skipped.  For the others the Z_(q)-span Λ of the
        basis is a ring, and Λ/qΛ is the reduction.  A proper nonzero ideal
        I of A meets Λ in a saturated ideal, a direct summand of rank dim I,
        whose image is a proper nonzero ideal of Λ/qΛ.  So simplicity mod q
        proves simplicity over Q.  The converse fails (Q(i) splits mod 5), so
        an undecided call says nothing about A; its reason names the primes
        tried, for the Inconclusive verdict that a failed witness search
        leaves.
        """
        table, d = alg._table, alg.dim
        for q in LIFT_PRIMES:
            if table.den % q == 0:
                continue
            inv = pow(table.den, -1, q)
            Cq = np.zeros((d, d, d), dtype=np.int64)
            for i, j, k, n in table.entries():
                Cq[i, j, k] = n * inv % q
            if norton_modp(Cq, q).holds:
                return Decision(True, reason=f"reduction mod {q}",
                                decided_by="reduction-mod-q")
        primes = ", ".join(map(str, LIFT_PRIMES))
        return Decision(None, reason=f"infinite scalar field: no reduction mod {primes} "
                                     "proves the algebra simple, and no proper principal "
                                     "ideal was found")

    def closure(self, alg, seed):
        """See :meth:`ModP.closure`.  Each round multiplies the rows the
        last one added (those at new pivots, which with the old basis span
        the new one) by every e_i on both sides, and merges the products."""
        d = alg.dim
        eye = _identity_ints(d)
        rows, pivots = self.rref(seed, d)
        frontier = rows
        while frontier and len(pivots) < d:
            old = set(pivots)
            rows, pivots, _ = merge_frac(rows, pivots, self.products(alg, frontier, eye)
                                         + self.products(alg, eye, frontier))
            frontier = [row for row, c in zip(rows, pivots) if c not in old]
        return rows, pivots

    def element_blocks(self, rows, cap):
        raise InfiniteScalarField("cannot enumerate an algebra over Q")

    def random_coords(self, rng, d):
        # small coordinates keep the exact arithmetic cheap
        return tuple(rng.randint(-2, 2) for _ in range(d))

    def is_field_algebra(self, alg, unit):
        """See :meth:`_Field.is_field_algebra`.  True in dimension 1.  In
        dimension 2, for u the first basis vector independent of 1 and
        u² = γ + βu, iff the discriminant β² + 4γ is not a square.  None
        above that."""
        if alg.dim > 2:
            return None
        if alg.dim == 1:
            return True
        u = (ONE, ZERO) if unit[1] else (ZERO, ONE)
        gamma, beta = self.solve(np.array([unit, u], dtype=object).T, self.mul_coords(alg, u, u))
        return not _is_perfect_square(beta * beta + 4 * gamma)

    def json(self, coords):
        return [str(_fraction(x)) for x in coords]


# the primes a Q-algebra is reduced modulo to prove it simple: odd, so that
# the Cayley-Dickson conjugation survives, and several, because a simple
# algebra can split at one of them (5 = (2+i)(2-i) splits Q(i))
LIFT_PRIMES = (3, 5, 7, 11)

RATIONAL = QQ = Rational()


def is_prime(n: int) -> bool:
    """Trial division: run it only on n up to ``MAX_MODULUS``."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


@cache
def GF(p: int) -> ModP:
    """The prime field F_p, one object per p.  TooLarge past
    ``MAX_MODULUS`` before any primality test, ValueError for p not prime."""
    field = ModP(p)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return field

