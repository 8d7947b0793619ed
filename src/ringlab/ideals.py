"""Two-sided ideals, centralizers, invariance predicates and simplicity oracles.

"Ideal" always means two-sided ideal.  Ideals of a subring B of A are kept in
the coordinates of the ambient ring A (``of_subring`` records B); ideals of A
itself have ``of_subring=None``.

Every quantifier "for every ideal of B" reads :func:`_line_closures`, the
closure of each line of B under its multiplications and a set of maps.
Over F_p it decides first, at any size, by Norton's test on those
operators (:func:`linalg.irreducible_modp`), as :func:`is_simple` does for
a whole algebra, and walks lines only for a lattice, or for a witness when
it is read (:meth:`IdealBasis.deferred`).  Where the property sought is
stability under maps (G-, σ-δ- and conjugation-invariance), the first
such ideal is minimal, hence a closure, and :func:`first_stable_ideal`
never builds the lattice; past the cap, the test's submodule is its
answer.  Other properties (A-invariance, meeting a
subring in 0) read the lattice, which :func:`enumerate_subring_ideals`
joins from the closures: every ideal is the join of the principal ideals
of its elements, so the enumeration is exhaustive on finite (or capped
F_p) rings, and an irreducible B has the lattice 0, B at any size.  Over
Q neither runs; a positive simplicity verdict comes only from a reduction
mod p that is simple (see :func:`is_simple`).  :func:`is_stable` tests one
given span for stability.  An algebra's closures run in its field
backend's ``closure``, so nothing here has a Q path of its own.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (BNotCommutative, CriterionDisagreement, InfiniteScalarField,
                     NotAInvariant, NotIdealAssociative, RingMismatch, TooLarge)
from .rings import (DEFAULT_ELEMENT_CAP, StructureAlgebra,
                    TableRing)
from .subgroups import (AddSubgroup, Subspace, TableSubgroup, additive_span,
                        full_subgroup, product_span, subspace_from_vectors,
                        distinct_indices, zero_subgroup)

DEFAULT_WITNESS_SAMPLES = 24
DEFAULT_SEED = 0xC0FFEE


class IdealBasis:
    """A two-sided ideal, canonically presented.

    ``span`` is an additively closed subgroup of ``ring`` that absorbs
    multiplication by every element of ``of_subring`` (or of the whole ring
    when ``of_subring`` is None).

    An ideal that a decision proves to exist, before anyone needs to see
    it, is made by :meth:`deferred`: its span is found on the first read
    and kept.  This is the one deferred-witness mechanism, for the
    witnesses of :func:`is_simple` and of :func:`first_stable_ideal`.
    """

    def __init__(self, ring, span: AddSubgroup, of_subring=None, check=True):
        self.ring = ring
        self._span = span
        self._find = None
        self.of_subring = of_subring
        if check:
            amb = of_subring.span if of_subring is not None else full_subgroup(ring)
            left = product_span(ring, amb, span)
            right = product_span(ring, span, amb)
            if not (span.contains_subgroup(left) and span.contains_subgroup(right)):
                raise RingMismatch("span is not an ideal")

    @classmethod
    def deferred(cls, ring, find, of_subring=None):
        """The ideal whose span ``find()`` returns, called on the first read
        of :attr:`span` (and of everything read through it), and only then.
        ``find`` must depend only on values captured when the ideal was
        decided; what it raises, the first read raises."""
        ideal = cls(ring, None, of_subring, check=False)
        ideal._find = find
        return ideal

    @property
    def span(self) -> AddSubgroup:
        if self._find is not None:
            self._span = self._find()
            self._find = None
        return self._span

    def contains(self, elt):
        return self.span.contains(elt)

    def spanning(self):
        return self.span.spanning()

    def is_zero(self):
        return self.span.is_zero()

    def is_full_in(self, subgroup: AddSubgroup):
        return self.span.contains_subgroup(subgroup) and subgroup.contains_subgroup(self.span)

    def measure(self):
        return self.span.measure()

    def key(self):
        return self.span.key()

    def __eq__(self, other):
        return isinstance(other, IdealBasis) and other.ring is self.ring and other.key() == self.key()

    def __hash__(self):
        return hash((id(self.ring), self.key()))

    def __repr__(self):
        return f"IdealBasis({self.span!r})"


class Subring:
    """An additively and multiplicatively closed subset of a ring."""

    def __init__(self, ring, span: AddSubgroup, check=True):
        self.ring = ring
        self.span = span
        if check:
            prod = product_span(ring, span, span)
            if not span.contains_subgroup(prod):
                raise RingMismatch("span is not multiplicatively closed")
        self._as_ring = None

    def contains(self, elt):
        return self.span.contains(elt)

    def spanning(self):
        return self.span.spanning()

    def measure(self):
        return self.span.measure()

    @cached_property
    def table(self):
        """The products of B, the one table that :meth:`is_commutative`,
        :meth:`as_ring` and :func:`_line_closures` read: for a table ring
        the ``mul_table`` block of B's sorted members (k×k indices), for an
        algebra one backend ``products`` of B's rref rows, shaped (k, k, d)
        with [i, j] the ambient coordinates of row i times row j."""
        ring, span = self.ring, self.span
        if ring.is_table:
            members = sorted(span.members)
            return ring.mul_table[np.ix_(members, members)]
        k = span.dim
        return ring.F.array(ring.F.products(ring, span.rows, span.rows)
                            ).reshape(k, k, ring.dim)

    def is_commutative(self):
        """Do the spanning elements commute pairwise?  :attr:`table`
        against its transpose."""
        T = self.table
        return bool((T == T.swapaxes(0, 1)).all())

    def as_ring(self):
        """The subring as a standalone Ring plus embed/project maps."""
        if self._as_ring is None:
            self._as_ring = _materialize_subring(self)
        return self._as_ring

    def __eq__(self, other):
        return isinstance(other, Subring) and other.ring is self.ring and other.span == self.span

    def __hash__(self):
        return hash((id(self.ring), self.span.key()))

    def __repr__(self):
        return f"Subring({self.span!r})"


def subring_closure(ring, gens) -> Subring:
    """Close a generating set under addition and internal multiplication."""
    span = additive_span(ring, list(gens))
    while not span.is_full():
        prod = product_span(ring, span, span)
        new = span.join(prod)
        if new == span:
            break
        span = new
    return Subring(ring, span, check=False)


def full_subring(ring) -> Subring:
    return Subring(ring, full_subgroup(ring), check=False)


def _materialize_subring(B: Subring):
    """(ring, embed, project) of B, read off :attr:`Subring.table`.

    A table subring renumbers its members 0..k-1 and remaps the block of
    each table through one index array.  An algebra subring has the
    constants of B's products in its rref basis: the pivot entries of an
    element of B are its coordinates, and one ``matmul`` back onto the rows
    checks that every product lies in B."""
    ring, span = B.ring, B.span
    if ring.is_table:
        members = sorted(span.members)
        pos = np.full(ring.n, -1, dtype=np.int32)
        pos[members] = np.arange(len(members))
        mul = pos[B.table]
        if (mul < 0).any():
            raise RingMismatch("span is not multiplicatively closed")
        sub = TableRing(pos[ring.add_table[np.ix_(members, members)]], mul,
                        pos[ring.zero_index], _validated=True)

        def embed(e):
            return ring.element(members[e.data])

        def project(e):
            return sub.element(pos[e.data])

        return sub, embed, project

    F, rows, k = ring.F, span.rows, span.dim
    if k == 0:
        raise RingMismatch("cannot materialize the zero subring")
    C = B.table[:, :, list(span.pivots)]
    if not (F.matmul(C.reshape(k * k, k), rows) == B.table.reshape(k * k, ring.dim)).all():
        raise RingMismatch("span is not multiplicatively closed")
    sub = StructureAlgebra(ring.F, k, C)

    def embed(e):
        return ring.element(F.matmul(e.data, rows))

    def project(e):
        return sub.element(span.coordinates(e))

    return sub, embed, project


# ---------------------------------------------------------------------------
# ideal closure
# ---------------------------------------------------------------------------

def ideal_closure(ring, gens) -> IdealBasis:
    """Smallest ideal of the ring containing ``gens``.

    A table ring closes the generators' indices (:func:`_table_closure`),
    an algebra their coordinate rows, in its field backend's ``closure``.
    """
    if ring.is_table:
        return IdealBasis(ring, _table_closure(ring, [g.data for g in gens]), check=False)
    return row_ideal(ring, [g.data for g in gens])


def row_ideal(ring, rows) -> IdealBasis:
    """The ideal of an algebra that the coordinate rows ``rows`` generate,
    closed in its field backend's ``closure``: :func:`ideal_closure` with no
    Element made per row."""
    return _subspace_ideal(ring, ring.F.closure(ring, rows))


def _subspace_ideal(ring, basis):
    """An ideal of an algebra known to be one, from its (rref basis, pivots)."""
    return IdealBasis(ring, Subspace(ring, *basis), check=False)


def _table_closure(ring, seed_indices, ops=None, bound=None):
    """Numpy fixpoint closure of an index set under sums and index maps.

    ``ops`` is a list of 2-D index arrays whose rows are maps x ↦ row[x];
    the closure is the smallest additive subgroup containing the seed that
    every row maps into itself.  None means products with every element on
    either side (the rows of ``mul_table`` and of its transpose), whose
    closure is the ideal the seed generates.  A closure that grows past
    ``bound`` members is abandoned: the result is None.
    """
    from .subgroups import _table_additive_closure
    if ops is None:
        ops = (ring.mul_table, ring.mul_table.T)
    span = _table_additive_closure(ring, seed_indices)
    while bound is None or len(span.members) <= bound:
        idx = np.array(sorted(span.members), dtype=np.int64)
        images = distinct_indices(ring, np.concatenate([op[:, idx].ravel() for op in ops]))
        fresh = [int(x) for x in images if x not in span.members]
        if not fresh:
            return span
        span = _table_additive_closure(ring, list(span.members) + fresh)
    return None


# ---------------------------------------------------------------------------
# ideal lattice and simplicity
# ---------------------------------------------------------------------------

def _lines(p, k):
    """One generator per line of F_p^k: the vector with first nonzero
    coordinate 1, leading coordinates in increasing position, the tail in
    ``itertools.product`` order."""
    for lead in range(k):
        for tail in itertools.product(range(p), repeat=k - lead - 1):
            yield (0,) * lead + (1,) + tail


def _principal_generators(ring):
    """One generator of a principal ideal per line of a finite ring, up to
    scalars, in a fixed order; every ideal is a join of their principal
    ideals.  An F_p algebra has one per line of F_p^d, in the order of
    :func:`_lines`; a table ring one per cyclic subgroup, by index
    (:func:`_cyclic_generators`).  Raises InfiniteScalarField over Q."""
    if ring.size() is None:
        raise InfiniteScalarField("cannot enumerate ideals over Q")
    if ring.is_table:
        return _cyclic_generators(ring, range(ring.n))
    return _lines(ring.modulus, ring.dim)


def _cyclic_generators(ring, members):
    """The nonzero indices of ``members``, in their order, that are no k·a
    with gcd(k, ord(a)) = 1 for an a yielded before: one generator per
    cyclic subgroup of a subgroup ``members``.  Such a k·a generates what
    a does under sums and additive maps (the products with a fixed
    element among them), because a = k′·(k·a) for k′ the inverse of k
    modulo ord(a)."""
    add, zero = ring.add_table, ring.zero_index
    covered = np.zeros(ring.n, dtype=bool)
    for a in members:
        if a == zero or covered[a]:
            continue
        yield a
        multiples = [a]                        # multiples[k - 1] = k·a
        while multiples[-1] != zero:
            multiples.append(int(add[multiples[-1], a]))
        order = len(multiples)
        covered[[m for k, m in enumerate(multiples, 1) if math.gcd(k, order) == 1]] = True


def first_proper_line_ideal(ring, last=None):
    """The first proper principal ideal of a generator of
    :func:`_principal_generators` (a line of an F_p algebra, or an element
    of a table ring), each closed by :func:`principal_ideal`, as a span;
    None when every one is the whole ring.  This is the one walk over
    principal ideals.  With ``last``, a line generator of an F_p algebra,
    the walk ends after that line."""
    for g in _principal_generators(ring):
        span = principal_ideal(ring, ring.element(g)).span
        if not span.is_full():
            return span
        if g == last:
            break
    return None


def _line_witness(ring, last):
    """The span of :func:`first_proper_line_ideal`, up to ``last``, the
    line of the first row of Norton's submodule, of an algebra that Norton's
    test calls not simple; CriterionDisagreement when the walk finds no
    proper line."""
    sub = first_proper_line_ideal(ring, last)
    if sub is None:
        raise CriterionDisagreement("Norton's test and the line walk disagree")
    return sub


def principal_ideal(ring, elt) -> IdealBasis:
    return ideal_closure(ring, [elt])


def _line_closures(ring, B: Subring | None, maps, cap, lattice=False):
    """(span of B, decision, seeds, close) for B a subring (the whole ring
    when None).

    The ideals of B that every map sends into themselves are the subspaces
    of B invariant under L_b and R_b (b in B: :func:`linalg.multiplications_modp`
    of B's constants, :attr:`Subring.table` at the pivots) and the maps, as
    k×k operators over B's rref rows.  Over F_p, ``decision`` is Norton's
    test on that stack (:func:`linalg.irreducible_modp`), asked first, at
    any size: True when no proper nonzero one exists, one such ideal as an
    ambient span when the test finds it, None when the test is undecided;
    it is None for a table ring, which has no such test.

    The seeds are one coordinate vector over B's rref rows per line of B,
    in the order of :func:`_lines`, for an F_p algebra, and one nonzero
    element of B per cyclic subgroup for a table ring
    (:func:`_cyclic_generators`: the maps are additive); there are none
    when ``decision`` is True.  ``close(seed, bound=None)`` is the
    smallest ideal of B that holds
    the seed and that every map sends into itself, as an ambient span, or
    None past ``bound`` members (dimensions).  ``maps`` send B into B: d×d
    matrices acting on rows (v ↦ v @ M), or index arrays for a table ring.

    Over F_p the closure of c is c·E, for E the unital algebra that the
    operators generate: :func:`linalg.spin_modp` spins it up once, from the
    identity, on the first call of ``close``, because a caller that closes
    one line closes them all, and one whose decision is its answer closes
    none.  :func:`first_proper_line_ideal` stops at the first proper line
    and closes each line by :func:`principal_ideal` instead.

    Raises InfiniteScalarField over Q.  When B has more than ``cap``
    elements no line is walked: there are no seeds, and a B that the
    decision leaves undecided (or reducible, with ``lattice``, for a caller
    that needs every ideal) raises TooLarge.
    """
    if ring.size() is None:
        raise InfiniteScalarField("cannot enumerate ideals over Q")
    span = full_subgroup(ring) if B is None else B.span
    size = span.measure() if ring.is_table else ring.modulus ** span.measure()
    decision = None
    if not ring.is_table:
        # the operators act on coordinates over B's rref rows, where they are
        # k×k: a coordinate vector c is the element c @ rows, and the pivot
        # entries of an element of B are its coordinates
        p, rows, pivots = ring.modulus, span.rows, list(span.pivots)
        k = len(pivots)
        C = ring.constants if B is None else B.table[:, :, pivots]
        ops = np.concatenate([linalg.multiplications_modp(C, p)]
                             + [(rows @ ring.F.reduce(m) % p)[None, :, pivots] for m in maps])

        def ambient(basis, found):
            # an rref basis in coordinates is one in the ambient ring too
            return Subspace(ring, basis @ rows % p, [pivots[c] for c in found])
        decision = linalg.irreducible_modp(ops, p)
        if decision is True:
            return span, True, [], None
        if decision is not None:
            decision = ambient(*decision)
    if size > cap:
        if decision is None or lattice:
            raise TooLarge(f"{size} elements exceeds cap {cap}")
        return span, decision, [], None
    if ring.is_table:
        members = np.array(sorted(span.members), dtype=np.int64)
        mul = ring.mul_table
        # rows of L_b and of R_b for b in B, then the maps
        ops = [mul[members], mul[:, members].T] + [np.asarray(m)[None, :] for m in maps]

        def close(x, bound=None):
            return _table_closure(ring, [x], ops, bound)
        return span, None, _cyclic_generators(ring, members.tolist()), close
    algebra = None

    def close(line, bound=None):
        nonlocal algebra
        if algebra is None:
            # E is the unital algebra the operators generate, spun up from
            # the identity
            algebra = linalg.spin_modp(np.eye(k, dtype=np.int64).reshape(1, -1), ops, p)[0]
            algebra = algebra.reshape(-1, k, k)
        basis, found = linalg.rref_modp(np.array(line) @ algebra % p, p)
        if bound is not None and len(found) > bound:
            return None
        return ambient(basis, found)
    return span, decision, _lines(p, k), close


def enumerate_subring_ideals(ring, B: Subring | None, cap=DEFAULT_ELEMENT_CAP):
    """Every ideal of B (of the whole ring when B is None), exactly once, in
    the ambient ring's coordinates and in (measure, key) order: the
    join-closure of the principal ideals of :func:`_line_closures`.  When
    Norton's test finds B irreducible under its multiplications, at any
    size, the lattice is 0 and B, and no line is walked; a reducible or
    undecided B over ``cap`` raises TooLarge, because its lattice needs the
    walk."""
    span, decision, seeds, close = _line_closures(ring, B, [], cap, lattice=True)
    principal = [span] if decision is True else map(close, seeds)
    zero = zero_subgroup(ring)
    lattice = {zero.key(): zero}
    # the joins of the principal ideals so far are closed under joins, so one
    # joined with all of them adds every join it takes part in, and one that
    # is already among them adds none; the sum of two ideals is additively
    # closed and absorbing, so a plain join (no re-closure) suffices
    for s in principal:
        if s.key() not in lattice:
            for t in list(lattice.values()):
                j = s.join(t)
                lattice.setdefault(j.key(), j)
    ideals = [IdealBasis(ring, s, of_subring=B, check=False) for s in lattice.values()]
    ideals.sort(key=lambda i: (i.measure(), i.key()))
    return ideals


def enumerate_ideals(ring, cap=DEFAULT_ELEMENT_CAP):
    """Every two-sided ideal of the ring, exactly once, in (measure, key)
    order: :func:`enumerate_subring_ideals` with B the whole ring."""
    return enumerate_subring_ideals(ring, None, cap)


class SimpleVerdict:
    """``status`` is "Simple", "NotSimple" or "Inconclusive".  The witness
    of a NotSimple is a proper nonzero ideal: the first proper line's
    principal ideal on a finite ring, Norton's submodule on an F_p algebra
    over the element cap, and otherwise (over Q, or past the cap when no
    Norton trial decides) the principal ideal a witness search found.  It
    is None only for R·R = 0 without a proper nonzero ideal: an algebra of
    dimension 1, or a table ring of prime order or of order 1.  A witness
    that Norton's test proved before it was found is an
    :meth:`IdealBasis.deferred`; reading :attr:`witness` finds it, so a
    disagreement between the test and the line walk is raised there.
    ``reason`` is "R*R = 0", "reduction mod q" (a Q-algebra proved simple
    by a reduction) or why the verdict is Inconclusive, and None
    otherwise."""

    def __init__(self, status, witness: IdealBasis | None = None,
                 reason: str | None = None):
        self.status = status
        self.reason = reason
        self._witness = witness

    @property
    def witness(self):
        if self._witness is not None:
            self._witness.span        # a deferred witness is found here
        return self._witness

    @property
    def is_simple(self):
        return self.status == "Simple"

    def __repr__(self):
        if self.status == "NotSimple":
            return f"NotSimple({self.witness!r})"
        if self.status == "Inconclusive":
            return f"Inconclusive({self.reason})"
        return "Simple"


def _random_element(ring, rng):
    """An index of a table ring, or the coordinates the backend draws."""
    if ring.is_table:
        return ring.element(rng.randrange(ring.n))
    return ring.element(ring.F.random_coords(rng, ring.dim))


def is_simple(ring, cap=DEFAULT_ELEMENT_CAP, seed=DEFAULT_SEED,
              samples=DEFAULT_WITNESS_SAMPLES) -> SimpleVerdict:
    """Simplicity oracle.

    R·R = 0 is NotSimple.  Otherwise an algebra asks its field backend's
    ``simplicity``, at any size: over F_p Norton's irreducibility test
    (:func:`ringlab.linalg.norton_modp`), the one F_p decision, enumerates
    nothing, and is undecided only when none of its trials decides; over Q
    a reduction modulo one of
    ``linalg.LIFT_PRIMES`` that is simple proves it, and the verdict's
    reason names the prime, "reduction mod q".  A table ring has no such
    decision.

    A finite ring (a table ring, whose elements are in memory already, or
    an F_p algebra of at most ``cap`` elements) that the decision calls not
    simple gets the principal ideal of its first proper line as the witness
    (:func:`first_proper_line_ideal`), found on the first read of
    ``witness``: the decision proves the verdict, and Norton's submodule
    bounds the walk by the line of its first rref row, whose principal
    ideal lies inside it.  A table ring, or an undecided F_p algebra, is
    walked at once: Simple iff every nonzero principal ideal is the whole
    ring.

    Over the cap, a NotSimple has Norton's submodule as its witness.
    Everything else (Q without a simple reduction, an F_p algebra that no
    trial decides) goes to a witness search (basis elements plus
    ``samples`` seeded pseudorandom elements), where a proper nonzero
    principal ideal refutes; a failed search answers Inconclusive, never
    Simple.

    Verdicts are cached on the (immutable) ring per (cap, seed, samples).
    """
    cache = getattr(ring, "_simple_cache", None)
    if cache is None:
        cache = ring._simple_cache = {}
    key = (cap, seed, samples)
    if key in cache:
        return cache[key]
    verdict = _is_simple_uncached(ring, cap, seed, samples)
    cache[key] = verdict
    return verdict


def _is_simple_uncached(ring, cap, seed, samples) -> SimpleVerdict:
    # R·R = 0 exactly when every product of basis elements is 0
    products = ring.mul_table != ring.zero_index if ring.is_table else ring.constants
    if not products.any():
        return SimpleVerdict("NotSimple", _proper_from_square_zero(ring),
                             reason="R*R = 0")
    simple, reason, submodule = ((None, None, None) if ring.is_table
                                 else ring.F.simplicity(ring))
    if simple:
        return SimpleVerdict("Simple", reason=reason)
    size = ring.size()
    # a table ring's elements are in memory already, so it counts as finite
    if ring.is_table or (size is not None and size <= cap):
        if simple is False:
            # Norton's test proves NotSimple, so the walk waits for a
            # reader; the line of the submodule's first row is proper
            last = ring.F.coords(submodule[0][0])
            return SimpleVerdict("NotSimple", IdealBasis.deferred(
                ring, lambda: _line_witness(ring, last)))
        sub = first_proper_line_ideal(ring)
        if sub is None:
            return SimpleVerdict("Simple")
        return SimpleVerdict("NotSimple", IdealBasis(ring, sub, check=False))
    if submodule is not None:
        return SimpleVerdict("NotSimple", _subspace_ideal(ring, submodule))
    # witness search; the seeded candidates are drawn lazily, because most
    # searches stop at their first candidate
    rng = random.Random(seed)
    candidates = itertools.chain(ring.spanning_elements(),
                                 (_random_element(ring, rng) for _ in range(samples)))
    for v in candidates:
        if v.is_zero():
            continue
        ib = principal_ideal(ring, v)
        if not ib.span.is_full():
            return SimpleVerdict("NotSimple", ib)
    reason = ("infinite scalar field; use certify pipelines" if size is None
              else f"size {size} exceeds cap {cap}")
    return SimpleVerdict("Inconclusive", reason=reason)


def _proper_from_square_zero(ring):
    # with R·R = 0 every additive subgroup is an ideal; take a proper
    # 1-generator one, or None when there is none
    if ring.is_table:
        for i in range(ring.n):
            if i != ring.zero_index:
                sub = additive_span(ring, [ring.element(i)])
                if not sub.is_full():
                    return IdealBasis(ring, sub, check=False)
    else:
        sub = subspace_from_vectors(ring, [ring.basis_element(0).data])
        if not sub.is_full():
            return IdealBasis(ring, sub, check=False)
    return None


# ---------------------------------------------------------------------------
# centralizers
# ---------------------------------------------------------------------------

def centralizer(ring, gens_of_b) -> Subring:
    """C_A(B): everything commuting with B.  ``gens_of_b`` is B as a
    :class:`Subring`, or elements that are closed into B first.  x commutes
    with B iff x commutes with B's additive spanning set:
    :func:`commuting_span` of it."""
    B = (gens_of_b if isinstance(gens_of_b, Subring)
         else subring_closure(ring, list(gens_of_b)))
    return Subring(ring, commuting_span(ring, B.spanning()), check=False)


def commuting_span(ring, elements) -> AddSubgroup:
    """The elements x with x·b = b·x for each b of ``elements``, an
    additive subgroup because the product is bilinear.  On an algebra, the
    backend's ``commutant`` of their rows, all of them in one call: the
    null space of their commutators (over Q reduced from integer rows, with
    no Fraction made before the elimination); on a table ring, the x whose
    ``mul_table`` row and column agree at every b.  Unlike
    :func:`centralizer`, nothing is closed into a subring first, which in
    a non-associative ring can have fewer elements commuting with it."""
    if ring.is_table:
        mul = ring.mul_table
        commutes = np.ones(ring.n, dtype=bool)
        for b in elements:
            commutes &= mul[:, b.data] == mul[b.data]
        return TableSubgroup(ring, np.flatnonzero(commutes))
    rows, pivots = ring.F.commutant(ring, [b.data for b in elements])
    return Subspace(ring, rows, pivots)


def center(ring) -> Subring:
    return centralizer(ring, ring.spanning_elements())


def is_maximal_commutative(ring, B: Subring) -> bool:
    if not B.is_commutative():
        raise BNotCommutative("B is not commutative")
    return centralizer(ring, B).span == B.span


# ---------------------------------------------------------------------------
# invariance and associativity predicates
# ---------------------------------------------------------------------------

def is_A_invariant(ring, B: Subring, I: IdealBasis) -> bool:
    """AI ⊆ IA, both computed as additive spans inside the ambient ring."""
    full = full_subgroup(ring)
    AI = product_span(ring, full, I.span)
    IA = product_span(ring, I.span, full)
    return IA.contains_subgroup(AI)


@dataclass
class ASimpleVerdict:
    status: str                  # "ASimple" | "NotASimple"
    witness: IdealBasis | None = None

    @property
    def holds(self):
        return self.status == "ASimple"

    def __repr__(self):
        return self.status if self.holds else f"NotASimple({self.witness!r})"


def is_A_simple(ring, B: Subring, cap=DEFAULT_ELEMENT_CAP, ideals=None) -> ASimpleVerdict:
    """No non-trivial ideal of B is A-invariant.  ``ideals`` is the ideal
    list of B when the caller already has it."""
    if ideals is None:
        ideals = enumerate_subring_ideals(ring, B, cap=cap)
    I = first_invariant_ideal(ideals, lambda I: is_A_invariant(ring, B, I))
    return ASimpleVerdict("ASimple") if I is None else ASimpleVerdict("NotASimple", I)


def first_invariant_ideal(ideals, invariant):
    """The first ideal I in ``ideals`` with 0 ≠ I ≠ B for which
    ``invariant(I)`` holds, or None.  B is the ring the ideal belongs to:
    ``I.of_subring``, or the whole ring when that is None.

    This is the quantifier behind A-simplicity ("B has no non-trivial
    A-invariant ideal", :func:`is_A_simple`).  AI ⊆ IA is not a stability
    condition under maps (it is not closed under intersection), so it needs
    the lattice.  Invariance under maps does not: G-invariance for a crossed
    product, σ-δ-invariance for an Ore extension and conjugation-stability
    for a Cayley–Dickson doubling use :func:`first_stable_ideal`.
    """
    for I in ideals:
        B = I.of_subring
        if I.is_zero() or (I.span.is_full() if B is None else I.is_full_in(B.span)):
            continue
        if invariant(I):
            return I
    return None


def first_stable_ideal(ring, B: Subring | None, maps, cap=DEFAULT_ELEMENT_CAP):
    """The first ideal I of B with 0 ≠ I ≠ B that every map sends into I, in
    the (measure, key) order of :func:`enumerate_subring_ideals` (B is
    None: the whole ring); None when there is none.

    Norton's test on B's multiplications and the maps decides first
    (:func:`_line_closures`): when it finds no such ideal, at any size, the
    answer is None and no line is walked.  Otherwise the lattice is never
    built: the answer is the least closure of a line.  A stable ideal of
    least measure is minimal, so each of its nonzero elements generates it,
    and it is the least of the closures and any other stable ideal, such
    as the one the test found, which the walk starts from.  A closure that
    outgrows the best one so far is abandoned.

    When the test found such an ideal, the answer is decided and the walk
    waits for a reader: the result is an :meth:`IdealBasis.deferred`,
    whose span is the least closure, found on its first read (a verdict
    that only asks ``is None`` walks no line).  An undecided B (a table
    ring, or a stack the test leaves open) is walked at once.  Over the
    cap there is no walk, and the ideal the test found is the answer,
    which need not be the first.  Raises what :func:`_line_closures`
    raises.
    """
    span, decision, seeds, close = _line_closures(ring, B, maps, cap)
    if decision is True:
        return None
    if decision is None:
        best = _least_closure(span, None, seeds, close)
        return None if best is None else IdealBasis(ring, best, of_subring=B, check=False)
    if close is None:
        return IdealBasis(ring, decision, of_subring=B, check=False)
    return IdealBasis.deferred(ring, lambda: _least_closure(span, decision, seeds, close),
                               of_subring=B)


def _least_closure(span, best, seeds, close):
    """The least of ``best`` (a stable ideal of B, or None) and the
    closures of ``seeds`` that are not all of B (``span``), in (measure,
    key) order; None when there is none."""
    # past the bound a closure is all of B, or larger than the best one
    bound = span.measure() - 1 if best is None else best.measure()
    for seed in seeds:
        sub = close(seed, bound)
        if sub is not None and (
                best is None or (sub.measure(), sub.key()) < (best.measure(), best.key())):
            best, bound = sub, sub.measure()
    return best


def is_stable(span, maps) -> bool:
    """Does every map send the additive subgroup ``span`` into itself?
    ``maps`` are what :func:`first_stable_ideal` takes: d×d matrices acting
    on rows (v ↦ v @ M), or index arrays for a table ring (read only on the
    members of ``span``)."""
    ring = span.ring
    if ring.is_table:
        members = list(span.members)
        return all(span.members.issuperset(np.asarray(m)[members].tolist()) for m in maps)
    F = ring.F
    rows = F.array(span.rows).reshape(-1, ring.dim)
    return not any(F.merge(span.rows, span.pivots, F.matmul(rows, m))[2] for m in maps)


def _parenthesizations(factors, ring, memo=None):
    """All full parenthesizations of a word of spans, evaluated as spans.

    ``memo`` is a dict that one check shares across all the words it
    compares.  It holds each product, keyed by its factors' ``key()`` pair,
    and each sub-word's evaluations, keyed by its factors' keys, so a
    product or sub-word that several splits or words share is evaluated
    once.  Keys, not ids: the spans of one ring are canonical, so equal keys
    are equal spans, wherever they were computed.
    """
    if len(factors) == 1:
        return [factors[0]]
    if memo is None:
        memo = {}
    word = ("word",) + tuple(f.key() for f in factors)
    if word not in memo:
        out = []
        for split in range(1, len(factors)):
            for left in _parenthesizations(factors[:split], ring, memo):
                for right in _parenthesizations(factors[split:], ring, memo):
                    product = ("product", left.key(), right.key())
                    if product not in memo:
                        memo[product] = product_span(ring, left, right)
                    out.append(memo[product])
        memo[word] = out
    return memo[word]


def check_ideal_associativity(ring, B: Subring, I: IdealBasis, copies=2) -> bool:
    """Does I associate with up to ``copies`` copies of the ambient ring?

    copies=2 checks (IA)A=I(AA), (AI)A=A(IA), (AA)I=A(AI); copies=3 compares
    every parenthesization pair of each word with one I and three A factors.
    """
    if copies < 2 or copies > 3:
        raise ValueError("copies must be 2 or 3")
    A = full_subgroup(ring)
    words = []
    for ncopies in range(2, copies + 1):
        for pos in range(ncopies + 1):
            word = [A] * ncopies
            word.insert(pos, I.span)
            words.append(word)
    memo = {}
    for word in words:
        evals = _parenthesizations(word, ring, memo)
        first = evals[0]
        for other in evals[1:]:
            if other != first:
                return False
    return True


def identity_property(I: IdealBasis, B: Subring, side="left") -> bool:
    """BX = X (left) or XB = X (right) for X = I."""
    ring = I.ring
    if side == "left":
        prod = product_span(ring, B.span, I.span)
    elif side == "right":
        prod = product_span(ring, I.span, B.span)
    else:
        raise ValueError("side must be 'left' or 'right'")
    return prod == I.span


def apply_i_and_p(ring, B: Subring, I: IdealBasis):
    """The maps i(I) = IA into ideals of A and p(Y) = B ∩ Y back.

    Requires I to be A-invariant and the extension to associate at two
    copies; asserts that IA really is an ideal of A.
    """
    if not is_A_invariant(ring, B, I):
        raise NotAInvariant("I is not A-invariant")
    if not check_ideal_associativity(ring, B, I, copies=2):
        raise NotIdealAssociative("extension is not ideal associative at two copies")
    A = full_subgroup(ring)
    IA = product_span(ring, I.span, A)
    ideal_IA = IdealBasis(ring, IA, check=True)  # asserts absorption
    back = IA.intersect(B.span)
    return ideal_IA, IdealBasis(ring, back, of_subring=B, check=False)
