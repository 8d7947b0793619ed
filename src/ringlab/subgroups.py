"""Additive subgroups of a ring, in canonical form.

Two flavours behind one interface:

* ``TableSubgroup``: a finite additively-closed subset of a table ring,
  stored as a sorted index tuple.
* ``Subspace``: a linear subspace of a structure algebra, stored as a
  reduced row echelon basis (unique per subspace, so equality and hashing
  are representation equality).

Span arithmetic (products of spanning sets followed by additive closure) is
the engine behind every invariance and associativity predicate; spanning
sets suffice because ring multiplication distributes (is bilinear).

Each span class also answers for its representation what ``ideals``
quantifies over: its products and ring (``products``, ``as_ring``), line
seeds, closures under its multiplications and maps with the stable-ideal
decision (``stable_closures``), stability, pairings and the commutant.
:func:`span_class` is the one read of the representation here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from functools import cache, cached_property

import numpy as np

from . import linalg
from .errors import RingMismatch
from .rings import (DEFAULT_ELEMENT_CAP, Element, StructureAlgebra, TableRing, index_blocks,
                    require_ring)


class AddSubgroup:
    ring = None

    def contains(self, elt) -> bool:
        raise NotImplementedError

    def spanning(self):
        """Additive generators, as Elements."""
        raise NotImplementedError

    def elements(self, cap=DEFAULT_ELEMENT_CAP):
        return [a for block in self.element_blocks(cap)
                for a in self.ring.block_elements(block)]

    def element_blocks(self, cap=DEFAULT_ELEMENT_CAP):
        """Every element, as blocks of the ring (see ``Ring.element_blocks``)."""
        raise NotImplementedError

    def join(self, other):
        raise NotImplementedError

    def intersect(self, other):
        raise NotImplementedError

    def is_zero(self) -> bool:
        raise NotImplementedError

    def is_full(self) -> bool:
        raise NotImplementedError

    def key(self):
        """Canonical hashable form."""
        raise NotImplementedError

    def measure(self):
        """Size (table) or dimension (subspace)."""
        raise NotImplementedError

    def size(self):
        """Number of elements, or None when infinite (over Q)."""
        raise NotImplementedError

    def contains_subgroup(self, other) -> bool:
        return all(self.contains(x) for x in other.spanning())

    def __eq__(self, other):
        return (type(other) is type(self) and other.ring is self.ring
                and other.key() == self.key())

    def __hash__(self):
        return hash((id(self.ring), self.key()))


class TableSubgroup(AddSubgroup):
    def __init__(self, ring: TableRing, members):
        self.ring = ring
        self.members = frozenset(int(m) for m in members)

    @classmethod
    def full(cls, ring):
        return cls(ring, range(ring.n))

    @classmethod
    def spanned(cls, ring, indices):
        # close the index set under addition; negation follows in a finite group
        add = ring.add_table
        current = {ring.zero_index} | {int(i) for i in indices}
        frontier = np.array(sorted(current), dtype=np.int64)
        while True:
            idx = np.array(sorted(current), dtype=np.int64)
            sums = distinct_indices(ring, add[np.ix_(frontier, idx)])
            fresh = [s for s in sums.tolist() if s not in current]
            if not fresh:
                break
            current.update(fresh)
            frontier = np.array(fresh, dtype=np.int64)
        return cls(ring, current)

    @classmethod
    def closure(cls, ring, seeds, ops=None, bound=None):
        """The smallest additive subgroup holding the indices ``seeds`` that
        every row of each 2-D index array of ``ops`` (a map x ↦ row[x])
        sends into itself: by default the rows of ``mul_table`` and of its
        transpose, so the ideal the seeds generate.  None once it has more
        than ``bound`` members."""
        ops = (ring.mul_table, ring.mul_table.T) if ops is None else ops
        span = cls.spanned(ring, seeds)
        while bound is None or len(span.members) <= bound:
            idx = np.array(sorted(span.members), dtype=np.int64)
            images = distinct_indices(ring, np.concatenate([op[:, idx].ravel() for op in ops]))
            fresh = [int(x) for x in images if x not in span.members]
            if not fresh:
                return span
            span = cls.spanned(ring, list(span.members) + fresh)
        return None

    @classmethod
    def commutant(cls, ring, elements):
        """The x whose ``mul_table`` row and column agree at every b."""
        mul = ring.mul_table
        commutes = np.ones(ring.n, dtype=bool)
        for b in elements:
            commutes &= mul[:, b.data] == mul[b.data]
        return cls(ring, np.flatnonzero(commutes))

    def contains(self, elt):
        return elt.data in self.members

    def spanning(self):
        return [self.ring.element(i) for i in sorted(self.members)]

    def element_blocks(self, cap=DEFAULT_ELEMENT_CAP):
        return index_blocks(sorted(self.members))

    def join(self, other):
        return additive_span(self.ring, self.spanning() + other.spanning())

    def intersect(self, other):
        return TableSubgroup(self.ring, self.members & other.members)

    def is_zero(self):
        return self.members == {self.ring.zero_index}

    def is_full(self):
        return len(self.members) == self.ring.n

    def key(self):
        return tuple(sorted(self.members))

    def measure(self):
        return len(self.members)

    def size(self):
        return len(self.members)

    def product(self, other):
        ring = self.ring
        prods = ring.mul_table[np.ix_(sorted(self.members), sorted(other.members))]
        return TableSubgroup.spanned(ring, distinct_indices(ring, prods).tolist())

    @cached_property
    def products(self):
        """The ``mul_table`` block of the sorted members (k×k indices)."""
        members = sorted(self.members)
        return self.ring.mul_table[np.ix_(members, members)]

    def products_commute(self):
        """Do the members commute pairwise?  ``products`` against its
        transpose."""
        T = self.products
        return bool((T == T.T).all())

    def centralizer(self):
        """The x that commute with every member (:meth:`commutant`)."""
        return TableSubgroup.commutant(self.ring, self.spanning())

    def as_ring(self):
        """The members renumbered 0..k-1, each table's block remapped
        through one index array."""
        ring, members = self.ring, sorted(self.members)
        pos = np.full(ring.n, -1, dtype=np.int32)
        pos[members] = np.arange(len(members))
        mul = pos[self.products]
        if (mul < 0).any():
            raise RingMismatch("span is not multiplicatively closed")
        sub = TableRing(pos[ring.add_table[np.ix_(members, members)]], mul,
                        pos[ring.zero_index], _validated=True)

        def embed(e):
            return ring.element(members[e.data])

        def project(e):
            return sub.element(pos[e.data])

        return sub, embed, project

    def line_seeds(self):
        """The nonzero members, by index, that are no k·a with gcd(k,
        ord(a)) = 1 for an a yielded before: one generator per cyclic
        subgroup.  Such a k·a generates what a does under sums and additive
        maps (the products with a fixed element among them), because a =
        k′·(k·a) for k′ the inverse of k modulo ord(a)."""
        add, zero = self.ring.add_table, self.ring.zero_index
        covered = np.zeros(self.ring.n, dtype=bool)
        for a in sorted(self.members):
            if a == zero or covered[a]:
                continue
            yield a
            multiples = [a]                        # multiples[k - 1] = k·a
            while multiples[-1] != zero:
                multiples.append(int(add[multiples[-1], a]))
            order = len(multiples)
            covered[[m for k, m in enumerate(multiples, 1) if math.gcd(k, order) == 1]] = True

    def stable_closures(self, maps):
        """A table ring has no decision: an undecided :class:`Decision`
        whose ``close(x, bound)`` is ``closure`` of the member x under the
        rows of L_b and R_b (b in the span) and the maps."""
        mul, members = self.ring.mul_table, sorted(self.members)
        ops = [mul[members], mul[:, members].T] + [np.asarray(m)[None, :] for m in maps]

        def close(x, bound=None):
            return TableSubgroup.closure(self.ring, [x], ops, bound)
        return linalg.Decision(None, close=close)

    def is_stable(self, maps):
        members = list(self.members)
        return all(self.members.issuperset(np.asarray(m)[members].tolist()) for m in maps)

    def pairing_nondegenerate(self, other):
        """(does every nonzero x of this span have x·other != 0, does every
        nonzero w of ``other`` have self·w != 0)?  One index of
        ``mul_table`` tests every member of both at once: cell (x, w)
        holds x·w."""
        ring = self.ring
        X, W = sorted(self.members), sorted(other.members)
        killed = ring.mul_table[np.ix_(X, W)] == ring.zero_index
        return (not (killed.all(axis=1) & (np.array(X) != ring.zero_index)).any(),
                not (killed.all(axis=0) & (np.array(W) != ring.zero_index)).any())

    def __repr__(self):
        return f"TableSubgroup({sorted(self.members)})"


class Subspace(AddSubgroup):
    """``rows`` is an rref basis in the ring backend's storage (see linalg)."""

    def __init__(self, ring: StructureAlgebra, rows, pivots):
        self.ring = ring
        self.rows = ring.F.rows(rows, ring.dim)
        self.pivots = tuple(pivots)

    @classmethod
    def full(cls, ring):
        # the identity rows are already in rref
        return cls(ring, ring.F.eye(ring.dim), range(ring.dim))

    @classmethod
    def spanned(cls, ring, rows):
        return subspace_from_vectors(ring, rows)

    @classmethod
    def closure(cls, ring, rows):
        """The ideal the rows generate, in the field backend's ``closure``."""
        return cls(ring, *ring.F.closure(ring, rows))

    @classmethod
    def commutant(cls, ring, elements):
        """The backend's ``commutant`` of their rows, all of them in one
        call: the null space of their commutators (over Q reduced from
        integer rows, with no Fraction made before the elimination)."""
        return cls(ring, *ring.F.commutant(ring, [b.data for b in elements]))

    @property
    def dim(self):
        return len(self.pivots)

    def contains(self, elt):
        if elt.ring is not self.ring:
            raise RingMismatch("element of a different ring")
        return self.contains_coords(elt.data)

    def contains_coords(self, coords):
        return self.ring.F.member(coords, self.rows, self.pivots)

    def coordinates(self, elt):
        """Coefficients of ``elt`` on this rref basis (must be a member)."""
        if not self.contains(elt):
            raise RingMismatch("element outside subspace")
        return tuple(elt.data[c] for c in self.pivots)

    def spanning(self):
        return [Element(self.ring, self.ring.F.coords(row)) for row in self.rows]

    def element_blocks(self, cap=DEFAULT_ELEMENT_CAP):
        return self.ring.F.element_blocks(self.rows, cap)

    def join(self, other):
        rows, pivots, _ = self.ring.F.merge(self.rows, self.pivots, other.rows)
        return Subspace(self.ring, rows, pivots)

    def intersect(self, other):
        rows, pivots = self.ring.F.intersect(self.rows, other.rows, self.ring.dim)
        return Subspace(self.ring, rows, pivots)

    def is_zero(self):
        return self.dim == 0

    def is_full(self):
        return self.dim == self.ring.dim

    def key(self):
        return (self.pivots, self.ring.F.key(self.rows))

    def measure(self):
        return self.dim

    def size(self):
        return self.ring.F.size(self.dim)

    def product(self, other):
        ring = self.ring
        rows = ring.F.products(ring, self.rows, other.rows) if self.dim and other.dim else []
        return subspace_from_vectors(ring, rows)

    @cached_property
    def _left(self):
        """The backend's ``left_multiplications`` of the rref rows, the one
        contraction with the constants that ``products`` and ``centralizer``
        share."""
        return self.ring.F.left_multiplications(self.ring, self.rows)

    @cached_property
    def products(self):
        """The products of the rref rows, shaped (k, k, d) with [i, j] the
        ambient coordinates of row i times row j: the ring's constants when
        the span is everything (its rref rows are the identity), else one
        backend ``products``."""
        ring, k = self.ring, self.dim
        if self.is_full():
            return ring.constants
        return ring.F.array(ring.F.products(ring, self.rows, self.rows, self._left)
                            ).reshape(k, k, ring.dim)

    def products_commute(self):
        """Do the rref rows commute pairwise?  ``products`` against its
        transpose, compared by the backend (over Q as integers)."""
        T = self.products
        return bool(self.ring.F.equal(T, T.swapaxes(0, 1)).all())

    def centralizer(self):
        """The x that commute with every element of the span: the backend's
        ``commutant`` of the rref rows, reading ``_left``."""
        ring = self.ring
        return Subspace(ring, *ring.F.commutant(ring, self.rows, self._left))

    def as_ring(self):
        """The constants of the products in the rref basis, whose
        coordinates are an element's pivot entries; one ``matmul`` back onto
        the rows checks that every product lies in the span."""
        ring, F, rows, k = self.ring, self.ring.F, self.rows, self.dim
        if k == 0:
            raise RingMismatch("cannot materialize the zero subring")
        C = self.products[:, :, list(self.pivots)]
        if not F.equal(F.matmul(C.reshape(k * k, k), rows),
                       self.products.reshape(k * k, ring.dim)).all():
            raise RingMismatch("span is not multiplicatively closed")
        sub = StructureAlgebra(F, k, C)

        def embed(e):
            return ring.element(F.matmul(e.data, rows))

        def project(e):
            return sub.element(self.coordinates(e))

        return sub, embed, project

    def line_seeds(self):
        """One coordinate vector over the rref rows per line of F_p^k, in
        the order of :func:`_lines`."""
        return _lines(self.ring.F.p, self.dim)

    def stable_closures(self, maps):
        """L_b and R_b (b in the span: its products at the pivots, or the
        ring's constants when it is everything) and the maps act on
        coordinates c over the rref rows, the elements c @ rows, as k×k
        operators; the :class:`ringlab.linalg.Decision` is Norton's test on
        them, with its submodule as an ambient span.  Its ``close`` is the
        closure of c, c·E for E the unital algebra they generate, spun up
        from the identity on the first call of ``close``: a caller that
        closes one line closes them all, and one that reads the decision
        alone none."""
        ring, F, rows, pivots = self.ring, self.ring.F, self.rows, list(self.pivots)
        p, k = F.p, len(pivots)
        C = self.products[:, :, pivots]
        ops = np.concatenate([linalg.multiplications_modp(C, p)]
                             + [(rows @ F.reduce(m) % p)[None, :, pivots] for m in maps])

        def ambient(basis, found):
            # an rref basis in coordinates is one in the ambient ring too
            return Subspace(ring, basis @ rows % p, [pivots[c] for c in found])
        decision = linalg.irreducible_modp(ops, p)

        @cache
        def algebra():
            return linalg.spin_modp(np.eye(k, dtype=np.int64).reshape(1, -1), ops, p
                                    )[0].reshape(-1, k, k)

        def close(line, bound=None):
            basis, found = linalg.rref_modp(np.array(line) @ algebra() % p, p)
            if bound is not None and len(found) > bound:
                return None
            return ambient(basis, found)
        if decision.holds is False:
            return replace(decision, submodule=ambient(*decision.submodule), close=close)
        return replace(decision, close=close)

    def is_stable(self, maps):
        F = self.ring.F
        rows = F.array(self.rows).reshape(-1, self.ring.dim)
        return not any(F.merge(self.rows, self.pivots, F.matmul(rows, m))[2] for m in maps)

    def pairing_nondegenerate(self, other):
        """See :meth:`TableSubgroup.pairing_nondegenerate`.  Each offending
        set is a subspace, so one block of products and one rank per side
        decide both with no element enumeration."""
        ring, F = self.ring, self.ring.F
        X, W = [x.data for x in self.spanning()], [w.data for w in other.spanning()]
        if not X or not W:
            return not X, not W
        # P[a, b] = x_a·w_b: no nonzero combination of the x_a (of the w_b)
        # may have only zero products
        P = F.array(F.products(ring, X, W)).reshape(len(X), len(W), -1)
        return (F.rank(P.reshape(len(X), -1).T, len(X)) == len(X),
                F.rank(P.transpose(1, 0, 2).reshape(len(W), -1).T, len(W)) == len(W))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ring.dim})"


# ---------------------------------------------------------------------------
# constructors and span arithmetic
# ---------------------------------------------------------------------------

def span_class(ring):
    """The span class of the ring's representation: the one read of it,
    and so the one place that refuses what is not a ring (NotARing)."""
    return TableSubgroup if require_ring(ring).is_table else Subspace


def zero_subgroup(ring):
    return span_class(ring).spanned(ring, [])


def full_subgroup(ring):
    return span_class(ring).full(ring)


def subspace_from_vectors(ring: StructureAlgebra, vectors):
    rows, pivots = ring.F.rref(vectors, ring.dim)
    return Subspace(ring, rows, pivots)


def additive_span(ring, elements) -> AddSubgroup:
    """Smallest additive subgroup containing the given elements."""
    return span_class(ring).spanned(ring, [e.data for e in elements])


def commuting_span(ring, elements) -> AddSubgroup:
    """The elements x with x·b = b·x for each b of ``elements`` (additive:
    the product is bilinear).  Unlike ``ideals.centralizer``, nothing is
    closed into a subring first, which can have fewer such elements."""
    return span_class(ring).commutant(ring, elements)


def distinct_indices(ring, indices):
    """The distinct element indices of a table ring in the array
    ``indices``, in increasing order: ``np.unique`` on a table's index
    range, by a mask, without the import of ``numpy.ma`` that numpy's 1-D
    ``unique`` makes."""
    seen = np.zeros(ring.n, dtype=bool)
    seen[indices] = True
    return np.flatnonzero(seen)


def _lines(p, k):
    """One generator per line of F_p^k: the vector with first nonzero
    coordinate 1, leading coordinates in increasing position, the tail in
    ``itertools.product`` order."""
    for lead in range(k):
        for tail in itertools.product(range(p), repeat=k - lead - 1):
            yield (0,) * lead + (1,) + tail


def product_span(ring, left, right) -> AddSubgroup:
    """Additive span of pairwise products of two spans: by distributivity,
    the full set-product span XY."""
    return left.product(right)


def triple_product_span(ring, X, Y, Z) -> AddSubgroup:
    """Span of x(yz) and (x'y')z' combined, the two-sided reading of XYZ."""
    a = product_span(ring, X, product_span(ring, Y, Z))
    b = product_span(ring, product_span(ring, X, Y), Z)
    return a.join(b)
