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
"""

from __future__ import annotations

import numpy as np

from .errors import RingMismatch
from .rings import Element, StructureAlgebra, TableRing, index_blocks


class AddSubgroup:
    ring = None

    def contains(self, elt) -> bool:
        raise NotImplementedError

    def spanning(self):
        """Additive generators, as Elements."""
        raise NotImplementedError

    def elements(self, cap=1 << 20):
        return [a for block in self.element_blocks(cap)
                for a in self.ring.block_elements(block)]

    def element_blocks(self, cap=1 << 20):
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

    def contains(self, elt):
        return elt.data in self.members

    def spanning(self):
        return [self.ring.element(i) for i in sorted(self.members)]

    def element_blocks(self, cap=1 << 20):
        return index_blocks(sorted(self.members))

    def join(self, other):
        return additive_span(self.ring,
                             self.spanning() + other.spanning())

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

    def __repr__(self):
        return f"TableSubgroup({sorted(self.members)})"


class Subspace(AddSubgroup):
    """``rows`` is an rref basis in the ring backend's storage (see linalg)."""

    def __init__(self, ring: StructureAlgebra, rows, pivots):
        self.ring = ring
        self.rows = ring.F.rows(rows, ring.dim)
        self.pivots = tuple(pivots)

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

    def element_blocks(self, cap=1 << 20):
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

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ring.dim})"


# ---------------------------------------------------------------------------
# constructors and span arithmetic
# ---------------------------------------------------------------------------

def zero_subgroup(ring):
    if ring.is_table:
        return TableSubgroup(ring, {ring.zero_index})
    return subspace_from_vectors(ring, [])


def full_subgroup(ring):
    if ring.is_table:
        return TableSubgroup(ring, range(ring.n))
    # the identity rows are already in rref
    return Subspace(ring, ring.F.eye(ring.dim), range(ring.dim))


def subspace_from_vectors(ring: StructureAlgebra, vectors):
    rows, pivots = ring.F.rref(vectors, ring.dim)
    return Subspace(ring, rows, pivots)


def additive_span(ring, elements) -> AddSubgroup:
    """Smallest additive subgroup containing the given elements."""
    if ring.is_algebra:
        return subspace_from_vectors(ring, [e.data for e in elements])
    return _table_additive_closure(ring, [e.data for e in elements])


def distinct_indices(ring, indices):
    """The distinct element indices of a table ring in the array
    ``indices``, in increasing order: ``np.unique`` on a table's index
    range, by a mask, without the import of ``numpy.ma`` that numpy's 1-D
    ``unique`` makes."""
    seen = np.zeros(ring.n, dtype=bool)
    seen[indices] = True
    return np.flatnonzero(seen)


def _table_additive_closure(ring, indices):
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
    return TableSubgroup(ring, current)


def product_span(ring, left, right) -> AddSubgroup:
    """Additive span of pairwise products of two spanning sets.

    ``left``/``right`` may be AddSubgroups or element lists; distributivity
    makes the result the full set-product span XY.
    """
    if ring.is_table:
        xi = (sorted(left.members) if isinstance(left, TableSubgroup)
              else [e.data for e in left])
        yi = (sorted(right.members) if isinstance(right, TableSubgroup)
              else [e.data for e in right])
        if not xi or not yi:
            return zero_subgroup(ring)
        prods = distinct_indices(ring, ring.mul_table[np.ix_(xi, yi)])
        return _table_additive_closure(ring, prods.tolist())
    xs = left.spanning() if isinstance(left, AddSubgroup) else list(left)
    ys = right.spanning() if isinstance(right, AddSubgroup) else list(right)
    if not xs or not ys:
        return zero_subgroup(ring)
    return subspace_from_vectors(ring, ring.F.products(
        ring, [e.data for e in xs], [e.data for e in ys]))


def triple_product_span(ring, X, Y, Z) -> AddSubgroup:
    """Span of x(yz) and (x'y')z' combined, the two-sided reading of XYZ."""
    a = product_span(ring, X, product_span(ring, Y, Z))
    b = product_span(ring, product_span(ring, X, Y), Z)
    return a.join(b)
