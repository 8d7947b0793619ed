"""Finite rings and finite-dimensional algebras with exact arithmetic.

Two representations:

* ``TableRing``: a finite ring given by addition and multiplication tables
  on element indices.  Construction validates, exhaustively, that addition
  is an abelian group and that multiplication distributes on both sides.
  Nothing else is assumed: multiplication may be nonassociative and the
  ring may lack a unit.

* ``StructureAlgebra``: a finite-dimensional algebra over Q or F_p given by
  structure constants c[i][j][k] (basis_i · basis_j = sum_k c[i][j][k]
  basis_k).  Bilinearity makes distributivity automatic; any constants give
  a valid algebra.  Its field ``F`` (``linalg.QQ`` or ``linalg.GF(p)``) is
  its backend: it does both the scalar and the linear algebra, and callers
  read the field from it (``F.p``, ``F.size``), never a copy on the ring.

A ring's representation fixes the kind of every operator on it: a map out
of a table ring (``constructions.crossed.RingMap``, and the maps that the
spans of ``subgroups`` close under) is an index array, one out of an
algebra a matrix acting on coordinate rows.  ``RingMap`` holds the one
operator, and the ring answers every question whose answer depends on its
kind (coercion, application, composition, comparison, ...: see ``Ring``),
so the constructions do not branch on it.  The ring answers the
ring-level half of what ``ideals.is_simple`` asks (``products_vanish``,
``simplicity``, ``is_walked``); a table ring has no decision and is walked
whatever the cap, its elements being in memory.

Rings and elements are immutable after construction and safe to share;
property probes cache their (idempotent) results on the ring: ``_props``
(the probe), ``_simple_cache`` (simplicity verdicts, see ``ideals``) and
``_alpha_verdicts`` (crossed-product cocycle checks, see
``constructions.crossed``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import log

import numpy as np

from . import linalg
from .errors import (DistributivityViolation, NotAbelianGroup, NotARing, RingMismatch,
                     ShapeMismatch, TooLarge)
from .linalg import GF

DEFAULT_ELEMENT_CAP = 2 ** 20
TABLE_SIZE_CAP = 4096
# the most structure constants (d³ for an algebra of dimension d) that a
# crossed product or a direct sum may have, checked before they are
# allocated: 16 MB of int64, d up to 128.  The largest built today have
# d = 63 (Z3 acting on 21 points) and d = 64 (M8(F2))
CONSTANTS_CAP = 1 << 21


class Element:
    """An element of a ring: an index (TableRing) or a coordinate tuple."""

    __slots__ = ("ring", "data")

    def __init__(self, ring, data):
        self.ring = ring
        self.data = data

    def _check(self, other):
        if not isinstance(other, Element) or other.ring is not self.ring:
            raise RingMismatch("elements belong to different rings")

    def __add__(self, other):
        self._check(other)
        return self.ring.add(self, other)

    def __sub__(self, other):
        self._check(other)
        return self.ring.add(self, self.ring.neg(other))

    def __mul__(self, other):
        self._check(other)
        return self.ring.mul(self, other)

    def __neg__(self):
        return self.ring.neg(self)

    def __eq__(self, other):
        return (isinstance(other, Element) and other.ring is self.ring
                and other.data == self.data)

    def __hash__(self):
        return hash((id(self.ring), self.data))

    def is_zero(self):
        return self.ring.is_zero(self)

    def __repr__(self):
        return f"Element({self.data!r})"


def ring_eval(a: Element, b: Element, op: str) -> Element:
    """Evaluate add/mul/neg on elements of one ring (neg ignores ``b``)."""
    if op == "neg":
        return -a
    if not isinstance(b, Element) or b.ring is not a.ring:
        raise RingMismatch("elements belong to different rings")
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    raise ValueError(f"unknown op {op!r}")


@dataclass
class PropertyReport:
    associative: bool
    associative_witness: tuple | None
    commutative: bool
    commutative_witness: tuple | None
    unital: bool
    unit: Element | None
    size: int | None

    def summary(self):
        return {
            "associative": self.associative,
            "commutative": self.commutative,
            "unital": self.unital,
            "size": self.size,
        }


class Ring:
    is_table = False
    is_algebra = False

    def __init__(self):
        self._props = None
        # alpha.data -> (is a unit, associates and commutes): filled by
        # crossed-product validation, once per ring whatever the systems
        self._alpha_verdicts = {}

    # -- arithmetic ---------------------------------------------------
    def zero(self) -> Element:
        raise NotImplementedError

    def add(self, a, b) -> Element:
        raise NotImplementedError

    def neg(self, a) -> Element:
        raise NotImplementedError

    def mul(self, a, b) -> Element:
        raise NotImplementedError

    # -- structure ----------------------------------------------------
    def size(self):
        """Number of elements, or None when infinite."""
        raise NotImplementedError

    def spanning_elements(self):
        """A finite additive spanning set (basis, or every element)."""
        raise NotImplementedError

    def additive_generators(self):
        """Few elements that decide an identity additive in each argument
        (linear, for an algebra): a basis, or for a table ring a generating
        set of (R, +)."""
        return self.spanning_elements()

    def enumerate_elements(self, cap=DEFAULT_ELEMENT_CAP):
        return [a for block in self.element_blocks(cap)
                for a in self.block_elements(block)]

    # -- blocks of elements -------------------------------------------
    # A block holds many elements at once: an index array for a table
    # ring, an (n, dim) array of coordinate rows for an F_p algebra.  Scans
    # over every element work on blocks, so their arithmetic is array
    # indexing or matrix products rather than one Element at a time.
    def element_blocks(self, cap=DEFAULT_ELEMENT_CAP):
        """Every element, in ``enumerate_elements`` order, as blocks."""
        raise NotImplementedError

    def block_elements(self, block):
        """The elements of a block, as Elements."""
        raise NotImplementedError

    def block_nonzero(self, block):
        """Boolean mask of the nonzero elements of a block."""
        raise NotImplementedError

    def block_commutators(self, block, b):
        """The block of commutators x·b − b·x, for x in ``block``."""
        raise NotImplementedError

    # -- operators ----------------------------------------------------
    # A map out of a ring is one operator of the kind the ring fixes (see
    # the module docstring), and the source ring answers every question
    # that depends on the kind, for one operator or a stack along leading
    # axes: coerce_operator, scalar_operator(k) (x ↦ k·x: the identity,
    # zero, negation), apply_operators (to element data or a block),
    # compose_operators(G, H) (G ∘ H), equal_operators, operator_bijective,
    # operator_additive (None: nothing to check) and product_failures (per
    # spanning pair).  is_unit and associates_and_commutes are exact.

    def probe_properties(self) -> PropertyReport:
        if self._props is None:
            self._props = self._probe()
        return self._props

    def _probe(self) -> PropertyReport:
        raise NotImplementedError

    def opposite(self):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# table-backed rings
# ---------------------------------------------------------------------------

class TableRing(Ring):
    """Finite ring on indices 0..n-1 with explicit operation tables."""

    is_table = True

    def __init__(self, add_table, mul_table, zero_index, _validated=False):
        super().__init__()
        self.add_table = np.ascontiguousarray(add_table, dtype=np.int32)
        self.mul_table = np.ascontiguousarray(mul_table, dtype=np.int32)
        self.n = self.add_table.shape[0]
        self.zero_index = int(zero_index)
        if not _validated:
            _validate_tables(self.add_table, self.mul_table, self.zero_index)
        # -a is where row a of the addition table holds zero, exactly once
        # per row; the mask is the one N×N temporary
        self.neg_table = (self.add_table == self.zero_index).argmax(axis=1).astype(np.int32)

    def element(self, idx) -> Element:
        idx = int(idx)
        if not 0 <= idx < self.n:
            raise ShapeMismatch(f"index {idx} out of range for ring of size {self.n}")
        return Element(self, idx)

    def zero(self):
        return Element(self, self.zero_index)

    def add(self, a, b):
        return Element(self, int(self.add_table[a.data, b.data]))

    def neg(self, a):
        return Element(self, int(self.neg_table[a.data]))

    def mul(self, a, b):
        return Element(self, int(self.mul_table[a.data, b.data]))

    def is_zero(self, a):
        # read off the data, with no zero built (an algebra's by truth tests)
        return a.data == self.zero_index

    def size(self):
        return self.n

    def products_vanish(self):
        return not (self.mul_table != self.zero_index).any()

    def simplicity(self):
        return linalg.Decision(None)

    def is_walked(self, cap):
        return True

    def spanning_elements(self):
        return [Element(self, i) for i in range(self.n)]

    def element_blocks(self, cap=DEFAULT_ELEMENT_CAP):
        if self.n > cap:
            raise TooLarge(f"{self.n} elements exceeds cap {cap}")
        order = [self.zero_index] + [i for i in range(self.n) if i != self.zero_index]
        return index_blocks(order)

    def block_elements(self, block):
        return [Element(self, i) for i in block.tolist()]

    def block_nonzero(self, block):
        return block != self.zero_index

    def block_commutators(self, block, b):
        return self.add_table[self.mul_table[block, b.data],
                              self.neg_table[self.mul_table[b.data, block]]]

    def scalar_mul(self, k, a):
        return Element(self, int(self._multiple(k, a.data)))

    def _multiple(self, k, x):
        """k·x for an integer k and an index or index array x: k read mod n
        (n·x = 0), then doubled and added bit by bit from the top, at most
        2·log₂ n sums."""
        if not isinstance(k, (int, np.integer)):
            raise TypeError(f"expected an integer, got {k!r}")
        k = int(k) % self.n
        if not k:
            return np.full(np.shape(x), self.zero_index)
        acc = x
        for bit in bin(k)[3:]:
            acc = self.add_table[acc, acc]
            if bit == "1":
                acc = self.add_table[acc, x]
        return acc

    # -- operators: index arrays --------------------------------------
    def coerce_operator(self, op):
        return np.array(op, dtype=np.int64)

    def scalar_operator(self, k):
        return self._multiple(k, np.arange(self.n))

    def apply_operators(self, ops, x):
        return ops[..., x]

    def compose_operators(self, G, H):
        return np.take_along_axis(G, H, axis=-1)

    def equal_operators(self, A, B):
        return (A == np.asarray(B)).all(axis=-1)

    def operator_bijective(self, op):
        return sorted(op.tolist()) == list(range(self.n))

    def operator_additive(self, op, target):
        return bool(np.array_equal(op[self.add_table], target.add_table[np.ix_(op, op)]))

    def product_failures(self, ops, target, anti):
        right = target.mul_table[ops[:, :, None], ops[:, None, :]]
        return ops[:, self.mul_table] != (right.transpose(0, 2, 1) if anti else right)

    def is_unit(self, a):
        """One x with a·x = 1 = x·a."""
        unit = self.probe_properties().unit
        return unit is not None and bool(np.any((self.mul_table[a.data] == unit.data)
                                                & (self.mul_table[:, a.data] == unit.data)))

    def associates_and_commutes(self, a):
        """a(bc) = (ba)c = b(ac) = (bc)a and ab = ba on every pair, by
        indexing ``mul_table``."""
        mul, x = self.mul_table, a.data
        if not np.array_equal(mul[x], mul[:, x]):
            return False
        sides = (mul[x][mul], mul[mul[:, x]], mul[:, mul[x]], mul[:, x][mul])
        return all(np.array_equal(sides[0], side) for side in sides[1:])

    def _probe(self):
        n, mul = self.n, self.mul_table
        assoc, assoc_wit = True, None
        gens = [g.data for g in self.additive_generators()]
        # the product distributes over the sum, so the associator
        # (ab)c − a(bc) is additive in each argument: it vanishes on every
        # triple iff it vanishes on the triples of additive generators.
        # Only a failure scans all n³ triples, for the first witness
        if not np.array_equal(mul[mul[np.ix_(gens, gens)]][:, :, gens],
                              mul[gens][:, mul[np.ix_(gens, gens)]]):
            assoc, assoc_wit = False, tuple(self.element(x) for x in self._first_associator())
        comm = bool(np.array_equal(mul, mul.T))
        comm_wit = None
        if not comm:
            i, j = np.argwhere(mul != mul.T)[0]
            comm_wit = (self.element(int(i)), self.element(int(j)))
        ident = np.arange(n)
        unital, unit = False, None
        for e in range(n):
            if np.array_equal(mul[e], ident) and np.array_equal(mul[:, e], ident):
                unital, unit = True, self.element(e)
                break
        return PropertyReport(assoc, assoc_wit, comm, comm_wit, unital, unit, n)

    def additive_generators(self):
        """A generating set of (R, +), greedily in index order: each index
        outside the span so far joins it.  The span H grows to H + <x>, a
        union of at least two cosets of H, so there are at most log₂ n."""
        add = self.add_table
        inside = np.zeros(self.n, dtype=bool)
        inside[self.zero_index] = True
        gens = []
        for x in range(self.n):
            if inside[x]:
                continue
            gens.append(x)
            H, shift = np.flatnonzero(inside), x
            while not inside[shift]:               # the cosets H + k·x
                inside[add[H, shift]] = True
                shift = int(add[shift, x])
        return [Element(self, x) for x in gens]

    def _first_associator(self):
        """The first triple (a, b, c) of indices, in row-major order, with
        (ab)c != a(bc), or None: a scan of all n³ triples."""
        mul = self.mul_table
        for a in range(self.n):
            left = mul[mul[a], :]          # (a b) c
            right = mul[a][mul]            # a (b c)
            if not np.array_equal(left, right):
                b, c = np.argwhere(left != right)[0]
                return a, int(b), int(c)
        return None

    def opposite(self):
        return TableRing(self.add_table, self.mul_table.T.copy(), self.zero_index,
                         _validated=True)


def _check_table_size(n):
    if n > TABLE_SIZE_CAP:
        raise TooLarge(f"table ring size {n} exceeds cap {TABLE_SIZE_CAP}")


def _validate_tables(add, mul, zero):
    n = add.shape[0]
    if add.shape != (n, n) or mul.shape != (n, n):
        raise ShapeMismatch("tables must be square and of equal size")
    _check_table_size(n)
    for t, name in ((add, "addition"), (mul, "multiplication")):
        if t.min() < 0 or t.max() >= n:
            raise ShapeMismatch(f"{name} table entry out of range")
    if not 0 <= zero < n:
        raise ShapeMismatch("zero index out of range")
    ident = np.arange(n)
    if not np.array_equal(add, add.T):
        i, j = np.argwhere(add != add.T)[0]
        raise NotAbelianGroup("addition not commutative", (int(i), int(j)))
    if not np.array_equal(add[zero], ident):
        raise NotAbelianGroup("designated zero is not neutral", zero)
    # every row must reach zero (inverses) and be a permutation
    for a in range(n):
        row = add[a]
        if len(set(row.tolist())) != n:
            raise NotAbelianGroup("addition row is not a permutation", a)
    for a in range(n):
        if not np.array_equal(add[add[a], :], add[a][add]):
            bc = np.argwhere(add[add[a], :] != add[a][add])[0]
            raise NotAbelianGroup("addition not associative", (a, int(bc[0]), int(bc[1])))
    for a in range(n):
        row = mul[a]
        left = row[add]                      # a (b + c)
        right = add[row[:, None], row[None, :]]  # a b + a c
        if not np.array_equal(left, right):
            b, c = np.argwhere(left != right)[0]
            raise DistributivityViolation((a, int(b), int(c)))
    for c in range(n):
        col = mul[:, c]
        left = col[add]                      # (a + b) c
        right = add[col[:, None], col[None, :]]
        if not np.array_equal(left, right):
            a, b = np.argwhere(left != right)[0]
            raise DistributivityViolation((int(a), int(b), c))


def make_table_ring(add, mul, zero=0) -> TableRing:
    """Build and validate a finite ring from operation tables."""
    return TableRing(add, mul, zero)


def zmod_ring(n: int) -> TableRing:
    """Z_n as a table ring; TooLarge past ``TABLE_SIZE_CAP``, before its
    n × n tables are allocated."""
    if n < 1:
        raise ValueError(f"modulus {n} must be at least 1")
    _check_table_size(n)
    idx = np.arange(n)
    add = (idx[:, None] + idx[None, :]) % n
    mul = (idx[:, None] * idx[None, :]) % n
    return TableRing(add, mul, 0, _validated=True)


# ---------------------------------------------------------------------------
# structure-constant algebras
# ---------------------------------------------------------------------------

class StructureAlgebra(Ring):
    """Finite-dimensional algebra over Q or F_p given by structure constants."""

    is_algebra = True

    def __init__(self, field, dim, constants):
        super().__init__()
        self.F = field
        self.dim = int(dim)
        if self.dim < 1:
            raise ShapeMismatch("dimension must be positive")
        try:
            C = self.F.array(constants)
        except ValueError as exc:
            raise ShapeMismatch(f"constants must be a d x d x d array of scalars: {exc}")
        if C.shape != (self.dim,) * 3:
            raise ShapeMismatch(f"constants must have shape {(self.dim,) * 3}")
        self.constants = self.F.reduce(C)

    @cached_property
    def _table(self):
        """The sparse integer product table (:func:`linalg.product_table`),
        built the first time a product needs it."""
        return linalg.product_table(self.constants)

    # -- elements -----------------------------------------------------
    def element(self, coords) -> Element:
        coords = tuple(self.F.coerce(x) for x in coords)
        if len(coords) != self.dim:
            raise ShapeMismatch(f"expected {self.dim} coordinates")
        return Element(self, coords)

    def basis_element(self, i) -> Element:
        coords = [self.F.zero] * self.dim
        coords[i] = self.F.one
        return Element(self, tuple(coords))

    def zero(self):
        return Element(self, (self.F.zero,) * self.dim)

    def add(self, a, b):
        f = self.F
        return Element(self, tuple(f.add(x, y) for x, y in zip(a.data, b.data)))

    def neg(self, a):
        f = self.F
        return Element(self, tuple(f.neg(x) for x in a.data))

    def mul(self, a, b):
        return Element(self, self.mul_coords(a.data, b.data))

    def mul_coords(self, x, y):
        """x·y on coordinate tuples: the bilinear extension of the structure
        constants, computed by the field backend on the algebra's integer
        product table (``linalg``)."""
        return self.F.mul_coords(self, x, y)

    def scalar_mul(self, s, a):
        f = self.F
        s = f.coerce(s)
        return Element(self, tuple(f.mul(s, x) for x in a.data))

    def is_zero(self, a):
        return not any(a.data)

    # -- structure ----------------------------------------------------
    def size(self):
        return self.F.size(self.dim)

    def products_vanish(self):
        return self.F.products_vanish(self)

    def simplicity(self):
        return self.F.simplicity(self)

    def is_walked(self, cap):
        return self.size() is not None and self.size() <= cap

    def spanning_elements(self):
        return [self.basis_element(i) for i in range(self.dim)]

    def element_blocks(self, cap=DEFAULT_ELEMENT_CAP):
        return self.F.element_blocks(self.F.eye(self.dim), cap)

    def block_elements(self, block):
        return [Element(self, tuple(row)) for row in block.tolist()]

    def block_nonzero(self, block):
        return block.any(axis=1)

    def block_commutators(self, block, b):
        return self.F.reduce(block @ self.F.commutators(self, [b.data]))

    # -- operators: matrices on coordinate rows -----------------------
    def coerce_operator(self, op):
        return self.F.reduce(op)

    def scalar_operator(self, k):
        return self.F.reduce(k * np.eye(self.dim, dtype=np.int64))

    def apply_operators(self, ops, x):
        return self.F.matmul(x, ops)

    def compose_operators(self, G, H):
        return self.F.matmul(H, G)

    def equal_operators(self, A, B):
        return self.F.equal(A, B).all(axis=(-2, -1))

    def operator_bijective(self, op):
        return op.shape[0] == op.shape[1] and self.F.rank(op, op.shape[1]) == op.shape[0]

    def operator_additive(self, op, target):
        return None

    def product_failures(self, ops, target, anti):
        # over Q on integer rows, with no Fraction made or compared
        return self.F.product_failures(self, target, ops, anti)

    def is_unit(self, a):
        """One x with a·x = 1 and x·a = 1: both linear systems stacked."""
        unit = self.probe_properties().unit
        if unit is None:
            return False
        L, R = self.F.mult_matrices(self, a.data)       # rows a·e_j and e_i·a
        return self.F.solve(np.vstack([L.T, R.T]), self.F.array(unit.data + unit.data)) is not None

    def associates_and_commutes(self, a):
        return self.F.associates_and_commutes(self, a.data)

    def _probe(self):
        # basis triples and pairs suffice by multilinearity
        assoc_wit = self._basis_elements(self.F.associator_witness(self))
        comm_wit = self._basis_elements(self.F.commutator_witness(self))
        unit = self.find_unit()
        return PropertyReport(assoc_wit is None, assoc_wit, comm_wit is None, comm_wit,
                              unit is not None, unit, self.size())

    def _basis_elements(self, indices):
        """The basis elements at ``indices``, or None when there are none."""
        return None if indices is None else tuple(self.basis_element(i) for i in indices)

    def find_unit(self):
        """The two-sided unit, or None: one linear solve on the field
        backend (:meth:`ringlab.linalg.ModP.unit`, or over Q on the
        integer product table)."""
        e = self.F.unit(self)
        return None if e is None else Element(self, self.F.coords(e))

    def opposite(self):
        return StructureAlgebra(self.F, self.dim,
                                self.constants.transpose(1, 0, 2).copy())


def make_structure_algebra(dim, field, constants) -> StructureAlgebra:
    """Build a structure-constant algebra; any d x d x d constants are legal."""
    return StructureAlgebra(field, dim, constants)


def ring_of(built):
    """The ring a built object carries: the object itself when it is a ring,
    else its ``ring`` (None for a Cayley tower or Ore data, which carry
    several rings or a base ring only)."""
    return built if isinstance(built, Ring) else getattr(built, "ring", None)


def require_ring(ring):
    """``ring``, or NotARing naming what it is, say a built construction."""
    if not isinstance(ring, Ring):
        hint = "; pass its .ring" if hasattr(ring, "ring") else ""
        raise NotARing(f"expected a ring, got a {type(ring).__name__}{hint}")
    return ring


def probe_properties(ring: Ring) -> PropertyReport:
    return require_ring(ring).probe_properties()


def opposite(ring: Ring) -> Ring:
    return require_ring(ring).opposite()


def enumerate_elements(ring: Ring, cap=DEFAULT_ELEMENT_CAP):
    return require_ring(ring).enumerate_elements(cap)


def index_blocks(indices):
    """Element indices of a table ring, as blocks of at most BLOCK_ROWS."""
    indices = np.asarray(indices, dtype=np.int64)
    return (indices[i:i + linalg.BLOCK_ROWS]
            for i in range(0, len(indices), linalg.BLOCK_ROWS))


# ---------------------------------------------------------------------------
# stock algebras used throughout
# ---------------------------------------------------------------------------

def field_algebra(domain) -> StructureAlgebra:
    """The scalar field itself, as a 1-dimensional algebra."""
    return StructureAlgebra(domain, 1, [[[domain.one]]])


_IRREDUCIBLE = {
    # q -> coefficients of a monic irreducible polynomial, constant term first
    4: (1, 1),        # t^2 + t + 1 over F_2
    8: (1, 1, 0),     # t^3 + t + 1 over F_2
    9: (1, 0),        # t^2 + 1 over F_3
    27: (1, 2, 0),    # t^3 + 2t + 1 over F_3
    25: (2, 1),       # t^2 + t + 2 over F_5
}


def gf_extension(q: int):
    """GF(q) for prime-power q, as an algebra over its prime field.

    Returns (algebra, frobenius) where frobenius is the matrix of x -> x^p
    on the power basis 1, t, ..., t^(k-1), rows indexed by input basis.
    """
    p = next((c for c in (2, 3, 5, 7, 11, 13) if q % c == 0), None)
    k = round(log(q, p)) if p and q else 0
    if p is None or p ** k != q:
        raise ValueError(f"{q} is not a small prime power")
    dom = GF(p)
    if k == 1:
        alg = field_algebra(dom)
        return alg, np.eye(1, dtype=np.int64)
    if q not in _IRREDUCIBLE:
        raise ValueError(f"no stock irreducible polynomial for GF({q})")
    low = _IRREDUCIBLE[q]  # t^k = -(low[0] + low[1] t + ...)
    red = [(-c) % p for c in low]

    def reduce_poly(coeffs):
        coeffs = list(coeffs)
        while len(coeffs) > k:
            top = coeffs.pop()
            if top:
                for i, c in enumerate(red):
                    coeffs[len(coeffs) - k + i] = (coeffs[len(coeffs) - k + i] + top * c) % p
        return [c % p for c in coeffs] + [0] * (k - len(coeffs))

    C = np.zeros((k, k, k), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            prod = [0] * (i + j) + [1]
            C[i, j, :] = reduce_poly(prod)
    alg = StructureAlgebra(dom, k, C)
    frob = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        prod = [0] * (i * p) + [1]
        frob[i, :] = reduce_poly(prod)
    return alg, frob


def truncated_polynomial_ring(p: int, k: int) -> StructureAlgebra:
    """F_p[y]/(y^k) on the basis 1, y, ..., y^(k-1)."""
    C = np.zeros((k, k, k), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            if i + j < k:
                C[i, j, i + j] = 1
    return StructureAlgebra(GF(p), k, C)


def full_matrix_algebra(n: int, domain) -> StructureAlgebra:
    """M_n over a field, on the matrix-unit basis E_11, E_12, ..., E_nn."""
    d = n * n

    def idx(i, j):
        return i * n + j

    C = np.zeros((d, d, d), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            for l in range(n):
                C[idx(i, j), idx(j, l), idx(i, l)] = 1
    return StructureAlgebra(domain, d, C)


def direct_sum_algebra(factors):
    """Direct product of structure algebras over one field.

    The result remembers the factor slices (``product_factors``) so that
    structural shortcuts (e.g. ideals of a product of fields) stay available.
    TooLarge when d³ passes ``CONSTANTS_CAP``, before anything is allocated.
    """
    field = factors[0].F
    if any(f.F != field for f in factors):
        raise ShapeMismatch("factors must share the scalar field")
    dims = [f.dim for f in factors]
    d = sum(dims)
    if d ** 3 > CONSTANTS_CAP:
        raise TooLarge(f"direct sum would have {d ** 3} structure constants, "
                       f"past the cap {CONSTANTS_CAP}")
    offs = np.cumsum([0] + dims)
    C = factors[0].F.zeros((d, d, d))
    for t, f in enumerate(factors):
        o = offs[t]
        k = f.dim
        C[o:o + k, o:o + k, o:o + k] = f.constants
    alg = StructureAlgebra(field, d, C)
    alg.product_factors = tuple((int(offs[t]), f.dim) for t, f in enumerate(factors))
    return alg


def functions_ring(npoints: int, domain) -> StructureAlgebra:
    """Functions from an npoints set to a field, with pointwise operations."""
    return direct_sum_algebra([field_algebra(domain)] * npoints)


def convert_to_table(alg: StructureAlgebra, cap=TABLE_SIZE_CAP) -> TableRing:
    """Materialize an F_p structure algebra as a table ring (never over Q),
    on its elements in ``element_blocks`` (``itertools.product``) order."""
    digits = np.concatenate(list(alg.element_blocks(cap)))
    p, total = alg.F.p, len(digits)
    weights = p ** np.arange(alg.dim - 1, -1, -1, dtype=np.int64)

    def to_index(mat):
        return (np.asarray(mat) % p) @ weights

    add = to_index(digits[:, None, :] + digits[None, :, :]).astype(np.int32)
    mul = np.zeros((total, total), dtype=np.int32)
    C = alg.constants
    for a in range(total):
        # row a: (x_a · x_b)_k = sum_ij x_a[i] x_b[j] C[i,j,k]
        left = np.tensordot(digits[a], C, axes=(0, 0))  # (j, k)
        mul[a] = to_index(digits @ left)
    return TableRing(add, mul, 0, _validated=True)
