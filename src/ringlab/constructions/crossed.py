"""Crossed products over finite categories.

A crossed system assigns a unital base ring B_e to every object, a ring map
(or anti-map) sigma_g: B_d(g) -> B_c(g) to every morphism, a unit alpha_g,h
of B_c(g) to every composable pair, and a per-pair multiplication twist
(straight or opposite).  The crossed product lives on ⊕_g B_c(g)·u_g with

    (a u_g)(b u_h) = (a *_g,h sigma_g(b)) alpha_g,h  u_gh

on composable pairs and zero otherwise.  The canonical grading has
A_g = B_c(g)·u_g and is locally unital with 1_{A_e} = 1_{B_e} u_e.

A ``RingMap`` holds one operator, an index array out of a table ring or a
matrix out of an algebra, and asks its source ring every question about it,
so validation and the constructions are written once for both.

``CrossedProduct.offsets`` places each block B_c(g)·u_g.  Over structure
algebras the blocks are consecutive coordinate ranges and the offset is
the first coordinate of u_g's block.  Over table rings an element is a
mixed-radix number with one digit per morphism, the index of its
component in B_c(g): the offset is that digit's radix weight, so the
digit of x at g is x // offsets[g] % |B_c(g)|, and b·u_g is the ring's
zero with its g digit moved from the zero of B_c(g) to b.  That layout is
read in two places side by side: ``CrossedProduct.embed`` and
``CrossedProduct.block_operator``.

Functoriality, sigma_g ∘ sigma_h = sigma_gh, is one check on one system
(``_functoriality``), computed only where it is read: a warning of
``validate_crossed_system``, and a requirement of ``skew_group_ring`` and
``matrices.matrix_ring``.  Building a crossed product does not compute it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ..categories import FiniteCategory
from ..errors import ShapeMismatch, TooLarge, ValidationFailure
from ..gradings import GradedRing, Grading
from ..ideals import IdealBasis, Subring, Verdict, first_stable_ideal
from ..rings import (CONSTANTS_CAP, DEFAULT_ELEMENT_CAP, TABLE_SIZE_CAP, Element,
                     Ring, StructureAlgebra, TableRing)
from ..subgroups import Subspace, TableSubgroup

# entries of a crossed product's tables built at once (see _crossed_table)
TABLE_SLAB = 1 << 16


class RingMap:
    """An extensional additive map between rings, possibly anti-multiplicative.

    ``operator`` is the map's one operator, of the kind its source ring
    fixes: an int64 index array (the image of each index) out of a table
    ring, a reduced (source_dim x target_dim) matrix acting on coordinate
    rows out of a structure algebra.  The source ring answers every
    question that depends on the kind (``rings.Ring``'s operators).
    """

    def __init__(self, source, target, operator, anti=False):
        self.source = source
        self.target = target
        self.anti = bool(anti)
        self.operator = source.coerce_operator(operator)

    @classmethod
    def identity(cls, ring):
        return cls(ring, ring, ring.scalar_operator(1))

    def apply(self, elt: Element) -> Element:
        if elt.ring is not self.source:
            raise ShapeMismatch("element is not in the map's source ring")
        return self.target.element(self.source.apply_operators(self.operator, elt.data))

    def compose(self, other: "RingMap") -> "RingMap":
        """self ∘ other (apply ``other`` first)."""
        if other.target is not self.source:
            raise ShapeMismatch("maps do not compose")
        return RingMap(other.source, self.target,
                       other.source.compose_operators(self.operator, other.operator),
                       anti=self.anti != other.anti)

    def equals(self, other: "RingMap") -> bool:
        return (self.operator.shape == other.operator.shape
                and bool(self.source.equal_operators(self.operator, other.operator)))

    def is_identity(self):
        return _identities([self])[0]

    def is_bijective(self):
        return self.source.operator_bijective(self.operator)

    def additivity(self):
        """m(a + b) = m(a) + m(b) on every pair, or None when there is
        nothing to check (a matrix map is additive)."""
        return self.source.operator_additive(self.operator, self.target)

    def first_product_failure(self):
        """The first pair (i, j), in row-major order, of spanning elements x
        (basis vectors, or every element of a table ring) with
        m(x_i x_j) != m(x_i) m(x_j), or m(x_j) m(x_i) when the map is anti;
        None when there is none.  The one-map case of
        :func:`_product_failures`.
        """
        return _product_failures([self])[0]


def _stack(maps):
    """The operators of maps of one source and shape, as one array."""
    return np.array([m.operator for m in maps])


def _product_failures(maps):
    """:meth:`RingMap.first_product_failure` of every map in ``maps``, which
    share their source, target, shape and anti flag, checked as one stack
    on every pair at once (the source ring's ``product_failures``)."""
    S, T = maps[0].source, maps[0].target
    bad = S.product_failures(_stack(maps), T, maps[0].anti)
    n = bad.shape[1]
    bad = bad.reshape(len(maps), n * n)
    first = bad.argmax(axis=1).tolist()
    return [divmod(f, n) if bad[k, f] else None for k, f in enumerate(first)]


def _maps_to(maps, x: Element, y: Element):
    """Whether each map of ``maps`` (one source, target and shape) sends x
    to y: the images of the block [x] are compared with [y] as operators."""
    images = x.ring.apply_operators(_stack(maps), [x.data])
    return y.ring.equal_operators(images, [y.data]).tolist()


@dataclass
class CrossedSystem:
    cat: FiniteCategory
    base: dict                       # object -> unital Ring
    sigma: dict                      # morphism -> RingMap
    alpha: dict = field(default_factory=dict)    # (g,h) -> Element of B_c(g)
    twists: dict = field(default_factory=dict)   # (g,h) -> "straight"|"opposite"
    name: str = "crossed product"

    def alpha_at(self, g, h):
        a = self.alpha.get((g, h))
        if a is not None:
            return a
        Bc = self.base[self.cat.cod[g]]
        unit = Bc.probe_properties().unit
        if unit is None:
            raise ValidationFailure([f"base ring at {self.cat.cod[g]!r} has no unit"])
        return unit

    def twist_at(self, g, h):
        return self.twists.get((g, h), "straight")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _alpha_verdicts(ring, a: Element):
    """(a is a unit, a associates and commutes), decided once per base ring
    and alpha and kept on the ring, so every system over it shares them."""
    verdicts = ring._alpha_verdicts.get(a.data)
    if verdicts is None:
        verdicts = ring._alpha_verdicts[a.data] = (ring.is_unit(a),
                                                   ring.associates_and_commutes(a))
    return verdicts


def _groups(items, key):
    """``items`` split by ``key``, each group in the order of ``items``."""
    groups = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return groups.values()


def validate_crossed_system(sys: CrossedSystem):
    """Itemized validation; returns a list of (check, ok, detail) triples.

    No identity is checked one element product at a time, or one map at a
    time.  The sigmas that share their source, target, shape and anti flag
    are checked as one stack on every spanning pair at once
    (:func:`_product_failures`): contractions of the stacked matrices for
    an algebra, one fancy index of the stacked tables for a table ring; a
    failure's detail is the first failing pair in row-major order.  Their
    unit images are one product of the stack too, and so is the check that
    the identity morphisms act as identities (:func:`_identities`).  Each
    (base ring, alpha) is checked for being a unit and for associating and
    commuting once per ring, whatever the system (``Ring._alpha_verdicts``),
    and every composable pair still gets its own two items.  These are the
    one-system items of :func:`_validation_items`.  After them come the
    functoriality items, one per composable pair, which are warnings
    (:func:`_functoriality`).  A missing base ring is a failed item, and
    the checks that read the bases, functoriality included, are then
    skipped.
    """
    items = [(name.format(*args), ok, detail)
             for name, args, ok, detail in _validation_items([sys])[0]]
    if all(e in sys.base for e in sys.cat.objects):
        items += [(f"functoriality at ({g!r},{h!r}) [warning only]", ok, None)
                  for (g, h), ok in zip(sys.cat.composable_pairs(), _functoriality(sys))]
    return items


def _validation_items(systems):
    """The items of :func:`validate_crossed_system` but its functoriality
    warnings, for each of ``systems``, which share their category and base
    ring objects, as (format string, arguments, ok, detail), so that a
    check's name is formatted only when it is read: building a crossed
    product reads the failures alone, and each one fails the build.

    The checks run once for all the systems: every system's sigmas that
    share source, target, shape and anti flag are one stack for
    :func:`_product_failures` and :func:`_maps_to`, and their identity maps
    one stack per class (:func:`_map_class`, :func:`_identities`).
    """
    first = systems[0]
    cat, base = first.cat, first.base
    head, units = [], {}
    for e in cat.objects:
        if e not in base:
            head.append(("base ring at {!r} present", (e,), False, None))
            continue
        props = base[e].probe_properties()
        units[e] = props.unit
        head.append(("base ring at {!r} unital", (e,), props.unital, None))
    if len(units) < len(cat.objects):
        return [list(head) for _ in systems]
    placed = [(k, g) for k, sys in enumerate(systems) for g in cat.morphisms
              if sys.sigma[g].source is base[cat.dom[g]]
              and sys.sigma[g].target is base[cat.cod[g]]]
    failures, preserved = {}, {}
    for group in _groups(placed, lambda kg: _map_class(systems[kg[0]].sigma[kg[1]])
                         + (systems[kg[0]].sigma[kg[1]].anti,)):
        maps = [systems[k].sigma[g] for k, g in group]
        failures.update(zip(group, _product_failures(maps)))
        g = group[0][1]
        u, v = units[cat.dom[g]], units[cat.cod[g]]
        if u is not None and v is not None:
            preserved.update(zip(group, _maps_to(maps, u, v)))
    identities = {}
    at_objects = [(k, e) for k in range(len(systems)) for e in cat.objects]
    for group in _groups(at_objects, lambda ke: _map_class(
            systems[ke[0]].sigma[cat.identity[ke[1]]])):
        maps = [systems[k].sigma[cat.identity[e]] for k, e in group]
        identities.update(zip(group, _identities(maps)))
    pairs = cat.composable_pairs()
    at_cod = [base[cat.cod[g]] for g, _ in pairs]
    normal = [(g, (cat.identity[cat.cod[g]], g), (g, cat.identity[cat.dom[g]]),
               units[cat.cod[g]]) for g in cat.morphisms]
    out = []
    for k, sys in enumerate(systems):
        items = list(head)
        for g in cat.morphisms:
            sg = sys.sigma[g]
            if (k, g) not in failures:
                items.append(("sigma[{!r}] endpoints", (g,), False, "wrong source/target"))
                continue
            additive = sg.additivity()
            if additive is not None:
                items.append(("sigma[{!r}] additive", (g,), additive, None))
            bad = failures[k, g]
            witness = None if bad is None else tuple(sg.source.spanning_elements()[i]
                                                     for i in bad)
            kind = "anti-multiplicative" if sg.anti else "multiplicative"
            items.append(("sigma[{!r}] {}", (g, kind), bad is None, witness))
            if (k, g) in preserved:
                items.append(("sigma[{!r}] unit-preserving", (g,), preserved[k, g], None))
        items += [("sigma at identity of {!r} is the identity map", (e,), identities[k, e], None)
                  for e in cat.objects]
        alpha = {gh: sys.alpha_at(*gh) for gh in pairs}
        for gh, B, a in zip(pairs, at_cod, alpha.values()):
            is_unit, central = _alpha_verdicts(B, a)
            items += (("alpha[{!r},{!r}] unit", gh, is_unit, a),
                      ("alpha[{!r},{!r}] associates and commutes", gh, central, a))
        items += [("alpha normalized at {!r}", (g,), alpha[left] == u and alpha[right] == u,
                   None) for g, left, right, u in normal]
        out.append(items)
    return out


def _map_class(m):
    """What maps stacked as one array share: source, target and operator
    shape."""
    return m.source, m.target, m.operator.shape


def _identities(maps):
    """:meth:`RingMap.is_identity` of each map of ``maps``, which share
    their source, target and shape: one comparison of the stacked
    operators with the identity's."""
    m = maps[0]
    S = m.source
    identity = S.scalar_operator(1)
    if m.target is not S or m.operator.shape != identity.shape:
        return [False] * len(maps)
    return S.equal_operators(_stack(maps), identity).tolist()


def _functoriality(sys: CrossedSystem):
    """Whether sigma_g ∘ sigma_h = sigma_gh, the anti flags included, at
    each composable pair of the system's category, in order, read as
    :meth:`RingMap.compose` and :meth:`RingMap.equals` read it: a pair whose
    maps do not compose (sigma_h's target is not sigma_g's source), differ
    in kind (an index array has one axis, a matrix two), or whose composite
    differs from sigma_gh in shape fails.  The pairs whose three maps share
    their classes (:func:`_map_class`) are one composition of stacks, out
    of the source of sigma_h.

    Functoriality is computed only where it is read: reported, not
    enforced, by :func:`validate_crossed_system` (twisted systems may bend
    it), and enforced by :func:`skew_group_ring` and
    :func:`~ringlab.constructions.matrices.matrix_ring`.
    """
    cat, sigma = sys.cat, sys.sigma
    triples = [(sigma[g], sigma[h], sigma[cat.compose(g, h)]) for g, h in cat.composable_pairs()]
    agree = [False] * len(triples)
    for qs in _groups(range(len(triples)), lambda q: tuple(map(_map_class, triples[q]))):
        g, h, gh = zip(*(triples[q] for q in qs))
        S = h[0].source
        if h[0].target is not g[0].source or not (
                g[0].operator.ndim == h[0].operator.ndim == gh[0].operator.ndim):
            continue
        composed = S.compose_operators(_stack(g), _stack(h))
        if composed.shape[1:] != gh[0].operator.shape:
            continue
        equal = S.equal_operators(composed, _stack(gh)).tolist()
        for q, eq, a, b, c in zip(qs, equal, g, h, gh):
            agree[q] = eq and (a.anti != b.anti) == c.anti
    return agree


def _hard_failures(items):
    """(name, witness) of each failed item of :func:`_validation_items`."""
    return [(name.format(*args), wit) for name, args, ok, wit in items if not ok]


# ---------------------------------------------------------------------------
# the construction
# ---------------------------------------------------------------------------

@dataclass
class CrossedProduct(GradedRing):
    system: CrossedSystem
    kind_tag: str
    offsets: dict                    # morphism -> coordinate offset, or radix weight
    notes: tuple = ()

    def embed(self, g, b: Element) -> Element:
        """b·u_g for b in the base ring at c(g)."""
        A, off = self.ring, self.offsets[g]
        if A.is_algebra:
            coords = [A.F.zero] * A.dim
            coords[off:off + len(b.data)] = b.data
            return A.element(coords)
        base = self.system.base[self.system.cat.cod[g]]
        return A.element(A.zero_index + off * (b.data - base.zero_index))

    def block_operator(self, blocks):
        """x ↦ the sum of op(x_g)·u_h over the (g, h, op) of ``blocks``, for
        x_g the u_g component of x, op an operator B_c(g) -> B_c(h) and the
        h distinct, as an operator on the product: op placed at rows u_g and
        columns u_h of a matrix, or on a table ring each index's g digit
        sent through op into its h digit (see the module docstring)."""
        A, off, cod = self.ring, self.offsets, self.system.cat.cod
        if A.is_algebra:
            M = A.F.zeros((A.dim, A.dim))
            for g, h, op in blocks:
                M[off[g]:off[g] + op.shape[0], off[h]:off[h] + op.shape[1]] = op
            return M
        M = np.full(A.n, A.zero_index)
        for g, h, op in blocks:
            digits = np.arange(A.n) // off[g] % len(op)
            M += off[h] * (op[digits] - self.system.base[cod[h]].zero_index)
        return M

    def base_subring(self) -> Subring:
        return self.grading.zero_part_subring()

    @functools.cached_property
    def action_maps(self):
        """x ↦ sigma_g(x_d(g))·u_c(g) on the ambient ring, one operator per
        morphism (:meth:`block_operator`), for x_e the u_e component of x,
        built once per product.  An ideal I of the base B splits into its
        components because the bases are unital, so this maps I into I
        exactly when sigma_g(I_d(g)) ⊆ I_c(g) (:func:`is_G_invariant`)."""
        cat = self.system.cat
        return [self.block_operator([(cat.identity[cat.dom[g]], cat.identity[cat.cod[g]],
                                      self.system.sigma[g].operator)]) for g in cat.morphisms]


def crossed_product(sys: CrossedSystem, validate=True, kind_tag="crossed_product",
                    notes=()) -> CrossedProduct:
    """The crossed product of one system: the one-system call of
    :func:`crossed_products`."""
    return crossed_products([sys], kind_tag, notes, validate)[0]


def crossed_products(systems, kind_tag="crossed_product", notes=(),
                     validate=True) -> list:
    """The crossed products of ``systems``, which share their category and
    their base ring objects, in order, built together.

    Over structure algebras the budget comes first: a product of dimension
    d with d³ past ``rings.CONSTANTS_CAP`` raises TooLarge before anything
    is allocated (:func:`_layout`).  Then the systems are validated
    together (:func:`_validation_items`, which leaves out the functoriality
    warnings), and the first system, in order, with a failed item raises
    the ValidationFailure it raises alone.  Over structure algebras the
    constants of all the systems are built as stacks
    (:func:`_crossed_algebras`); over table rings each system is tabulated
    in turn (:func:`_crossed_table`).
    """
    systems = list(systems)
    if not systems:
        return []
    cat, base = systems[0].cat, systems[0].base
    if any(sys.cat is not cat or sys.base.keys() != base.keys()
           or any(sys.base[e] is not base[e] for e in base) for sys in systems):
        raise ShapeMismatch("stacked crossed systems must share their category and base rings")
    algebra = [base[e].is_algebra for e in cat.objects if e in base]
    if all(algebra) and len(algebra) == len(cat.objects):
        _layout(cat, tuple(base[cat.cod[g]].dim for g in cat.morphisms))
    if validate:
        for items in _validation_items(systems):
            bad = _hard_failures(items)
            if bad:
                raise ValidationFailure(bad)
    if all(algebra):
        return _crossed_algebras(systems, kind_tag, notes)
    if not any(algebra):
        return [_crossed_table(sys, kind_tag, notes) for sys in systems]
    raise ShapeMismatch("base rings must all be table rings or all algebras")


@functools.lru_cache(maxsize=64)
def _layout(cat, dims):
    """Where the blocks of a crossed product of algebras over ``cat`` go,
    for ``dims`` the dimension of B_c(g) of each morphism g in order:
    (offsets, total, positions, sizes, within).  u_g's block starts at
    coordinate offsets[g], of ``total``.  Block (g, h) of the constants,
    rows u_g, columns u_h and depth u_gh, has sizes[q] entries for q the
    pair's place in ``composable_pairs``, and ``positions`` holds the flat
    places in the d³ constants of every block's entries, block after block
    in row-major order, with ``within`` each entry's place in its block.
    TooLarge when d³ passes ``CONSTANTS_CAP``, before anything is
    allocated.  Cached per (category, base dimensions)."""
    total = sum(dims)
    if total ** 3 > CONSTANTS_CAP:
        raise TooLarge(f"crossed product would have {total ** 3} structure constants, "
                       f"past the cap {CONSTANTS_CAP}")
    at = {g: t for t, g in enumerate(cat.morphisms)}
    start, width = np.cumsum((0,) + dims[:-1]), np.array(dims)
    g, h, gh = np.array([(at[g], at[h], at[cat.compose(g, h)])
                         for g, h in cat.composable_pairs()]).reshape(-1, 3).T
    sizes = width[g] * width[h] * width[g]
    first = np.cumsum(sizes) - sizes
    positions = np.empty(sizes.sum(), dtype=np.int64)
    # the blocks of one shape (dim B_c(g), dim B_c(h)) at once
    for a, b in set(zip(width[g].tolist(), width[h].tolist())):
        q = np.flatnonzero((width[g] == a) & (width[h] == b))
        rows = start[g[q]][:, None, None, None] + np.arange(a)[:, None, None]
        columns = start[h[q]][:, None, None, None] + np.arange(b)[:, None]
        depth = start[gh[q]][:, None, None, None] + np.arange(a)
        positions[first[q][:, None] + np.arange(a * b * a)] = (
            (rows * total + columns) * total + depth).reshape(len(q), -1)
    within = np.arange(len(positions)) - np.repeat(first, sizes)
    offsets = dict(zip(cat.morphisms, start.tolist()))
    return offsets, total, positions, sizes, within


def _crossed_algebras(systems, kind_tag, notes):
    """The crossed products of structure algebras, block (g, h) of each
    one's constants at rows u_g, columns u_h and depth u_gh.

    A block depends on the system, g, the pair's twist and its alpha only,
    and the blocks of every system's sigma_g sharing the base at c(g), the
    twist and the alpha are one stack for the backend's ``twisted_blocks``.
    The constants of as many systems as ``CONSTANTS_CAP`` admits are one
    array, filled by one scatter of the blocks through the positions of
    :func:`_layout`.  Each component is a slice of identity rows, so its
    span is built with its pivots, without a row reduction.
    """
    cat, base = systems[0].cat, systems[0].base
    F = base[cat.objects[0]].F
    if any(base[e].F != F for e in cat.objects):
        raise ShapeMismatch("base rings must share the scalar field")
    dims = tuple(base[cat.cod[g]].dim for g in cat.morphisms)
    offsets, total, positions, sizes, within = _layout(cat, dims)
    spans = [(g, range(offsets[g], offsets[g] + dim)) for g, dim in zip(cat.morphisms, dims)]
    pairs = cat.composable_pairs()
    size = total ** 3
    per = CONSTANTS_CAP // size
    products = []
    for chunk in (systems[at:at + per] for at in range(0, len(systems), per)):
        # block (g, h): e_i u_g · e_j u_h = (e_i *_g,h sigma_g(e_j)) alpha u_gh,
        # the rows of sigma_g's matrix being the sigma_g(e_j)
        keys = [[(k, g, sys.twist_at(g, h), sys.alpha_at(g, h).data) for g, h in pairs]
                for k, sys in enumerate(chunk)]
        starts, blocks, filled = {}, [], 0
        for group in _groups(dict.fromkeys(key for row in keys for key in row),
                             lambda key: (base[cat.cod[key[1]]], key[2], key[3],
                                          chunk[key[0]].sigma[key[1]].operator.shape)):
            _, g, twist, alpha = group[0]
            stack = _stack([chunk[k].sigma[g] for k, g, _, _ in group])
            X = F.twisted_blocks(base[cat.cod[g]], stack, alpha, twist == "opposite")
            blocks.append(X.reshape(-1))
            starts.update(zip(group, range(filled, filled + X.size, X[0].size)))
            filled += X.size
        source = np.array([[starts[key] for key in row] for row in keys], dtype=np.int64)
        C = F.zeros((len(chunk), size))
        C[:, positions] = np.concatenate(blocks)[np.repeat(source, sizes, axis=1) + within]
        for sys, constants in zip(chunk, C):
            A = StructureAlgebra(F, total, constants.reshape(total, total, total))
            eye = F.eye(total)
            components = {g: Subspace(A, eye[r.start:r.stop], r) for g, r in spans}
            products.append(CrossedProduct(A, Grading(A, cat, components), sys, kind_tag,
                                           dict(offsets), tuple(notes)))
    return products


def _crossed_table(sys, kind_tag, notes):
    """The crossed product of table rings on mixed-radix numbers, one digit
    per morphism (see the module docstring); the radix weights are its
    ``offsets``.  Both tables are written into int32 arrays a slab of rows
    at a time, so no temporary is as large as a table."""
    cat = sys.cat
    mors = list(cat.morphisms)
    bases = [sys.base[cat.cod[g]] for g in mors]
    sizes = [B.n for B in bases]
    total = math.prod(sizes)
    if total > TABLE_SIZE_CAP:
        raise TooLarge(f"crossed product would have {total} elements")
    pos = {g: t for t, g in enumerate(mors)}
    weights = [math.prod(sizes[t + 1:]) for t in range(len(mors))]
    index = np.arange(total, dtype=np.int64)
    digits = np.stack([(index // w) % n for w, n in zip(weights, sizes)], axis=1)
    zeros = [B.zero_index for B in bases]
    # product table of each (g,h) block, twisted and skewed:
    # T[a, b] = (a *_g,h sigma_g(b)) alpha, filed under the digit of gh
    blocks = [[] for _ in mors]
    for (g, h) in cat.composable_pairs():
        mul = sys.base[cat.cod[g]].mul_table
        image = sys.sigma[g].operator
        skewed = mul[image].T if sys.twist_at(g, h) == "opposite" else mul[:, image]
        blocks[pos[cat.compose(g, h)]].append(
            (mul[skewed, sys.alpha_at(g, h).data], pos[g], pos[h]))
    add = np.empty((total, total), dtype=np.int32)
    mul = np.empty((total, total), dtype=np.int32)
    step = max(1, TABLE_SLAB // total)
    for r in range(0, total, step):
        rows = digits[r:r + step]
        add_rows = np.zeros((len(rows), total), dtype=np.int64)
        mul_rows = np.zeros((len(rows), total), dtype=np.int64)
        for t, B in enumerate(bases):
            add_rows += weights[t] * B.add_table[np.ix_(rows[:, t], digits[:, t])]
            acc = np.full((len(rows), total), zeros[t], dtype=np.int64)
            for T, tg, th in blocks[t]:
                acc = B.add_table.ravel()[acc * B.n + T[np.ix_(rows[:, tg], digits[:, th])]]
            mul_rows += weights[t] * acc
        add[r:r + step] = add_rows
        mul[r:r + step] = mul_rows
    zero_idx = sum(w * z for w, z in zip(weights, zeros))
    A = TableRing(add, mul, zero_idx, _validated=True)
    at_zero = digits == np.array(zeros)
    components = {g: TableSubgroup(A, np.flatnonzero(np.delete(at_zero, t, axis=1).all(axis=1)))
                  for t, g in enumerate(mors)}
    grading = Grading(A, cat, components)
    return CrossedProduct(A, grading, sys, kind_tag, dict(zip(mors, weights)), tuple(notes))


# ---------------------------------------------------------------------------
# specializations
# ---------------------------------------------------------------------------

def skew_group_ring(B: Ring, G: FiniteCategory, sigma: dict,
                    name=None) -> CrossedProduct:
    """Crossed product with trivial cocycle; sigma must be a group action by
    ring automorphisms: each map bijective and not anti, and every pair
    composing (:func:`_functoriality`), else a ValidationFailure names
    each fault."""
    if not G.is_group():
        raise ShapeMismatch("skew group rings need a group")
    e = G.objects[0]
    maps = {}
    for g in G.morphisms:
        sg = sigma[g]
        maps[g] = sg if isinstance(sg, RingMap) else RingMap(B, B, sg)
    problems = []
    for g in G.morphisms:
        if maps[g].anti or not maps[g].is_bijective():
            problems.append(f"sigma[{g!r}] is not an automorphism")
    sys = CrossedSystem(G, {e: B}, maps, name=name or f"{G.name}-skew group ring")
    # an anti map already fails above
    problems += [f"action fails at ({g!r},{h!r})"
                 for (g, h), ok in zip(G.composable_pairs(), _functoriality(sys)) if not ok]
    if problems:
        raise ValidationFailure(problems)
    return crossed_product(sys, kind_tag="skew_group_ring")


def twisted_group_ring(B: Ring, G: FiniteCategory, alpha,
                       name=None) -> CrossedProduct:
    """Crossed product with identity maps; ``alpha`` maps (g,h) to a central
    associating unit of B (callable or dict)."""
    if not G.is_group() or not G.is_abelian_group():
        raise ShapeMismatch("twisted group rings here need an abelian group")
    e = G.objects[0]
    maps = {g: RingMap.identity(B) for g in G.morphisms}
    table = {}
    for g in G.morphisms:
        for h in G.morphisms:
            val = alpha(g, h) if callable(alpha) else alpha[(g, h)]
            if not isinstance(val, Element):
                val = B.scalar_mul(val, B.probe_properties().unit)
            table[(g, h)] = val
    sys = CrossedSystem(G, {e: B}, maps, alpha=table,
                        name=name or f"{G.name}-twisted group ring")
    return crossed_product(sys, kind_tag="twisted_group_ring")


# ---------------------------------------------------------------------------
# G-invariance for ideals of the base
# ---------------------------------------------------------------------------

def is_G_invariant(cp: CrossedProduct, I: IdealBasis) -> bool:
    """sigma_g(I_d(g)) ⊆ I_c(g) for every morphism, I an ideal of the base:
    I is stable under the action maps (its span's ``is_stable``)."""
    return I.span.is_stable(cp.action_maps)


def is_G_simple(cp: CrossedProduct, cap=DEFAULT_ELEMENT_CAP) -> Verdict:
    """No nontrivial G-invariant ideal of the base: the verdict of
    :func:`ringlab.ideals.first_stable_ideal` on the base and the action
    maps, named "GSimple"/"NotGSimple".  Norton's test decides first, at
    any size over F_p.  Within ``cap`` the witness is the first G-invariant
    ideal in the order of ``enumerate_subring_ideals``, found on the first
    read of ``witness`` (reading only ``holds``, or ``deferred_witness``,
    walks no line); past it, the invariant ideal the test found."""
    verdict = first_stable_ideal(cp.ring, cp.base_subring(), cp.action_maps, cap=cap)
    verdict.names = ("GSimple", "NotGSimple")
    return verdict
