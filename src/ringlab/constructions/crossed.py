"""Crossed products over finite categories.

A crossed system assigns a unital base ring B_e to every object, a ring map
(or anti-map) sigma_g: B_d(g) -> B_c(g) to every morphism, a unit alpha_g,h
of B_c(g) to every composable pair, and a per-pair multiplication twist
(straight or opposite).  The crossed product lives on ⊕_g B_c(g)·u_g with

    (a u_g)(b u_h) = (a *_g,h sigma_g(b)) alpha_g,h  u_gh

on composable pairs and zero otherwise.  The canonical grading has
A_g = B_c(g)·u_g and is locally unital with 1_{A_e} = 1_{B_e} u_e.

A ``RingMap`` takes one operator, whose kind its source ring fixes: an
index table on a table ring, a matrix acting on coordinate rows on a
structure algebra.

``CrossedProduct.offsets`` places each block B_c(g)·u_g.  Over structure
algebras the blocks are consecutive coordinate ranges and the offset is
the first coordinate of u_g's block.  Over table rings an element is a
mixed-radix number with one digit per morphism, the index of its
component in B_c(g): the offset is that digit's radix weight, so the
digit of x at g is x // offsets[g] % |B_c(g)|, and b·u_g is the ring's
zero with its g digit moved from the zero of B_c(g) to b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..categories import FiniteCategory
from ..errors import ShapeMismatch, TooLarge, ValidationFailure
from ..gradings import GradedRing, Grading
from ..ideals import IdealBasis, Subring, first_stable_ideal, is_stable
from ..rings import (DEFAULT_ELEMENT_CAP, TABLE_SIZE_CAP, Element, Ring,
                     StructureAlgebra, TableRing)
from ..subgroups import Subspace, TableSubgroup

# entries of a crossed product's tables built at once (see _crossed_table)
TABLE_SLAB = 1 << 16


class RingMap:
    """An extensional additive map between rings, possibly anti-multiplicative.

    ``operator`` is the map's one operator, of the kind its source ring
    fixes: out of a table ring an index table (``perm``, the image of each
    index), out of a structure algebra a (source_dim x target_dim) matrix
    acting on coordinate rows (``matrix``).  The other of the two is None.
    """

    def __init__(self, source, target, operator, anti=False):
        self.source = source
        self.target = target
        self.anti = bool(anti)
        if source.is_table:
            self.perm, self.matrix = tuple(int(x) for x in operator), None
        else:
            self.perm, self.matrix = None, source.F.reduce(operator)

    @property
    def operator(self):
        """The matrix, or the index table: a map as
        :func:`ringlab.ideals.first_stable_ideal` takes it."""
        return self.matrix if self.perm is None else self.perm

    @classmethod
    def identity(cls, ring):
        if ring.is_table:
            return cls(ring, ring, range(ring.n))
        return cls(ring, ring, np.eye(ring.dim, dtype=np.int64))

    def apply(self, elt: Element) -> Element:
        if elt.ring is not self.source:
            raise ShapeMismatch("element is not in the map's source ring")
        if self.perm is not None:
            return self.target.element(self.perm[elt.data])
        return self.target.element(self.source.F.matmul(elt.data, self.matrix))

    def compose(self, other: "RingMap") -> "RingMap":
        """self ∘ other (apply ``other`` first)."""
        if other.target is not self.source:
            raise ShapeMismatch("maps do not compose")
        anti = self.anti != other.anti
        if self.perm is not None:
            perm = [self.perm[other.perm[i]] for i in range(other.source.n)]
            return RingMap(other.source, self.target, perm, anti=anti)
        return RingMap(other.source, self.target,
                       other.source.F.matmul(other.matrix, self.matrix), anti=anti)

    def equals(self, other: "RingMap") -> bool:
        if self.perm is not None:
            return other.perm is not None and self.perm == other.perm
        return (other.matrix is not None and self.matrix.shape == other.matrix.shape
                and bool(self.source.F.equal(self.matrix, other.matrix).all()))

    def is_identity(self):
        return self.source is self.target and self.equals(RingMap.identity(self.source))

    def is_bijective(self):
        if self.perm is not None:
            return sorted(self.perm) == list(range(self.source.n))
        if self.source.dim != self.target.dim:
            return False
        return self.source.F.rank(self.matrix, self.target.dim) == self.source.dim

    def is_additive(self):
        """m(a + b) = m(a) + m(b) for every pair (a matrix map always is)."""
        if self.perm is None:
            return True
        perm = np.asarray(self.perm)
        return bool(np.array_equal(perm[self.source.add_table],
                                   self.target.add_table[np.ix_(perm, perm)]))

    def first_product_failure(self):
        """The first pair (i, j), in row-major order, of spanning elements x
        (basis vectors, or every element of a table ring) with
        m(x_i x_j) != m(x_i) m(x_j), or m(x_j) m(x_i) when the map is anti;
        None when there is none.  The one-map case of
        :func:`_product_failures`.
        """
        return _product_failures([self])[0]


def _stack(maps):
    """The index tables (m, n) or the matrices (m, d, e) of maps of one kind
    and shape, as one array."""
    if maps[0].perm is not None:
        return np.array([m.perm for m in maps], dtype=np.int64)
    return np.array([m.matrix for m in maps])


def _product_failures(maps):
    """:meth:`RingMap.first_product_failure` of every map in ``maps``, which
    share their source, target, kind and anti flag, checked as one stack on
    every pair at once.

    For a table ring both sides are one fancy index of the stacked index
    tables on ``mul_table``; for an algebra the backend's
    ``product_failures`` compares them, on the stacked matrices (over Q
    as integer rows, with no Fraction made or compared).
    """
    S, T, stack = maps[0].source, maps[0].target, _stack(maps)
    if maps[0].perm is not None:
        left = stack[:, S.mul_table]
        right = T.mul_table[stack[:, :, None], stack[:, None, :]]
        bad = left != (right.transpose(0, 2, 1) if maps[0].anti else right)
    else:
        bad = S.F.product_failures(S, T, stack, maps[0].anti)
    n = bad.shape[1]
    bad = bad.reshape(len(maps), n * n)
    first = bad.argmax(axis=1).tolist()
    return [divmod(f, n) if bad[k, f] else None for k, f in enumerate(first)]


def _maps_to(maps, x: Element, y: Element):
    """Whether each map of ``maps`` (one source, target and kind) sends x to
    y: one index, or one product, of the stack."""
    stack = _stack(maps)
    if maps[0].perm is not None:
        return (stack[:, x.data] == y.data).tolist()
    F = x.ring.F
    return F.equal(F.matmul(F.array(x.data), stack), F.array(y.data)).all(axis=1).tolist()


def _compositions_agree(maps_g, maps_h, maps_gh):
    """For composable stacks (sigma_h's target is sigma_g's source, each
    stack of one kind and shape): whether sigma_g ∘ sigma_h equals sigma_gh,
    the anti flags included, per pair.  One composition of the stacks: a
    batched matmul of the matrices, or indexing the tables by the tables."""
    G, H, GH = _stack(maps_g), _stack(maps_h), _stack(maps_gh)
    if maps_g[0].perm is not None:
        equal = np.take_along_axis(G, H, axis=1) == GH
    else:
        F = maps_h[0].source.F
        equal = F.equal(F.matmul(H, G), GH)
    equal = equal.reshape(len(GH), -1).all(axis=1).tolist()
    return [eq and (g.anti != h.anti) == gh.anti
            for eq, g, h, gh in zip(equal, maps_g, maps_h, maps_gh)]


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

def _is_unit(ring, a: Element):
    """Two-sided invertibility of ``a`` (exact; works without associativity)."""
    unit = ring.probe_properties().unit
    if unit is None:
        return False
    if ring.is_table:
        # one x with a·x = 1 = x·a
        return bool(np.any((ring.mul_table[a.data] == unit.data)
                           & (ring.mul_table[:, a.data] == unit.data)))
    # one x with a·x = 1 and x·a = 1: stack both linear systems
    F = ring.F
    L, R = F.mult_matrices(ring, a.data)       # rows a·e_j and e_i·a
    return F.solve(np.vstack([L.T, R.T]), F.array(unit.data + unit.data)) is not None


def _associates_and_commutes(ring, a: Element) -> bool:
    """alpha(bc) = (b alpha)c = b(alpha c) = (bc)alpha on spanning pairs,
    and alpha b = b alpha on spanning elements, all pairs at once: on a
    table ring by indexing ``mul_table``, on an algebra by the backend's
    ``associates_and_commutes`` (over Q on integer rows, with no Fraction
    made or compared)."""
    if ring.is_algebra:
        return ring.F.associates_and_commutes(ring, a.data)
    mul, x = ring.mul_table, a.data
    if not np.array_equal(mul[x], mul[:, x]):
        return False
    sides = (mul[x][mul], mul[mul[:, x]], mul[:, mul[x]], mul[:, x][mul])
    return all(np.array_equal(sides[0], side) for side in sides[1:])


def _alpha_verdicts(ring, a: Element):
    """(a is a unit, a associates and commutes), decided once per base ring
    and alpha and kept on the ring, so every system over it shares them."""
    verdicts = ring._alpha_verdicts.get(a.data)
    if verdicts is None:
        verdicts = ring._alpha_verdicts[a.data] = (_is_unit(ring, a),
                                                   _associates_and_commutes(ring, a))
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
    time.  The sigmas that share their source, target, kind and anti flag
    are checked as one stack on every spanning pair at once
    (:func:`_product_failures`): contractions of the stacked matrices for
    an algebra, one fancy index of the stacked tables for a table ring; a
    failure's detail is the first failing pair in row-major order.  Their
    unit images are one product of the stack too.  Functoriality composes
    every composable pair at once, a stack per shape
    (:func:`_compositions_agree`).  Each (base ring, alpha) is checked for
    being a unit and for associating and commuting once per ring, whatever
    the system (``Ring._alpha_verdicts``), and every composable pair still
    gets its own two items.  A missing base ring is a failed item, and the
    checks that read the bases are then skipped.
    """
    cat = sys.cat
    report = []
    units = {}
    for e in cat.objects:
        if e not in sys.base:
            report.append((f"base ring at {e!r} present", False, None))
            continue
        props = sys.base[e].probe_properties()
        units[e] = props.unit
        report.append((f"base ring at {e!r} unital", props.unital, None))
    if len(units) < len(cat.objects):
        return report
    placed = [g for g in cat.morphisms
              if sys.sigma[g].source is sys.base[cat.dom[g]]
              and sys.sigma[g].target is sys.base[cat.cod[g]]]
    failures, preserved = {}, {}
    for group in _groups(placed, lambda g: (sys.sigma[g].source, sys.sigma[g].target,
                                            sys.sigma[g].anti, sys.sigma[g].perm is None)):
        maps = [sys.sigma[g] for g in group]
        failures.update(zip(group, _product_failures(maps)))
        u, v = units[cat.dom[group[0]]], units[cat.cod[group[0]]]
        if u is not None and v is not None:
            preserved.update(zip(group, _maps_to(maps, u, v)))
    for g in cat.morphisms:
        sg = sys.sigma[g]
        if g not in failures:
            report.append((f"sigma[{g!r}] endpoints", False, "wrong source/target"))
            continue
        if sg.perm is not None:
            report.append((f"sigma[{g!r}] additive", sg.is_additive(), None))
        bad = failures[g]
        witness = None if bad is None else tuple(sg.source.spanning_elements()[k] for k in bad)
        kind = "anti-multiplicative" if sg.anti else "multiplicative"
        report.append((f"sigma[{g!r}] {kind}", bad is None, witness))
        if g in preserved:
            report.append((f"sigma[{g!r}] unit-preserving", preserved[g], None))
    for e in cat.objects:
        ide = cat.identity[e]
        report.append((f"sigma at identity of {e!r} is the identity map",
                       sys.sigma[ide].is_identity(), None))
    pairs = cat.composable_pairs()
    alpha = {(g, h): sys.alpha_at(g, h) for g, h in pairs}
    for (g, h), a in alpha.items():
        is_unit, central = _alpha_verdicts(sys.base[cat.cod[g]], a)
        report.append((f"alpha[{g!r},{h!r}] unit", is_unit, a))
        report.append((f"alpha[{g!r},{h!r}] associates and commutes", central, a))
    for g in cat.morphisms:
        lc = cat.identity[cat.cod[g]]
        rc = cat.identity[cat.dom[g]]
        u = units[cat.cod[g]]
        norm_ok = (alpha[lc, g] == u) and (alpha[g, rc] == u)
        report.append((f"alpha normalized at {g!r}", norm_ok, None))
    # functoriality is reported, not enforced (twisted systems may bend it);
    # pairs whose maps do not compose, or differ in kind, fail it
    agree = dict.fromkeys(pairs, False)
    maps = {(g, h): (sys.sigma[g], sys.sigma[h], sys.sigma[cat.compose(g, h)])
            for g, h in pairs}
    composable = [(g, h) for (g, h), (sg, sh, sgh) in maps.items()
                  if sh.target is sg.source and sgh.source is sh.source
                  and sgh.target is sg.target
                  and (sg.perm is None) == (sh.perm is None) == (sgh.perm is None)]
    for group in _groups(composable, lambda gh: (maps[gh][1].source, maps[gh][1].target,
                                                 maps[gh][0].target,
                                                 maps[gh][0].perm is None)):
        stacks = zip(*(maps[gh] for gh in group))
        agree.update(zip(group, _compositions_agree(*stacks)))
    for (g, h) in pairs:
        report.append((f"functoriality at ({g!r},{h!r}) [warning only]", agree[(g, h)], None))
    return report


def _hard_failures(report):
    return [(name, wit) for name, ok, wit in report
            if not ok and "warning only" not in name]


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

    def base_subring(self) -> Subring:
        return self.grading.zero_part_subring()


def crossed_product(sys: CrossedSystem, validate=True, kind_tag="crossed_product",
                    notes=()) -> CrossedProduct:
    if validate:
        report = validate_crossed_system(sys)
        bad = _hard_failures(report)
        if bad:
            raise ValidationFailure(bad)
    cat = sys.cat
    bases = [sys.base[e] for e in cat.objects]
    if all(b.is_algebra for b in bases):
        return _crossed_algebra(sys, kind_tag, notes)
    if all(b.is_table for b in bases):
        return _crossed_table(sys, kind_tag, notes)
    raise ShapeMismatch("base rings must all be table rings or all algebras")


def _crossed_algebra(sys, kind_tag, notes):
    """The crossed product of structure algebras, block (g, h) of its
    constants at rows u_g, columns u_h and depth u_gh.

    A block depends on g, the pair's twist and its alpha only, and the
    blocks of every sigma_g sharing the base at c(g), the twist and the
    alpha are one stack for the backend's ``twisted_blocks``.  Each
    component is a slice of identity rows, so its span is built with its
    pivots, without a row reduction.
    """
    cat = sys.cat
    F = sys.base[cat.objects[0]].F
    if any(sys.base[e].F != F for e in cat.objects):
        raise ShapeMismatch("base rings must share the scalar field")
    offsets, dims = {}, {}
    at = 0
    for g in cat.morphisms:
        B = sys.base[cat.cod[g]]
        offsets[g] = at
        dims[g] = B.dim
        at += B.dim
    total = at
    C = F.zeros((total, total, total))
    # block (g, h): e_i u_g · e_j u_h = (e_i *_g,h sigma_g(e_j)) alpha u_gh,
    # the rows of sigma_g's matrix being the sigma_g(e_j)
    keys = {(g, h): (g, sys.twist_at(g, h), sys.alpha_at(g, h).data)
            for g, h in cat.composable_pairs()}
    blocks = {}
    for group in _groups(dict.fromkeys(keys.values()),
                         lambda k: (sys.base[cat.cod[k[0]]], k[1], k[2],
                                    sys.sigma[k[0]].matrix.shape)):
        g, twist, alpha = group[0]
        stack = np.array([sys.sigma[k[0]].matrix for k in group])
        blocks.update(zip(group, F.twisted_blocks(sys.base[cat.cod[g]], stack, alpha,
                                                  twist == "opposite")))
    for (g, h), key in keys.items():
        og, oh, ogh = offsets[g], offsets[h], offsets[cat.compose(g, h)]
        C[og:og + dims[g], oh:oh + dims[h], ogh:ogh + dims[g]] = blocks[key]
    A = StructureAlgebra(F, total, C)
    eye = F.eye(total)
    components = {g: Subspace(A, eye[offsets[g]:offsets[g] + dims[g]],
                              range(offsets[g], offsets[g] + dims[g]))
                  for g in cat.morphisms}
    grading = Grading(A, cat, components)
    return CrossedProduct(A, grading, sys, kind_tag, offsets, tuple(notes))


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
        perm = np.asarray(sys.sigma[g].perm)
        skewed = mul[perm].T if sys.twist_at(g, h) == "opposite" else mul[:, perm]
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
    ring automorphisms."""
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
    # every pair composed at once; an anti map already fails above
    pairs = G.composable_pairs()
    agree = _compositions_agree(*zip(*((maps[g], maps[h], maps[G.compose(g, h)])
                                       for g, h in pairs)))
    problems += [f"action fails at ({g!r},{h!r})" for (g, h), ok in zip(pairs, agree) if not ok]
    if problems:
        raise ValidationFailure(problems)
    sys = CrossedSystem(G, {e: B}, maps, name=name or f"{G.name}-skew group ring")
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
                unit = B.probe_properties().unit
                val = B.scalar_mul(val, unit) if B.is_algebra else _int_times(B, val, unit)
            table[(g, h)] = val
    sys = CrossedSystem(G, {e: B}, maps, alpha=table,
                        name=name or f"{G.name}-twisted group ring")
    return crossed_product(sys, kind_tag="twisted_group_ring")


def _int_times(B, k, unit):
    acc = B.zero()
    step = unit if k >= 0 else -unit
    for _ in range(abs(int(k))):
        acc = acc + step
    return acc


# ---------------------------------------------------------------------------
# G-invariance for ideals of the base
# ---------------------------------------------------------------------------

def is_G_invariant(cp: CrossedProduct, I: IdealBasis) -> bool:
    """sigma_g(I_d(g)) ⊆ I_c(g) for every morphism, I an ideal of the base:
    I is stable under the action maps (:func:`ringlab.ideals.is_stable`)."""
    B = I.of_subring if I.of_subring is not None else cp.base_subring()
    return is_stable(I.span, _action_maps(cp, B))


def _action_maps(cp: CrossedProduct, B: Subring):
    """x ↦ embed_c(g) sigma_g(x_d(g)) on the ambient ring, one per
    morphism, for x_e the u_e component of x: a matrix on coordinate rows
    for an algebra, an index array (read only on the base B) for a table
    ring, where x_e is one digit of x.  An ideal I of B splits into its
    components because the bases are unital, so this maps I into I exactly
    when sigma_g(I_d(g)) ⊆ I_c(g) (:func:`is_G_invariant`)."""
    A, cat, sys = cp.ring, cp.system.cat, cp.system
    maps = []
    for g in cat.morphisms:
        e, f = cat.identity[cat.dom[g]], cat.identity[cat.cod[g]]
        sigma = sys.sigma[g]
        if A.is_algebra:
            S = sigma.matrix
            M = A.F.zeros((A.dim, A.dim))
            M[cp.offsets[e]:cp.offsets[e] + S.shape[0],
              cp.offsets[f]:cp.offsets[f] + S.shape[1]] = S
        else:
            xs = np.fromiter(B.span.members, dtype=np.int64)
            digits = xs // cp.offsets[e] % sigma.source.n
            M = np.zeros(A.n, dtype=np.int64)
            M[xs] = A.zero_index + cp.offsets[f] * (
                np.asarray(sigma.perm)[digits] - sigma.target.zero_index)
        maps.append(M)
    return maps


def is_G_simple(cp: CrossedProduct, cap=None):
    """No nontrivial G-invariant ideal of the base; returns (bool, witness).

    Norton's test on the base's multiplications and the action decides
    first, at any size over F_p (:func:`ringlab.ideals.first_stable_ideal`),
    and the bool is its answer.  Within ``cap`` the witness is the first
    G-invariant ideal in the order of ``enumerate_subring_ideals``, the
    least stable closure of a line of the base, found on the first read of
    its span (a caller that reads only the bool walks no line); past it,
    the invariant ideal the test found.  The ideal lattice is not
    enumerated."""
    B = cp.base_subring()
    I = first_stable_ideal(cp.ring, B, _action_maps(cp, B), cap=cap or DEFAULT_ELEMENT_CAP)
    return I is None, I
