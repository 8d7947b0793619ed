"""Gradings of rings by finite categories, degree maps, and their checks.

A grading assigns to every morphism g an additive subgroup A_g such that
A = ⊕ A_g, with A_g·A_h inside A_{gh} on composable pairs and zero otherwise.
A_0 denotes the sum of the object components, a subring.  All predicates
work on spanning sets, which is exact by bilinearity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (CriterionDisagreement, FilterViolation, NotDirectSum,
                     PreconditionUnmet)
from .ideals import (DEFAULT_ELEMENT_CAP, IdealBasis, Subring, enumerate_ideals,
                     full_subring, is_A_invariant, is_simple, principal_ideal)
from .rings import Element, Ring
from .subgroups import (AddSubgroup, additive_span, commuting_span,
                        full_subgroup, product_span, zero_subgroup)


class Grading:
    """A validated decomposition A = ⊕_g A_g over a finite category.

    Every question about components is read off one kernel,
    :meth:`support_matrix`, which works on a whole block of elements (see
    ``Ring.element_blocks``).  For an algebra it multiplies the rows by the
    inverse of the stacked component bases, solved for on first use, and
    asks each component's slice of coefficients whether it is nonzero.  A
    table ring tabulates every element's decomposition at construction and
    indexes that table.
    """

    def __init__(self, ring, cat, components):
        self.ring = ring
        self.cat = cat
        self.components = dict(components)
        self.order = list(cat.morphisms)
        if ring.is_algebra:
            self._slices, at = [], 0
            for g in self.order:
                k = len(self.components[g].rows)
                self._slices.append(slice(at, at + k))
                at += k
            # solved for on the first call, so an undecomposed grading costs
            # no row reduction
            self._inverse = None
        else:
            self._parts = self._tabulate()
        self._vertex_units = None
        self._zero_part = None

    # -- decomposition --------------------------------------------------
    def _tabulate(self):
        """Table ring: row i holds the component indices summing to element i."""
        ring = self.ring
        lists = [sorted(self.components[g].members) for g in self.order]
        table = {}
        add = ring.add_table
        for combo in itertools.product(*lists):
            s = combo[0]
            for x in combo[1:]:
                s = int(add[s, x])
            table[s] = combo
        if len(table) != ring.n:
            raise NotDirectSum("components do not decompose every element uniquely")
        return np.array([table[i] for i in range(ring.n)], dtype=np.int64)

    @cached_property
    def _basis(self):
        """Algebra: the components' rows stacked in ``order``, built on the
        first decomposition."""
        rows = [row for g in self.order for row in self.components[g].rows]
        return self.ring.F.matrix(rows, self.ring.dim)

    def _coefficients(self, rows):
        """Algebra: coefficients c with c @ basis = row, one row per row."""
        F = self.ring.F
        if self._inverse is None:
            inverse = F.solve(self._basis.T, F.eye(self.ring.dim))
            if inverse is None:
                raise NotDirectSum("component bases do not span the ring")
            self._inverse = inverse.T
        return F.matmul(rows, self._inverse)

    def support_matrix(self, block):
        """Boolean matrix: entry (i, j) says whether element i of the block
        has a nonzero component at ``order[j]``.  ``block`` is a block of
        the ring or a list of element data."""
        if self.ring.is_table:
            return self._parts[np.asarray(block, dtype=np.int64)] != self.ring.zero_index
        C = self._coefficients(block)
        return np.stack([(C[:, s] != 0).any(axis=1) for s in self._slices], axis=1)

    def decompose(self, a):
        """Nonzero homogeneous components of ``a``, keyed by morphism."""
        ring = self.ring
        if ring.is_table:
            return {g: ring.element(i)
                    for g, i in zip(self.order, self._parts[a.data].tolist())
                    if i != ring.zero_index}
        F = ring.F
        c = self._coefficients([a.data])[0]
        return {g: Element(ring, F.coords(F.matmul(c[s], self._basis[s])))
                for g, s in zip(self.order, self._slices) if any(c[s] != 0)}

    def component_of(self, a, g):
        return self.decompose(a).get(g, self.ring.zero())

    def support(self, a):
        row = self.support_matrix([a.data])[0]
        return frozenset(g for g, nonzero in zip(self.order, row.tolist()) if nonzero)

    # -- derived subrings ------------------------------------------------
    def zero_part_subring(self) -> Subring:
        """A_0: the sum of the object components (a subring)."""
        if self._zero_part is None:
            span = zero_subgroup(self.ring)
            for e in self.cat.objects:
                span = span.join(self.components[self.cat.identity[e]])
            self._zero_part = Subring(self.ring, span, check=False)
        return self._zero_part

    def vertex_subring(self, e) -> Subring:
        span = zero_subgroup(self.ring)
        for g in self.cat.vertex_morphisms(e):
            span = span.join(self.components[g])
        return Subring(self.ring, span, check=False)

    def vertex_unit(self, e):
        """The unit of A_e, or None."""
        units = self.vertex_units()
        return units.get(e)

    def vertex_units(self):
        if self._vertex_units is None:
            out = {}
            for e in self.cat.objects:
                comp = self.components[self.cat.identity[e]]
                if comp.is_zero():
                    out[e] = None
                    continue
                sub = Subring(self.ring, comp, check=False)
                ring_e, embed, _ = sub.as_ring()
                props = ring_e.probe_properties()
                out[e] = embed(props.unit) if props.unital else None
            self._vertex_units = out
        return self._vertex_units

    @cached_property
    def nondegeneracy(self):
        """(left, right) over a groupoid: does every nonzero x in every A_g
        have A_{g^-1}·x != 0, and x·A_{g^-1} != 0?  One rank per nonzero
        component and side, once per grading; (None, None) off a groupoid."""
        if not self.cat.is_groupoid:
            return None, None
        pairs = [(c, self.components[self.cat.inverse[g]])
                 for g, c in self.components.items() if not c.is_zero()]
        return tuple(all(c.pairing_nondegenerate(inv, side) for c, inv in pairs)
                     for side in ("left", "right"))

    def homogeneous_spanning(self):
        """Spanning elements of every component, flattened."""
        out = []
        for g in self.order:
            out.extend(self.components[g].spanning())
        return out

    def __repr__(self):
        return f"Grading({self.cat.name} on {len(self.order)} components)"


def validate_grading(ring, cat, components) -> Grading:
    """Check the direct-sum and filter conditions, exhaustively on spans."""
    comps = {}
    for g in cat.morphisms:
        comp = components[g]
        if not isinstance(comp, AddSubgroup):
            comp = additive_span(ring, list(comp))
        comps[g] = comp
    total = zero_subgroup(ring)
    for g in cat.morphisms:
        c = comps[g]
        if not total.intersect(c).is_zero():
            raise NotDirectSum(f"component of {g!r} overlaps the others")
        total = total.join(c)
    if not total.is_full():
        raise NotDirectSum("components do not span the ring")
    for g in cat.morphisms:
        for h in cat.morphisms:
            prod = product_span(ring, comps[g], comps[h])
            if cat.composable(g, h):
                target = comps[cat.compose(g, h)]
                if not target.contains_subgroup(prod):
                    raise FilterViolation(g, h, prod.spanning()[:1])
            else:
                if not prod.is_zero():
                    raise FilterViolation(g, h, prod.spanning()[:1])
    return Grading(ring, cat, comps)


@dataclass
class GradedRing:
    """A ring with a grading of it: what a graded construction builds.
    Every crossed product is one (:class:`ringlab.constructions.CrossedProduct`
    extends it); a bare one carries no crossed system, and its certificate
    pipeline is the groupoid-graded one (:func:`ringlab.certify.certify_built`)."""
    ring: Ring
    grading: Grading


def support(a, grading: Grading):
    return grading.support(a)


def trivial_grading(ring) -> Grading:
    from .categories import trivial_group
    cat = trivial_group()
    return Grading(ring, cat, {0: full_subgroup(ring)})


# ---------------------------------------------------------------------------
# flags
# ---------------------------------------------------------------------------

@dataclass
class GradingFlags:
    locally_unital: bool
    strongly_graded: bool
    left_nondegenerate: bool | None
    right_nondegenerate: bool | None

    @property
    def nondegenerate_some_side(self):
        return bool(self.left_nondegenerate) or bool(self.right_nondegenerate)


def grading_flags(grading: Grading) -> GradingFlags:
    ring, cat = grading.ring, grading.cat
    units = grading.vertex_units()
    locally_unital = all(units[e] is not None for e in cat.objects) and bool(cat.objects)
    if locally_unital:
        for g in cat.morphisms:
            u_c = units[cat.cod[g]]
            u_d = units[cat.dom[g]]
            for x in grading.components[g].spanning():
                if u_c * x != x or x * u_d != x:
                    locally_unital = False
                    break
            if not locally_unital:
                break
    strongly = True
    for g, h in cat.composable_pairs():
        prod = product_span(ring, grading.components[g], grading.components[h])
        if prod != grading.components[cat.compose(g, h)]:
            strongly = False
            break
    return GradingFlags(locally_unital, strongly, *grading.nondegeneracy)


# ---------------------------------------------------------------------------
# degree maps
# ---------------------------------------------------------------------------

@dataclass
class DegreeMap:
    """A map d: A -> N with d(a) = 0 iff a = 0, plus the commutator-drop data.

    ``X`` is an additive spanning set of the subring B; commuting with X is
    enough to commute with B, so the degree-drop condition (checked against
    X) certifies the ideal-intersection argument.
    """

    ring: object
    B: Subring
    X: list
    d: object                    # callable Element -> int
    description: str
    grading: Grading | None = None

    def degree(self, a):
        return self.d(a)

    def degrees(self, block):
        """d on every element of a block of the ring, as an array.  A
        support map reads it off the grading's support matrix; any other
        ``d`` is called on the block's Elements one by one."""
        if isinstance(self.d, _SupportDegree):
            return self.d.grading.support_matrix(block).sum(axis=1)
        return np.array([self.d(a) for a in self.ring.block_elements(block)])


class _SupportDegree:
    """d(a) = |Supp(a)|, read off the grading's support matrix."""

    def __init__(self, grading):
        self.grading = grading

    def __call__(self, a):
        return int(self.grading.support_matrix([a.data])[0].sum())


@dataclass
class DegreeMapVerdict:
    status: str                  # "Valid" | "D1Violation" | "D2Violation"
    witness: object = None

    @property
    def valid(self):
        return self.status == "Valid"

    def __repr__(self):
        return self.status if self.valid else f"{self.status}({self.witness!r})"


def support_degree_map(grading: Grading, b_choice="center_of_A0") -> DegreeMap:
    """d(a) = |Supp(a)| with B = Z(A_0) or B = A spanned by homogeneous
    elements."""
    ring = grading.ring
    if b_choice == "center_of_A0":
        # Z(A_0): the elements of A_0 that commute with all of it, found
        # in the ambient ring
        a0 = grading.zero_part_subring()
        B = Subring(ring, commuting_span(ring, a0.spanning()).intersect(a0.span),
                    check=False)
        X = B.spanning()
        desc = "support degree map over the center of the object part"
    elif b_choice == "homogeneous_elements":
        B = full_subring(ring)
        X = grading.homogeneous_spanning()
        desc = "support degree map over homogeneous elements"
    else:
        raise ValueError("b_choice must be center_of_A0 or homogeneous_elements")
    return DegreeMap(ring, B, X, _SupportDegree(grading), desc, grading=grading)


def verify_degree_map(dm: DegreeMap, cap=DEFAULT_ELEMENT_CAP) -> DegreeMapVerdict:
    """Check (d1), d(a) = 0 iff a = 0, and (d2): every nonzero a in a
    nonzero ideal I has an a' in I, a' != 0, with d(a') <= d(a) and
    d(a'b − ba') < d(a) for every b in X.

    (d2) asks one question per ideal.  Let m_I be the least degree of a
    nonzero element of I.  Then (d2) holds iff every nonzero ideal I has
    an a' with d(a') = m_I and d(a'b − ba') < m_I for all b in X.  If:
    every nonzero a in I has d(a) >= m_I, so that one a' serves every a.
    Only if: apply (d2) to an a of degree m_I.

    A support map, d(a) = |Supp(a)| (:func:`support_degree_map`), needs
    no scan for (d1), as the grading is a direct sum (c @ basis = a for
    the coefficients c on the stacked component bases; a table ring
    refuses a non-unique decomposition when it is tabulated): d is read
    once on zero, which raises NotDirectSum for components that do not
    span.  Nor for (d2), at any size and over Q, when the premises of
    this lemma hold (:func:`_lemma_applies`).

    **Lemma.**  Let the grading be by a groupoid and X lie in A_0 and
    commute with all of A_0.  If every nonzero x in every A_g has
    x·A_{g^-1} != 0, or every such x has A_{g^-1}·x != 0
    (``Grading.nondegeneracy``), the support map satisfies (d2).
    **Proof** (on the right; the left mirrors it).  Take a nonzero a in an
    ideal I, g in Supp(a) and c in A_{g^-1} with a_g·c != 0, and let a' =
    a·c, in I.  Each a_h·c lies in A_{hg^-1} or is 0, and h ↦ hg^-1 is
    injective, so d(a') <= d(a); at the identity e = gg^-1 only h = g
    contributes, so a'_e = a_g·c != 0.  For b in X, a'_h·b and b·a'_h lie
    in A_h (b is a sum over the identities), so a'b − ba' has the
    component a'_h·b − b·a'_h at h: 0 off Supp(a'), and 0 at e, where b
    commutes with a'_e in A_0.  So d(a'b − ba') <= d(a') − 1 < d(a).  No
    associativity and no unit is used.

    A support map outside the lemma (X of homogeneous elements, a
    category that is no groupoid, a degenerate grading) needs no element
    scan on a ring that :func:`is_simple` (cached, and over F_p Norton's
    test, at any size) calls Simple.  The only nonzero ideal is A, with
    m_A = 1, so (d2) holds iff some nonzero component A_g meets the
    elements commuting with every b in X: one null space of X's
    commutators (:func:`ringlab.subgroups.commuting_span`; not the
    centralizer of the subring X generates, which can be smaller in a
    non-associative ring), intersected with each component.  When it
    fails, the witness below comes from the scan under the cap; past it
    (or over Q) it is A and the first spanning element of the first
    nonzero component, which has degree m_A.

    Everything else scans, and raises TooLarge past the cap (an
    InfiniteScalarField over Q): (d1) for a map that is not a support
    map, then (d2) for it and for a support map outside the lemma on a
    ring that is not, or not provably, Simple.  Reduction to principal
    ideals: for an ideal I and nonzero a in I, a witness found inside <a>
    also lies in I, and conversely (d2) applied to I at a yields a witness
    valid for <a> evaluated at a.

    Elements are checked a block at a time (``Ring.element_blocks``), so
    degrees come from ``DegreeMap.degrees`` and products from block
    arithmetic: over F_p, [a, b] = a·(R_b − L_b) is one matrix product for
    the whole block.  (d1) runs over every block before (d2) starts.  For
    (d2) each a first tries a' = a itself; those that fail try the groupoid
    candidates a·c, c spanning A_{g^-1} for g in Supp(a), when a has no
    object component.  Only elements still unsettled scan all of <a>; the
    scan depends on <a> and d(a) alone, so each such pair is scanned once.
    The ring's :func:`is_simple` verdict is read once, at the first
    unsettled element (before any scan for a support map); when it is
    Simple, <a> is A for every a and no principal ideal is closed.
    The first failing a in enumeration order is the witness.
    """
    ring = dm.ring
    zero = ring.zero()
    if dm.degree(zero) != 0:
        return DegreeMapVerdict("D1Violation", zero)
    whole = None                      # A when the ring is simple, else False
    if isinstance(dm.d, _SupportDegree):
        if _lemma_applies(dm):
            return DegreeMapVerdict("Valid")
        whole = _whole_if_simple(ring, cap)
        if whole:
            grading = dm.d.grading
            commuting = commuting_span(ring, dm.X)
            if any(not c.intersect(commuting).is_zero() for c in grading.components.values()):
                return DegreeMapVerdict("Valid")
            size = ring.size()
            if size is None or size > cap:
                a = next(x for g in grading.order for x in grading.components[g].spanning()
                         if not x.is_zero())
                return DegreeMapVerdict("D2Violation", (whole, a))
    else:
        for block in ring.element_blocks(cap):
            bad = np.flatnonzero((dm.degrees(block) == 0) == ring.block_nonzero(block))
            if bad.size:
                return DegreeMapVerdict("D1Violation",
                                        ring.block_elements(block[bad[:1]])[0])
    scanned = set()                   # (ideal key, d(a)) pairs that passed
    for block in ring.element_blocks(cap):
        block = block[ring.block_nonzero(block)]
        da = dm.degrees(block)
        settled = _qualifying(dm, block, da)
        if not settled.all():
            rest = ~settled
            settled[rest] = _groupoid_candidates_qualify(dm, block[rest], da[rest])
        for i in np.flatnonzero(~settled):
            a = ring.block_elements(block[i:i + 1])[0]
            if whole is None:
                whole = _whole_if_simple(ring, cap)
            ideal = whole or principal_ideal(ring, a)
            if (ideal.key(), da[i]) in scanned:
                continue
            if not any(_qualifying(dm, cands, da[i]).any()
                       for cands in ideal.span.element_blocks(cap)):
                return DegreeMapVerdict("D2Violation", (ideal, a))
            scanned.add((ideal.key(), da[i]))
    return DegreeMapVerdict("Valid")


def _lemma_applies(dm):
    """The premises of the lemma in :func:`verify_degree_map`, for a
    support map: a grading nondegenerate on some side (None off a
    groupoid), and X inside A_0, which lies in X's commutant."""
    grading = dm.d.grading
    if not any(grading.nondegeneracy):
        return False
    A0 = grading.zero_part_subring().span
    return (all(A0.contains(x) for x in dm.X)
            and commuting_span(dm.ring, dm.X).contains_subgroup(A0))


def _whole_if_simple(ring, cap):
    """A as an ideal when :func:`is_simple` says Simple, else False."""
    return (is_simple(ring, cap=cap).is_simple
            and IdealBasis(ring, full_subgroup(ring), check=False))


def _qualifying(dm, cands, bound):
    """Mask of the candidates a' with a' != 0, d(a') <= bound and
    d(a'b − ba') < bound for every b in X (``bound`` per row or scalar)."""
    ring = dm.ring
    bound = np.broadcast_to(bound, (len(cands),))
    ok = ring.block_nonzero(cands)
    ok[ok] = dm.degrees(cands[ok]) <= bound[ok]
    for b in dm.X:
        if not ok.any():
            break
        ok[ok] = dm.degrees(ring.block_commutators(cands[ok], b)) < bound[ok]
    return ok


def _groupoid_candidates_qualify(dm, block, da):
    """Mask of the elements a of the block for which some a·c qualifies,
    c spanning A_{g^-1} for g in Supp(a), when a has no object component.
    These candidates lie in <a>, so they settle (d2) without scanning it."""
    found = np.zeros(len(block), dtype=bool)
    grading = dm.grading
    if grading is None or not grading.cat.is_groupoid or not len(block):
        return found
    cat = grading.cat
    supp = grading.support_matrix(block)
    objects = {cat.identity[e] for e in cat.objects}
    eligible = ~supp[:, [g in objects for g in grading.order]].any(axis=1)
    for j, g in enumerate(grading.order):
        for c in grading.components[cat.inverse[g]].spanning():
            rows = eligible & supp[:, j] & ~found
            if rows.any():
                found[rows] = _qualifying(dm, dm.ring.block_mul(block[rows], c), da[rows])
    return found


# ---------------------------------------------------------------------------
# intersection property, componentwise invariance, local units
# ---------------------------------------------------------------------------

@dataclass
class IntersectionVerdict:
    status: str                  # "Holds" | "Fails"
    witness: IdealBasis | None = None

    @property
    def holds(self):
        return self.status == "Holds"

    def __repr__(self):
        return self.status if self.holds else f"Fails({self.witness!r})"


def ideal_intersection_property(ring, S, cap=DEFAULT_ELEMENT_CAP) -> IntersectionVerdict:
    """Every nonzero ideal of the ring meets S nontrivially.  The witness is
    the first that does not, in the order of
    :func:`ringlab.ideals.enumerate_ideals`: a minimal one, since the ideals
    inside it meet S in 0 too.  The whole ring is the lattice's last ideal,
    so S = 0 fails on any nonzero ring."""
    span = S.span if isinstance(S, (Subring, IdealBasis)) else S
    I = next((I for I in enumerate_ideals(ring, cap=cap)
              if not I.is_zero() and I.span.intersect(span).is_zero()), None)
    return IntersectionVerdict("Holds") if I is None else IntersectionVerdict("Fails", I)


@dataclass
class ComponentwiseInvariance:
    plain: bool
    conjugation: bool | None
    agreement_checked: bool


def ideal_components(grading: Grading, I: IdealBasis):
    """I_e = I ∩ A_e for each object e."""
    return {e: I.span.intersect(grading.components[grading.cat.identity[e]])
            for e in grading.cat.objects}


def check_invariance_componentwise(grading: Grading, I: IdealBasis) -> ComponentwiseInvariance:
    """Componentwise A-invariance criteria for an ideal of A_0.

    plain: A_g I_d(g) ⊆ I_c(g) A_g for all g (equivalent to A-invariance in
    the locally unital case; the equivalence is asserted).  conjugation:
    A_g I_d(g) A_{g^-1} ⊆ I_c(g), evaluated when the grading is strong over a
    groupoid and graded ideal associativity holds.
    """
    ring, cat = grading.ring, grading.cat
    flags = grading_flags(grading)
    if not flags.locally_unital:
        raise PreconditionUnmet("locally unital grading required")
    comps = ideal_components(grading, I)
    plain = True
    for g in cat.morphisms:
        Ag = grading.components[g]
        lhs = product_span(ring, Ag, comps[cat.dom[g]])
        rhs = product_span(ring, comps[cat.cod[g]], Ag)
        if not rhs.contains_subgroup(lhs):
            plain = False
            break
    direct = is_A_invariant(ring, grading.zero_part_subring(), I)
    if plain != direct:
        raise CriterionDisagreement("componentwise criterion disagrees with AI ⊆ IA")
    conjugation = None
    pre_b = cat.is_groupoid and flags.strongly_graded and \
        graded_ideal_associativity(grading, I)
    if pre_b:
        conjugation = True
        for g in cat.morphisms:
            Ag = grading.components[g]
            Aginv = grading.components[cat.inverse[g]]
            lhs1 = product_span(ring, product_span(ring, Ag, comps[cat.dom[g]]), Aginv)
            lhs2 = product_span(ring, Ag, product_span(ring, comps[cat.dom[g]], Aginv))
            lhs = lhs1.join(lhs2)
            if not comps[cat.cod[g]].contains_subgroup(lhs):
                conjugation = False
                break
        if conjugation != plain:
            raise CriterionDisagreement("conjugation criterion disagrees with the plain one")
    return ComponentwiseInvariance(plain, conjugation, True)


def graded_ideal_associativity(grading: Grading, I: IdealBasis) -> bool:
    """All parenthesizations agree on words made of one copy of I and up to
    three graded components (every identity the arguments need lives inside
    this window).  On a ring that the exact probe
    (:meth:`Ring.probe_properties`) finds associative every word
    associates, so no word is evaluated."""
    from .ideals import _parenthesizations
    ring, cat = grading.ring, grading.cat
    if ring.probe_properties().associative:
        return True
    memo = {}
    for n in range(1, 4):
        for tup in itertools.product(cat.morphisms, repeat=n):
            spans = [grading.components[g] for g in tup]
            for pos in range(n + 1):
                word = spans[:pos] + [I.span] + spans[pos:]
                if len(word) < 3:
                    continue
                evals = _parenthesizations(word, ring, memo)
                first = evals[0]
                if any(e != first for e in evals[1:]):
                    return False
    return True


def local_units_full_ideal_test(grading: Grading, I: IdealBasis, part="a") -> bool:
    """Fullness of an ideal of A read off the vertex units.

    part (a): I = A iff every vertex unit lies in I.
    part (b): on a strongly graded connected groupoid, I = A iff some vertex
    unit lies in I.  Both are asserted against the direct equality.
    """
    ring, cat = grading.ring, grading.cat
    flags = grading_flags(grading)
    if not flags.locally_unital:
        raise PreconditionUnmet("locally unital grading required")
    units = grading.vertex_units()
    direct = I.span.is_full()
    if part == "a":
        crit = all(I.contains(units[e]) for e in cat.objects)
    elif part == "b":
        if not (cat.is_groupoid and cat.is_connected() and flags.strongly_graded):
            raise PreconditionUnmet("connected groupoid with strong grading required")
        crit = any(I.contains(units[e]) for e in cat.objects)
    else:
        raise ValueError("part must be 'a' or 'b'")
    if crit != direct:
        raise CriterionDisagreement("vertex-unit criterion disagrees with I = A")
    return crit
