"""Certificate pipelines: run a structural simplicity statement on a concrete
instance, record which premises were verified (or assumed), state the
conclusion, and cross-check it against the simplicity oracle whenever one
exists.

A premise holds one tri-state, ``holds``, as an :class:`ringlab.ideals.Verdict`
does: True when the instance verifies it, False when it fails, None when it
is assumed.  Pipelines hand a boolean or a verdict's ``holds`` straight to
:class:`Premise` and decide on ``holds``; the report's word for it is
derived in one place, :attr:`Premise.status`.

:func:`certify_built` produces every certificate of a built object, and
:func:`_oracle_cross_check` alone writes a simplicity certificate's oracle
fields, from the evidence a pipeline hands it (necessity, whose oracle is
A-simplicity on the same lattice, sets its own).

A certificate never asserts a conclusion from a failed premise; pipelines
built on an if-and-only-if statement may conclude in the negative from a
verified premise failure.  Oracle disagreement is fatal for corpus runs.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass, field as dfield, fields, replace

import numpy as np

from . import linalg
from .constructions.crossed import CrossedProduct, is_G_simple
from .constructions.doubling import CayleyDoubling, CayleyTower
from .constructions.dynamics import DynamicsRing, dynamics_skew_group_rings
from .errors import CriterionDisagreement, InfiniteScalarField, TooLarge
from .gradings import (GradedRing, Grading, grading_flags,
                       graded_ideal_associativity, support_degree_map,
                       verify_degree_map)
from .ideals import (DEFAULT_ELEMENT_CAP, DEFAULT_SEED, IdealBasis, Subring,
                     Verdict, center, centralizer, check_ideal_associativity,
                     enumerate_ideals, enumerate_subring_ideals, ideal_closure,
                     first_stable_ideal, identity_property, is_A_invariant,
                     is_A_simple, is_maximal_commutative, is_simple)
from .ore import (SigmaDerivationData, is_sigma_delta_simple,
                  validate_sigma_derivation)
from .rings import CONSTANTS_CAP, StructureAlgebra, require_ring
from .subgroups import (full_subgroup, product_span, subspace_from_vectors,
                        triple_product_span, zero_subgroup)


@dataclass
class Premise:
    """A premise of a certificate's statement, checked on the instance.
    ``holds`` is True (verified), False (failed) or None (assumed: not
    decided on the instance); ``detail`` is its witness or reason."""

    name: str
    holds: bool | None
    detail: object = None

    @property
    def status(self):
        """The report's word for ``holds``, derived here and nowhere else."""
        if self.holds is None:
            return "assumed"
        return "verified" if self.holds else "failed"

    def __repr__(self):
        extra = f": {self.detail!r}" if self.detail is not None else ""
        return f"[{self.status}] {self.name}{extra}"


@dataclass
class Certificate:
    instance: str
    pipeline: str
    statement: str
    premises: list
    verdict: str | None          # "Simple"|"NotSimple"|"ASimple"|"NotASimple"|
                                 # "SigmaDeltaSimple"|"NotSigmaDeltaSimple"|None
    oracle: str = "unavailable"  # "agrees" | "disagrees" | "unavailable"
    oracle_detail: object = None
    meta: dict = dfield(default_factory=dict)
    notes: tuple = ()

    @property
    def conditional(self):
        return any(p.holds is None for p in self.premises)

    def failed_premises(self):
        return [p for p in self.premises if p.holds is False]

    def to_json(self):
        return {
            "instance": self.instance,
            "pipeline": self.pipeline,
            "statement": self.statement,
            "premises": [{"name": p.name, "status": p.status,
                          "detail": _detail_json(p.detail)} for p in self.premises],
            "verdict": self.verdict,
            "conditional": self.conditional,
            "oracle": self.oracle,
            "oracle_detail": _detail_json(self.oracle_detail),
            "meta": self.meta,
            "notes": list(self.notes),
        }


def _detail_json(d):
    if d is None or isinstance(d, (str, int, bool)):
        return d
    return repr(d)


def _oracle_cross_check(cert: Certificate, ring, cap, seed, evidence=None):
    """Set ``cert.oracle`` and ``cert.oracle_detail`` from :func:`is_simple`.

    ``evidence`` is the pipeline's own evidence against simplicity, if any:
    the explicit ideal it built, or a failed premise, as the text of the
    contradiction an oracle Simple would make.  An oracle Simple against
    evidence disagrees (detail: that text, or "Simple").  An undecided
    oracle agrees when the evidence is a proper nonzero ideal, and is
    unavailable (detail: its reason) otherwise.  Else a concluded
    certificate agrees or disagrees with the oracle, and a withheld one
    leaves it unavailable.
    """
    v = is_simple(ring, cap=cap, seed=seed)
    if v.holds and evidence is not None:
        found = ("disagrees", evidence if isinstance(evidence, str) else v.status)
    elif v.holds is None and isinstance(evidence, IdealBasis) and _proper(evidence):
        found = ("agrees", "explicit proper ideal re-verified")
    elif v.holds is None:
        found = ("unavailable", v.reason)
    elif cert.verdict in ("Simple", "NotSimple"):
        found = ("agrees" if v.status == cert.verdict else "disagrees", v.status)
    else:
        found = ("unavailable", f"oracle says {v.status}; pipeline withheld its conclusion")
    cert.oracle, cert.oracle_detail = found


# ---------------------------------------------------------------------------
# field and simplicity recognizers used by the pipelines
# ---------------------------------------------------------------------------

def recognize_field(ring, cap=DEFAULT_ELEMENT_CAP, seed=DEFAULT_SEED):
    """True/False when decidable, None otherwise.

    A field is a commutative, associative, unital ring that is simple.
    :func:`is_simple` decides, as it does for table rings and, at any size,
    for F_p algebras that Norton's test decides; only where it is
    Inconclusive is the field backend asked (``is_field_algebra``: Q algebras of
    dimension 1 and 2).  The zero ring has R·R = 0, so it is no field.
    """
    props = require_ring(ring).probe_properties()
    if not (props.commutative and props.unital and props.associative):
        return False
    simple = is_simple(ring, cap=cap, seed=seed).holds
    return simple if simple is not None else ring.F.is_field_algebra(ring, props.unit.data)


def _simplicity(ring, cap=DEFAULT_ELEMENT_CAP, seed=DEFAULT_SEED, hint=None) -> Verdict:
    """:func:`is_simple`'s verdict on the ring, or, where that is undecided,
    a Simple one whose reason is "field" (:func:`recognize_field`) or
    "carried from an earlier certificate" (``hint`` "Simple")."""
    v = is_simple(ring, cap=cap, seed=seed)
    if v.holds is None and recognize_field(ring, cap=cap, seed=seed) is True:
        return Verdict(True, reason="field")
    if v.holds is None and hint == "Simple":
        return Verdict(True, reason="carried from an earlier certificate")
    return v


def _simple_premise(name, v: Verdict) -> Premise:
    """Premise ``name`` of a simplicity verdict: its witness ideal is the
    detail when the ring is not simple, else its reason ("reduction mod q"
    or "field", None over F_p, or why it is undecided)."""
    return Premise(name, v.holds, v.witness if v.holds is False else v.reason)


def _proper(J):
    """Is the witness ideal J (None when there is none) proper and nonzero?"""
    return J is not None and not J.is_zero() and not J.span.is_full()


def _center_premise(name, ring, cap, seed) -> Premise:
    """Premise ``name``: the center of the ring is a field, undecided where
    :func:`recognize_field` is; the detail is the center's dimension."""
    z = center(ring)
    return Premise(name, recognize_field(z.as_ring()[0], cap=cap, seed=seed),
                   f"center dimension {z.measure()}")


def _non_invariant_meet(ring, S: Subring, cap):
    """The first ideal I of the ring whose meet I ∩ S is not invariant as
    an ideal of S, or None."""
    for I in enumerate_ideals(ring, cap=cap):
        meet = IdealBasis(ring, I.span.intersect(S.span), of_subring=S, check=False)
        if not is_A_invariant(ring, S, meet):
            return I
    return None


def _vertex_premise(grading: Grading, name, ring_at, cap, seed) -> Premise:
    """Premise ``name``: ``ring_at(A_e)`` is simple for the vertex subring
    A_e of every object e; the detail lists the status per vertex."""
    verdicts = {e: _simplicity(ring_at(grading.vertex_subring(e).as_ring()[0]),
                               cap=cap, seed=seed) for e in grading.cat.objects}
    return Premise(name, all(v.holds for v in verdicts.values()),
                   [(e, "Unknown" if v.holds is None else v.status)
                    for e, v in verdicts.items()])


def _vertex_center(sub):
    return center(sub).as_ring()[0]


# ---------------------------------------------------------------------------
# necessity: a simple ring forces its summand base to be invariantly simple
# ---------------------------------------------------------------------------

def certify_necessity(ring, B: Subring, grading: Grading | None = None,
                      cap=DEFAULT_ELEMENT_CAP, seed=DEFAULT_SEED,
                      instance="") -> Certificate:
    """If the extension associates on ideals, B is a one-sided direct summand,
    every ideal of B has the identity property and the ring is simple, then B
    has no nontrivial invariant ideal."""
    premises = []
    ideals_of_B = enumerate_subring_ideals(ring, B, cap=cap)
    bad = [I for I in ideals_of_B
           if not check_ideal_associativity(ring, B, I, copies=2)]
    premises.append(Premise("extension is ideal associative (two copies, all ideals of B)",
                            not bad, bad[0] if bad else None))
    if grading is not None:
        comp = zero_subgroup(ring)
        objects = {grading.cat.identity[e] for e in grading.cat.objects}
        for g in grading.order:
            if g not in objects:
                comp = comp.join(grading.components[g])
        ok = (B.span.join(comp).is_full()
              and comp.contains_subgroup(product_span(ring, B.span, comp)))
        premises.append(Premise("B is a direct summand as a left B-module "
                                "(graded complement)", ok))
    else:
        premises.append(Premise("B is a direct summand as a left B-module",
                                None, "no grading supplied"))
    bad = [I for I in ideals_of_B if not identity_property(I, B, side="right")]
    premises.append(Premise("every ideal of B has the right identity property",
                            not bad, bad[0] if bad else None))
    sv = is_simple(ring, cap=cap, seed=seed)
    # an undecided oracle fails this premise: the statement needs it proved
    premises.append(Premise("the ring is simple", sv.holds is True,
                            None if sv.holds else sv))
    cert = Certificate(instance, "necessity",
                       "simplicity forces the base to be invariantly simple",
                       premises, None, meta={"cap": cap, "seed": seed})
    if not cert.failed_premises():
        asv = is_A_simple(ring, B, ideals=ideals_of_B)
        cert.verdict = "ASimple"
        cert.oracle = "agrees" if asv.holds else "disagrees"
        cert.oracle_detail = repr(asv)
    return cert


# ---------------------------------------------------------------------------
# sufficiency: an invariantly simple centralizer plus a degree map
# ---------------------------------------------------------------------------

def certify_sufficiency(ring, B: Subring, degree_map=None,
                        grading: Grading | None = None,
                        cap=DEFAULT_ELEMENT_CAP, seed=DEFAULT_SEED,
                        instance="") -> Certificate:
    """If the centralizer C of B is an invariantly simple subring, every
    intersection of C with an ideal is invariant, A·C·A = A and there is a
    degree map, then the ring is simple."""
    premises = []
    C = centralizer(ring, B.spanning())
    closed = C.span.contains_subgroup(product_span(ring, C.span, C.span))
    premises.append(Premise("the centralizer of B is multiplicatively closed", closed))
    if closed:
        csv = is_A_simple(ring, C, cap=cap)
        premises.append(Premise("the centralizer is invariantly simple",
                                csv.holds, csv.witness))
        bad = _non_invariant_meet(ring, C, cap)
        premises.append(Premise("every intersection of the centralizer with an "
                                "ideal is invariant", bad is None, bad))
    aca = triple_product_span(ring, full_subgroup(ring), C.span, full_subgroup(ring))
    premises.append(Premise("A·C·A = A", aca.is_full()))
    dm = degree_map
    if dm is None and grading is not None:
        dm = support_degree_map(grading, "center_of_A0")
        if dm.B.span != B.span:
            dm = support_degree_map(grading, "homogeneous_elements")
    if dm is None:
        premises.append(Premise("a degree map exists", None, "no candidate supplied"))
    else:
        dv = verify_degree_map(dm, cap=cap)
        premises.append(Premise(f"degree map valid ({dm.description})",
                                dv.holds, None if dv.holds else dv))
    cert = Certificate(instance, "sufficiency",
                       "invariantly simple centralizer with a degree map forces simplicity",
                       premises, None, meta={"cap": cap, "seed": seed})
    if not cert.failed_premises():
        cert.verdict = "Simple"
    _oracle_cross_check(cert, ring, cap, seed)
    return cert


# ---------------------------------------------------------------------------
# groupoid-graded pipelines
# ---------------------------------------------------------------------------

def certify_groupoid_graded(ring, grading: Grading, cap=DEFAULT_ELEMENT_CAP,
                            seed=DEFAULT_SEED, instance="") -> Certificate:
    """Simplicity of a groupoid-graded ring from vertex data: either every
    vertex subring is simple (strong + connected), or the object part is
    invariantly simple and maximal commutative (non-degenerate), or the
    vertex centers are simple (strong + connected + locally abelian)."""
    cat = grading.cat
    flags = grading_flags(grading)
    premises = [Premise("grading over a groupoid", cat.is_groupoid),
                Premise("locally unital", flags.locally_unital)]
    cert = Certificate(instance, "groupoid-graded",
                       "vertex-level data forces simplicity",
                       premises, None, meta={"cap": cap, "seed": seed})
    if not (cat.is_groupoid and flags.locally_unital):
        _oracle_cross_check(cert, ring, cap, seed)
        return cert
    B = grading.zero_part_subring()

    # variant 1: strong + connected + simple vertex subrings (skipped when a
    # vertex subring is the whole ring, which would be circular)
    proper_vertices = all(not grading.vertex_subring(e).span.is_full()
                          for e in cat.objects)
    if flags.strongly_graded and cat.is_connected() and proper_vertices:
        vertices = _vertex_premise(grading, "every vertex subring is simple",
                                   lambda sub: sub, cap, seed)
        premises.append(Premise("strong grading over a connected groupoid", True))
        premises.append(vertices)
        if vertices.holds:
            cert.verdict = "Simple"
            cert.notes += ("variant: simple vertex subrings",)
            _oracle_cross_check(cert, ring, cap, seed)
            return cert

    ideals_of_B = enumerate_subring_ideals(ring, B, cap=cap)
    asv = is_A_simple(ring, B, ideals=ideals_of_B)
    premises.append(Premise("the object part is invariantly simple",
                            asv.holds, asv.witness))

    # variant 2: non-degenerate + maximal commutative object part
    if asv.holds and flags.nondegenerate_some_side and B.is_commutative() \
            and is_maximal_commutative(ring, B):
        bad = _non_invariant_meet(ring, B, cap)
        premises.append(Premise("grading non-degenerate on one side", True))
        premises.append(Premise("object part maximal commutative", True))
        premises.append(Premise("ideal intersections with the object part are invariant",
                                bad is None, bad))
        if not bad:
            cert.verdict = "Simple"
            cert.notes += ("variant: maximal commutative object part",)
            _oracle_cross_check(cert, ring, cap, seed)
            return cert

    # variant 3: strong + connected + locally abelian + graded ideal
    # associativity + simple vertex centers
    if asv.holds and flags.strongly_graded and cat.is_connected() and cat.is_locally_abelian():
        gia = all(graded_ideal_associativity(grading, I) for I in ideals_of_B)
        premises.append(Premise("graded ideal associativity (words up to four factors)",
                                gia))
        centers = _vertex_premise(grading, "every vertex center is simple",
                                  _vertex_center, cap, seed)
        premises.append(centers)
        premises.append(Premise("groupoid locally abelian (vertex groups abelian; "
                                "interpreted)", True))
        if gia and centers.holds:
            cert.verdict = "Simple"
            cert.notes += ("variant: simple vertex centers",)
    _oracle_cross_check(cert, ring, cap, seed)
    return cert


# ---------------------------------------------------------------------------
# crossed products
# ---------------------------------------------------------------------------

def certify_crossed_product(cp: CrossedProduct, cap=DEFAULT_ELEMENT_CAP,
                            seed=DEFAULT_SEED, instance="") -> Certificate:
    """Simplicity criteria for crossed products: for a skew group ring over a
    commutative base the action-simple + maximal commutative test is an iff;
    for an abelian group it is action-simple + the center being a field;
    otherwise the one-directional groupoid statements apply.  The two
    maximal-commutative statements (Öinert's) are for nonzero rings, so they
    conclude only when every base's unit is nonzero."""
    ring = cp.ring
    cat = cp.system.cat
    B = cp.base_subring()
    props_b = [cp.system.base[e].probe_properties() for e in cat.objects]
    alpha_trivial = all(
        cp.system.alpha_at(g, h) == cp.system.base[cat.cod[g]].probe_properties().unit
        for (g, h) in cat.composable_pairs())
    nonzero = all(not p.unit.is_zero() for p in props_b)
    premises = []
    g_simple = is_G_simple(cp, cap)
    premises.append(Premise("the base is action-simple (no nontrivial invariant ideal)",
                            g_simple.holds, g_simple.deferred_witness))
    statement = "action-simple base forces simplicity"
    verdict = None
    is_iff = False
    if cat.is_group() and alpha_trivial and nonzero and all(
            p.associative and p.unital and p.commutative for p in props_b):
        is_iff = True
        statement = ("skew group ring over a commutative base: simple iff the base is "
                     "action-simple and maximal commutative")
        mc = is_maximal_commutative(ring, B)
        premises.append(Premise("the base is maximal commutative", mc))
        verdict = "Simple" if (g_simple.holds and mc) else "NotSimple"
    elif cat.is_group() and cat.is_abelian_group() and alpha_trivial and all(
            p.associative and p.unital for p in props_b):
        is_iff = True
        statement = ("skew group ring over an abelian group: simple iff the base is "
                     "action-simple and the center is a field")
        zf = _center_premise("the center is a field", ring, cap, seed)
        premises.append(zf)
        if zf.holds is not None:
            verdict = "Simple" if (g_simple.holds and zf.holds) else "NotSimple"
    else:
        if g_simple.holds and cat.is_groupoid and nonzero and B.is_commutative() \
                and is_maximal_commutative(ring, B):
            premises.append(Premise("the base is maximal commutative", True))
            verdict = "Simple"
            statement = "groupoid crossed product with maximal commutative action-simple base"
        elif g_simple.holds and cat.is_groupoid and cat.is_locally_abelian() and cat.is_connected():
            centers = _vertex_premise(cp.grading, "every vertex center is simple",
                                      _vertex_center, cap, seed)
            premises.append(centers)
            if centers.holds:
                verdict = "Simple"
                statement = ("locally abelian connected groupoid crossed product "
                             "with simple vertex centers")
    cert = Certificate(instance, "crossed-product", statement, premises, verdict,
                       meta={"cap": cap, "seed": seed, "iff": is_iff})
    _oracle_cross_check(cert, ring, cap, seed)
    return cert


# ---------------------------------------------------------------------------
# doublings
# ---------------------------------------------------------------------------

def _sigma_simple_premise(cd: CayleyDoubling, cap, seed, base_hint=None):
    """The first sigma-stable ideal of the base (:func:`first_stable_ideal`,
    which Norton's test decides at any size over F_p).  Where that raises
    (over Q, or an undecided base past the cap), falls back to simplicity of
    the base (no ideals at all) or product-of-fields structure."""
    B = cd.base
    name = "the base has no nontrivial conjugation-stable ideal"
    sigma = [cd.sigma.operator]
    try:
        stable = first_stable_ideal(B, None, sigma, cap=cap)
    except (TooLarge, InfiniteScalarField):
        pass
    else:
        return Premise(name, stable.holds,
                       "ideal enumeration" if stable.holds else stable.deferred_witness)
    v = _simplicity(B, cap=cap, seed=seed, hint=base_hint)
    if v.holds:
        return Premise(name, True, f"base simple ({v.reason})")
    factors = getattr(B, "product_factors", None)
    if factors:
        # a product of fields: the only ideals are spanned by factor blocks
        blocks = [subspace_from_vectors(B, np.eye(B.dim, dtype=np.int64)[off:off + dim])
                  for off, dim in factors]
        for block in blocks:
            sub, _, _ = Subring(B, block, check=False).as_ring()
            if recognize_field(sub, cap=cap, seed=seed) is not True:
                return Premise(name, None, "factors not recognized as fields")
        n = len(blocks)
        for mask in range(1, 2 ** n - 1):
            span = zero_subgroup(B)
            for t in range(n):
                if mask >> t & 1:
                    span = span.join(blocks[t])
            if span.is_stable(sigma):
                return Premise(name, False, f"stable factor combination {mask:b}")
        return Premise(name, True,
                       "factor-combination scan over a product of fields "
                       "(base itself is not simple)")
    # neither simplicity of the base nor a product of fields decides it
    return replace(_simple_premise(name, v), holds=None)


def certify_cayley(cd: CayleyDoubling, base_hint=None, cap=DEFAULT_ELEMENT_CAP,
                   seed=DEFAULT_SEED, instance="") -> Certificate:
    """A doubling is simple when its base has no conjugation-stable ideal and
    the center of the double is simple; conversely simplicity of the double
    forces conjugation-stable simplicity of the base."""
    ring = cd.ring
    premises = [_sigma_simple_premise(cd, cap, seed, base_hint=base_hint)]
    premises.append(_center_premise("the center of the double is simple", ring, cap, seed))
    cert = Certificate(instance, "doubling",
                       "conjugation-stable simple base with simple center forces simplicity",
                       premises, None,
                       meta={"cap": cap, "seed": seed}, notes=cd.notes)
    if not cert.failed_premises():
        cert.verdict = "Simple"
    # simplicity of the double forces the premise (the necessity direction)
    _oracle_cross_check(cert, ring, cap, seed,
                        evidence="double is simple but a conjugation-stable ideal exists"
                        if premises[0].holds is False else None)
    return cert


def certify_tower(tower: CayleyTower, cap=DEFAULT_ELEMENT_CAP,
                  seed=DEFAULT_SEED, instance="tower") -> list:
    """Chain of doubling certificates; each level passes its verdict down as
    the hint for the next level's base.

    The chain is certified once per tower object and ``(cap, seed)``: the
    label is not part of the cache key, because no premise or verdict
    depends on it.  Each call returns fresh copies labelled
    ``f"{instance}/level-{k}"`` for k = 1, 2, ...
    """
    cache = getattr(tower, "_cert_cache", None)
    if cache is None:
        cache = tower._cert_cache = {}
    key = (cap, seed)
    if key not in cache:
        certs = []
        hint = "Simple"  # level 0 is the scalar field itself
        for cd in tower.doublings:
            cert = certify_cayley(cd, base_hint=hint, cap=cap, seed=seed)
            certs.append(cert)
            hint = "Simple" if (cert.verdict == "Simple" and not cert.conditional) else None
        cache[key] = certs
    return [replace(cert, instance=f"{instance}/level-{k}")
            for k, cert in enumerate(cache[key], start=1)]


# ---------------------------------------------------------------------------
# twisted group rings
# ---------------------------------------------------------------------------

def certify_twisted(tw: CrossedProduct, cap=DEFAULT_ELEMENT_CAP,
                    seed=DEFAULT_SEED, instance="") -> Certificate:
    """A twisted group ring over an abelian group with simple base and simple
    base-center is simple provided every non-identity g admits an h with
    alpha(g,h) - alpha(h,g) a unit."""
    cat = tw.system.cat
    obj = cat.objects[0]
    B = tw.system.base[obj]
    premises = [Premise("the group is abelian", cat.is_abelian_group()),
                _simple_premise("the base ring is simple", _simplicity(B, cap=cap, seed=seed)),
                _simple_premise("the center of the base is simple",
                                _simplicity(center(B).as_ring()[0], cap=cap, seed=seed))]
    e = cat.identity[obj]
    witnesses = {}
    missing = []
    for g in cat.morphisms:
        if g == e:
            continue
        found = None
        for h in cat.morphisms:
            if h == e:
                continue
            diff = tw.system.alpha_at(g, h) - tw.system.alpha_at(h, g)
            if not diff.is_zero() and B.is_unit(diff):
                found = h
                break
        if found is None:
            missing.append(g)
        else:
            witnesses[g] = found
    premises.append(Premise("every non-identity g has h with alpha(g,h)-alpha(h,g) a unit",
                            not missing, missing or witnesses))
    cert = Certificate(instance, "twisted-group",
                       "anticommutative enough cocycle over a simple base forces simplicity",
                       premises, None, meta={"cap": cap, "seed": seed})
    if not cert.failed_premises():
        cert.verdict = "Simple"
    _oracle_cross_check(cert, tw.ring, cap, seed)
    return cert


# ---------------------------------------------------------------------------
# matrix rings
# ---------------------------------------------------------------------------

def certify_matrix(mr: CrossedProduct, cap=DEFAULT_ELEMENT_CAP,
                   seed=DEFAULT_SEED, instance="") -> Certificate:
    """A matrix ring is simple iff every diagonal base ring is simple; a
    non-simple base yields an explicit proper ideal of the matrix ring."""
    cat = mr.system.cat
    premises = []
    bad = None
    for i in cat.objects:
        premise = _simple_premise(f"base ring at index {i} is simple",
                                  _simplicity(mr.system.base[i], cap=cap, seed=seed))
        premises.append(premise)
        if premise.holds is False and bad is None and _proper(premise.detail):
            bad = (i, premise.detail)
    cert = Certificate(instance, "matrix",
                       "a matrix ring is simple iff every diagonal base ring is simple",
                       premises, None, meta={"cap": cap, "seed": seed, "iff": True})
    J = None
    if bad is not None:
        i, witness_ideal = bad
        J = ideal_closure(mr.ring, [mr.embed(cat.identity[i], v)
                                    for v in witness_ideal.spanning()])
        proper = _proper(J)
        cert.notes += (f"witness: matrix ideal over the non-simple base at {i} "
                       f"(proper={proper})",)
        cert.verdict = "NotSimple" if proper else None
    elif not cert.failed_premises():
        cert.verdict = "Simple"
    _oracle_cross_check(cert, mr.ring, cap, seed, evidence=J)
    return cert


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def faithfulness_witness_ideal(dyn: DynamicsRing):
    """For g acting trivially, the span of b(u_h - u_hg): a proper nonzero
    ideal (coefficient sums along cosets of g vanish).  Found once per ring
    object, which keeps it (None for a faithful action).

    The span is the ideal with no closure.  As g acts trivially, u_g
    commutes with the base, so the two-sided ideal R(1 − u_g)R is spanned
    by e_x u_h (1 − u_g) e_y u_h' = e_x u_h e_y (1 − u_g) u_h', which is 0
    or e_x u_h (1 − u_g) u_h' = e_x u_hh' − e_x u_hgh': the generators
    :func:`_faithfulness_witness_ideal` lists, so one rref of them is it."""
    if not hasattr(dyn, "_faithfulness_witness"):
        dyn._faithfulness_witness = _faithfulness_witness_ideal(dyn)
    return dyn._faithfulness_witness


def _faithfulness_witness_ideal(dyn: DynamicsRing):
    cat = dyn.system.cat
    e = cat.identity[cat.objects[0]]
    gbad = next((g for g in cat.morphisms if g != e and dyn.action[g] == dyn.action[e]),
                None)
    if gbad is None:
        return None
    # e_x u_hh' - e_x u_hgh' for every basis index x of the base, once per
    # distinct pair of blocks (hh', hgh')
    offs = np.array(list(dict.fromkeys(
        (dyn.offsets[cat.compose(h, hp)], dyn.offsets[cat.compose(h, cat.compose(gbad, hp))])
        for h in cat.morphisms for hp in cat.morphisms)))
    r = np.arange(len(offs) * dyn.npoints)
    pair, x = np.divmod(r, dyn.npoints)
    rows = np.zeros((r.size, dyn.ring.dim), dtype=np.int64)
    rows[r, offs[pair, 0] + x] = 1
    rows[r, offs[pair, 1] + x] = -1
    return IdealBasis(dyn.ring, subspace_from_vectors(dyn.ring, rows), check=False)


def minimality_witness_ideal(dyn: DynamicsRing):
    """Functions vanishing on a proper invariant subset, crossed with the
    group: a proper nonzero ideal when the action is not minimal (None when
    it is).  The subset is the complement S of the orbit of point 0, which
    the ring keeps.  The span of the e_x u_g (x in S) is the ideal with no
    closure: S is invariant, so a product of e_x u_g with any e_y u_h, on
    either side, is 0 or an e_z u_k with z in S, and one rref of those rows
    is it.  Found once per ring object, which keeps it."""
    if not hasattr(dyn, "_minimality_witness"):
        dyn._minimality_witness = None if dyn.minimal else IdealBasis(
            dyn.ring, subspace_from_vectors(dyn.ring, dyn.ring.F.eye(dyn.ring.dim)[
                [dyn.offsets[g] + x for x in range(dyn.npoints) if x not in dyn.orbit
                 for g in dyn.system.cat.morphisms]]), check=False)
    return dyn._minimality_witness


def certify_dynamics(dyn: DynamicsRing, cap=DEFAULT_ELEMENT_CAP,
                     seed=DEFAULT_SEED, instance="") -> Certificate:
    """Finite discrete dynamics: the skew group ring of an abelian group is
    simple iff the action is minimal and faithful.  Verified through the
    commutative-base iff (action-simple + maximal commutative), which holds
    for every group, with the premise equivalences themselves checked on the
    instance; for a non-abelian group a failed equivalence is a failed
    premise, not a defect."""
    ring = dyn.ring
    cat = dyn.system.cat
    B = dyn.base_subring()
    premises = [Premise("the group is abelian", cat.is_abelian_group()),
                Premise("the base (functions on the space) is commutative",
                        B.is_commutative())]
    g_simple = is_G_simple(dyn, cap)
    premises.append(Premise("the base is action-simple", g_simple.holds,
                            g_simple.deferred_witness))
    if g_simple.holds != dyn.minimal:
        raise CriterionDisagreement("action-simplicity must match minimality on finite sets")
    premises.append(Premise("action-simple iff minimal (checked both ways)", True,
                            f"minimal={dyn.minimal}"))
    mc = is_maximal_commutative(ring, B)
    premises.append(Premise("the base is maximal commutative", mc))
    # maximal commutativity = fixed-point-free action; it implies faithful.
    # For an abelian group minimal+faithful forces it (a faithful transitive
    # abelian action is regular), so the conjunctions agree instance by
    # instance; for any other group they need not (S3 on 3 points), and the
    # verdict rests on action-simple and maximal commutative alone
    if mc and not dyn.faithful:
        raise CriterionDisagreement("maximal commutativity must imply faithfulness")
    agree = (g_simple.holds and mc) == (dyn.minimal and dyn.faithful)
    if cat.is_abelian_group():
        if dyn.minimal and dyn.faithful and not mc:
            raise CriterionDisagreement("minimal+faithful must force maximal commutativity")
        if not agree:
            raise CriterionDisagreement("premise conjunction must match minimal+faithful")
    premises.append(Premise("action-simple and maximal commutative iff minimal "
                            "and faithful (checked on the instance)", agree,
                            f"faithful={dyn.faithful}"))
    verdict = "Simple" if (g_simple.holds and mc) else "NotSimple"
    cert = Certificate(instance, "dynamics",
                       "the skew group ring of a finite system is simple iff the "
                       "action is minimal and faithful",
                       premises, verdict,
                       meta={"cap": cap, "seed": seed, "iff": True,
                             "minimal": dyn.minimal, "faithful": dyn.faithful})
    # an explicit ideal: the non-faithful one when the action is not
    # faithful, else the non-minimal one
    evidence = None
    if not dyn.faithful:
        evidence = faithfulness_witness_ideal(dyn)
        cert.notes += (f"non-faithful witness ideal proper and nonzero: {_proper(evidence)}",)
        if not _proper(evidence):
            raise CriterionDisagreement("non-faithful witness ideal must be proper and nonzero")
    if not dyn.minimal:
        J = minimality_witness_ideal(dyn)
        cert.notes += (f"non-minimal witness ideal proper and nonzero: {_proper(J)}",)
        evidence = evidence or J
    _oracle_cross_check(cert, ring, cap, seed, evidence=evidence)
    return cert


# ---------------------------------------------------------------------------
# the pipeline of a built object
# ---------------------------------------------------------------------------

def certify_built(built, cap=DEFAULT_ELEMENT_CAP, seed=DEFAULT_SEED,
                  instance="") -> list:
    """The certificates of a built object's own pipeline, labelled
    ``instance``: the one map from a construction to its pipeline, and the
    one producer of certificates that ``ringlab certify`` and the corpus
    run.

    A Cayley tower gets its chain of doubling certificates
    (:func:`certify_tower`, labelled ``f"{instance}/level-{k}"``).  A
    crossed product gets one certificate, from the pipeline of its
    ``kind_tag``, or :func:`certify_crossed_product` for any other tag; a
    graded ring without a crossed system gets
    :func:`certify_groupoid_graded`.  Ore data get an ``ore-base``
    certificate, σ-δ-simplicity of the coefficient ring, with the checks of
    :func:`ringlab.ore.validate_sigma_derivation` as premises and no oracle
    (the extension is infinite).  Anything else gets none.
    """
    if isinstance(built, SigmaDerivationData):
        premises = [Premise(*item) for item in validate_sigma_derivation(built)]
        return [Certificate(instance, "ore-base",
                            "sigma-delta-simplicity of the coefficient ring", premises,
                            is_sigma_delta_simple(built, cap=cap).status)]
    if isinstance(built, CayleyTower):
        return certify_tower(built, cap=cap, seed=seed, instance=instance)
    if isinstance(built, CrossedProduct):
        # looked up at call time, so that a wrapped pipeline is the one run
        pipeline = {"twisted_group_ring": certify_twisted,
                    "matrix_ring": certify_matrix,
                    "dynamics": certify_dynamics,
                    "cayley_dickson": certify_cayley}.get(built.kind_tag,
                                                          certify_crossed_product)
        return [pipeline(built, cap=cap, seed=seed, instance=instance)]
    if isinstance(built, GradedRing):
        return [certify_groupoid_graded(built.ring, built.grading, cap=cap,
                                        seed=seed, instance=instance)]
    return []


# ---------------------------------------------------------------------------
# exhaustive survey over small finite dynamical systems
# ---------------------------------------------------------------------------

@dataclass
class DynamicsSurvey:
    instances: int = 0
    representatives: int = 0
    oracle_scans: int = 0
    density_checks: int = 0
    witness_refutations: int = 0
    transferred: int = 0
    nonfaithful_total: int = 0
    nonfaithful_witnesses: int = 0
    failures: list = dfield(default_factory=list)

    @property
    def clean(self):
        return not self.failures


def _perm_compose(p, q):
    return tuple(p[q[x]] for x in range(len(p)))


def _perm_power(p, k):
    out = tuple(range(len(p)))
    for _ in range(k):
        out = _perm_compose(p, out)
    return out


@functools.lru_cache(maxsize=None)
def _abelian_groups_upto(max_order):
    """(kind, order, group) of every abelian group of order at most
    ``max_order``, built once: the survey's helper processes inherit them."""
    from .categories import abelian_group, cyclic_group
    out = [("cyclic", n, cyclic_group(n)) for n in range(1, max_order + 1)]
    if max_order >= 4:
        out.append(("klein", 4, abelian_group((2, 2))))
    return tuple(out)


def _actions_on(kind, cat, m):
    """Every group homomorphism into the symmetric group on m points."""
    perms = list(itertools.permutations(range(m)))
    ident = tuple(range(m))
    if kind == "cyclic":
        n = len(cat.morphisms)
        for p in perms:
            if _perm_power(p, n) == ident:
                yield {k: _perm_power(p, k) for k in cat.morphisms}
    else:  # klein four-group, elements are bit pairs
        invs = [p for p in perms if _perm_compose(p, p) == ident]
        for p in invs:
            for q in invs:
                if _perm_compose(p, q) == _perm_compose(q, p):
                    yield {(a, b): _perm_compose(_perm_power(p, a), _perm_power(q, b))
                           for (a, b) in cat.morphisms}


@functools.lru_cache(maxsize=None)
def _relabelings(m):
    """Every permutation of m points, in ``itertools.permutations`` order, as
    the rows of one array, and the array of their inverses."""
    perms = np.array(list(itertools.permutations(range(m))), dtype=np.int64).reshape(-1, m)
    return perms, np.argsort(perms, axis=1)


def _conjugacy_key(action, morphisms, m):
    """Canonical form of an action under relabeling of the points, and the
    relabeling pi that gives it: the one-action call of
    :func:`_conjugacy_keys`."""
    return _conjugacy_keys([action], morphisms, m)[0]


def _conjugacy_keys(actions, morphisms, m):
    """(key, pi) for each action of ``actions`` on m points: the least
    pi ∘ s ∘ pi^-1 over pi in S_m, and the first pi in
    ``itertools.permutations`` order among those that give it.  The keys of
    every action under all m! relabelings are one array, sorted in one
    stable lexsort with the action first: the first row of each action's
    run is its least key, from the first relabeling that gives it."""
    perms, invs = _relabelings(m)
    s = np.array([[action[g] for g in morphisms] for action in actions],
                 dtype=np.int64).reshape(len(actions), len(morphisms), m)
    # keys[a, k, g·m + x] = perms[k, s[a, g, invs[k, x]]]
    moved = s[:, :, invs].transpose(0, 2, 1, 3).reshape(len(actions), len(perms), -1)
    keys = np.take_along_axis(np.broadcast_to(perms, moved.shape[:2] + (m,)), moved, axis=2)
    rows = keys.reshape(-1, keys.shape[2])
    action = np.repeat(np.arange(len(actions)), len(perms))
    order = np.lexsort(np.vstack([rows.T[::-1], action]))
    first = order[::len(perms)] - np.arange(len(actions)) * len(perms)
    return [(tuple(map(tuple, keys[a, k].reshape(len(morphisms), m).tolist())),
             tuple(perms[k].tolist())) for a, k in enumerate(first.tolist())]


def _verify_conjugate_isomorphisms(dyns, pis, pairs, m):
    """For each pair (r, k) of indices into ``dyns``, systems over one
    group and m points whose actions have the same key: whether the
    relabeling pis[r]^-1 ∘ pis[k], which conjugates the action of dyns[k]
    onto that of dyns[r], induces a basis relabeling that transports the
    structure constants exactly.  One gather of the stacked constants of
    as many pairs as ``CONSTANTS_CAP`` admits."""
    if not pairs:
        return []
    offsets = np.array(list(dyns[0].offsets.values()))
    d = dyns[0].ring.dim
    inverses = np.argsort(np.array(pis, dtype=np.int64).reshape(len(pis), m), axis=1)
    where = (offsets[:, None] + np.arange(m)).ravel()
    per = CONSTANTS_CAP // d ** 3
    out = []
    for chunk in (pairs[at:at + per] for at in range(0, len(pairs), per)):
        relabel = np.array([inverses[r][list(pis[k])] for r, k in chunk]).reshape(-1, m)
        idx = np.empty((len(chunk), d), dtype=np.int64)
        idx[:, where] = (offsets[:, None] + relabel[:, None, :]).reshape(len(chunk), -1)
        reps = np.stack([dyns[r].ring.constants for r, _ in chunk])
        moved = reps[np.arange(len(chunk))[:, None, None, None], idx[:, :, None, None],
                     idx[:, None, :, None], idx[:, None, None, :]]
        same = moved == np.stack([dyns[k].ring.constants for _, k in chunk])
        out += same.reshape(len(chunk), -1).all(axis=1).tolist()
    return out


def _survey_block(m, max_group_order, index, p, scan_cap, seed) -> DynamicsSurvey:
    """The survey of one block: every action on ``m`` points of the group
    ``_abelian_groups_upto(max_group_order)[index]``, over F_p.  Conjugacy
    classes never cross blocks, so blocks are independent.

    The block's actions and their conjugacy keys come first.  Its rings are
    built as one stack (:func:`dynamics_skew_group_rings`), and every
    conjugate's relabeling onto its class representative, the first action
    with its key, is checked in one gather of their constants
    (:func:`_verify_conjugate_isomorphisms`).  The actions are then
    surveyed in order, so the counts and ``failures`` read as they would
    one action at a time."""
    kind, order, cat = _abelian_groups_upto(max_group_order)[index]
    morphisms = list(cat.morphisms)
    actions = list(_actions_on(kind, cat, m))
    keys, pis = zip(*_conjugacy_keys(actions, morphisms, m))
    dyns = dynamics_skew_group_rings(m, cat, actions, linalg.GF(p))
    first = {}
    reps = [first.setdefault(key, k) for k, key in enumerate(keys)]
    conjugates = [(r, k) for k, r in enumerate(reps) if r != k]
    verified = dict(zip(conjugates, _verify_conjugate_isomorphisms(dyns, pis, conjugates, m)))
    survey = DynamicsSurvey()
    decided_at = {}
    for k, dyn in enumerate(dyns):
        survey.instances += 1
        expected = dyn.minimal and dyn.faithful
        if not dyn.faithful:
            survey.nonfaithful_total += 1
            if _proper(faithfulness_witness_ideal(dyn)):
                survey.nonfaithful_witnesses += 1
            else:
                survey.failures.append(
                    (m, kind, p, "non-faithful witness ideal not proper/nonzero"))
        r = reps[k]
        if r != k:
            rep_dyn = dyns[r]
            if (rep_dyn.minimal, rep_dyn.faithful) != (dyn.minimal, dyn.faithful):
                survey.failures.append((m, kind, p, "conjugate flags differ"))
                continue
            if not verified[r, k]:
                survey.failures.append((m, kind, p, "conjugacy isomorphism failed"))
                continue
            survey.transferred += 1
            if decided_at[r] != expected:
                survey.failures.append((m, kind, p, "transferred verdict mismatch"))
            continue
        survey.representatives += 1
        cert = certify_dynamics(dyn, cap=scan_cap, seed=seed,
                                instance=f"dyn({m},{kind}{order},F{p})")
        if cert.oracle == "disagrees":
            survey.failures.append((m, kind, p, "pipeline/oracle disagreement"))
        over_cap = dyn.ring.size() > scan_cap
        if over_cap and not expected:
            J = (faithfulness_witness_ideal(dyn) if not dyn.faithful
                 else minimality_witness_ideal(dyn))
            decided = not _proper(J)
            survey.witness_refutations += 1
        else:
            # the certificate's oracle cross-check cached this verdict; over
            # the cap it came from the F_p test
            decided = is_simple(dyn.ring, cap=scan_cap, seed=seed).holds is True
            if over_cap:
                survey.density_checks += 1
            else:
                survey.oracle_scans += 1
        if decided != expected:
            survey.failures.append(
                (m, kind, p, f"simple={decided} but minimal+faithful={expected}"))
        if cert.verdict != ("Simple" if expected else "NotSimple"):
            survey.failures.append((m, kind, p, "pipeline verdict mismatch"))
        decided_at[k] = decided
    return survey


def survey_finite_dynamics(max_points=4, max_group_order=6, field_orders=(2, 3),
                           scan_cap=2 ** 15, seed=DEFAULT_SEED) -> DynamicsSurvey:
    """Exhaustively check "simple iff minimal and faithful" over every action
    of every abelian group of order at most ``max_group_order`` on at most
    ``max_points`` points, over the given prime fields.

    Negative cases are refuted by explicit witness ideals (any size);
    positive cases are confirmed by :func:`is_simple`, whose F_p decision
    (Norton's test, ``linalg.irreducible_modp``) runs first at any size.
    The certificates' oracle cross-checks read only the verdict: on a ring
    that is not simple, the proper submodule of Norton's test decides it,
    under ``scan_cap`` and over it, and no line is walked for a witness.
    Conjugate actions transfer their verdict along a verified ring
    isomorphism.

    The survey splits into one block per (points, group, field)
    (:func:`_survey_block`); conjugate actions share their points, group and
    field, so no block reads another.  The blocks run on a pool of forked
    processes, one per CPU this process may use (``os.sched_getaffinity``;
    one where the platform cannot tell) and at most one per block, largest
    ring dimension m·|G| first; with one CPU they run in this process.  The
    helpers are forked, not spawned, so that they start with ringlab
    imported and the groups built.  The partial surveys are merged in block
    order, (points, group, field), so the counts and the ``failures`` list
    do not depend on the number of CPUs, and no option selects it.  An
    error raised in a block reaches the caller with its type and message,
    and the pool is shut down and joined before the call returns or raises.
    """
    groups = _abelian_groups_upto(max_group_order)
    blocks = [(m, max_group_order, i, p, scan_cap, seed)
              for m in range(1, max_points + 1)
              for i in range(len(groups))
              for p in field_orders]
    # largest ring dimension m·|G| first, so that no large block starts last
    ordered = sorted(blocks, key=lambda b: b[0] * groups[b[2]][1], reverse=True)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(blocks))
    if workers <= 1:
        parts = list(itertools.starmap(_survey_block, ordered))
    else:
        # imported here: at module level it would cost every ``import ringlab``
        import multiprocessing
        pool = multiprocessing.get_context("fork").Pool(workers)
        try:
            parts = pool.starmap(_survey_block, ordered, chunksize=1)
        finally:
            pool.terminate()
            pool.join()
    parts = dict(zip(ordered, parts))
    survey = DynamicsSurvey()
    for block in blocks:
        for f in fields(survey):
            setattr(survey, f.name, getattr(survey, f.name) + getattr(parts[block], f.name))
    return survey


# ---------------------------------------------------------------------------
# an exact simplicity decision through the regular bimodule
# ---------------------------------------------------------------------------

def simple_by_density(ring: StructureAlgebra) -> bool:
    """Exact simplicity decision for an algebra without element scans: the
    decision :func:`is_simple` reads, the whole ring's span's
    ``irreducible`` with no maps, once R·R ≠ 0.

    Ideals are the invariant subspaces of the left/right multiplication
    operators, so the ring is simple iff its square is nonzero and its
    space is an irreducible module under them.  Over F_p Norton's
    irreducibility test decides that (:func:`ringlab.linalg.irreducible_modp`),
    and answers None when none of its trials decides; over Q a simple
    reduction modulo a prime proves it, and None is the answer otherwise.
    It keeps its name because the benchmark tracer
    (``perfbench/tracer.py``) counts its calls under it.
    """
    return full_subgroup(ring).irreducible([]).holds and not ring.products_vanish()
