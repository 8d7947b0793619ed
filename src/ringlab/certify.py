"""Certificate pipelines: run a structural simplicity statement on a concrete
instance, record which premises were verified (or assumed), state the
conclusion, and cross-check it against the simplicity oracle whenever one
exists.

:func:`certify_built` produces every certificate of a built object, and
:func:`_oracle_cross_check` alone writes a simplicity certificate's oracle
fields, from the evidence a pipeline hands it (necessity, whose oracle is
A-simplicity on the same lattice, sets its own).

A certificate never asserts a conclusion from a failed premise; pipelines
built on an if-and-only-if statement may conclude in the negative from a
verified premise failure.  Oracle disagreement is fatal for corpus runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dfield, replace

import numpy as np

from . import linalg
from .constructions.crossed import CrossedProduct, _is_unit, is_G_simple
from .constructions.doubling import CayleyDoubling, CayleyTower
from .constructions.dynamics import DynamicsRing
from .errors import CriterionDisagreement, InfiniteScalarField, TooLarge
from .gradings import (GradedRing, Grading, grading_flags,
                       graded_ideal_associativity, support_degree_map,
                       verify_degree_map)
from .ideals import (DEFAULT_ELEMENT_CAP, DEFAULT_SEED, IdealBasis, Subring,
                     center, centralizer, check_ideal_associativity,
                     enumerate_ideals, enumerate_subring_ideals, ideal_closure,
                     first_stable_ideal, identity_property, is_A_invariant,
                     is_A_simple, is_maximal_commutative, is_simple, is_stable,
                     row_ideal)
from .ore import (SigmaDerivationData, is_sigma_delta_simple,
                  validate_sigma_derivation)
from .rings import StructureAlgebra
from .subgroups import full_subgroup, product_span, triple_product_span, zero_subgroup


@dataclass
class Premise:
    name: str
    status: str                  # "verified" | "failed" | "assumed"
    detail: object = None

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
        return any(p.status == "assumed" for p in self.premises)

    def failed_premises(self):
        return [p for p in self.premises if p.status == "failed"]

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
    if v.status == "Simple" and evidence is not None:
        found = ("disagrees", evidence if isinstance(evidence, str) else v.status)
    elif v.status == "Inconclusive" and isinstance(evidence, IdealBasis) and _proper(evidence):
        found = ("agrees", "explicit proper ideal re-verified")
    elif v.status == "Inconclusive":
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
    props = ring.probe_properties()
    if not (props.commutative and props.unital and props.associative):
        return False
    v = is_simple(ring, cap=cap, seed=seed)
    if v.status != "Inconclusive":
        return v.is_simple
    return ring.F.is_field_algebra(ring, props.unit.data)


def _simple_status(ring, cap=DEFAULT_ELEMENT_CAP, seed=DEFAULT_SEED, hint=None):
    """("Simple"|"NotSimple"|"Unknown", detail) using the oracle, field
    recognition, or an explicit hint from an earlier certificate.  The
    detail of an oracle verdict is its witness ideal when NotSimple, and its
    reason when Simple ("reduction mod q" over Q, None over F_p)."""
    v = is_simple(ring, cap=cap, seed=seed)
    if v.status != "Inconclusive":
        return v.status, v.witness if v.status == "NotSimple" else v.reason
    fr = recognize_field(ring, cap=cap, seed=seed)
    if fr is True:
        return "Simple", "field"
    if hint == "Simple":
        return "Simple", "carried from an earlier certificate"
    return "Unknown", v.reason


def _premise_status(st):
    """The premise status of a simplicity status from :func:`_simple_status`."""
    return {"Simple": "verified", "NotSimple": "failed"}.get(st, "assumed")


def _proper(J):
    """Is the witness ideal J (None when there is none) proper and nonzero?"""
    return J is not None and not J.is_zero() and not J.span.is_full()


def _z_is_field(ring, cap=DEFAULT_ELEMENT_CAP, seed=DEFAULT_SEED):
    """The center as a subring plus a True/False/None field verdict."""
    z = center(ring)
    sub, _, _ = z.as_ring()
    return z, recognize_field(sub, cap=cap, seed=seed)


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
    vd = []
    for e in grading.cat.objects:
        sub, _, _ = grading.vertex_subring(e).as_ring()
        vd.append((e, _simple_status(ring_at(sub), cap=cap, seed=seed)[0]))
    ok = all(st == "Simple" for _, st in vd)
    return Premise(name, "verified" if ok else "failed", vd)


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
                            "failed" if bad else "verified",
                            bad[0] if bad else None))
    if grading is not None:
        comp = zero_subgroup(ring)
        objects = {grading.cat.identity[e] for e in grading.cat.objects}
        for g in grading.order:
            if g not in objects:
                comp = comp.join(grading.components[g])
        ok = (B.span.join(comp).is_full()
              and comp.contains_subgroup(product_span(ring, B.span, comp)))
        premises.append(Premise("B is a direct summand as a left B-module "
                                "(graded complement)",
                                "verified" if ok else "failed"))
    else:
        premises.append(Premise("B is a direct summand as a left B-module",
                                "assumed", "no grading supplied"))
    bad = [I for I in ideals_of_B if not identity_property(I, B, side="right")]
    premises.append(Premise("every ideal of B has the right identity property",
                            "failed" if bad else "verified",
                            bad[0] if bad else None))
    sv = is_simple(ring, cap=cap, seed=seed)
    premises.append(Premise("the ring is simple",
                            "verified" if sv.is_simple else "failed",
                            None if sv.is_simple else sv))
    cert = Certificate(instance, "necessity",
                       "simplicity forces the base to be invariantly simple",
                       premises, None, meta={"cap": cap, "seed": seed})
    if all(p.status in ("verified", "assumed") for p in premises):
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
    premises.append(Premise("the centralizer of B is multiplicatively closed",
                            "verified" if closed else "failed"))
    if closed:
        wit = is_A_simple(ring, C, cap=cap).witness
        premises.append(Premise("the centralizer is invariantly simple",
                                "failed" if wit else "verified", wit))
        bad = _non_invariant_meet(ring, C, cap)
        premises.append(Premise("every intersection of the centralizer with an "
                                "ideal is invariant",
                                "failed" if bad else "verified", bad))
    aca = triple_product_span(ring, full_subgroup(ring), C.span, full_subgroup(ring))
    premises.append(Premise("A·C·A = A", "verified" if aca.is_full() else "failed"))
    dm = degree_map
    if dm is None and grading is not None:
        dm = support_degree_map(grading, "center_of_A0")
        if dm.B.span != B.span:
            dm = support_degree_map(grading, "homogeneous_elements")
    if dm is None:
        premises.append(Premise("a degree map exists", "assumed",
                                "no candidate supplied"))
    else:
        dv = verify_degree_map(dm, cap=cap)
        premises.append(Premise(f"degree map valid ({dm.description})",
                                "verified" if dv.valid else "failed",
                                None if dv.valid else dv))
    cert = Certificate(instance, "sufficiency",
                       "invariantly simple centralizer with a degree map forces simplicity",
                       premises, None, meta={"cap": cap, "seed": seed})
    if all(p.status in ("verified", "assumed") for p in premises):
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
    premises = [Premise("grading over a groupoid", "verified" if cat.is_groupoid else "failed"),
                Premise("locally unital", "verified" if flags.locally_unital else "failed")]
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
        premises.append(Premise("strong grading over a connected groupoid", "verified"))
        premises.append(vertices)
        if vertices.status == "verified":
            cert.verdict = "Simple"
            cert.notes += ("variant: simple vertex subrings",)
            _oracle_cross_check(cert, ring, cap, seed)
            return cert

    ideals_of_B = enumerate_subring_ideals(ring, B, cap=cap)
    asv = is_A_simple(ring, B, ideals=ideals_of_B)
    premises.append(Premise("the object part is invariantly simple",
                            "verified" if asv.holds else "failed",
                            None if asv.holds else asv.witness))

    # variant 2: non-degenerate + maximal commutative object part
    if asv.holds and flags.nondegenerate_some_side and B.is_commutative() \
            and is_maximal_commutative(ring, B):
        bad = _non_invariant_meet(ring, B, cap)
        premises.append(Premise("grading non-degenerate on one side", "verified"))
        premises.append(Premise("object part maximal commutative", "verified"))
        premises.append(Premise("ideal intersections with the object part are invariant",
                                "failed" if bad else "verified", bad))
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
                                "verified" if gia else "failed"))
        centers = _vertex_premise(grading, "every vertex center is simple",
                                  _vertex_center, cap, seed)
        premises.append(centers)
        premises.append(Premise("groupoid locally abelian (vertex groups abelian; "
                                "interpreted)", "verified"))
        if gia and centers.status == "verified":
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
    _, wit = is_G_simple(cp, cap)
    premises.append(Premise("the base is action-simple (no nontrivial invariant ideal)",
                            "failed" if wit else "verified", wit))
    statement = "action-simple base forces simplicity"
    verdict = None
    is_iff = False
    if cat.is_group() and alpha_trivial and nonzero and all(
            p.associative and p.unital and p.commutative for p in props_b):
        is_iff = True
        statement = ("skew group ring over a commutative base: simple iff the base is "
                     "action-simple and maximal commutative")
        mc = is_maximal_commutative(ring, B)
        premises.append(Premise("the base is maximal commutative",
                                "verified" if mc else "failed"))
        verdict = "Simple" if (wit is None and mc) else "NotSimple"
    elif cat.is_group() and cat.is_abelian_group() and alpha_trivial and all(
            p.associative and p.unital for p in props_b):
        is_iff = True
        statement = ("skew group ring over an abelian group: simple iff the base is "
                     "action-simple and the center is a field")
        z, zf = _z_is_field(ring, cap=cap, seed=seed)
        premises.append(Premise("the center is a field",
                                "verified" if zf else ("failed" if zf is False else "assumed"),
                                f"center dimension {z.measure()}"))
        if zf is None:
            verdict = None
        else:
            verdict = "Simple" if (wit is None and zf) else "NotSimple"
    else:
        if wit is None and cat.is_groupoid and nonzero and B.is_commutative() \
                and is_maximal_commutative(ring, B):
            premises.append(Premise("the base is maximal commutative", "verified"))
            verdict = "Simple"
            statement = "groupoid crossed product with maximal commutative action-simple base"
        elif wit is None and cat.is_groupoid and cat.is_locally_abelian() and cat.is_connected():
            centers = _vertex_premise(cp.grading, "every vertex center is simple",
                                      _vertex_center, cap, seed)
            premises.append(centers)
            if centers.status == "verified":
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
        I = first_stable_ideal(B, None, sigma, cap=cap)
    except (TooLarge, InfiniteScalarField):
        pass
    else:
        if I is not None:
            return Premise(name, "failed", I)
        return Premise(name, "verified", "ideal enumeration")
    st, detail = _simple_status(B, cap=cap, seed=seed, hint=base_hint)
    if st == "Simple":
        return Premise(name, "verified", f"base simple ({detail})")
    factors = getattr(B, "product_factors", None)
    if factors:
        # a product of fields: the only ideals are spanned by factor blocks
        from .subgroups import subspace_from_vectors
        blocks = [subspace_from_vectors(B, np.eye(B.dim, dtype=np.int64)[off:off + dim])
                  for off, dim in factors]
        for block in blocks:
            sub, _, _ = Subring(B, block, check=False).as_ring()
            if recognize_field(sub, cap=cap, seed=seed) is not True:
                return Premise(name, "assumed", "factors not recognized as fields")
        n = len(blocks)
        for mask in range(1, 2 ** n - 1):
            span = zero_subgroup(B)
            for t in range(n):
                if mask >> t & 1:
                    span = span.join(blocks[t])
            if is_stable(span, sigma):
                return Premise(name, "failed", f"stable factor combination {mask:b}")
        return Premise(name, "verified",
                       "factor-combination scan over a product of fields "
                       "(base itself is not simple)")
    return Premise(name, "assumed", detail)


def certify_cayley(cd: CayleyDoubling, base_hint=None, cap=DEFAULT_ELEMENT_CAP,
                   seed=DEFAULT_SEED, instance="") -> Certificate:
    """A doubling is simple when its base has no conjugation-stable ideal and
    the center of the double is simple; conversely simplicity of the double
    forces conjugation-stable simplicity of the base."""
    ring = cd.ring
    premises = [_sigma_simple_premise(cd, cap, seed, base_hint=base_hint)]
    z, zf = _z_is_field(ring, cap=cap, seed=seed)
    if zf is None:
        zstatus = _premise_status(_simple_status(z.as_ring()[0], cap=cap, seed=seed)[0])
    else:
        zstatus = "verified" if zf else "failed"
    premises.append(Premise("the center of the double is simple", zstatus,
                            f"center dimension {z.measure()}"))
    cert = Certificate(instance, "doubling",
                       "conjugation-stable simple base with simple center forces simplicity",
                       premises, None,
                       meta={"cap": cap, "seed": seed}, notes=cd.notes)
    if all(p.status in ("verified", "assumed") for p in premises):
        cert.verdict = "Simple"
    # simplicity of the double forces the premise (the necessity direction)
    _oracle_cross_check(cert, ring, cap, seed,
                        evidence="double is simple but a conjugation-stable ideal exists"
                        if premises[0].status == "failed" else None)
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
    premises = [Premise("the group is abelian",
                        "verified" if cat.is_abelian_group() else "failed")]
    st, det = _simple_status(B, cap=cap, seed=seed)
    premises.append(Premise("the base ring is simple", _premise_status(st), det))
    zsub, _, _ = center(B).as_ring()
    stz, detz = _simple_status(zsub, cap=cap, seed=seed)
    premises.append(Premise("the center of the base is simple", _premise_status(stz), detz))
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
            if not diff.is_zero() and _is_unit(B, diff):
                found = h
                break
        if found is None:
            missing.append(g)
        else:
            witnesses[g] = found
    premises.append(Premise("every non-identity g has h with alpha(g,h)-alpha(h,g) a unit",
                            "failed" if missing else "verified",
                            missing or witnesses))
    cert = Certificate(instance, "twisted-group",
                       "anticommutative enough cocycle over a simple base forces simplicity",
                       premises, None, meta={"cap": cap, "seed": seed})
    if all(p.status in ("verified", "assumed") for p in premises):
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
        st, det = _simple_status(mr.system.base[i], cap=cap, seed=seed)
        premises.append(Premise(f"base ring at index {i} is simple",
                                _premise_status(st), det))
        if st == "NotSimple" and bad is None and _proper(det):
            bad = (i, det)
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
    elif all(p.status in ("verified", "assumed") for p in premises):
        cert.verdict = "Simple"
    _oracle_cross_check(cert, mr.ring, cap, seed, evidence=J)
    return cert


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def faithfulness_witness_ideal(dyn: DynamicsRing):
    """For g acting trivially, the span of b(u_h - u_hg): a proper nonzero
    ideal (coefficient sums along cosets of g vanish).  Closed once per ring
    object, which keeps it (None for a faithful action)."""
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
    return row_ideal(dyn.ring, rows)


def minimality_witness_ideal(dyn: DynamicsRing):
    """Functions vanishing on a proper invariant subset, crossed with the
    group: a proper nonzero ideal when the action is not minimal (None when
    it is).  The subset is the complement of the orbit of point 0, which
    the ring keeps; the ideal is closed once per ring object, which keeps it."""
    if not hasattr(dyn, "_minimality_witness"):
        dyn._minimality_witness = None if dyn.minimal else row_ideal(
            dyn.ring, dyn.ring.F.eye(dyn.ring.dim)[
                [dyn.offsets[g] + x for x in range(dyn.npoints) if x not in dyn.orbit
                 for g in dyn.system.cat.morphisms]])
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
    premises = [Premise("the group is abelian",
                        "verified" if cat.is_abelian_group() else "failed"),
                Premise("the base (functions on the space) is commutative",
                        "verified" if B.is_commutative() else "failed")]
    g_simple, gwit = is_G_simple(dyn, cap)
    premises.append(Premise("the base is action-simple",
                            "verified" if g_simple else "failed", gwit))
    if g_simple != dyn.minimal:
        raise CriterionDisagreement("action-simplicity must match minimality on finite sets")
    premises.append(Premise("action-simple iff minimal (checked both ways)", "verified",
                            f"minimal={dyn.minimal}"))
    mc = is_maximal_commutative(ring, B)
    premises.append(Premise("the base is maximal commutative",
                            "verified" if mc else "failed"))
    # maximal commutativity = fixed-point-free action; it implies faithful.
    # For an abelian group minimal+faithful forces it (a faithful transitive
    # abelian action is regular), so the conjunctions agree instance by
    # instance; for any other group they need not (S3 on 3 points), and the
    # verdict rests on action-simple and maximal commutative alone
    if mc and not dyn.faithful:
        raise CriterionDisagreement("maximal commutativity must imply faithfulness")
    agree = (g_simple and mc) == (dyn.minimal and dyn.faithful)
    if cat.is_abelian_group():
        if dyn.minimal and dyn.faithful and not mc:
            raise CriterionDisagreement("minimal+faithful must force maximal commutativity")
        if not agree:
            raise CriterionDisagreement("premise conjunction must match minimal+faithful")
    premises.append(Premise("action-simple and maximal commutative iff minimal "
                            "and faithful (checked on the instance)",
                            "verified" if agree else "failed",
                            f"faithful={dyn.faithful}"))
    verdict = "Simple" if (g_simple and mc) else "NotSimple"
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
        premises = [Premise(name, "verified" if ok else "failed", witness)
                    for name, ok, witness in validate_sigma_derivation(built)]
        verdict = is_sigma_delta_simple(built, cap=cap)
        return [Certificate(instance, "ore-base",
                            "sigma-delta-simplicity of the coefficient ring", premises,
                            "SigmaDeltaSimple" if verdict.simple else "NotSigmaDeltaSimple")]
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


def _abelian_groups_upto(max_order):
    from .categories import abelian_group, cyclic_group
    out = [("cyclic", n, cyclic_group(n)) for n in range(1, max_order + 1)]
    if max_order >= 4:
        out.append(("klein", 4, abelian_group((2, 2))))
    return out


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


def _conjugacy_key(action, morphisms, m):
    """Canonical form of an action under relabeling of the points, and the
    relabeling pi that gives it: the least pi ∘ s ∘ pi^-1 over pi in S_m."""
    best = None
    for pi in itertools.permutations(range(m)):
        inv = [0] * m
        for x, y in enumerate(pi):
            inv[y] = x
        key = tuple(tuple(pi[action[g][inv[x]]] for x in range(m)) for g in morphisms)
        if best is None or key < best[0]:
            best = key, pi
    return best


def _verify_conjugate_isomorphism(rep_dyn, rep_pi, dyn, pi, morphisms, m):
    """Check that the relabeling rep_pi^-1 ∘ pi, which conjugates the action
    of ``dyn`` onto that of ``rep_dyn`` when both have the same key, induces
    a basis relabeling that transports the structure constants exactly."""
    relabel = np.argsort(rep_pi)[list(pi)]
    idx = np.zeros(dyn.ring.dim, dtype=np.int64)
    for g in morphisms:
        idx[dyn.offsets[g] + np.arange(m)] = rep_dyn.offsets[g] + relabel
    moved = rep_dyn.ring.constants[np.ix_(idx, idx, idx)]
    return bool(np.array_equal(moved, dyn.ring.constants))


def survey_finite_dynamics(max_points=4, max_group_order=6, field_orders=(2, 3),
                           scan_cap=2 ** 15, seed=DEFAULT_SEED) -> DynamicsSurvey:
    """Exhaustively check "simple iff minimal and faithful" over every action
    of every abelian group of order at most ``max_group_order`` on at most
    ``max_points`` points, over the given prime fields.

    Negative cases are refuted by explicit witness ideals (any size);
    positive cases are confirmed by :func:`is_simple`, whose F_p decision
    (``linalg.norton_modp``) runs first at any size.  The certificates'
    oracle cross-checks read only the verdict: on a ring that is not
    simple, the proper submodule of Norton's test decides it, under
    ``scan_cap`` and over it, and no line is walked for a witness.
    Conjugate actions transfer their verdict along a verified ring
    isomorphism.
    """
    from .constructions.dynamics import dynamics_skew_group_ring
    survey = DynamicsSurvey()
    for m in range(1, max_points + 1):
        for kind, order, cat in _abelian_groups_upto(max_group_order):
            morphisms = list(cat.morphisms)
            for p in field_orders:
                classes = {}
                for action in _actions_on(kind, cat, m):
                    survey.instances += 1
                    key, pi = _conjugacy_key(action, morphisms, m)
                    dyn = dynamics_skew_group_ring(m, cat, action, linalg.GF(p))
                    expected = dyn.minimal and dyn.faithful
                    if not dyn.faithful:
                        survey.nonfaithful_total += 1
                        if _proper(faithfulness_witness_ideal(dyn)):
                            survey.nonfaithful_witnesses += 1
                        else:
                            survey.failures.append(
                                (m, kind, p, "non-faithful witness ideal not proper/nonzero"))
                    if key in classes:
                        rep_dyn, rep_pi, rep_simple = classes[key]
                        if (rep_dyn.minimal, rep_dyn.faithful) != (dyn.minimal, dyn.faithful):
                            survey.failures.append((m, kind, p, "conjugate flags differ"))
                            continue
                        if not _verify_conjugate_isomorphism(rep_dyn, rep_pi, dyn, pi,
                                                             morphisms, m):
                            survey.failures.append((m, kind, p, "conjugacy isomorphism failed"))
                            continue
                        survey.transferred += 1
                        if rep_simple != expected:
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
                        # the certificate's oracle cross-check cached this
                        # verdict; over the cap it came from the F_p test
                        decided = is_simple(dyn.ring, cap=scan_cap, seed=seed).is_simple
                        if over_cap:
                            survey.density_checks += 1
                        else:
                            survey.oracle_scans += 1
                    if decided != expected:
                        survey.failures.append(
                            (m, kind, p, f"simple={decided} but minimal+faithful={expected}"))
                    if cert.verdict != ("Simple" if expected else "NotSimple"):
                        survey.failures.append((m, kind, p, "pipeline verdict mismatch"))
                    classes[key] = (dyn, pi, decided)
    return survey


# ---------------------------------------------------------------------------
# an exact simplicity decision through the regular bimodule
# ---------------------------------------------------------------------------

def simple_by_density(ring: StructureAlgebra) -> bool:
    """Exact simplicity decision for an algebra without element scans: its
    field backend's ``simplicity``, the decision :func:`is_simple` reads.

    Ideals are the invariant subspaces of the left/right multiplication
    operators, so the ring is simple iff its square is nonzero and its
    space is an irreducible module under them.  Over F_p Norton's
    irreducibility test decides that (:func:`ringlab.linalg.norton_modp`),
    and answers None when none of its trials decides.  It keeps its name
    because the benchmark tracer (``perfbench/tracer.py``) counts its calls
    under it.
    """
    return ring.F.simplicity(ring)[0]
