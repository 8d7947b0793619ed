import itertools
import json

import numpy as np
import pytest

from ringlab import (GF, QQ, RingMap, cayley_dickson, cayley_tower,
                     certify_cayley, certify_crossed_product, certify_dynamics,
                     certify_groupoid_graded, certify_matrix, certify_necessity,
                     certify_sufficiency, certify_tower, certify_twisted,
                     cross_check_corpus, cyclic_group, field_algebra,
                     full_subring, matrix_ring, simple_by_density,
                     skew_group_ring, trivial_grading, zmod_ring)
from ringlab import (certify, dynamics_skew_group_ring, ideals, is_G_invariant,
                     is_G_simple, linalg)
from ringlab.categories import group_from_table
from ringlab.certify import certify_built, minimality_witness_ideal, recognize_field
from ringlab.cli import main
from ringlab.corpus import (build_f4_frobenius_ring, build_group_algebra,
                            build_m3f2_block_graded, build_nonfaithful_dynamics,
                            build_nonminimal_dynamics, build_ore_f4_frobenius,
                            build_rotation_dynamics, build_swap_dynamics, tower_q)
from ringlab.constructions import bales_twisted_ring, twisted_group_ring
from ringlab.errors import CriterionDisagreement, ValidationFailure
from ringlab.ideals import Verdict, ideal_closure, principal_ideal
from ringlab.rings import (direct_sum_algebra, full_matrix_algebra, functions_ring,
                           gf_extension, make_structure_algebra)


def test_necessity_on_frobenius_ring():
    cp = build_f4_frobenius_ring()
    cert = certify_necessity(cp.ring, cp.base_subring(), grading=cp.grading)
    assert cert.verdict == "ASimple" and cert.oracle == "agrees"
    assert all(p.status == "verified" for p in cert.premises)


def test_necessity_on_block_graded_matrix():
    built = build_m3f2_block_graded()
    m3, gr = built.ring, built.grading
    cert = certify_necessity(m3, gr.zero_part_subring(), grading=gr)
    assert cert.verdict == "ASimple" and cert.oracle == "agrees"


def test_necessity_withholds_on_z4():
    r4 = zmod_ring(4)
    cert = certify_necessity(r4, full_subring(r4), grading=trivial_grading(r4))
    assert cert.verdict is None
    failed = [p.name for p in cert.failed_premises()]
    assert failed == ["the ring is simple"]


def test_sufficiency_on_frobenius_ring():
    cp = build_f4_frobenius_ring()
    cert = certify_sufficiency(cp.ring, cp.base_subring(), grading=cp.grading)
    assert cert.verdict == "Simple" and cert.oracle == "agrees"


def test_sufficiency_on_pair_groupoid_matrix():
    mr = matrix_ring(2, field_algebra(GF(2)))
    cert = certify_sufficiency(mr.ring, mr.base_subring(), grading=mr.grading)
    assert cert.verdict == "Simple" and cert.oracle == "agrees"


def test_sufficiency_withholds_on_z4():
    r4 = zmod_ring(4)
    cert = certify_sufficiency(r4, full_subring(r4), grading=trivial_grading(r4))
    assert cert.verdict is None and cert.failed_premises()


def test_sufficiency_on_o_f3_walks_no_line(monkeypatch):
    # the centralizer of O over F_3 is O (d = 8), which Norton's test finds
    # irreducible: its lattice is 0, O without closing any of its 3,280 lines
    walks = []
    original = linalg.ModP.lines

    def counted(field, k):
        walks.append(k)
        return original(field, k)

    monkeypatch.setattr(linalg.ModP, "lines", counted)
    tw = bales_twisted_ring(GF(3), 3)
    cert = certify_sufficiency(tw.ring, tw.base_subring(), grading=tw.grading)
    assert cert.verdict == "Simple" and cert.oracle == "agrees"
    assert walks == []


def test_doubling_center_that_field_recognition_leaves_open_is_assumed():
    # the doubling of Q(√2) by α = 3 under the trivial conjugation is the
    # field Q(√2, √3), its own center: no prime of LIFT_PRIMES is inert in
    # it and the witness search finds no proper ideal, so is_simple is
    # Inconclusive, and Q has no field test above dimension 2
    b = make_structure_algebra(2, QQ, [[[1, 0], [0, 1]], [[0, 1], [2, 0]]])
    sigma = RingMap.identity(b)
    sigma.anti = True
    cd = cayley_dickson(b, sigma, b.element([3, 0]))
    assert recognize_field(ideals.center(cd.ring).as_ring()[0]) is None
    premise = certify_cayley(cd).premises[1]
    assert premise.name == "the center of the double is simple"
    assert (premise.status, premise.detail) == ("assumed", "center dimension 4")


# the reason of an Inconclusive is_simple over Q
_Q_UNDECIDED = ("infinite scalar field: no reduction mod 3, 5, 7, 11 proves the algebra "
                "simple, and no proper principal ideal was found")


def _q_sqrt2_sqrt3():
    # Q(√2, √3) as the doubling of Q(√2) by α = 3 under the trivial
    # conjugation: is_simple is Inconclusive on it, and field recognition too
    b = make_structure_algebra(2, QQ, [[[1, 0], [0, 1]], [[0, 1], [2, 0]]])
    sigma = RingMap.identity(b)
    sigma.anti = True
    return cayley_dickson(b, sigma, b.element([3, 0])).ring


def test_matrix_bases_that_no_oracle_decides_are_assumed():
    cert = certify_matrix(matrix_ring(2, _q_sqrt2_sqrt3()))
    assert [(p.status, p.detail) for p in cert.premises] == [
        ("assumed", _Q_UNDECIDED)] * 2
    assert cert.verdict == "Simple" and cert.conditional


@pytest.mark.parametrize("hint, status, detail", [
    (None, "assumed", _Q_UNDECIDED),
    ("Simple", "verified", "base simple (carried from an earlier certificate)")])
def test_an_undecided_doubling_base_is_assumed_unless_carried(hint, status, detail):
    # the doubling of Q(√2, √3) by α = 5 under the trivial conjugation:
    # its base is undecided and no product of fields, so only a hint from
    # an earlier certificate verifies the conjugation premise
    K = _q_sqrt2_sqrt3()
    tau = RingMap.identity(K)
    tau.anti = True
    cd = cayley_dickson(K, tau, K.scalar_mul(5, K.probe_properties().unit))
    premise = certify._sigma_simple_premise(cd, ideals.DEFAULT_ELEMENT_CAP,
                                            ideals.DEFAULT_SEED, base_hint=hint)
    assert (premise.status, premise.detail) == (status, detail)


def test_doubling_premise_is_decided_past_the_cap():
    # the conjugation premise asks Norton's test at any size over F_p: past
    # the cap, the base of each level gets a decided premise, never "assumed"
    f2 = certify_tower(cayley_tower(GF(2), 3), cap=5)
    premise = f2[2].premises[0]
    assert premise.status == "failed"
    assert 0 < premise.detail.measure() < 4 and not premise.detail.span.is_full()
    f3 = certify_tower(cayley_tower(GF(3), 3), cap=5)
    assert [c.premises[0].detail for c in f3] == ["ideal enumeration"] * 3
    assert all(c.verdict == "Simple" and c.oracle == "agrees" for c in f3)


def test_the_21_point_system_is_certified_past_the_cap():
    # Z3 acting on 21 points as seven 3-cycles, over F_2: the base has 2^21
    # elements, past the default cap; Norton's test finds a G-invariant
    # ideal, and the certificate is NotSimple with an agreeing oracle
    cycles = {k: tuple(3 * (x // 3) + (x + k) % 3 for x in range(21)) for k in range(3)}
    dyn = dynamics_skew_group_ring(21, cyclic_group(3), cycles, GF(2))
    v = is_G_simple(dyn)
    assert not v.holds and v.witness.measure() == 3 and is_G_invariant(dyn, v.witness)
    cert = certify_dynamics(dyn)
    assert cert.verdict == "NotSimple" and cert.oracle == "agrees"
    assert cert.premises[2].status == "failed"


def test_the_base_span_contracts_its_rows_with_the_constants_once(monkeypatch):
    # the commutativity premise (the span's products), the action-simple
    # premise (its stable closures) and maximal commutativity (its
    # centralizer) all read one stack of left multiplications of B's rows
    cycles = {k: tuple(3 * (x // 3) + (x + k) % 3 for x in range(21)) for k in range(3)}
    dyn = dynamics_skew_group_ring(21, cyclic_group(3), cycles, GF(2))
    calls = []
    left = linalg.ModP.left_multiplications

    def counted(self, alg, X):
        calls.append(len(X))
        return left(self, alg, X)

    monkeypatch.setattr(linalg.ModP, "left_multiplications", counted)
    cert = certify_dynamics(dyn)
    assert cert.verdict == "NotSimple"
    assert calls == [21]


def test_sufficiency_with_a_zero_centralizer():
    # e0·e1 = e0 and all other products 0: the center C is 0, whose only
    # ideal is 0, and A·C·A = 0
    A = make_structure_algebra(2, GF(2), [[[0, 0], [1, 0]], [[0, 0], [0, 0]]])
    cert = certify_sufficiency(A, full_subring(A))
    status = {p.name: p.status for p in cert.premises}
    assert status["the centralizer is invariantly simple"] == "verified"
    assert status["A·C·A = A"] == "failed"
    assert cert.verdict is None and cert.oracle == "unavailable"


def test_groupoid_graded_variants():
    built = build_m3f2_block_graded()
    m3, gr = built.ring, built.grading
    cert = certify_groupoid_graded(m3, gr)
    assert cert.verdict == "Simple" and cert.oracle == "agrees"
    assert cert.notes == ("variant: simple vertex centers",)
    mr = matrix_ring(2, field_algebra(GF(2)))
    cert = certify_groupoid_graded(mr.ring, mr.grading)
    assert cert.verdict == "Simple"
    assert cert.notes == ("variant: simple vertex subrings",)


def test_groupoid_graded_maximal_commutative_variant():
    # a minimal faithful dynamics ring: its object part, the functions, is
    # invariantly simple and maximal commutative; a non-minimal one's is not
    for dyn in (build_rotation_dynamics(), build_swap_dynamics()):
        cert = certify_groupoid_graded(dyn.ring, dyn.grading)
        assert cert.verdict == "Simple" and cert.oracle == "agrees"
        assert cert.notes == ("variant: maximal commutative object part",)
    dyn = build_nonminimal_dynamics()
    cert = certify_groupoid_graded(dyn.ring, dyn.grading)
    premise = next(p for p in cert.premises if p.name == "the object part is invariantly simple")
    assert premise.status == "failed"


def test_groupoid_graded_withholds_on_bad_vertex():
    # disconnected two-object groupoid: one simple vertex, one not
    from ringlab.categories import FiniteCategory
    from ringlab.rings import truncated_polynomial_ring
    from ringlab.subgroups import subspace_from_vectors
    from ringlab.gradings import Grading
    cat = FiniteCategory(("a", "b"), ("ea", "eb"),
                         {"ea": "a", "eb": "b"}, {"ea": "a", "eb": "b"},
                         {("ea", "ea"): "ea", ("eb", "eb"): "eb"},
                         {"a": "ea", "b": "eb"},
                         inverse={"ea": "ea", "eb": "eb"})
    dull = truncated_polynomial_ring(2, 2)
    amb = direct_sum_algebra([field_algebra(GF(2)), dull])
    comps = {"ea": subspace_from_vectors(amb, [[1, 0, 0]]),
             "eb": subspace_from_vectors(amb, [[0, 1, 0], [0, 0, 1]])}
    gr = Grading(amb, cat, comps)
    cert = certify_groupoid_graded(amb, gr)
    assert cert.verdict is None


def test_crossed_product_iff_negative():
    ga = build_group_algebra(2)
    cert = certify_crossed_product(ga)
    assert cert.verdict == "NotSimple" and cert.oracle == "agrees"
    ga3 = build_group_algebra(3)
    cert = certify_crossed_product(ga3)
    assert cert.verdict == "NotSimple" and cert.oracle == "agrees"


def test_crossed_product_rotation_dynamics_ring():
    rot = build_rotation_dynamics()
    cert = certify_crossed_product(rot)
    assert cert.verdict == "Simple" and cert.oracle == "agrees"


def test_crossed_product_groupoid_branches():
    # M2 over a pair groupoid: the base F2 × F2 is maximal commutative; over
    # the quaternions H(F3) it is not commutative, and the vertex centers
    # (F3) are simple
    for base, statement in (
            (field_algebra(GF(2)),
             "groupoid crossed product with maximal commutative action-simple base"),
            (cayley_tower(GF(3), 2).rings[2],
             "locally abelian connected groupoid crossed product with simple vertex centers")):
        cert = certify_crossed_product(matrix_ring(2, base))
        assert cert.statement == statement
        assert cert.verdict == "Simple" and cert.oracle == "agrees"


def _s3_on_three_points():
    """S3 as permutations of 0, 1, 2, composed right to left, and its
    natural and regular actions."""
    els = tuple(itertools.permutations(range(3)))
    table = {(g, h): tuple(g[x] for x in h) for g in els for h in els}
    inverse = {g: tuple(sorted(range(3), key=g.__getitem__)) for g in els}
    s3 = group_from_table(els, table, (0, 1, 2), inverse, name="S3")
    pos = {g: i for i, g in enumerate(els)}
    regular = {g: tuple(pos[table[g, h]] for h in els) for g in els}
    return s3, {g: g for g in els}, regular


@pytest.mark.parametrize("p", [2, 3])
def test_dynamics_over_a_non_abelian_group(p):
    # S3 on 3 points is minimal and faithful but not free, so the base is not
    # maximal commutative and the ring is not simple: the equivalence with
    # minimal+faithful fails as a premise, not as a defect
    s3, natural, regular = _s3_on_three_points()
    cert = certify_dynamics(dynamics_skew_group_ring(3, s3, natural, GF(p)))
    assert cert.verdict == "NotSimple" and cert.oracle == "agrees"
    status = {q.name: q.status for q in cert.premises}
    assert status["the group is abelian"] == "failed"
    assert status["the base is action-simple"] == "verified"
    assert status["the base is maximal commutative"] == "failed"
    assert status["action-simple and maximal commutative iff minimal and faithful "
                  "(checked on the instance)"] == "failed"
    cert = certify_dynamics(dynamics_skew_group_ring(6, s3, regular, GF(p)))
    assert cert.verdict == "Simple" and cert.oracle == "agrees"


def test_tower_certificates_unconditional():
    certs = certify_tower(tower_q(4))
    assert [c.verdict for c in certs] == ["Simple"] * 4
    assert all(not c.conditional for c in certs)
    # the oracle proves each level simple by reduction mod 3
    assert all(c.oracle == "agrees" for c in certs)
    assert [c.premises[0].detail for c in certs] == ["base simple (reduction mod 3)"] * 4


def _count_certify_cayley(monkeypatch):
    calls = []
    real = certify.certify_cayley

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(certify, "certify_cayley", counted)
    return calls


def test_tower_certificates_are_relabelled_not_recomputed(monkeypatch):
    tower = cayley_tower(GF(3), 2)
    first = certify_tower(tower, instance="first")
    calls = _count_certify_cayley(monkeypatch)
    second = certify_tower(tower, instance="second")
    assert calls == []
    assert [c.instance for c in second] == ["second/level-1", "second/level-2"]
    for a, b in zip(first, second):
        ja, jb = a.to_json(), b.to_json()
        assert (ja.pop("instance"), jb.pop("instance")) == (a.instance, b.instance)
        assert ja == jb


def test_corpus_certifies_each_tower_level_once(monkeypatch):
    from ringlab import corpus
    # start from a fresh process's state: nothing built, so nothing certified
    monkeypatch.setattr(corpus, "_BUILT", {})
    monkeypatch.setattr(corpus, "_TOWER_Q", {})
    calls = _count_certify_cayley(monkeypatch)
    assert cross_check_corpus().ok
    assert len(calls) == 4 and len(set(map(id, calls))) == 4


def test_sigma_simple_but_not_simple_base():
    # two copies of the 2-dim field extension swapped by sigma: no stable
    # nontrivial ideal even though the base is far from simple
    qi = cayley_tower(QQ, 1).rings[1]
    B = direct_sum_algebra([qi, qi])
    swap = [[0] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            swap[i][2 + i] = 1
            swap[2 + i][i] = 1
    sigma = RingMap(B, B, swap)
    sigma.anti = True  # commutative base: also an anti-automorphism
    alpha = B.scalar_mul(-1, B.probe_properties().unit)
    cd = cayley_dickson(B, sigma, alpha)
    cert = certify_cayley(cd)
    first = cert.premises[0]
    assert first.status == "verified"
    assert "not simple" in str(first.detail)


def test_sigma_fixing_each_factor_fails_the_premise():
    # with sigma = id each field factor of Q × Q and of Q(i) × Q(i) is
    # conjugation-stable
    for base in (direct_sum_algebra([field_algebra(QQ)] * 2),
                 direct_sum_algebra([cayley_tower(QQ, 1).rings[1]] * 2)):
        sigma = RingMap.identity(base)
        sigma.anti = True
        cd = cayley_dickson(base, sigma, base.scalar_mul(-1, base.probe_properties().unit))
        first = certify_cayley(cd).premises[0]
        assert (first.status, first.detail) == ("failed", "stable factor combination 1")


def test_twisted_certificates():
    tw = bales_twisted_ring(QQ, 2)
    cert = certify_twisted(tw)
    assert cert.verdict == "Simple"
    wit = [p for p in cert.premises if "alpha" in p.name][0]
    assert wit.status == "verified"
    tw4 = bales_twisted_ring(QQ, 4)
    assert certify_twisted(tw4).verdict == "Simple"
    b = field_algebra(QQ)
    trivial = twisted_group_ring(b, cyclic_group(2), lambda g, h: 1)
    cert = certify_twisted(trivial)
    assert cert.verdict is None
    assert any(p.status == "failed" and "alpha" in p.name for p in cert.premises)


def test_matrix_certificates():
    cert = certify_matrix(matrix_ring(2, field_algebra(GF(3))))
    assert cert.verdict == "Simple" and cert.oracle == "agrees"
    cert = certify_matrix(matrix_ring(2, zmod_ring(4)))
    assert cert.verdict == "NotSimple" and cert.oracle == "agrees"
    o3 = cayley_tower(GF(3), 3).rings[3]
    cert = certify_matrix(matrix_ring(2, o3))
    assert cert.verdict == "Simple"
    # 3^32 elements: over the cap, Norton's test decides
    assert cert.oracle == "agrees"


def test_abelian_group_center_field_branch():
    # noncommutative associative base over an abelian group: the pipeline
    # decides through "action-simple and the center is a field"
    import numpy as np
    from ringlab import skew_group_ring
    h3 = cayley_tower(GF(3), 2).rings[2]
    group_ring = skew_group_ring(h3, cyclic_group(2),
                                 {g: RingMap.identity(h3) for g in (0, 1)})
    cert = certify_crossed_product(group_ring)
    assert "center is a field" in cert.statement
    assert cert.verdict == "NotSimple" and cert.oracle == "agrees"
    conj_i = RingMap(h3, h3, np.diag(np.array([1, 1, 2, 2], dtype=np.int64)))
    skew = skew_group_ring(h3, cyclic_group(2),
                           {0: RingMap.identity(h3), 1: conj_i})
    cert = certify_crossed_product(skew)
    assert "center is a field" in cert.statement
    assert cert.verdict == "Simple" and cert.oracle == "agrees"


def test_dynamics_certificates():
    cert = certify_dynamics(build_rotation_dynamics())
    assert cert.verdict == "Simple" and cert.oracle == "agrees"
    cert = certify_dynamics(build_nonfaithful_dynamics())
    assert cert.verdict == "NotSimple" and cert.oracle == "agrees"
    assert any("non-faithful witness" in n for n in cert.notes)
    cert = certify_dynamics(build_nonminimal_dynamics())
    assert cert.verdict == "NotSimple" and cert.oracle == "agrees"


def test_minimality_witness_reads_the_orbit_and_is_closed_once(monkeypatch):
    dyn = build_nonminimal_dynamics()
    assert dyn.orbit == {0, 1} and not dyn.minimal
    closures = []
    closure = linalg.ModP.closure

    def counted(F, ring, seed_rows):
        closures.append(ring)
        return closure(F, ring, seed_rows)

    monkeypatch.setattr(linalg.ModP, "closure", counted)
    first = minimality_witness_ideal(dyn)
    assert first.measure() == 2 and minimality_witness_ideal(dyn) is first
    # its rows already span the ideal: one rref, no closure
    assert len(closures) == 0
    assert minimality_witness_ideal(build_rotation_dynamics()) is None


def test_certify_built_picks_each_pipeline():
    cases = [(build_group_algebra(2), ["crossed-product"]),
             (build_rotation_dynamics(), ["dynamics"]),
             (matrix_ring(2, zmod_ring(4)), ["matrix"]),
             (bales_twisted_ring(GF(3), 2), ["twisted-group"]),
             (cayley_tower(GF(3), 2), ["doubling", "doubling"]),
             (cayley_tower(GF(3), 1).doublings[0], ["doubling"]),
             (build_m3f2_block_graded(), ["groupoid-graded"]),
             (build_ore_f4_frobenius(), ["ore-base"]),
             (zmod_ring(4), [])]
    for built, pipelines in cases:
        certs = certify_built(built, instance="x")
        assert [c.pipeline for c in certs] == pipelines
        assert all(c.oracle != "disagrees" for c in certs)
    assert [c.instance for c in certify_built(cayley_tower(GF(3), 2), instance="x")] \
        == ["x/level-1", "x/level-2"]


CONTRADICTION = "double is simple but a conjugation-stable ideal exists"
_Z4 = zmod_ring(4)
_PROPER = ideal_closure(_Z4, [_Z4.element(2)])            # {0, 2}
_WHOLE = principal_ideal(_Z4, _Z4.element(1))


@pytest.mark.parametrize("status, verdict, evidence, oracle, detail", [
    # an oracle Simple against the pipeline's evidence disagrees
    ("Simple", "NotSimple", _PROPER, "disagrees", "Simple"),
    ("Simple", None, _WHOLE, "disagrees", "Simple"),
    ("Simple", None, CONTRADICTION, "disagrees", CONTRADICTION),
    # an undecided oracle is settled only by a proper nonzero ideal
    ("Inconclusive", "NotSimple", _PROPER, "agrees", "explicit proper ideal re-verified"),
    ("Inconclusive", None, _WHOLE, "unavailable", "why not"),
    ("Inconclusive", None, CONTRADICTION, "unavailable", "why not"),
    ("Inconclusive", "Simple", None, "unavailable", "why not"),
    # otherwise a concluded certificate meets the oracle's status
    ("Simple", "Simple", None, "agrees", "Simple"),
    ("NotSimple", "NotSimple", _PROPER, "agrees", "NotSimple"),
    ("NotSimple", "Simple", None, "disagrees", "NotSimple"),
    # and a withheld one leaves the oracle unavailable
    ("NotSimple", None, CONTRADICTION, "unavailable",
     "oracle says NotSimple; pipeline withheld its conclusion"),
    ("Simple", None, None, "unavailable", "oracle says Simple; pipeline withheld its conclusion"),
])
def test_oracle_rule(monkeypatch, status, verdict, evidence, oracle, detail):
    monkeypatch.setattr(certify, "is_simple",
                        lambda ring, cap, seed: _stub_verdict(status, "why not"))
    cert = certify.Certificate("x", "p", "s", [], verdict)
    certify._oracle_cross_check(cert, _Z4, 1, 0, evidence=evidence)
    assert (cert.oracle, cert.oracle_detail) == (oracle, detail)


def _stub_verdict(status, reason):
    """An ``is_simple`` verdict whose status is ``status``."""
    return Verdict({"Simple": True, "NotSimple": False}.get(status), reason=reason)


def _stub_oracle(monkeypatch, target, status):
    """``is_simple`` answers ``status`` on ``target`` and as before elsewhere."""
    real = certify.is_simple
    monkeypatch.setattr(certify, "is_simple", lambda ring, cap, seed: (
        _stub_verdict(status, "stubbed") if ring is target
        else real(ring, cap=cap, seed=seed)))


def test_pipelines_hand_their_evidence_to_the_oracle_rule(monkeypatch):
    # M2(Z4): the base's ideal (2) gives a proper ideal of the matrix ring,
    # which settles an undecided oracle
    mr = matrix_ring(2, zmod_ring(4))
    _stub_oracle(monkeypatch, mr.ring, "Inconclusive")
    cert = certify_matrix(mr)
    assert cert.verdict == "NotSimple"
    assert (cert.oracle, cert.oracle_detail) == ("agrees", "explicit proper ideal re-verified")
    # F3 ⊕ F3 doubled along the identity: its factors are conjugation-stable,
    # so a Simple double contradicts the failed premise
    B = functions_ring(2, GF(3))
    cd = cayley_dickson(B, RingMap.identity(B), B.element((2, 2)))
    _stub_oracle(monkeypatch, cd.ring, "Simple")
    cert = certify_cayley(cd)
    assert cert.premises[0].status == "failed" and cert.verdict is None
    assert (cert.oracle, cert.oracle_detail) == ("disagrees", CONTRADICTION)
    # a non-faithful dynamics system: its explicit ideal settles it too
    dyn = build_nonfaithful_dynamics()
    _stub_oracle(monkeypatch, dyn.ring, "Inconclusive")
    cert = certify_dynamics(dyn)
    assert (cert.oracle, cert.oracle_detail) == ("agrees", "explicit proper ideal re-verified")


def test_conjugacy_key_returns_its_relabeling():
    from ringlab.certify import (_abelian_groups_upto, _actions_on, _conjugacy_key,
                                 _verify_conjugate_isomorphisms)
    from ringlab.constructions import dynamics_skew_group_ring
    count = 0
    for m in range(1, 5):
        for kind, order, cat in _abelian_groups_upto(6):
            morphisms = list(cat.morphisms)
            for action in _actions_on(kind, cat, m):
                key, pi = _conjugacy_key(action, morphisms, m)
                # pi ∘ s_g = key_g ∘ pi: pi maps the action onto its key
                assert all(pi[action[g][x]] == k[pi[x]]
                           for g, k in zip(morphisms, key) for x in range(m))
                count += 1
    assert 2 * count == 312          # the survey runs each action over F2 and F3
    # the transported constants are the check: two conjugate actions of Z2
    # on 2 + 1 points pass with the keys' relabelings, and fail with none
    cat = _abelian_groups_upto(2)[1][2]
    e, g = cat.morphisms
    ident = (0, 1, 2)
    actions = [{e: ident, g: (1, 0, 2)}, {e: ident, g: (0, 2, 1)}]
    (key, rep_pi), (key2, pi) = (_conjugacy_key(a, [e, g], 3) for a in actions)
    rep, dyn = (dynamics_skew_group_ring(3, cat, a, GF(2)) for a in actions)
    assert key == key2
    assert _verify_conjugate_isomorphisms([rep, dyn], [rep_pi, pi], [(0, 1)], 3) == [True]
    assert _verify_conjugate_isomorphisms([rep, dyn], [ident, ident], [(0, 1)], 3) == [False]


def _reference_conjugacy_key(action, morphisms, m):
    """_conjugacy_key, one relabeling at a time."""
    best = None
    for pi in itertools.permutations(range(m)):
        inv = [0] * m
        for x, y in enumerate(pi):
            inv[y] = x
        key = tuple(tuple(pi[action[g][inv[x]]] for x in range(m)) for g in morphisms)
        if best is None or key < best[0]:
            best = key, pi
    return best


def test_conjugacy_key_matches_the_relabeling_loop():
    from ringlab.certify import (_abelian_groups_upto, _actions_on, _conjugacy_key,
                                 _conjugacy_keys)
    for m in range(1, 6):
        for kind, order, cat in _abelian_groups_upto(6):
            morphisms = list(cat.morphisms)
            actions = list(_actions_on(kind, cat, m))
            reference = [_reference_conjugacy_key(a, morphisms, m) for a in actions]
            for action, want in zip(actions, reference):
                got = _conjugacy_key(action, morphisms, m)
                assert got == want
                assert all(type(x) is int for x in itertools.chain(got[1], *got[0]))
            # a whole block's keys at once, as the survey computes them
            assert _conjugacy_keys(actions, morphisms, m) == reference


def _cpus(monkeypatch, n):
    """Make the survey see ``n`` usable CPUs, whatever this machine has."""
    import os
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.mark.parametrize("kwargs", [dict(max_points=3), {},
                                    dict(max_points=5, field_orders=(2,))],
                         ids=["3-points", "default", "5-points-F2"])
def test_survey_on_a_pool_equals_the_survey_in_process(monkeypatch, kwargs):
    import multiprocessing
    _cpus(monkeypatch, 2)
    pooled = certify.survey_finite_dynamics(**kwargs)
    assert multiprocessing.active_children() == []
    _cpus(monkeypatch, 1)
    assert certify.survey_finite_dynamics(**kwargs) == pooled
    assert pooled.clean and pooled.instances > 0


def test_survey_failures_keep_block_order_on_a_pool(monkeypatch):
    # every transferred verdict fails, so the failures list reads the order
    # in which the blocks' surveys were merged: (points, group, field)
    monkeypatch.setattr(certify, "_verify_conjugate_isomorphisms",
                        lambda dyns, pis, pairs, m: [False] * len(pairs))
    groups = certify._abelian_groups_upto(6)
    blocks = [(m, 6, i, p, 2 ** 15, ideals.DEFAULT_SEED)
              for m in range(1, 5) for i in range(len(groups)) for p in (2, 3)]
    parts = [certify._survey_block(*b).failures for b in blocks]
    assert sum(1 for f in parts if f) > 10
    _cpus(monkeypatch, 2)
    pooled = certify.survey_finite_dynamics()
    assert pooled.failures == [f for part in parts for f in part]
    _cpus(monkeypatch, 1)
    assert certify.survey_finite_dynamics() == pooled


def _closed_witnesses(monkeypatch):
    """Check each faithfulness witness computed, and each minimality witness
    once per ring, against the ideal closure of its rows, which leaves an
    ideal as it is; returns the rings checked, per kind of witness."""
    checked = {"faithfulness": [], "minimality": []}

    def closed(find, kind):
        def check(dyn):
            J = find(dyn)
            # the public minimality witness is cached and asked again, so
            # it is checked once per ring; every faithfulness call counts
            seen = kind == "minimality" and any(d is dyn for d in checked[kind])
            if J is not None and not seen:
                K = ideals.row_ideal(dyn.ring, J.span.rows)
                assert K.span.pivots == J.span.pivots
                assert np.array_equal(K.span.rows, J.span.rows)
                checked[kind].append(dyn)
            return J
        return check

    monkeypatch.setattr(certify, "_faithfulness_witness_ideal",
                        closed(certify._faithfulness_witness_ideal, "faithfulness"))
    monkeypatch.setattr(certify, "minimality_witness_ideal",
                        closed(certify.minimality_witness_ideal, "minimality"))
    return checked


@pytest.mark.parametrize("kwargs", [{}, dict(max_points=5, field_orders=(2,))],
                         ids=["default", "5-points-F2"])
def test_survey_faithfulness_witnesses_are_their_closures(monkeypatch, kwargs):
    # in this process, so that the patch sees every block
    _cpus(monkeypatch, 1)
    checked = _closed_witnesses(monkeypatch)
    survey = certify.survey_finite_dynamics(**kwargs)
    assert survey.clean and survey.nonfaithful_witnesses == survey.nonfaithful_total
    assert len(checked["faithfulness"]) == survey.nonfaithful_total
    assert checked["minimality"]


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=["F2", "F3", "Q"])
def test_faithfulness_witness_of_a_non_central_kernel_is_its_closure(monkeypatch, field):
    # S3 acts on 2 points through the sign, so the first g acting trivially
    # is a 3-cycle, which is not central: u_g still commutes with the base
    s3, natural, _ = _s3_on_three_points()
    inversions = {g: sum(g[i] > g[j] for i in range(3) for j in range(i + 1, 3))
                  for g in natural}
    sign = {g: (0, 1) if n % 2 == 0 else (1, 0) for g, n in inversions.items()}
    checked = _closed_witnesses(monkeypatch)
    J = certify.faithfulness_witness_ideal(dynamics_skew_group_ring(2, s3, sign, field))
    assert len(checked["faithfulness"]) == 1 and certify._proper(J)


@pytest.mark.parametrize("error", [CriterionDisagreement("planted in a helper"),
                                   ValidationFailure(["planted in a helper"])],
                         ids=lambda e: type(e).__name__)
def test_an_error_in_a_survey_helper_reaches_the_caller(monkeypatch, error):
    import multiprocessing
    from multiprocessing.pool import RemoteTraceback

    def planted(*args, **kwargs):
        raise error

    # patched before the pool forks, so every helper raises
    monkeypatch.setattr(certify, "certify_dynamics", planted)
    _cpus(monkeypatch, 2)
    with pytest.raises(type(error)) as raised:
        certify.survey_finite_dynamics(max_points=2)
    assert str(raised.value) == str(error) and vars(raised.value) == vars(error)
    assert isinstance(raised.value.__cause__, RemoteTraceback)
    assert multiprocessing.active_children() == []


def test_importing_ringlab_loads_no_multiprocessing():
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import ringlab, ringlab.cli; "
            "print(ringlab.__file__.startswith(sys.argv[1]), 'multiprocessing' in sys.modules)")
    out = subprocess.run([sys.executable, "-I", "-c", code, src], check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.split() == ["True", "False"]


def test_dynamics_disagreement_is_typed(monkeypatch, tmp_path, capsys):
    # the rotation action is minimal and faithful, so the base must be
    # maximal commutative; a check saying otherwise is a defect
    monkeypatch.setattr(certify, "is_maximal_commutative", lambda ring, B: False)
    with pytest.raises(CriterionDisagreement):
        certify_dynamics(build_rotation_dynamics())
    recipe = tmp_path / "rot3.json"
    recipe.write_text(json.dumps({"kind": "dynamics", "points": 3, "group": "Z3",
                                  "action": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
                                  "field": "Fp:2"}))
    assert main(["certify", str(recipe)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: minimal+faithful") and "Traceback" not in err


def test_recognize_field():
    assert recognize_field(field_algebra(QQ)) is True
    assert recognize_field(cayley_tower(QQ, 1).rings[1]) is True  # x^2 + 1
    assert recognize_field(zmod_ring(4)) is False
    assert recognize_field(zmod_ring(5)) is True
    split = direct_sum_algebra([field_algebra(QQ), field_algebra(QQ)])
    assert recognize_field(split) is False
    assert recognize_field(gf_extension(9)[0]) is True
    assert recognize_field(gf_extension(4)[0]) is True
    assert recognize_field(gf_extension(8)[0]) is True
    assert recognize_field(direct_sum_algebra([field_algebra(GF(3))] * 2)) is False
    dual = make_structure_algebra(2, GF(3), [[[1, 0], [0, 1]], [[0, 1], [0, 0]]])
    assert recognize_field(dual) is False
    # the zero ring is commutative, associative and unital (1 = 0), but
    # R·R = 0, so it is no field
    assert recognize_field(zmod_ring(1)) is False
    # past the cap is_simple still decides by Norton's test, and so does
    # field recognition
    assert ideals.is_simple(gf_extension(9)[0], cap=2).holds
    assert recognize_field(gf_extension(9)[0], cap=2) is True
    assert recognize_field(direct_sum_algebra([field_algebra(GF(3))] * 2), cap=2) is False


def test_simple_status_falls_back_to_field_recognition():
    # Q(√15): 15 is 0 or a square modulo 3, 5, 7 and 11, so no reduction is
    # simple and the oracle is Inconclusive; the ring is a field
    ring = make_structure_algebra(2, QQ, [[[1, 0], [0, 1]], [[0, 1], [15, 0]]])
    assert ideals.is_simple(ring).status == "Inconclusive"
    v = certify._simplicity(ring)
    assert (v.holds, v.reason) == (True, "field")


def test_density_criterion():
    assert simple_by_density(full_matrix_algebra(2, GF(2)))
    assert simple_by_density(full_matrix_algebra(3, GF(3)))
    assert not simple_by_density(functions_ring(2, GF(3)))
    h3 = cayley_tower(GF(3), 2).rings[2]
    assert simple_by_density(h3)
    o3 = cayley_tower(GF(3), 3).rings[3]
    assert simple_by_density(o3)
    # the commutant of F3^8 is F3^8 itself: commutative and reduced, but its
    # Frobenius fixes all 8 dimensions
    assert not simple_by_density(direct_sum_algebra([field_algebra(GF(3))] * 8))
    # F3[x]/(x^2): the commutant is commutative but x is nilpotent
    dual = make_structure_algebra(2, GF(3), [[[1, 0], [0, 1]], [[0, 1], [0, 0]]])
    assert not simple_by_density(dual)
    # F9 over F3: a two-dimensional commutant, a field
    assert simple_by_density(gf_extension(9)[0])


def test_corpus_properties():
    report = cross_check_corpus()
    assert report.ok
    assert len(report.entries) >= 20
    verdicts = {e.oracle_verdict for e in report.entries}
    # every oracle verdict is decided; the Inconclusive path is covered by
    # test_ideals.py::test_ramified_q_field_stays_inconclusive
    assert verdicts == {"Simple", "NotSimple"}
    concluded = [e for e in report.entries
                 if e.pipeline_verdict in ("Simple", "NotSimple")
                 and e.oracle_verdict != "Inconclusive"]
    assert concluded and all(e.agreement == "agrees" for e in concluded)
