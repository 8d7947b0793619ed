"""Acceptance criteria, one test per criterion, each printing a PASS line.

Everything here is exact arithmetic; random searches carry a fixed seed.
"""

import itertools

import numpy as np
import pytest

from ringlab import (GF, QQ, bales_alpha, bales_twisted_ring, cayley_tower,
                     center, centralizer, certify_crossed_product,
                     certify_groupoid_graded, certify_matrix, cross_check_corpus,
                     enumerate_ideals, enumerate_subring_ideals,
                     ideal_closure, is_A_invariant, is_G_invariant, is_simple,
                     matrix_ring, ring_eval, support_degree_map,
                     verify_degree_map, zmod_ring, field_algebra,
                     apply_i_and_p, check_ideal_associativity)
from ringlab.certify import survey_finite_dynamics
from ringlab.corpus import (ORE_CORPUS, build_m3f2_block_graded, graded_corpus,
                            tower_q)
from ringlab.gradings import grading_flags
from ringlab.ideals import DEFAULT_SEED
from ringlab.ore import (check_A_invariance_truncated, commutator_drop_failure,
                         degree_one_escape_witness, is_sigma_delta_invariant)
from ringlab.subgroups import subspace_from_vectors


def _report(criterion, detail=""):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_01_bales_anticommutativity():
    violations = [(p, q) for p in range(1, 32) for q in range(1, 32)
                  if p != q and bales_alpha(p, q) != -bales_alpha(q, p)]
    assert violations == []
    _report(1, "signed cocycle anticommutative on all distinct nonzero p,q < 32")


def test_criterion_02_twisted_matches_tower():
    tower = tower_q(4)
    mismatches = 0
    for n in range(1, 5):
        tw = bales_twisted_ring(QQ, n)
        if not np.array_equal(tw.ring.constants, tower.rings[n].constants):
            mismatches += 1
    assert mismatches == 0
    _report(2, "twisted group tables equal doubling tables entrywise, n = 1..4")


def test_criterion_03_tower_centers():
    tower = tower_q(4)
    dims = [center(r).measure() for r in tower.rings]
    assert dims == [1, 2, 1, 1, 1]
    _report(3, f"center dimensions along the tower: {dims}")


def test_criterion_04_nonassociativity_ladder():
    tower = tower_q(4)
    h, o, s = tower.rings[2], tower.rings[3], tower.rings[4]
    assert h.probe_properties().associative
    po = o.probe_properties()
    assert not po.associative
    a, b, c = po.associative_witness
    assert ring_eval(ring_eval(a, b, "mul"), c, "mul") != \
        ring_eval(a, ring_eval(b, c, "mul"), "mul")
    # zero-divisor search in the 16-dimensional double, via the sign table
    witness = None
    for (i, j, k, l) in itertools.product(range(1, 16), repeat=4):
        if i >= j or k >= l:
            continue
        terms = {}
        for (p, q) in ((i, k), (i, l), (j, k), (j, l)):
            key = p ^ q
            terms[key] = terms.get(key, 0) + bales_alpha(p, q)
        if all(v == 0 for v in terms.values()):
            witness = (i, j, k, l)
            break
    assert witness is not None
    i, j, k, l = witness
    x = s.element([1 if t in (i, j) else 0 for t in range(16)])
    y = s.element([1 if t in (k, l) else 0 for t in range(16)])
    assert not x.is_zero() and not y.is_zero()
    assert ring_eval(x, y, "mul").is_zero()
    _report(4, f"quaternions associative; octonion non-associativity witness found; "
               f"sedenion zero divisors (e{i}+e{j})·(e{k}+e{l}) = 0")


def test_criterion_05_frobenius_crossed_product():
    from ringlab.corpus import build_f4_frobenius_ring
    cp = build_f4_frobenius_ring()
    oracle = is_simple(cp.ring)
    assert oracle.holds
    cert = certify_crossed_product(cp)
    assert cert.verdict == "Simple" and cert.oracle == "agrees"
    by_name = {p.name: p.status for p in cert.premises}
    assert by_name["the base is action-simple (no nontrivial invariant ideal)"] == "verified"
    assert by_name["the base is maximal commutative"] == "verified"
    _report(5, "F4 x Z2: oracle Simple, pipeline Simple from action-simplicity "
               "and maximal commutativity")


def test_criterion_06_block_graded_matrix_ring():
    built = build_m3f2_block_graded()
    m3, gr = built.ring, built.grading
    B = gr.zero_part_subring()
    ideals = enumerate_subring_ideals(m3, B)
    # the object part is M2(F2) x F2: its ideals are the four block pairs
    expected_dims = sorted(i.measure() for i in ideals)
    assert expected_dims == [0, 1, 4, 5]

    def block_ideal(J, K):
        vecs = []
        if J:
            vecs += [[1 if t == x * 3 + y else 0 for t in range(9)]
                     for x in range(2) for y in range(2)]
        if K:
            vecs += [[1 if t == 8 else 0 for t in range(9)]]
        return subspace_from_vectors(m3, vecs)

    spans = {i.span.key() for i in ideals}
    assert spans == {block_ideal(J, K).key() for J in (0, 1) for K in (0, 1)}
    invariant = [i for i in ideals if is_A_invariant(m3, B, i)]
    assert sorted(i.measure() for i in invariant) == [0, 5]
    cert = certify_groupoid_graded(m3, gr)
    assert cert.verdict == "Simple" and cert.oracle == "agrees"
    assert cert.notes == ("variant: simple vertex centers",)
    _report(6, "invariant ideals of the object part are exactly the matching-block "
               "pair; ring certified simple by pipeline and oracle")


def test_criterion_07_matrix_criterion():
    entries = []
    m2f3 = matrix_ring(2, field_algebra(GF(3)))
    cert = certify_matrix(m2f3)
    assert cert.verdict == "Simple" and cert.oracle == "agrees"
    entries.append("M2(F3)=Simple")
    m2f2 = matrix_ring(2, field_algebra(GF(2)))
    cert = certify_matrix(m2f2)
    assert cert.verdict == "Simple" and cert.oracle == "agrees"
    entries.append("M2(F2)=Simple")
    m2z4 = matrix_ring(2, zmod_ring(4))
    cert = certify_matrix(m2z4)
    assert cert.verdict == "NotSimple" and cert.oracle == "agrees"
    assert any("witness" in n for n in cert.notes)
    entries.append("M2(Z4)=NotSimple(witness)")
    o3 = cayley_tower(GF(3), 3).rings[3]
    assert not o3.probe_properties().associative
    cert = certify_matrix(matrix_ring(2, o3))
    assert cert.verdict == "Simple"
    assert all(p.status == "verified" for p in cert.premises)
    entries.append("M2(O/F3)=Simple (nonassociative entries)")
    _report(7, "; ".join(entries))


def test_criterion_08_invariance_equivalences():
    checked = 0
    for name, built in graded_corpus(only_crossed=True):
        B = built.base_subring()
        for I in enumerate_subring_ideals(built.ring, B):
            assert is_G_invariant(built, I) == is_A_invariant(built.ring, B, I), name
            checked += 1
    ore_checked = 0
    for name, build in ORE_CORPUS:
        data = build()
        for I in enumerate_ideals(data.base):
            if I.span.is_full() and is_sigma_delta_invariant(I, data):
                pass
            invariant = is_sigma_delta_invariant(I, data)
            assert check_A_invariance_truncated(I, data, n_max=4) == invariant, name
            if not invariant:
                witness = degree_one_escape_witness(I, data)
                assert witness is not None, name
                v, poly = witness
                assert poly.degree() <= 1
            ore_checked += 1
    _report(8, f"action/ring invariance agree on {checked} crossed-product ideals; "
               f"sigma-delta/truncated invariance agree on {ore_checked} ore ideals "
               f"with degree-1 escape witnesses")


def test_criterion_09_degree_maps():
    verified = []
    for name, built in graded_corpus():
        grading, ring = built.grading, built.ring
        if not grading.cat.is_groupoid:
            continue
        flags = grading_flags(grading)
        if not (flags.left_nondegenerate or flags.right_nondegenerate):
            continue
        dm = support_degree_map(grading, "center_of_A0")
        verdict = verify_degree_map(dm)
        assert verdict.holds, name
        verified.append(name)
    assert len(verified) >= 6
    proved, monomials = [], 0
    for name, build in ORE_CORPUS:
        data = build()
        if not data.sigma.is_identity():
            continue
        assert commutator_drop_failure(data, max_deg=4) is None, name
        proved.append(name)
        monomials += (4 + 1) * len(data.base.additive_generators())
    assert len(proved) == 5
    _report(9, f"support degree map valid on {len(verified)} non-degenerate graded "
               f"instances; commutator degree drop proved on {monomials} monomials "
               f"h·x^i (i ≤ 4) of {len(proved)} Ore instances")


def test_criterion_10_intersection_property():
    checked = []
    for name, built in graded_corpus():
        grading, ring = built.grading, built.ring
        if not grading.cat.is_groupoid:
            continue
        flags = grading_flags(grading)
        if not (flags.left_nondegenerate or flags.right_nondegenerate):
            continue
        dm = support_degree_map(grading, "center_of_A0")
        if not verify_degree_map(dm).holds:
            continue
        C = centralizer(ring, dm.B.spanning())
        for I in enumerate_ideals(ring):
            if I.is_zero():
                continue
            assert not I.span.intersect(C.span).is_zero(), name
        checked.append(name)
    assert len(checked) >= 6
    _report(10, f"every nonzero ideal meets the centralizer on {len(checked)} "
                f"instances with a valid degree map")


def test_criterion_11_p_after_i_is_identity():
    checked = 0
    instances = list(graded_corpus())
    instances.append(("graded/M3(F2)-blocks-direct", build_m3f2_block_graded()))
    for name, built in instances:
        grading, ring = built.grading, built.ring
        if not grading_flags(grading).locally_unital:
            continue
        B = grading.zero_part_subring()
        for I in enumerate_subring_ideals(ring, B):
            if not is_A_invariant(ring, B, I):
                continue
            if not check_ideal_associativity(ring, B, I, copies=2):
                continue
            _, back = apply_i_and_p(ring, B, I)
            assert back.span == I.span, name
            checked += 1
    assert checked >= 20
    _report(11, f"B ∩ (IA) = I for all {checked} invariant ideals across the "
                f"locally unital graded corpus")


def test_criterion_12_finite_dynamics_survey():
    survey = survey_finite_dynamics(max_points=4, max_group_order=6,
                                    field_orders=(2, 3), scan_cap=2 ** 13,
                                    seed=DEFAULT_SEED)
    assert survey.clean, survey.failures
    assert survey.instances == 312
    assert survey.oracle_scans + survey.density_checks + survey.witness_refutations \
        == survey.representatives
    # the explicit witness ideal was proper and nonzero in EVERY non-faithful case
    assert survey.nonfaithful_total > 0
    assert survey.nonfaithful_witnesses == survey.nonfaithful_total
    _report(12, f"{survey.instances} actions checked ({survey.representatives} "
                f"conjugacy representatives: {survey.oracle_scans} element scans, "
                f"{survey.density_checks} density checks, "
                f"{survey.witness_refutations} witness refutations; "
                f"{survey.nonfaithful_witnesses} non-faithful witness ideals verified)")


def test_criterion_13_corpus_determinism():
    rep1 = cross_check_corpus(seed=DEFAULT_SEED)
    rep2 = cross_check_corpus(seed=DEFAULT_SEED)
    assert rep1.ok and rep2.ok
    import json
    s1 = json.dumps(rep1.to_json(), sort_keys=True)
    s2 = json.dumps(rep2.to_json(), sort_keys=True)
    assert s1 == s2
    _report(13, f"two corpus runs byte-identical ({len(rep1.entries)} instances, "
                f"0 disagreements)")
