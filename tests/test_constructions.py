import numpy as np
import pytest

from ringlab import (GF, QQ, RingMap, bales_alpha, bales_twisted_ring,
                     cayley_dickson, cayley_tower, cyclic_group,
                     dynamics_skew_group_ring, field_algebra,
                     full_matrix_algebra, gf_extension, grading_flags,
                     is_G_invariant, is_G_simple, is_simple, matrix_ring,
                     skew_group_ring, twisted_group_ring,
                     validate_crossed_system, validate_grading, zmod_ring,
                     enumerate_subring_ideals, is_A_invariant)
from ringlab.constructions.crossed import CrossedSystem, crossed_product
from ringlab.constructions import doubling
from ringlab.errors import (AlphaNotCentralUnit, CoherenceViolation,
                            CriterionDisagreement, NotAnAction, SigmaNotInvolutive, TooLarge,
                            ValidationFailure)


def test_group_algebra_is_plain_group_ring():
    b = field_algebra(GF(2))
    ga = skew_group_ring(b, cyclic_group(2), {g: RingMap.identity(b) for g in (0, 1)})
    one, u = ga.ring.basis_element(0), ga.ring.basis_element(1)
    assert u * u == one
    assert not is_simple(ga.ring).is_simple


def test_unit_times_unit_is_alpha():
    tw = bales_twisted_ring(QQ, 2)
    for g in range(4):
        for h in range(4):
            ug, uh = tw.ring.basis_element(g), tw.ring.basis_element(h)
            exp = tw.ring.scalar_mul(bales_alpha(g, h), tw.ring.basis_element(g ^ h))
            assert ug * uh == exp


def test_frobenius_skew_ring():
    f4, frob = gf_extension(4)
    sg = skew_group_ring(f4, cyclic_group(2),
                         {0: RingMap.identity(f4), 1: RingMap(f4, f4, matrix=frob)})
    assert sg.ring.size() == 16
    assert is_simple(sg.ring).is_simple
    report = validate_crossed_system(sg.system)
    assert all(ok for name, ok, _ in report)


def test_validation_catches_bad_alpha_and_sigma():
    b = field_algebra(GF(3))
    z2 = cyclic_group(2)
    zero = b.zero()
    with pytest.raises(ValidationFailure):
        twisted_group_ring(b, z2, {(g, h): (zero if (g, h) == (1, 1) else
                                            b.probe_properties().unit)
                                   for g in (0, 1) for h in (0, 1)})
    f4, frob = gf_extension(4)
    broken = np.array([[1, 1], [0, 1]], dtype=np.int64)  # additive but not multiplicative
    sys = CrossedSystem(z2, {"*": f4},
                        {0: RingMap.identity(f4), 1: RingMap(f4, f4, matrix=broken)})
    report = validate_crossed_system(sys)
    bad = [name for name, ok, _ in report if not ok and "warning" not in name]
    assert any("multiplicative" in name for name in bad)


def test_bales_displayed_relations():
    for p in range(1, 16):
        assert bales_alpha(p, 0) == 1 and bales_alpha(0, p) == 1
    assert bales_alpha(1, 1) == -1
    for q in range(0, 8):
        assert bales_alpha(1, 2 * q + 1) == -1
    for p in range(1, 8):
        for q in range(1, 8):
            assert bales_alpha(2 * p, 2 * q) == bales_alpha(p, q)
            assert bales_alpha(2 * p, 2 * q + 1) == -bales_alpha(p, q)
            if p != 0:
                assert bales_alpha(2 * p + 1, 2 * q + 1) == bales_alpha(q, p)
    assert bales_alpha(2, 3) == 1


def test_bales_anticommutative():
    for n in range(1, 6):
        top = 2 ** n
        for p in range(1, top):
            for q in range(1, top):
                if p != q:
                    assert bales_alpha(p, q) == -bales_alpha(q, p)


def test_twisted_z2_is_gaussian():
    b = field_algebra(QQ)
    tw = twisted_group_ring(b, cyclic_group(2),
                            {(g, h): (-1 if (g, h) == (1, 1) else 1)
                             for g in (0, 1) for h in (0, 1)})
    u = tw.ring.basis_element(1)
    assert u * u == tw.ring.scalar_mul(-1, tw.ring.basis_element(0))


def test_twisted_bales_matches_tower():
    tower = cayley_tower(QQ, 4)
    for n in range(1, 5):
        tw = bales_twisted_ring(QQ, n)
        assert np.array_equal(tw.ring.constants, tower.rings[n].constants)


def test_cayley_dickson_complex():
    b = field_algebra(QQ)
    sigma = RingMap.identity(b)
    alpha = b.scalar_mul(-1, b.probe_properties().unit)
    cd = cayley_dickson(b, sigma, alpha)
    u = cd.ring.basis_element(1)
    assert u * u == cd.ring.scalar_mul(-1, cd.ring.basis_element(0))


def test_cayley_dickson_rejects_bad_inputs():
    b = field_algebra(QQ)
    flip = RingMap(b, b, matrix=[[2]])  # squares to 4, not an involution
    with pytest.raises(SigmaNotInvolutive):
        cayley_dickson(b, flip, b.scalar_mul(-1, b.probe_properties().unit))
    with pytest.raises(AlphaNotCentralUnit):
        cayley_dickson(b, RingMap.identity(b), b.zero())


def test_doubling_disagreement_is_typed(monkeypatch):
    # the identity does not reverse the products of the quaternions
    monkeypatch.setattr(doubling, "_extend_conjugation",
                        lambda result: RingMap.identity(result.ring))
    with pytest.raises(CriterionDisagreement):
        cayley_tower(GF(3), 2)


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_batched_anti_automorphism_check_matches_elementwise(field):
    cd = cayley_tower(field, 2).doublings[1]
    A, basis = cd.ring, cd.ring.spanning_elements()

    def reverses(m):
        return all(m.apply(x * y) == m.apply(y) * m.apply(x)
                   for x in basis for y in basis)

    assert reverses(cd.extended_sigma)
    doubling._assert_anti_automorphism(A, cd.extended_sigma)
    # the identity does not reverse the products of the quaternions
    identity = RingMap.identity(A)
    assert not reverses(identity)
    with pytest.raises(CriterionDisagreement):
        doubling._assert_anti_automorphism(A, identity)


def test_quaternion_products_and_tower_dims():
    tower = cayley_tower(QQ, 2)
    h = tower.rings[2]
    u1, u2, u3 = (h.basis_element(i) for i in (1, 2, 3))
    assert u1 * u2 == u3 and u2 * u1 == -u3
    t3 = cayley_tower(GF(3), 4)
    assert [r.dim for r in t3.rings] == [1, 2, 4, 8, 16]
    t0 = cayley_tower(QQ, 0)
    assert len(t0.rings) == 1 and t0.rings[0].dim == 1
    with pytest.raises(TooLarge):
        cayley_tower(QQ, 9)


def test_extended_conjugation_reverses_products():
    tower = cayley_tower(QQ, 3)
    cd = tower.doublings[2]  # doubling that produced the octonions
    m = cd.extended_sigma
    A = cd.ring
    for x in A.spanning_elements():
        for y in A.spanning_elements():
            assert m.apply(x * y) == m.apply(y) * m.apply(x)


def test_char_two_doubling_is_flagged():
    t = cayley_tower(GF(2), 1)
    assert any("characteristic 2" in note for note in t.notes)


def test_sedenion_zero_divisors():
    s = cayley_tower(QQ, 4).rings[4]
    a = s.element([1 if t in (2, 5) else 0 for t in range(16)])
    b = s.element([1 if t in (8, 15) else 0 for t in range(16)])
    assert not a.is_zero() and not b.is_zero()
    assert (a * b).is_zero()


def test_matrix_ring_is_the_matrix_algebra():
    mr = matrix_ring(2, field_algebra(GF(2)))
    direct = full_matrix_algebra(2, GF(2))
    assert np.array_equal(np.asarray(mr.ring.constants), np.asarray(direct.constants))
    fl = grading_flags(mr.grading)
    assert fl.locally_unital and fl.strongly_graded


def test_matrix_ring_over_z4():
    mr = matrix_ring(2, zmod_ring(4))
    assert mr.ring.n == 256
    v = is_simple(mr.ring)
    assert v.status == "NotSimple" and v.witness.measure() == 16


def test_matrix_ring_coherence():
    f4, frob = gf_extension(4)
    with pytest.raises(CoherenceViolation):
        matrix_ring(2, f4, sigmas={(0, 1): RingMap(f4, f4, matrix=frob),
                                   (1, 0): RingMap.identity(f4)})


def test_twisted_matrix_ring_still_simple():
    from ringlab.corpus import build_twisted_matrix_f3
    mr = build_twisted_matrix_f3()
    assert is_simple(mr.ring).is_simple


def test_dynamics_flags_and_sizes():
    dyn = dynamics_skew_group_ring(3, cyclic_group(3),
                                   {0: (0, 1, 2), 1: (1, 2, 0), 2: (2, 0, 1)}, GF(2))
    assert dyn.minimal and dyn.faithful and dyn.ring.size() == 512
    solo = dynamics_skew_group_ring(1, cyclic_group(1), {0: (0,)}, GF(2))
    assert solo.minimal
    two = dynamics_skew_group_ring(2, cyclic_group(1), {0: (0, 1)}, GF(2))
    assert not two.minimal
    swap = dynamics_skew_group_ring(2, cyclic_group(2), {0: (0, 1), 1: (1, 0)}, GF(3))
    assert swap.minimal and swap.faithful
    assert is_simple(swap.ring).is_simple


def test_dynamics_rejects_non_actions():
    with pytest.raises(NotAnAction):
        dynamics_skew_group_ring(2, cyclic_group(2), {0: (0, 1), 1: (0, 0)}, GF(2))
    with pytest.raises(NotAnAction):
        dynamics_skew_group_ring(2, cyclic_group(4),
                                 {0: (0, 1), 1: (1, 0), 2: (1, 0), 3: (0, 1)}, GF(2))


def test_constructed_gradings_validate():
    from ringlab.corpus import build_f4_frobenius_ring, build_swap_dynamics
    for cp in (build_f4_frobenius_ring(), build_swap_dynamics(),
               matrix_ring(2, field_algebra(GF(3)))):
        regraded = validate_grading(cp.ring, cp.system.cat,
                                    cp.grading.components)
        fl = grading_flags(regraded)
        assert fl.locally_unital and fl.strongly_graded


def test_action_invariance_equals_ring_invariance():
    from ringlab.corpus import build_f4_frobenius_ring, build_nonminimal_dynamics
    for cp in (build_f4_frobenius_ring(), build_nonminimal_dynamics()):
        B = cp.base_subring()
        for I in enumerate_subring_ideals(cp.ring, B):
            assert is_G_invariant(cp, I) == is_A_invariant(cp.ring, B, I)


def test_g_simplicity():
    from ringlab.corpus import build_f4_frobenius_ring, build_nonminimal_dynamics
    ok, wit = is_G_simple(build_f4_frobenius_ring())
    assert ok and wit is None
    ok, wit = is_G_simple(build_nonminimal_dynamics())
    assert not ok and wit is not None
