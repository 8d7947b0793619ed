import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlab import (GF, QQ, RingMap, bales_alpha, bales_twisted_ring,
                     cayley_dickson, cayley_tower, cyclic_group,
                     dynamics_skew_group_ring, field_algebra,
                     full_matrix_algebra, gf_extension, grading_flags,
                     is_G_invariant, is_G_simple, is_simple, matrix_ring,
                     skew_group_ring, twisted_group_ring,
                     validate_crossed_system, validate_grading, zmod_ring,
                     enumerate_subring_ideals, functions_ring, is_A_invariant,
                     make_structure_algebra, pair_groupoid)
from ringlab import ideals, linalg
from ringlab.constructions import crossed
from ringlab.constructions.crossed import CrossedSystem, crossed_product, crossed_products
from ringlab.constructions.dynamics import dynamics_skew_group_rings
from ringlab.ideals import first_invariant_ideal
from ringlab.rings import convert_to_table, direct_sum_algebra, probe_properties
from ringlab.subgroups import Subspace, commuting_span
from ringlab.constructions import doubling
from ringlab.errors import (AlphaNotCentralUnit, CoherenceViolation,
                            CriterionDisagreement, InfiniteScalarField, NotAnAction,
                            ShapeMismatch, SigmaNotInvolutive, TooLarge,
                            ValidationFailure)


def test_group_algebra_is_plain_group_ring():
    b = field_algebra(GF(2))
    ga = skew_group_ring(b, cyclic_group(2), {g: RingMap.identity(b) for g in (0, 1)})
    one, u = ga.ring.basis_element(0), ga.ring.basis_element(1)
    assert u * u == one
    assert not is_simple(ga.ring).holds


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
                         {0: RingMap.identity(f4), 1: RingMap(f4, f4, frob)})
    assert sg.ring.size() == 16
    assert is_simple(sg.ring).holds
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
                        {0: RingMap.identity(f4), 1: RingMap(f4, f4, broken)})
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
    flip = RingMap(b, b, [[2]])  # squares to 4, not an involution
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
    with pytest.raises(CoherenceViolation, match=r"sigma\[0,1\]sigma\[1,0\] != sigma\[0,0\]"):
        matrix_ring(2, f4, sigmas={(0, 1): RingMap(f4, f4, frob),
                                   (1, 0): RingMap.identity(f4)})


def test_matrix_ring_maps_that_do_not_compose():
    # sigma[1,0] starts at a copy of F4, so sigma[0,1]sigma[1,0] composes
    # and equals sigma[0,0] operator for operator, and the first pair whose
    # maps do not compose, ((1,0), (0,0)), raises ShapeMismatch
    f4, _ = gf_extension(4)
    copy = make_structure_algebra(2, GF(2), f4.constants.tolist())
    with pytest.raises(ShapeMismatch, match="maps do not compose"):
        matrix_ring(2, f4, sigmas={(1, 0): RingMap(copy, f4, np.eye(2, dtype=np.int64))})


def test_twisted_matrix_ring_still_simple():
    from ringlab.corpus import build_twisted_matrix_f3
    mr = build_twisted_matrix_f3()
    assert is_simple(mr.ring).holds


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
    assert is_simple(swap.ring).holds


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
    v = is_G_simple(build_f4_frobenius_ring())
    assert v.holds and v.witness is None
    v = is_G_simple(build_nonminimal_dynamics())
    assert not v.holds and v.witness is not None


def test_the_invariance_check_builds_the_action_maps_once(monkeypatch):
    # the maps depend on the product only: every ideal the invariance check
    # asks about, and is_G_simple after it, reads one list
    import pathlib
    from ringlab.recipes import build_recipe, parse_recipe_text
    from ringlab.reports import run_checks
    recipe = pathlib.Path(__file__).parent.parent / "perfbench/recipes/dynamics-4pt-Z2-F3.json"
    cp = build_recipe(parse_recipe_text(recipe.read_text()))
    operators = []
    original = crossed.CrossedProduct.block_operator
    monkeypatch.setattr(crossed.CrossedProduct, "block_operator",
                        lambda cp, blocks: operators.append(cp) or original(cp, blocks))
    results, _ = run_checks(cp, ["invariance"])
    assert len(results["invariance"]["ideals"]) > 1 and results["invariance"]["equivalence_holds"]
    assert not is_G_simple(cp).holds
    # one operator per morphism of Z2, in one build
    assert operators == [cp, cp]


def test_a_direct_sum_past_the_constants_budget_is_refused():
    # 128 points have 128^3 = 2^21 constants, the cap; 129 are refused
    # before anything is allocated
    assert functions_ring(128, GF(2)).dim == 128
    with pytest.raises(TooLarge, match="direct sum would have 2146689 structure constants"):
        functions_ring(129, GF(2))


# ---------------------------------------------------------------------------
# batched crossed-system validation and construction, against the element
# loops they replace
# ---------------------------------------------------------------------------

def _reference_is_unit(ring, a):
    unit = ring.probe_properties().unit
    if unit is None:
        return False
    if ring.is_table:
        return any(ring.mul_table[a.data, x] == unit.data == ring.mul_table[x, a.data]
                   for x in range(ring.n))
    F = ring.F
    L, R = F.mult_matrices(ring, a.data)
    sol = F.solve(np.vstack([L.T, R.T]), F.array(unit.data + unit.data))
    if sol is None:
        return False
    x = ring.element(sol)
    return (a * x == unit) and (x * a == unit)


def _reference_associates_and_commutes(ring, a):
    span = ring.spanning_elements()
    for b in span:
        if a * b != b * a:
            return False
        for c in span:
            bc = b * c
            if not (a * bc == (b * a) * c == b * (a * c) == bc * a):
                return False
    return True


def _reference_report(sys):
    """validate_crossed_system, one Element product at a time."""
    cat = sys.cat
    report, units = [], {}
    for e in cat.objects:
        props = sys.base[e].probe_properties()
        units[e] = props.unit
        report.append((f"base ring at {e!r} unital", props.unital, None))
    for g in cat.morphisms:
        sg = sys.sigma[g]
        src = sys.base[cat.dom[g]]
        if src.is_table:
            add_ok = all(
                sg.apply(src.element(a) + src.element(b)) ==
                sg.apply(src.element(a)) + sg.apply(src.element(b))
                for a in range(src.n) for b in range(src.n))
            report.append((f"sigma[{g!r}] additive", add_ok, None))
        span = src.spanning_elements()
        witness = next(((a, b) for a in span for b in span
                        if sg.apply(a * b) != ((sg.apply(b) * sg.apply(a)) if sg.anti
                                               else (sg.apply(a) * sg.apply(b)))), None)
        kind = "anti-multiplicative" if sg.anti else "multiplicative"
        report.append((f"sigma[{g!r}] {kind}", witness is None, witness))
        if units[cat.dom[g]] is not None and units[cat.cod[g]] is not None:
            report.append((f"sigma[{g!r}] unit-preserving",
                           sg.apply(units[cat.dom[g]]) == units[cat.cod[g]], None))
    for e in cat.objects:
        report.append((f"sigma at identity of {e!r} is the identity map",
                       sys.sigma[cat.identity[e]].is_identity(), None))
    for (g, h) in cat.composable_pairs():
        a, Bc = sys.alpha_at(g, h), sys.base[cat.cod[g]]
        report.append((f"alpha[{g!r},{h!r}] unit", _reference_is_unit(Bc, a), a))
        report.append((f"alpha[{g!r},{h!r}] associates and commutes",
                       _reference_associates_and_commutes(Bc, a), a))
    for g in cat.morphisms:
        u = units[cat.cod[g]]
        ok = (sys.alpha_at(cat.identity[cat.cod[g]], g) == u and
              sys.alpha_at(g, cat.identity[cat.dom[g]]) == u)
        report.append((f"alpha normalized at {g!r}", ok, None))
    for (g, h) in cat.composable_pairs():
        comp, gh = sys.sigma[g].compose(sys.sigma[h]), sys.sigma[cat.compose(g, h)]
        report.append((f"functoriality at ({g!r},{h!r}) [warning only]",
                       comp.equals(gh) and comp.anti == gh.anti, None))
    return report


def _reference_block_product(sys, g, h, a, b):
    """(a *_g,h sigma_g(b)) alpha_g,h for a in B_c(g), b in B_c(h)."""
    sb = sys.sigma[g].apply(b)
    t = (sb * a) if sys.twist_at(g, h) == "opposite" else (a * sb)
    return t * sys.alpha_at(g, h)


def _check_crossed_products(sys, cp):
    """Every product of homogeneous generators, one Element at a time."""
    cat, A = sys.cat, cp.ring
    pairs = set(cat.composable_pairs())
    for g in cat.morphisms:
        for h in cat.morphisms:
            Bg, Bh = sys.base[cat.cod[g]], sys.base[cat.cod[h]]
            for a in Bg.spanning_elements():
                for b in Bh.spanning_elements():
                    got = cp.embed(g, a) * cp.embed(h, b)
                    if (g, h) in pairs:
                        gh = cat.compose(g, h)
                        assert got == cp.embed(gh, _reference_block_product(sys, g, h, a, b))
                    else:
                        assert got == A.zero()


def _random_algebra(draw, p, d):
    if draw(st.booleans()):
        # unital, so the unit and normalization checks also pass sometimes
        return functions_ring(d, GF(p))
    C = draw(st.lists(st.integers(0, p - 1), min_size=d ** 3, max_size=d ** 3))
    return make_structure_algebra(d, GF(p), np.array(C).reshape(d, d, d))


def _random_map(draw, B, C):
    anti = draw(st.booleans())
    if B.is_algebra:
        if B.dim == C.dim and draw(st.booleans()):
            return RingMap(B, C, np.eye(B.dim, dtype=np.int64), anti=anti)
        M = draw(st.lists(st.integers(0, B.F.p - 1), min_size=B.dim * C.dim,
                          max_size=B.dim * C.dim))
        return RingMap(B, C, np.array(M).reshape(B.dim, C.dim), anti=anti)
    # x -> kx, or any map fixing 0: with 0 fixed the products of homogeneous
    # elements are exactly the block tables, additive or not
    k = draw(st.integers(0, C.n - 1))
    perm = draw(st.sampled_from([[(k * x) % C.n for x in range(B.n)],
                                 [0] + draw(st.lists(st.integers(0, C.n - 1),
                                                     min_size=B.n - 1, max_size=B.n - 1))]))
    return RingMap(B, C, perm, anti=anti)


def _random_element(draw, B):
    unit = B.probe_properties().unit
    if unit is not None and draw(st.booleans()):
        return unit
    if B.is_table:
        return B.element(draw(st.integers(0, B.n - 1)))
    return B.element(draw(st.lists(st.integers(0, B.F.p - 1), min_size=B.dim,
                                   max_size=B.dim)))


@st.composite
def crossed_systems(draw):
    cat = draw(st.sampled_from([cyclic_group(1), cyclic_group(2), cyclic_group(3),
                                pair_groupoid(2)]))
    if draw(st.booleans()):
        p, d = draw(st.sampled_from([2, 3])), draw(st.integers(1, 3))
        base = {e: _random_algebra(draw, p, d) for e in cat.objects}
    elif draw(st.booleans()):
        n = draw(st.sampled_from([2, 3, 4, 6]))
        base = {e: zmod_ring(n) for e in cat.objects}
    else:
        # possibly non-commutative or non-associative table rings, of at
        # most 4 elements so that the product stays under its size cap
        p, d = draw(st.sampled_from([(2, 1), (2, 2), (3, 1)]))
        base = {e: convert_to_table(_random_algebra(draw, p, d)) for e in cat.objects}
    sigma = {g: _random_map(draw, base[cat.dom[g]], base[cat.cod[g]])
             for g in cat.morphisms}
    pairs = list(cat.composable_pairs())
    alpha = {(g, h): _random_element(draw, base[cat.cod[g]]) for g, h in pairs}
    twists = {(g, h): draw(st.sampled_from(["straight", "opposite"])) for g, h in pairs}
    return CrossedSystem(cat, base, sigma, alpha=alpha, twists=twists)


def _assert_matches_element_loops(sys):
    assert repr(validate_crossed_system(sys)) == repr(_reference_report(sys))
    cp = crossed_product(sys, validate=False)
    _check_crossed_products(sys, cp)
    if cp.ring.is_algebra:
        cat, ref = sys.cat, cp.ring.F.zeros(cp.ring.constants.shape)
        for (g, h) in cat.composable_pairs():
            Bc, Bh = sys.base[cat.cod[g]], sys.base[cat.cod[h]]
            og, oh, ogh = cp.offsets[g], cp.offsets[h], cp.offsets[cat.compose(g, h)]
            for i, a in enumerate(Bc.spanning_elements()):
                for j, b in enumerate(Bh.spanning_elements()):
                    prod = _reference_block_product(sys, g, h, a, b)
                    ref[og + i, oh + j, ogh:ogh + Bc.dim] = prod.data
        assert np.array_equal(cp.ring.constants, ref)


@settings(max_examples=60, deadline=None)
@given(crossed_systems())
def test_batched_crossed_system_matches_element_loops(sys):
    _assert_matches_element_loops(sys)


_SMALL_RATIONALS = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                                    Fraction(1, 2)])


def _rational_algebra(draw, d):
    """Q, Q×Q, Q(i), or random constants (rarely commutative) of dimension d."""
    q = field_algebra(QQ)
    stock = [q] if d == 1 else [
        direct_sum_algebra([q, q]),
        make_structure_algebra(2, QQ, [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]])]
    if draw(st.booleans()):
        return draw(st.sampled_from(stock))
    C = draw(st.lists(_SMALL_RATIONALS, min_size=d ** 3, max_size=d ** 3))
    return make_structure_algebra(d, QQ, np.array(C, dtype=object).reshape(d, d, d))


def _rational_map(draw, B, C):
    anti = draw(st.booleans())
    d = B.dim
    stock = [np.eye(d, dtype=np.int64)] + ([[[0, 1], [1, 0]], [[1, 0], [0, -1]]]
                                           if d == 2 else [])
    if draw(st.booleans()):
        M = draw(st.sampled_from(stock))
    else:
        M = np.array(draw(st.lists(_SMALL_RATIONALS, min_size=d * d, max_size=d * d)),
                     dtype=object).reshape(d, d)
    return RingMap(B, C, M, anti=anti)


@st.composite
def rational_crossed_systems(draw):
    """Crossed systems over Q bases of dimension at most 2, on Z1, Z2 and
    the pair groupoid on 2 objects, with anti maps as often as not."""
    cat = draw(st.sampled_from([cyclic_group(1), cyclic_group(2), pair_groupoid(2)]))
    d = draw(st.integers(1, 2))
    base = {e: _rational_algebra(draw, d) for e in cat.objects}
    sigma = {g: _rational_map(draw, base[cat.dom[g]], base[cat.cod[g]])
             for g in cat.morphisms}
    pairs = list(cat.composable_pairs())
    alpha = {}
    for g, h in pairs:
        B = base[cat.cod[g]]
        unit = B.probe_properties().unit
        alpha[(g, h)] = unit if unit is not None and draw(st.booleans()) else B.element(
            draw(st.lists(_SMALL_RATIONALS, min_size=d, max_size=d)))
    twists = {(g, h): draw(st.sampled_from(["straight", "opposite"])) for g, h in pairs}
    return CrossedSystem(cat, base, sigma, alpha=alpha, twists=twists)


@settings(max_examples=40, deadline=None)
@given(rational_crossed_systems())
def test_stacked_checks_match_element_loops_over_q_and_groupoids(sys):
    _assert_matches_element_loops(sys)


# rationals with the denominators 1, 2, 3 and 5, so the integer paths of the
# Q backend scale by different denominators on the two sides they compare
_DENOMINATOR_RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3, 5]))


def _rational_rows(draw, rows, cols):
    return np.array(draw(st.lists(_DENOMINATOR_RATIONALS, min_size=rows * cols,
                                  max_size=rows * cols)), dtype=object).reshape(rows, cols)


def _reference_first_product_failure(m):
    """The first basis pair (i, j) with m(e_i e_j) != m(e_i) m(e_j), or
    m(e_j) m(e_i) when the map is anti, one Element product at a time."""
    span = m.source.spanning_elements()
    return next(((i, j) for i, a in enumerate(span) for j, b in enumerate(span)
                 if m.apply(a * b) != ((m.apply(b) * m.apply(a)) if m.anti
                                       else (m.apply(a) * m.apply(b)))), None)


def _reference_twisted_blocks(alg, S, alpha, opposite):
    """The [i, j] rows (e_i·s)·alpha, or (s·e_i)·alpha, for s the j-th row
    of S, one Element product at a time."""
    a = alg.element(alpha)
    return [[(((alg.element(s) * e) if opposite else (e * alg.element(s))) * a).data
             for s in S] for e in alg.spanning_elements()]


def _reference_commuting_span(ring, elements):
    """The x with x·b = b·x for each b, as the rref null space of the
    equations Σ x_i (e_i b − b e_i) = 0, built from Element products."""
    columns = [[(e * b - b * e).data[k] for e in ring.spanning_elements()]
               for b in elements for k in range(ring.dim)]
    return ring.F.kernel(columns, ring.dim)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_q_integer_paths_match_fraction_references(data):
    d = data.draw(st.integers(1, 3))
    alg = make_structure_algebra(d, QQ, _rational_rows(data.draw, d * d, d).reshape(d, d, d))
    if data.draw(st.booleans()):
        # a unital algebra (Q, Q(i), Q^3) on a random basis P: C' = P P C P^-1
        unital = {1: field_algebra(QQ), 2: cayley_tower(QQ, 1).rings[1],
                  3: functions_ring(3, QQ)}[d]
        P = np.tril(_rational_rows(data.draw, d, d), -1) + np.diag(
            [data.draw(_DENOMINATOR_RATIONALS.filter(bool)) for _ in range(d)])
        C = np.einsum("ia,jb,abc,ck->ijk", P, P, unital.constants,
                      unital.F.solve(P, unital.F.eye(d)))
        alg = make_structure_algebra(d, QQ, C)
    F = alg.F
    # the unit, against the solve on the Fraction constants
    C = alg.constants
    reference = F.solve(np.vstack([C.transpose(1, 2, 0).reshape(d * d, d),
                                   C.transpose(0, 2, 1).reshape(d * d, d)]),
                        np.tile(F.eye(d).ravel(), 2))
    report = probe_properties(alg)
    unit = report.unit
    assert (None if unit is None else list(unit.data)) == \
        (None if reference is None else reference.tolist())
    # the commutativity witness, compared on the integer table
    span = alg.spanning_elements()
    assert report.commutative_witness == next(((x, y) for x in span for y in span
                                                if x * y != y * x), None)
    # both sides of the homomorphism check, on a random map, straight or anti
    m = RingMap(alg, alg, _rational_rows(data.draw, d, d), anti=data.draw(st.booleans()))
    assert m.first_product_failure() == _reference_first_product_failure(m)
    # the alpha verdicts, on a random element and on the unit when there is one
    elements = [alg.element(_rational_rows(data.draw, 1, d)[0])]
    elements += [unit] if unit is not None else []
    for a in elements:
        assert alg.associates_and_commutes(a) == _reference_associates_and_commutes(alg, a)
        assert alg.is_unit(a) == _reference_is_unit(alg, a)
    # twisted blocks of a stack of two maps
    h, opposite = data.draw(st.integers(1, 3)), data.draw(st.booleans())
    stack = np.array([_rational_rows(data.draw, h, d) for _ in range(2)])
    alpha = _rational_rows(data.draw, 1, d)[0]
    blocks = F.twisted_blocks(alg, stack, alpha, opposite)
    assert [block.tolist() for block in blocks] == \
        [[list(map(list, row)) for row in _reference_twisted_blocks(alg, S, alpha, opposite)]
         for S in stack]
    # commuting spans, the center among them
    assert commuting_span(alg, elements).key() == \
        Subspace(alg, *_reference_commuting_span(alg, elements)).key()
    spanning = alg.spanning_elements()
    assert ideals.center(alg).span.key() == \
        Subspace(alg, *_reference_commuting_span(alg, spanning)).key()


@settings(max_examples=15, deadline=None)
@given(st.lists(st.sampled_from([Fraction(-1), Fraction(1, 2), Fraction(-3, 5), Fraction(2, 3)]),
                min_size=1, max_size=3))
def test_q_doubling_conjugation_matches_the_fraction_reference(alphas):
    """The extended conjugation of each doubling reverses products, and
    the same matrix read as a straight map fails at the reference's pair."""
    for cd in cayley_tower(QQ, len(alphas), alphas=alphas).doublings:
        conj = cd.extended_sigma
        assert conj.first_product_failure() is None
        assert _reference_first_product_failure(conj) is None
        straight = RingMap(conj.source, conj.target, conj.operator)
        assert straight.first_product_failure() == _reference_first_product_failure(straight)


def test_q_tower_compares_no_fractions(monkeypatch):
    """Building and validating the sedenion tower over Q compares its
    values as integers inside the backend: Fraction.__eq__ is never
    called (10,755 times when the sides were Fraction arrays)."""
    calls = []

    def counted(*args, _original=Fraction.__eq__):
        calls.append(args)
        return _original(*args)

    monkeypatch.setattr(Fraction, "__eq__", counted)
    tower = cayley_tower(QQ, 4)
    reports = [validate_crossed_system(cd.system) for cd in tower.doublings]
    monkeypatch.undo()
    assert all(ok for report in reports for _, ok, _ in report)
    assert [r.dim for r in tower.rings] == [1, 2, 4, 8, 16]
    assert calls == []


def test_missing_base_ring_is_a_failed_item():
    b = field_algebra(GF(2))
    cat = pair_groupoid(2)
    sys = CrossedSystem(cat, {0: b}, {g: RingMap.identity(b) for g in cat.morphisms})
    report = validate_crossed_system(sys)
    assert report == [("base ring at 0 unital", True, None),
                      ("base ring at 1 present", False, None)]
    with pytest.raises(ValidationFailure):
        crossed_product(sys)


def test_alpha_verdicts_are_kept_per_base_ring():
    # alpha = 1 in both bases: a unit of F_3, not of the zero algebra on F_3
    f3 = field_algebra(GF(3))
    null = make_structure_algebra(1, GF(3), [[[0]]])
    cat = pair_groupoid(2)
    base = {0: f3, 1: null}
    sigma = {g: RingMap(base[cat.dom[g]], base[cat.cod[g]], [[1]])
             for g in cat.morphisms}
    alpha = {(g, h): base[cat.cod[g]].element((1,)) for g, h in cat.composable_pairs()}
    sys = CrossedSystem(cat, base, sigma, alpha=alpha)
    report = validate_crossed_system(sys)
    assert repr(report) == repr(_reference_report(sys))
    units = {name: ok for name, ok, _ in report if name.endswith("] unit")}
    assert units["alpha[(0, 0),(0, 0)] unit"] and not units["alpha[(1, 1),(1, 1)] unit"]


def _survey_systems():
    from ringlab.certify import _abelian_groups_upto, _actions_on
    for m in range(1, 5):
        for kind, order, cat in _abelian_groups_upto(6):
            for p in (2, 3):
                for action in _actions_on(kind, cat, m):
                    yield dynamics_skew_group_ring(m, cat, action, GF(p))


# sha256 over the validation report and the structure constants of the 312
# dynamics systems of the default survey, recorded with the element loops
SURVEY_SYSTEMS_SHA256 = "7075855f4d0aca8c6a75567a85378be576077b1f95efc234e02c90f3e53652ce"


def test_survey_systems_are_unchanged():
    digest, count = hashlib.sha256(), 0
    for dyn in _survey_systems():
        digest.update(repr(validate_crossed_system(dyn.system)).encode())
        digest.update(dyn.ring.constants.tobytes())
        count += 1
    assert count == 312
    assert digest.hexdigest() == SURVEY_SYSTEMS_SHA256


def test_dynamics_build_makes_no_element_products(monkeypatch):
    from ringlab.rings import StructureAlgebra
    calls = []
    mul_coords = StructureAlgebra.mul_coords

    def counted(self, x, y):
        calls.append(1)
        return mul_coords(self, x, y)

    monkeypatch.setattr(StructureAlgebra, "mul_coords", counted)
    rotation = {k: tuple((x + k) % 4 for x in range(4)) for k in range(4)}
    dyn = dynamics_skew_group_ring(4, cyclic_group(4), rotation, GF(3))
    assert all(ok for _, ok, _ in validate_crossed_system(dyn.system))
    assert len(calls) < 100


def test_survey_build_probes_each_base_ring_once(monkeypatch):
    from ringlab.rings import StructureAlgebra
    probed = []
    probe = StructureAlgebra._probe

    def counted(self):
        probed.append(self)
        return probe(self)

    monkeypatch.setattr(StructureAlgebra, "_probe", counted)
    assert sum(1 for _ in _survey_systems()) == 312
    # one functions ring per (points, field): 4 point counts, F_2 and F_3
    assert len(probed) <= 8


def test_crossed_build_composes_no_maps_and_reduces_no_components(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(RingMap, "compose", counted("compose", RingMap.compose))
    # where subspace_from_vectors is defined, and where the build could reach it
    from ringlab import subgroups
    from ringlab.constructions import crossed
    for mod in (subgroups, crossed):
        fn = getattr(mod, "subspace_from_vectors", None)
        if fn is not None:
            monkeypatch.setattr(mod, "subspace_from_vectors",
                                counted("subspace_from_vectors", fn))
    rotation = {k: tuple((x + k) % 4 for x in range(4)) for k in range(4)}
    dyn = dynamics_skew_group_ring(4, cyclic_group(4), rotation, GF(3))
    assert all(ok for _, ok, _ in validate_crossed_system(dyn.system))
    assert calls == []


# ---------------------------------------------------------------------------
# many systems over one category and base, built as one stack
# ---------------------------------------------------------------------------

def _stacked_element(draw, B):
    if B.is_table or B.F != QQ:
        return _random_element(draw, B)
    unit = B.probe_properties().unit
    if unit is not None and draw(st.booleans()):
        return unit
    return B.element(draw(st.lists(_SMALL_RATIONALS, min_size=B.dim, max_size=B.dim)))


@st.composite
def stacked_crossed_systems(draw):
    """One to four systems over one category and one dict of base rings
    (F_2 or F_3 algebras, Q algebras, Z/n or small table rings; one ring
    for every object as often as not), each with its own maps, alphas and
    twists: random ones, which mostly fail validation, or, over unital
    bases shared by every object, the identity maps with random twists and
    no alpha given, which pass."""
    cat = draw(st.sampled_from([cyclic_group(1), cyclic_group(2), cyclic_group(3),
                                pair_groupoid(2)]))
    kind = draw(st.sampled_from(["Fp", "Q", "Zn", "table"]))
    p, d = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)]))
    n = draw(st.sampled_from([2, 3, 4, 6]))

    def new_base():
        if kind == "Fp":
            return _random_algebra(draw, p, d)
        if kind == "Q":
            return _rational_algebra(draw, min(d, 2))
        if kind == "Zn":
            return zmod_ring(n)
        # at most 4 elements, so that the product stays under its size cap
        return convert_to_table(_random_algebra(draw, p, 1 if p == 3 else min(d, 2)))

    if draw(st.booleans()):
        shared = new_base()
        base = {e: shared for e in cat.objects}
    else:
        base = {e: new_base() for e in cat.objects}
    random_map = _rational_map if kind == "Q" else _random_map
    plain_ok = all(base[cat.dom[g]] is base[cat.cod[g]] for g in cat.morphisms) and all(
        B.probe_properties().unit is not None for B in base.values())
    mode = draw(st.sampled_from(["random", "plain", "mixed"])) if plain_ok else "random"
    pairs = list(cat.composable_pairs())
    systems = []
    for _ in range(draw(st.integers(1, 4))):
        twists = {(g, h): draw(st.sampled_from(["straight", "opposite"])) for g, h in pairs}
        if mode == "plain" or (mode == "mixed" and draw(st.booleans())):
            sigma = {g: RingMap.identity(base[cat.dom[g]]) for g in cat.morphisms}
            systems.append(CrossedSystem(cat, base, sigma, twists=twists))
            continue
        sigma = {g: random_map(draw, base[cat.dom[g]], base[cat.cod[g]])
                 for g in cat.morphisms}
        alpha = {(g, h): _stacked_element(draw, base[cat.cod[g]]) for g, h in pairs}
        systems.append(CrossedSystem(cat, base, sigma, alpha=alpha, twists=twists))
    return systems


def _assert_same_products(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        cat = a.system.cat
        assert a.system is b.system and a.offsets == b.offsets
        if a.ring.is_algebra:
            assert a.ring.F == b.ring.F and np.array_equal(a.ring.constants, b.ring.constants)
        else:
            assert a.ring.zero_index == b.ring.zero_index
            assert np.array_equal(a.ring.add_table, b.ring.add_table)
            assert np.array_equal(a.ring.mul_table, b.ring.mul_table)
        assert all(a.grading.components[g].key() == b.grading.components[g].key()
                   for g in cat.morphisms)


def _build(call):
    try:
        return call()
    except ValidationFailure as exc:
        return exc


@settings(max_examples=50, deadline=None)
@given(stacked_crossed_systems())
def test_stacked_crossed_products_equal_the_one_by_one_builds(systems):
    # the stacked items are the report but its trailing functoriality
    # warnings, which only validate_crossed_system computes
    for sys, items in zip(systems, crossed._validation_items(systems)):
        stacked = [(name.format(*args), ok, detail) for name, args, ok, detail in items]
        report = validate_crossed_system(sys)
        warnings = report[len(stacked):]
        assert repr(stacked) == repr(report[:len(stacked)])
        assert len(warnings) == len(sys.cat.composable_pairs())
        assert all(name.endswith("[warning only]") for name, _, _ in warnings)
        assert repr(report) == repr(_reference_report(sys))
    _assert_same_products(crossed_products(systems, validate=False),
                          [crossed_product(sys, validate=False) for sys in systems])
    # validated: the first system that fails raises what it raises alone
    alone = [_build(lambda sys=sys: crossed_product(sys)) for sys in systems]
    stacked = _build(lambda: crossed_products(systems))
    failed = [r for r in alone if isinstance(r, ValidationFailure)]
    if failed:
        assert isinstance(stacked, ValidationFailure) and str(stacked) == str(failed[0])
    else:
        _assert_same_products(stacked, alone)
        for sys, cp in zip(systems, stacked):
            _check_crossed_products(sys, cp)


def test_building_never_computes_functoriality(monkeypatch):
    def refused(*args):
        raise AssertionError("functoriality computed")

    monkeypatch.setattr(crossed, "_functoriality", refused)
    rotations = [{0: (0, 1, 2), 1: (1, 2, 0), 2: (2, 0, 1)},
                 {0: (0, 1, 2), 1: (0, 1, 2), 2: (0, 1, 2)}]
    built = dynamics_skew_group_rings(3, cyclic_group(3), rotations, GF(2))
    twisted_group_ring(field_algebra(GF(3)), cyclic_group(2), lambda g, h: 1)
    B, Z2 = field_algebra(GF(3)), cyclic_group(2)
    bad = CrossedSystem(Z2, {Z2.objects[0]: B}, {g: RingMap.identity(B) for g in Z2.morphisms},
                        alpha={(1, 1): B.zero()})
    with pytest.raises(ValidationFailure, match="alpha"):
        crossed_product(bad)
    # the report still reads it
    with pytest.raises(AssertionError, match="functoriality computed"):
        validate_crossed_system(built[0].system)


def _count_backend_calls(monkeypatch, names):
    calls = []
    for name in names:
        def counted(self, *args, _name=name, _fn=getattr(linalg.ModP, name)):
            calls.append(_name)
            return _fn(self, *args)
        monkeypatch.setattr(linalg.ModP, name, counted)
    return calls


def test_a_survey_block_makes_as_many_stacked_calls_whatever_its_actions(monkeypatch):
    from ringlab import certify
    calls = _count_backend_calls(monkeypatch, ("product_failures", "twisted_blocks"))
    made = {}
    # the trivial group on 1 point (1 action), the Klein group on 4 points (52)
    for m, index in ((1, 0), (4, 6)):
        calls.clear()
        survey = certify._survey_block(m, 6, index, 2, 2 ** 15, ideals.DEFAULT_SEED)
        made[survey.instances] = sorted(calls)
    assert made == {1: ["product_failures", "twisted_blocks"],
                    52: ["product_failures", "twisted_blocks"]}


def test_stacks_past_the_constants_budget_are_built_in_chunks(monkeypatch):
    from ringlab import certify
    from ringlab.certify import _abelian_groups_upto, _actions_on
    kind, _, klein = _abelian_groups_upto(6)[6]
    actions = list(_actions_on(kind, klein, 3))
    block = (3, 6, 6, 3, 2 ** 15, ideals.DEFAULT_SEED)
    whole = certify._survey_block(*block)
    rings = dynamics_skew_group_rings(3, klein, actions, GF(3))
    # room for the constants of two systems (d = 12) per stack
    monkeypatch.setattr(crossed, "CONSTANTS_CAP", 2 * 12 ** 3)
    monkeypatch.setattr(certify, "CONSTANTS_CAP", 2 * 12 ** 3)
    calls = _count_backend_calls(monkeypatch, ("twisted_blocks",))
    chunked = dynamics_skew_group_rings(3, klein, actions, GF(3))
    assert len(actions) == 10 and len(calls) == 5
    assert all(np.array_equal(a.ring.constants, b.ring.constants)
               for a, b in zip(rings, chunked))
    assert certify._survey_block(*block) == whole
    assert whole.transferred > 0


def test_q_tower_tables_and_commutativity_test_no_fractions(monkeypatch):
    """``product_table``, ``Subring.is_commutative`` and ``_interleave`` on
    the sedenion tower over Q read numerators and compare integers: no
    Fraction is compared or truth-tested (4,681 ``__eq__`` and 13,457
    ``__bool__`` calls when they did)."""
    from ringlab.ideals import Subring
    from ringlab.subgroups import full_subgroup
    tower = cayley_tower(QQ, 4)
    calls = []
    for name in ("__eq__", "__bool__"):
        def counted(*args, _name=name, _original=getattr(Fraction, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(Fraction, name, counted)
    commutative = [Subring(ring, full_subgroup(ring)).is_commutative() for ring in tower.rings]
    tables = [linalg.product_table(ring.constants) for ring in tower.rings]
    interleaved = [doubling._interleave(cd)[0] for cd in tower.doublings]
    monkeypatch.undo()
    assert calls == []
    assert commutative == [True, True, False, False, False]
    assert [sum(1 for _ in t.entries()) for t in tables] == [d * d for d in (1, 2, 4, 8, 16)]
    assert all(np.array_equal(a.constants, b.constants)
               for a, b in zip(interleaved, tower.rings[1:]))


# ---------------------------------------------------------------------------
# G-simplicity by stable closures of lines, against the ideal enumeration
# ---------------------------------------------------------------------------

def _upper_triangular(p):
    # T2(F_p) on the basis E11, E12, E22: unital and not commutative
    return make_structure_algebra(
        3, GF(p),
        [[[1, 0, 0], [0, 1, 0], [0, 0, 0]],
         [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
         [[0, 0, 0], [0, 0, 0], [0, 0, 1]]])


def _unital_base(draw, table, p):
    """A unital base ring: a table ring of at most 4 elements, or an F_p
    algebra of dimension at most 3."""
    if table:
        return draw(st.sampled_from([zmod_ring(2), zmod_ring(3), zmod_ring(4),
                                     convert_to_table(functions_ring(2, GF(2))),
                                     convert_to_table(gf_extension(4)[0])]))
    d = draw(st.integers(1, 3))
    options = [functions_ring(d, GF(p))]
    if d > 1:
        options.append(gf_extension(p ** d)[0])
    if d == 3:
        options.append(_upper_triangular(p))
    return draw(st.sampled_from(options))


@st.composite
def unital_crossed_systems(draw):
    """Random systems whose base subring is the sum of the unital bases:
    sigma is the identity and alpha the unit at every identity, everything
    else as random as in ``crossed_systems``."""
    cat = draw(st.sampled_from([cyclic_group(1), cyclic_group(2), cyclic_group(3),
                                pair_groupoid(2)]))
    table, p = draw(st.booleans()), draw(st.sampled_from([2, 3]))
    base = {e: _unital_base(draw, table, p) for e in cat.objects}
    identities = {cat.identity[e] for e in cat.objects}
    sigma = {g: (RingMap.identity(base[cat.dom[g]]) if g in identities else
                 _random_map(draw, base[cat.dom[g]], base[cat.cod[g]]))
             for g in cat.morphisms}
    pairs = list(cat.composable_pairs())
    alpha = {(g, h): (base[cat.cod[g]].probe_properties().unit
                      if g in identities and h in identities
                      else _random_element(draw, base[cat.cod[g]])) for g, h in pairs}
    twists = {(g, h): draw(st.sampled_from(["straight", "opposite"])) for g, h in pairs}
    return CrossedSystem(cat, base, sigma, alpha=alpha, twists=twists)


def _reference_g_simple(cp):
    I = first_invariant_ideal(enumerate_subring_ideals(cp.ring, cp.base_subring()),
                              lambda I: is_G_invariant(cp, I))
    return I is None, I


@settings(max_examples=80, deadline=None)
@given(unital_crossed_systems())
def test_g_simplicity_matches_the_ideal_enumeration(sys):
    cp = crossed_product(sys, validate=False)
    v = is_G_simple(cp)
    ok, wit = v.holds, v.witness
    ref_ok, ref_wit = _reference_g_simple(cp)
    assert ok == ref_ok
    if not ok:
        assert wit.key() == ref_wit.key() and wit.of_subring is not None
        assert is_G_invariant(cp, wit)


def _count_enumerations(monkeypatch):
    # every lattice, of the ring or of a subring, is built by this one function
    calls = []
    original = ideals.enumerate_subring_ideals

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(ideals, "enumerate_subring_ideals", counted)
    return calls


def test_g_simplicity_enumerates_no_ideals(monkeypatch):
    calls = _count_enumerations(monkeypatch)
    rotation = {k: tuple((x + k) % 4 for x in range(4)) for k in range(4)}
    assert is_G_simple(dynamics_skew_group_ring(4, cyclic_group(4), rotation, GF(3))).holds
    swap = {0: (0, 1, 2, 3), 1: (1, 0, 3, 2)}
    v = is_G_simple(dynamics_skew_group_ring(4, cyclic_group(2), swap, GF(3)))
    assert not v.holds and v.witness.measure() == 2
    assert calls == []


def test_g_simplicity_keeps_its_size_and_field_limits(monkeypatch):
    from ringlab.corpus import build_nonminimal_dynamics
    dyn = build_nonminimal_dynamics()            # base F_2^3, 8 elements
    # past the cap Norton's test decides; its submodule is the witness
    v = is_G_simple(dyn, cap=7)
    assert not v.holds and 0 < v.witness.measure() < 3 and is_G_invariant(dyn, v.witness)
    with monkeypatch.context() as m:
        # an undecided test leaves only the line walk, which the cap stops
        m.setattr(linalg, "_norton_trial", lambda gens, p, rng: None)
        with pytest.raises(TooLarge):
            is_G_simple(dyn, cap=7)
        # a cap of 0 is a cap, not a request for the default
        with pytest.raises(TooLarge):
            is_G_simple(dyn, cap=0)
        assert not is_G_simple(dyn, cap=8).holds
    q = field_algebra(QQ)
    over_q = skew_group_ring(q, cyclic_group(2), {g: RingMap.identity(q) for g in (0, 1)})
    with pytest.raises(InfiniteScalarField):
        is_G_simple(over_q)


def test_table_crossed_product_builds_in_little_memory():
    import tracemalloc
    b = zmod_ring(8)
    tracemalloc.start()
    try:
        cp = skew_group_ring(b, cyclic_group(3), {g: RingMap.identity(b) for g in range(3)})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cp.ring.n == 512
    assert peak <= 4 * (cp.ring.add_table.nbytes + cp.ring.mul_table.nbytes)
