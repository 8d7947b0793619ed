import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlab import (GF, RingMap, SigmaDerivationData, center,
                     check_A_invariance_truncated, commutator_degree_drop,
                     ideal_closure, is_sigma_delta_invariant,
                     is_sigma_delta_simple, ore_degree_map, ore_mul,
                     s_coefficients, truncated_polynomial_ring,
                     validate_sigma_derivation, zmod_ring, gf_extension,
                     QQ, enumerate_ideals,
                     field_algebra, functions_ring, make_structure_algebra)
from ringlab.corpus import ORE_CORPUS, build_ore_f5, build_ore_m2f2_inner, build_ore_z4
from ringlab.errors import (InfiniteScalarField, PreconditionUnmet, ShapeMismatch,
                            TooLarge)
from ringlab.ideals import first_invariant_ideal
from ringlab.ore import (SkewPolynomial, assert_associativity_sample,
                         degree_map_commutator_samples,
                         degree_one_escape_witness, random_polynomial)
from ringlab import linalg
from ringlab.rings import convert_to_table
import random


def _ddy(p, k):
    b = truncated_polynomial_ring(p, k)
    m = np.zeros((k, k), dtype=np.int64)
    for i in range(1, k):
        m[i, i - 1] = i
    return SigmaDerivationData(b, RingMap.identity(b), RingMap(b, b, matrix=m))


def test_validate_formal_derivative():
    data = _ddy(2, 2)
    assert all(ok for _, ok, _ in validate_sigma_derivation(data))


def test_validate_rejects_delta_of_one():
    b = truncated_polynomial_ring(2, 2)
    m = np.zeros((2, 2), dtype=np.int64)
    m[0, 0] = 1  # delta(1) = 1
    data = SigmaDerivationData(b, RingMap.identity(b), RingMap(b, b, matrix=m))
    report = dict((name, ok) for name, ok, _ in validate_sigma_derivation(data))
    assert not report["delta kills the unit"]
    assert not report["twisted Leibniz rule"]


def test_validate_rejects_non_multiplicative_sigma():
    b = truncated_polynomial_ring(2, 2)
    swap = np.array([[0, 1], [1, 0]], dtype=np.int64)  # 1 <-> y
    zero = np.zeros((2, 2), dtype=np.int64)
    data = SigmaDerivationData(b, RingMap(b, b, matrix=swap), RingMap(b, b, matrix=zero))
    report = dict((name, ok) for name, ok, _ in validate_sigma_derivation(data))
    assert not report["sigma multiplicative"]


def test_base_must_be_associative_and_unital():
    from ringlab import make_structure_algebra
    null = make_structure_algebra(1, GF(2), [[[0]]])
    with pytest.raises(ShapeMismatch):
        SigmaDerivationData(null, RingMap.identity(null), RingMap.identity(null))


def test_defining_relation():
    data = build_ore_f5()
    y = data.constant(data.base.basis_element(1))
    xy = data.x() * y
    # x·y = y·x + 1
    assert xy.coeffs[1] == data.base.basis_element(1)
    assert xy.coeffs[0] == data.base.basis_element(0)


def test_multiplication_by_one_and_degree():
    data = build_ore_f5()
    rng = random.Random(7)
    p = random_polynomial(data, rng, 3)
    one = data.constant(data.unit)
    assert p * one == p and one * p == p
    assert ore_degree_map(SkewPolynomial(data, ())) == 0
    assert ore_degree_map(one) == 1
    y = data.base.basis_element(1)
    x2_plus_y = SkewPolynomial(data, (y, data.base.zero(), data.unit))
    assert ore_degree_map(x2_plus_y) == 3


def test_associativity_spot_check():
    data = build_ore_f5()
    x = data.x()
    y = data.constant(data.base.basis_element(1))
    assert (x * (x * y)) == ((x * x) * y)
    ok, witness = assert_associativity_sample(data, samples=150)
    assert ok, witness


def test_s_coefficients():
    data = build_ore_f5()
    y = data.base.basis_element(1)
    assert s_coefficients(0, y, data) == [y]
    one = data.base.basis_element(0)
    s1 = s_coefficients(1, y, data)
    assert s1 == [y, one]                      # sigma = id: [b, delta(b)]
    s2 = s_coefficients(2, y, data)
    two = data.base.element([2, 0, 0, 0, 0])
    assert s2 == [y, two, data.base.zero()]    # [b, 2 delta(b), delta^2(b)]


def test_sigma_delta_invariance():
    data = _ddy(2, 2)
    B = data.base
    zero_ideal = ideal_closure(B, [])
    assert is_sigma_delta_invariant(zero_ideal, data)
    y_ideal = ideal_closure(B, [B.basis_element(1)])
    assert not is_sigma_delta_invariant(y_ideal, data)
    whole = ideal_closure(B, [B.basis_element(0)])
    assert is_sigma_delta_invariant(whole, data)


def test_sigma_delta_simplicity():
    assert is_sigma_delta_simple(_ddy(2, 2)).simple
    assert is_sigma_delta_simple(_ddy(3, 3)).simple
    # delta = 0 leaves <y> stable
    b = truncated_polynomial_ring(2, 2)
    zero = np.zeros((2, 2), dtype=np.int64)
    lazy = SigmaDerivationData(b, RingMap.identity(b), RingMap(b, b, matrix=zero))
    v = is_sigma_delta_simple(lazy)
    assert not v.simple
    from ringlab.corpus import build_ore_z4
    v = is_sigma_delta_simple(build_ore_z4())
    assert not v.simple and sorted(v.witness.span.members) == [0, 2]
    from ringlab.corpus import build_ore_f4_frobenius
    assert is_sigma_delta_simple(build_ore_f4_frobenius()).simple


def test_commutator_with_central_element():
    data = build_ore_f5()
    c = data.constant(data.base.element([3, 0, 0, 0, 0]))
    drop, comm = commutator_degree_drop(c, data.base.element([2, 0, 0, 0, 0]), data)
    assert drop and comm.is_zero()


def test_commutator_with_x():
    data = build_ore_f5()
    y = data.base.basis_element(1)
    a = SkewPolynomial(data, (y, data.unit))       # x + y, monic
    drop, comm = commutator_degree_drop(a, "x", data)
    assert drop
    assert comm == data.constant(data.base.element([-1, 0, 0, 0, 0]))
    with pytest.raises(PreconditionUnmet):
        commutator_degree_drop(SkewPolynomial(data, (y, y)), "x", data)


def test_monic_commutator_degree_bound():
    data = build_ore_f5()
    rng = random.Random(11)
    for _ in range(50):
        a = random_polynomial(data, rng, 4, monic=True)
        drop, comm = commutator_degree_drop(a, "x", data)
        if not comm.is_zero():
            assert comm.degree() <= a.degree() - 1


def test_truncated_invariance():
    data = _ddy(3, 3)
    B = data.base
    whole = ideal_closure(B, [B.basis_element(0)])
    assert check_A_invariance_truncated(whole, data, 4)
    y_ideal = ideal_closure(B, [B.basis_element(1)])
    assert not check_A_invariance_truncated(y_ideal, data, 1)
    v, poly = degree_one_escape_witness(y_ideal, data)
    assert poly.degree() <= 1
    escapes = [c for c in poly.coeffs if not y_ideal.contains(c)]
    assert escapes


def test_degree_of_products():
    data = build_ore_f5()
    rng = random.Random(3)
    for _ in range(60):
        p = random_polynomial(data, rng, 3)
        q = random_polynomial(data, rng, 3)
        prod = p * q
        if p.is_zero() or q.is_zero():
            assert prod.is_zero()
            continue
        assert prod.is_zero() or prod.degree() <= p.degree() + q.degree()
        lead = p.leading() * q.leading()   # sigma = id twist
        if not lead.is_zero():
            assert prod.degree() == p.degree() + q.degree()


def test_ore_mul_distributes():
    data = build_ore_f5()
    rng = random.Random(19)
    for _ in range(40):
        p = random_polynomial(data, rng, 3)
        q = random_polynomial(data, rng, 3)
        r = random_polynomial(data, rng, 3)
        assert p * (q + r) == p * q + p * r
        assert (p + q) * r == p * r + q * r


def test_monic_commutator_drop_for_full_base_set():
    # for delta-simple differential data the degree drops against every base
    # element (monic top coefficients cancel) and against x
    for name, build in ORE_CORPUS:
        data = build()
        if not data.sigma.is_identity():
            continue
        if not is_sigma_delta_simple(data).simple:
            continue
        rng = random.Random(5)
        for _ in range(25):
            a = random_polynomial(data, rng, 3, monic=True)
            da = ore_degree_map(a)
            for b in data.base.spanning_elements():
                pb = data.constant(b)
                assert ore_degree_map(a * pb - pb * a) < da, name
            drop, _ = commutator_degree_drop(a, "x", data)
            assert drop, name


def test_samplers_run_over_q():
    # Q and Q × Q with sigma = id and delta = 0: the samplers draw small
    # integer coordinates, as the simplicity witness search does
    for base in (field_algebra(QQ), functions_ring(2, QQ)):
        zero = np.zeros((base.dim, base.dim), dtype=np.int64)
        data = SigmaDerivationData(base, RingMap.identity(base), RingMap(base, base, matrix=zero))
        assert assert_associativity_sample(data, samples=20) == (True, None)
        report = degree_map_commutator_samples(data, samples=20)
        assert report.samples == 20 and report.clean
        rng = random.Random(1)
        assert any(c != data.unit and not c.is_zero()
                   for _ in range(5) for c in random_polynomial(data, rng, 3).coeffs)


def test_random_polynomials_draw_the_same_coefficients():
    # one randrange per coordinate (F_p) or per element (tables), in order
    for data in (build_ore_f5(), _ddy(2, 3), build_ore_m2f2_inner(), build_ore_z4()):
        B = data.base
        for seed in range(5):
            rng, ref = random.Random(seed), random.Random(seed)
            for monic in (False, True):
                got = random_polynomial(data, rng, 3, monic=monic)
                deg = ref.randrange(4)
                coeffs = [B.element(ref.randrange(B.n)) if B.is_table else
                          B.element(tuple(ref.randrange(B.modulus) for _ in range(B.dim)))
                          for _ in range(deg + 1)]
                if monic or coeffs[-1].is_zero():
                    coeffs[-1] = data.unit
                assert got == SkewPolynomial(data, coeffs)


def test_commutator_samples_clean_on_corpus():
    for name, build in ORE_CORPUS:
        data = build()
        if not data.sigma.is_identity():
            continue
        rep = degree_map_commutator_samples(data, samples=60)
        assert rep.clean, name


def test_inner_derivation_base():
    data = build_ore_m2f2_inner()
    assert all(ok for _, ok, _ in validate_sigma_derivation(data))
    assert is_sigma_delta_simple(data).simple


# ---------------------------------------------------------------------------
# sigma-delta-simplicity by stable closures, against the ideal enumeration
# ---------------------------------------------------------------------------

def _upper_triangular(p):
    # T2(F_p) on the basis E11, E12, E22: unital and not commutative
    return make_structure_algebra(
        3, GF(p),
        [[[1, 0, 0], [0, 1, 0], [0, 0, 0]],
         [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
         [[0, 0, 0], [0, 0, 0], [0, 0, 1]]])


def _random_self_map(draw, B):
    if B.is_table:
        return RingMap(B, B, perm=draw(st.lists(st.integers(0, B.n - 1),
                                                min_size=B.n, max_size=B.n)))
    p, d = B.modulus, B.dim
    kind = draw(st.sampled_from(["identity", "zero", "random"]))
    if kind == "identity":
        return RingMap.identity(B)
    if kind == "zero":
        return RingMap(B, B, matrix=np.zeros((d, d), dtype=np.int64))
    M = draw(st.lists(st.integers(0, p - 1), min_size=d * d, max_size=d * d))
    return RingMap(B, B, matrix=np.array(M).reshape(d, d))


@st.composite
def sigma_delta_data(draw):
    """Random sigma and delta over a unital associative base: an F_2/F_3
    algebra of dimension at most 3 or a table ring of at most 4 elements.
    Half the time delta is the inner sigma-derivation b -> cb - sigma(b)c."""
    if draw(st.booleans()):
        p, d = draw(st.sampled_from([2, 3])), draw(st.integers(1, 3))
        options = [functions_ring(d, GF(p))]
        if d > 1:
            options.append(gf_extension(p ** d)[0])
        if d == 3:
            options.append(_upper_triangular(p))
        B = draw(st.sampled_from(options))
    else:
        B = draw(st.sampled_from([zmod_ring(2), zmod_ring(3), zmod_ring(4),
                                  convert_to_table(functions_ring(2, GF(2)))]))
    sigma = _random_self_map(draw, B)
    if B.is_algebra and draw(st.booleans()):
        c = draw(st.lists(st.integers(0, B.modulus - 1), min_size=B.dim, max_size=B.dim))
        L, R = B.F.mult_matrices(B, c)              # rows c·e_j and e_i·c
        delta = RingMap(B, B, matrix=L - sigma.matrix @ R)
    else:
        delta = _random_self_map(draw, B)
    return SigmaDerivationData(B, sigma, delta)


@settings(max_examples=80, deadline=None)
@given(sigma_delta_data())
def test_sigma_delta_simplicity_matches_the_ideal_enumeration(data):
    v = is_sigma_delta_simple(data)
    ref = first_invariant_ideal(enumerate_ideals(data.base),
                                lambda I: is_sigma_delta_invariant(I, data))
    assert v.simple == (ref is None)
    if not v.simple:
        assert v.witness.key() == ref.key() and v.witness.of_subring is None


def test_sigma_delta_simplicity_keeps_its_size_and_field_limits(monkeypatch):
    data = _ddy(3, 3)                                # base of 27 elements
    # Norton's test proves the base irreducible under its multiplications,
    # sigma and delta, at any size
    assert is_sigma_delta_simple(data, cap=26).simple
    with monkeypatch.context() as m:
        # an undecided test leaves only the line walk, which the cap stops
        m.setattr(linalg, "_norton_trial", lambda gens, p, rng: None)
        with pytest.raises(TooLarge):
            is_sigma_delta_simple(data, cap=26)
        assert is_sigma_delta_simple(data, cap=27).simple
    q = field_algebra(QQ)
    with pytest.raises(InfiniteScalarField):
        is_sigma_delta_simple(SigmaDerivationData(q, RingMap.identity(q), RingMap.identity(q)))
