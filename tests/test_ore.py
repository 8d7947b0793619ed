import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ringlab import (GF, RingMap, SigmaDerivationData, center,
                     check_A_invariance_truncated, commutator_degree_drop,
                     commutator_drop_failure, ideal_closure, is_sigma_delta_invariant,
                     is_sigma_delta_simple, ore_degree_map, ore_mul,
                     s_coefficients, truncated_polynomial_ring,
                     validate_sigma_derivation, zmod_ring, gf_extension,
                     QQ, enumerate_ideals,
                     field_algebra, functions_ring, make_structure_algebra)
from ringlab.corpus import ORE_CORPUS, build_ore_f5, build_ore_m2f2_inner, build_ore_z4
from ringlab.errors import (CriterionDisagreement, InfiniteScalarField,
                            PreconditionUnmet, ShapeMismatch, TooLarge)
from ringlab.ideals import first_invariant_ideal
from ringlab.ore import SkewPolynomial, _monomial, degree_one_escape_witness
from ringlab import linalg, ore
from ringlab.rings import convert_to_table


def _ddy(p, k):
    b = truncated_polynomial_ring(p, k)
    m = np.zeros((k, k), dtype=np.int64)
    for i in range(1, k):
        m[i, i - 1] = i
    return SigmaDerivationData(b, RingMap.identity(b), RingMap(b, b, m))


def _elements(B):
    """Any element of a table ring or of an F_p algebra."""
    if B.is_table:
        return st.integers(0, B.n - 1).map(B.element)
    return st.lists(st.integers(0, B.F.p - 1), min_size=B.dim,
                    max_size=B.dim).map(B.element)


@st.composite
def polynomials(draw, data, max_deg=3, monic=False):
    """A polynomial of degree at most ``max_deg``; its top coefficient is
    the unit when ``monic`` or when it was drawn zero."""
    coeffs = draw(st.lists(_elements(data.base), min_size=1, max_size=max_deg + 1))
    if monic or coeffs[-1].is_zero():
        coeffs[-1] = data.unit
    return SkewPolynomial(data, coeffs)


def associativity_failure(data, max_deg=3):
    """The first triple (x^i, h·x^j, k), with i, j ≤ max_deg and h, k
    additive generators of the base, at which ore_mul is not associative;
    None proves (pq)r = p(qr) whenever p and q have degree at most max_deg.

    The associator is additive in each argument (linear, over an algebra),
    so triples of monomials g·x^i, h·x^j, k·x^l decide it.  A left factor g
    of the base comes out of both sides, because the base is associative,
    and a right factor x^l only shifts degrees."""
    gens = data.base.additive_generators()
    for i in range(max_deg + 1):
        p = _monomial(data, data.unit, i)
        for j in range(max_deg + 1):
            for h in gens:
                q = _monomial(data, h, j)
                for k in gens:
                    r = data.constant(k)
                    if (p * q) * r != p * (q * r):
                        return p, q, r
    return None


_F5 = build_ore_f5()


def test_validate_formal_derivative():
    data = _ddy(2, 2)
    assert all(ok for _, ok, _ in validate_sigma_derivation(data))


def test_validate_rejects_delta_of_one():
    b = truncated_polynomial_ring(2, 2)
    m = np.zeros((2, 2), dtype=np.int64)
    m[0, 0] = 1  # delta(1) = 1
    data = SigmaDerivationData(b, RingMap.identity(b), RingMap(b, b, m))
    report = dict((name, ok) for name, ok, _ in validate_sigma_derivation(data))
    assert not report["delta kills the unit"]
    assert not report["twisted Leibniz rule"]


def test_validate_rejects_non_multiplicative_sigma():
    b = truncated_polynomial_ring(2, 2)
    swap = np.array([[0, 1], [1, 0]], dtype=np.int64)  # 1 <-> y
    zero = np.zeros((2, 2), dtype=np.int64)
    data = SigmaDerivationData(b, RingMap(b, b, swap), RingMap(b, b, zero))
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


@settings(max_examples=30, deadline=None)
@given(polynomials(_F5))
def test_multiplication_by_one_and_degree(p):
    data = _F5
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
    assert associativity_failure(data) is None


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
    assert is_sigma_delta_simple(_ddy(2, 2)).holds
    assert is_sigma_delta_simple(_ddy(3, 3)).holds
    # delta = 0 leaves <y> stable
    b = truncated_polynomial_ring(2, 2)
    zero = np.zeros((2, 2), dtype=np.int64)
    lazy = SigmaDerivationData(b, RingMap.identity(b), RingMap(b, b, zero))
    v = is_sigma_delta_simple(lazy)
    assert not v.holds
    from ringlab.corpus import build_ore_z4
    v = is_sigma_delta_simple(build_ore_z4())
    assert not v.holds and sorted(v.witness.span.members) == [0, 2]
    from ringlab.corpus import build_ore_f4_frobenius
    assert is_sigma_delta_simple(build_ore_f4_frobenius()).holds


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


@settings(max_examples=50, deadline=None)
@given(polynomials(_F5, 4, monic=True))
def test_monic_commutator_degree_bound(a):
    drop, comm = commutator_degree_drop(a, "x", _F5)
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


@settings(max_examples=60, deadline=None)
@given(polynomials(_F5), polynomials(_F5))
def test_degree_of_products(p, q):
    prod = p * q
    assert prod.is_zero() or prod.degree() <= p.degree() + q.degree()
    lead = p.leading() * q.leading()   # sigma = id twist
    if not lead.is_zero():
        assert prod.degree() == p.degree() + q.degree()


@settings(max_examples=40, deadline=None)
@given(polynomials(_F5), polynomials(_F5), polynomials(_F5))
def test_ore_mul_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r


_ORE = [(name, build()) for name, build in ORE_CORPUS]


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_monic_commutator_drop_for_full_base_set(draws):
    # for delta-simple differential data the degree drops against every base
    # element (monic top coefficients cancel) and against x
    for name, data in _ORE:
        if not data.sigma.is_identity():
            continue
        if not is_sigma_delta_simple(data).holds:
            continue
        a = draws.draw(polynomials(data, 3, monic=True))
        da = ore_degree_map(a)
        for b in data.base.spanning_elements():
            pb = data.constant(b)
            assert ore_degree_map(a * pb - pb * a) < da, name
        drop, _ = commutator_degree_drop(a, "x", data)
        assert drop, name


def test_exact_checks_run_over_q():
    # Q and Q × Q with sigma = id and delta = 0: the monomials run over a
    # basis, and both identities are linear over Q
    for base in (field_algebra(QQ), functions_ring(2, QQ)):
        zero = np.zeros((base.dim, base.dim), dtype=np.int64)
        data = SigmaDerivationData(base, RingMap.identity(base), RingMap(base, base, zero))
        assert commutator_drop_failure(data) is None
        assert associativity_failure(data) is None


def test_exact_checks_hold_on_the_ore_corpus():
    for name, data in _ORE:
        assert associativity_failure(data) is None, name
        if data.sigma.is_identity():
            assert commutator_drop_failure(data) is None, name
        else:
            with pytest.raises(PreconditionUnmet):
                commutator_drop_failure(data)


def test_a_wrong_product_gives_each_exact_check_a_witness(monkeypatch):
    data = build_ore_f5()
    B = data.base
    x_power_times, ore_mul = ore.x_power_times, ore.ore_mul
    with monkeypatch.context() as m:
        # x·c read as c·x + delta(c) + c: delta + id is no derivation
        shifted = SigmaDerivationData(B, data.sigma, RingMap(
            B, B, data.delta.operator + np.eye(B.dim, dtype=np.int64)))
        m.setattr(ore, "x_power_times", lambda d, i, b: x_power_times(shifted, i, b))
        p, q, r = associativity_failure(data)
        assert (p * q) * r != p * (q * r)
        a, b = commutator_drop_failure(data)
        assert b == "x" and a * data.x() - data.x() * a != SkewPolynomial(
            data, [-data.delta.apply(c) for c in a.coeffs])
    with monkeypatch.context() as m:
        # a constant right factor of a polynomial of degree 2 or more
        # multiplied on the left: the x-commutators hold, the central ones
        # do not
        m.setattr(ore, "ore_mul", lambda p, q: ore_mul(q, p)
                  if len(p.coeffs) > 2 and len(q.coeffs) == 1 else ore_mul(p, q))
        p, q, r = associativity_failure(data)
        assert (p * q) * r != p * (q * r)
        a, b = commutator_drop_failure(data)
        assert b != "x" and center(B).contains(b)
        with pytest.raises(CriterionDisagreement):
            commutator_degree_drop(a, b, data)
    assert associativity_failure(data) is None and commutator_drop_failure(data) is None
    # delta(1) != 0: [1, x] = -delta(1) is the witness
    bad = SigmaDerivationData(B, data.sigma, RingMap(
        B, B, data.delta.operator + np.eye(B.dim, dtype=np.int64)))
    assert commutator_drop_failure(bad) == (bad.constant(bad.unit), "x")


def test_inner_derivation_base():
    data = build_ore_m2f2_inner()
    assert all(ok for _, ok, _ in validate_sigma_derivation(data))
    assert is_sigma_delta_simple(data).holds


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


def _additive_table_map(draw, B):
    """The map sending each additive generator of a table ring to a drawn
    element, extended along sums: additive on the strategy's table rings,
    whose additive groups are cyclic or of exponent 2."""
    image = {B.zero_index: B.zero_index}
    for g in B.additive_generators():
        t = draw(st.integers(0, B.n - 1))
        frontier = list(image)
        while frontier:
            y = frontier.pop()
            z = int(B.add_table[y, g.data])
            if z not in image:
                image[z] = int(B.add_table[image[y], t])
                frontier.append(z)
    return RingMap(B, B, [image[i] for i in range(B.n)])


def _random_self_map(draw, B):
    if B.is_table:
        if draw(st.booleans()):
            return _additive_table_map(draw, B)
        return RingMap(B, B, draw(st.lists(st.integers(0, B.n - 1),
                                                min_size=B.n, max_size=B.n)))
    p, d = B.F.p, B.dim
    kind = draw(st.sampled_from(["identity", "zero", "random"]))
    if kind == "identity":
        return RingMap.identity(B)
    if kind == "zero":
        return RingMap(B, B, np.zeros((d, d), dtype=np.int64))
    M = draw(st.lists(st.integers(0, p - 1), min_size=d * d, max_size=d * d))
    return RingMap(B, B, np.array(M).reshape(d, d))


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
        c = draw(st.lists(st.integers(0, B.F.p - 1), min_size=B.dim, max_size=B.dim))
        L, R = B.F.mult_matrices(B, c)              # rows c·e_j and e_i·c
        delta = RingMap(B, B, L - sigma.operator @ R)
    else:
        delta = _random_self_map(draw, B)
    return SigmaDerivationData(B, sigma, delta)


@settings(max_examples=80, deadline=None)
@given(sigma_delta_data())
def test_sigma_delta_simplicity_matches_the_ideal_enumeration(data):
    v = is_sigma_delta_simple(data)
    ref = first_invariant_ideal(enumerate_ideals(data.base),
                                lambda I: is_sigma_delta_invariant(I, data))
    assert v.holds == (ref is None)
    if not v.holds:
        assert v.witness.key() == ref.key() and v.witness.of_subring is None


@settings(max_examples=80, deadline=None)
@given(sigma_delta_data(), st.integers(1, 3))
def test_exact_associativity_matches_the_validator(data, max_deg):
    # the coefficients of (x·b)·c = x·(bc) are sigma(b)sigma(c) = sigma(bc)
    # and sigma(b)delta(c) + delta(b)c = delta(bc); over an associative base
    # those two make the whole extension associative
    assume(data.sigma.additivity() is not False
           and data.delta.additivity() is not False)
    report = {name: ok for name, ok, _ in validate_sigma_derivation(data)}
    witness = associativity_failure(data, max_deg)
    assert (witness is None) == (report["sigma multiplicative"]
                                 and report["twisted Leibniz rule"])
    if witness is not None:
        p, q, r = witness
        assert (p * q) * r != p * (q * r)


def _leibniz_scan(data):
    """The twisted Leibniz rule on every pair of spanning elements (every
    pair of elements of a table ring): (holds, first failing pair)."""
    span = data.base.spanning_elements()
    for a in span:
        for b in span:
            if data.delta.apply(a * b) != (data.sigma.apply(a) * data.delta.apply(b)
                                           + data.delta.apply(a) * b):
                return False, (a, b)
    return True, None


@settings(max_examples=80, deadline=None)
@given(sigma_delta_data())
def test_the_leibniz_rule_on_generators_matches_the_full_scan(data):
    # additive sigma and delta are checked on pairs of additive generators,
    # and the full scan runs only for a failure's first witness
    report = validate_sigma_derivation(data)
    assert report[-1] == ("twisted Leibniz rule",) + _leibniz_scan(data)


def test_the_leibniz_rule_on_a_large_table_ring_reads_its_generators(monkeypatch):
    B = zmod_ring(256)
    data = SigmaDerivationData(B, RingMap.identity(B), RingMap(B, B, [0] * 256))
    calls = []
    apply = RingMap.apply
    monkeypatch.setattr(RingMap, "apply", lambda m, x: calls.append(x) or apply(m, x))
    assert validate_sigma_derivation(data)[-1] == ("twisted Leibniz rule", True, None)
    assert len(calls) < 100                         # the full scan makes 4 x 65,536


def test_sigma_delta_simplicity_keeps_its_size_and_field_limits(monkeypatch):
    data = _ddy(3, 3)                                # base of 27 elements
    # Norton's test proves the base irreducible under its multiplications,
    # sigma and delta, at any size
    assert is_sigma_delta_simple(data, cap=26).holds
    with monkeypatch.context() as m:
        # an undecided test leaves only the line walk, which the cap stops
        m.setattr(linalg, "_norton_trial", lambda gens, p, rng: None)
        with pytest.raises(TooLarge):
            is_sigma_delta_simple(data, cap=26)
        assert is_sigma_delta_simple(data, cap=27).holds
    q = field_algebra(QQ)
    with pytest.raises(InfiniteScalarField):
        is_sigma_delta_simple(SigmaDerivationData(q, RingMap.identity(q), RingMap.identity(q)))
