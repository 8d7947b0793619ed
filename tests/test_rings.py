import itertools
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlab import (GF, QQ, RingMap, SigmaDerivationData, cayley_tower, cyclic_group,
                     enumerate_elements, field_algebra, functions_ring,
                     make_structure_algebra, make_table_ring, opposite,
                     probe_properties, ring_eval, twisted_group_ring, zmod_ring)
from ringlab.ore import SkewPolynomial
from ringlab.rings import convert_to_table
from ringlab.errors import (DistributivityViolation, InfiniteScalarField,
                            NotAbelianGroup, RingMismatch, ShapeMismatch)


def _zn_tables(n):
    idx = np.arange(n)
    return (idx[:, None] + idx[None, :]) % n, (idx[:, None] * idx[None, :]) % n


def test_make_table_ring_zn():
    add, mul = _zn_tables(4)
    r4 = make_table_ring(add, mul, 0)
    assert r4.n == 4
    add6, mul6 = _zn_tables(6)
    r6 = make_table_ring(add6, mul6, 0)
    p = probe_properties(r6)
    assert p.commutative and p.unital and p.unit.data == 1


def test_table_ring_negation_table_in_little_memory():
    import tracemalloc
    from ringlab.rings import TableRing
    n = 512
    add, mul = (t.astype(np.int32) for t in _zn_tables(n))
    tracemalloc.start()
    try:
        ring = TableRing(add, mul, 0, _validated=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ring.neg_table.tolist() == [(-a) % n for a in range(n)]
    # one N×N bool mask; an int32 difference and its abs would be 8·N²
    assert peak <= 2 * n * n


def test_make_table_ring_rejects_broken_mul():
    add, mul = _zn_tables(4)
    mul = mul.copy()
    mul[1, 2] = 3  # 1*2 should be 2
    with pytest.raises(DistributivityViolation):
        make_table_ring(add, mul, 0)


def test_make_table_ring_rejects_broken_add():
    add, mul = _zn_tables(4)
    add = add.copy()
    add[1, 2] = 0  # breaks symmetry/permutation structure
    with pytest.raises(NotAbelianGroup):
        make_table_ring(add, mul, 0)


def test_structure_algebra_shapes():
    one_dim = make_structure_algebra(1, QQ, [[[1]]])
    e = one_dim.basis_element(0)
    assert (e * e) == e
    with pytest.raises(ShapeMismatch):
        make_structure_algebra(2, QQ, [[[1]]])


def test_gaussian_integers_product():
    # basis 1, i with i^2 = -1
    qi = make_structure_algebra(2, QQ, [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]])
    one_plus_i = qi.element([1, 1])
    one_minus_i = qi.element([1, -1])
    assert ring_eval(one_plus_i, one_minus_i, "mul") == qi.element([2, 0])
    p = probe_properties(qi)
    assert p.associative and p.commutative and p.unital


def test_ring_eval_and_mismatch():
    r6 = zmod_ring(6)
    assert ring_eval(r6.element(4), r6.element(5), "add").data == 3
    assert ring_eval(r6.element(2), None, "neg").data == 4
    other = zmod_ring(6)
    with pytest.raises(RingMismatch):
        ring_eval(r6.element(1), other.element(1), "add")


def test_quaternions_match_doubling():
    tower = cayley_tower(GF(3), 2)
    h3 = tower.rings[2]
    assert h3.size() == 81
    u1, u2, u3 = (h3.basis_element(i) for i in (1, 2, 3))
    assert u1 * u2 == u3
    assert u2 * u1 == -u3
    p = probe_properties(h3)
    assert p.associative and not p.commutative


def test_probe_witnesses():
    tower = cayley_tower(QQ, 3)
    octonions = tower.rings[3]
    p = probe_properties(octonions)
    assert not p.associative
    a, b, c = p.associative_witness
    assert (a * b) * c != a * (b * c)


def test_opposite_is_an_involution():
    r6 = zmod_ring(6)
    opp = opposite(opposite(r6))
    assert np.array_equal(opp.mul_table, r6.mul_table)
    assert np.array_equal(opposite(r6).mul_table, r6.mul_table)  # commutative
    h3 = cayley_tower(GF(3), 2).rings[2]
    opp = opposite(h3)
    u1, u2 = opp.basis_element(1), opp.basis_element(2)
    assert u1 * u2 == -opp.basis_element(3)
    back = opposite(opp)
    assert np.array_equal(np.asarray(back.constants), np.asarray(h3.constants))


def test_enumerate_elements():
    r4 = zmod_ring(4)
    els = enumerate_elements(r4)
    assert len(els) == 4 and els[0].is_zero()
    h3 = cayley_tower(GF(3), 2).rings[2]
    assert len(enumerate_elements(h3)) == 81
    hq = cayley_tower(QQ, 2).rings[2]
    with pytest.raises(InfiniteScalarField):
        enumerate_elements(hq)


def test_convert_to_table():
    from ringlab.rings import convert_to_table
    from ringlab.ideals import enumerate_ideals
    h3 = cayley_tower(GF(3), 2).rings[2]
    table = convert_to_table(h3)
    assert table.n == 81
    assert probe_properties(table).associative
    assert len(enumerate_ideals(table)) == 2  # matches the algebra view
    hq = cayley_tower(QQ, 2).rings[2]
    with pytest.raises(InfiniteScalarField):
        convert_to_table(hq)
    o3 = cayley_tower(GF(3), 3).rings[3]
    from ringlab.errors import TooLarge
    with pytest.raises(TooLarge):
        convert_to_table(o3, cap=100)


def _reference_table(alg):
    """The tables of an F_p algebra on its elements in
    ``itertools.product(range(p), repeat=dim)`` order, one pair at a time."""
    p, d = alg.F.p, alg.dim
    digits = list(itertools.product(range(p), repeat=d))
    index = {x: i for i, x in enumerate(digits)}
    add = [[index[tuple((a + b) % p for a, b in zip(x, y))] for y in digits] for x in digits]
    mul = [[index[tuple(alg.mul_coords(x, y))] for y in digits] for x in digits]
    return add, mul


@st.composite
def _small_fp_algebras(draw):
    p = draw(st.sampled_from([2, 3]))
    d = draw(st.integers(1, 4 if p == 2 else 3))
    C = draw(st.lists(st.integers(0, p - 1), min_size=d ** 3, max_size=d ** 3))
    return make_structure_algebra(d, GF(p), np.array(C).reshape(d, d, d).tolist())


@given(_small_fp_algebras())
@settings(max_examples=40, deadline=None)
def test_convert_to_table_equals_the_product_order(alg):
    from ringlab.rings import convert_to_table
    table = convert_to_table(alg)
    add, mul = _reference_table(alg)
    assert table.zero_index == 0
    assert table.add_table.tolist() == add and table.mul_table.tolist() == mul


def _reference_associativity(ring):
    """(associative, witness) of a table ring, one triple at a time in
    row-major order: the scan the generator check replaces."""
    mul = ring.mul_table.tolist()
    for a, b, c in itertools.product(range(ring.n), repeat=3):
        if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
            return False, (ring.element(a), ring.element(b), ring.element(c))
    return True, None


@st.composite
def _table_rings(draw):
    """Tables of random F_p algebras (rarely associative), of associative
    ones (matrices, functions, truncated polynomials, Z/n and their sums),
    with their indices relabelled at random, so the generators the probe
    picks are not the algebra's basis and zero is not index 0."""
    from ringlab.rings import (TableRing, convert_to_table, direct_sum_algebra,
                               full_matrix_algebra, functions_ring,
                               truncated_polynomial_ring)
    associative = [full_matrix_algebra(2, GF(2)), functions_ring(3, GF(2)),
                   truncated_polynomial_ring(3, 2),
                   direct_sum_algebra([truncated_polynomial_ring(2, 2), functions_ring(1, GF(2))])]
    choice = draw(st.integers(0, 2))
    if choice == 0:
        ring = convert_to_table(draw(_small_fp_algebras()))
    elif choice == 1:
        ring = convert_to_table(draw(st.sampled_from(associative)))
    else:
        ring = zmod_ring(draw(st.integers(1, 30)))
    perm = np.array(draw(st.permutations(range(ring.n))))   # old index -> new
    inverse = np.argsort(perm)
    return TableRing(perm[ring.add_table[np.ix_(inverse, inverse)]],
                     perm[ring.mul_table[np.ix_(inverse, inverse)]], perm[ring.zero_index])


@given(_table_rings())
@settings(max_examples=60, deadline=None)
def test_table_associativity_on_generators_matches_the_full_scan(ring):
    gens = ring.additive_generators()
    assert len(gens) <= ring.n.bit_length() - 1          # at most log2 n
    report = probe_properties(ring)
    assert (report.associative, report.associative_witness) == _reference_associativity(ring)


def test_a_prime_order_table_ring_scans_no_triple(monkeypatch):
    from ringlab.rings import TableRing
    scans = []
    scan = TableRing._first_associator
    monkeypatch.setattr(TableRing, "_first_associator",
                        lambda self: scans.append(self.n) or scan(self))
    ring = zmod_ring(1021)
    assert probe_properties(ring).associative and ring.additive_generators() == [ring.element(1)]
    assert scans == []


def test_every_enumeration_over_q_raises():
    from ringlab.ideals import (enumerate_ideals, enumerate_subring_ideals,
                                first_proper_line_ideal, first_stable_ideal,
                                ideal_closure)
    from ringlab.rings import convert_to_table
    hq = cayley_tower(QQ, 2).rings[2]
    span = ideal_closure(hq, [hq.basis_element(1)]).span
    entry_points = [
        lambda: hq.element_blocks(), lambda: enumerate_elements(hq),
        lambda: span.element_blocks(), lambda: span.elements(),
        lambda: convert_to_table(hq), lambda: enumerate_ideals(hq),
        lambda: enumerate_subring_ideals(hq, None),
        lambda: first_proper_line_ideal(hq), lambda: first_stable_ideal(hq, None, []),
        lambda: hq.F.element_blocks(span.rows, 1 << 20)]
    for enumerate_ in entry_points:
        with pytest.raises(InfiniteScalarField):
            enumerate_()


def test_table_distributivity_holds_exhaustively():
    r6 = zmod_ring(6)
    for a in range(6):
        for b in range(6):
            for c in range(6):
                ea, eb, ec = r6.element(a), r6.element(b), r6.element(c)
                assert ea * (eb + ec) == ea * eb + ea * ec
                assert (ea + eb) * ec == ea * ec + eb * ec


def test_is_zero_compares_no_fractions(monkeypatch):
    # Element.is_zero reads the data: over Q it truth-tests the coordinates,
    # on the sedenions and in a skew polynomial's trailing-zero strip, where
    # a zero built as Fraction(0) is not the backend's zero object
    sedenions = cayley_tower(QQ, 4).rings[4]
    elements = sedenions.spanning_elements() + [sedenions.zero()]
    q = field_algebra(QQ)
    data = SigmaDerivationData(q, RingMap.identity(q), RingMap(q, q, [[0]]))
    zero = q.element([Fraction(0)])
    calls = []

    def counted(*args, _original=Fraction.__eq__):
        calls.append(args)
        return _original(*args)

    monkeypatch.setattr(Fraction, "__eq__", counted)
    flags = [e.is_zero() for e in elements]
    poly = SkewPolynomial(data, [data.unit, zero, zero])
    monkeypatch.undo()
    assert flags == [False] * 16 + [True]
    assert poly.coeffs == (data.unit,)
    assert calls == []


@pytest.mark.parametrize("ring", [zmod_ring(6), convert_to_table(functions_ring(2, GF(3)))],
                         ids=["Z6", "F3xF3-table"])
def test_table_scalar_mul_is_the_k_fold_sum(ring):
    n = ring.n
    for k in range(-2 * n, 2 * n + 1):
        images = []
        for a in ring.enumerate_elements():
            step, total = (a if k >= 0 else -a), ring.zero()
            for _ in range(abs(k)):
                total = total + step
            assert ring.scalar_mul(k, a) == total
            images.append(total.data)
        assert ring.scalar_operator(k).tolist() == images
    with pytest.raises(TypeError):
        ring.scalar_mul("1/2", ring.zero())


def test_a_huge_integer_multiple_is_read_mod_n():
    # 10^18 + 1 = 1 mod 4: adding the unit that many times would not return
    z4 = zmod_ring(4)
    k = 10 ** 18 + 1
    start = time.perf_counter()
    assert z4.scalar_mul(k, z4.element(1)) == z4.element(1)
    tw = twisted_group_ring(z4, cyclic_group(2), lambda g, h: k)
    assert time.perf_counter() - start < 1
    assert tw.system.alpha_at(1, 1) == z4.element(1)


def test_a_ring_map_holds_one_operator_of_its_source_kind():
    z4, f3 = zmod_ring(4), field_algebra(GF(3))
    index, matrix = RingMap(z4, z4, (0, 3, 2, 1)), RingMap(f3, f3, [[5]])
    for m in (index, matrix):
        assert set(vars(m)) == {"source", "target", "anti", "operator"}
    assert index.operator.dtype == np.int64 and index.operator.tolist() == [0, 3, 2, 1]
    assert matrix.operator.tolist() == [[2]]
    assert index.compose(index).equals(RingMap.identity(z4))
    assert matrix.compose(matrix).is_identity() and not matrix.is_identity()
    assert index.apply(z4.element(1)) == z4.element(3)

