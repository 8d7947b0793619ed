import itertools
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ringlab import (GF, QQ, FiniteCategory, abelian_group, cyclic_group,
                     check_invariance_componentwise, dynamics_skew_group_ring,
                     enumerate_ideals, enumerate_subring_ideals,
                     field_algebra, full_matrix_algebra, grading_flags,
                     ideal_closure, ideal_intersection_property,
                     is_A_invariant, is_simple, local_units_full_ideal_test,
                     make_structure_algebra, matrix_ring, pair_groupoid,
                     skew_group_ring, subring_closure, support, support_degree_map,
                     trivial_grading, validate_grading, verify_degree_map,
                     xor_group, zmod_ring, RingMap, full_subring)
from ringlab import gradings, rings
from ringlab.errors import (CriterionDisagreement, NotDirectSum, PreconditionUnmet,
                            ValidationFailure)
from ringlab.gradings import DegreeMap, graded_ideal_associativity
from ringlab.ideals import IdealBasis, check_ideal_associativity
from ringlab.rings import convert_to_table, gf_extension
from ringlab.subgroups import full_subgroup, product_span, subspace_from_vectors


def _m3f2_graded():
    from ringlab.corpus import build_m3f2_block_graded
    built = build_m3f2_block_graded()
    return built.ring, built.grading


def test_category_validation():
    with pytest.raises(ValidationFailure):
        FiniteCategory(("a",), ("e", "g"), {"e": "a", "g": "a"},
                       {"e": "a", "g": "a"},
                       {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g",
                        ("g", "g"): "g"},  # g*g = g but g is not idempotent-safe
                       {"a": "e"}, inverse={"e": "e", "g": "g"})


def test_category_validation_names_a_morphism_without_endpoints():
    # a morphism missing from dom or cod is refused before any check reads
    # its endpoints (it raised a bare KeyError)
    table = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    for dom, cod, item in (({0: "*"}, {0: "*", 1: "*"}, "morphism 1 has no domain"),
                           ({0: "*", 1: "*"}, {1: "*"}, "morphism 0 has no codomain")):
        with pytest.raises(ValidationFailure) as err:
            FiniteCategory(("*",), (0, 1), dom, cod, table, {"*": 0})
        assert err.value.items == [item]


def _first_nonassociative_triple(cat):
    """The reference: every triple in ``itertools.product`` order, one at a
    time, skipping those with an undefined composition."""
    table = cat.compose_table
    for g, h, k in itertools.product(cat.morphisms, repeat=3):
        if cat.composable(g, h) and cat.composable(h, k):
            left, right = table.get((table.get((g, h)), k)), table.get((g, table.get((h, k))))
            if left is not None and right is not None and left != right:
                return g, h, k
    return None


def test_category_validation_names_the_first_failure():
    # every one-entry change or deletion in the Z3 and pair:2 tables; a
    # deleted entry is a ValidationFailure that names it
    for cat in (cyclic_group(3), pair_groupoid(2)):
        for key in cat.compose_table:
            for value in (None,) + cat.morphisms:
                table = dict(cat.compose_table)
                if value is None:
                    del table[key]
                else:
                    table[key] = value
                broken = FiniteCategory(cat.objects, cat.morphisms, cat.dom, cat.cod, table,
                                        cat.identity, inverse=cat.inverse, validate=False)
                bad = _first_nonassociative_triple(broken)
                assert broken._associativity_failure() == bad
                if value == cat.compose_table[key]:
                    continue
                with pytest.raises(ValidationFailure) as err:
                    broken._validate()
                if value is None:
                    assert "missing composition ({!r},{!r})".format(*key) in err.value.items
                if bad is not None:
                    assert "composition not associative at ({!r},{!r},{!r})".format(*bad) \
                        in err.value.items


def test_a_group_at_the_morphism_cap_builds_in_under_a_second():
    start = time.process_time()
    cyclic_group(256)
    assert time.process_time() - start < 1.0


def test_pair_groupoid_structure():
    g = pair_groupoid(3)
    assert g.is_groupoid and g.is_connected() and g.is_locally_abelian()
    assert g.compose((0, 1), (1, 2)) == (0, 2)
    assert not g.composable((0, 1), (0, 2))
    assert g.inverse[(0, 2)] == (2, 0)


def test_group_categories():
    z6 = cyclic_group(6)
    assert z6.is_group() and z6.is_abelian_group()
    k4 = abelian_group((2, 2))
    assert len(k4.morphisms) == 4 and k4.is_abelian_group()
    x3 = xor_group(3)
    assert x3.compose(5, 3) == 6


def test_validate_grading_m3():
    m3, gr = _m3f2_graded()
    fl = grading_flags(gr)
    assert fl.strongly_graded and fl.locally_unital
    assert fl.left_nondegenerate and fl.right_nondegenerate


def test_validate_grading_rejects_overlap():
    m3 = full_matrix_algebra(3, GF(2))
    full = subspace_from_vectors(m3, [[1 if i == j else 0 for i in range(9)]
                                      for j in range(9)])
    with pytest.raises(NotDirectSum):
        validate_grading(m3, cyclic_group(2), {0: full, 1: full})


def test_validate_grading_rejects_filter_violation():
    from ringlab.errors import FilterViolation
    m3, gr = _m3f2_graded()
    # swapping the labels breaks the filter: the label-0 component squares
    # into the label-1 one
    with pytest.raises(FilterViolation):
        validate_grading(m3, cyclic_group(2),
                         {0: gr.components[1], 1: gr.components[0]})


def test_support():
    m3, gr = _m3f2_graded()
    assert support(m3.zero(), gr) == frozenset()
    e11 = m3.element([1, 0, 0, 0, 0, 0, 0, 0, 0])
    assert support(e11, gr) == {0}
    e11_plus_e13 = m3.element([1, 0, 1, 0, 0, 0, 0, 0, 0])
    assert support(e11_plus_e13, gr) == {0, 1}


def test_group_algebra_flags_all_true():
    b = field_algebra(GF(2))
    ga = skew_group_ring(b, cyclic_group(2), {g: RingMap.identity(b) for g in (0, 1)})
    fl = grading_flags(ga.grading)
    assert fl.locally_unital and fl.strongly_graded
    assert fl.left_nondegenerate and fl.right_nondegenerate


def test_vertex_units_are_embedded_base_units():
    from ringlab.corpus import build_f4_frobenius_ring
    cp = build_f4_frobenius_ring()
    e = cp.system.cat.objects[0]
    unit_b = cp.system.base[e].probe_properties().unit
    assert cp.grading.vertex_unit(e) == cp.embed(cp.system.cat.identity[e], unit_b)


def test_verify_degree_map_valid_on_m3():
    m3, gr = _m3f2_graded()
    dm = support_degree_map(gr, "center_of_A0")
    assert verify_degree_map(dm).valid


def test_degree_map_d1_violation():
    r4 = zmod_ring(4)
    gr = trivial_grading(r4)
    dm = DegreeMap(r4, full_subring(r4), full_subring(r4).spanning(),
                   lambda a: 1, "constant-one map", grading=gr)
    assert verify_degree_map(dm).status == "D1Violation"


def test_degree_map_d2_violation():
    # upper triangular 2x2 over F2 with X = {E11} and d = 1 on nonzero
    # elements: inside the ideal spanned by E12 nothing commutes with E11
    t2 = make_structure_algebra(
        3, GF(2),
        # basis E11, E12, E22
        [[[1, 0, 0], [0, 1, 0], [0, 0, 0]],
         [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
         [[0, 0, 0], [0, 0, 0], [0, 0, 1]]])
    assert t2.probe_properties().associative
    X = [t2.basis_element(0)]
    B = subring_closure(t2, X)
    dm = DegreeMap(t2, B, X, lambda a: 0 if a.is_zero() else 1, "flat degree")
    v = verify_degree_map(dm)
    assert v.status == "D2Violation"


def _reference_elements(ring):
    """Every element, in the enumeration order the verdict's witness follows:
    coordinate tuples in product order, or the zero index then the rest."""
    if ring.is_table:
        return [ring.element(i) for i in
                [ring.zero_index] + [i for i in range(ring.n) if i != ring.zero_index]]
    return [ring.element(c) for c in itertools.product(range(ring.F.p), repeat=ring.dim)]


def _reference_verdict(dm):
    """(d1) and (d2) read straight off their definitions, one Element at a
    time and over every ideal (not only principal ones).

    a' qualifies for a bound t iff a' != 0, d(a') <= t and d([a', b]) < t
    for every b in X, that is iff t >= q(a') below; so (d2) holds in I at a
    iff the least q over I's nonzero elements is at most d(a)."""
    ring, d = dm.ring, dm.degree
    elements = _reference_elements(ring)
    for a in elements:
        if (d(a) == 0) != a.is_zero():
            return "D1Violation", a, None
    ideals = enumerate_ideals(ring)
    q = [float("inf") if x.is_zero() else
         max([d(x)] + [d(x * b - b * x) + 1 for b in dm.X]) for x in elements]
    inside = [[I.contains(x) for x in elements] for I in ideals]
    least = [min(qx for qx, m in zip(q, row) if m) for row in inside]
    for i, a in enumerate(elements):
        if a.is_zero():
            continue
        failing = [I for I, row, m in zip(ideals, inside, least) if row[i] and m > d(a)]
        if failing:
            return "D2Violation", a, min(failing, key=lambda I: I.measure())
    return "Valid", None, None


def _assert_matches_reference(dm):
    v = verify_degree_map(dm)
    status, a, ideal = _reference_verdict(dm)
    assert v.status == status
    if status == "D1Violation":
        assert v.witness == a
    elif status == "D2Violation":
        # the smallest failing ideal containing a is <a>
        assert v.witness[1] == a and v.witness[0].span == ideal.span
    return v


@st.composite
def _dynamics_support_maps(draw):
    """Support maps of B ⋊ Z_n for a random action on at most 3 points,
    rings of at most 512 elements so the reference stays fast.  Some are
    weighted, d(a) = sum of w_g over Supp(a), a callable that keeps the
    grading, so the groupoid candidates a·c can fail too."""
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from([2, 3]))
    points = draw(st.integers(1, 3))
    assume(p ** (n * points) <= 512)

    def power(s, k):
        out = tuple(range(points))
        for _ in range(k):
            out = tuple(s[x] for x in out)
        return out

    perms = [s for s in itertools.permutations(range(points))
             if power(s, n) == tuple(range(points))]
    s = draw(st.sampled_from(perms))
    dyn = dynamics_skew_group_ring(points, cyclic_group(n),
                                   {g: power(s, g) for g in range(n)}, GF(p))
    dm = support_degree_map(dyn.grading, draw(st.sampled_from(
        ["center_of_A0", "homogeneous_elements"])))
    if draw(st.booleans()):
        return dm
    weights = dict(zip(dyn.grading.order, draw(st.lists(
        st.integers(1, 3), min_size=n, max_size=n))))
    return DegreeMap(dm.ring, dm.B, dm.X,
                     lambda a: sum(weights[g] for g in dyn.grading.support(a)),
                     "weighted support", grading=dyn.grading)


def _frobenius_skew_ring(q, n):
    """F_q ⋊ Z_n, with k acting as the k-th power of the Frobenius."""
    fq, frob = gf_extension(q)
    p = fq.F.p
    return skew_group_ring(fq, cyclic_group(n), {
        k: RingMap(fq, fq, np.linalg.matrix_power(np.array(frob), k) % p)
        for k in range(n)})


_SIMPLE_GRADED = {
    "M2(F2)": lambda: matrix_ring(2, field_algebra(GF(2))),
    "M2(F3)": lambda: matrix_ring(2, field_algebra(GF(3))),
    "F4 x Z2": lambda: _frobenius_skew_ring(4, 2),
    "F8 x Z3": lambda: _frobenius_skew_ring(8, 3),
}


@st.composite
def _simple_support_maps(draw):
    """Support maps of simple graded rings, which verify_degree_map decides
    on the ideal lattice [0, A] without an element scan; the M2 maps over
    homogeneous elements violate (d2) (only the scalars commute with every
    E_ij), and the scan gives their witness."""
    built = _SIMPLE_GRADED[draw(st.sampled_from(sorted(_SIMPLE_GRADED)))]()
    return support_degree_map(built.grading, draw(st.sampled_from(
        ["center_of_A0", "homogeneous_elements"])))


@given(st.one_of(_dynamics_support_maps(), _simple_support_maps()))
@settings(max_examples=40, deadline=None)
def test_support_degree_maps_match_reference(dm):
    _assert_matches_reference(dm)


def test_a_simple_lie_algebra_keeps_its_d2_witness():
    # sl2(F5), the bracket as product on the basis e, f, h, is simple, and
    # under the trivial grading only 0 commutes with every basis element:
    # the lattice path finds the violation, and the scan its witness
    sl2 = make_structure_algebra(3, GF(5), [[[0, 0, 0], [0, 0, 1], [3, 0, 0]],
                                            [[0, 0, 4], [0, 0, 0], [0, 2, 0]],
                                            [[2, 0, 0], [0, 3, 0], [0, 0, 0]]])
    assert is_simple(sl2).is_simple
    v = verify_degree_map(support_degree_map(trivial_grading(sl2), "homogeneous_elements"))
    assert v.status == "D2Violation"
    assert repr(v.witness) == "(IdealBasis(Subspace(dim=3 of 3)), Element((0, 0, 1)))"


def test_a_simple_ring_support_map_scans_nothing(monkeypatch):
    # M3(F3): is_simple (Norton's test) says Simple and E_11 commutes with
    # the center of the diagonal, so no element is enumerated for (d1) or
    # (d2) and no principal ideal is closed
    dm = support_degree_map(matrix_ring(3, field_algebra(GF(3))).grading, "center_of_A0")
    counts = _count_scans(monkeypatch)
    assert verify_degree_map(dm).valid
    assert counts == {"principal_ideal": 0, "element_blocks": 0}


@pytest.mark.parametrize("n, field", [(6, GF(2)), (2, QQ)], ids=["M6(F2)", "M2(Q)"])
def test_support_maps_past_the_cap_on_a_simple_ring(monkeypatch, n, field):
    # M6(F2) has 2^36 elements, and M2(Q), simple by its reduction mod 3,
    # has no element scan at all: the support map over the center of the
    # diagonal is valid, and the one over homogeneous elements violates
    # (d2) with A and the first spanning element of the first component
    # as the witness, all without a scan
    mr = matrix_ring(n, field_algebra(field))
    counts = _count_scans(monkeypatch)
    assert verify_degree_map(support_degree_map(mr.grading, "center_of_A0")).valid
    v = verify_degree_map(support_degree_map(mr.grading, "homogeneous_elements"))
    assert counts == {"principal_ideal": 0, "element_blocks": 0}
    first = mr.grading.components[mr.grading.order[0]].spanning()[0]
    assert v.status == "D2Violation"
    assert v.witness[0].span.is_full() and v.witness[1] == first


@st.composite
def _callable_degree_maps(draw):
    """A random algebra of dimension <= 3 over F_2 or F_3 with a random
    degree table and X, and the same map on its convert_to_table image."""
    p = draw(st.sampled_from([2, 3]))
    dim = draw(st.integers(1, 3))
    n = p ** dim
    flat = draw(st.lists(st.integers(0, p - 1), min_size=dim ** 3, max_size=dim ** 3))
    alg = make_structure_algebra(dim, GF(p), np.array(flat).reshape(dim, dim, dim).tolist())
    low = draw(st.sampled_from([0, 1, 1, 1]))
    degrees = ([draw(st.sampled_from([0, 0, 0, 1]))]
               + draw(st.lists(st.integers(low, 3), min_size=n - 1, max_size=n - 1)))
    xs = draw(st.lists(st.integers(0, n - 1), max_size=3))
    weights = [p ** (dim - 1 - k) for k in range(dim)]
    table = convert_to_table(alg)

    def alg_index(a):
        return sum(c * w for c, w in zip(a.data, weights))

    coords = list(itertools.product(range(p), repeat=dim))
    alg_dm = DegreeMap(alg, full_subring(alg), [alg.element(coords[i]) for i in xs],
                       lambda a: degrees[alg_index(a)], "random degree table")
    table_dm = DegreeMap(table, full_subring(table), [table.element(i) for i in xs],
                         lambda a: degrees[a.data], "random degree table")
    return alg_dm, table_dm, alg_index


@given(_callable_degree_maps())
@settings(max_examples=60, deadline=None)
def test_callable_degree_maps_match_reference(maps):
    alg_dm, table_dm, alg_index = maps
    v_alg = _assert_matches_reference(alg_dm)
    v_table = _assert_matches_reference(table_dm)
    # convert_to_table numbers elements in the algebra's enumeration order
    assert v_alg.status == v_table.status
    if v_alg.status == "D1Violation":
        assert alg_index(v_alg.witness) == v_table.witness.data
    elif v_alg.status == "D2Violation":
        assert alg_index(v_alg.witness[1]) == v_table.witness[1].data
        assert v_alg.witness[0].span.size() == v_table.witness[0].span.size()


def _upper_triangular_f2():
    # basis E11, E12, E22
    return make_structure_algebra(
        3, GF(2),
        [[[1, 0, 0], [0, 1, 0], [0, 0, 0]],
         [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
         [[0, 0, 0], [0, 0, 0], [0, 0, 1]]])


def test_d1_violation_wins_over_an_earlier_d2_violation():
    t2 = _upper_triangular_f2()
    X = [t2.basis_element(0)]
    last = t2.element([1, 1, 1])          # the last element enumerated

    def flat(a):
        return 0 if a.is_zero() else 1

    v = verify_degree_map(DegreeMap(t2, subring_closure(t2, X), X, flat, "flat"))
    assert v.status == "D2Violation" and v.witness[1] != last
    v = verify_degree_map(DegreeMap(t2, subring_closure(t2, X), X,
                                    lambda a: 0 if a == last else flat(a), "flat"))
    assert v.status == "D1Violation" and v.witness == last


def test_exhaustive_scan_settles_what_the_candidates_cannot(monkeypatch):
    # M2(F2), X = {E11}: E12 fails as its own a' ([E12, E11] = E12 keeps its
    # degree) and there is no grading to offer a·c; the scan of <E12>, the
    # whole ring (M2(F2) is simple), finds E11 of degree 1, which commutes
    # with E11
    from ringlab.subgroups import Subspace
    m2 = full_matrix_algebra(2, GF(2))
    e11 = m2.basis_element(0)
    dm = DegreeMap(m2, full_subring(m2), [e11],
                   lambda a: 0 if a.is_zero() else 1 if a == e11 else 2, "two levels")
    scanned = []
    original = Subspace.element_blocks

    def counted(span, *args, **kwargs):
        scanned.append(span)
        return original(span, *args, **kwargs)

    monkeypatch.setattr(Subspace, "element_blocks", counted)
    assert verify_degree_map(dm).valid
    assert scanned and all(span.is_full() for span in scanned)
    assert _reference_verdict(dm)[0] == "Valid"


def test_degree_map_check_works_on_blocks(monkeypatch):
    mr = matrix_ring(3, field_algebra(GF(3)))
    dm = support_degree_map(mr.grading, "center_of_A0")
    assert mr.ring.size() == 19683
    calls = {"decompose": 0, "mul_coords": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(gradings.Grading, "decompose",
                        counting("decompose", gradings.Grading.decompose))
    monkeypatch.setattr(rings.StructureAlgebra, "mul_coords",
                        counting("mul_coords", rings.StructureAlgebra.mul_coords))
    assert verify_degree_map(dm).valid
    assert calls["decompose"] < 100 and calls["mul_coords"] < 100


def _count_scans(monkeypatch):
    """Counts of principal ideals closed and of element blocks enumerated,
    of the ring or of a subspace, by :func:`verify_degree_map` from now on."""
    from ringlab.subgroups import Subspace
    counts = {"principal_ideal": 0, "element_blocks": 0}
    closure = gradings.principal_ideal

    def counted_closure(ring, a):
        counts["principal_ideal"] += 1
        return closure(ring, a)

    def counting_blocks(cls):
        blocks = cls.element_blocks

        def counted_blocks(self, *args, **kwargs):
            counts["element_blocks"] += 1
            return blocks(self, *args, **kwargs)
        monkeypatch.setattr(cls, "element_blocks", counted_blocks)

    monkeypatch.setattr(gradings, "principal_ideal", counted_closure)
    counting_blocks(Subspace)
    counting_blocks(rings.StructureAlgebra)
    return counts


def test_each_principal_ideal_and_degree_is_scanned_once(monkeypatch):
    # on the rotation dynamics ring over F2 (simple, 512 elements) the
    # support map is decided on the ideal lattice: is_simple (Norton's
    # test) says the ring is simple, and a homogeneous element commutes
    # with X, so nothing is scanned.  The same map as a plain callable
    # scans: 387 elements reach the <a> scan, but they share 3 (ideal,
    # d(a)) pairs, and no <a> is closed: each is A
    from ringlab.corpus import build_rotation_dynamics
    dyn = build_rotation_dynamics()
    dm = support_degree_map(dyn.grading, "homogeneous_elements")
    counts = _count_scans(monkeypatch)
    assert verify_degree_map(dm).valid
    assert counts == {"principal_ideal": 0, "element_blocks": 0}
    callable_dm = DegreeMap(dm.ring, dm.B, dm.X, lambda a: len(dyn.grading.support(a)),
                            "support as a callable", grading=dyn.grading)
    assert verify_degree_map(callable_dm).valid
    # two of the ring (d1, then d2) and one of A for the 3 pairs
    assert counts == {"principal_ideal": 0, "element_blocks": 2 + 3}


def test_simple_ring_degree_map_makes_few_closures(monkeypatch):
    from ringlab import linalg
    from ringlab.corpus import build_rotation_dynamics
    dyn = build_rotation_dynamics()
    dm = support_degree_map(dyn.grading, "homogeneous_elements")
    calls = []
    closure = linalg.ModP.closure

    def counted(*args, **kwargs):
        calls.append(1)
        return closure(*args, **kwargs)

    monkeypatch.setattr(linalg.ModP, "closure", counted)
    assert verify_degree_map(dm).status == "Valid"
    assert len(calls) < 10


def test_not_simple_degree_map_still_closes_principal_ideals(monkeypatch):
    # T2(F2) is not simple, so each unsettled a closes its own <a>, and the
    # D2 witness is a proper ideal
    t2 = _upper_triangular_f2()
    X = [t2.basis_element(0)]
    closed = []
    original = gradings.principal_ideal

    def counted(ring, a):
        closed.append(a)
        return original(ring, a)

    monkeypatch.setattr(gradings, "principal_ideal", counted)
    v = verify_degree_map(DegreeMap(t2, subring_closure(t2, X), X,
                                    lambda a: 0 if a.is_zero() else 1, "flat"))
    assert v.status == "D2Violation" and not v.witness[0].span.is_full()
    assert v.witness[1] in closed


def test_criterion_disagreement_is_typed(monkeypatch):
    m3, gr = _m3f2_graded()
    B = gr.zero_part_subring()
    I = enumerate_subring_ideals(m3, B)[1]
    original = gradings.is_A_invariant
    monkeypatch.setattr(gradings, "is_A_invariant", lambda *args: not original(*args))
    with pytest.raises(CriterionDisagreement):
        check_invariance_componentwise(gr, I)


def test_homogeneous_degree_map():
    m3, gr = _m3f2_graded()
    dm = support_degree_map(gr, "homogeneous_elements")
    for x in gr.homogeneous_spanning():
        if not x.is_zero():
            assert dm.degree(x) == 1


def test_ideal_intersection_property():
    f5 = zmod_ring(5)
    assert ideal_intersection_property(f5, full_subring(f5)).holds
    r4 = zmod_ring(4)
    S = subring_closure(r4, [r4.element(2)])
    assert ideal_intersection_property(r4, S).holds
    r6 = zmod_ring(6)
    S = subring_closure(r6, [r6.element(3)])
    v = ideal_intersection_property(r6, S)
    assert not v.holds and sorted(v.witness.span.members) == [0, 2, 4]


def test_componentwise_invariance_m3():
    m3, gr = _m3f2_graded()
    B = gr.zero_part_subring()
    for I in enumerate_subring_ideals(m3, B):
        res = check_invariance_componentwise(gr, I)
        expected = is_A_invariant(m3, B, I)
        assert res.plain == expected
        assert res.conjugation == expected  # strong grading: criteria agree
        # the displayed criterion: invariant exactly when the two blocks match
        assert res.plain == (I.measure() in (0, 5))


def test_local_units_full_ideal_test():
    m3, gr = _m3f2_graded()
    whole = IdealBasis(m3, full_subgroup(m3), check=False)
    assert local_units_full_ideal_test(gr, whole, part="a")
    assert local_units_full_ideal_test(gr, whole, part="b")
    b = field_algebra(GF(2))
    ga = skew_group_ring(b, cyclic_group(2), {g: RingMap.identity(b) for g in (0, 1)})
    aug = ideal_closure(ga.ring, [ga.ring.element([1, 1])])
    assert not aug.span.is_full()
    assert not local_units_full_ideal_test(ga.grading, aug, part="a")
    assert not local_units_full_ideal_test(ga.grading, aug, part="b")


def test_components_sum_back_and_additivity():
    import random
    m3, gr = _m3f2_graded()
    rng = random.Random(2)
    for _ in range(25):
        a = m3.element([rng.randrange(2) for _ in range(9)])
        b = m3.element([rng.randrange(2) for _ in range(9)])
        parts = gr.decompose(a)
        total = m3.zero()
        for g, comp in parts.items():
            assert gr.components[g].contains(comp)
            total = total + comp
        assert total == a
        # the component map is additive
        for g in gr.order:
            assert gr.component_of(a + b, g) == \
                gr.component_of(a, g) + gr.component_of(b, g)


def _reference_parenthesizations(word, ring):
    # every full parenthesization, with no product reused
    if len(word) == 1:
        return [word[0]]
    return [product_span(ring, left, right)
            for split in range(1, len(word))
            for left in _reference_parenthesizations(word[:split], ring)
            for right in _reference_parenthesizations(word[split:], ring)]


def _reference_associates(ring, words):
    for word in words:
        evals = _reference_parenthesizations(word, ring)
        if any(e != evals[0] for e in evals[1:]):
            return False
    return True


@st.composite
def _z2_graded_algebras(draw):
    """A random Z2-graded algebra over F_2 or F_3, mostly non-associative:
    e_i·e_j has e_k-coefficient zero unless deg k = deg i + deg j, and
    sparse constants make some words associate.  Plus a random nonzero
    subspace I."""
    p = draw(st.sampled_from([2, 3]))
    d = draw(st.integers(2, 4))
    deg = np.arange(d) >= draw(st.integers(1, d - 1))
    entries = st.integers(0, p - 1) if draw(st.booleans()) else \
        st.sampled_from([0] * (2 * p) + list(range(1, p)))
    C = np.array(draw(st.lists(entries, min_size=d ** 3, max_size=d ** 3))).reshape(d, d, d)
    C = C * (np.logical_xor.outer(deg, deg)[:, :, None] == deg[None, None, :])
    ring = make_structure_algebra(d, GF(p), C.tolist())
    unit = np.eye(d, dtype=np.int64)
    grading = validate_grading(ring, cyclic_group(2),
                               {0: subspace_from_vectors(ring, unit[~deg].tolist()),
                                1: subspace_from_vectors(ring, unit[deg].tolist())})
    vec = st.lists(st.integers(0, p - 1), min_size=d, max_size=d).filter(any)
    I = IdealBasis(ring, subspace_from_vectors(ring, draw(st.lists(vec, min_size=1,
                                                                   max_size=d))),
                   check=False)
    return grading, I


@given(_z2_graded_algebras())
@settings(max_examples=60, deadline=None)
def test_memoized_associativity_agrees_with_a_reference(graded):
    grading, I = graded
    ring, A = grading.ring, full_subgroup(grading.ring)
    B = full_subring(ring)
    for copies in (2, 3):
        words = [[A] * pos + [I.span] + [A] * (n - pos)
                 for n in range(2, copies + 1) for pos in range(n + 1)]
        assert check_ideal_associativity(ring, B, I, copies=copies) == \
            _reference_associates(ring, words)
    comps = [grading.components[g] for g in grading.cat.morphisms]
    words = [list(tup[:pos]) + [I.span] + list(tup[pos:])
             for n in range(2, 4) for tup in itertools.product(comps, repeat=n)
             for pos in range(n + 1)]
    assert graded_ideal_associativity(grading, I) == _reference_associates(ring, words)


def test_graded_ideal_associativity_on_crossed_product():
    from ringlab.corpus import build_f4_frobenius_ring
    cp = build_f4_frobenius_ring()
    B = cp.base_subring()
    for I in enumerate_subring_ideals(cp.ring, B):
        assert graded_ideal_associativity(cp.grading, I)
