import json
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringlab import (GF, QQ, cayley_tower, center, centralizer,
                     check_ideal_associativity, enumerate_ideals,
                     enumerate_subring_ideals, field_algebra, full_matrix_algebra,
                     full_subring, gf_extension, ideal_closure, identity_property,
                     is_A_invariant, is_A_simple, is_maximal_commutative,
                     is_simple, apply_i_and_p, make_structure_algebra,
                     make_table_ring, principal_ideal, subring_closure, zmod_ring)
from ringlab import (RingMap, SigmaDerivationData, cayley_dickson, certify, corpus,
                     cyclic_group, ideal_intersection_property, ideals, linalg,
                     skew_group_ring, truncated_polynomial_ring)
from ringlab.constructions import bales_twisted_ring
from ringlab.certify import recognize_field
from ringlab.cli import main
from ringlab.recipes import build_recipe, parse_recipe_text
from ringlab.errors import (BNotCommutative, CriterionDisagreement, NotAInvariant,
                            RingMismatch, TooLarge)
from ringlab.ideals import (IdealBasis, Subring, first_invariant_ideal,
                            first_proper_line_ideal)
from ringlab.rings import (Element, StructureAlgebra, TableRing, convert_to_table,
                           direct_sum_algebra, functions_ring)
from ringlab.subgroups import additive_span, full_subgroup, product_span, zero_subgroup


def test_ideal_closure_examples():
    r6 = zmod_ring(6)
    assert sorted(ideal_closure(r6, [r6.element(2)]).span.members) == [0, 2, 4]
    assert sorted(ideal_closure(r6, []).span.members) == [0]
    m2 = full_matrix_algebra(2, GF(2))
    e11 = m2.element([1, 0, 0, 0])
    assert ideal_closure(m2, [e11]).span.is_full()


def test_ideal_closure_idempotent_and_monotone():
    r12 = zmod_ring(12)
    s = ideal_closure(r12, [r12.element(4)])
    again = ideal_closure(r12, s.spanning())
    assert again.span == s.span
    bigger = ideal_closure(r12, [r12.element(4), r12.element(6)])
    assert bigger.span.contains_subgroup(s.span)


@given(st.sets(st.integers(0, 11), max_size=4))
@settings(max_examples=40, deadline=None)
def test_ideal_closure_absorbs(gens):
    r12 = zmod_ring(12)
    I = ideal_closure(r12, [r12.element(g) for g in gens])
    full = full_subgroup(r12)
    assert I.span.contains_subgroup(product_span(r12, full, I.span))
    assert I.span.contains_subgroup(product_span(r12, I.span, full))


def test_enumerate_ideals_counts():
    assert len(enumerate_ideals(zmod_ring(6))) == 4
    assert len(enumerate_ideals(zmod_ring(4))) == 3
    assert len(enumerate_ideals(full_matrix_algebra(2, GF(2)))) == 2
    members = sorted(sorted(i.span.members) for i in enumerate_ideals(zmod_ring(6)))
    assert members == [[0], [0, 1, 2, 3, 4, 5], [0, 2, 4], [0, 3]]


def test_every_enumerated_ideal_absorbs():
    for ring in (zmod_ring(6), full_matrix_algebra(2, GF(3))):
        full = full_subgroup(ring)
        for I in enumerate_ideals(ring):
            assert I.span.contains_subgroup(product_span(ring, full, I.span))
            assert I.span.contains_subgroup(product_span(ring, I.span, full))


def test_enumerate_ideals_respects_cap():
    from ringlab.errors import TooLarge, InfiniteScalarField
    # F_3^5 (243 elements) is reducible: its lattice needs the line walk
    with pytest.raises(TooLarge):
        enumerate_ideals(functions_ring(5, GF(3)), cap=100)
    # O over F_3 (6561 elements) is simple: Norton's test gives the lattice
    # 0, O at any size
    o3 = cayley_tower(GF(3), 3).rings[3]
    lattice = enumerate_ideals(o3, cap=100)
    assert [I.measure() for I in lattice] == [0, 8] and lattice[1].span.is_full()
    with pytest.raises(InfiniteScalarField):
        enumerate_ideals(cayley_tower(QQ, 2).rings[2])


def test_is_simple_matches_ideal_count():
    for ring in (zmod_ring(4), zmod_ring(6), zmod_ring(5),
                 full_matrix_algebra(2, GF(2)), full_matrix_algebra(2, GF(3))):
        verdict = is_simple(ring)
        assert verdict.is_simple == (len(enumerate_ideals(ring)) == 2)


def test_is_simple_verdicts():
    v = is_simple(zmod_ring(4))
    assert v.status == "NotSimple" and sorted(v.witness.span.members) == [0, 2]
    assert is_simple(full_matrix_algebra(2, GF(2))).is_simple
    sq = cayley_tower(QQ, 4).rings[4]
    v = is_simple(sq)
    assert v.status == "Simple" and v.reason == "reduction mod 3"
    assert repr(v) == "Simple"


def test_zero_multiplication_is_never_simple():
    null = make_structure_algebra(1, GF(2), [[[0]]])
    assert is_simple(null).status == "NotSimple"
    # R·R = 0 is read off the constants or the table
    zeros = np.zeros((2, 2, 2), dtype=int).tolist()
    for ring in (make_structure_algebra(2, GF(3), zeros), make_structure_algebra(2, QQ, zeros),
                 convert_to_table(make_structure_algebra(2, GF(2), zeros))):
        v = is_simple(ring)
        assert v.status == "NotSimple" and v.reason == "R*R = 0"
        assert not v.witness.is_zero() and not v.witness.span.is_full()
    # one nonzero product, e0·e1 = e0, is enough for R·R ≠ 0
    one = make_structure_algebra(2, GF(2), [[[0, 0], [1, 0]], [[0, 0], [0, 0]]])
    for ring in (one, convert_to_table(one)):
        assert is_simple(ring).reason is None


def test_square_zero_rings_without_a_proper_ideal_have_no_witness(tmp_path, capsys):
    # with R·R = 0 every additive subgroup is an ideal; in dimension 1, or
    # at prime order or order 1, none is proper and nonzero
    z3 = np.arange(3)
    for ring in (make_structure_algebra(1, GF(2), [[[0]]]),
                 make_structure_algebra(1, QQ, [[[0]]]),
                 make_table_ring((z3[:, None] + z3[None, :]) % 3, np.zeros((3, 3), dtype=int)),
                 make_table_ring(np.zeros((1, 1), dtype=int), np.zeros((1, 1), dtype=int))):
        v = is_simple(ring)
        assert v.status == "NotSimple" and v.reason == "R*R = 0" and v.witness is None
    path = tmp_path / "null.json"
    path.write_text(json.dumps({"kind": "structure_algebra", "field": "Fp:2", "dim": 1,
                                "constants": [[[0]]]}))
    assert main(["check", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["simplicity"] == {"NotSimple": {"reason": "R*R = 0",
                                                          "witness": None}}


@st.composite
def _small_algebras(draw):
    """Random constants; half of them split into a direct sum of two blocks,
    which gives commutants with idempotents."""
    p = draw(st.sampled_from([2, 3]))
    d = draw(st.integers(1, 4))
    flat = draw(st.lists(st.integers(0, p - 1), min_size=d ** 3, max_size=d ** 3))
    C = np.array(flat).reshape(d, d, d)
    if d > 1 and draw(st.booleans()):
        block = np.arange(d) < draw(st.integers(1, d - 1))
        same = np.equal.outer(block, block)
        C = C * (same[:, :, None] & same[None, :, :])
    return make_structure_algebra(d, GF(p), C.tolist())


@given(_small_algebras())
@settings(max_examples=80, deadline=None)
def test_density_agrees_with_line_walk(ring):
    # Norton's test, the one F_p decision, decides every example, and
    # is_simple reads it
    simple = bool(ring.constants.any()) and first_proper_line_ideal(ring) is None
    assert linalg.norton_modp(ring.constants, ring.F.p)[0] == simple
    assert is_simple(ring).is_simple == simple


def _undecided(m):
    """Make every Norton trial inconclusive: norton_modp is then undecided
    at any dimension."""
    m.setattr(linalg, "_norton_trial", lambda gens, p, rng: None)


def test_density_decides_only_simple_algebras_over_the_cap(monkeypatch):
    # M3(F3) has 3^9 elements: over the cap, the F_p decision still decides
    assert is_simple(full_matrix_algebra(3, GF(3)), cap=4096).status == "Simple"
    # an undecided verdict leaves it to the witness search, which fails
    with monkeypatch.context() as m:
        _undecided(m)
        v = is_simple(full_matrix_algebra(3, GF(3)), cap=4096)
        assert v.status == "Inconclusive"
        assert v.reason == "size 19683 exceeds cap 4096"
    # under the cap an undecided algebra is decided by the line walk
    with monkeypatch.context() as m:
        _undecided(m)
        assert linalg.norton_modp(full_matrix_algebra(2, GF(3)).constants, 3) == (None, None)
        assert is_simple(full_matrix_algebra(2, GF(3))).status == "Simple"
        v = is_simple(functions_ring(2, GF(3)))
        assert v.status == "NotSimple" and v.witness.span.rows.tolist() == [[1, 0]]


def _count_closures(monkeypatch):
    calls = []
    original = linalg.ModP.closure

    def counted(F, ring, seed_rows):
        calls.append(ring)
        return original(F, ring, seed_rows)

    monkeypatch.setattr(linalg.ModP, "closure", counted)
    return calls


def test_simple_verdicts_close_no_ideal(monkeypatch):
    calls = _count_closures(monkeypatch)
    assert is_simple(full_matrix_algebra(3, GF(3))).is_simple
    assert is_simple(bales_twisted_ring(GF(3), 3).ring).is_simple
    assert calls == []


def test_over_the_cap_a_simple_algebra_is_decided_after_its_first_candidate(monkeypatch):
    # the F_p decision proves M3(F3) simple before any candidate is tried,
    # so none of the 33 candidates is closed
    calls = _count_closures(monkeypatch)
    assert is_simple(full_matrix_algebra(3, GF(3)), cap=4096).is_simple
    assert len(calls) == 0


def test_not_simple_witness_is_the_first_proper_line(monkeypatch):
    calls = _count_closures(monkeypatch)
    v = is_simple(functions_ring(2, GF(3)))
    assert v.status == "NotSimple"
    assert v.witness.span.rows.tolist() == [[1, 0]]
    assert len(calls) == 1


def _recipe_ring(recipe):
    return build_recipe(parse_recipe_text(json.dumps(recipe))).ring


def test_the_line_walk_runs_when_the_witness_is_read(monkeypatch):
    # Z2 x Z2 acting on 2 points through the swap is not faithful: 3^8
    # elements, under the cap.  Norton's submodule proves NotSimple, so no
    # ideal is closed until the witness is read; that walk closes 244 lines
    # and runs once
    ring = _recipe_ring({"kind": "dynamics", "points": 2, "group": "Z2xZ2",
                         "action": [[0, 1], [0, 1], [1, 0], [1, 0]], "field": "Fp:3"})
    calls = _count_closures(monkeypatch)
    v = is_simple(ring, cap=8192)
    assert v.status == "NotSimple" and calls == []
    w = v.witness
    assert w.span.rows[0].tolist() == [1, 0, 1, 0, 0, 0, 0, 0] and w.measure() == 4
    walked = len(calls)
    assert walked > 0 and v.witness is w and len(calls) == walked


def test_over_the_cap_norton_s_submodule_is_the_witness(monkeypatch):
    # Z6 acting on 2 points through the swap: 3^12 elements, over the cap.
    # Norton's test proves NotSimple with a proper ideal before any
    # candidate is tried, so none is closed
    ring = _recipe_ring({"kind": "dynamics", "points": 2, "group": "Z6",
                         "action": [[0, 1], [1, 0]] * 3, "field": "Fp:3"})
    calls = _count_closures(monkeypatch)
    v = is_simple(ring, cap=8192)
    assert v.status == "NotSimple" and len(calls) == 0
    assert not v.witness.is_zero() and not v.witness.span.is_full()
    IdealBasis(ring, v.witness.span, check=True)


def test_line_walk_on_table_rings():
    # element 1 generates Z6; element 2 is the first proper one
    assert sorted(first_proper_line_ideal(zmod_ring(6)).members) == [0, 2, 4]
    assert first_proper_line_ideal(zmod_ring(5)) is None


def test_table_rings_over_the_cap_are_walked():
    # a table ring's elements are in memory already, so no cap stops the walk
    assert is_simple(zmod_ring(5), cap=2).status == "Simple"
    v = is_simple(zmod_ring(6), cap=2)
    assert v.status == "NotSimple" and sorted(v.witness.span.members) == [0, 2, 4]


def test_a_prime_order_table_ring_closes_one_principal_ideal(monkeypatch):
    # every nonzero element of Z/1021 is a multiple k·1 with k prime to
    # 1021, so the walk closes <1> alone, not one ideal per element
    ring = zmod_ring(1021)
    closed = []
    original = ideals.principal_ideal

    def counted(r, a):
        closed.append(a.data)
        return original(r, a)

    monkeypatch.setattr(ideals, "principal_ideal", counted)
    assert is_simple(ring).is_simple
    assert closed == [1]


@pytest.mark.parametrize("n", [4, 6, 60, 257, "M2(F2)"])
def test_one_generator_per_cyclic_subgroup_keeps_the_walk(n):
    # the principal ideals, the first proper one and the lattice are those
    # of every nonzero element, closed one by one in index order
    ring = convert_to_table(full_matrix_algebra(2, GF(2))) if n == "M2(F2)" else zmod_ring(n)
    closures = [principal_ideal(ring, ring.element(i)).span
                for i in range(ring.n) if i != ring.zero_index]
    generated = [principal_ideal(ring, ring.element(g)).span
                 for g in full_subgroup(ring).line_seeds()]
    assert {s.key() for s in generated} == {s.key() for s in closures}
    first = next((s for s in closures if not s.is_full()), None)
    walk = first_proper_line_ideal(ring)
    assert (walk is None) == (first is None) and (walk is None or walk.key() == first.key())
    lattice = {zero_subgroup(ring).key(): zero_subgroup(ring)}
    for s in closures:
        for t in list(lattice.values()):
            j = s.join(t)
            lattice.setdefault(j.key(), j)
    assert [I.key() for I in enumerate_ideals(ring)] == sorted(
        lattice, key=lambda k: (lattice[k].measure(), k))


def test_density_and_line_walk_disagreement_is_typed(monkeypatch, tmp_path, capsys):
    # every line of M2(F2) generates the whole ring, so a decision that calls
    # it not simple, with the line of e_0 as its submodule, contradicts the
    # walk when the witness is read
    line = (np.eye(4, dtype=np.int64)[:1], (0,))
    monkeypatch.setattr(linalg, "norton_modp", lambda constants, p: (False, line))
    v = is_simple(full_matrix_algebra(2, GF(2)))
    with pytest.raises(CriterionDisagreement):
        v.witness
    recipe = tmp_path / "m2f2.json"
    recipe.write_text(json.dumps({"kind": "matrix_ring", "size": 2,
                                  "base": {"kind": "scalar", "ring": "Fp:2"}}))
    assert main(["check", str(recipe), "--checks", "simplicity"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Norton's test and the line walk disagree")
    assert "Traceback" not in err


@st.composite
def _small_q_algebras(draw):
    """An algebra over Q with integer constants in [-2, 2], dimension <= 3,
    and a few elements of it with small integer coordinates."""
    d = draw(st.integers(1, 3))
    flat = draw(st.lists(st.integers(-2, 2), min_size=d ** 3, max_size=d ** 3))
    ring = make_structure_algebra(d, QQ, np.array(flat).reshape(d, d, d).tolist())
    coords = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    return ring, draw(st.lists(coords, max_size=3))


def _proper_principal_ideal(ring, vectors):
    """A proper nonzero Q principal ideal of a basis element or of one of
    ``vectors``, or None."""
    elements = ring.spanning_elements() + [ring.element(v) for v in vectors]
    for x in elements:
        if not x.is_zero():
            I = principal_ideal(ring, x)
            if not I.span.is_full():
                return I
    return None


@given(_small_q_algebras(), _small_q_algebras())
@settings(max_examples=40, deadline=None)
def test_q_lift_verdict_is_never_contradicted(first, second):
    (A, vectors), (B, _) = first, second
    v = is_simple(A)
    if v.status == "Simple":
        assert v.reason.startswith("reduction mod ")
        assert _proper_principal_ideal(A, vectors) is None
    # A ⊕ 0 is a proper nonzero ideal of A ⊕ B
    assert is_simple(direct_sum_algebra([A, B])).status != "Simple"


def test_ramified_q_field_stays_inconclusive():
    # Q[x]/(x^2 - N) is a field, but x is nilpotent mod every tried prime
    N = math.prod(linalg.LIFT_PRIMES)
    ring = make_structure_algebra(2, QQ, [[[1, 0], [0, 1]], [[0, 1], [N, 0]]])
    assert recognize_field(ring) is True
    v = is_simple(ring)
    assert v.status == "Inconclusive" and v.reason.startswith("infinite scalar field")


def test_q_sum_of_fields_has_a_q_witness():
    ring = direct_sum_algebra([field_algebra(QQ)] * 2)
    v = is_simple(ring)
    assert v.status == "NotSimple"
    assert v.witness.measure() == 1 and not v.witness.span.is_full()
    assert all(isinstance(x, Fraction) for row in v.witness.spanning() for x in row.data)


def test_lift_skips_a_prime_dividing_a_denominator():
    # Q(i) is a field mod 3; on the basis 1, i/3 its constants have
    # denominator 9, so 3 is skipped, 5 splits it and 7 decides
    qi = cayley_tower(QQ, 1).rings[1]
    assert is_simple(qi).reason == "reduction mod 3"
    scaled = make_structure_algebra(2, QQ, [[[1, 0], [0, 1]],
                                            [[0, 1], [Fraction(-1, 9), 0]]])
    v = is_simple(scaled)
    assert v.status == "Simple" and v.reason == "reduction mod 7"


def _reference_q_closure(ring, gens):
    """The ideal ``gens`` generate, by the Element-at-a-time fixed point:
    adjoin a·x and x·a for a over the basis and x over the newest span
    vectors, re-close additively, repeat until stable."""
    span = additive_span(ring, list(gens))
    mult = ring.spanning_elements()
    frontier = span.spanning()
    while frontier:
        prods = [p for a in mult for x in frontier for p in (a * x, x * a)]
        new = span.join(additive_span(ring, prods))
        if new == span:
            break
        frontier = [e for e in new.spanning() if not span.contains(e)]
        span = new
    return span


_Q_ENTRIES = st.one_of(st.just(0), st.integers(-3, 3),
                       st.builds(Fraction, st.integers(-6, 6), st.sampled_from([2, 3, 5, 7])))


@st.composite
def _q_algebras_with_generators(draw):
    """An algebra over Q of dimension 1..5 with non-integral constants,
    about a third of them zero, and up to 3 generators (possibly none,
    possibly zero)."""
    d = draw(st.integers(1, 5))
    C = draw(st.lists(_Q_ENTRIES, min_size=d ** 3, max_size=d ** 3))
    ring = make_structure_algebra(d, QQ, np.array(C, dtype=object).reshape(d, d, d))
    gens = draw(st.lists(st.lists(_Q_ENTRIES, min_size=d, max_size=d), max_size=3))
    return ring, [ring.element(g) for g in gens]


@given(_q_algebras_with_generators())
@settings(max_examples=60, deadline=None)
def test_q_closure_equals_the_element_loop(case):
    ring, gens = case
    got = ideal_closure(ring, gens).span
    expected = _reference_q_closure(ring, gens)
    assert got.rows == expected.rows and got.pivots == expected.pivots
    assert all(type(x) is Fraction for row in got.rows for x in row)


def _q_change_basis(ring, P):
    """The algebra on the basis f_a = sum_i P[a, i] e_i, for P invertible."""
    F = ring.F
    Q = F.solve(P, F.eye(len(P)))
    X = np.tensordot(P, ring.constants, axes=(1, 0))                 # (a, j, k)
    X = np.tensordot(P, X, axes=(1, 1)).transpose(1, 0, 2)           # (a, b, k)
    return make_structure_algebra(len(P), QQ, np.tensordot(X, Q, axes=(2, 0)))


def test_q_closure_of_a_sum_of_matrix_algebras_on_a_random_basis():
    # each summand of M2(Q) ⊕ M2(Q) is a proper ideal, and here no basis
    # vector lies in one
    ring = direct_sum_algebra([full_matrix_algebra(2, QQ)] * 2)
    rng = np.random.default_rng(5)
    P = rng.integers(-2, 3, size=(8, 8)).astype(object)
    while linalg.RATIONAL.rank(P, 8) < 8:
        P = rng.integers(-2, 3, size=(8, 8)).astype(object)
    ring = _q_change_basis(ring, P)
    summand = [ring.element(row) for row in linalg.RATIONAL.solve(P.T, np.eye(8, dtype=object)[:, :1]).T]
    for gens in ([ring.basis_element(0)], summand, []):
        got = ideal_closure(ring, gens).span
        expected = _reference_q_closure(ring, gens)
        assert got.rows == expected.rows and got.pivots == expected.pivots
    assert ideal_closure(ring, summand).measure() == 4


@given(_q_algebras_with_generators(), st.data())
@settings(max_examples=40, deadline=None)
def test_is_stable_equals_the_element_check(case, data):
    ring, gens = case
    d, F = ring.dim, ring.F
    span = ideal_closure(ring, gens).span
    entry = st.one_of(st.just(0), st.integers(-1, 1))
    maps = [np.array(data.draw(st.lists(entry, min_size=d * d, max_size=d * d)),
                     dtype=object).reshape(d, d) for _ in range(data.draw(st.integers(0, 2)))]
    maps += data.draw(st.sampled_from([[], [F.eye(d)]]))
    expected = all(span.contains_coords(F.matmul(F.array(row), M))
                   for M in maps for row in span.rows)
    assert span.is_stable(maps) == expected


def test_is_stable_on_table_rings():
    z6 = zmod_ring(6)
    evens = ideal_closure(z6, [z6.element(2)]).span
    assert evens.is_stable([[(3 * x) % 6 for x in range(6)]])
    assert not evens.is_stable([[(x + 1) % 6 for x in range(6)]])
    assert evens.is_stable([])


def test_centralizers():
    hq = cayley_tower(QQ, 2).rings[2]
    assert center(hq).measure() == 1
    qi = cayley_tower(QQ, 1).rings[1]
    assert center(qi).measure() == 2
    m2 = full_matrix_algebra(2, GF(2))
    diag = centralizer(m2, [m2.element([1, 0, 0, 0]), m2.element([0, 0, 0, 1])])
    assert diag.measure() == 2  # the diagonal itself


def test_center_of_spanning_generators_forms_no_products(monkeypatch):
    # the basis already spans the octonions, so closing it into a subring
    # needs no product span (d^2 products and a Q row reduction)
    oq = cayley_tower(QQ, 3).rings[3]
    calls = []

    def counted(ring, left, right):
        calls.append(ring)
        return product_span(ring, left, right)

    monkeypatch.setattr(ideals, "product_span", counted)
    assert center(oq).measure() == 1
    assert calls == []


def test_maximal_commutative():
    m2 = full_matrix_algebra(2, GF(2))
    scalars = subring_closure(m2, [m2.element([1, 0, 0, 1])])
    assert not is_maximal_commutative(m2, scalars)
    diag = subring_closure(m2, [m2.element([1, 0, 0, 0]), m2.element([0, 0, 0, 1])])
    assert is_maximal_commutative(m2, diag)
    r6 = zmod_ring(6)
    assert is_maximal_commutative(r6, full_subring(r6))
    with pytest.raises(BNotCommutative):
        is_maximal_commutative(m2, full_subring(m2))


def test_a_invariance_trivial_cases():
    r6 = zmod_ring(6)
    B = full_subring(r6)
    zero = ideal_closure(r6, [])
    assert is_A_invariant(r6, B, zero)
    whole = IdealBasis(r6, B.span, of_subring=B, check=False)
    assert is_A_invariant(r6, B, whole)


def test_a_simplicity():
    r4 = zmod_ring(4)
    v = is_A_simple(r4, full_subring(r4))
    assert not v.holds and sorted(v.witness.span.members) == [0, 2]
    f5 = zmod_ring(5)
    assert is_A_simple(f5, full_subring(f5)).holds


def test_ideal_associativity_associative_ring():
    m2 = full_matrix_algebra(2, GF(3))
    B = full_subring(m2)
    for I in enumerate_ideals(m2):
        assert check_ideal_associativity(m2, B, I, copies=2)
        assert check_ideal_associativity(m2, B, I, copies=3)


def test_ideal_associativity_octonions_full_ideal():
    o3 = cayley_tower(GF(3), 3).rings[3]
    B = full_subring(o3)
    whole = IdealBasis(o3, full_subgroup(o3), check=False)
    assert check_ideal_associativity(o3, B, whole, copies=2)


def test_ideal_associativity_violation():
    # e0*e1 = e0, all other products zero: (IA)A = span{e0} but I(AA) = 0
    R = make_structure_algebra(2, GF(2), [[[0, 0], [1, 0]], [[0, 0], [0, 0]]])
    assert not R.probe_properties().associative
    B = full_subring(R)
    I = ideal_closure(R, [R.basis_element(0)])
    assert not I.span.is_full()
    assert not check_ideal_associativity(R, B, I, copies=2)


def test_identity_property():
    r6 = zmod_ring(6)
    B = full_subring(r6)
    for I in enumerate_ideals(r6):
        assert identity_property(I, B, side="left")
        assert identity_property(I, B, side="right")
    r8 = zmod_ring(8)
    evens = subring_closure(r8, [r8.element(2)])
    I = IdealBasis(r8, evens.span, of_subring=evens, check=False)
    assert not identity_property(I, evens, side="left")
    zero = ideal_closure(r8, [])
    assert identity_property(zero, evens, side="left")


def test_apply_i_and_p():
    r6 = zmod_ring(6)
    B = full_subring(r6)
    zero = ideal_closure(r6, [])
    ia, back = apply_i_and_p(r6, B, zero)
    assert ia.is_zero() and back.is_zero()
    two = ideal_closure(r6, [r6.element(2)])
    ia, back = apply_i_and_p(r6, B, two)
    assert back.span == two.span
    # a non-invariant ideal is rejected
    m2 = full_matrix_algebra(2, GF(2))
    diag = subring_closure(m2, [m2.element([1, 0, 0, 0]), m2.element([0, 0, 0, 1])])
    first = [I for I in enumerate_subring_ideals(m2, diag) if I.measure() == 1][0]
    with pytest.raises(NotAInvariant):
        apply_i_and_p(m2, diag, first)


def test_subring_ideals_of_diagonal():
    m2 = full_matrix_algebra(2, GF(2))
    diag = subring_closure(m2, [m2.element([1, 0, 0, 0]), m2.element([0, 0, 0, 1])])
    ideals = enumerate_subring_ideals(m2, diag)
    assert [i.measure() for i in ideals] == [0, 1, 1, 2]
    assert is_A_simple(m2, diag).holds


def _principal_ideals(ring):
    """The span of the principal ideal of every line of an F_p algebra (of
    one element per cyclic subgroup of a table ring), in the order of the
    walk."""
    return [ideals.principal_ideal(ring, ring.element(g)).span
            for g in full_subgroup(ring).line_seeds()]


def test_first_stable_ideal_takes_the_least_key_among_minimal_ideals():
    # F4 ⊕ F4 on the basis given by the rows of T: its two minimal ideals
    # are planes, and the first line of the walk lies in the one with the
    # larger key, so the answer is not the first closure of least measure
    f4 = gf_extension(4)[0]
    C = direct_sum_algebra([f4, f4]).constants
    T = np.array([[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 0, 1], [1, 0, 1, 1]])
    T_inv = np.array([[1, 0, 1, 1], [1, 1, 0, 1], [0, 0, 1, 1], [1, 0, 0, 1]])
    ring = make_structure_algebra(4, GF(2), np.einsum("ia,jb,abk->ijk", T, T, C) @ T_inv % 2)
    first = next(s for s in _principal_ideals(ring) if s.measure() == 2)
    expected = next(I for I in enumerate_ideals(ring) if not I.is_zero())
    assert expected.measure() == 2 and first.key() != expected.key()
    assert ideals.first_stable_ideal(ring, None, []).key() == expected.key()


def test_the_zero_subring_has_only_the_zero_ideal():
    # e0·e1 = e0 and all other products 0; the zero subalgebra has no lines
    A = make_structure_algebra(2, GF(2), [[[0, 0], [1, 0]], [[0, 0], [0, 0]]])
    for ring in (A, zmod_ring(4)):
        zero = Subring(ring, zero_subgroup(ring))
        assert [I.is_zero() for I in enumerate_subring_ideals(ring, zero)] == [True]
        assert ideals.first_stable_ideal(ring, zero, []) is None
        assert is_A_simple(ring, zero).holds


def _reference_subring_ideals(ring, B):
    """The ideals of B by materializing it as a ring, joining the principal
    ideals of its lines (one spin-up each) and embedding every ideal back."""
    if B.span.is_zero():
        return [IdealBasis(ring, zero_subgroup(ring), of_subring=B, check=False)]
    sub, embed, _ = B.as_ring()
    lattice = {s.key(): s for s in [zero_subgroup(sub), *_principal_ideals(sub)]}
    worklist = list(lattice.values())
    while worklist:
        fresh = []
        for a in worklist:
            for b in list(lattice.values()):
                j = a.join(b)
                if j.key() not in lattice:
                    lattice[j.key()] = j
                    fresh.append(j)
        worklist = fresh
    out = [IdealBasis(ring, additive_span(ring, [embed(e) for e in s.spanning()]),
                      of_subring=B, check=False) for s in lattice.values()]
    return sorted(out, key=lambda I: (I.measure(), I.key()))


@st.composite
def _rings_and_subrings(draw):
    """A ring and the subring that some elements generate: an F_2/F_3
    algebra of dimension at most 4 whose first m basis elements span a
    subring, as it is or as a table ring (up to 27 elements), with the
    whole basis, some of the first m basis elements or up to two random
    elements as generators; or a Z/n with up to two random generators."""
    if draw(st.integers(0, 4)) == 0:
        ring = zmod_ring(draw(st.integers(1, 12)))
        gens = draw(st.lists(st.integers(0, ring.n - 1), max_size=2))
        return ring, subring_closure(ring, [ring.element(x) for x in gens])
    alg = draw(_small_algebras())
    p, d, m = alg.F.p, alg.dim, draw(st.integers(1, alg.dim))
    C = alg.constants.copy()
    C[:m, :m, m:] = 0
    alg = make_structure_algebra(d, GF(p), C.tolist())
    eye = np.eye(d, dtype=int).tolist()
    coords = st.lists(st.integers(0, p - 1), min_size=d, max_size=d)
    gens = draw(st.one_of(st.just(eye), st.lists(st.sampled_from(eye[:m]), max_size=m),
                          st.lists(coords, max_size=2)))
    if p ** d <= 27 and draw(st.booleans()):
        # convert_to_table numbers the element with coordinates c as the
        # base-p number c
        ring = convert_to_table(alg)
        return ring, subring_closure(ring, [ring.element(int(np.polyval(g, p))) for g in gens])
    return alg, subring_closure(alg, [alg.element(tuple(g)) for g in gens])


def _upper_triangular(ring):
    """The upper triangular matrices in M2(F2), or in its table ring."""
    gens = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)]
    if ring.is_table:
        return subring_closure(ring, [ring.element(int(np.polyval(g, 2))) for g in gens])
    return subring_closure(ring, [ring.element(g) for g in gens])


_M2F2 = full_matrix_algebra(2, GF(2))
_NULL = make_structure_algebra(2, GF(3), np.zeros((2, 2, 2), dtype=int).tolist())
# a square-zero ring, whose whole ring is a join and not principal, and a
# subring that is not an ideal, whose closures must not use the ring's
# multiplications
_M2F2_TABLE = convert_to_table(_M2F2)
_SUBRING_EXAMPLES = [(_NULL, full_subring(_NULL)),
                     (_M2F2, _upper_triangular(_M2F2)),
                     (_M2F2_TABLE, _upper_triangular(_M2F2_TABLE))]


@given(_rings_and_subrings())
@settings(max_examples=80, deadline=None)
@example(_SUBRING_EXAMPLES[0])
@example(_SUBRING_EXAMPLES[1])
@example(_SUBRING_EXAMPLES[2])
def test_subring_lattice_matches_the_materialized_enumeration(case):
    ring, B = case
    assert B.ring is ring
    got = enumerate_subring_ideals(ring, B)
    assert [I.key() for I in got] == [I.key() for I in _reference_subring_ideals(ring, B)]
    assert all(I.of_subring is B for I in got)


def _pairwise_commutative(B):
    """Subring.is_commutative as an Element loop over pairs."""
    xs = B.spanning()
    return all(a * b == b * a for i, a in enumerate(xs) for b in xs[i + 1:])


@given(st.one_of(_rings_and_subrings(), _q_algebras_with_generators().map(
    lambda case: (case[0], subring_closure(*case)))))
@settings(max_examples=80, deadline=None)
@example((_M2F2, subring_closure(_M2F2, [_M2F2.element([1, 0, 0, 0]),
                                         _M2F2.element([0, 0, 0, 1])])))
@example((_M2F2, full_subring(_M2F2)))
@example(_SUBRING_EXAMPLES[2])
def test_commutativity_equals_the_pairwise_check(case):
    ring, B = case
    assert B.is_commutative() == _pairwise_commutative(B)


def _reference_materialized_subring(B):
    """Subring.as_ring as an Element loop: for a table ring every sum and
    product of two members looked up one at a time; for an algebra the k²
    products of the rref rows, each tested for membership, embedded back as
    a sum of scaled rows."""
    ring, span = B.ring, B.span
    if ring.is_table:
        members = sorted(span.members)
        pos = {m: i for i, m in enumerate(members)}
        add = [[pos[int(ring.add_table[a, b])] for b in members] for a in members]
        mul = [[pos[int(ring.mul_table[a, b])] for b in members] for a in members]
        sub = TableRing(add, mul, pos[ring.zero_index], _validated=True)
        return sub, lambda e: ring.element(members[e.data]), lambda e: sub.element(pos[e.data])
    rows, f = span.spanning(), ring.F
    C = []
    for a in rows:
        assert all(span.contains(a * b) for b in rows)
        C.append([list(span.coordinates(a * b)) for b in rows])
    sub = StructureAlgebra(f, len(rows), C)

    def embed(e):
        acc = ring.zero()
        for coef, row in zip(e.data, rows):
            acc = acc + ring.element(tuple(f.mul(coef, x) for x in row.data))
        return acc
    return sub, embed, lambda e: sub.element(span.coordinates(e))


_Q_SUBRINGS = _q_algebras_with_generators().map(lambda case: (case[0], subring_closure(*case)))


@given(st.one_of(_rings_and_subrings(), _Q_SUBRINGS))
@settings(max_examples=80, deadline=None)
@example(_SUBRING_EXAMPLES[1])
@example(_SUBRING_EXAMPLES[2])
def test_the_materialized_subring_equals_the_element_loop(case):
    B = case[1]
    ring = B.ring
    if ring.is_algebra and B.span.is_zero():
        with pytest.raises(RingMismatch):
            B.as_ring()
        return
    sub, embed, project = B.as_ring()
    ref, ref_embed, ref_project = _reference_materialized_subring(B)
    if ring.is_table:
        assert np.array_equal(sub.add_table, ref.add_table)
        assert np.array_equal(sub.mul_table, ref.mul_table)
        assert sub.zero_index == ref.zero_index
    else:
        assert sub.constants.dtype == ref.constants.dtype
        assert np.array_equal(sub.constants, ref.constants)
    xs = (sub.enumerate_elements() if sub.size() is not None
          else [*sub.spanning_elements(), sum(sub.spanning_elements(), sub.zero())])
    for x in xs:
        y = embed(x)
        assert y.ring is ring and y == ref_embed(ref.element(x.data))
        assert project(y) == x and ref_project(y).data == x.data


def test_materializing_a_subring_multiplies_no_element(monkeypatch):
    # F_2, table and Q subrings, built before any product is refused
    diagonal = [[1, 0, 0, 0], [0, 0, 0, 1]]
    m2q = full_matrix_algebra(2, QQ)
    subrings = [_upper_triangular(_M2F2), _upper_triangular(convert_to_table(_M2F2)),
                subring_closure(m2q, [m2q.element(v) for v in diagonal])]

    def refuse(a, b):
        raise AssertionError("an Element product")
    monkeypatch.setattr(Element, "__mul__", refuse)
    assert [B.as_ring()[0].size() for B in subrings] == [8, 8, None]


_Z5, _Z6 = zmod_ring(5), zmod_ring(6)


@given(_rings_and_subrings())
@settings(max_examples=80, deadline=None)
@example((_Z5, subring_closure(_Z5, [])))                  # the witness is Z5 itself
@example((_Z6, subring_closure(_Z6, [_Z6.element(3)])))    # (3) meets S; (2) does not
def test_intersection_property_matches_the_lattice_scan(case):
    ring, S = case
    v = ideal_intersection_property(ring, S)
    ref = next((I for I in _reference_subring_ideals(ring, full_subring(ring))
                if not I.is_zero() and I.span.intersect(S.span).is_zero()), None)
    assert v.holds == (ref is None)
    if ref is not None:
        assert v.witness.key() == ref.key()


@given(_rings_and_subrings())
@settings(max_examples=60, deadline=None)
def test_the_centralizer_is_every_element_commuting_with_the_subring(case):
    # the one-contraction centralizer of a Subring, against its generators
    # closed into B first and against every element of the ring
    ring, S = case
    C = centralizer(ring, S)
    assert C.span == centralizer(ring, S.spanning()).span
    commuting = [x for x in ring.enumerate_elements()
                 if all(x * b == b * x for b in S.spanning())]
    assert all(C.contains(x) for x in commuting)
    assert len(commuting) == C.span.size()


def test_conjugation_premise_matches_the_lattice_scan():
    # the three levels of the F3 tower, and F3 ⊕ F3 doubled along the
    # identity (its factors are conjugation-stable) and along the swap
    # (no proper ideal is, though the base is not simple)
    B = functions_ring(2, GF(3))
    swap = RingMap(B, B, [[0, 1], [1, 0]], anti=True)
    doublings = cayley_tower(GF(3), 3).doublings + [
        cayley_dickson(B, sigma, B.element((2, 2))) for sigma in (RingMap.identity(B), swap)]
    statuses = []
    for cd in doublings:
        premise = certify._sigma_simple_premise(cd, ideals.DEFAULT_ELEMENT_CAP,
                                                ideals.DEFAULT_SEED)
        ref = first_invariant_ideal(
            _reference_subring_ideals(cd.base, full_subring(cd.base)),
            lambda I: all(I.contains(cd.sigma.apply(v)) for v in I.spanning()))
        if ref is None:
            assert premise.detail == "ideal enumeration"
        else:
            assert premise.detail.key() == ref.key() and premise.detail.of_subring is None
        statuses.append(premise.status)
    assert statuses == ["verified"] * 3 + ["failed", "verified"]


def test_the_closure_algebra_is_spun_up_in_bounded_memory():
    # E of M4(F2) ⊕ F2 (k = 17, 34 operators) is 257 flattened 17×17
    # matrices; spinning it up by Kronecker-expanded operators would hold
    # k⁴·m entries (about 23 MB), merging n·m candidates at a time holds a
    # few MB
    import tracemalloc
    ring = direct_sum_algebra([full_matrix_algebra(4, GF(2)), field_algebra(GF(2))])
    tracemalloc.start()
    try:
        # E is spun up on the first close, so the window spans it
        _, decision, seeds, close = ideals._line_closures(ring, None, [], 2 ** 17)
        first = close(next(seeds))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert decision is not True
    # the first line, e_0 of M4(F2), generates the factor M4(F2)
    assert first.measure() == 16 and not first.is_full()
    # M4(F2) itself is irreducible: no E is built and no line is walked
    _, decision, seeds, close = ideals._line_closures(full_matrix_algebra(4, GF(2)),
                                                       None, [], 2 ** 16)
    assert decision is True and list(seeds) == [] and close is None


# ---------------------------------------------------------------------------
# Norton's decision before the line walk, against the walk alone
# ---------------------------------------------------------------------------

def _power(M, e, p):
    out = np.eye(M.shape[0], dtype=np.int64)
    for _ in range(e):
        out = out @ M % p
    return out


def _order(M, p):
    """The least r ≥ 1 with M^r = 1, for an invertible M."""
    r, power = 1, M % p
    while not np.array_equal(power, np.eye(M.shape[0], dtype=np.int64)):
        r, power = r + 1, power @ M % p
    return r


def _base_with_automorphism(draw, p):
    """A unital F_p-algebra of dimension at most 5 and the matrix of an
    automorphism of it: a permutation of the points of a functions ring,
    a power of Frobenius on a finite field of dimension at most 3, or the
    identity on F_p[y]/(y^d) and M2(F_p)."""
    d = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["functions", "field", "truncated", "matrices"]))
    if kind == "functions":
        return functions_ring(d, GF(p)), np.eye(d, dtype=np.int64)[draw(st.permutations(range(d)))]
    if kind == "field":
        # the stock fields: F_p, F_{p^2}, and F_8, F_27
        k = draw(st.sampled_from([k for k in (1, 2, 3) if p ** k <= 27]))
        field, frobenius = gf_extension(p ** k)
        return field, _power(np.asarray(frobenius, dtype=np.int64), draw(st.integers(0, k - 1)), p)
    B = truncated_polynomial_ring(p, d) if kind == "truncated" else full_matrix_algebra(2, GF(p))
    return B, np.eye(B.dim, dtype=np.int64)


@st.composite
def _crossed_cases(draw):
    """(skew group ring, its base subring, the action's maps): a cyclic
    group acting through one automorphism of a base over F_2, F_3 or F_5."""
    p = draw(st.sampled_from([2, 3, 5]))
    B, M = _base_with_automorphism(draw, p)
    r = _order(M, p)
    cp = skew_group_ring(B, cyclic_group(r), {g: _power(M, g, p) for g in range(r)})
    sub = cp.base_subring()
    return cp.ring, sub, cp.action_maps


@st.composite
def _ore_cases(draw):
    """(base, None, [sigma, delta]) for random sigma and delta over a base of
    F_2, F_3 or F_5; delta is inner half the time."""
    p = draw(st.sampled_from([2, 3, 5]))
    B, M = _base_with_automorphism(draw, p)
    d = B.dim
    square = st.lists(st.integers(0, p - 1), min_size=d * d, max_size=d * d)
    kind = draw(st.sampled_from(["automorphism", "zero", "random"]))
    sigma = (M if kind == "automorphism" else np.zeros((d, d), dtype=np.int64)
             if kind == "zero" else np.array(draw(square)).reshape(d, d))
    if draw(st.booleans()):
        c = draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))
        L, R = B.F.mult_matrices(B, c)              # rows c·e_j and e_i·c
        delta = (L - sigma @ R) % p
    else:
        delta = np.array(draw(square)).reshape(d, d)
    data = SigmaDerivationData(B, RingMap(B, B, sigma), RingMap(B, B, delta))
    return data.base, None, [data.sigma.operator, data.delta.operator]


@st.composite
def _doubling_cases(draw):
    """(base, None, [sigma]) for a Cayley–Dickson doubling over F_2, F_3 or
    F_5: a functions ring with an involutive permutation of its points,
    F_{p^2} with Frobenius, or a level of the tower."""
    p = draw(st.sampled_from([2, 3, 5]))
    kind = draw(st.sampled_from(["functions", "field", "tower"]))
    if kind == "tower":
        level = draw(st.integers(0, 2))
        cd = cayley_tower(GF(p), level + 1).doublings[level]
        return cd.base, None, [cd.sigma.operator]
    if kind == "field":
        B, sigma = gf_extension(p * p)
    else:
        d = draw(st.integers(1, 5))
        points = draw(st.permutations(range(d)))
        swaps = draw(st.integers(0, d // 2))
        perm = list(range(d))
        for i in range(swaps):
            a, b = points[2 * i], points[2 * i + 1]
            perm[a], perm[b] = b, a
        B, sigma = functions_ring(d, GF(p)), np.eye(d, dtype=np.int64)[perm]
    unit = B.probe_properties().unit
    alpha = B.scalar_mul(draw(st.integers(1, p - 1)), unit)
    cd = cayley_dickson(B, RingMap(B, B, sigma, anti=draw(st.booleans())), alpha)
    return cd.base, None, [cd.sigma.operator]


def _walk_alone(m):
    """Leave every stable-ideal question to the line walk."""
    m.setattr(linalg, "irreducible_modp", lambda ops, p: None)


def _key(I):
    return None if I is None else I.key()


def _count_line_closures(m):
    """The seeds that every ``close`` of :func:`ideals._line_closures`
    closes from now on, also after ``m`` is undone; the decisions of
    Norton's test while ``m`` holds; and the spin-ups from an identity
    matrix, E's, while ``m`` holds."""
    closed, decisions, spun = [], [], []
    lines, irreducible, spin = (ideals._line_closures, linalg.irreducible_modp,
                                linalg.spin_modp)

    def counted_lines(*args, **kwargs):
        span, decision, seeds, close = lines(*args, **kwargs)
        if close is None:
            return span, decision, seeds, close

        def counted_close(seed, bound=None):
            closed.append(seed)
            return close(seed, bound)
        return span, decision, seeds, counted_close

    def counted_irreducible(ops, p):
        decisions.append(irreducible(ops, p))
        return decisions[-1]

    def counted_spin(seed_rows, ops, p):
        if np.shape(seed_rows)[-1] == ops.shape[1] ** 2:
            spun.append(ops.shape[1])
        return spin(seed_rows, ops, p)
    m.setattr(ideals, "_line_closures", counted_lines)
    m.setattr(linalg, "irreducible_modp", counted_irreducible)
    m.setattr(linalg, "spin_modp", counted_spin)
    return closed, decisions, spun


@given(st.one_of(_crossed_cases(), _ore_cases(), _doubling_cases()))
@settings(max_examples=80, deadline=None)
def test_the_stable_ideal_decision_agrees_with_the_line_walk(case):
    ring, B, maps = case
    with pytest.MonkeyPatch.context() as m:
        closed, decisions, spun = _count_line_closures(m)
        decided = ideals.first_stable_ideal(ring, B, maps)
    # a decided answer closes no line and spins up no E until it is read,
    # and an irreducible B none at all
    if decisions[-1] is not None:
        assert closed == [] and spun == []
    lattice = enumerate_subring_ideals(ring, B)
    with pytest.MonkeyPatch.context() as m:
        _walk_alone(m)
        walked = ideals.first_stable_ideal(ring, B, maps)
        walked_lattice = enumerate_subring_ideals(ring, B)
    # read only now, after the eager walk, whose answer it must equal
    assert _key(decided) == _key(walked)
    if decisions[-1] is not None:
        assert bool(closed) == (decided is not None)
    assert [I.key() for I in lattice] == [I.key() for I in walked_lattice]
    # past the cap no line is walked: an undecided B raises TooLarge, and a
    # decided one gets Norton's submodule, or None when it is irreducible
    span = full_subgroup(ring) if B is None else B.span
    try:
        over = ideals.first_stable_ideal(ring, B, maps, cap=span.size() - 1)
    except TooLarge:
        return
    assert (over is None) == (walked is None)
    if over is not None:
        assert not over.is_zero() and not over.is_full_in(span)
        IdealBasis(ring, over.span, of_subring=B, check=True)
        assert over.span.is_stable(maps)


def test_certify_dynamics_walks_no_line_until_its_premise_is_read():
    # Z2 swapping two of three points over F2 is not minimal; Norton's test
    # proves the action-simple premise failed, and its witness, the least
    # stable ideal, is walked for only when the certificate is printed
    dyn = corpus.build_nonminimal_dynamics()
    B = dyn.base_subring()
    with pytest.MonkeyPatch.context() as m:
        _walk_alone(m)
        walked = ideals.first_stable_ideal(dyn.ring, B, dyn.action_maps)
    with pytest.MonkeyPatch.context() as m:
        closed, _, spun = _count_line_closures(m)
        cert = certify.certify_dynamics(dyn)
        premise = next(p for p in cert.premises if p.name == "the base is action-simple")
        assert cert.verdict == "NotSimple" and premise.status == "failed"
        assert closed == [] and spun == []
        printed = cert.to_json()
        assert closed and spun == [len(B.span.pivots)]
    assert premise.detail.key() == walked.key()
    assert {"name": premise.name, "status": "failed", "detail": repr(walked)} \
        in printed["premises"]
    assert repr(walked) == "IdealBasis(Subspace(dim=1 of 6))"


def test_the_corpus_never_imports_numpy_ma():
    # numpy's 1-D unique imports numpy.ma, about 16 ms in a fresh process;
    # the table paths use set logic instead
    code = ("import sys\n"
            "from ringlab.corpus import cross_check_corpus\n"
            "cross_check_corpus()\n"
            "print('numpy.ma' in sys.modules)\n")
    src = str(pathlib.Path(ideals.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=300)
    assert out.stdout.strip() == "False"


def test_the_lattice_of_m6f2_is_decided_at_the_default_cap():
    # M6(F2) has 2^36 elements; Norton's test finds it irreducible under its
    # multiplications, so its lattice is 0, M6(F2) without a walk
    m6 = full_matrix_algebra(6, GF(2))
    assert [I.measure() for I in enumerate_ideals(m6)] == [0, 36]
    assert is_A_simple(m6, full_subring(m6)).holds
