"""Skew polynomials over a finite base ring: x·b = sigma(b)·x + delta(b).

The base ring B, its endomorphism sigma and the twisted derivation delta
(delta(bc) = sigma(b)delta(c) + delta(b)c) are validated exactly.  The
polynomial ring itself is infinite, so every claim about it is proved up to
a degree and says so: :func:`commutator_drop_failure` proves the degree
map's commutator drop for every polynomial of degree at most ``max_deg``
(4 by default), by checking identities additive in the polynomial on the
monomials h·x^i with h an additive generator of B, and
:func:`check_A_invariance_truncated` decides B·x^n·I ⊆ I·A for n ≤ n_max.
Polynomials are coefficient sequences over B with no trailing zeros; the
degree-plus-one map sends 0 to 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constructions.crossed import RingMap
from .errors import CriterionDisagreement, PreconditionUnmet, ShapeMismatch
from .ideals import DEFAULT_ELEMENT_CAP, IdealBasis, Verdict, center, first_stable_ideal
from .rings import Element, Ring


@dataclass
class SigmaDerivationData:
    base: Ring
    sigma: RingMap
    delta: RingMap          # additive map; multiplicativity is not required

    def __post_init__(self):
        props = self.base.probe_properties()
        if not (props.associative and props.unital):
            raise ShapeMismatch("the base ring must be associative and unital")

    @property
    def unit(self):
        return self.base.probe_properties().unit

    def x(self):
        return SkewPolynomial(self, (self.base.zero(), self.unit))

    def constant(self, b: Element):
        return SkewPolynomial(self, (b,))

    def polynomial(self, coeffs):
        return SkewPolynomial(self, tuple(coeffs))


def validate_sigma_derivation(data: SigmaDerivationData):
    """Itemized endomorphism/additivity/Leibniz/delta(1)=0 checks with
    witnesses."""
    B = data.base
    report = []
    props = B.probe_properties()
    report.append(("base associative", props.associative, props.associative_witness))
    report.append(("base unital", props.unital, None))
    span = B.spanning_elements()
    # a matrix map has nothing to check, and no item
    additive = {"sigma": data.sigma.additivity(), "delta": data.delta.additivity()}
    report += [(f"{name} additive", ok, None) for name, ok in additive.items() if ok is not None]
    # plain multiplicativity, even for an anti map
    plain = RingMap(B, B, data.sigma.operator)
    bad = plain.first_product_failure()
    report.append(("sigma multiplicative", bad is None,
                   None if bad is None else (span[bad[0]], span[bad[1]])))
    if props.unital:
        report.append(("sigma unital", data.sigma.apply(props.unit) == props.unit, None))
        report.append(("delta kills the unit", data.delta.apply(props.unit).is_zero(), None))
    # with sigma and delta additive, delta(ab) - sigma(a)delta(b) - delta(a)b
    # is additive in a and in b, so pairs of additive generators decide the
    # rule; a failure there is looked for again on every pair of spanning
    # elements, so that the witness is the first in their order
    sigma, delta = data.sigma.apply, data.delta.apply

    def failure(elements):
        return next(((a, b) for a in elements for b in elements
                     if delta(a * b) != sigma(a) * delta(b) + delta(a) * b), None)

    gens = B.additive_generators() if False not in additive.values() else span
    wit = failure(gens)
    if wit is not None and gens != span:
        wit = failure(span)
    report.append(("twisted Leibniz rule", wit is None, wit))
    return report


class SkewPolynomial:
    """Coefficients b_0..b_n over the base, b_n nonzero unless zero."""

    __slots__ = ("data", "coeffs")

    def __init__(self, data: SigmaDerivationData, coeffs):
        self.data = data
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        if self.is_zero():
            raise ValueError("the zero polynomial has no degree")
        return len(self.coeffs) - 1

    def leading(self):
        return self.coeffs[-1]

    def coeff(self, i):
        return self.coeffs[i] if i < len(self.coeffs) else self.data.base.zero()

    def is_monic(self):
        return not self.is_zero() and self.leading() == self.data.unit

    def __add__(self, other):
        self._chk(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return SkewPolynomial(self.data,
                              [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __neg__(self):
        return SkewPolynomial(self.data, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._chk(other)
        return ore_mul(self, other)

    def __eq__(self, other):
        return (isinstance(other, SkewPolynomial) and other.data is self.data
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((id(self.data), self.coeffs))

    def _chk(self, other):
        if not isinstance(other, SkewPolynomial) or other.data is not self.data:
            raise ShapeMismatch("polynomials over different data")

    def __repr__(self):
        if self.is_zero():
            return "SkewPolynomial(0)"
        return "SkewPolynomial(deg=%d)" % self.degree()


def x_power_times(data: SigmaDerivationData, i: int, b: Element):
    """Coefficients (by ascending degree) of x^i · b."""
    cur = [b]
    for _ in range(i):
        nxt = [data.base.zero()] * (len(cur) + 1)
        for j, c in enumerate(cur):
            nxt[j + 1] = nxt[j + 1] + data.sigma.apply(c)
            nxt[j] = nxt[j] + data.delta.apply(c)
        cur = nxt
    return cur


def s_coefficients(i: int, b: Element, data: SigmaDerivationData):
    """The unique s_i,0(b)..s_i,i(b) with x^i b = sum_j s_i,i-j(b) x^j.

    Returned leading-first: s_i,0(b) multiplies x^i (and equals b when
    sigma is the identity).
    """
    return list(reversed(x_power_times(data, i, b)))


def ore_mul(p: SkewPolynomial, q: SkewPolynomial) -> SkewPolynomial:
    """The bilinear product induced by x·b = sigma(b)x + delta(b)."""
    data = p.data
    if p.is_zero() or q.is_zero():
        return SkewPolynomial(data, ())
    out = [data.base.zero()] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        if a.is_zero():
            continue
        for j, b in enumerate(q.coeffs):
            if b.is_zero():
                continue
            for k, t in enumerate(x_power_times(data, i, b)):
                if not t.is_zero():
                    out[k + j] = out[k + j] + a * t
    return SkewPolynomial(data, out)


def ore_degree_map(p: SkewPolynomial) -> int:
    """deg(p) + 1 for nonzero p, 0 for the zero polynomial."""
    return 0 if p.is_zero() else p.degree() + 1


# ---------------------------------------------------------------------------
# invariance and simplicity of the base
# ---------------------------------------------------------------------------

def is_sigma_delta_invariant(I: IdealBasis, data: SigmaDerivationData) -> bool:
    """sigma(I) ⊆ I and delta(I) ⊆ I (its span's ``is_stable``)."""
    return I.span.is_stable([data.sigma.operator, data.delta.operator])


def is_sigma_delta_simple(data: SigmaDerivationData, cap=DEFAULT_ELEMENT_CAP) -> Verdict:
    """No nontrivial ideal of the base that sigma and delta map into itself:
    the verdict of :func:`ringlab.ideals.first_stable_ideal` on the base,
    sigma and delta, named "SigmaDeltaSimple"/"NotSigmaDeltaSimple".
    Norton's test decides first, at any size over F_p.  Within ``cap`` the
    witness is the first such ideal in the order of ``enumerate_ideals``,
    found on the first read of ``witness``; past it, the stable ideal the
    test found."""
    verdict = first_stable_ideal(data.base, None, [data.sigma.operator, data.delta.operator],
                                 cap=cap)
    verdict.names = ("SigmaDeltaSimple", "NotSigmaDeltaSimple")
    return verdict


# ---------------------------------------------------------------------------
# commutator calculations
# ---------------------------------------------------------------------------

def commutator_degree_drop(a: SkewPolynomial, b, data: SigmaDerivationData):
    """The commutator of a with a central base element or with x, plus
    whether its degree-plus-one value drops below that of ``a``.

    Only for differential data (sigma = id).  For b = "x" the input must be
    monic and the commutator is checked against -sum delta(b_i) x^i; for
    central b against its expansion in the s-coefficients.
    """
    _require_identity_sigma(data)
    if a.is_zero():
        raise PreconditionUnmet("a must be nonzero")
    if isinstance(b, str) and b == "x":
        if not a.is_monic():
            raise PreconditionUnmet("the x-commutator form needs a monic polynomial")
        x = data.x()
        comm = a * x - x * a
        expected = SkewPolynomial(
            data, [-data.delta.apply(a.coeff(i)) for i in range(a.degree())])
        if comm != expected:
            raise CriterionDisagreement("x-commutator does not match the closed form")
    else:
        if not center(data.base).contains(b):
            raise PreconditionUnmet("b must be central in the base ring")
        comm = _central_commutator(a, b, data)
    drop = ore_degree_map(comm) < ore_degree_map(a)
    return drop, comm


def _require_identity_sigma(data):
    if not data.sigma.is_identity():
        raise PreconditionUnmet("commutator calculus here requires sigma = id")


def _central_commutator(a, b, data):
    """a·b − b·a, checked against sum_i a_i (x^i b) − b a_i x^i with x^i b
    expanded in the s-coefficients."""
    n = a.degree()
    pb = data.constant(b)
    comm = a * pb - pb * a
    expected_coeffs = [data.base.zero()] * (n + 1)
    for i in range(n + 1):
        bi = a.coeff(i)
        s = s_coefficients(i, b, data)     # s[0] multiplies x^i
        for j in range(i + 1):
            expected_coeffs[j] = expected_coeffs[j] + bi * s[i - j]
        expected_coeffs[i] = expected_coeffs[i] - b * bi
    if comm != SkewPolynomial(data, expected_coeffs):
        raise CriterionDisagreement("commutator does not match the expansion")
    return comm


def _monomial(data, h, i):
    """h·x^i."""
    return SkewPolynomial(data, [data.base.zero()] * i + [h])


def commutator_drop_failure(data: SigmaDerivationData, max_deg=4):
    """The first (a, b) at which the degree map d = deg + 1 fails to drop
    under a commutator, with b = "x" or b central; None proves that it
    drops up to degree ``max_deg``.

    Only for differential data (sigma = id).  The checks run on the
    monomials a = h·x^i, i ≤ max_deg, with h in
    ``base.additive_generators()``:

    - a·x − x·a = −sum_j delta(a_j) x^j;
    - for each b spanning the centre Z(B), a·b − b·a matches its
      expansion (:func:`commutator_degree_drop`) and loses its x^i
      coefficient.

    B's product is biadditive and delta additive, so both sides of both
    identities are additive in a (linear, over an algebra), and holding on
    the monomials they hold for every a of degree at most ``max_deg``.
    delta(1) = 0 is checked first (a = 1, b = "x", as [1, x] = −delta(1));
    with it a monic a of degree n ≤ max_deg has [a, x] of degree below n,
    so d([a, x]) < d(a).  The x^n coefficient of [a, b] is a_n·b − b·a_n,
    which depends only on the top coefficient a_n, so its cancellation on
    the monomials gives d([a, b]) < d(a) for every nonzero a.
    """
    _require_identity_sigma(data)
    if not data.delta.apply(data.unit).is_zero():
        return data.constant(data.unit), "x"
    x, zb = data.x(), center(data.base).spanning()
    for i in range(max_deg + 1):
        for h in data.base.additive_generators():
            a = _monomial(data, h, i)
            if a * x - x * a != _monomial(data, -data.delta.apply(h), i):
                return a, "x"
            for b in zb:
                try:
                    comm = _central_commutator(a, b, data)
                except CriterionDisagreement:
                    return a, b
                if ore_degree_map(comm) > i:
                    return a, b
    return None


def check_A_invariance_truncated(I: IdealBasis, data: SigmaDerivationData,
                                 n_max: int = 4) -> bool:
    """B·x^n·I ⊆ I·A for n ≤ n_max, decided degreewise.

    The polynomial ring is a free left B-module on the powers of x and
    I·B = I for unital B, so membership in I·A means every coefficient lies
    in I; it suffices that the expansion coefficients of x^n·i stay in I.
    """
    for v in I.spanning():
        for n in range(n_max + 1):
            for t in x_power_times(data, n, v):
                if not I.contains(t):
                    return False
    return True


def degree_one_escape_witness(I: IdealBasis, data: SigmaDerivationData):
    """For a non-sigma-delta-invariant ideal, the degree-1 product x·b that
    leaves I·A (its coefficients sigma(b), delta(b) do not all stay in I)."""
    for v in I.spanning():
        sb, db = data.sigma.apply(v), data.delta.apply(v)
        if not I.contains(sb) or not I.contains(db):
            return v, SkewPolynomial(data, (db, sb))
    return None
