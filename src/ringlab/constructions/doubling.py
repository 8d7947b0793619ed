"""Cayley-Dickson doublings and the signed cocycle that realizes them as
twisted group rings over XOR groups.

A doubling is the order-two crossed product of a unital ring B with itself:
(a + b·u)(c + d·u) = a*c + (b * sigma(d))·alpha + (a*d + b*sigma(c))·u, with
the classical twist pattern straight/opposite/straight/opposite.  Iterating
from a field with sigma = conjugation and alpha = -1 produces the usual
2^n-dimensional tower; bases concatenate, so basis index p at level n+1 has
its high bit saying which half it came from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..categories import cyclic_group, xor_group
from ..errors import (AlphaNotCentralUnit, CriterionDisagreement, ShapeMismatch,
                      SigmaNotInvolutive, TooLarge)
from ..linalg import nonzero
from ..rings import Element, Ring, StructureAlgebra, field_algebra
from .crossed import (CrossedProduct, CrossedSystem, RingMap,
                      _alpha_verdicts, crossed_product, twisted_group_ring)

CLASSICAL_TWISTS = {(0, 0): "straight", (0, 1): "opposite",
                    (1, 0): "straight", (1, 1): "opposite"}
# the most levels a Cayley tower is built to: level k has dimension 2^k
TOWER_LEVEL_CAP = 5


def bales_alpha(p: int, q: int) -> int:
    """The recursive {+1,-1} cocycle on XOR groups, evaluated exactly.

    Rules, tried in order: boundary alpha(p,0) = alpha(0,q) = 1;
    alpha(2p,2q) = alpha(p,q); alpha(1, odd) = -1; alpha(2p, 2q+1) =
    -alpha(p,q); alpha(2p+1, 2q+1) = alpha(q,p) for p nonzero.  The
    (odd, nonzero even) pair matches none of these and is routed through
    anti-commutativity, alpha(p,q) = -alpha(q,p), into the covered
    (even, odd) case.
    """
    if p < 0 or q < 0:
        raise ValueError("arguments must be non-negative")
    if p == 0 or q == 0:
        return 1
    p_even, q_even = p % 2 == 0, q % 2 == 0
    if p_even and q_even:
        return bales_alpha(p // 2, q // 2)
    if not p_even and not q_even:
        if p == 1:
            return -1
        return bales_alpha(q // 2, p // 2)
    if p_even:
        return -bales_alpha(p // 2, q // 2)
    return -bales_alpha(q, p)


@dataclass
class CayleyDoubling(CrossedProduct):
    base: Ring = None
    sigma: RingMap = None
    alpha: Element = None
    extended_sigma: RingMap = None


def cayley_dickson(B: Ring, sigma: RingMap, alpha: Element) -> CayleyDoubling:
    """Double B along an involutive (anti-)automorphism and a central unit.

    The doubling uses the classical straight/opposite twist pattern (other
    twists are a :func:`crossed_product`) and also returns the extension of
    sigma to the double, sigma(a + b·u) = sigma(a) - b·u, asserted to be an
    anti-automorphism whenever sigma is one on B.
    """
    if not sigma.compose(sigma).is_identity():
        raise SigmaNotInvolutive("sigma squared is not the identity")
    if not isinstance(alpha, Element) or alpha.ring is not B:
        raise ShapeMismatch("alpha must be an element of the base ring")
    # decided once per base and alpha, so validating the system re-reads it
    if not all(_alpha_verdicts(B, alpha)):
        raise AlphaNotCentralUnit("alpha must be a central, associating unit")
    G = cyclic_group(2)
    sys = CrossedSystem(G, {"*": B},
                        {0: RingMap.identity(B), 1: sigma},
                        alpha={(1, 1): alpha},
                        twists=dict(CLASSICAL_TWISTS),
                        name="order-two doubling")
    notes = []
    # alpha is a unit, so B has one
    unit = B.probe_properties().unit
    if (unit + unit).is_zero():
        notes.append("characteristic 2: -1 = 1, the doubling twist degenerates")
    cp = crossed_product(sys, kind_tag="cayley_dickson", notes=tuple(notes))
    result = CayleyDoubling(cp.ring, cp.grading, cp.system, cp.kind_tag,
                            cp.offsets, cp.notes, base=B, sigma=sigma, alpha=alpha)
    result.extended_sigma = _extend_conjugation(result)
    if sigma.anti:
        _assert_anti_automorphism(result.ring, result.extended_sigma)
    return result


def _extend_conjugation(cd: CayleyDoubling) -> RingMap:
    """sigma(a + b·u) = sigma(a) - b·u on the double: the block operator
    with sigma on the u_0 component and negation on the u_1 component."""
    M = cd.block_operator([(0, 0, cd.sigma.operator), (1, 1, cd.base.scalar_operator(-1))])
    return RingMap(cd.ring, cd.ring, M, anti=True)


def _assert_anti_automorphism(A, m: RingMap):
    """m(xy) = m(y) m(x) on every spanning pair, whatever ``m.anti`` says."""
    reversing = RingMap(A, A, m.operator, anti=True)
    if reversing.first_product_failure() is not None:
        raise CriterionDisagreement("extended map fails to reverse products")


@dataclass
class CayleyTower:
    rings: list
    doublings: list
    notes: tuple = ()


def _diagonal_signs(m: RingMap):
    """The diagonal of a diagonal matrix map, or None."""
    signs = np.diag(m.operator)
    return signs if m.source.F.equal(np.diag(signs), m.operator).all() else None


def _interleave(cd: CayleyDoubling):
    """Present a doubling on the interleaved basis n_2p = (b_p, 0),
    n_2p+1 = (0, sigma(b_p)).

    With a diagonal conjugation this is a signed reindexing; it is the
    labeling under which the iterated doubling realizes the signed cocycle
    literally (index halving walks down the tower).  Returns the re-based
    ring and the conjugation, which stays diagonal.
    """
    A, B = cd.ring, cd.base
    d = B.dim
    signs = _diagonal_signs(cd.sigma)
    if signs is None:
        raise ShapeMismatch("interleaving expects a diagonal conjugation")
    # new index 2p -> old p with sign 1; 2p+1 -> old d+p with sign s_p
    old_index = np.arange(2 * d).reshape(2, d).T.ravel()
    # the signs are their own inverses, so they also convert coordinates.
    # Each is ±1, so multiplying the constants by the sign tensor s_i·s_j·s_k
    # negates the nonzero entries where an odd number of the three is -1,
    # found from their numerators (no Fraction is truth-tested)
    neg = np.stack([np.zeros(d, dtype=bool), ~A.F.equal(signs, 1)], axis=1).ravel()
    C = A.constants[np.ix_(old_index, old_index, old_index)]
    flip = (neg[:, None, None] ^ neg[None, :, None] ^ neg[None, None, :]) & nonzero(C)
    C[flip] = -C[flip]
    newA = StructureAlgebra(A.F, 2 * d, C)
    # extended conjugation: diagonal sigma ⊕ (-1) interleaves to a diagonal
    M = np.diag(A.F.array([[s, -1] for s in signs]).ravel())
    return newA, RingMap(newA, newA, M, anti=True)


def cayley_tower(field_dom, levels: int, alphas=None) -> CayleyTower:
    """Iterated classical doublings of a field: [B_0, ..., B_levels].

    Level k has dimension 2^k, presented on the interleaved basis (so the
    sign tables realize the recursive cocycle literally); conjugation
    extends level by level and the twist defaults to -1 throughout.
    """
    if levels > TOWER_LEVEL_CAP:
        raise TooLarge(f"{levels} levels exceeds cap {TOWER_LEVEL_CAP} (dimension 2^{levels})")
    B = field_algebra(field_dom)
    sigma = RingMap.identity(B)
    sigma.anti = True  # conjugation on the base field is the identity
    rings = [B]
    doublings = []
    notes = ()
    for k in range(levels):
        if alphas is not None:
            a = alphas[k]
            alpha = a if isinstance(a, Element) else B.scalar_mul(a, B.probe_properties().unit)
        else:
            alpha = B.scalar_mul(-1, B.probe_properties().unit)
        cd = cayley_dickson(B, sigma, alpha)
        notes = notes + cd.notes
        doublings.append(cd)
        B, sigma = _interleave(cd)
        rings.append(B)
    return CayleyTower(rings, doublings, notes)


def bales_twisted_ring(field_dom, nbits: int) -> CrossedProduct:
    """The twisted group ring of the XOR group on n bits with the signed
    recursive cocycle; over Q its table coincides with tower level n."""
    B = field_algebra(field_dom)
    return twisted_group_ring(B, xor_group(nbits),
                              lambda g, h: bales_alpha(g, h),
                              name=f"bales:{nbits}")
