"""Skew and twisted matrix rings: crossed products over pair groupoids.

M_I(B) is generated by matrix units with entries in the rings B_i; the
product of the (i,j) and (j,k) blocks is skewed by an isomorphism family
sigma_ij (coherent: sigma_ii = id, sigma_ij sigma_jk = sigma_ik) and twisted
by central associating units alpha_ijk (normalized when i = j or j = k).
"""

from __future__ import annotations

from ..categories import pair_groupoid
from ..errors import CoherenceViolation, ShapeMismatch
from .crossed import (CrossedProduct, CrossedSystem, RingMap, _functoriality,
                      crossed_product)


def matrix_ring(n: int, bases, sigmas=None, alphas=None, name=None) -> CrossedProduct:
    """The n x n skew/twisted matrix ring over base rings B_0..B_(n-1).

    ``bases`` is one ring (used for every index) or a list of rings;
    ``sigmas`` maps (i,j) to a RingMap B_j -> B_i (identity by default);
    ``alphas`` maps (i,j,k) to a unit of B_i.  Coherence is the system's
    functoriality (:func:`~ringlab.constructions.crossed._functoriality`),
    read at the pairs ((i,j), (j,k)) in (i, j, k) order: the first that
    fails raises ShapeMismatch when its maps do not compose, and
    CoherenceViolation otherwise.
    """
    G = pair_groupoid(n)
    if isinstance(bases, (list, tuple)):
        base = {i: bases[i] for i in range(n)}
    else:
        base = {i: bases for i in range(n)}
    sig = {}
    for (i, j) in G.morphisms:
        if sigmas is not None and (i, j) in sigmas:
            sig[(i, j)] = sigmas[(i, j)]
        else:
            if base[i] is not base[j]:
                raise CoherenceViolation(
                    f"missing sigma for ({i},{j}) between distinct base rings")
            sig[(i, j)] = RingMap.identity(base[i])
        m = sig[(i, j)]
        if m.anti or not m.is_bijective():
            raise CoherenceViolation(f"sigma[{i},{j}] is not an isomorphism")
    for i in range(n):
        if not sig[(i, i)].is_identity():
            raise CoherenceViolation(f"sigma[{i},{i}] must be the identity")
    sys = CrossedSystem(G, base, sig, name=name or f"M_{n}")
    for (g, h), ok in zip(G.composable_pairs(), _functoriality(sys)):
        if not ok:
            if sig[h].target is not sig[g].source:
                raise ShapeMismatch("maps do not compose")
            (i, j), k = g, h[1]
            raise CoherenceViolation(f"sigma[{i},{j}]sigma[{j},{k}] != sigma[{i},{k}]")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                g, h = (i, j), (j, k)
                if alphas is not None and (i, j, k) in alphas:
                    a = alphas[(i, j, k)]
                    if (i == j or j == k):
                        unit = base[i].probe_properties().unit
                        if a != unit:
                            raise CoherenceViolation(
                                f"alpha[{i},{j},{k}] must be the unit when i=j or j=k")
                    sys.alpha[(g, h)] = a
    return crossed_product(sys, kind_tag="matrix_ring")
