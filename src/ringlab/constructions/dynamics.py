"""Skew group rings of finite dynamical systems.

A finite group acting on a finite set X acts on the ring of functions
X -> k by sigma_g(f) = f ∘ s(g^-1); the resulting skew group ring carries
the minimality (single orbit: every subset of a finite discrete space is
closed) and faithfulness flags of the action.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..categories import FiniteCategory
from ..errors import NotAnAction
from ..rings import functions_ring
from .crossed import CrossedProduct, CrossedSystem, RingMap, crossed_product


@dataclass
class DynamicsRing(CrossedProduct):
    npoints: int = 0
    action: dict = None
    orbit: frozenset = frozenset()   # the orbit of point 0
    faithful: bool = False

    @property
    def minimal(self):
        """One orbit (every subset of a finite discrete space is closed)."""
        return len(self.orbit) == self.npoints


def dynamics_skew_group_ring(npoints: int, G: FiniteCategory, action: dict,
                             field_dom) -> DynamicsRing:
    """B ⋊ G for B = functions({0..npoints-1} -> k) and the permutation
    action; returns the ring, grading and the minimal/faithful flags."""
    if not G.is_group():
        raise NotAnAction("dynamics need a group")
    e = G.identity[G.objects[0]]
    perms = {}
    for g in G.morphisms:
        p = tuple(int(x) for x in action[g])
        if sorted(p) != list(range(npoints)):
            raise NotAnAction(f"action of {g!r} is not a permutation")
        perms[g] = p
    if perms[e] != tuple(range(npoints)):
        raise NotAnAction("identity must act trivially")
    for g in G.morphisms:
        for h in G.morphisms:
            gh = G.compose(g, h)
            composed = tuple(perms[g][perms[h][x]] for x in range(npoints))
            if composed != perms[gh]:
                raise NotAnAction(f"action fails to compose at ({g!r},{h!r})")
    B = functions_ring(npoints, field_dom)
    maps = {}
    for g in G.morphisms:
        M = np.zeros((npoints, npoints), dtype=np.int64)
        for x in range(npoints):
            M[x, perms[g][x]] = 1  # delta_x -> delta_{s(g)(x)}
        maps[g] = RingMap(B, B, matrix=M)
    obj = G.objects[0]
    sys = CrossedSystem(G, {obj: B}, maps, name=f"dynamics:{npoints}pt-{G.name}")
    cp = crossed_product(sys, kind_tag="dynamics")
    orbit = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in G.morphisms:
            y = perms[g][x]
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    faithful = all(perms[g] != perms[e] for g in G.morphisms if g != e)
    return DynamicsRing(cp.ring, cp.grading, cp.system, cp.kind_tag, cp.offsets,
                        cp.notes, npoints=npoints, action=perms,
                        orbit=frozenset(orbit), faithful=faithful)
