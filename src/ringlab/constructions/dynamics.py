"""Skew group rings of finite dynamical systems.

A finite group acting on a finite set X acts on the ring of functions
X -> k by sigma_g(f) = f ∘ s(g^-1); the resulting skew group ring carries
the minimality (single orbit: every subset of a finite discrete space is
closed) and faithfulness flags of the action.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


@lru_cache(maxsize=64)
def _functions_ring(npoints, field_dom):
    """One functions ring per (points, field), shared by every dynamics
    system over it.  Rings are immutable, and the facts kept on one (its
    probe, its alpha verdicts, its simplicity verdicts) are facts about the
    ring, so each is worked out once however many actions it carries.  The
    cache fills on first use, not at import."""
    return functions_ring(npoints, field_dom)


def dynamics_skew_group_ring(npoints: int, G: FiniteCategory, action: dict,
                             field_dom) -> DynamicsRing:
    """B ⋊ G for B = functions({0..npoints-1} -> k) and the permutation
    action; returns the ring, grading and the minimal/faithful flags.  B is
    the one functions ring per (npoints, k) (:func:`_functions_ring`)."""
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
    # every pair at once: composed[g, h, x] = s(g)(s(h)(x)) against s(gh)(x)
    mors = list(G.morphisms)
    pos = {g: t for t, g in enumerate(mors)}
    P = np.array([perms[g] for g in mors], dtype=np.int64)
    GH = np.array([[pos[G.compose(g, h)] for h in mors] for g in mors], dtype=np.int64)
    bad = np.argwhere(np.any(P[:, P] != P[GH], axis=2))
    if bad.size:
        g, h = (mors[t] for t in bad[0])
        raise NotAnAction(f"action fails to compose at ({g!r},{h!r})")
    B = _functions_ring(npoints, field_dom)
    eye = np.eye(npoints, dtype=np.int64)
    # row x is delta_{s(g)(x)}, the image of delta_x
    maps = {g: RingMap(B, B, matrix=eye[list(perms[g])]) for g in mors}
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
