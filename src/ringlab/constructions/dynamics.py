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
from .crossed import CrossedProduct, CrossedSystem, RingMap, crossed_products


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
    action; returns the ring, grading and the minimal/faithful flags: the
    one-action call of :func:`dynamics_skew_group_rings`."""
    return dynamics_skew_group_rings(npoints, G, [action], field_dom)[0]


def dynamics_skew_group_rings(npoints: int, G: FiniteCategory, actions,
                              field_dom) -> list:
    """B ⋊ G for each action of ``actions`` on the same points and group,
    over B = functions({0..npoints-1} -> k), the one functions ring per
    (npoints, k) (:func:`_functions_ring`).

    The actions are one (actions, |G|, npoints) array: composition is
    checked for every action and pair at once, and NotAnAction names the
    first fault of the first action, in order, that is not one.  Their
    systems share the category and the base, so they are validated and
    built as one stack (:func:`crossed_products`).  The orbit of point 0
    is its images under G, and an action is faithful when no morphism but
    the identity fixes every point.
    """
    if not G.is_group():
        raise NotAnAction("dynamics need a group")
    mors = list(G.morphisms)
    pos = {g: t for t, g in enumerate(mors)}
    e = pos[G.identity[G.objects[0]]]
    ident = tuple(range(npoints))
    perms = [{g: tuple(int(x) for x in action[g]) for g in mors} for action in actions]
    faults = [next((f"action of {g!r} is not a permutation" for g in mors
                    if tuple(sorted(p[g])) != ident), None) for p in perms]
    # every action and pair at once: composed[k, g, h, x] = s(g)(s(h)(x))
    # against s(gh)(x); an action that is not made of permutations reads
    # as the trivial one here, having failed already
    P = np.array([[p[g] for g in mors] if fault is None else [ident] * len(mors)
                  for p, fault in zip(perms, faults)], dtype=np.int64
                 ).reshape(len(perms), len(mors), npoints)
    GH = np.array([[pos[G.compose(g, h)] for h in mors] for g in mors], dtype=np.int64)
    composed = np.take_along_axis(P[:, :, None, :], P[:, None, :, :], axis=3)
    bad = (composed != P[:, GH]).any(axis=3)
    trivial = (P[:, e] == ident).all(axis=1).tolist()
    composes = (~bad.any(axis=(1, 2))).tolist()
    for k, fault in enumerate(faults):
        if fault is None and not trivial[k]:
            fault = "identity must act trivially"
        elif fault is None and not composes[k]:
            g, h = (mors[t] for t in np.argwhere(bad[k])[0])
            fault = f"action fails to compose at ({g!r},{h!r})"
        if fault is not None:
            raise NotAnAction(fault)
    B = _functions_ring(npoints, field_dom)
    obj = G.objects[0]
    # row x is delta_{s(g)(x)}, the image of delta_x
    eye = np.eye(npoints, dtype=np.int64)
    systems = [CrossedSystem(G, {obj: B}, {g: RingMap(B, B, eye[row]) for g, row in zip(mors, Pk)},
                             name=f"dynamics:{npoints}pt-{G.name}") for Pk in P]
    # no morphism but the identity acts as the identity does
    faithful = (P != P[:, e:e + 1]).any(axis=2).sum(axis=1) == len(mors) - 1
    return [DynamicsRing(cp.ring, cp.grading, cp.system, cp.kind_tag, cp.offsets, cp.notes,
                         npoints=npoints, action=p, orbit=frozenset(Pk[:, 0].tolist()),
                         faithful=bool(f))
            for cp, p, Pk, f in zip(crossed_products(systems, kind_tag="dynamics"),
                                    perms, P, faithful)]
