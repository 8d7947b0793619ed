"""Finite small categories and groupoids.

A category is given extensionally: objects, morphisms, domain/codomain maps,
a partial composition table on composable pairs (d(g) = c(h) for the product
g∘h), one identity morphism per object, and optionally inverses.  Groups are
one-object categories; the XOR group on n bits and pair groupoids are the
stock examples used by the constructions.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import TooLarge, ValidationFailure

# the most morphisms a stock group or groupoid may have: a group's
# composition table has order² entries, and validating associativity
# compares order³ triples
MORPHISM_CAP = 256


def _refuse_past_cap(name, order):
    if order > MORPHISM_CAP:
        raise TooLarge(f"{name} has more than {MORPHISM_CAP} morphisms")


class FiniteCategory:
    def __init__(self, objects, morphisms, dom, cod, compose, identity,
                 inverse=None, name=None, validate=True):
        self.objects = tuple(objects)
        self.morphisms = tuple(morphisms)
        self.dom = dict(dom)
        self.cod = dict(cod)
        self.compose_table = dict(compose)
        self.identity = dict(identity)
        self.inverse = dict(inverse) if inverse is not None else None
        self.name = name or "category"
        self._composable = None
        if validate:
            self._validate()

    # -- basic structure ----------------------------------------------
    def compose(self, g, h):
        """g∘h, defined exactly when d(g) = c(h)."""
        return self.compose_table[(g, h)]

    def composable(self, g, h):
        return self.dom[g] == self.cod[h]

    def composable_pairs(self):
        """Every (g, h) with d(g) = c(h), g-major, as a tuple worked out on
        the first call: a category does not change after construction."""
        if self._composable is None:
            self._composable = tuple((g, h) for g in self.morphisms for h in self.morphisms
                                     if self.composable(g, h))
        return self._composable

    @property
    def is_groupoid(self):
        return self.inverse is not None

    def is_group(self):
        return self.is_groupoid and len(self.objects) == 1

    def vertex_morphisms(self, e):
        return [g for g in self.morphisms if self.dom[g] == e and self.cod[g] == e]

    def is_connected(self):
        for e in self.objects:
            for f in self.objects:
                if not any(self.dom[g] == e and self.cod[g] == f
                           for g in self.morphisms):
                    return False
        return True

    def is_locally_abelian(self):
        """Every vertex group abelian (interpretation; flagged in reports)."""
        if not self.is_groupoid:
            return False
        for e in self.objects:
            vg = self.vertex_morphisms(e)
            for g in vg:
                for h in vg:
                    if self.compose(g, h) != self.compose(h, g):
                        return False
        return True

    def is_abelian_group(self):
        return self.is_group() and self.is_locally_abelian()

    # -- validation -----------------------------------------------------
    def _validate(self):
        # every check below reads both endpoints of every morphism
        problems = [f"morphism {g!r} has no {side}" for g in self.morphisms
                    for side, ends in (("domain", self.dom), ("codomain", self.cod))
                    if g not in ends]
        if problems:
            raise ValidationFailure(problems)
        for e in self.objects:
            i = self.identity.get(e)
            if i is None or self.dom.get(i) != e or self.cod.get(i) != e:
                problems.append(f"bad identity at object {e!r}")
        for (g, h) in self.compose_table:
            if not self.composable(g, h):
                problems.append(f"composition defined on non-composable pair ({g!r},{h!r})")
        for g in self.morphisms:
            for h in self.morphisms:
                if self.composable(g, h):
                    gh = self.compose_table.get((g, h))
                    if gh is None:
                        problems.append(f"missing composition ({g!r},{h!r})")
                    elif self.cod.get(gh) != self.cod[g] or self.dom.get(gh) != self.dom[h]:
                        problems.append(f"composition ({g!r},{h!r}) has wrong endpoints")
        for g in self.morphisms:
            if self.compose_table.get((g, self.identity.get(self.dom[g]))) != g:
                problems.append(f"right identity fails at {g!r}")
            if self.compose_table.get((self.identity.get(self.cod[g]), g)) != g:
                problems.append(f"left identity fails at {g!r}")
        bad = self._associativity_failure()
        if bad is not None:
            problems.append("composition not associative at ({!r},{!r},{!r})".format(*bad))
        if self.inverse is not None:
            for g in self.morphisms:
                gi = self.inverse.get(g)
                if gi is None:
                    problems.append(f"missing inverse for {g!r}")
                    continue
                if (self.compose_table.get((g, gi)) != self.identity.get(self.cod[g])
                        or self.compose_table.get((gi, g)) != self.identity.get(self.dom[g])):
                    problems.append(f"inverse law fails at {g!r}")
        if problems:
            raise ValidationFailure(problems)

    def _associativity_failure(self):
        """The first triple (g, h, k), in ``itertools.product`` order, with
        g∘h and h∘k composable where (g∘h)∘k and g∘(h∘k) are both in the
        table and differ, or None.  On the table T of morphism indices, m
        (their number) where a composition is undefined, the triples of
        each g are one array comparison of T[T[g, h], k] with T[g, T[h, k]]."""
        mors, m = self.morphisms, len(self.morphisms)
        index = {g: i for i, g in enumerate(mors)}
        T = np.full((m + 1, m + 1), m)
        for (g, h), gh in self.compose_table.items():
            if g in index and h in index and gh in index:
                T[index[g], index[h]] = index[gh]
        composable = np.array([[self.composable(g, h) for h in mors] for g in mors])
        for g in range(m):
            left, right = T[T[g, :m]][:, :m], T[g][T[:m, :m]]      # [h, k]
            bad = (composable[g][:, None] & composable & (left != right)
                   & (left < m) & (right < m))
            if bad.any():
                h, k = np.argwhere(bad)[0].tolist()
                return mors[g], mors[h], mors[k]
        return None

    def __repr__(self):
        return (f"FiniteCategory({self.name}: {len(self.objects)} objects, "
                f"{len(self.morphisms)} morphisms)")


# ---------------------------------------------------------------------------
# stock categories
# ---------------------------------------------------------------------------

def group_from_table(elements, table, identity, inverse, name="group"):
    """A group, as a one-object groupoid.  ``table[(g,h)] = gh``."""
    obj = ("*",)
    dom = {g: "*" for g in elements}
    cod = dict(dom)
    return FiniteCategory(obj, elements, dom, cod, table, {"*": identity},
                          inverse={g: inverse[g] for g in elements}, name=name)


def cyclic_group(n: int) -> FiniteCategory:
    _refuse_past_cap(f"Z{n}", n)
    els = tuple(range(n))
    table = {(a, b): (a + b) % n for a in els for b in els}
    inv = {a: (-a) % n for a in els}
    return group_from_table(els, table, 0, inv, name=f"Z{n}")


def abelian_group(orders) -> FiniteCategory:
    """Direct product of cyclic groups, elements are tuples."""
    orders = tuple(orders)
    els = tuple(itertools.product(*(range(n) for n in orders)))
    table = {(a, b): tuple((x + y) % n for x, y, n in zip(a, b, orders))
             for a in els for b in els}
    inv = {a: tuple((-x) % n for x, n in zip(a, orders)) for a in els}
    ident = tuple(0 for _ in orders)
    name = "x".join(f"Z{n}" for n in orders)
    return group_from_table(els, table, ident, inv, name=name)


def xor_group(nbits: int) -> FiniteCategory:
    """The elementary abelian 2-group on n bits: integers under XOR."""
    # 2^nbits is not formed past the cap, whatever nbits is
    _refuse_past_cap(f"xor:{nbits}", 2 ** min(nbits, MORPHISM_CAP.bit_length()))
    els = tuple(range(2 ** nbits))
    table = {(a, b): a ^ b for a in els for b in els}
    inv = {a: a for a in els}
    return group_from_table(els, table, 0, inv, name=f"xor:{nbits}")


def pair_groupoid(n: int) -> FiniteCategory:
    """Objects 0..n-1; morphisms (i,j): j -> i with (i,j)(j,k) = (i,k)."""
    _refuse_past_cap(f"pair:{n}", n * n)
    objs = tuple(range(n))
    mors = tuple((i, j) for i in range(n) for j in range(n))
    dom = {(i, j): j for (i, j) in mors}
    cod = {(i, j): i for (i, j) in mors}
    comp = {((i, j), (j2, k)): (i, k)
            for (i, j) in mors for (j2, k) in mors if j == j2}
    ident = {i: (i, i) for i in objs}
    inv = {(i, j): (j, i) for (i, j) in mors}
    return FiniteCategory(objs, mors, dom, cod, comp, ident, inverse=inv,
                          name=f"pair:{n}")


def trivial_group() -> FiniteCategory:
    return cyclic_group(1)
