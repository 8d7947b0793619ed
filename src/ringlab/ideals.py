"""Two-sided ideals, centralizers, invariance predicates and simplicity oracles.

"Ideal" always means two-sided ideal.  Ideals of a subring B of A are kept in
the coordinates of the ambient ring A (``of_subring`` records B); ideals of A
itself have ``of_subring=None``.

This module keeps the theory and reads no representation.  What depends on
how a ring is stored is asked of the spans of ``subgroups`` and of the rings
of ``rings``, which own it.

Every quantifier "for every ideal of B" reads :func:`_line_closures`, the
decision on the lines of B closed under its multiplications and a set of
maps.  Over F_p it decides first, at any size, by Norton's test on those
operators (:func:`linalg.irreducible_modp`), as :func:`is_simple` does for
a whole algebra, and walks lines only for a lattice, or for a witness when
it is read (:meth:`IdealBasis.deferred`).  Where the property sought is
stability under maps (G-, σ-δ- and conjugation-invariance), the first such
ideal is minimal, hence a closure, and :func:`first_stable_ideal` never
builds the lattice; past the cap, the test's submodule is its answer.
Other properties (A-invariance, meeting a subring in 0) read the lattice,
which :func:`enumerate_subring_ideals` joins from the closures: every ideal
is the join of the principal ideals of its elements, so the enumeration is
exhaustive on finite (or capped F_p) rings, and an irreducible B has the
lattice 0, B at any size.  Over Q neither runs; a positive simplicity
verdict comes only from a reduction mod p that is simple (see
:func:`is_simple`).  Every decided question answers with one
:class:`Verdict`: ``holds``, the witness, and ``decided_by``, the oracle
that decided it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace

from .errors import (BNotCommutative, CriterionDisagreement, InfiniteScalarField,
                     NotAInvariant, NotIdealAssociative, RingMismatch,
                     TooLarge)
from .rings import DEFAULT_ELEMENT_CAP, require_ring
from .subgroups import (AddSubgroup, additive_span, full_subgroup,
                        product_span, span_class, zero_subgroup)

DEFAULT_WITNESS_SAMPLES = 24
DEFAULT_SEED = 0xC0FFEE


class IdealBasis:
    """A two-sided ideal, canonically presented.

    ``span`` is an additively closed subgroup of ``ring`` that absorbs
    multiplication by every element of ``of_subring`` (or of the whole ring
    when ``of_subring`` is None).

    An ideal that a decision proves to exist, before anyone needs to see
    it, is made by :meth:`deferred`: its span is found on the first read
    and kept.  This is the one deferred-witness mechanism, for the
    witnesses of :func:`is_simple` and of :func:`first_stable_ideal`.
    """

    def __init__(self, ring, span: AddSubgroup, of_subring=None, check=True):
        self.ring = ring
        self._span = span
        self._find = None
        self.of_subring = of_subring
        if check:
            amb = of_subring.span if of_subring is not None else full_subgroup(ring)
            left = product_span(ring, amb, span)
            right = product_span(ring, span, amb)
            if not (span.contains_subgroup(left) and span.contains_subgroup(right)):
                raise RingMismatch("span is not an ideal")

    @classmethod
    def deferred(cls, ring, find, of_subring=None):
        """The ideal whose span ``find()`` returns, called on the first read
        of :attr:`span` (and of everything read through it), and only then.
        ``find`` must depend only on values captured when the ideal was
        decided; what it raises, the first read raises."""
        ideal = cls(ring, None, of_subring, check=False)
        ideal._find = find
        return ideal

    @property
    def span(self) -> AddSubgroup:
        if self._find is not None:
            self._span = self._find()
            self._find = None
        return self._span

    def contains(self, elt):
        return self.span.contains(elt)

    def spanning(self):
        return self.span.spanning()

    def is_zero(self):
        return self.span.is_zero()

    def is_full_in(self, subgroup: AddSubgroup):
        return self.span.contains_subgroup(subgroup) and subgroup.contains_subgroup(self.span)

    def measure(self):
        return self.span.measure()

    def key(self):
        return self.span.key()

    def __eq__(self, other):
        return isinstance(other, IdealBasis) and other.ring is self.ring and other.key() == self.key()

    def __hash__(self):
        return hash((id(self.ring), self.key()))

    def __repr__(self):
        return f"IdealBasis({self.span!r})"


class Subring:
    """An additively and multiplicatively closed subset of a ring."""

    def __init__(self, ring, span: AddSubgroup, check=True):
        self.ring = ring
        self.span = span
        if check:
            prod = product_span(ring, span, span)
            if not span.contains_subgroup(prod):
                raise RingMismatch("span is not multiplicatively closed")

    def contains(self, elt):
        return self.span.contains(elt)

    def spanning(self):
        return self.span.spanning()

    def measure(self):
        return self.span.measure()

    def is_commutative(self):
        """Do the spanning elements commute pairwise?  The span's
        ``products_commute``."""
        return self.span.products_commute()

    def as_ring(self):
        """The subring as a standalone Ring plus embed/project maps."""
        return self.span.as_ring()

    def __eq__(self, other):
        return isinstance(other, Subring) and other.ring is self.ring and other.span == self.span

    def __hash__(self):
        return hash((id(self.ring), self.span.key()))

    def __repr__(self):
        return f"Subring({self.span!r})"


def subring_closure(ring, gens) -> Subring:
    """Close a generating set under addition and internal multiplication."""
    span = additive_span(ring, list(gens))
    while not span.is_full():
        prod = product_span(ring, span, span)
        new = span.join(prod)
        if new == span:
            break
        span = new
    return Subring(ring, span, check=False)


def full_subring(ring) -> Subring:
    return Subring(ring, full_subgroup(ring), check=False)


# ---------------------------------------------------------------------------
# ideal closure
# ---------------------------------------------------------------------------

def ideal_closure(ring, gens) -> IdealBasis:
    """Smallest ideal of the ring containing ``gens``: :func:`row_ideal`
    of their data."""
    return row_ideal(ring, [g.data for g in gens])


def row_ideal(ring, rows) -> IdealBasis:
    """The ideal that the element data ``rows`` (coordinate rows of an
    algebra, closed in its field backend's ``closure``; indices of a table
    ring) generate: :func:`ideal_closure` with no Element made per row."""
    return IdealBasis(ring, span_class(ring).closure(ring, rows), check=False)


# ---------------------------------------------------------------------------
# ideal lattice and simplicity
# ---------------------------------------------------------------------------

def first_proper_line_ideal(ring, last=None):
    """The first proper principal ideal of a generator of the whole ring's
    ``line_seeds`` (a line of an F_p algebra, or an element of a table
    ring), each closed by :func:`principal_ideal`, as a span; None when
    every one is the whole ring.  This is the one walk over principal
    ideals.  With ``last``, a line generator of an F_p algebra, the walk
    ends after that line.  Raises InfiniteScalarField over Q."""
    if ring.size() is None:
        raise InfiniteScalarField("cannot enumerate ideals over Q")
    for g in full_subgroup(ring).line_seeds():
        span = principal_ideal(ring, ring.element(g)).span
        if not span.is_full():
            return span
        if g == last:
            break
    return None


def _line_witness(ring, last):
    """The span of :func:`first_proper_line_ideal`, up to ``last``, the
    line of the first row of Norton's submodule, of an algebra that Norton's
    test calls not simple; CriterionDisagreement when the walk finds no
    proper line."""
    sub = first_proper_line_ideal(ring, last)
    if sub is None:
        raise CriterionDisagreement("Norton's test and the line walk disagree")
    return sub


def principal_ideal(ring, elt) -> IdealBasis:
    return ideal_closure(ring, [elt])


def _line_closures(span, maps, cap, lattice=False):
    """The :class:`ringlab.linalg.Decision` on the ideals of B, the subring
    with the span ``span``, that every map sends into themselves: the
    additive subgroups of B that L_b and R_b (b in B) and the maps send
    into themselves.  ``maps`` send B into B: d×d matrices acting on rows
    (v ↦ v @ M), or index arrays for a table ring.

    It is the span's ``stable_closures``: Norton's test on those operators
    over F_p (:func:`linalg.irreducible_modp`), asked first, at any size,
    with one such ideal as an ambient span when it finds one, and undecided
    on a table ring.  ``close(seed, bound=None)`` is set when lines are to
    be walked, over ``span.line_seeds()`` (one generator per line of B, per
    cyclic subgroup of a table ring; the maps are additive): the smallest
    ideal of B that holds the seed and that every map sends into itself, as
    an ambient span, or None past ``bound`` members (dimensions).

    This is where a stable-ideal question is decided: by "norton" within
    the cap (a witness is then the walk's), by "norton-past-cap" when B has
    more than ``cap`` elements and no line is walked, and by "line-walk"
    when the test leaves it undecided.  Raises InfiniteScalarField over Q.
    Past the cap, a B that the test leaves undecided (or reducible, with
    ``lattice``, for a caller that needs every ideal) raises TooLarge.
    """
    if span.ring.size() is None:
        raise InfiniteScalarField("cannot enumerate ideals over Q")
    decision = span.stable_closures(maps)
    if decision.holds:
        return replace(decision, close=None)
    size = span.size()
    if size > cap:
        if decision.holds is None or lattice:
            raise TooLarge(f"{size} elements exceeds cap {cap}")
        return replace(decision, close=None, decided_by="norton-past-cap")
    if decision.holds is None:
        return replace(decision, decided_by="line-walk")
    return decision


def enumerate_subring_ideals(ring, B: Subring | None, cap=DEFAULT_ELEMENT_CAP):
    """Every ideal of B (of the whole ring when B is None), exactly once, in
    the ambient ring's coordinates and in (measure, key) order: the
    join-closure of the principal ideals of :func:`_line_closures`.  When
    Norton's test finds B irreducible under its multiplications, at any
    size, the lattice is 0 and B, and no line is walked; a reducible or
    undecided B over ``cap`` raises TooLarge, because its lattice needs the
    walk."""
    span = full_subgroup(ring) if B is None else B.span
    decision = _line_closures(span, [], cap, lattice=True)
    principal = [span] if decision.holds else map(decision.close, span.line_seeds())
    zero = zero_subgroup(ring)
    lattice = {zero.key(): zero}
    # the joins of the principal ideals so far are closed under joins, so one
    # joined with all of them adds every join it takes part in, and one that
    # is already among them adds none; the sum of two ideals is additively
    # closed and absorbing, so a plain join (no re-closure) suffices
    for s in principal:
        if s.key() not in lattice:
            for t in list(lattice.values()):
                j = s.join(t)
                lattice.setdefault(j.key(), j)
    ideals = [IdealBasis(ring, s, of_subring=B, check=False) for s in lattice.values()]
    ideals.sort(key=lambda i: (i.measure(), i.key()))
    return ideals


def enumerate_ideals(ring, cap=DEFAULT_ELEMENT_CAP):
    """Every two-sided ideal of the ring, exactly once, in (measure, key)
    order: :func:`enumerate_subring_ideals` with B the whole ring."""
    return enumerate_subring_ideals(ring, None, cap)


@dataclass(slots=True)
class Verdict:
    """The answer to a decided question, and what decided it: simplicity
    (:func:`is_simple`), a nontrivial ideal of B stable under maps
    (:func:`first_stable_ideal`, behind G-, σ-δ- and conjugation-
    simplicity), A-simplicity (:func:`is_A_simple`), a degree map's
    validity and the ideal intersection property (``gradings``).

    ``holds`` is True, False, or None when undecided.  A False has a
    ``witness``: a proper nonzero ideal, or what the question names.  One
    that a decision proved before it was found is an
    :meth:`IdealBasis.deferred`; reading :attr:`witness` finds it (so a
    disagreement between Norton's test and the line walk is raised there),
    while ``deferred_witness`` holds it unfound, for a report that may
    never be printed.  ``reason`` is "R*R = 0", "reduction mod q" or why
    the verdict is undecided.  ``decided_by``, set for :func:`is_simple`
    and the stable-ideal questions and never printed, names the oracle:
    "products-vanish", "norton" (within the cap, where a witness is the
    line walk's), "norton-past-cap" (whose submodule is the witness),
    "reduction-mod-q", "line-walk" or "witness-search"; only the decision
    sites write it (``tests/test_verdict_guard.py``).  ``names`` are the
    statuses of a True and a False; an undecided verdict is
    "Inconclusive"."""

    holds: bool | None
    deferred_witness: object = None
    reason: str | None = None
    decided_by: str | None = None
    names: tuple = ("Simple", "NotSimple")

    @property
    def witness(self):
        if isinstance(self.deferred_witness, IdealBasis):
            self.deferred_witness.span        # a deferred witness is found here
        return self.deferred_witness

    @property
    def status(self):
        return "Inconclusive" if self.holds is None else self.names[0 if self.holds else 1]

    def __repr__(self):
        if self.holds is None:
            return f"Inconclusive({self.reason})"
        return self.status if self.holds else f"{self.status}({self.witness!r})"


def is_simple(ring, cap=DEFAULT_ELEMENT_CAP, seed=DEFAULT_SEED,
              samples=DEFAULT_WITNESS_SAMPLES) -> Verdict:
    """Simplicity oracle: a :class:`Verdict` named "Simple"/"NotSimple"
    ("Inconclusive" when undecided), whose ``decided_by`` says which of the
    steps below decided it.

    R·R = 0 is NotSimple ("products-vanish"), with a proper 1-generator
    subgroup as the witness, or None when there is no proper nonzero ideal
    (dimension 1, or a table ring of prime order or of order 1).  Otherwise
    an algebra asks its field backend's ``simplicity``, a
    :class:`ringlab.linalg.Decision`, at any size: over F_p Norton's
    irreducibility test (:func:`ringlab.linalg.norton_modp`, "norton"), the
    one F_p decision, enumerates nothing, and is undecided only when none
    of its trials decides; over Q a reduction modulo one of
    ``linalg.LIFT_PRIMES`` that is simple proves it ("reduction-mod-q"),
    and the verdict's reason names the prime, "reduction mod q".  A table
    ring has no such decision.

    A finite ring (a table ring, whose elements are in memory already, or
    an F_p algebra of at most ``cap`` elements) that the decision calls not
    simple gets the principal ideal of its first proper line as the witness
    (:func:`first_proper_line_ideal`), found on the first read of
    ``witness``: the decision proves the verdict, and Norton's submodule
    bounds the walk by the line of its first rref row, whose principal
    ideal lies inside it.  A table ring, or an undecided F_p algebra, is
    walked at once ("line-walk"): Simple iff every nonzero principal ideal
    is the whole ring.

    Over the cap, a NotSimple has Norton's submodule as its witness
    ("norton-past-cap").  Everything else (Q without a simple reduction,
    an F_p algebra that no trial decides) goes to a witness search (basis
    elements plus ``samples`` seeded pseudorandom elements,
    "witness-search"), where a proper nonzero principal ideal refutes; a
    failed search answers Inconclusive, never Simple.

    Verdicts are cached on the (immutable) ring per (cap, seed, samples).
    """
    cache = getattr(require_ring(ring), "_simple_cache", None)
    if cache is None:
        cache = ring._simple_cache = {}
    key = (cap, seed, samples)
    if key in cache:
        return cache[key]
    verdict = _is_simple_uncached(ring, cap, seed, samples)
    cache[key] = verdict
    return verdict


def _is_simple_uncached(ring, cap, seed, samples) -> Verdict:
    if ring.products_vanish():
        # R·R = 0: every additive subgroup is an ideal: the first proper one
        # that a spanning element generates, or None when there is none
        spans = (additive_span(ring, [v]) for v in ring.spanning_elements() if not v.is_zero())
        sub = next((sub for sub in spans if not sub.is_full()), None)
        return Verdict(False, None if sub is None else IdealBasis(ring, sub, check=False),
                       reason="R*R = 0", decided_by="products-vanish")
    decision = ring.simplicity()
    if decision.holds:
        return Verdict(True, reason=decision.reason, decided_by=decision.decided_by)
    if ring.is_walked(cap):
        if decision.holds is False:
            # Norton's test proves NotSimple, so the walk waits for a
            # reader; the line of the submodule's first row is proper
            last = ring.F.coords(decision.submodule[0][0])
            return Verdict(False, IdealBasis.deferred(ring, lambda: _line_witness(ring, last)),
                           decided_by=decision.decided_by)
        sub = first_proper_line_ideal(ring)
        return Verdict(sub is None, None if sub is None else IdealBasis(ring, sub, check=False),
                       decided_by="line-walk")
    if decision.submodule is not None:
        # an ideal already, in a span's own form: (rref basis, pivots)
        return Verdict(False, IdealBasis(ring, span_class(ring)(ring, *decision.submodule),
                                         check=False), decided_by="norton-past-cap")
    # witness search, on an algebra: a table ring has returned above.  The
    # seeded candidates are drawn lazily, because most searches stop at
    # their first candidate
    rng = random.Random(seed)
    candidates = itertools.chain(
        ring.spanning_elements(),
        (ring.element(ring.F.random_coords(rng, ring.dim)) for _ in range(samples)))
    for v in candidates:
        if v.is_zero():
            continue
        ib = principal_ideal(ring, v)
        if not ib.span.is_full():
            return Verdict(False, ib, decided_by="witness-search")
    return Verdict(None, reason=decision.reason or f"size {ring.size()} exceeds cap {cap}")


# ---------------------------------------------------------------------------
# centralizers
# ---------------------------------------------------------------------------

def centralizer(ring, gens_of_b) -> Subring:
    """C_A(B): everything commuting with B.  ``gens_of_b`` is B as a
    :class:`Subring`, or elements that are closed into B first.  x commutes
    with B iff x commutes with B's additive spanning set: its span's
    ``centralizer``, which over F_p shares one contraction with the span's
    ``products`` (:meth:`ringlab.subgroups.Subspace.centralizer`)."""
    B = (gens_of_b if isinstance(gens_of_b, Subring)
         else subring_closure(ring, list(gens_of_b)))
    return Subring(require_ring(ring), B.span.centralizer(), check=False)


def center(ring) -> Subring:
    return centralizer(ring, require_ring(ring).spanning_elements())


def is_maximal_commutative(ring, B: Subring) -> bool:
    if not B.is_commutative():
        raise BNotCommutative("B is not commutative")
    return centralizer(ring, B).span == B.span


# ---------------------------------------------------------------------------
# invariance and associativity predicates
# ---------------------------------------------------------------------------

def is_A_invariant(ring, B: Subring, I: IdealBasis) -> bool:
    """AI ⊆ IA, both computed as additive spans inside the ambient ring."""
    full = full_subgroup(ring)
    AI = product_span(ring, full, I.span)
    IA = product_span(ring, I.span, full)
    return IA.contains_subgroup(AI)


def is_A_simple(ring, B: Subring, cap=DEFAULT_ELEMENT_CAP, ideals=None) -> Verdict:
    """No non-trivial ideal of B is A-invariant: a :class:`Verdict` named
    "ASimple"/"NotASimple", whose witness is the first A-invariant one.
    ``ideals`` is the ideal list of B when the caller already has it."""
    if ideals is None:
        ideals = enumerate_subring_ideals(ring, B, cap=cap)
    I = first_invariant_ideal(ideals, lambda I: is_A_invariant(ring, B, I))
    return Verdict(I is None, I, names=("ASimple", "NotASimple"))


def first_invariant_ideal(ideals, invariant):
    """The first ideal I in ``ideals`` with 0 ≠ I ≠ B for which
    ``invariant(I)`` holds, or None.  B is the ring the ideal belongs to:
    ``I.of_subring``, or the whole ring when that is None.

    This is the quantifier behind A-simplicity ("B has no non-trivial
    A-invariant ideal", :func:`is_A_simple`).  AI ⊆ IA is not a stability
    condition under maps (it is not closed under intersection), so it needs
    the lattice.  Invariance under maps does not: G-invariance for a crossed
    product, σ-δ-invariance for an Ore extension and conjugation-stability
    for a Cayley–Dickson doubling use :func:`first_stable_ideal`.
    """
    for I in ideals:
        B = I.of_subring
        if I.is_zero() or (I.span.is_full() if B is None else I.is_full_in(B.span)):
            continue
        if invariant(I):
            return I
    return None


def first_stable_ideal(ring, B: Subring | None, maps, cap=DEFAULT_ELEMENT_CAP) -> Verdict:
    """Does B (the whole ring when None) have an ideal I with 0 ≠ I ≠ B
    that every map sends into I?  A :class:`Verdict` named
    "NoStableIdeal"/"StableIdeal", decided by :func:`_line_closures`, whose
    witness is the first such I in the (measure, key) order of
    :func:`enumerate_subring_ideals`.

    When Norton's test finds no such ideal, at any size, the verdict holds
    and no line is walked.  Otherwise the lattice is never built: the
    witness is the least closure of a line.  A stable ideal of least
    measure is minimal, so each of its nonzero elements generates it, and
    it is the least of the closures and any other stable ideal, such as
    the one the test found, which the walk starts from.  A closure that
    outgrows the best one so far is abandoned.

    When the test found such an ideal, the walk waits for a reader: the
    witness is an :meth:`IdealBasis.deferred`, found on its first read (a
    caller that reads only ``holds`` walks no line).  An undecided B (a
    table ring, or a stack the test leaves open) is walked at once.  Over
    the cap there is no walk, and the ideal the test found, which need not
    be the first, is the witness.  Raises what :func:`_line_closures`
    raises.
    """
    span = full_subgroup(ring) if B is None else B.span
    decision = _line_closures(span, maps, cap)
    witness = None
    if decision.holds is None:
        best = _least_closure(span, None, span.line_seeds(), decision.close)
        if best is not None:
            witness = IdealBasis(ring, best, of_subring=B, check=False)
    elif decision.holds is False and decision.close is None:
        witness = IdealBasis(ring, decision.submodule, of_subring=B, check=False)
    elif decision.holds is False:
        witness = IdealBasis.deferred(ring, lambda: _least_closure(
            span, decision.submodule, span.line_seeds(), decision.close), of_subring=B)
    return Verdict(witness is None, witness, decided_by=decision.decided_by,
                   names=("NoStableIdeal", "StableIdeal"))


def _least_closure(span, best, seeds, close):
    """The least of ``best`` (a stable ideal of B, or None) and the
    closures of ``seeds`` that are not all of B (``span``), in (measure,
    key) order; None when there is none."""
    # past the bound a closure is all of B, or larger than the best one
    bound = span.measure() - 1 if best is None else best.measure()
    for seed in seeds:
        sub = close(seed, bound)
        if sub is not None and (
                best is None or (sub.measure(), sub.key()) < (best.measure(), best.key())):
            best, bound = sub, sub.measure()
    return best


def _parenthesizations(factors, ring, memo=None):
    """All full parenthesizations of a word of spans, evaluated as spans.

    ``memo`` is a dict that one check shares across all the words it
    compares.  It holds each product, keyed by its factors' ``key()`` pair,
    and each sub-word's evaluations, keyed by its factors' keys, so a
    product or sub-word that several splits or words share is evaluated
    once.  Keys, not ids: the spans of one ring are canonical, so equal keys
    are equal spans, wherever they were computed.
    """
    if len(factors) == 1:
        return [factors[0]]
    if memo is None:
        memo = {}
    word = ("word",) + tuple(f.key() for f in factors)
    if word not in memo:
        out = []
        for split in range(1, len(factors)):
            for left in _parenthesizations(factors[:split], ring, memo):
                for right in _parenthesizations(factors[split:], ring, memo):
                    product = ("product", left.key(), right.key())
                    if product not in memo:
                        memo[product] = product_span(ring, left, right)
                    out.append(memo[product])
        memo[word] = out
    return memo[word]


def check_ideal_associativity(ring, B: Subring, I: IdealBasis, copies=2) -> bool:
    """Does I associate with up to ``copies`` copies of the ambient ring?

    copies=2 checks (IA)A=I(AA), (AI)A=A(IA), (AA)I=A(AI); copies=3 compares
    every parenthesization pair of each word with one I and three A factors.
    """
    if copies < 2 or copies > 3:
        raise ValueError("copies must be 2 or 3")
    A = full_subgroup(ring)
    words = []
    for ncopies in range(2, copies + 1):
        for pos in range(ncopies + 1):
            word = [A] * ncopies
            word.insert(pos, I.span)
            words.append(word)
    memo = {}
    for word in words:
        evals = _parenthesizations(word, ring, memo)
        first = evals[0]
        for other in evals[1:]:
            if other != first:
                return False
    return True


def identity_property(I: IdealBasis, B: Subring, side="left") -> bool:
    """BX = X (left) or XB = X (right) for X = I."""
    ring = I.ring
    if side == "left":
        prod = product_span(ring, B.span, I.span)
    elif side == "right":
        prod = product_span(ring, I.span, B.span)
    else:
        raise ValueError("side must be 'left' or 'right'")
    return prod == I.span


def apply_i_and_p(ring, B: Subring, I: IdealBasis):
    """The maps i(I) = IA into ideals of A and p(Y) = B ∩ Y back.

    Requires I to be A-invariant and the extension to associate at two
    copies; asserts that IA really is an ideal of A.
    """
    if not is_A_invariant(ring, B, I):
        raise NotAInvariant("I is not A-invariant")
    if not check_ideal_associativity(ring, B, I, copies=2):
        raise NotIdealAssociative("extension is not ideal associative at two copies")
    A = full_subgroup(ring)
    IA = product_span(ring, I.span, A)
    ideal_IA = IdealBasis(ring, IA, check=True)  # asserts absorption
    back = IA.intersect(B.span)
    return ideal_IA, IdealBasis(ring, back, of_subring=B, check=False)
