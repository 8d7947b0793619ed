"""The built-in instance corpus: one construction of every kind, exercised by
both a certificate pipeline and the simplicity oracle, with the two verdicts
required to agree wherever both exist.

An instance is only an id and a builder.  Its pipeline is the one
:func:`ringlab.certify.certify_built` picks for what the builder returns, as
for ``ringlab certify``, and its ring is :func:`ringlab.rings.ring_of` of it;
the one exception is a level of a Cayley tower, which names the level.

Everything here is deterministic for a fixed seed; the corpus is what the
acceptance checks and the `corpus` command run.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

import numpy as np

from .categories import cyclic_group
from .certify import Certificate, certify_built
from .constructions import (CrossedProduct, RingMap, bales_twisted_ring,
                            cayley_tower, dynamics_skew_group_ring,
                            matrix_ring, skew_group_ring)
from .gradings import GradedRing, validate_grading
from .ideals import DEFAULT_ELEMENT_CAP, DEFAULT_SEED, is_simple
from .ore import SigmaDerivationData
from .rings import (field_algebra, full_matrix_algebra, gf_extension,
                    ring_of, truncated_polynomial_ring, zmod_ring)
from .linalg import GF, QQ
from .subgroups import subspace_from_vectors


# ---------------------------------------------------------------------------
# builders (all deterministic)
# ---------------------------------------------------------------------------

def build_f4_frobenius_ring():
    f4, frob = gf_extension(4)
    return skew_group_ring(f4, cyclic_group(2),
                           {0: RingMap.identity(f4), 1: RingMap(f4, f4, frob)},
                           name="F4 x Z2 (frobenius)")


def build_group_algebra(p):
    b = field_algebra(GF(p))
    return skew_group_ring(b, cyclic_group(2),
                           {g: RingMap.identity(b) for g in (0, 1)},
                           name=f"F{p}[Z2]")


def build_m3f2_block_graded():
    m3 = full_matrix_algebra(3, GF(2))

    def unit(i, j):
        v = [0] * 9
        v[i * 3 + j] = 1
        return v

    a0 = subspace_from_vectors(m3, [unit(0, 0), unit(0, 1), unit(1, 0),
                                    unit(1, 1), unit(2, 2)])
    a1 = subspace_from_vectors(m3, [unit(0, 2), unit(1, 2), unit(2, 0), unit(2, 1)])
    return GradedRing(m3, validate_grading(m3, cyclic_group(2), {0: a0, 1: a1}))


def build_rotation_dynamics():
    return dynamics_skew_group_ring(3, cyclic_group(3),
                                    {0: (0, 1, 2), 1: (1, 2, 0), 2: (2, 0, 1)}, GF(2))


def build_swap_dynamics():
    return dynamics_skew_group_ring(2, cyclic_group(2), {0: (0, 1), 1: (1, 0)}, GF(3))


def build_nonfaithful_dynamics():
    return dynamics_skew_group_ring(2, cyclic_group(4),
                                    {0: (0, 1), 1: (1, 0), 2: (0, 1), 3: (1, 0)}, GF(3))


def build_nonminimal_dynamics():
    return dynamics_skew_group_ring(3, cyclic_group(2),
                                    {0: (0, 1, 2), 1: (1, 0, 2)}, GF(2))


def build_point_dynamics():
    return dynamics_skew_group_ring(1, cyclic_group(1), {0: (0,)}, GF(5))


def build_twisted_matrix_f3():
    b = field_algebra(GF(3))
    two = b.scalar_mul(2, b.probe_properties().unit)
    return matrix_ring(2, b, alphas={(0, 1, 0): two}, name="twisted M2(F3)")


_TOWER_Q = {}


def tower_q(levels=4):
    if levels not in _TOWER_Q:
        _TOWER_Q[levels] = cayley_tower(QQ, levels)
    return _TOWER_Q[levels]


# ore corpus: (name, data builder)

def _ddy_data(p, k):
    b = truncated_polynomial_ring(p, k)
    m = np.zeros((k, k), dtype=np.int64)
    for i in range(1, k):
        m[i, i - 1] = i
    return SigmaDerivationData(b, RingMap.identity(b), RingMap(b, b, m))


def build_ore_f2():
    return _ddy_data(2, 2)


def build_ore_f3():
    return _ddy_data(3, 3)


def build_ore_f5():
    return _ddy_data(5, 5)


def build_ore_f4_frobenius():
    f4, frob = gf_extension(4)
    zero = np.zeros((2, 2), dtype=np.int64)
    return SigmaDerivationData(f4, RingMap(f4, f4, frob),
                               RingMap(f4, f4, zero))


def build_ore_m2f2_inner():
    m2 = full_matrix_algebra(2, GF(2))
    e12 = m2.element([0, 1, 0, 0])
    d = m2.dim
    m = np.zeros((d, d), dtype=np.int64)
    for i in range(d):
        b = m2.basis_element(i)
        m[i, :] = (e12 * b - b * e12).data
    return SigmaDerivationData(m2, RingMap.identity(m2), RingMap(m2, m2, m))


def build_ore_z4():
    z4 = zmod_ring(4)
    ident = list(range(4))
    return SigmaDerivationData(z4, RingMap(z4, z4, ident),
                               RingMap(z4, z4, [0, 0, 0, 0]))


ORE_CORPUS = [
    ("ore/F2[y]-ddy", build_ore_f2),
    ("ore/F3[y]-ddy", build_ore_f3),
    ("ore/F5[y]-ddy", build_ore_f5),
    ("ore/F4-frobenius", build_ore_f4_frobenius),
    ("ore/M2(F2)-inner", build_ore_m2f2_inner),
    ("ore/Z4-trivial", build_ore_z4),
]


# ---------------------------------------------------------------------------
# the ring corpus
# ---------------------------------------------------------------------------

_BUILT = {}


@dataclass
class CorpusInstance:
    id: str
    builder: object                  # () -> built object
    level: int | None = None         # of a Cayley tower: the level's ring

    def build(self):
        # corpus objects are immutable; build once per process
        if self.id not in _BUILT:
            _BUILT[self.id] = self.builder()
        return _BUILT[self.id]

    def ring(self, built):
        return ring_of(built) if self.level is None else built.rings[self.level]

    def certificate(self, built, cap, seed):
        """The instance's certificate from its built object's pipeline, or None."""
        certs = certify_built(built, cap=cap, seed=seed, instance=self.id)
        if self.level is not None:
            return certs[self.level - 1]
        return certs[0] if certs else None


def corpus_instances():
    """The built-in corpus, covering every construction kind."""
    out = [
        CorpusInstance("table/Z4", lambda: zmod_ring(4)),
        CorpusInstance("table/Z6", lambda: zmod_ring(6)),
        CorpusInstance("dynamics/point-F5", build_point_dynamics),
        CorpusInstance("matrix/M2(F2)", lambda: matrix_ring(2, field_algebra(GF(2)))),
        CorpusInstance("matrix/M2(F3)", lambda: matrix_ring(2, field_algebra(GF(3)))),
        CorpusInstance("matrix/M2(Z4)", lambda: matrix_ring(2, zmod_ring(4))),
        CorpusInstance("matrix/M2(F3)-twisted", build_twisted_matrix_f3),
        CorpusInstance("graded/M3(F2)-blocks", build_m3f2_block_graded),
        CorpusInstance("crossed/F4xZ2-frobenius", build_f4_frobenius_ring),
        CorpusInstance("crossed/F2[Z2]", lambda: build_group_algebra(2)),
        CorpusInstance("crossed/F3[Z2]", lambda: build_group_algebra(3)),
        CorpusInstance("dynamics/rot3-F2", build_rotation_dynamics),
        CorpusInstance("dynamics/swap2-F3", build_swap_dynamics),
        CorpusInstance("dynamics/nonfaithful-Z4", build_nonfaithful_dynamics),
        CorpusInstance("dynamics/nonminimal-Z2", build_nonminimal_dynamics),
        CorpusInstance("twisted/H-F3", lambda: bales_twisted_ring(GF(3), 2)),
        CorpusInstance("twisted/O-F3", lambda: bales_twisted_ring(GF(3), 3)),
        CorpusInstance("twisted/bales-char2", lambda: bales_twisted_ring(GF(2), 2)),
    ]
    for level, name in ((1, "C"), (2, "H"), (3, "O"), (4, "S")):
        out.append(CorpusInstance(f"doubling/{name}-Q", lambda: tower_q(4), level))
    return out


@dataclass
class CorpusEntry:
    instance: str
    pipeline: str | None
    pipeline_verdict: str | None
    oracle_verdict: str
    agreement: str                   # "agrees" | "disagrees" | "unavailable"
    certificate: Certificate | None

    def to_json(self):
        return {
            "instance": self.instance,
            "pipeline": self.pipeline,
            "pipeline_verdict": self.pipeline_verdict,
            "oracle_verdict": self.oracle_verdict,
            "agreement": self.agreement,
            "certificate": self.certificate.to_json() if self.certificate else None,
        }


@dataclass
class CorpusReport:
    seed: int
    cap: int
    entries: list = dfield(default_factory=list)

    @property
    def disagreements(self):
        return [e for e in self.entries if e.agreement == "disagrees"]

    @property
    def ok(self):
        return not self.disagreements

    def to_json(self):
        return {
            "seed": self.seed,
            "cap": self.cap,
            "entries": [e.to_json() for e in self.entries],
            "disagreements": len(self.disagreements),
        }


def cross_check_corpus(cap=DEFAULT_ELEMENT_CAP, seed=DEFAULT_SEED) -> CorpusReport:
    """Run every corpus instance through its pipeline and the oracle; the two
    verdicts must agree wherever both exist.  An entry's agreement is its
    certificate's ``oracle``, which :func:`ringlab.certify._oracle_cross_check`
    sets by its one rule ("unavailable" without a certificate)."""
    report = CorpusReport(seed=seed, cap=cap)
    for inst in corpus_instances():
        built = inst.build()
        ring = inst.ring(built)
        oracle = is_simple(ring, cap=cap, seed=seed)
        cert = inst.certificate(built, cap, seed)
        report.entries.append(CorpusEntry(
            inst.id, cert.pipeline if cert else None, cert.verdict if cert else None,
            oracle.status, cert.oracle if cert else "unavailable", cert))
    return report


def graded_corpus(only_crossed=False):
    """(id, built) for the corpus instances that build a graded ring: every
    one, or only the crossed products when ``only_crossed`` is True."""
    kind = CrossedProduct if only_crossed else GradedRing
    built = [(inst.id, inst.build()) for inst in corpus_instances()]
    return [(name, b) for name, b in built if isinstance(b, kind)]
