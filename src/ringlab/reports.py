"""Report assembly and serialization.

Reports are deterministic: given the same recipe, seed, caps and version the
serialized bytes are identical across runs.  Wall-clock timings are therefore
null unless explicitly requested.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dfield

from .errors import InfiniteScalarField, RinglabError, TooLarge
from .gradings import grading_flags, support_degree_map, verify_degree_map
from .ideals import (DEFAULT_ELEMENT_CAP, DEFAULT_SEED, center,
                     enumerate_subring_ideals, is_A_invariant, is_simple)
from .rings import Element, ring_of

VERSION = "0.1.0"
# the largest table size (or dimension) that ``table_dump`` prints unforced
DUMP_THRESHOLD = 64
# the named checks of ``run_checks``
CHECK_NAMES = ("simplicity", "center", "invariance", "grading", "degree-map")


def element_json(e: Element):
    if e.ring.is_table:
        return int(e.data)
    return e.ring.F.json(e.data)


def ideal_json(ib):
    return {"spanning": [element_json(e) for e in ib.spanning()],
            "measure": ib.measure()}


def simplicity_json(verdict):
    if verdict.holds:
        return "Simple"
    if verdict.holds is False:
        return {"NotSimple": {"witness": ideal_json(verdict.witness)
                              if verdict.witness else None,
                              "reason": verdict.reason}}
    return {"Inconclusive": verdict.reason}


@dataclass
class Report:
    recipe_digest: str
    seed: int
    caps: dict
    results: dict = dfield(default_factory=dict)
    certificates: list = dfield(default_factory=list)
    timings_ms: dict | None = None
    version: str = VERSION

    def to_json(self):
        return {
            "version": self.version,
            "recipe_digest": self.recipe_digest,
            "results": self.results,
            "certificates": self.certificates,
            "seed": self.seed,
            "caps": self.caps,
            "timings_ms": self.timings_ms,
        }

    def serialize(self, fmt="json"):
        doc = self.to_json()
        if fmt == "json":
            return json.dumps(doc, sort_keys=True, indent=2) + "\n"
        lines = [f"ringlab report (version {self.version})",
                 f"recipe: {self.recipe_digest}",
                 f"seed: {self.seed}  caps: {self.caps}"]
        for name, value in sorted(self.results.items()):
            lines.append(f"  {name}: {json.dumps(value, sort_keys=True)}")
        for cert in self.certificates:
            lines.append(f"  certificate[{cert['instance']}] {cert['pipeline']}: "
                         f"verdict={cert['verdict']} oracle={cert['oracle']}")
            for p in cert["premises"]:
                lines.append(f"    [{p['status']}] {p['name']}")
        if self.timings_ms is not None:
            lines.append(f"timings_ms: {json.dumps(self.timings_ms, sort_keys=True)}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# named checks
# ---------------------------------------------------------------------------

def known_checks(names):
    """``names``, when there is at least one and each is in
    ``CHECK_NAMES``; else RinglabError, with a message that names the
    known checks."""
    unknown = [n for n in names if n not in CHECK_NAMES]
    if unknown or not names:
        what = f"unknown check {unknown[0]!r}" if unknown else "no check named"
        raise RinglabError(f"{what}; the checks are {', '.join(CHECK_NAMES)}")
    return names


def run_checks(built, names, cap=DEFAULT_ELEMENT_CAP, seed=DEFAULT_SEED):
    """Run the named predicates on a built object.  Returns the results dict
    and the names of the checks that raised TooLarge or InfiniteScalarField
    (a check that needs more elements than the cap, or finitely many): each
    of those records ``{"error": message}``, and the remaining checks still
    run.  A name outside ``CHECK_NAMES`` raises RinglabError before any
    check runs (:func:`known_checks`)."""
    results, failed = {}, []
    for name in known_checks(names):
        try:
            results[name] = _run_check(built, name, cap, seed)
        except (TooLarge, InfiniteScalarField) as exc:
            results[name] = {"error": str(exc)}
            failed.append(name)
    return results, failed


def _run_check(built, name, cap, seed):
    ring = ring_of(built)
    grading = getattr(built, "grading", None)
    if name in ("simplicity", "center") and ring is None:
        return {"error": "no ring to check"}
    if name == "simplicity":
        return simplicity_json(is_simple(ring, cap=cap, seed=seed))
    if name == "center":
        return {"measure": center(ring).measure(),
                "kind": "dimension" if ring.is_algebra else "size"}
    if name == "grading":
        if grading is None:
            return {"error": "instance carries no grading"}
        f = grading_flags(grading)
        return {"locally_unital": f.locally_unital,
                "strongly_graded": f.strongly_graded,
                "left_nondegenerate": f.left_nondegenerate,
                "right_nondegenerate": f.right_nondegenerate}
    if name == "invariance":
        if grading is None or not hasattr(built, "system"):
            return {"error": "invariance needs a crossed product"}
        from .constructions.crossed import is_G_invariant
        B = built.base_subring()
        rows, agree = [], True
        for I in enumerate_subring_ideals(ring, B, cap=cap):
            g_inv = is_G_invariant(built, I)
            a_inv = is_A_invariant(ring, B, I)
            agree = agree and (g_inv == a_inv)
            rows.append({"ideal": ideal_json(I), "action_invariant": g_inv,
                         "ring_invariant": a_inv})
        return {"ideals": rows, "equivalence_holds": agree}
    if name == "degree-map":
        if grading is None:
            return {"error": "degree map check needs a grading"}
        verdict = verify_degree_map(support_degree_map(grading, "center_of_A0"), cap=cap)
        return {"status": verdict.status,
                "witness": repr(verdict.witness) if verdict.witness else None}


def build_summary(built):
    ring = ring_of(built)
    if ring is None and hasattr(built, "rings"):       # a tower
        return {"kind": "cayley_tower",
                "dimensions": [r.dim for r in built.rings],
                "notes": list(getattr(built, "notes", ()))}
    if ring is None and hasattr(built, "base"):        # ore data
        props = built.base.probe_properties()
        return {"kind": "ore_extension",
                "base_size": props.size,
                "base_associative": props.associative,
                "base_unital": props.unital}
    props = ring.probe_properties()
    out = {"kind": getattr(built, "kind_tag", "ring"),
           "size": props.size,
           "associative": props.associative,
           "commutative": props.commutative,
           "unital": props.unital}
    if ring.is_algebra:
        out["dimension"] = ring.dim
        out["field"] = ring.F.name
    if getattr(built, "notes", ()):
        out["notes"] = list(built.notes)
    flags = getattr(built, "minimal", None)
    if flags is not None:
        out["minimal"] = built.minimal
        out["faithful"] = built.faithful
    return out


def table_dump(built, force=False):
    ring = ring_of(built)
    if ring is None:
        return {"error": "no ring to dump"}
    size = ring.size()
    if ring.is_table:
        if size > DUMP_THRESHOLD and not force:
            return {"error": f"table of {size} elements exceeds the dump "
                             f"threshold {DUMP_THRESHOLD}; pass --force to override"}
        return {"add": ring.add_table.tolist(), "mul": ring.mul_table.tolist(),
                "zero": ring.zero_index}
    if ring.dim > DUMP_THRESHOLD and not force:
        return {"error": f"{ring.dim} basis elements exceed the dump threshold "
                         f"{DUMP_THRESHOLD}; pass --force to override"}
    basis = ring.spanning_elements()
    return {"basis_products": [[element_json(a * b) for b in basis] for a in basis]}
