"""The three benchmark workloads and their correctness gates.

Each workload has four parts, all run inside one fresh worker interpreter:

* ``load(bench_dir, seed)`` reads the inputs (part of set-up);
* ``run(inputs, seed)`` calls ringlab's public API (the timed part);
* ``check(result)`` compares the answers with the expected mathematical
  verdicts below and returns an :class:`Outcome`;
* ``entry`` names the public function the workload enters ringlab through,
  used by the tracer for ``trace.entry_self_ratio``.

The gates compare verdicts, never output bytes, so a later change that
decides more (an undecided item becoming decided) is not counted as a
failure.  A wrong verdict, a pipeline/oracle disagreement, an exception or
an unexpected exit code is a failure; an undecided item only lowers
``decided_ratio``.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field

DECIDED = ("Simple", "NotSimple", "SigmaDeltaSimple", "NotSigmaDeltaSimple")


@dataclass
class Outcome:
    """What one timed run got right.  ``attempted``/``failed`` count
    operations; ``items``/``decided``/``crosschecked`` count verdicts."""
    attempted: int
    failed: int = 0
    items: int = 0
    decided: int = 0
    crosschecked: int = 0
    problems: list = field(default_factory=list)

    def fail(self, what):
        self.failed += 1
        self.problems.append(what)


# ---------------------------------------------------------------------------
# corpus: cross_check_corpus() over the built-in instances
# ---------------------------------------------------------------------------

# The simplicity of every corpus ring, as a mathematical fact.  Entries that
# no pipeline decides today (the two tables, bales-char2) and those the Q
# oracle cannot decide (the doublings) still carry their true answer.
CORPUS_EXPECTED = {
    "table/Z4": "NotSimple",
    "table/Z6": "NotSimple",
    "dynamics/point-F5": "Simple",
    "matrix/M2(F2)": "Simple",
    "matrix/M2(F3)": "Simple",
    "matrix/M2(Z4)": "NotSimple",
    "matrix/M2(F3)-twisted": "Simple",
    "graded/M3(F2)-blocks": "Simple",
    "crossed/F4xZ2-frobenius": "Simple",
    "crossed/F2[Z2]": "NotSimple",
    "crossed/F3[Z2]": "NotSimple",
    "dynamics/rot3-F2": "Simple",
    "dynamics/swap2-F3": "Simple",
    "dynamics/nonfaithful-Z4": "NotSimple",
    "dynamics/nonminimal-Z2": "NotSimple",
    "twisted/H-F3": "Simple",
    "twisted/O-F3": "Simple",
    "twisted/bales-char2": "NotSimple",
    "doubling/C-Q": "Simple",
    "doubling/H-Q": "Simple",
    "doubling/O-Q": "Simple",
    "doubling/S-Q": "Simple",
}


def corpus_load(bench_dir, seed):
    return None


def corpus_run(inputs, seed):
    from ringlab.corpus import cross_check_corpus
    report = cross_check_corpus(seed=seed)
    return [(e.instance, e.pipeline_verdict, e.oracle_verdict, e.agreement)
            for e in report.entries]


def corpus_check(entries):
    out = Outcome(attempted=len(CORPUS_EXPECTED), items=len(CORPUS_EXPECTED))
    seen = set()
    for name, pipeline, oracle, agreement in entries:
        seen.add(name)
        want = CORPUS_EXPECTED.get(name)
        if want is None:
            out.fail(f"{name}: not in the expected table")
            continue
        wrong = [v for v in (pipeline, oracle) if v in DECIDED and v != want]
        if wrong or agreement == "disagrees":
            out.fail(f"{name}: pipeline={pipeline} oracle={oracle} "
                     f"agreement={agreement}, expected {want}")
            continue
        out.decided += pipeline in DECIDED
        out.crosschecked += agreement == "agrees"
    for name in sorted(set(CORPUS_EXPECTED) - seen):
        out.fail(f"{name}: missing from the corpus report")
    return out


# ---------------------------------------------------------------------------
# survey: every abelian action on <= 4 points, groups of order <= 6
# ---------------------------------------------------------------------------

SURVEY_PARAMS = dict(max_points=4, max_group_order=6, field_orders=(2, 3),
                     scan_cap=2 ** 13)
SURVEY_INSTANCES = 312
SURVEY_REPRESENTATIVES = 122


def survey_load(bench_dir, seed):
    return SURVEY_PARAMS


def survey_run(params, seed):
    from ringlab.certify import survey_finite_dynamics
    s = survey_finite_dynamics(seed=seed, **params)
    return dict(instances=s.instances, representatives=s.representatives,
                oracle_scans=s.oracle_scans, density_checks=s.density_checks,
                witness_refutations=s.witness_refutations,
                transferred=s.transferred, failures=[repr(f) for f in s.failures])


def survey_check(s):
    out = Outcome(attempted=SURVEY_INSTANCES, items=SURVEY_INSTANCES)
    for f in s["failures"]:
        out.fail(f"survey failure {f}")
    if s["instances"] != SURVEY_INSTANCES:
        out.fail(f"{s['instances']} instances, expected {SURVEY_INSTANCES}")
    if s["representatives"] != SURVEY_REPRESENTATIVES:
        out.fail(f"{s['representatives']} representatives, "
                 f"expected {SURVEY_REPRESENTATIVES}")
    oracles = s["oracle_scans"] + s["density_checks"] + s["witness_refutations"]
    if oracles != s["representatives"]:
        out.fail(f"scans+density+witness refutations = {oracles}, "
                 f"not the {s['representatives']} representatives")
    if s["representatives"] + s["transferred"] != s["instances"]:
        out.fail("representatives + transferred verdicts != instances")
    # every instance got its verdict from an independent oracle, directly or
    # along a verified isomorphism, and it matched "minimal and faithful"
    good = max(0, s["representatives"] + s["transferred"] - len(s["failures"]))
    out.decided = out.crosschecked = min(good, SURVEY_INSTANCES)
    return out


# ---------------------------------------------------------------------------
# recipes: the CLI on one F_p recipe per certificate pipeline
# ---------------------------------------------------------------------------

CHECKS = "center,grading,invariance,degree-map"

# recipe file -> (certificate verdicts, center dimension, degree-map status);
# None where the check does not apply to the built object (no ring/grading).
RECIPES_EXPECTED = {
    "matrix_ring-M3F3": (["Simple"], 1, "Valid"),
    "dynamics-4pt-Z2-F3": (["NotSimple"], 2, "Valid"),
    "dynamics-rot3-F2": (["Simple"], 1, "Valid"),
    "twisted_group_ring-bales3-F3": (["Simple"], 1, "Valid"),
    "cayley_tower-F3-3": (["Simple", "Simple", "Simple"], None, None),
    "skew_group_ring-F8-Z3": (["Simple"], 1, "Valid"),
    "cayley_dickson-F3": (["Simple"], 2, "Valid"),
    "ore_extension-F4-frobenius": (["SigmaDeltaSimple"], None, None),
}


@dataclass
class RecipeInputs:
    paths: dict          # recipe name -> recipe file
    reports_dir: object  # TemporaryDirectory for the --out reports


def recipes_load(bench_dir, seed):
    rdir = os.path.join(bench_dir, "recipes")
    paths = {name: os.path.join(rdir, name + ".json") for name in RECIPES_EXPECTED}
    for p in paths.values():
        with open(p) as fh:
            json.load(fh)
    out_dir = os.path.join(bench_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    return RecipeInputs(paths, tempfile.TemporaryDirectory(dir=out_dir))


def recipes_run(inputs, seed):
    from ringlab.cli import main
    results = {}
    try:
        for name, path in inputs.paths.items():
            for command, extra in (("certify", []), ("check", ["--checks", CHECKS])):
                report = os.path.join(inputs.reports_dir.name, f"{name}.{command}.json")
                try:
                    code = main([command, path, "--seed", str(seed), "--out", report]
                                + extra)
                except Exception as exc:   # noqa: BLE001 - counted as a failure
                    results[(name, command)] = (None, f"{type(exc).__name__}: {exc}")
                    continue
                doc = None
                if os.path.exists(report):      # not written on a usage error
                    with open(report) as fh:
                        doc = json.load(fh)
                results[(name, command)] = (code, doc)
    finally:
        inputs.reports_dir.cleanup()
    return results


def recipes_check(results):
    out = Outcome(attempted=2 * len(RECIPES_EXPECTED))
    for name, (verdicts, center_dim, degree_map) in RECIPES_EXPECTED.items():
        out.items += len(verdicts)
        code, doc = results.get((name, "certify"), (None, "not run"))
        if code != 0:
            out.fail(f"{name} certify: exit {code} {doc if code is None else ''}")
        else:
            certs = doc["certificates"]
            got = [c["verdict"] for c in certs]
            wrong = len(got) != len(verdicts) or any(
                g in DECIDED and g != w for g, w in zip(got, verdicts))
            if wrong or any(c["oracle"] == "disagrees" for c in certs):
                out.fail(f"{name} certify: verdicts {got} oracles "
                         f"{[c['oracle'] for c in certs]}, expected {verdicts}")
            else:
                out.decided += sum(g in DECIDED for g in got)
                out.crosschecked += sum(c["oracle"] == "agrees" for c in certs)
        code, doc = results.get((name, "check"), (None, "not run"))
        if code != 0:
            out.fail(f"{name} check: exit {code} {doc if code is None else ''}")
            continue
        res = doc["results"]
        problems = []
        if center_dim is not None and res["center"].get("measure") != center_dim:
            problems.append(f"center {res['center']}, expected dimension {center_dim}")
        if degree_map is not None and res["degree-map"].get("status") != degree_map:
            problems.append(f"degree-map {res['degree-map']}, expected {degree_map}")
        if degree_map is not None and not res["invariance"].get("equivalence_holds"):
            problems.append("invariance equivalence fails")
        if problems:
            out.fail(f"{name} check: " + "; ".join(problems))
    return out


@dataclass(frozen=True)
class Workload:
    load: object
    run: object
    check: object
    entry: str           # tracer label of the public entry point


WORKLOADS = {
    "corpus": Workload(corpus_load, corpus_run, corpus_check,
                       "corpus.cross_check_corpus"),
    "survey": Workload(survey_load, survey_run, survey_check,
                       "certify.survey_finite_dynamics"),
    "recipes": Workload(recipes_load, recipes_run, recipes_check, "cli.main"),
}
