"""Command line interface.

    ringlab build   recipe.json          construct and summarize
    ringlab table   recipe.json          dump multiplication tables
    ringlab check   recipe.json --checks simplicity,center,...
    ringlab certify recipe.json          run the matching certificate pipeline
    ringlab corpus                       cross-check the built-in corpus

Exit codes: 0 ok, 1 failed expectation or pipeline/oracle disagreement,
2 usage or recipe errors, or a check past the element cap or over Q where
it needs finitely many elements (``check`` still prints its report, with the
error as that check's result).
"""

from __future__ import annotations

import argparse
import sys
import time

from .certify import certify_built
from .errors import CriterionDisagreement, RinglabError
from .ideals import DEFAULT_ELEMENT_CAP, DEFAULT_SEED, is_simple
from .recipes import build_recipe, parse_recipe
from .reports import Report, build_summary, run_checks, simplicity_json, table_dump
from .rings import ring_of

CHECK_NAMES = ("simplicity", "center", "invariance", "grading", "degree-map")


def _parser():
    p = argparse.ArgumentParser(prog="ringlab",
                                description="exact computer algebra for finite "
                                            "nonassociative rings")
    p.add_argument("command", choices=("build", "table", "check", "certify", "corpus"))
    p.add_argument("recipe", nargs="?", help="recipe file (JSON)")
    p.add_argument("--checks", default="simplicity",
                   help="comma-separated checks: " + ",".join(CHECK_NAMES))
    p.add_argument("--expect", choices=("simple", "not-simple"),
                   help="turn the simplicity verdict into an assertion")
    p.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    p.add_argument("--cap", type=int, default=DEFAULT_ELEMENT_CAP,
                   help="enumeration cap (elements)")
    p.add_argument("--out", help="write the report to this path")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings (breaks byte-level "
                        "reproducibility)")
    p.add_argument("--force", action="store_true",
                   help="dump tables past the size threshold")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        return _dispatch(args, t0)
    except CriterionDisagreement as exc:
        # a defect, not bad input: reported like a pipeline/oracle disagreement
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RinglabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args, t0) -> int:
    caps = {"elements": args.cap}
    exit_code = 0

    if args.command == "corpus":
        from .corpus import cross_check_corpus
        rep = cross_check_corpus(cap=args.cap, seed=args.seed)
        report = Report(recipe_digest="corpus", seed=args.seed, caps=caps)
        report.results["corpus"] = rep.to_json()
        report.certificates = [e.certificate.to_json()
                               for e in rep.entries if e.certificate]
        if not rep.ok:
            exit_code = 1
        return _emit(report, args, t0, exit_code)

    if not args.recipe:
        print("error: this command needs a recipe file", file=sys.stderr)
        return 2
    recipe = parse_recipe(args.recipe)
    built = build_recipe(recipe)
    report = Report(recipe_digest=recipe.digest, seed=args.seed, caps=caps)

    if args.command == "build":
        report.results["build"] = build_summary(built)
    elif args.command == "table":
        report.results["table"] = table_dump(built, force=args.force)
        if "error" in report.results["table"]:
            exit_code = 2
    elif args.command == "check":
        names = [n.strip() for n in args.checks.split(",") if n.strip()]
        results, failed = run_checks(built, names, cap=args.cap, seed=args.seed)
        report.results.update(results)
        if failed:
            exit_code = 2
    elif args.command == "certify":
        report.certificates = [c.to_json() for c in certify_built(
            built, cap=args.cap, seed=args.seed, instance=recipe.kind)]
        if any(c["oracle"] == "disagrees" for c in report.certificates):
            exit_code = 1

    if args.expect:
        verdict = _extract_verdict(report, built, args)
        wanted = "Simple" if args.expect == "simple" else "NotSimple"
        report.results["expectation"] = {"expected": wanted, "got": verdict}
        if verdict != wanted:
            exit_code = exit_code or 1
    return _emit(report, args, t0, exit_code)


def _extract_verdict(report, built, args):
    if report.certificates:
        return report.certificates[-1]["verdict"]
    res = report.results.get("simplicity")
    if res is None:
        ring = ring_of(built)
        if ring is None:
            return None
        res = simplicity_json(is_simple(ring, cap=args.cap, seed=args.seed))
        report.results["simplicity"] = res
    if res == "Simple":
        return "Simple"
    if isinstance(res, dict) and "NotSimple" in res:
        return "NotSimple"
    return None


def _emit(report, args, t0, exit_code) -> int:
    if args.timings:
        report.timings_ms = {"total": round((time.monotonic() - t0) * 1000, 3)}
    text = report.serialize(args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
