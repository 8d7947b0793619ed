"""The benchmark's per-layer tracer (perfbench/tracer.py) must install on
ringlab as it stands: every name in its TARGETS must exist, and no traced
function may sit where the tracer cannot rebind it (a module-level table, a
class attribute, a default argument).  This test only reads perfbench/."""

import importlib.util
import pathlib

import ringlab.cli  # noqa: F401 - loads every module the tracer patches
from ringlab import certify
from ringlab.corpus import build_group_algebra

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_sees_the_dispatched_pipeline():
    tracer = _load_tracer()
    original = certify.certify_crossed_product
    built = build_group_algebra(2)
    t = tracer.Tracer()
    t.install()
    try:
        assert certify.certify_crossed_product is not original
        certs = certify.certify_built(built, instance="traced")
        spans = {tracer.LABELS[i] for i in t.name}
    finally:
        t.uninstall()
    assert certify.certify_crossed_product is original
    assert [c.pipeline for c in certs] == ["crossed-product"]
    # the pipeline certify_built chose is the wrapped one
    assert "certify.certify_crossed_product" in spans
