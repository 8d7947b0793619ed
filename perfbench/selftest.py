"""Tests of the benchmark itself.  They start real workloads (over a
minute in all), so they are kept out of the repository's default test run:

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import os
import pstats
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import probe  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import CORPUS_EXPECTED, corpus_check  # noqa: E402

SEED = 0xC0FFEE


def _target_code(modname, attr):
    import importlib
    owner = importlib.import_module(modname)
    for part in attr.split("."):
        owner = getattr(owner, part)
    code = owner.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def test_traced_calls_match_cprofile(tmp_path):
    """Every call cProfile sees to a traced function went through its
    wrapper; an alias the tracer missed would show as fewer traced calls."""
    prof = tmp_path / "corpus.prof"
    subprocess.run([sys.executable, "-I", "-m", "cProfile", "-o", str(prof),
                    os.path.join(BENCH_DIR, "worker.py"), "corpus", str(SEED), "run"],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=300)
    spans = tmp_path / "corpus.npz"
    subprocess.run([sys.executable, "-I", os.path.join(BENCH_DIR, "worker.py"),
                    "corpus", str(SEED), "trace", str(spans)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=300)
    stats = pstats.Stats(str(prof)).stats
    traced = tracer.layer_metrics(tracer.load_spans(str(spans)), 1.0)
    mismatches = {}
    for (_, modname, attr), label in zip(tracer.TARGETS, tracer.LABELS):
        key = _target_code(modname, attr)
        profiled = stats[key][1] if key in stats else 0
        if traced[f"{label}.calls"] != profiled:
            mismatches[label] = (traced[f"{label}.calls"], profiled)
    assert not mismatches, f"label: (traced, cProfile) {mismatches}"
    assert traced["ideals.is_simple.calls"] == 85
    assert traced["linalg.rref_frac.calls"] == 1210


def test_timed_runs_use_fresh_interpreters():
    deadline = time.monotonic() + run.DEADLINE_S
    docs = [run.spawn("survey", SEED, "run", deadline)[0] for _ in range(2)]
    assert all("wall_s" in d and d["fresh"] for d in docs), docs
    assert docs[0]["pid"] != docs[1]["pid"]


def _run(pid, fresh=True):
    """A timed run as spawn() returns it, with one correct verdict."""
    doc = {"pid": pid, "fresh": fresh, "wall_s": 1.0, "ready": 0.0,
           "probe": [0.002],
           "outcome": {"attempted": 1, "failed": 0, "items": 1, "decided": 1,
                       "crosschecked": 1, "problems": []}}
    return doc, 0.1, 1.0


def test_sampler_times_the_kernel_and_restores_the_handler():
    import signal
    previous = signal.getsignal(signal.SIGALRM)
    sampler = probe.Sampler()
    sampler.install()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 1.0:
        pass
    sampler.uninstall()
    wall = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 3
    assert sum(sampler.samples) <= sampler.spent < wall
    # at the reference speed a time is unchanged; at half of it, halved
    assert abs(probe.scale(2.0, [probe.REF_S] * 3) - 2.0) < 1e-12
    assert abs(probe.scale(2.0, [2 * probe.REF_S]) - 1.0) < 1e-12


def test_shared_interpreter_fails_the_run():
    assert run.summarize("corpus", [0.1], [_run(7), _run(8)])["correct"]
    result = run.summarize("corpus", [0.1], [_run(7), _run(7)])
    assert not result["correct"] and result["failed"] == 1
    assert not run.summarize("corpus", [0.1], [_run(7), _run(8, fresh=False)])["correct"]


def test_wrong_verdict_fails_undecided_does_not():
    entries = [(name, want, want, "agrees") for name, want in CORPUS_EXPECTED.items()]
    assert corpus_check(entries).failed == 0
    flipped = list(entries)
    flipped[0] = (entries[0][0], "Simple", None, "unavailable")
    assert corpus_check(flipped).failed == 1
    undecided = list(entries)
    undecided[0] = (entries[0][0], None, "Inconclusive", "unavailable")
    out = corpus_check(undecided)
    assert out.failed == 0 and out.decided == len(entries) - 1


def test_benchmark_json_lists_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        tracer.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    result = run.summarize("corpus", [0.1], [_run(7)])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: v["unit"] for k, v in result["metrics"].items()}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "corpus"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
