"""ringlab benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload corpus|survey|recipes
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a ringlab checkout.  Every timed run is a fresh
``python3 -I perfbench/worker.py`` process, started one at a time (closed
loop, one client), because ringlab caches verdicts and built rings per
process and a repeat in the same interpreter would measure those caches.
Timed runs repeat until ``--seconds`` have passed (at least one run).

``--trace 0`` prints the end-to-end metrics: medians over the runs of
``wall_s`` and ``peak_rss_mb``, ``setup_s`` as the median of several
set-ups, and the verdict ratios.  Both times are rescaled to a reference
machine speed by speed probes taken right next to them (see probe.py).  ``--trace 1`` does the same runs and then
one traced run, and prints the per-layer metrics (see tracer.py).  The last
line of standard output is the JSON result; its ``correct`` is true only if
every run finished and every verdict met the gates in workloads.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import probe

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("corpus", "survey", "recipes")
SETUPS_PER_RUN = 4         # set-up-only workers before each timed run
DEADLINE_S = 170           # the whole invocation must end within 180 s


def spawn(workload, seed, mode, deadline, spans=None):
    """Start one worker and wait for it.  Returns its JSON (``{"error": ...}``
    if it failed), its scaled set-up time and its peak RSS in MB."""
    cmd = [sys.executable, "-I", os.path.join(BENCH_DIR, "worker.py"),
           workload, str(seed), mode] + ([spans] if spans else [])
    start = probe.numpy_start()
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    lines = out.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"{mode} worker exited with {proc.returncode}"}, None, None
    doc = json.loads(lines[-1])
    return (doc, probe.scale_setup(doc["ready"] - t_spawn, start),
            usage.ru_maxrss / 1024.0)


def spans_path(workload):
    return os.path.join(OUT_DIR, f"spans-{workload}.npz")


def measure(workload, seed, seconds, trace):
    """Set-ups, then timed runs for ``seconds``, then the traced run if asked.
    Returns the set-up times, the timed runs and the traced run (or None)."""
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    spawn(workload, seed, "setup", deadline)      # writes bytecode caches
    setups, runs = [], []
    t_end = time.monotonic() + seconds
    while not runs or time.monotonic() < t_end:
        # set-up samples spread over the invocation, not taken in one burst:
        # on a shared machine the speed can change within seconds
        setups += [spawn(workload, seed, "setup", deadline)
                   for _ in range(SETUPS_PER_RUN)]
        runs.append(spawn(workload, seed, "run", deadline))
    traced = spawn(workload, seed, "trace", deadline, spans_path(workload)) \
        if trace else None
    return [s for _, s, _ in setups + runs if s is not None], runs, traced


def summarize(workload, setups, runs, traced=None):
    """The result object: correctness over every run, metrics over the
    successful ones; None if there is nothing to report."""
    attempted = failed = items = decided = crosschecked = 0
    for doc, _, _ in runs + ([traced] if traced else []):
        o = doc.get("outcome")
        if o is None:
            print(f"run failed: {doc['error']}", file=sys.stderr)
            attempted += 1
            failed += 1
            continue
        for p in o["problems"]:
            print(f"wrong: {p}", file=sys.stderr)
        attempted += o["attempted"]
        failed += o["failed"]
        items += o["items"]
        decided += o["decided"]
        crosschecked += o["crosschecked"]
    timed = [(doc, rss) for doc, _, rss in runs if "wall_s" in doc]
    if not timed or (traced and "wall_s" not in traced[0]):
        return None
    # the reason for one process per run: no run may see another's caches
    if len({doc["pid"] for doc, _ in timed}) != len(timed) or \
            not all(doc["fresh"] for doc, _ in timed):
        print("wrong: two timed runs shared an interpreter", file=sys.stderr)
        attempted += 1
        failed += 1
    wall = statistics.median(probe.scale(doc["wall_s"], doc["probe"])
                             for doc, _ in timed)
    if traced:
        from tracer import layer_metrics, load_spans, metric_units
        # the untraced median at the speed the traced run saw, for
        # trace.overhead_ratio
        doc = traced[0]
        at_trace_speed = wall * doc["wall_s"] / probe.scale(doc["wall_s"], doc["probe"])
        values = layer_metrics(load_spans(spans_path(workload)), at_trace_speed)
        metrics = {k: {"value": values[k], "unit": unit}
                   for k, (unit, _) in metric_units().items()}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss for _, rss in timed),
                            "unit": "MB"},
            "decided_ratio": {"value": decided / items, "unit": "ratio"},
            "crosschecked_ratio": {"value": crosschecked / items, "unit": "ratio"},
        }
    print(f"{workload}: {len(timed)} timed runs, wall_s measured "
          f"{[round(doc['wall_s'], 3) for doc, _ in timed]} scaled "
          f"{[round(probe.scale(doc['wall_s'], doc['probe']), 3) for doc, _ in timed]}, "
          f"{len(setups)} set-ups, {failed}/{attempted} failed")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=lambda s: int(s, 0), default=0xC0FFEE)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ringlab", "__init__.py")):
        print(f"error: no ringlab sources under {ROOT}/src; run from the root "
              "of a ringlab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, BENCH_DIR)
    result = summarize(args.workload, *measure(args.workload, args.seed,
                                               args.seconds, args.trace))
    if result is None:
        print("error: no timed or traced run finished", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
