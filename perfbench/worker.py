"""One run of one workload, in the fresh interpreter ``run.py`` starts for it.

    python3 -I perfbench/worker.py <workload> <seed> <mode> [<spans file>]

``mode`` is ``setup`` (import ringlab, load the inputs, stop), ``run`` (also
time the workload) or ``trace`` (time it with the per-layer tracer installed
and write the spans to the file).  The last line of standard output is one
JSON object; ``run.py`` reads it together with the worker's resource usage.
A timed run's JSON carries the speed probe's kernel times (see probe.py) in
``probe``, taken before, during and after the workload.  ``wall_s`` excludes
the time the probe took.
"""

import json
import os
import sys
import time
import traceback
from dataclasses import asdict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main(argv):
    workload, seed, mode = argv[0], int(argv[1], 0), argv[2]
    # nothing of ringlab may exist before this run imports it
    fresh = not any(m == "ringlab" or m.startswith("ringlab.") for m in sys.modules)
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]
    import ringlab
    import ringlab.cli  # noqa: F401 - every module a workload may enter through
    src = os.path.join(ROOT, "src", "ringlab", "")
    if not os.path.abspath(ringlab.__file__).startswith(src):
        raise SystemExit(f"imported ringlab from {ringlab.__file__}, not {src}")
    import probe
    from workloads import WORKLOADS
    wl = WORKLOADS[workload]
    inputs = wl.load(BENCH_DIR, seed)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    doc = {"pid": os.getpid(), "ready": ready, "fresh": fresh}
    if mode == "setup":
        print(json.dumps(doc))
        return 0
    before = probe.bracket()
    # caches that would make a repeat in this process measure nothing
    from ringlab import corpus
    doc["fresh"] = fresh and not corpus._BUILT and not corpus._TOWER_Q

    # the traced run samples no speed during the run: the probe's time would
    # land in whichever span it interrupted
    tracer = sampler = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        sampler = probe.Sampler()
        sampler.install()
    t0 = time.perf_counter()
    try:
        result = wl.run(inputs, seed)
        error = None
    except Exception:   # noqa: BLE001 - reported as a failed run
        error = traceback.format_exc()
    if sampler is not None:
        sampler.uninstall()     # before the clock stops: no sample after it
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
        tracer.write(argv[3], wall, wl.entry)
    doc["wall_s"] = wall - (sampler.spent if sampler else 0.0)
    doc["probe"] = before + (sampler.samples if sampler else []) + probe.bracket()
    if error is None:
        doc["outcome"] = asdict(wl.check(result))
    else:
        print(error, file=sys.stderr)
        doc["error"] = error.strip().splitlines()[-1]
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
