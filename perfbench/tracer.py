"""Per-layer tracing from outside the program.

:class:`Tracer` replaces each public function in :data:`TARGETS` by a
wrapper that records one span per call: name, start, end and parent span.
Spans are kept in flat arrays in memory and written out once, when the
traced run ends.  :func:`layer_metrics` turns a written span file into the
per-layer metrics: for every target ``<label>.calls`` and
``<label>.self_share``, its self time (span time minus the time its child
spans cover) as a share of the traced wall time ``trace.wall_s``, plus a few
ratios counted at the same boundaries.  Self time is reported as a share
because a function a workload never calls has a self time of exactly 0 s on
every run, and shares also move less with the machine's speed.

ringlab modules import each other's functions by name (``certify``,
``corpus``, ``cli`` and ``reports`` all do ``from .ideals import
is_simple``), so patching the defining module is not enough:
:meth:`Tracer.install` rebinds every alias in every loaded ``ringlab``
module and refuses to run if an original is still reachable some other way.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

import numpy as np

# (layer, module, attribute) - the attribute may be "Class.method".
TARGETS = [
    ("linalg", "ringlab.linalg", "rref_frac"),
    ("linalg", "ringlab.linalg", "kernel_frac"),
    ("linalg", "ringlab.linalg", "merge_frac"),
    ("linalg", "ringlab.linalg", "rref_modp"),
    ("linalg", "ringlab.linalg", "reduce_rows_modp"),
    ("linalg", "ringlab.linalg", "merge_modp"),
    ("linalg", "ringlab.linalg", "kernel_modp"),
    ("rings", "ringlab.rings", "StructureAlgebra.mul_coords"),
    ("subgroups", "ringlab.subgroups", "additive_span"),
    ("subgroups", "ringlab.subgroups", "product_span"),
    ("ideals", "ringlab.ideals", "is_simple"),
    ("ideals", "ringlab.ideals", "ideal_closure"),
    ("ideals", "ringlab.ideals", "enumerate_ideals"),
    ("ideals", "ringlab.ideals", "enumerate_subring_ideals"),
    ("ideals", "ringlab.ideals", "centralizer"),
    ("gradings", "ringlab.gradings", "Grading.decompose"),
    ("gradings", "ringlab.gradings", "verify_degree_map"),
    ("gradings", "ringlab.gradings", "grading_flags"),
    ("constructions", "ringlab.constructions.crossed", "crossed_product"),
    ("constructions", "ringlab.constructions.crossed", "validate_crossed_system"),
    ("constructions", "ringlab.constructions.dynamics", "dynamics_skew_group_ring"),
    ("constructions", "ringlab.constructions.doubling", "cayley_tower"),
    ("certify", "ringlab.certify", "certify_dynamics"),
    ("certify", "ringlab.certify", "certify_tower"),
    ("certify", "ringlab.certify", "certify_cayley"),
    ("certify", "ringlab.certify", "certify_matrix"),
    ("certify", "ringlab.certify", "certify_twisted"),
    ("certify", "ringlab.certify", "certify_crossed_product"),
    ("certify", "ringlab.certify", "certify_groupoid_graded"),
    ("certify", "ringlab.certify", "recognize_field"),
    ("certify", "ringlab.certify", "faithfulness_witness_ideal"),
    ("certify", "ringlab.certify", "simple_by_density"),
    ("certify", "ringlab.certify", "survey_finite_dynamics"),
    ("ore", "ringlab.ore", "is_sigma_delta_simple"),
    ("corpus", "ringlab.corpus", "cross_check_corpus"),
    ("recipes", "ringlab.recipes", "build_recipe"),
    ("cli", "ringlab.cli", "main"),
    ("reports", "ringlab.reports", "run_checks"),
]

LABELS = [f"{layer}.{attr}" for layer, _, attr in TARGETS]

# Targets that also count a ratio at their boundary: merges that grew the
# basis, and is_simple calls already in the ring's verdict cache.
GREW = ("linalg.merge_modp", "linalg.merge_frac")
CACHED = "ideals.is_simple"


def metric_units():
    """Name -> (unit, better) of every per-layer metric, in output order."""
    out = {}
    for label in LABELS:
        out[f"{label}.calls"] = ("count", "lower")
        out[f"{label}.self_share"] = ("ratio", "lower")
    for label in GREW:
        out[f"{label}.grew_ratio"] = ("ratio", "higher")
    out[f"{CACHED}.cache_hit_ratio"] = ("ratio", "higher")
    out["trace.wall_s"] = ("s", "lower")
    out["trace.entry_self_ratio"] = ("ratio", "lower")
    out["trace.overhead_ratio"] = ("ratio", "lower")
    return out


def _is_ringlab(name):
    return name == "ringlab" or name.startswith("ringlab.")


class Tracer:
    """Spans of one traced run.  Not reentrant across threads: ringlab is
    single-threaded and so is the worker that drives it."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(
            [f"{label}.grew" for label in GREW] + [f"{CACHED}.hits"], 0)
        self._stack = [-1]
        self._patched = []          # (owner, attribute, original)

    # -- wrapping --------------------------------------------------------
    def _wrap(self, fn, nid, label):
        name, parent, start, end, stack = (self.name, self.parent, self.start,
                                           self.end, self._stack)
        clock = time.perf_counter
        counters = self.counters

        def enter():
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            return i

        def leave(i):
            end[i] = clock()
            stack.pop()

        if label in GREW:
            key = f"{label}.grew"

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                i = enter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(i)
                counters[key] += bool(result[2])
                return result
        elif label == CACHED:
            sig = inspect.signature(fn)
            key = f"{label}.hits"

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                cache = getattr(a["ring"], "_simple_cache", None)
                if cache is not None and (a["cap"], a["seed"], a["samples"]) in cache:
                    counters[key] += 1
                i = enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(i)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                i = enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(i)
        return traced

    def install(self):
        """Wrap every target and rebind all its aliases in ringlab."""
        originals = {}
        for nid, (_, modname, attr) in enumerate(TARGETS):
            owner = sys.modules[modname]
            *cls_path, fname = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            fn = owner.__dict__[fname]
            wrapper = self._wrap(fn, nid, LABELS[nid])
            originals[id(fn)] = (fn, wrapper)
            self._set(owner, fname, wrapper)
            if cls_path:
                for sub in _subclasses(owner):
                    if fname in sub.__dict__:
                        raise RuntimeError(f"{sub.__qualname__} overrides {attr}; "
                                           "add it to TARGETS")
        for mod in [m for n, m in list(sys.modules.items()) if _is_ringlab(n)]:
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])
        leftover = _reachable_originals({k: v[0] for k, v in originals.items()})
        if leftover:
            self.uninstall()
            raise RuntimeError("untraceable references to traced functions: "
                               + ", ".join(leftover))

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output ----------------------------------------------------------
    def write(self, path, wall_s, entry):
        np.savez(path,
                 labels=np.array(LABELS),
                 name=np.frombuffer(self.name, dtype=np.intc),
                 parent=np.frombuffer(self.parent, dtype=np.intc),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 meta=np.array(json.dumps({"wall_s": wall_s, "entry": entry,
                                           "counters": self.counters})))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _reachable_originals(originals):
    """Places in ringlab an original is still reachable from: class
    attributes, module-level containers and function defaults."""
    found = []

    def check(where, value):
        if id(value) in originals and originals[id(value)] is value:
            found.append(where)

    for modname, mod in list(sys.modules.items()):
        if not _is_ringlab(modname):
            continue
        for attr, value in vars(mod).items():
            where = f"{modname}.{attr}"
            check(where, value)
            if isinstance(value, dict):
                for v in value.values():
                    check(f"{where}[...]", v)
            elif isinstance(value, (list, tuple, set, frozenset)):
                for v in value:
                    check(f"{where}[...]", v)
            elif inspect.isclass(value) and _is_ringlab(value.__module__):
                for cattr, cvalue in vars(value).items():
                    check(f"{where}.{cattr}", getattr(cvalue, "__func__", cvalue))
                    _check_defaults(f"{where}.{cattr}", cvalue, check)
            elif inspect.isfunction(value):
                _check_defaults(where, value, check)
    return found


def _check_defaults(where, fn, check):
    fn = getattr(fn, "__func__", fn)
    for v in (getattr(fn, "__defaults__", None) or ()):
        check(f"{where} default", v)
    for v in (getattr(fn, "__kwdefaults__", None) or {}).values():
        check(f"{where} default", v)


def load_spans(path):
    with np.load(path) as z:
        spans = {k: z[k] for k in ("labels", "name", "parent", "start", "end")}
        spans["meta"] = json.loads(str(z["meta"]))
    return spans


def layer_metrics(spans, untraced_wall_s):
    """Per-layer metrics of one traced run (see :func:`metric_units`)."""
    labels = list(spans["labels"])
    name, parent = spans["name"], spans["parent"]
    meta = spans["meta"]
    wall = meta["wall_s"]
    dur = spans["end"] - spans["start"]
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_time = dur - covered
    calls = np.bincount(name, minlength=len(labels))
    self_s = np.bincount(name, weights=self_time, minlength=len(labels))
    out = {}
    for i, label in enumerate(labels):
        out[f"{label}.calls"] = int(calls[i])
        out[f"{label}.self_share"] = float(self_s[i]) / wall
    counters = meta["counters"]
    for label in GREW:
        n = calls[labels.index(label)]
        out[f"{label}.grew_ratio"] = counters[f"{label}.grew"] / n if n else 0.0
    n = calls[labels.index(CACHED)]
    out[f"{CACHED}.cache_hit_ratio"] = counters[f"{CACHED}.hits"] / n if n else 0.0
    # time no named layer below the entry point explains: the entry spans'
    # own self time plus whatever the timed region spent outside any span
    outside = wall - float(dur[~nested].sum())
    entry_self = float(self_s[labels.index(meta["entry"])])
    out["trace.wall_s"] = wall
    out["trace.entry_self_ratio"] = (entry_self + outside) / wall
    out["trace.overhead_ratio"] = wall / untraced_wall_s - 1.0
    return out
