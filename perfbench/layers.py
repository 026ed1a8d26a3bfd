"""Per-layer spans measured from outside the program.

:func:`install` replaces each layer's public functions *where their
callers look them up* (a module global or a class attribute) with a
wrapper that counts calls and accumulates the layer's self time: the
span's duration minus the part covered by nested layer spans.  The
program itself is not edited and carries no benchmark spans.

Every total lives in the program's own metrics registry
(:func:`repro.obs.metrics.registry`) under the ``bench.`` prefix.  Pool
workers inherit the wrappers at fork, and the engine already merges
each pooled batch's registry delta into the parent, so worker totals
come home with no extra plumbing.  The one exception is the batch
busy time, which is known only after the batch has taken its delta;
:func:`traced_batch` adds it to the payload's delta itself.
"""

from __future__ import annotations

import functools
import importlib
import os
from time import perf_counter

#: ``layer -> [(module, owner attribute or None, function name), ...]``.
#: ``owner`` names a class whose method is wrapped; ``None`` wraps a
#: module global.  Each entry is the name the caller resolves at call
#: time, so the wrapper is the object the program actually runs.
SPANS = {
    "analysis": [("repro.pipeline.pipeline", None, "base_analyzed_dfg"),
                 ("repro.pipeline.pipeline", None, "jam_analyzed_dfg"),
                 ("repro.pipeline.analysis", None, "analyze_front")],
    "core.jam": [("repro.core.jamdfg", None, "derive_jam_base")],
    "core.squash": [("repro.pipeline.pipeline", None,
                     "squash_analyzed_dfg")],
    "core.legality": [("repro.pipeline.analysis", None, "prepare_squash"),
                      ("repro.pipeline.analysis", None, "classify_squash"),
                      ("repro.pipeline.analysis", None, "check_squash"),
                      ("repro.core.jamdfg", None, "prepare_squash"),
                      ("repro.core.jamdfg", None, "classify_squash"),
                      ("repro.core.squash", None, "check_squash")],
    "hw.rec_mii": [("repro.hw.modulo", None, "rec_mii"),
                   ("repro.hw.exact", None, "rec_mii")],
    "hw.res_mii": [("repro.hw.modulo", None, "res_mii"),
                   ("repro.hw.exact", None, "res_mii")],
    "hw.schedule": [("repro.hw.schedulers", None, "list_schedule"),
                    ("repro.hw.schedulers", None, "modulo_schedule"),
                    ("repro.hw.schedulers", None,
                     "backtracking_modulo_schedule"),
                    ("repro.hw.schedulers", None, "exact_modulo_schedule")],
    "vliw.pressure": [("repro.vliw.pressure", None, "register_pressure")],
    "hw.simulate": [("repro.pipeline.pipeline", None, "simulate_modulo"),
                    ("repro.pipeline.pipeline", None,
                     "simulate_sequential")],
    "store.get": [("repro.store", "ArtifactStore", "get")],
    "store.put": [("repro.store", "ArtifactStore", "put")],
    "result_cache.get": [("repro.explore.cache", "ResultCache", "get")],
    "result_cache.put": [("repro.explore.cache", "ResultCache", "put")],
    "lang.parse": [("repro.lang", None, "compile_source")],
}

#: Call counters without a span: hot functions whose count matters but
#: whose time is already inside an enclosing layer span.
COUNTS = [("repro.hw.sched_kernel", "SchedProblem", "attempt")]

PREFIX = "bench."
DESIGN_HIST = PREFIX + "design_s"
BUSY = PREFIX + "batch_busy_s"

#: Open spans of this process: one child-time accumulator per span.
_STACK: list[list[float]] = []
_PARENT_PID = os.getpid()


def calls_key(module: str, owner, name: str) -> str:
    return f"{PREFIX}calls.{module}.{owner + '.' if owner else ''}{name}"


def self_key(layer: str) -> str:
    return f"{PREFIX}self_s.{layer}"


def _span(layer: str, key: str, fn):
    from repro.obs import metrics

    seconds = metrics.counter(self_key(layer))
    calls = metrics.counter(key)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls.add()
        frame = [0.0]
        _STACK.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            _STACK.pop()
            seconds.add(dt - frame[0])
            if _STACK:
                _STACK[-1][0] += dt
    return wrapper


def _count(key: str, fn):
    from repro.obs import metrics

    calls = metrics.counter(key)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls.add()
        return fn(*args, **kwargs)
    return wrapper


def _design(fn):
    from repro.obs import metrics

    hist = metrics.histogram(DESIGN_HIST)

    @functools.wraps(fn)
    def wrapper(query):
        t0 = perf_counter()
        try:
            return fn(query)
        finally:
            hist.observe(perf_counter() - t0)
    return wrapper


_ORIGINAL_BATCH = None


def traced_batch(queries, attempt=0):
    """The engine's batch function, timed.

    Module-level and unwrapped by ``functools.wraps`` on purpose: the
    supervised engine pickles it by reference to send it to workers.
    """
    t0 = perf_counter()
    payload = _ORIGINAL_BATCH(queries, attempt)
    busy = perf_counter() - t0
    if os.getpid() == _PARENT_PID:
        # inline batch: the engine merges no delta, the registry is ours
        from repro.obs import metrics
        metrics.counter(BUSY).add(busy)
    else:
        counters = payload["metrics"].setdefault("counters", {})
        counters[BUSY] = counters.get(BUSY, 0.0) + busy
    return payload


def _targets():
    for layer, entries in SPANS.items():
        for module, owner, name in entries:
            yield layer, module, owner, name
    for module, owner, name in COUNTS:
        yield None, module, owner, name


def install() -> list:
    """Wrap every layer entry point; returns the undo list.

    Raises ``AttributeError`` when a named entry point no longer exists,
    so a refactor that moves one fails the traced run instead of
    silently measuring nothing.
    """
    global _ORIGINAL_BATCH, _PARENT_PID
    _PARENT_PID = os.getpid()
    undo = []
    for layer, module, owner, name in _targets():
        holder = importlib.import_module(module)
        if owner:
            holder = getattr(holder, owner)
        original = getattr(holder, name)
        key = calls_key(module, owner, name)
        wrapped = _span(layer, key, original) if layer \
            else _count(key, original)
        setattr(holder, name, wrapped)
        undo.append((holder, name, original))
    compiler = importlib.import_module("repro.nimble.compiler")
    undo.append((compiler, "compile_query", compiler.compile_query))
    compiler.compile_query = _design(compiler.compile_query)
    engine = importlib.import_module("repro.explore.engine")
    _ORIGINAL_BATCH = engine.compile_query_batch
    undo.append((engine, "compile_query_batch", _ORIGINAL_BATCH))
    engine.compile_query_batch = traced_batch
    return undo


def uninstall(undo: list) -> None:
    for holder, name, original in reversed(undo):
        setattr(holder, name, original)


def _pct_tail(samples: list) -> tuple:
    """(percentile, value): the highest whole percentile with at least
    ten samples beyond it, by nearest rank."""
    from repro.obs.metrics import percentile

    n = len(samples)
    pct = max(0, int(100 * (1 - 10 / n))) if n > 10 else 0
    return pct, percentile(samples, pct)


def per_layer(record: dict, speed: float = 1.0) -> dict:
    """The per-layer metrics of one traced repetition.

    ``record`` is what :func:`sweeps.run` returned with ``trace`` on;
    every time is multiplied by ``speed``, the repetition's factor to
    reference-host seconds.  Ratios whose base is zero read 0.0 (the
    layer did no work).
    """
    from repro.obs.metrics import percentile

    c = record["counters"]

    def secs(layer):
        return speed * float(c.get(self_key(layer), 0.0))

    def calls(layer, names=None):
        return int(sum(c.get(calls_key(m, o, n), 0)
                       for m, o, n in SPANS[layer]
                       if names is None or n in names))

    def frac(num, den):
        return num / den if den else 0.0

    mem_hits = c.get("analysis_mem_hits", 0)
    disk_hits = c.get("analysis_disk_hits", 0) + c.get("iimemo_disk_hits", 0)
    disk_misses = c.get("analysis_disk_misses", 0) \
        + c.get("iimemo_disk_misses", 0)
    attempts = int(c.get("sched.ii_attempts", 0))
    pipelined_calls = calls("hw.schedule", ("modulo_schedule",
                                            "backtracking_modulo_schedule"))
    rejected = fitted = 0
    for r in record["results"]:
        if getattr(r, "max_live", None) is not None:
            fitted += 1
        elif getattr(r, "phase", None) == "schedule" \
                and "register pressure" in r.reason:
            rejected += 1
    designs = sorted(1000.0 * speed * s for s in record["histograms"]
                     .get(DESIGN_HIST, {}).get("samples", []))
    tail_pct, tail = _pct_tail(designs)
    workers = record["gauges"].get("explore.jobs", 1) or 1
    busy = speed * float(c.get(BUSY, 0.0))
    capacity = speed * workers * record["sweep_s"]
    return {
        "lang.parse_s": secs("lang.parse"),
        "lang.kernels": calls("lang.parse"),
        "analysis.base_s": secs("analysis"),
        "analysis.base_calls": calls("analysis", ("analyze_front",)),
        "analysis.mem_hit_frac": frac(
            mem_hits, mem_hits + c.get("analysis_mem_misses", 0)),
        "core.jam_s": secs("core.jam"),
        "core.jam_calls": calls("core.jam"),
        "core.squash_s": secs("core.squash"),
        "core.squash_calls": calls("core.squash"),
        "core.legality_s": secs("core.legality"),
        "core.legality_calls": calls("core.legality"),
        "hw.rec_mii_s": secs("hw.rec_mii"),
        "hw.res_mii_s": secs("hw.res_mii"),
        "hw.mii_calls": calls("hw.rec_mii") + calls("hw.res_mii"),
        "hw.place_s": secs("hw.schedule"),
        "hw.schedule_calls": calls("hw.schedule"),
        "sched.ii_attempts": attempts,
        "sched.ii_memo_skips": int(c.get("sched.ii_memo_skips", 0)),
        "sched.repair_rounds": int(c.get("sched.repair_rounds", 0)
                                   + c.get(calls_key(*COUNTS[0]), 0)),
        "hw.first_ii_frac": frac(pipelined_calls, attempts),
        "vliw.pressure_s": secs("vliw.pressure"),
        "vliw.pressure_calls": calls("vliw.pressure"),
        "vliw.pressure_reject_frac": frac(rejected, rejected + fitted),
        "hw.simulate_s": secs("hw.simulate"),
        "hw.simulate_calls": calls("hw.simulate"),
        "store.get_s": secs("store.get"),
        "store.put_s": secs("store.put"),
        "store.get_calls": calls("store.get"),
        "store.put_calls": calls("store.put"),
        "store.hit_frac": frac(disk_hits, disk_hits + disk_misses),
        "result_cache.get_s": secs("result_cache.get"),
        "result_cache.put_s": secs("result_cache.put"),
        "result_cache.puts": calls("result_cache.put"),
        "design_ms.p50": percentile(designs, 50) or 0.0,
        "design_ms.tail": tail or 0.0,
        "design_ms.tail_pct": tail_pct,
        "design_ms.count": len(designs),
        "engine.dispatch_s": capacity - busy,
        "engine.busy_frac": frac(busy, capacity),
        "supervise.batches": int(c.get("supervise.batches", 0)),
    }
