"""One repetition of one workload, in a fresh interpreter.

Run as ``python3 perfbench/sweeps.py '<json config>'`` by
:mod:`run`; the config names the workload, its cache directories and
the parent's ``time.monotonic()`` reading just before the spawn, which
is where ``setup_s`` starts.  The process drives the program only
through public entry points (:class:`repro.explore.DesignQuery` lists
and :func:`repro.explore.evaluate`) and pickles its results, timings
and registry counters to ``config["out"]``.

Config keys: ``workload``, ``t0``, ``src`` (the repo's ``src`` dir),
``out``, ``results_dir`` (the result cache; ``None`` runs without
one), ``sources`` (fuzz-explore: the directory of generated ``.lang``
files), ``disk`` (directories whose bytes make ``cache_disk_mb``) and
``trace`` (install :mod:`layers`).  ``REPRO_CACHE_DIR`` in the
environment locates the artifact stores.
"""

from __future__ import annotations

import json
import os
import pickle
import resource
import sys
import time

FACTORS = (2, 4, 8, 16)
#: What :func:`calibrate` takes on the reference host speed; timings are
#: reported as seconds at that speed (see :func:`calibrate`).
CALIBRATION_REF_S = 0.25
#: fuzz-explore runs a pool as wide as the 2-core reference host.
FUZZ_JOBS = 2


def paper_queries(target: str) -> list:
    """The Table 6.2/6.3 space: 5 kernels x 10 variants on ``target``."""
    from repro.explore import table_sweep_space
    from repro.workloads import table_6_1_benchmarks

    kernels = [bm.name for bm in table_6_1_benchmarks()]
    return table_sweep_space(kernels, FACTORS, target).enumerate()


def fuzz_queries(source_dir: str) -> list:
    """Default variants x DS 2,4,8,16 x {acev, vliw4} over every
    generated kernel; reading each file for its content digest is the
    load step."""
    from repro.explore import DesignSpace
    from repro.lang.loader import lang_spec

    names = sorted(f for f in os.listdir(source_dir) if f.endswith(".lang"))
    specs = tuple(lang_spec(os.path.join(source_dir, f)) for f in names)
    return DesignSpace(kernels=specs, factors=FACTORS,
                       target_specs=("acev", "vliw4")).enumerate()


class _Node:
    __slots__ = ("nid", "succ", "label")

    def __init__(self, nid: int):
        self.nid = nid
        self.succ: list = []
        self.label = f"n{nid}"


def _relax(nodes: list, rounds: int) -> int:
    dist = {n.nid: 0 for n in nodes}
    for _ in range(rounds):
        for n in nodes:
            base = dist[n.nid]
            for m, w in n.succ:
                if base + w > dist[m.nid] and base + w < 97:
                    dist[m.nid] = base + w
    return sum(dist.values())


def calibrate() -> float:
    """Seconds a fixed pure-Python workload takes here and now.

    The work, graph relaxation over small objects plus dict, tuple and
    string churn, is shaped like the compiler's and never changes, so
    it reads the host's speed at this moment.  On shared hosts that
    speed drifts by tens of percent over minutes while the program
    stays the same; dividing a timing by this reading removes the
    drift.  Garbage collection is off while it runs, so the size of the
    program's heap does not leak into the reading.
    """
    import gc

    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    try:
        nodes = [_Node(i) for i in range(600)]
        for i, n in enumerate(nodes):
            n.succ = [(nodes[(i * 7 + k) % 600], (i + k) % 5 + 1)
                      for k in range(3)]
        check = 0
        for rep in range(108):
            check += _relax(nodes, 6)
            names = sorted((n.label, n.nid % 13) for n in nodes)
            groups: dict = {}
            for label, key in names:
                groups.setdefault(key, []).append(label)
            check += len([(k, len(v)) for k, v in groups.items()])
            rows = [{"a": i, "b": (i, rep), "c": str(i)} for i in range(3000)]
            check += len(sorted(rows, key=lambda r: r["c"]))
    finally:
        elapsed = time.perf_counter() - t0
        if enabled:
            gc.enable()
    return elapsed


def calibrate_cores() -> list:
    """:func:`calibrate` on every core this process may use, at once:
    a forked helper pinned to each other core, this process pinned to
    the first; the affinity is restored before returning."""
    cpus = sorted(os.sched_getaffinity(0))
    helpers = []
    for cpu in cpus[1:]:
        rfd, wfd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(rfd)
            os.sched_setaffinity(0, {cpu})
            os.write(wfd, repr(calibrate()).encode())
            os._exit(0)
        os.close(wfd)
        helpers.append((pid, rfd))
    os.sched_setaffinity(0, {cpus[0]})
    try:
        readings = [calibrate()]
    finally:
        os.sched_setaffinity(0, set(cpus))
    for pid, rfd in helpers:
        with os.fdopen(rfd) as fh:
            readings.append(float(fh.read()))
        os.waitpid(pid, 0)
    return readings


def disk_bytes(paths) -> int:
    total = 0
    for top in paths:
        for root, _, files in os.walk(top):
            for f in files:
                try:
                    total += os.path.getsize(os.path.join(root, f))
                except OSError:  # a writer's temp file vanished
                    pass
    return total


def run(cfg: dict) -> dict:
    """Build, time and evaluate one workload; returns the record."""
    from repro.explore import NullCache, ResultCache, evaluate
    from repro.obs import metrics

    if cfg.get("trace"):
        import layers
        layers.install()
    workload = cfg["workload"]
    jobs = 1
    prefill_s, prefill_results = 0.0, None
    if workload in ("paper-cold", "paper-warm"):
        queries = paper_queries("acev")
    elif workload == "vliw4-retarget":
        queries = paper_queries("vliw4")
    elif workload == "fuzz-explore":
        queries = fuzz_queries(cfg["sources"])
        jobs = FUZZ_JOBS
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    cache = ResultCache(cfg["results_dir"]) if cfg["results_dir"] \
        else NullCache()
    if workload == "vliw4-retarget":
        # untimed: an acev sweep warms the target-independent tiers
        p0 = time.monotonic()
        prefill_results = evaluate(paper_queries("acev"), jobs=1,
                                   cache=cache).results
        prefill_s = time.monotonic() - p0
    t_setup = time.monotonic()
    calibration_s = calibrate()
    # a pooled sweep runs on every core: read them all, before and after
    cores = calibrate_cores() if jobs > 1 else []
    before = metrics.registry().snapshot()
    t_dispatch = time.monotonic()
    error = None
    try:
        result = evaluate(queries, jobs=jobs, cache=cache)
        results = result.results
    except Exception as exc:  # noqa: BLE001 - reported, counted failed
        error = f"{type(exc).__name__}: {exc}"
        results = None
    sweep_s = time.monotonic() - t_dispatch
    if jobs > 1:
        cores += calibrate_cores()
    delta = metrics.registry().delta_since(before)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "workload": workload,
        "jobs": jobs,
        "setup_s": t_setup - cfg["t0"] - prefill_s,
        "calibration_s": calibration_s,
        "core_calibrations_s": cores,
        "sweep_s": sweep_s,
        "peak_rss_mb": rss_kb / 1024.0,
        "cache_disk_mb": disk_bytes(cfg["disk"]) / 1e6,
        "queries": queries,
        "results": results,
        "prefill_results": prefill_results,
        "error": error,
        "counters": delta["counters"],
        "gauges": delta["gauges"],
        "histograms": {name: h for name, h in delta["histograms"].items()
                       if name.startswith("bench.")},
    }


def main() -> None:
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, cfg["src"])
    record = run(cfg)
    with open(cfg["out"], "wb") as fh:
        pickle.dump(record, fh, protocol=pickle.HIGHEST_PROTOCOL)
    # the record is on disk and the pool has been joined: skip the
    # interpreter's teardown, which would only delay the next repetition
    os._exit(0)


if __name__ == "__main__":
    main()
