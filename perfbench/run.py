"""The repo benchmark: four sweep workloads, timed from outside.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-cold --seed 0 --seconds 20 \
        --trace 0

Each timed repetition is a fresh interpreter (:mod:`sweeps`), started
again and again until ``--seconds`` have passed; the timings reported
are medians over the repetitions, in seconds at a reference host speed
(:func:`sweeps.calibrate`, :func:`reference_sweep_s`; ``--trace 1``
also reports the raw wall-time medians as ``wall.*``).  After the timed loop, and never
inside it, the outputs are checked (:mod:`checks`): against the
committed Table 6.2/6.3 goldens, across repetitions, against a re-run
under ``REPRO_VERIFY=strict``, and, for ``fuzz-explore``, against the IR
interpreter.  ``--trace 1`` adds one repetition with the per-layer
wrappers of :mod:`layers` installed and reports the per-layer metrics
instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric
names and units are those of ``BENCHMARK.json``.  A failed check exits
with code 1, a missing program with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN_DIR = os.path.join(ROOT, "tests", "data")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORK_DIR = os.path.join(HERE, "_work")

WORKLOADS = ("paper-cold", "paper-warm", "vliw4-retarget", "fuzz-explore")
#: Timed repetitions per run: at least MIN_REPS whatever ``--seconds``
#: says, so a median exists, and at most MAX_REPS.
MIN_REPS = 3
MAX_REPS = 60
CHILD_TIMEOUT_S = 150
#: Knobs that would change what the program does; children never
#: inherit them from the caller's environment.
_SCRUBBED = ("REPRO_VERIFY", "REPRO_TRACE", "REPRO_FAULTS", "REPRO_JOBS",
             "REPRO_ANALYSIS_CACHE", "REPRO_SCHED_KERNEL", "REPRO_DFG_JAM",
             "REPRO_CACHE_DIR", "PYTHONHASHSEED")
INLINE = ("paper-cold", "paper-warm", "vliw4-retarget")


class Bench:
    """One invocation: inputs, timed repetitions, checks, metrics."""

    def __init__(self, workload: str, seed: int, work: str):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.sources = None
        self.kernels: list = []
        self.store = None
        self._n = 0
        self.base_env = {k: v for k, v in os.environ.items()
                         if k not in _SCRUBBED}

    # -- children ---------------------------------------------------------

    def child(self, trace: bool = False, env: "dict | None" = None,
              workload: "str | None" = None,
              result_cache: bool = True) -> dict:
        """Run one repetition in a fresh interpreter; returns its record."""
        self._n += 1
        rep = os.path.join(self.work, f"rep{self._n}")
        os.makedirs(rep)
        run_env = dict(self.base_env)
        # one hash seed for every timed repetition: set iteration order
        # is then the same in each, which removes one source of spread
        run_env["PYTHONHASHSEED"] = "0"
        if self.store is not None:
            run_env["REPRO_CACHE_DIR"] = self.store
            disk = [self.store, rep]
        else:
            run_env["REPRO_CACHE_DIR"] = rep
            disk = [rep]
        run_env.update(env or {})
        out = os.path.join(self.work, f"rep{self._n}.pkl")
        cfg = {"workload": workload or self.workload, "src": SRC,
               "out": out, "results_dir": rep if result_cache else None,
               "sources": self.sources, "disk": disk, "trace": trace}
        cmd = [sys.executable, os.path.join(HERE, "sweeps.py")]
        cfg["t0"] = time.monotonic()
        proc = subprocess.run(cmd + [json.dumps(cfg)], env=run_env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"{cfg['workload']} repetition exited "
                               f"{proc.returncode}:\n{proc.stderr[-3000:]}")
        with open(out, "rb") as fh:
            record = pickle.load(fh)
        os.unlink(out)
        shutil.rmtree(rep, ignore_errors=True)
        return record

    # -- phases -----------------------------------------------------------

    def prepare(self) -> None:
        import compileall

        import checks

        # a fresh checkout has no bytecode yet: compile it here, so the
        # first repetition's setup_s does not pay for it
        compileall.compile_dir(SRC, quiet=1)
        if self.workload == "fuzz-explore":
            self.sources = os.path.join(self.work, "sources")
            self.kernels = checks.write_fuzz_sources(self.seed,
                                                     self.sources)
        if self.workload == "paper-warm":
            # an earlier, untimed process fills the artifact stores;
            # every timed repetition starts with an empty result cache
            store = os.path.join(self.work, "store")
            os.makedirs(store)
            self.cold_ref = self.child(workload="paper-cold",
                                       env={"REPRO_CACHE_DIR": store},
                                       result_cache=False)
            self.store = store

    def timed(self, seconds: float) -> list:
        reps = []
        start = time.monotonic()
        while len(reps) < MIN_REPS or (
                time.monotonic() - start < seconds and len(reps) < MAX_REPS):
            reps.append(self.child())
        return reps

    def check(self, reps: list) -> list:
        """Every output check; returns the problems found."""
        import checks

        first = reps[0]
        problems = [f"repetition error: {r['error']}"
                    for r in reps if r["error"]]
        if problems:
            return problems
        if any(r["results"] != first["results"] for r in reps[1:]):
            problems.append("repetitions disagree on the results")
        tables = [(first["queries"], first["results"])] \
            if self.workload in ("paper-cold", "paper-warm") else []
        if self.workload == "vliw4-retarget":
            from sweeps import paper_queries
            tables.append((paper_queries("acev"), first["prefill_results"]))
        for queries, results in tables:
            problems += checks.golden_problems(queries, results, GOLDEN_DIR)
        if self.workload == "paper-warm" and \
                first["results"] != self.cold_ref["results"]:
            problems.append("paper-warm results differ from paper-cold's")
        # the independent re-verifier, under a random hash seed
        strict = self.child(env={"REPRO_VERIFY": "strict",
                                 "PYTHONHASHSEED": "random"})
        if strict["error"]:
            problems.append(f"strict re-run error: {strict['error']}")
        elif strict["results"] != first["results"]:
            problems.append("REPRO_VERIFY=strict changed the results")
        elif checks.fails(strict["results"]):
            problems.append("REPRO_VERIFY=strict run has FailRecords")
        if self.workload == "fuzz-explore":
            problems += checks.differential(self.kernels)
        return problems

    def end_to_end(self, reps: list) -> dict:
        import checks

        out = {name: statistics.median(r[name] for r in reps)
               for name in ("peak_rss_mb", "cache_disk_mb")}
        out["sweep_s"] = reference_sweep_s(reps)
        out["setup_s"] = statistics.median(r["setup_s"] * speed(r)
                                           for r in reps)
        out.update(checks.quality(reps[0]["queries"], reps[0]["results"]))
        return out

    def per_layer(self, reps: list) -> "tuple[dict, list]":
        import layers

        traced = self.child(trace=True)
        if traced["error"]:
            return {}, [f"traced run error: {traced['error']}"]
        problems = []
        if traced["results"] != reps[0]["results"]:
            problems.append("the traced run changed the results")
        traced_s = reference_sweep_s([traced])
        values = layers.per_layer(traced, traced_s / traced["sweep_s"])
        values["trace_overhead_s"] = traced_s - reference_sweep_s(reps)
        for name in ("sweep_s", "setup_s", "calibration_s"):
            values["wall." + name] = statistics.median(r[name] for r in reps)
        return values, problems


def speed(record: dict) -> float:
    """Factor that turns wall seconds of this repetition's own process
    into seconds at the reference host speed (:func:`sweeps.calibrate`)."""
    from sweeps import CALIBRATION_REF_S
    return CALIBRATION_REF_S / record["calibration_s"]


def reference_sweep_s(reps: list) -> float:
    """Median sweep wall time of ``reps`` at the reference host speed.

    An inline sweep runs on the core its process's calibration has just
    read, so each repetition is scaled by its own reading.  A pooled
    sweep spreads over every core for seconds and follows no single
    reading (per repetition, calibrating raised its spread from 9% to
    16-29%), but the median of all the run's per-core readings, taken
    before and after each sweep, follows the host's drift: over seven
    runs while the host slowed, raw medians spread 26% and scaled ones
    11%.
    """
    from sweeps import CALIBRATION_REF_S

    if reps[0]["jobs"] == 1:
        return statistics.median(r["sweep_s"] * speed(r) for r in reps)
    cores = [c for r in reps for c in r["core_calibrations_s"]]
    return statistics.median(r["sweep_s"] for r in reps) \
        * CALIBRATION_REF_S / statistics.median(cores)


def _declared(trace: bool) -> dict:
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in (os.path.join(SRC, "repro", "__init__.py"),
                           GOLDEN_DIR, SPEC) if not os.path.exists(p)]
    if missing:
        print(f"perfbench: not a repro checkout, missing {missing}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import checks
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        bench = Bench(args.workload, args.seed, work)
        bench.prepare()
        reps = bench.timed(args.seconds)
        problems = bench.check(reps)
        if any(r["error"] for r in reps):
            values = {}
        elif args.trace:
            values, more = bench.per_layer(reps)
            problems += more
        else:
            values = bench.end_to_end(reps)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = _declared(bool(args.trace))
    if set(units) != set(values):
        problems.append(f"metrics {sorted(set(units) ^ set(values))} are "
                        "not both declared and measured")
    for p in problems:
        print(f"perfbench: CHECK FAILED: {p}", file=sys.stderr)
    attempted = sum(len(r["queries"]) for r in reps)
    failed = sum(len(r["queries"]) if r["error"]
                 else len(checks.fails(r["results"])) for r in reps)
    print(f"perfbench: {args.workload} seed={args.seed} "
          f"repetitions={len(reps)}", file=sys.stderr)
    for name in sorted(values):
        print(f"  {name:28s} {values[name]:>14.6g} {units.get(name, '?')}",
              file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in sorted(values) if name in units}}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
