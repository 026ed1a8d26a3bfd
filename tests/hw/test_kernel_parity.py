"""Bit-identity of the numpy scheduler core vs the pure-Python oracle.

``repro.hw.sched_kernel`` runs the placement/probe/repair loops over
dense arrays; these tests pin the contract that it is *bit-identical*
to the loop-by-loop oracle in ``tests/hw/reference_sched.py`` — same
II, same per-node start cycles, same reservation tables, same
makespans — across seed-pinned random DFGs (``ir.randgen`` and
``lang.fuzz`` programs), both targets, all heuristic scheduler
strategies, whole pipeline runs, and a cold and a warm II-search memo.
"""

import random

import pytest

import repro
from repro.analysis import find_loop_nests
from repro.hw import schedulers
from repro.hw.schedulers import scheduler_by_name
from repro.ir.randgen import SquashNestSpec, ValueDomain, \
    random_squashable_nest
from repro.nimble.target import decode_target
from repro.obs import metrics as obs_metrics
from repro.pipeline import CompilationPipeline
from repro.pipeline.analysis import base_analyzed_dfg, squash_analyzed_dfg
from tests.hw import reference_sched


@pytest.fixture(autouse=True)
def _fresh(monkeypatch):
    repro.clear_caches()
    monkeypatch.setenv("REPRO_ANALYSIS_CACHE", "mem")
    yield
    repro.clear_caches()


def _sched_record(s):
    if hasattr(s, "ii"):
        return {"ii": s.ii, "time": s.time, "rt": s.rt, "mrt": s.mrt,
                "length": s.length, "rec_mii": s.rec_mii,
                "res_mii": s.res_mii}
    return {"time": s.time, "length": s.length, "pu": s.port_usage,
            "ru": s.resource_usage}


def _random_nest(seed):
    rng = random.Random(seed)
    prog, outer = random_squashable_nest(rng, SquashNestSpec(), ValueDomain())
    nest = next(n for n in find_loop_nests(prog) if n.outer is outer)
    return prog, nest


def _placements():
    return obs_metrics.registry().counter_values().get(
        "sched.placement_attempts", 0)


def _both(analyzed, lib, sname):
    """(production record, oracle record, production placed anything)."""
    repro.clear_caches()
    before = _placements()
    sched = scheduler_by_name(sname).schedule(analyzed.dfg, lib,
                                              edges=analyzed.edges)
    placed = _placements() > before
    ref = reference_sched.schedule(sname, analyzed.dfg, lib,
                                   edges=analyzed.edges)
    return _sched_record(sched), _sched_record(ref), placed


class TestKernelParity:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("tspec", ["acev", "vliw4"])
    def test_randgen_schedules_identical(self, seed, tspec):
        prog, nest = _random_nest(seed)
        lib = decode_target(tspec).library
        for variant_ds in (1, 2, 4):
            if variant_ds == 1:
                analyzed = base_analyzed_dfg(prog, nest)
            else:
                analyzed = squash_analyzed_dfg(prog, nest, variant_ds,
                                               delay_fn=lib.delay)
            for sname in ("list", "modulo", "backtrack"):
                prod, ref, placed = _both(analyzed, lib, sname)
                assert prod == ref, f"seed {seed} ds {variant_ds} {sname}"
                if sname != "list":
                    assert placed   # the array core really ran

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_fuzz_source_schedules_identical(self, seed):
        from repro.analysis.loops import find_kernel_nests
        from repro.lang import compile_source
        from repro.lang.fuzz import SourceNestSpec, random_source_nest

        rng = random.Random(seed)
        text = random_source_nest(rng, SourceNestSpec.sample(rng))
        prog = compile_source(text, filename=f"<parity:{seed}>")
        nest = find_kernel_nests(prog)[0]
        for tspec in ("acev", "vliw4"):
            lib = decode_target(tspec).library
            analyzed = base_analyzed_dfg(prog, nest)
            for sname in ("modulo", "backtrack"):
                prod, ref, _ = _both(analyzed, lib, sname)
                assert prod == ref, f"seed {seed} {tspec} {sname}"

    def test_design_points_identical(self, monkeypatch):
        """Whole pipeline runs, register-pressure II bumps included,
        with the registry's strategies swapped for the oracle's."""
        from tests.conftest import build_fig41

        prog = build_fig41(m=16, n=8)
        nest = find_loop_nests(prog)[0]
        designs = (("original", 1), ("pipelined", 1), ("squash", 2),
                   ("jam", 2))

        def points():
            repro.clear_caches()
            pipe = CompilationPipeline(target=decode_target("vliw4"))
            return [pipe.run(prog, nest, variant, ds=ds).point
                    for variant, ds in designs]

        production = points()
        for name in ("list", "modulo", "backtrack"):
            monkeypatch.setitem(schedulers._REGISTRY, name,
                                reference_sched.OracleScheduler(name))
        before = _placements()
        assert points() == production
        assert _placements() == before   # the oracle did all the placing

    def test_memo_by_kernel_crossing_identical(self, monkeypatch):
        """II-memo off and mem, each searched cold then memo-warm: every
        one of the four production schedules equals the oracle's.

        A warm memo skips refuted candidate IIs and places only the
        winner, so a replay that diverged from a from-scratch search
        shows up here.
        """
        prog, nest = _random_nest(99)
        lib = decode_target("vliw4").library
        analyzed = base_analyzed_dfg(prog, nest)
        expected = _sched_record(reference_sched.schedule(
            "backtrack", analyzed.dfg, lib, edges=analyzed.edges))
        records = []
        for cache_mode in ("0", "mem"):
            monkeypatch.setenv("REPRO_ANALYSIS_CACHE", cache_mode)
            repro.clear_caches()
            for _ in range(2):   # the second search is memo-warm on mem
                records.append(_sched_record(
                    scheduler_by_name("backtrack").schedule(
                        analyzed.dfg, lib, edges=analyzed.edges)))
        assert records == [expected] * 4
