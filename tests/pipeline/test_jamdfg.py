"""Differential tests for the DFG-level jam derivation (repro.core.jamdfg).

Every test compares the pipeline's route (derive the fused inner loop's
analysis directly from the untransformed nest) against the
program-level route, run here by calling its pieces directly:
``unroll_and_jam`` on the whole program, ``_find_jammed_nest`` to
re-locate the fused nest, and ``base_analyzed_dfg`` to re-lower it.
Both run through the same pipeline stages otherwise, and must give
*identical* artifacts — DFG nodes/edges, SSA names, legality verdicts
and reason strings, DesignPoints — or identical errors.
"""

import dataclasses
import random

import pytest

import repro
from repro.analysis import find_loop_nests
from repro.analysis.loops import trip_count
from repro.errors import LegalityError
from repro.ir import ProgramBuilder, U32
from repro.ir.randgen import SquashNestSpec, ValueDomain, \
    random_squashable_nest
from repro.pipeline import VARIANT_PLANS, CompilationPipeline, \
    TransformedNest
from repro.pipeline.analysis import base_analyzed_dfg
from repro.pipeline.pipeline import _find_jammed_nest
from repro.transforms.unroll_and_jam import unroll_and_jam


@pytest.fixture(autouse=True)
def _fresh_caches():
    repro.clear_caches()
    yield
    repro.clear_caches()


def build_nest(m=8, n=6):
    """A jam-legal 2-nest with a scalar recurrence in the inner loop."""
    b = ProgramBuilder("jamkern")
    inp = b.array("in", (m,), U32)
    out = b.array("out", (m,), U32, output=True)
    x = b.local("x", U32)
    with b.loop("i", 0, m) as i:
        b.assign(x, inp[i])
        with b.loop("j", 0, n) as j:
            b.assign(x, (b.var("x") + j) * 3)
        out[i] = b.var("x")
    prog = b.build()
    return prog, find_loop_nests(prog)[0]


def build_outer_carried():
    """Outer-carried scalar: jam-illegal (check_outer_parallel fails)."""
    b = ProgramBuilder("carried")
    out = b.array("out", (8,), U32, output=True)
    x = b.local("x", U32)
    b.assign(x, 0)
    with b.loop("i", 0, 8) as i:
        with b.loop("j", 0, 4):
            b.assign(x, b.var("x") + 1)
        out[i] = b.var("x")
    prog = b.build()
    return prog, find_loop_nests(prog)[0]


def build_trip_zero():
    b = ProgramBuilder("tripzero")
    out = b.array("out", (4,), U32, output=True)
    x = b.local("x", U32)
    with b.loop("i", 0, 0) as i:
        b.assign(x, 0)
        with b.loop("j", 0, 4):
            b.assign(x, b.var("x") + 1)
        out[i] = b.var("x")
    prog = b.build()
    return prog, find_loop_nests(prog)[0]


def _artifacts(run):
    dfg = run.analyzed.dfg
    chk = run.analyzed.check
    return {
        "point": run.point,
        "nodes": [(n.nid, n.op) for n in dfg.nodes],
        "edges": sorted((e.src.nid, e.dst.nid, e.dist) for e in dfg.edges),
        "ssa_entry": sorted(run.analyzed.ssa.entry),
        "ssa_exit": sorted(run.analyzed.ssa.exit),
        "check": (chk.ok, chk.reasons, chk.outer_trip, chk.inner_trip),
    }


def _program_level_transform(built, ds, jam, variant):
    """Jam the whole program and re-locate the fused nest in it."""
    outer_trip = trip_count(built.nest.outer) or 0
    inner_trip = trip_count(built.nest.inner) or 0
    jammed = unroll_and_jam(built.program, built.nest, ds)
    nest = _find_jammed_nest(jammed, built.nest, ds, outer_trip)
    if nest is None:
        raise LegalityError("jammed nest not found")
    return TransformedNest(variant=variant, program=jammed, nest=nest,
                           ds=ds, jam=jam, outer_trip=outer_trip,
                           inner_trip=inner_trip)


def _program_level_analyze(t, target, cache):
    return base_analyzed_dfg(t.program, t.nest, cache=cache)


#: The ``jam`` plan with the program-level route in place of derivation.
PROGRAM_LEVEL_JAM = dataclasses.replace(
    VARIANT_PLANS["jam"], transform=_program_level_transform,
    analyze=_program_level_analyze)


def _each_route(monkeypatch, run):
    """``run()`` under the program-level route, then the pipeline's."""
    out = []
    for plan in (PROGRAM_LEVEL_JAM, VARIANT_PLANS["jam"]):
        repro.clear_caches()
        monkeypatch.setenv("REPRO_ANALYSIS_CACHE", "mem")
        with monkeypatch.context() as m:
            m.setitem(VARIANT_PLANS, "jam", plan)
            out.append(run())
    return out


def _run_both(monkeypatch, prog, nest, factor, **kw):
    return _each_route(monkeypatch, lambda: CompilationPipeline(**kw).run(
        prog, nest, "jam", ds=factor))


class TestDerivedJamParity:
    @pytest.mark.parametrize("factor", [1, 2, 3, 4, 8, 11])
    def test_identical_artifacts_all_factors(self, monkeypatch, factor):
        prog, nest = build_nest()
        slow, fast = _run_both(monkeypatch, prog, nest, factor)
        assert not slow.transformed.derived_jam
        assert fast.transformed.derived_jam
        assert _artifacts(slow) == _artifacts(fast)

    def test_factor_above_trip_clamps_identically(self, monkeypatch):
        prog, nest = build_nest(m=3)
        slow, fast = _run_both(monkeypatch, prog, nest, 5)
        assert _artifacts(slow) == _artifacts(fast)

    def test_vliw_target_parity(self, monkeypatch):
        from repro.nimble.target import decode_target

        prog, nest = build_nest()
        slow, fast = _run_both(monkeypatch, prog, nest, 2,
                               target=decode_target("vliw4"))
        assert _artifacts(slow) == _artifacts(fast)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_nests_identical(self, monkeypatch, seed):
        rng = random.Random(seed)
        prog, outer = random_squashable_nest(rng, SquashNestSpec(),
                                             ValueDomain())
        nest = next(n for n in find_loop_nests(prog) if n.outer is outer)
        for factor in (2, 3):
            slow, fast = _run_both(monkeypatch, prog, nest, factor)
            assert _artifacts(slow) == _artifacts(fast), \
                f"seed {seed} factor {factor}"


class TestDerivedJamErrors:
    def _errors_both(self, monkeypatch, prog, nest, factor):
        def run():
            with pytest.raises(LegalityError) as exc:
                CompilationPipeline().run(prog, nest, "jam", ds=factor)
            return str(exc.value), list(exc.value.reasons)
        return _each_route(monkeypatch, run)

    def test_outer_carried_scalar_same_rejection(self, monkeypatch):
        prog, nest = build_outer_carried()
        slow, fast = self._errors_both(monkeypatch, prog, nest, 2)
        assert slow == fast
        assert "unroll-and-jam rejected" in slow[0]

    def test_trip_zero_same_rejection(self, monkeypatch):
        prog, nest = build_trip_zero()
        slow, fast = self._errors_both(monkeypatch, prog, nest, 2)
        assert slow == fast
        assert "jammed nest not found" in slow[0]

    def test_bad_factor_same_rejection(self, monkeypatch):
        prog, nest = build_nest()
        slow, fast = self._errors_both(monkeypatch, prog, nest, 0)
        assert slow == fast
        assert "jam factor must be >= 1" in slow[0]


class TestDerivedJamMechanics:
    def test_fused_nest_matches_program_transform(self):
        from repro.core.jamdfg import fused_nest
        from repro.core.squash import locate_jammed_nest
        from repro.ir.printer import stmt_to_str
        from repro.transforms.unroll_and_jam import unroll_and_jam

        prog, nest = build_nest()
        jammed = unroll_and_jam(prog, nest, 2)
        real = locate_jammed_nest(jammed, nest, 2)
        synth, _shim = fused_nest(prog, nest, 2)
        assert stmt_to_str(synth.outer) == stmt_to_str(real.outer)

    def test_original_program_not_mutated(self):
        from repro.ir.printer import program_to_str

        prog, nest = build_nest()
        before = program_to_str(prog)
        locals_before = dict(prog.locals)
        CompilationPipeline().run(prog, nest, "jam", ds=3)
        assert program_to_str(prog) == before
        assert prog.locals == locals_before

    def test_duplicate_outer_var_falls_back(self):
        # two nests sharing the outer IV: the fast path must defer to
        # the program-level route (nest re-location could mismatch)
        b = ProgramBuilder("dup")
        inp = b.array("in", (8,), U32)
        out = b.array("out", (8,), U32, output=True)
        x = b.local("x", U32)
        with b.loop("i", 0, 8) as i:
            b.assign(x, inp[i])
            with b.loop("j", 0, 4) as j:
                b.assign(x, b.var("x") + j)
            out[i] = b.var("x")
        with b.loop("i", 0, 8) as i:
            b.assign(x, inp[i])
            with b.loop("j", 0, 4) as j:
                b.assign(x, b.var("x") * 2 + j)
            out[i] = b.var("x") + out[i]
        prog = b.build()
        nest = find_loop_nests(prog)[0]
        run = CompilationPipeline().run(prog, nest, "jam", ds=2)
        assert not run.transformed.derived_jam
        assert run.transformed.program is not prog

    def test_disk_tier_round_trips(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_ANALYSIS_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        prog, nest = build_nest()
        cold = CompilationPipeline().run(prog, nest, "jam", ds=2)
        repro.clear_caches(memory_only=True)
        warm = CompilationPipeline().run(prog, nest, "jam", ds=2)
        assert _artifacts(cold) == _artifacts(warm)
