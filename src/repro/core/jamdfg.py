"""DFG-level unroll-and-jam: derive the jammed base analysis directly.

The pipeline's ``jam`` variant historically went the long way around:
clone the whole program, splice in the fused loop
(:func:`repro.transforms.unroll_and_jam.unroll_and_jam`), re-discover
the fused nest in the clone, then run the generic base analysis —
another whole-program clone, three-address lowering, SSA renaming, and
DFG construction — on the result.  Profiling the cold Table 6.2 sweep
puts that re-lowering (plus the jammed nest's O(copies²) dependence-pair
enumeration) at more than half the front-end time, even though the only
artifact any downstream stage consumes is the fused *inner loop's* DFG.

This module derives that DFG without materializing the jammed program.
It builds only the fused **nest** — using the very same copy/substitute/
rename logic the program-level transform applies, on clones of the
original nest's statements — and then runs the ordinary analysis
machinery (legality classification, 3AC lowering, SSA renaming,
``build_dfg``) over it with a lightweight *shim* program supplying the
symbol tables.  Because every step from the fused statements onward is
the real code path operating on content-identical input, the resulting
:class:`~repro.pipeline.analysis.BaseAnalysis` — DFG node ids, SSA
names, ``t3_*`` temporaries, legality reason strings — is identical to
what the program-level route produces, which
``tests/pipeline/test_jamdfg.py`` checks by running that route
(:func:`~repro.transforms.unroll_and_jam.unroll_and_jam`, nest
re-location, base analysis) beside this one.  The pipeline still takes
the program-level route when another nest shares the outer induction
variable, where re-locating the fused nest could pick a different loop.

What is skipped, and why it is sound:

* the two whole-program clones (only the nest's statements are cloned);
* the jammed program's dependence-**pair** enumeration
  (``prepare_squash(..., pairs=False)``): the base analysis classifies
  at DS=1, where no distance set can intersect the ±0 window excluding
  zero, so the pair list never contributes a failure;
* content-keying and disk-pickling of the jammed program (the derived
  analysis is cached under its own ``jamdfg-`` key instead).

Jam *legality* (structure, §4.2 outer parallelism, constant trip) is
NOT skipped: the same checks run, in the same order, raising the same
errors as the program-level transform.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.loops import LoopNest, trip_count
from repro.analysis.parallel import check_outer_parallel
from repro.analysis.ssa import ssa_rename
from repro.analysis.usedef import loop_liveness
from repro.core.dfg import build_dfg
from repro.core.legality import classify_squash, prepare_squash
from repro.errors import LegalityError
from repro.ir.nodes import (
    BinOp, Block, Const, For, Program, Stmt, Var,
)
from repro.ir.visitors import (
    clone_expr, clone_stmt, rename_vars, substitute, variables_read,
)
from repro.transforms.three_address import is_three_address, lower_block_to_3ac
from repro.transforms.unroll_and_jam import _check_structure, \
    jam_privatized_names

__all__ = ["derive_jam_base", "fused_nest"]


def fused_nest(program: Program, nest: LoopNest, factor: int
               ) -> tuple[LoopNest, Program]:
    """The fused (outer, inner) pair unroll-and-jam would produce.

    Returns the synthetic nest plus the shim program that carries its
    symbol tables (original params/arrays, copied locals extended with
    the per-copy privatized scalars).  The nest is built from clones of
    the original nest's statements with the transform's own
    substitution/renaming rules, so it is statement-for-statement
    identical to the fused loop inside a really-jammed program.
    ``factor`` must already be clamped to the outer trip count.
    """
    outer, inner = nest.outer, nest.inner
    trip = trip_count(outer)
    if trip is None or not 1 <= factor <= trip:
        raise LegalityError(
            f"jam factor {factor} is not within the outer trip count "
            f"({trip}); the caller must clamp before deriving")
    main_trips = (trip // factor) * factor
    lo = int(outer.lo.value)        # type: ignore[union-attr]
    step = outer.step

    privatized = jam_privatized_names(nest)
    # the shim shares the (never-mutated) arrays and copies the scalar
    # tables: 3AC lowering declares its temps into `locals`, and the
    # per-copy renames must be declared before lowering so the temp
    # collision-avoidance scan sees the same names the real path does
    shim = Program(name=program.name, params=dict(program.params),
                   arrays=program.arrays, body=Block(),
                   locals=dict(program.locals))
    for k in range(1, factor):
        for v in privatized:
            shim.declare_local(f"{v}__u{k}", shim.scalar_type(v))

    def copy_stmts(stmts: list[Stmt], k: int) -> list[Stmt]:
        out = []
        for s in stmts:
            c = clone_stmt(s)
            if k:
                c = substitute(c, {outer.var: BinOp(
                    "add", Var(outer.var, outer.lo.ty),
                    Const(k * step, outer.lo.ty))})
                c = rename_vars(c, {v: f"{v}__u{k}" for v in privatized})
            out.append(c)
        return out

    pre: list[Stmt] = []
    post: list[Stmt] = []
    inner_body: list[Stmt] = []
    for k in range(factor):
        pre.extend(copy_stmts(nest.pre_stmts(), k))
        inner_body.extend(copy_stmts(list(inner.body.stmts), k))
        post.extend(copy_stmts(nest.post_stmts(), k))

    fused_inner = For(inner.var, clone_expr(inner.lo), clone_expr(inner.hi),
                      Block(inner_body), inner.step, dict(inner.annotations))
    jammed = For(outer.var, Const(lo, outer.lo.ty),
                 Const(lo + main_trips * step, outer.hi.ty),
                 Block(pre + [fused_inner] + post),
                 step * factor, dict(outer.annotations))
    return LoopNest(jammed, fused_inner), shim


def derive_jam_base(program: Program, nest: LoopNest, factor: int):
    """Jam legality + the fused nest's base analysis, program-free.

    Returns a :class:`~repro.pipeline.analysis.BaseAnalysis` of the
    fused inner loop (artifacts ``None`` with the failure recorded in
    ``check1`` when the *base* legality of the fused nest fails, exactly
    like the generic base builder), or ``None`` for ``factor == 1`` —
    the degenerate jam analyzes a clone of the untransformed nest, so
    the caller should fall through to the ordinary base analysis of the
    original nest.

    Raises :class:`LegalityError` for jam-level rejections with the
    identical messages, in the identical order, as the program-level
    ``unroll_and_jam`` + nest-relocation route.
    """
    from repro.pipeline.analysis import BaseAnalysis

    if factor < 1:
        raise LegalityError("jam factor must be >= 1")
    _check_structure(nest)
    rep = check_outer_parallel(program, nest, factor)
    if not rep.ok:
        raise LegalityError("unroll-and-jam rejected", rep.reasons)
    trip = trip_count(nest.outer)
    if trip is None:
        raise LegalityError("unroll-and-jam requires a constant outer "
                            "trip count")
    if factor == 1:
        return None
    if trip == 0:
        # the program-level route leaves a trip-0 nest untransformed and
        # then fails to re-locate a fused loop with the grown step
        raise LegalityError("jammed nest not found")

    fused, shim = fused_nest(program, nest, min(factor, trip))

    # base (DS=1) legality of the fused nest: the real preparation and
    # classification, minus the pair enumeration (vacuous at DS=1)
    check1 = classify_squash(prepare_squash(shim, fused, pairs=False), 1)
    if not check1.ok:
        return BaseAnalysis(check1=check1)

    # analyze_front on the fused nest, sans the whole-program clone (the
    # fused statements are already private clones)
    w_inner = fused.inner
    if not is_three_address(w_inner.body):
        w_inner.body = lower_block_to_3ac(shim, w_inner.body)
    extra = set()
    if w_inner.var in variables_read(w_inner.body):
        extra.add(w_inner.var)
    ssa = ssa_rename(w_inner.body, shim.scalar_type, extra_live_in=extra)

    live = check1.require_liveness()
    rom_arrays = frozenset(n for n, d in shim.arrays.items() if d.rom)
    carried = {x for x in live.carried if x in ssa.entry}
    invariant = {x for x in ssa.entry
                 if x not in carried and x != w_inner.var}
    dfg = build_dfg(ssa, carried, invariant, rom_arrays,
                    inner_iv=w_inner.var if w_inner.var in ssa.entry else None,
                    iv_step=w_inner.step)
    return BaseAnalysis(check1=check1, work=shim, w_nest=fused, ssa=ssa,
                        dfg=dfg, carried=carried, invariant=invariant)
