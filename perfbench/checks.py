"""Inputs, output checks and result-quality metrics.

Everything here runs in the benchmark's parent process, outside every
timed region.  The references the checks compare against are not
produced by the timed code: the committed Table 6.2/6.3 goldens, a
re-run under the independent ``REPRO_VERIFY=strict`` re-verifier, and
the IR interpreter behind :func:`repro.lang.fuzz.differential_check`.
"""

from __future__ import annotations

import math
import os
import random

#: fuzz-explore: kernels generated per seed.  Kernel ``k`` of seed ``s``
#: has the shape ``SourceNestSpec.sample(Random(k))`` (trip counts,
#: recurrence width, op count, ROM use), the same for every seed, and
#: a body drawn from ``Random(s * SEED_STRIDE + k)``: it is the program
#: ``differential_check(s * SEED_STRIDE + k, spec=shape)`` builds.
#: Fixing the shapes keeps a run's amount of work the same from seed
#: to seed; with shapes drawn per seed too, the sweep's length moved
#: by 30% between seeds.
FUZZ_KERNELS = 48
SEED_STRIDE = 1000


def kernels(seed: int) -> list:
    """``(kernel seed, shape)`` of each generated kernel, in file order."""
    from repro.lang.fuzz import SourceNestSpec

    return [(seed * SEED_STRIDE + k, SourceNestSpec.sample(random.Random(k)))
            for k in range(FUZZ_KERNELS)]


def write_fuzz_sources(seed: int, directory: str) -> list:
    """Write the seed's generated kernels as ``.lang`` files; returns
    :func:`kernels` of the seed."""
    from repro.lang.fuzz import random_source_nest

    os.makedirs(directory, exist_ok=True)
    made = kernels(seed)
    for k, (kseed, shape) in enumerate(made):
        text = random_source_nest(random.Random(kseed), shape)
        with open(os.path.join(directory, f"k{k:03d}.lang"), "w",
                  encoding="utf-8") as fh:
            fh.write(text)
    return made


def differential(made: list) -> list:
    """Interpreter-referenced differential check of every fuzz kernel
    on both targets; returns the failure descriptions."""
    from repro.lang.fuzz import differential_check

    problems = []
    for kseed, shape in made:
        for target in ("acev", "vliw4"):
            problems += differential_check(kseed, target, spec=shape)
    return problems


def _is_point(r) -> bool:
    from repro.hw.report import DesignPoint
    return isinstance(r, DesignPoint)


def _with_base_ii(queries, results):
    """The results with each group's original II attached, as Table
    6.3 costs them (on copies: the caller's list is not mutated)."""
    import copy

    from repro.explore import ExploreResult

    res = ExploreResult(queries=list(queries), results=copy.deepcopy(results))
    res.attach_base_ii()
    return res


def quality(queries, results) -> dict:
    """answered/compiled fractions and Table 6.3 geometric means."""
    from repro.explore import SkipRecord
    from repro.harness.experiments import normalize

    n = len(queries)
    compiled = sum(1 for r in results if _is_point(r))
    answered = compiled + sum(1 for r in results if isinstance(r, SkipRecord))
    res = _with_base_ii(queries, results)
    originals = {(q.kernel, q.target_spec): r for q, r in res.pairs()
                 if q.variant == "original" and _is_point(r)}
    logs_s, logs_e = [], []
    for q, r in res.pairs():
        base = originals.get((q.kernel, q.target_spec))
        if q.variant == "original" or not _is_point(r) or base is None:
            continue
        norm = normalize(base, r)
        logs_s.append(math.log(norm.speedup))
        logs_e.append(math.log(norm.efficiency))
    return {
        "answered_frac": answered / n,
        "compiled_frac": compiled / n,
        "speedup_geomean": math.exp(sum(logs_s) / len(logs_s)),
        "efficiency_geomean": math.exp(sum(logs_e) / len(logs_e)),
    }


def golden_problems(queries, results, golden_dir: str) -> list:
    """Byte-compare the acev DS=2 slice with the committed goldens."""
    from repro.harness.experiments import (
        format_table_6_2, format_table_6_3, run_table_6_3,
    )
    from repro.nimble import VariantSet, decode_target

    res = _with_base_ii(queries, results)
    by_kernel: dict = {}
    for q, r in res.pairs():
        if q.target_spec != "acev":
            continue
        slot = by_kernel.setdefault(q.kernel, {"squash": {}, "jam": {}})
        if q.variant in ("original", "pipelined"):
            slot[q.variant] = r
        elif q.ds == 2:
            slot[q.variant][2] = r
    target = decode_target("acev")
    sweep = {k: VariantSet(kernel=k, target=target, original=v["original"],
                           pipelined=v["pipelined"], squash=v["squash"],
                           jam=v["jam"])
             for k, v in by_kernel.items()}
    problems = []
    for name, text in (("6_2", format_table_6_2(sweep)),
                       ("6_3", format_table_6_3(run_table_6_3(sweep)))):
        path = os.path.join(golden_dir, f"golden_table_{name}_f2.txt")
        with open(path, encoding="utf-8") as fh:
            if fh.read() != text:
                problems.append(f"table {name.replace('_', '.')} f2 slice "
                                f"differs from {path}")
    return problems


def fails(results) -> list:
    from repro.explore import FailRecord
    return [r for r in results if isinstance(r, FailRecord)]
