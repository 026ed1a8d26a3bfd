"""The inline workloads repeat exactly: two fresh runs give the same
results, the same deterministic metrics and the same registry counts."""

from __future__ import annotations

import pytest

import checks
import run


@pytest.mark.parametrize("workload", run.INLINE)
def test_inline_workload_repeats_exactly(runs, workload):
    first, second = runs.plain(workload, 0), runs.plain(workload, 1)
    assert first["error"] is None and second["error"] is None
    assert first["results"] == second["results"]
    assert checks.quality(first["queries"], first["results"]) == \
        checks.quality(second["queries"], second["results"])
    assert first["cache_disk_mb"] == second["cache_disk_mb"]
    assert first["counters"] == second["counters"]
    assert first["counters"], "the registry counted nothing"


def test_repeats_agree_across_hash_seeds(tmp_path):
    """Results do not depend on the interpreter's hash seed."""
    bench = run.Bench("paper-cold", 0, str(tmp_path))
    bench.prepare()
    a = bench.child(env={"PYTHONHASHSEED": "1"})
    b = bench.child(env={"PYTHONHASHSEED": "2"})
    assert a["results"] == b["results"]
    assert a["counters"] == b["counters"]
