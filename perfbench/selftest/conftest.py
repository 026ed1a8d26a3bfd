"""Shared benchmark repetitions for the benchmark's own tests.

Each workload's repetitions run once per session, through the same
:class:`run.Bench` the benchmark uses, and are reused by every test.
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import run  # noqa: E402


class Runs:
    """Lazily made repetitions of seed 0.

    ``plain(w, i)`` is an untraced repetition of workload ``w`` made by
    the i-th :class:`run.Bench` (each with its own work directory, so
    two of them share nothing); ``traced(w)`` is a traced repetition by
    the same bench as ``plain(w, 0)``, so it sees the same input files.
    """

    def __init__(self, tmp_path_factory):
        self._tmp = tmp_path_factory
        self._benches: dict = {}
        self._memo: dict = {}

    def _bench(self, workload: str, i: int):
        if (workload, i) not in self._benches:
            bench = run.Bench(workload, 0, str(self._tmp.mktemp(workload)))
            bench.prepare()
            self._benches[workload, i] = bench
        return self._benches[workload, i]

    def plain(self, workload: str, i: int = 0) -> dict:
        if (workload, i) not in self._memo:
            self._memo[workload, i] = self._bench(workload, i).child()
        return self._memo[workload, i]

    def traced(self, workload: str) -> dict:
        if (workload, "traced") not in self._memo:
            self._memo[workload, "traced"] = \
                self._bench(workload, 0).child(trace=True)
        return self._memo[workload, "traced"]


@pytest.fixture(scope="session")
def runs(tmp_path_factory):
    return Runs(tmp_path_factory)
