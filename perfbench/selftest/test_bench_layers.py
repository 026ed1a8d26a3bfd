"""The per-layer wrappers intercept what they claim to, and only observe.

Every per-layer metric ``spec.json`` predicts nonzero must be nonzero on
its "most work" workload, every metric it predicts 0 must be 0, and a
traced repetition must return the untraced results.
"""

from __future__ import annotations

import json
import os

import pytest

import layers
import run

with open(os.path.join(run.HERE, "spec.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _predictions():
    nonzero, zero = [], []
    for entry in SPEC["layers"]:
        most = entry["most"]
        if most is not None:
            workloads = run.WORKLOADS if most == "all" else (most,)
            nonzero += [(w, m) for w in workloads for m in entry["metrics"]]
        zero += [(w, m) for w in entry.get("zero", ())
                 for m in entry["metrics"]]
        zero += [(w, m) for m, ws in entry.get("zero_metrics", {}).items()
                 for w in ws]
    return nonzero, zero


NONZERO, ZERO = _predictions()
_VALUES: dict = {}


def _values(runs, workload):
    if workload not in _VALUES:
        _VALUES[workload] = layers.per_layer(runs.traced(workload))
    return _VALUES[workload]


def test_predictions_name_declared_metrics():
    with open(run.SPEC, encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    named = {m for entry in SPEC["layers"] for m in entry["metrics"]}
    assert named == declared


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_only_observes(runs, workload):
    traced = runs.traced(workload)
    assert traced["error"] is None
    assert traced["results"] == runs.plain(workload)["results"]


@pytest.mark.parametrize("workload,metric", NONZERO)
def test_predicted_nonzero(runs, workload, metric):
    assert _values(runs, workload)[metric] > 0


@pytest.mark.parametrize("workload,metric", ZERO)
def test_predicted_zero(runs, workload, metric):
    assert _values(runs, workload)[metric] == 0


def test_wrappers_are_removable():
    """install() wraps every named entry point and uninstall() restores
    the originals, so a moved entry point fails loudly."""
    import repro.hw.modulo as modulo

    original = modulo.rec_mii
    undo = layers.install()
    try:
        assert modulo.rec_mii is not original
        assert modulo.rec_mii.__wrapped__ is original
    finally:
        layers.uninstall(undo)
    assert modulo.rec_mii is original
