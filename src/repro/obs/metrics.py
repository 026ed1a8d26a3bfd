"""Typed metrics registry: counters, gauges, histograms, collectors.

One process-wide :class:`MetricsRegistry` replaces the three divergent
ad-hoc counter mechanisms the sweep grew over time — the pipeline's
``_STAGE_TIMES``/``_STAGE_COUNTS`` dicts, the ``_cache_counters()``
snapshot assembled by hand in :mod:`repro.nimble.compiler`, and the
per-instance ``StoreStats``/``CacheStats`` dataclasses.  Every layer
now reports through the same interface:

* **counters** — monotonic, integer-valued (``sched.ii_attempts``,
  ``store.analysis.hits``, ``faults.injected.torn``);
* **gauges** — last-write-wins scalars (``explore.jobs``);
* **histograms** — duration/size distributions with a bounded sample
  reservoir, so percentiles survive the worker → supervisor merge
  (``stage.schedule`` wall seconds per pipeline flow);
* **collectors** — callables polled at snapshot time for counters whose
  source of truth lives elsewhere (the analysis LRU's hits/misses), so
  those layers keep their own state and still show up in every
  snapshot.

Workers snapshot the registry around each batch and ship the *delta*
back with their results (:func:`repro.nimble.compiler
.compile_query_batch`); the engine merges deltas into the parent
registry so a sweep's counters are global facts regardless of which
process did the work.  Metrics are always on — the cost is a few dict
operations per event, which the ``trace_overhead`` bench phase prices —
while the *span tracer* (:mod:`repro.obs.trace`) stays off by default.

Determinism: metrics only observe.  Results are byte-identical whether
or not anyone ever reads them.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "counter", "gauge", "histogram", "percentile", "registry",
           "reset_metrics"]

#: Histogram reservoir cap.  When a histogram exceeds it, the sample
#: list is decimated (every other sample dropped) and further samples
#: are recorded at the coarser stride — count/sum/min/max stay exact,
#: percentiles become approximate.  2048 doubles ≈ 16 KiB per series.
_RESERVOIR_CAP = 2048


class Counter:
    """A monotonic counter.  ``add`` never goes backwards."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> None:
        self.value += n

    def _reset(self) -> None:
        self.value = 0


class Gauge:
    """A last-write-wins scalar."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def _reset(self) -> None:
        self.value = 0.0


class Histogram:
    """A distribution: exact count/sum/min/max plus a bounded reservoir.

    The reservoir keeps every observation until :data:`_RESERVOIR_CAP`,
    then decimates to half and doubles its sampling stride, so memory
    stays bounded on million-event sweeps while percentiles remain
    representative.
    """

    __slots__ = ("name", "count", "total", "vmin", "vmax", "samples",
                 "_stride", "_skip")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None
        self.samples: list[float] = []
        self._stride = 1
        self._skip = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value
        self._skip += 1
        if self._skip >= self._stride:
            self._skip = 0
            self.samples.append(value)
            if len(self.samples) > _RESERVOIR_CAP:
                self.samples = self.samples[::2]
                self._stride *= 2

    def as_dict(self) -> dict:
        return {"count": self.count, "sum": self.total,
                "min": self.vmin, "max": self.vmax,
                "samples": list(self.samples)}

    def _reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.vmin = self.vmax = None
        self.samples = []
        self._stride = 1
        self._skip = 0


def percentile(samples: "list[float]", q: float) -> Optional[float]:
    """Nearest-rank percentile of ``samples`` (``q`` in [0, 100])."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1,
                      round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


class MetricsRegistry:
    """Process-local registry of named metric series.

    ``counter``/``gauge``/``histogram`` get-or-create by name and
    return a live object callers may cache at module level — ``reset``
    zeroes series *in place*, so cached references stay valid.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._collectors: list[Callable[[], dict]] = []

    # -- series access ----------------------------------------------------

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            with self._lock:
                c = self._counters.setdefault(name, Counter(name))
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            with self._lock:
                g = self._gauges.setdefault(name, Gauge(name))
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            with self._lock:
                h = self._histograms.setdefault(name, Histogram(name))
        return h

    def collect(self, fn: Callable[[], dict]) -> Callable[[], dict]:
        """Register a counter collector (idempotent per function).

        ``fn`` returns ``{name: int}``; its values appear in every
        snapshot's ``counters`` section.  Returns ``fn`` so it can be
        used as a decorator.
        """
        if fn not in self._collectors:
            self._collectors.append(fn)
        return fn

    # -- snapshots --------------------------------------------------------

    def counter_values(self) -> dict:
        """Direct counters plus every collector's contribution."""
        out = {name: c.value for name, c in self._counters.items()}
        for fn in self._collectors:
            for name, val in fn().items():
                out[name] = out.get(name, 0) + val
        return out

    def snapshot(self) -> dict:
        """A point-in-time copy of every series, JSON-serializable."""
        return {
            "counters": self.counter_values(),
            "gauges": {name: g.value for name, g in self._gauges.items()},
            "histograms": {name: h.as_dict()
                           for name, h in self._histograms.items()},
        }

    def delta_since(self, before: dict) -> dict:
        """The change between ``before`` (a snapshot) and now.

        Counters subtract; gauges keep their current value; histograms
        subtract count/sum and keep the samples observed since (tail of
        the reservoir), so a worker batch ships only its own work.
        Zero-change series are dropped.
        """
        now = self.snapshot()
        b_counts = before.get("counters", {})
        counters = {name: val - b_counts.get(name, 0)
                    for name, val in now["counters"].items()
                    if val - b_counts.get(name, 0)}
        b_hists = before.get("histograms", {})
        histograms = {}
        for name, h in now["histograms"].items():
            prev = b_hists.get(name, {})
            dcount = h["count"] - prev.get("count", 0)
            if not dcount:
                continue
            seen = len(prev.get("samples", ()))
            histograms[name] = {
                "count": dcount,
                "sum": h["sum"] - prev.get("sum", 0.0),
                "min": h["min"], "max": h["max"],
                "samples": h["samples"][seen:],
            }
        return {"counters": counters, "gauges": dict(now["gauges"]),
                "histograms": histograms}

    def merge(self, delta: dict) -> None:
        """Fold a worker's delta snapshot into this registry.

        Counters and histogram count/sum add; gauges last-write-win;
        histogram samples extend (the reservoir bound re-applies on the
        next local observation).  Collector-backed counter names are
        merged into *direct* counters — the collector's own source only
        tracks this process, so remote work lands beside it.
        """
        for name, val in delta.get("counters", {}).items():
            self.counter(name).add(val)
        for name, val in delta.get("gauges", {}).items():
            self.gauge(name).set(val)
        for name, rec in delta.get("histograms", {}).items():
            h = self.histogram(name)
            h.count += rec.get("count", 0)
            h.total += rec.get("sum", 0.0)
            for bound in ("min", "max"):
                val = rec.get(bound)
                if val is None:
                    continue
                if bound == "min" and (h.vmin is None or val < h.vmin):
                    h.vmin = val
                if bound == "max" and (h.vmax is None or val > h.vmax):
                    h.vmax = val
            h.samples.extend(rec.get("samples", ()))
            if len(h.samples) > _RESERVOIR_CAP:
                h.samples = h.samples[::2]
                h._stride *= 2

    def reset(self) -> None:
        """Zero every series in place (module-cached handles stay live)."""
        for c in self._counters.values():
            c._reset()
        for g in self._gauges.values():
            g._reset()
        for h in self._histograms.values():
            h._reset()

    def reset_prefix(self, prefix: str) -> None:
        """Zero (in place) every series whose name starts with ``prefix``."""
        for c in self._counters.values():
            if c.name.startswith(prefix):
                c._reset()
        for g in self._gauges.values():
            if g.name.startswith(prefix):
                g._reset()
        for h in self._histograms.values():
            if h.name.startswith(prefix):
                h._reset()

    def histogram_totals(self, prefix: str) -> "dict[str, dict]":
        """``{name-minus-prefix: {"seconds": sum, "calls": count}}``.

        The shape legacy callers (``stage_timings``) expect; zero-count
        series are skipped so a reset registry reads as empty.
        """
        out = {}
        for name, h in self._histograms.items():
            if h.count and name.startswith(prefix):
                out[name[len(prefix):]] = {"seconds": h.total,
                                           "calls": h.count}
        return out


#: The process-wide registry.  Workers inherit a fresh copy on fork/
#: spawn; their deltas flow back through the engine's payload merge.
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    return _REGISTRY


def counter(name: str) -> Counter:
    """Shorthand for ``registry().counter(name)``."""
    return _REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return _REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    return _REGISTRY.histogram(name)


def reset_metrics() -> None:
    """Zero the process registry (tests and bench phases)."""
    _REGISTRY.reset()
