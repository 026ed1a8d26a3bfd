"""Human-readable summaries of traces and metrics (``repro stats``).

Renders three things from the same inputs:

* :func:`format_stats` — per-stage/per-kernel duration percentiles,
  cache hit rates, scheduler attempt counts, and supervision tallies
  from a metrics snapshot (live registry or the ``reproMetrics`` block
  embedded in an exported trace);
* :func:`summarize_events` — per-category/per-name event counts and
  total span time from a ``traceEvents`` list (``repro trace``);
* :func:`format_knobs` — the registered environment-knob table from
  :data:`repro.env.KNOBS` (``repro stats --knobs``), the same source of
  truth the README renders.

Everything is plain text tables; no dependencies beyond stdlib.
"""

from __future__ import annotations

from typing import Optional

from repro.env import KNOBS
from repro.obs.metrics import percentile

__all__ = ["format_knobs", "format_stats", "summarize_events"]


def _fmt_s(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1e3:.1f}ms"


def _table(headers: "list[str]", rows: "list[list[str]]") -> "list[str]":
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells: "list[str]") -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return out


def _hist_rows(histograms: dict, prefix: str) -> "list[list[str]]":
    rows = []
    for name in sorted(histograms):
        if not name.startswith(prefix):
            continue
        h = histograms[name]
        samples = h.get("samples", [])
        count = h.get("count", 0)
        total = h.get("sum", 0.0)
        rows.append([
            name[len(prefix):],
            str(count),
            _fmt_s(total),
            _fmt_s(total / count if count else None),
            _fmt_s(percentile(samples, 50)),
            _fmt_s(percentile(samples, 90)),
            _fmt_s(h.get("max")),
        ])
    return rows


def _rate(hits: int, misses: int) -> str:
    total = hits + misses
    if not total:
        return "-"
    return f"{100.0 * hits / total:.1f}%"


def format_stats(snapshot: dict) -> str:
    """Render a metrics snapshot as the ``repro stats`` summary."""
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})
    lines: list[str] = []

    stage_rows = _hist_rows(histograms, "stage.")
    if stage_rows:
        lines.append("Pipeline stages")
        lines.extend(_table(
            ["stage", "calls", "total", "mean", "p50", "p90", "max"],
            stage_rows))
        lines.append("")

    kernel_rows = _hist_rows(histograms, "kernel.")
    if kernel_rows:
        lines.append("Per-kernel compile time")
        lines.extend(_table(
            ["kernel", "flows", "total", "mean", "p50", "p90", "max"],
            kernel_rows))
        lines.append("")

    cache_pairs = [
        ("analysis (mem)", "analysis_mem_hits", "analysis_mem_misses"),
        ("analysis (disk)", "analysis_disk_hits", "analysis_disk_misses"),
        ("iimemo (mem)", "iimemo_mem_hits", "iimemo_mem_misses"),
        ("iimemo (disk)", "iimemo_disk_hits", "iimemo_disk_misses"),
        ("results", "explore.cache.hits", "explore.cache.misses"),
    ]
    cache_rows = []
    for label, hit_key, miss_key in cache_pairs:
        hits = counters.get(hit_key, 0)
        misses = counters.get(miss_key, 0)
        if hits or misses:
            cache_rows.append([label, str(hits), str(misses),
                               _rate(hits, misses)])
    if cache_rows:
        lines.append("Caches")
        lines.extend(_table(["cache", "hits", "misses", "hit rate"],
                            cache_rows))
        lines.append("")

    sched_keys = [
        ("II candidates tried", "sched.ii_attempts"),
        ("II memo/refutation skips", "sched.ii_memo_skips"),
        ("placement attempts", "sched.placement_attempts"),
        ("exact search nodes", "sched.exact_nodes"),
    ]
    sched_rows = [[label, str(counters[key])]
                  for label, key in sched_keys if counters.get(key)]
    if sched_rows:
        lines.append("Scheduler search effort")
        lines.extend(_table(["metric", "count"], sched_rows))
        lines.append("")

    sup_keys = [
        ("batches completed", "supervise.batches"),
        ("designs completed", "supervise.designs"),
        ("retries", "supervise.retries"),
        ("bisections", "supervise.bisects"),
        ("quarantined", "supervise.quarantined"),
        ("pool respawns", "supervise.respawns"),
        ("batch timeouts", "supervise.timeouts"),
        ("injected faults seen", "faults.injected"),
    ]
    sup_rows = [[label, str(counters[key])]
                for label, key in sup_keys if counters.get(key)]
    if sup_rows:
        lines.append("Supervision")
        lines.extend(_table(["event", "count"], sup_rows))
        lines.append("")

    if not lines:
        lines.append("no recorded metrics (was the run traced or "
                     "instrumented?)")
    return "\n".join(lines).rstrip() + "\n"


def summarize_events(events: "list[dict]") -> str:
    """Per-(cat, name) counts and span time for ``repro trace``."""
    agg: dict[tuple[str, str], list] = {}
    pids = set()
    for ev in events:
        ph = ev.get("ph")
        if ph == "M":
            continue
        pids.add(ev.get("pid"))
        key = (str(ev.get("cat", "?")), str(ev.get("name", "?")))
        rec = agg.setdefault(key, [0, 0.0])
        rec[0] += 1
        if ph == "X":
            rec[1] += ev.get("dur", 0) / 1e6
    rows = [[cat, name, str(n), _fmt_s(total) if total else "-"]
            for (cat, name), (n, total) in sorted(agg.items())]
    lines = [f"{sum(r[0] for r in agg.values())} events "
             f"from {len(pids)} process(es)", ""]
    if rows:
        lines.extend(_table(["cat", "name", "count", "span time"], rows))
    return "\n".join(lines).rstrip() + "\n"


def format_knobs() -> str:
    """The registered-knob table (``repro stats --knobs``)."""
    rows = [[k.name, k.values, k.default, k.summary] for k in KNOBS]
    return "\n".join(_table(["variable", "values", "default", "effect"],
                            rows)) + "\n"
