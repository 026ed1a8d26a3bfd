"""Pure-Python scheduler oracle for the parity tests.

The loop-by-loop forms of the algorithms that :mod:`repro.hw.sched_kernel`
runs over dense arrays: one modulo placement pass, the edge-violation
scan, the repair loop and II search, the list scheduler's cycle walk,
ASAP/ALAP slack levels and the backtracking orders built from them, and
the sequential Bellman-Ford RecMII probe.  They share no code with the
production core beyond the DFG, operator-library and schedule data
classes, so any difference between the two is a bug in one of them.

Everything here is deliberately naive (dict lookups, per-cycle probing,
whole-graph Bellman-Ford); it is only ever run on test-sized graphs.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.core.dfg import DFG, DFGNode
from repro.errors import ScheduleError
from repro.hw.listsched import ListSchedule
from repro.hw.mii import EdgeView, default_edge_view
from repro.hw.modulo import ModuloSchedule
from repro.hw.ops import OperatorLibrary

#: Repair rounds per (II, order) before the candidate is abandoned
#: (the production search's budget).
REPAIR_ROUNDS = 8


def delay_map(dfg: DFG, lib: OperatorLibrary) -> dict[int, int]:
    return {n.nid: lib.delay(n) for n in dfg.nodes}


# ---------------------------------------------------------------------------
# Modulo placement, violation scan, repair loop, II search
# ---------------------------------------------------------------------------

def attempt(dfg: DFG, edges: EdgeView, lib: OperatorLibrary, ii: int,
            extra: dict[int, int],
            order: Optional[list[DFGNode]] = None
            ) -> Optional[ModuloSchedule]:
    """One placement pass at a fixed II.

    Nodes are placed in ``order`` (default: topological order of the
    distance-0 subgraph) at the latest of their repair slack and their
    placed predecessors' ready times; predecessors not yet placed are
    ignored (the repair loop catches the resulting violations).  A
    resource-using node then advances cycle by cycle until its ``time
    mod II`` row has a free slot in every resource it occupies; after II
    steps every row has been probed, so the pass gives up (``None``).
    """
    dmap = delay_map(dfg, lib)
    preds: dict[int, list[tuple[int, int]]] = {n.nid: [] for n in dfg.nodes}
    for s, d, dist in edges:
        preds[d.nid].append((s.nid, dist))
    slots = lib.resource_slots()

    time: dict[int, int] = {}
    rt: dict[str, dict[int, int]] = {r: {} for r in slots}
    length = 0
    for node in (order if order is not None else dfg.topo_order()):
        nid = node.nid
        t = extra.get(nid, 0)
        for snid, dist in preds[nid]:
            if snid in time:
                t = max(t, time[snid] + dmap[snid] - ii * dist)
        t = max(t, 0)
        res = lib.node_resources(node)
        if res:
            for _ in range(ii):
                row = t % ii
                if all(rt[r].get(row, 0) < slots[r] for r in res):
                    break
                t += 1
            else:
                return None
            for r in res:
                rt[r][row] = rt[r].get(row, 0) + 1
        time[nid] = t
        length = max(length, t + dmap[nid])
    return ModuloSchedule(ii=ii, time=time, rec_mii=0, res_mii=0,
                          mrt=rt.get("mem", {}), rt=rt, length=length)


def violations(dfg: DFG, edges: EdgeView, lib: OperatorLibrary,
               sched: ModuloSchedule
               ) -> list[tuple[DFGNode, DFGNode, int]]:
    """Edges with ``t(dst) + II*dist < t(src) + delay(src)``, in order."""
    dmap = delay_map(dfg, lib)
    return [(s, d, dist) for s, d, dist in edges
            if sched.time[d.nid] + sched.ii * dist
            < sched.time[s.nid] + dmap[s.nid]]


def place_with_repair(dfg: DFG, edges: EdgeView, lib: OperatorLibrary,
                      ii: int, order: Optional[list[DFGNode]] = None,
                      rounds: int = REPAIR_ROUNDS
                      ) -> tuple[Optional[ModuloSchedule], int]:
    """Attempt/verify/repair at one (II, order).

    Returns the violation-free schedule (or ``None``) and the number of
    placement passes spent.  Each failed verification raises the slack
    of every violated edge's sink to what the edge needs; when nothing
    grows, every further round would replay the same placement, so the
    candidate is abandoned.
    """
    dmap = delay_map(dfg, lib)
    extra: dict[int, int] = {}
    passes = 0
    for _ in range(rounds):
        passes += 1
        sched = attempt(dfg, edges, lib, ii, extra, order=order)
        if sched is None:
            return None, passes
        bad = violations(dfg, edges, lib, sched)
        if not bad:
            return sched, passes
        grew = False
        for s, d, dist in bad:
            need = sched.time[s.nid] + dmap[s.nid] - ii * dist
            if need > extra.get(d.nid, 0):
                extra[d.nid] = need
                grew = True
        if not grew:
            return None, passes
    return None, passes


def search(dfg: DFG, lib: OperatorLibrary, edges: EdgeView,
           orders: list[Optional[list[DFGNode]]],
           max_ii: Optional[int] = None,
           min_ii: Optional[int] = None) -> ModuloSchedule:
    """The II search: every order at every candidate II from
    ``max(RecMII, ResMII, min_ii)`` up, without any memo."""
    dmap = delay_map(dfg, lib)
    rmii = rec_mii(dfg, lambda n: dmap[n.nid], edges)
    smii = res_mii(dfg, lib)
    start_ii = max(rmii, smii, min_ii or 1)
    limit = max_ii or max(start_ii, sum(dmap.values())) + 1
    for ii in range(start_ii, limit + 1):
        for order in orders:
            sched, _ = place_with_repair(dfg, edges, lib, ii, order)
            if sched is not None:
                sched.rec_mii, sched.res_mii = rmii, smii
                return sched
    raise ScheduleError(f"no modulo schedule found up to II={limit}")


# ---------------------------------------------------------------------------
# MII bounds
# ---------------------------------------------------------------------------

def probe_exceeding(nids: list[int], arcs: list[tuple[int, int, int, int]],
                    lam: int) -> bool:
    """Is there a cycle with ``sum(delay) > lam * sum(distance)``?

    Sequential Bellman-Ford negative-cycle detection over the
    ``(u, v, delay(u), dist)`` arcs with integer weights
    ``lam*dist - delay``: still relaxing after ``n`` passes means a
    negative cycle.
    """
    dist_map = {nid: 0 for nid in nids}
    for _ in range(len(nids)):
        changed = False
        for u, v, dly, dd in arcs:
            t = dist_map[u] - dly + lam * dd
            if t < dist_map[v]:
                dist_map[v] = t
                changed = True
        if not changed:
            return False
    return True


def has_cycle_exceeding(edges: EdgeView, delay: Callable[[DFGNode], int],
                        lam: int) -> bool:
    """:func:`probe_exceeding` over a raw edge view."""
    nids: dict[int, None] = {}
    for s, d, _ in edges:
        nids[s.nid] = None
        nids[d.nid] = None
    arcs = [(s.nid, d.nid, delay(s), dd) for s, d, dd in edges]
    return probe_exceeding(list(nids), arcs, lam)


def rec_mii(dfg: DFG, delay: Callable[[DFGNode], int],
            edges: Optional[EdgeView] = None) -> int:
    """Smallest lambda with no exceeding cycle, by binary search over
    the whole graph (no SCC decomposition)."""
    edges = list(edges if edges is not None else default_edge_view(dfg))
    lo, hi = 1, sum(delay(n) for n in dfg.nodes) + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if has_cycle_exceeding(edges, delay, mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


def res_mii(dfg: DFG, lib: OperatorLibrary) -> int:
    slots = lib.resource_slots()
    uses = lib.resource_use_counts(dfg.nodes)
    return max([1] + [math.ceil(c / slots[r]) for r, c in uses.items()])


# ---------------------------------------------------------------------------
# List scheduling
# ---------------------------------------------------------------------------

def list_schedule(dfg: DFG, lib: OperatorLibrary) -> ListSchedule:
    """ASAP placement of the distance-0 subgraph under resource limits,
    walking absolute cycles one at a time."""
    preds: dict[int, list[DFGNode]] = {n.nid: [] for n in dfg.nodes}
    for e in dfg.edges:
        if e.dist == 0:
            preds[e.dst.nid].append(e.src)
    slots = lib.resource_slots()
    usage: dict[str, dict[int, int]] = {r: {} for r in slots}
    time: dict[int, int] = {}
    for node in dfg.topo_order():
        t = 0
        for src in preds[node.nid]:
            t = max(t, time[src.nid] + lib.delay(src))
        res = lib.node_resources(node)
        if res:
            while any(usage[r].get(t, 0) >= slots[r] for r in res):
                t += 1
            for r in res:
                usage[r][t] = usage[r].get(t, 0) + 1
        time[node.nid] = t
    length = max((time[n.nid] + lib.delay(n) for n in dfg.nodes), default=0)
    return ListSchedule(time=time, length=max(length, 1),
                        port_usage=usage.get("mem", {}),
                        resource_usage=usage)


# ---------------------------------------------------------------------------
# Backtracking orders
# ---------------------------------------------------------------------------

def slack_levels(dfg: DFG, edges: EdgeView, lib: OperatorLibrary
                 ) -> tuple[dict[int, int], dict[int, int], int]:
    """ASAP/ALAP levels of the view's distance-0 subgraph by one
    topological pass each way."""
    delay = lib.delay
    topo = dfg.topo_order()
    preds: dict[int, list[DFGNode]] = {n.nid: [] for n in dfg.nodes}
    succs: dict[int, list[DFGNode]] = {n.nid: [] for n in dfg.nodes}
    for s, d, dist in edges:
        if dist == 0:
            preds[d.nid].append(s)
            succs[s.nid].append(d)
    asap: dict[int, int] = {}
    for n in topo:
        asap[n.nid] = max([0] + [asap[p.nid] + delay(p)
                                 for p in preds[n.nid]])
    length = max((asap[n.nid] + delay(n) for n in dfg.nodes), default=0)
    alap: dict[int, int] = {}
    for n in reversed(topo):
        alap[n.nid] = min([length - delay(n)]
                          + [alap[d.nid] - delay(n) for d in succs[n.nid]
                             if d.nid in alap])
    return asap, alap, length


def slack_orders(dfg: DFG, edges: EdgeView, lib: OperatorLibrary
                 ) -> list[list[DFGNode]]:
    """Least-slack-first, then most-contended-first, each kept only when
    it differs from the topological order and from the ones before."""
    topo = dfg.topo_order()
    asap, alap, _ = slack_levels(dfg, edges, lib)
    slack = {n.nid: alap[n.nid] - asap[n.nid] for n in topo}
    by_slack = sorted(topo, key=lambda n: (slack[n.nid], asap[n.nid], n.nid))
    slots = lib.resource_slots()
    uses = lib.resource_use_counts(dfg.nodes)
    pressure = {n.nid: max((uses[r] / slots[r]
                            for r in lib.node_resources(n)), default=0.0)
                for n in topo}
    contended = sorted(topo, key=lambda n: (-pressure[n.nid], slack[n.nid],
                                            asap[n.nid], n.nid))
    orders, seen = [], {tuple(n.nid for n in topo)}
    for order in (by_slack, contended):
        key = tuple(n.nid for n in order)
        if key not in seen:
            seen.add(key)
            orders.append(order)
    return orders


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

def schedule(name: str, dfg: DFG, lib: OperatorLibrary,
             edges: Optional[EdgeView] = None,
             max_ii: Optional[int] = None,
             min_ii: Optional[int] = None) -> "ModuloSchedule | ListSchedule":
    """The oracle's answer for the ``list``/``modulo``/``backtrack``
    strategies of :mod:`repro.hw.schedulers`."""
    if name == "list":
        return list_schedule(dfg, lib)
    edges = edges if edges is not None else default_edge_view(dfg)
    orders: list[Optional[list[DFGNode]]] = [None]
    if name == "backtrack":
        orders += slack_orders(dfg, edges, lib)
    elif name != "modulo":
        raise KeyError(f"the oracle has no {name!r} strategy")
    return search(dfg, lib, edges, orders, max_ii=max_ii, min_ii=min_ii)


class OracleScheduler:
    """A registry-shaped wrapper, so a whole pipeline run can be pointed
    at the oracle (``monkeypatch.setitem(schedulers._REGISTRY, ...)``)."""

    def __init__(self, name: str):
        self.name = name
        self.pipelined = name != "list"

    def schedule(self, dfg, lib, edges=None, max_ii=None, min_ii=None):
        return schedule(self.name, dfg, lib, edges=edges, max_ii=max_ii,
                        min_ii=min_ii)
