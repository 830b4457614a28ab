"""Minimum initiation interval bounds.

``ResMII`` counts operations against the machine's functional units and the
register buses; ``RecMII`` is the recurrence bound: the smallest II such
that no dependence cycle has positive total ``latency - II * distance``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.arch.config import FuKind, MachineConfig
from repro.errors import SchedulingError
from repro.ir.ddg import Ddg
from repro.sched.schedule import edge_latency


def res_mii(ddg: Ddg, machine: MachineConfig) -> int:
    """Resource-constrained lower bound on the II.

    Clusters are homogeneous, so the classic bound uses pooled units; for
    pinned instructions (replicated store instances) a per-cluster bound is
    also applied, since pinning removes the scheduler's freedom to spread
    them.
    """
    per_kind: Dict[FuKind, int] = {kind: 0 for kind in FuKind}
    per_cluster_kind: Dict[tuple, int] = {}
    copies = 0
    for instr in ddg:
        if instr.is_copy:
            copies += 1
            continue
        kind = instr.fu_kind
        per_kind[kind] = per_kind.get(kind, 0) + 1
        if instr.required_cluster is not None:
            key = (instr.required_cluster, kind)
            per_cluster_kind[key] = per_cluster_kind.get(key, 0) + 1

    bound = 1
    for kind, count in per_kind.items():
        units = machine.fu_per_cluster.get(kind, 0) * machine.num_clusters
        if count and not units:
            raise SchedulingError(f"graph uses {kind} but machine has none")
        if count:
            bound = max(bound, math.ceil(count / units))
    for (cluster, kind), count in per_cluster_kind.items():
        units = machine.fu_per_cluster.get(kind, 0)
        if count and not units:
            raise SchedulingError(f"graph pins {kind} ops, machine has none")
        if count:
            bound = max(bound, math.ceil(count / units))
    if copies:
        buses = machine.register_buses
        bound = max(bound, math.ceil(copies * buses.latency / buses.count))
    return bound


def assignment_res_mii(ddg: Ddg, machine: MachineConfig, assignment) -> int:
    """Resource lower bound once clusters are fixed.

    After cluster assignment the pooled bound of :func:`res_mii` can be far
    too optimistic — e.g. an MDC chain concentrates every memory op of the
    chain in one cluster, so that cluster's single memory unit bounds the
    II.  ``assignment`` is any mapping supporting ``assignment[iid]``.
    """
    per_cluster_kind: Dict[tuple, int] = {}
    copies = 0
    for instr in ddg:
        if instr.is_copy:
            copies += 1
            continue
        key = (assignment[instr.iid], instr.fu_kind)
        per_cluster_kind[key] = per_cluster_kind.get(key, 0) + 1
    bound = 1
    for (cluster, kind), count in per_cluster_kind.items():
        units = machine.fu_per_cluster.get(kind, 0)
        if count and not units:
            raise SchedulingError(f"{kind} ops assigned, machine has no {kind}")
        if count:
            bound = max(bound, math.ceil(count / units))
    if copies:
        buses = machine.register_buses
        bound = max(bound, math.ceil(copies * buses.latency / buses.count))
    return bound


def rec_mii(
    ddg: Ddg,
    machine: MachineConfig,
    assumed_latency: Optional[Dict[int, int]] = None,
    max_ii: int = 512,
    floor: int = 1,
) -> int:
    """Recurrence-constrained lower bound on the II, raised to ``floor``.

    The smallest II >= ``floor`` at which no dependence cycle has positive
    total weight ``latency - II * distance``.  Starting at ``floor``, a
    Bellman-Ford longest-path relaxation runs over the edges inside
    strongly connected components (the only ones on cycles).  A cycle in
    the predecessor graph is always positive; II then jumps to that
    cycle's ratio ``ceil(sum(latency) / sum(distance))``, which every
    feasible II must reach, so the search stops exactly at
    ``max(RecMII, floor)``.  Raises if RecMII exceeds ``max_ii``, which
    includes any positive cycle of zero total distance.
    """
    edges = [
        (e.src, e.dst, edge_latency(e, ddg, machine, assumed_latency), e.distance)
        for e in ddg.edges()
    ]
    floor = max(floor, 1)
    if not any(d for *_rest, d in edges):
        return floor  # acyclic graph: no recurrence bound
    cyclic = forward_order(_cyclic_edges(edges))
    nodes = {v for edge in cyclic for v in edge[:2]}
    ii = min(floor, max_ii)
    while True:
        cycle = _positive_cycle(cyclic, nodes, ii)
        if cycle is None:
            return max(ii, floor)
        latency = sum(cyclic[k][2] for k in cycle)
        distance = sum(cyclic[k][3] for k in cycle)
        ii = -(-latency // distance) if distance else max_ii + 1
        if ii > max_ii:
            raise SchedulingError(
                f"recurrence unschedulable even at II={max_ii}; "
                "graph has a cycle with zero total distance?"
            )


def _cyclic_edges(edges: List[Tuple[int, int, int, int]]):
    """The edges whose endpoints share a strongly connected component
    (iterative Tarjan)."""
    adj: Dict[int, List[int]] = {}
    for src, dst, _lat, _d in edges:
        adj.setdefault(src, []).append(dst)
        adj.setdefault(dst, [])
    order: Dict[int, int] = {}
    low: Dict[int, int] = {}
    component: Dict[int, int] = {}
    stack: List[int] = []
    for root in adj:
        if root in order:
            continue
        order[root] = low[root] = len(order)
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if w not in order:
                    order[w] = low[w] = len(order)
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                if w not in component:
                    low[v] = min(low[v], order[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == order[v]:
                    while True:
                        w = stack.pop()
                        component[w] = v
                        if w == v:
                            break
    return [e for e in edges if component[e[0]] == component[e[1]]]


def forward_order(
    edges: List[Tuple[int, int, int, int]]
) -> List[Tuple[int, int, int, int]]:
    """``(src, dst, latency, distance)`` edges grouped by source, sources
    in topological order of the zero-distance subgraph, so a single
    relaxation sweep settles every zero-distance chain.  Sources on or
    behind a zero-distance cycle come last; any order reaches the same
    fixpoint, this one just gets there in fewer sweeps."""
    out: Dict[int, List[Tuple[int, int, int, int]]] = {}
    indegree: Dict[int, int] = {}
    for edge in edges:
        src, dst, _lat, d = edge
        out.setdefault(src, []).append(edge)
        indegree.setdefault(src, 0)
        indegree.setdefault(dst, 0)
        if d == 0 and src != dst:
            indegree[dst] += 1
    ready = [v for v, count in indegree.items() if not count]
    ordered: List[Tuple[int, int, int, int]] = []
    while ready:
        v = ready.pop()
        for edge in out.pop(v, ()):
            ordered.append(edge)
            _src, dst, _lat, d = edge
            if d == 0 and dst != v:
                indegree[dst] -= 1
                if not indegree[dst]:
                    ready.append(dst)
    for stuck in out.values():
        ordered.extend(stuck)
    return ordered


def _positive_cycle(
    edges: List[Tuple[int, int, int, int]], nodes, ii: int
) -> Optional[List[int]]:
    """Indexes into ``edges`` of a positive cycle at this II, or ``None``
    once the longest-path relaxation over ``nodes`` converges."""
    arcs = [(src, dst, lat - ii * d) for src, dst, lat, d in edges]
    dist = dict.fromkeys(nodes, 0)
    pred: Dict[int, int] = {}  # node -> index of the edge that raised it
    while True:
        changed = False
        for k, (src, dst, weight) in enumerate(arcs):
            value = dist[src] + weight
            if value > dist[dst]:
                dist[dst] = value
                pred[dst] = k
                changed = True
        if not changed:
            return None
        # Relaxation only ever strictly raises, so any cycle of
        # predecessor edges has positive weight.
        walked: Dict[int, int] = {}
        for first in pred:
            v = first
            while v in pred and v not in walked:
                walked[v] = first
                v = edges[pred[v]][0]
            if walked.get(v) == first:
                cycle = []
                u = v
                while True:
                    cycle.append(pred[u])
                    u = edges[pred[u]][0]
                    if u == v:
                        return cycle


def minimum_ii(
    ddg: Ddg,
    machine: MachineConfig,
    assumed_latency: Optional[Dict[int, int]] = None,
    floor: int = 1,
) -> int:
    """``max(ResMII, RecMII, floor)`` — the scheduler's starting II."""
    start = max(res_mii(ddg, machine), floor)
    return rec_mii(ddg, machine, assumed_latency, floor=start)
