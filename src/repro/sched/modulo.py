"""Iterative modulo scheduling (Rau-style, with ejection).

The scheduler consumes a DDG whose instructions already carry a cluster
assignment.  For a candidate II it places operations highest-priority
first (priority = dependence height), each within a window of II slots
starting at its earliest legal time; when no slot has a free resource the
operation is force-placed and the conflicting/violated operations are
ejected and re-queued.  A placement budget bounds the search; on failure
the II is increased, up to ``MAX_II_SLACK`` above the lower bound (or up
to the caller's ``max_ii`` cap, whichever is lower).

The graph is flattened once per :func:`modulo_schedule` call into index
arrays (:class:`_Graph`); each candidate II then only recomputes heights
and replays the placement loop.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.arch.config import MachineConfig
from repro.errors import SchedulingError
from repro.ir.ddg import Ddg
from repro.sched.cluster import ClusterAssignment
from repro.sched.mii import forward_order, minimum_ii
from repro.sched.schedule import (
    ReservationTable,
    Schedule,
    ScheduledOp,
    edge_latency,
    unit_of,
)

#: How far above max(ResMII, RecMII) the scheduler will search.
MAX_II_SLACK = 64
#: Placement attempts allowed per candidate II, per operation.
BUDGET_FACTOR = 12


def modulo_schedule(
    ddg: Ddg,
    machine: MachineConfig,
    assignment: ClusterAssignment,
    assumed_latency: Optional[Dict[int, int]] = None,
    min_ii: Optional[int] = None,
    max_ii: Optional[int] = None,
) -> Schedule:
    """Produce a valid modulo schedule; raise SchedulingError if impossible
    within the II search window.

    The window starts at ``max(MII, min_ii)`` and ends ``MAX_II_SLACK``
    above it, or at ``max_ii`` when that is lower; a lower bound already
    above ``max_ii`` raises before any placement.
    """
    assumed = dict(assumed_latency or {})
    lower = minimum_ii(ddg, machine, assumed, floor=min_ii or 1)
    upper = lower + MAX_II_SLACK
    if max_ii is not None:
        if lower > max_ii:
            raise SchedulingError(
                f"MII {lower} of {ddg.name!r} exceeds the II cap {max_ii}"
            )
        upper = min(upper, max_ii)
    graph = _Graph(ddg, machine, assignment, assumed)
    for ii in range(lower, upper + 1):
        ops = graph.try_ii(ii)
        if ops is not None:
            return Schedule(
                ii=ii,
                ops=ops,
                ddg=ddg,
                machine=machine,
                assumed_latency=assumed,
            )
    raise SchedulingError(
        f"no schedule found for {ddg.name!r} within II in [{lower}, {upper}]"
    )


# ----------------------------------------------------------------------
class _Graph:
    """One DDG flattened for repeated scheduling attempts.

    Node ``k`` is the ``k``-th instruction of the DDG; edges carry their
    scheduling latency under the call's assumed load latencies.
    """

    def __init__(
        self,
        ddg: Ddg,
        machine: MachineConfig,
        assignment: ClusterAssignment,
        assumed: Dict[int, int],
    ) -> None:
        self.machine = machine
        instrs = list(ddg)
        self.iids = [instr.iid for instr in instrs]
        self.clusters = [assignment[iid] for iid in self.iids]
        self.units = [
            unit_of(instr, cluster)
            for instr, cluster in zip(instrs, self.clusters)
        ]
        index = {iid: k for k, iid in enumerate(self.iids)}
        self.index = index
        # (src, dst, latency, distance) by node index
        edges = [
            (index[e.src], index[e.dst],
             edge_latency(e, ddg, machine, assumed), e.distance)
            for e in ddg.edges()
        ]
        # Heights flow against the edges: sweep them sinks first.
        self.backward_edges = forward_order(edges)[::-1]
        n = len(self.iids)
        self.preds: List[List[Tuple[int, int, int]]] = [[] for _ in range(n)]
        self.succs: List[List[Tuple[int, int, int]]] = [[] for _ in range(n)]
        for src, dst, lat, d in edges:
            if src != dst:  # a self-loop never constrains placement
                self.preds[dst].append((src, lat, d))
                self.succs[src].append((dst, lat, d))

    def heights(self, ii: int) -> Optional[List[int]]:
        """Dependence height of each node at this II (longest outgoing
        path with weights ``lat - II * distance``), or ``None`` when a
        positive cycle makes the II infeasible."""
        n = len(self.iids)
        height = [0] * n
        edges = self.backward_edges
        for _ in range(n):
            changed = False
            for src, dst, lat, d in edges:
                h = height[dst] + lat - ii * d
                if h > height[src]:
                    height[src] = h
                    changed = True
            if not changed:
                return height
        return None

    def try_ii(self, ii: int) -> Optional[Dict[int, ScheduledOp]]:
        """One iterative-modulo-scheduling attempt; ``None`` when the
        placement budget runs out."""
        height = self.heights(ii)
        if height is None:
            return None
        iids, units, clusters = self.iids, self.units, self.clusters
        index = self.index
        n = len(iids)
        # Edge delays at this II: t(dst) >= t(src) + delay.
        preds = [[(src, lat - ii * d) for src, lat, d in edges]
                 for edges in self.preds]
        succs = [[(dst, lat - ii * d) for dst, lat, d in edges]
                 for edges in self.succs]

        table = ReservationTable(self.machine, ii)
        time = [0] * n
        placed = [False] * n
        last_time = [-1] * n  # a retry goes strictly later
        stamp = [0] * n  # order of each node's latest placement
        budget = BUDGET_FACTOR * max(1, n)

        # max (height, -iid) first: the same order as a linear max scan.
        pending = [(-height[k], iids[k], k) for k in range(n)]
        heapq.heapify(pending)

        def eject(k: int) -> None:
            placed[k] = False
            table.remove(units[k], iids[k], time[k])
            heapq.heappush(pending, (-height[k], iids[k], k))

        placements = 0
        while pending:
            if budget <= 0:
                return None
            budget -= 1
            k = heapq.heappop(pending)[2]
            unit = units[k]

            start = last_time[k] + 1
            for src, delay in preds[k]:
                if placed[src] and time[src] + delay > start:
                    start = time[src] + delay

            chosen = table.first_free(unit, start)
            if chosen is None:
                chosen = start
                for victim in table.conflicting_ops(unit, chosen):
                    eject(index[victim])

            table.place(unit, iids[k], chosen)
            time[k] = last_time[k] = chosen
            placed[k] = True
            stamp[k] = placements
            placements += 1

            # Every placed successor must still satisfy its edge from k.
            for dst, delay in succs[k]:
                if placed[dst] and time[dst] < chosen + delay:
                    eject(dst)

        # Shift by whole stages so the earliest op issues in stage 0.
        shift = (min(time, default=0) // ii) * ii
        return {
            iids[k]: ScheduledOp(iids[k], clusters[k], time[k] - shift)
            for k in sorted(range(n), key=stamp.__getitem__)
        }
