"""Reference modulo scheduler: the oracle for the fast one.

A test-only copy of the straightforward scheduler that
``repro.sched`` replaced: a dict-keyed reservation table probed one slot
at a time, an O(n) ``max`` pick of the next operation, a II search
without an upper cap, and RecMII by binary search over ``[1, 512]``.
It is to the production scheduler what the per-cycle ``cycles`` engine
is to the event-skipping simulator: slow, obviously right, and never
shipped.  ``tests/test_sched_differential.py`` and
``benchmarks/bench_schedule.py`` require the two to agree on every II,
every ``(iid, cluster, time)`` and the order of ``Schedule.ops``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.arch.config import FuKind, MachineConfig
from repro.errors import SchedulingError
from repro.ir.ddg import Ddg
from repro.ir.instructions import Instruction
from repro.sched.latency import LENGTH_SLACK_STAGES
from repro.sched.mii import assignment_res_mii, res_mii
from repro.sched.modulo import BUDGET_FACTOR, MAX_II_SLACK
from repro.sched.schedule import Schedule, ScheduledOp, edge_latency


class ReferenceTable:
    """Modulo reservation table keyed by ``(cluster, kind, slot)``."""

    def __init__(self, machine: MachineConfig, ii: int) -> None:
        if ii < 1:
            raise SchedulingError(f"II must be >= 1, got {ii}")
        self.machine = machine
        self.ii = ii
        self._fu: Dict[Tuple[int, FuKind, int], List[int]] = {}
        self._bus: Dict[Tuple[int, int], int] = {}
        self._bus_of: Dict[int, int] = {}

    def _fu_free(self, instr: Instruction, cluster: int, slot: int) -> bool:
        units = self.machine.fu_per_cluster.get(instr.fu_kind, 0)
        if units == 0:
            return False
        return len(self._fu.get((cluster, instr.fu_kind, slot), [])) < units

    def _bus_slots(self, slot: int) -> List[int]:
        return [
            (slot + k) % self.ii
            for k in range(self.machine.register_buses.latency)
        ]

    def _find_free_bus(self, slot: int) -> Optional[int]:
        for bus in range(self.machine.register_buses.count):
            if all((bus, s) not in self._bus for s in self._bus_slots(slot)):
                return bus
        return None

    def fits(self, instr: Instruction, cluster: int, time: int) -> bool:
        slot = time % self.ii
        if instr.is_copy:
            return self._find_free_bus(slot) is not None
        return self._fu_free(instr, cluster, slot)

    def place(self, instr: Instruction, cluster: int, time: int) -> None:
        slot = time % self.ii
        if instr.is_copy:
            bus = self._find_free_bus(slot)
            if bus is None:
                raise SchedulingError(f"no register bus free at slot {slot}")
            for s in self._bus_slots(slot):
                self._bus[(bus, s)] = instr.iid
            self._bus_of[instr.iid] = bus
            return
        if not self._fu_free(instr, cluster, slot):
            raise SchedulingError(f"unit busy at slot {slot}")
        self._fu.setdefault((cluster, instr.fu_kind, slot), []).append(
            instr.iid
        )

    def remove(self, instr: Instruction, cluster: int, time: int) -> None:
        slot = time % self.ii
        if instr.is_copy:
            bus = self._bus_of.pop(instr.iid)
            for s in self._bus_slots(slot):
                if self._bus.get((bus, s)) == instr.iid:
                    del self._bus[(bus, s)]
            return
        self._fu[(cluster, instr.fu_kind, slot)].remove(instr.iid)

    def conflicting_ops(
        self, instr: Instruction, cluster: int, time: int
    ) -> List[int]:
        slot = time % self.ii
        if instr.is_copy:
            victims: List[int] = []
            for s in self._bus_slots(slot):
                owner = self._bus.get((0, s))
                if owner is not None and owner not in victims:
                    victims.append(owner)
            return victims
        return list(self._fu.get((cluster, instr.fu_kind, slot), []))


# ----------------------------------------------------------------------
def rec_mii(
    ddg: Ddg,
    machine: MachineConfig,
    assumed_latency: Optional[Dict[int, int]] = None,
    max_ii: int = 512,
) -> int:
    """RecMII by binary search over ``[1, max_ii]``."""
    edges = [
        (e.src, e.dst, edge_latency(e, ddg, machine, assumed_latency),
         e.distance)
        for e in ddg.edges()
    ]
    if not any(d for *_rest, d in edges):
        return 1

    def feasible(ii: int) -> bool:
        return not _has_positive_cycle(ddg, edges, ii)

    lo, hi = 1, max_ii
    if not feasible(hi):
        raise SchedulingError(
            f"recurrence unschedulable even at II={max_ii}; "
            "graph has a cycle with zero total distance?"
        )
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _has_positive_cycle(ddg: Ddg, edges, ii: int) -> bool:
    dist = {instr.iid: 0 for instr in ddg}
    for _ in range(len(dist)):
        changed = False
        for src, dst, lat, d in edges:
            w = lat - ii * d
            if dist[src] + w > dist[dst]:
                dist[dst] = dist[src] + w
                changed = True
        if not changed:
            return False
    return True


def minimum_ii(ddg, machine, assumed_latency=None) -> int:
    return max(res_mii(ddg, machine), rec_mii(ddg, machine, assumed_latency))


def modulo_schedule(
    ddg: Ddg,
    machine: MachineConfig,
    assignment,
    assumed_latency: Optional[Dict[int, int]] = None,
    min_ii: Optional[int] = None,
) -> Schedule:
    """Search II upward from ``max(MII, min_ii)``, up to
    ``MAX_II_SLACK`` above it."""
    assumed = dict(assumed_latency or {})
    lower = minimum_ii(ddg, machine, assumed)
    if min_ii is not None:
        lower = max(lower, min_ii)
    for ii in range(lower, lower + MAX_II_SLACK + 1):
        ops = try_ii(ddg, machine, assignment, assumed, ii)
        if ops is not None:
            return Schedule(ii=ii, ops=ops, ddg=ddg, machine=machine,
                            assumed_latency=assumed)
    raise SchedulingError(
        f"no schedule found for {ddg.name!r} within II in "
        f"[{lower}, {lower + MAX_II_SLACK}]"
    )


def _heights(ddg: Ddg, weights, ii: int) -> Dict[int, int]:
    height = {instr.iid: 0 for instr in ddg}
    for _ in range(len(height)):
        changed = False
        for src, dst, lat, d in weights:
            w = lat - ii * d
            if height[dst] + w > height[src]:
                height[src] = height[dst] + w
                changed = True
        if not changed:
            break
    else:
        raise SchedulingError(f"positive dependence cycle at II={ii}")
    return height


def try_ii(
    ddg: Ddg,
    machine: MachineConfig,
    assignment,
    assumed: Dict[int, int],
    ii: int,
) -> Optional[Dict[int, ScheduledOp]]:
    """One iterative-modulo-scheduling attempt at ``ii``."""
    weights = [
        (e.src, e.dst, edge_latency(e, ddg, machine, assumed), e.distance)
        for e in ddg.edges()
    ]
    try:
        height = _heights(ddg, weights, ii)
    except SchedulingError:
        return None

    preds: Dict[int, List[Tuple[int, int, int]]] = {v.iid: [] for v in ddg}
    succs: Dict[int, List[Tuple[int, int, int]]] = {v.iid: [] for v in ddg}
    for src, dst, lat, d in weights:
        preds[dst].append((src, lat, d))
        succs[src].append((dst, lat, d))

    table = ReferenceTable(machine, ii)
    placed: Dict[int, ScheduledOp] = {}
    last_time: Dict[int, int] = {}
    budget = BUDGET_FACTOR * max(1, len(ddg))
    pending: Set[int] = {v.iid for v in ddg}

    def eject(iid: int) -> None:
        op = placed.pop(iid)
        table.remove(ddg.node(iid), op.cluster, op.time)
        pending.add(iid)

    while pending:
        if budget <= 0:
            return None
        budget -= 1
        iid = max(pending, key=lambda v: (height[v], -v))
        pending.discard(iid)
        instr = ddg.node(iid)
        cluster = assignment[iid]

        start = 0
        for src, lat, d in preds[iid]:
            if src in placed:
                start = max(start, placed[src].time + lat - ii * d)
        floor = last_time.get(iid)
        if floor is not None and floor + 1 > start:
            start = floor + 1

        chosen = None
        for t in range(start, start + ii):
            if table.fits(instr, cluster, t):
                chosen = t
                break
        if chosen is None:
            chosen = start
            for victim in table.conflicting_ops(instr, cluster, chosen):
                eject(victim)

        table.place(instr, cluster, chosen)
        placed[iid] = ScheduledOp(iid=iid, cluster=cluster, time=chosen)
        last_time[iid] = chosen

        for dst, lat, d in succs[iid]:
            if dst in placed and dst != iid:
                if placed[dst].time < chosen + lat - ii * d:
                    eject(dst)

    min_time = min(op.time for op in placed.values())
    shift = (min_time // ii) * ii
    if shift:
        placed = {
            iid: ScheduledOp(op.iid, op.cluster, op.time - shift)
            for iid, op in placed.items()
        }
    return placed


def _uniform(ddg: Ddg, level: int) -> Dict[int, int]:
    return {instr.iid: level for instr in ddg.loads()}


def base_schedule(ddg: Ddg, machine: MachineConfig, assignment) -> Schedule:
    """The optimistic (local-hit) schedule the ladder starts from."""
    floor = assignment_res_mii(ddg, machine, assignment)
    local_hit = machine.memory_latencies().ladder()[0]
    return modulo_schedule(ddg, machine, assignment,
                           _uniform(ddg, local_hit), min_ii=floor)


def ladder_levels(machine: MachineConfig) -> List[int]:
    """The latency levels tried after the base, most pessimistic first."""
    return sorted(set(machine.memory_latencies().ladder()[1:]), reverse=True)


def level_decision(
    ddg: Ddg, machine: MachineConfig, assignment, base: Schedule, level: int
) -> Tuple[bool, Optional[Schedule]]:
    """Whether the policy accepts ``level``, and the level's schedule
    (``None`` when the scheduler gave up)."""
    try:
        candidate = modulo_schedule(ddg, machine, assignment,
                                    _uniform(ddg, level), min_ii=base.ii)
    except SchedulingError:
        return False, None
    limit = base.length + LENGTH_SLACK_STAGES * base.ii
    return candidate.ii == base.ii and candidate.length <= limit, candidate


def latency_policy(ddg: Ddg, machine: MachineConfig, assignment) -> Schedule:
    """The paper's section 2.2 policy over the reference scheduler: the
    first level, most pessimistic first, that keeps the base II."""
    base = base_schedule(ddg, machine, assignment)
    if not ddg.loads():
        return base
    for level in ladder_levels(machine):
        accepted, candidate = level_decision(ddg, machine, assignment, base,
                                             level)
        if accepted:
            return candidate
    return base
