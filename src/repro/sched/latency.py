"""Latency assignment for memory instructions (section 2.2).

"Memory instructions will be scheduled with the largest possible latency
that does not have an impact on compute time."  Scheduling a load with a
larger assumed latency separates it further from its consumers, trading
compute time (more in-flight stages) for stall time (fewer stall-on-use
cycles).  The policy implemented here tries the memory-latency ladder from
most to least pessimistic and accepts the first level that keeps the II of
the optimistic (local-hit) schedule, with bounded growth of the flat
schedule length (each level's II search is capped at the base II, since
no other II is accepted):

* same II  ->  compute time per iteration is unchanged;
* bounded length growth ->  the deeper software pipeline costs only a few
  extra fill/drain stages, negligible against the loop trip count.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.arch.config import MachineConfig
from repro.errors import SchedulingError
from repro.ir.ddg import Ddg
from repro.sched.cluster import ClusterAssignment
from repro.sched.mii import assignment_res_mii
from repro.sched.modulo import modulo_schedule
from repro.sched.schedule import Schedule

#: Extra flat-schedule length tolerated when raising assumed latencies,
#: in multiples of the II.  One stage: deepening the software pipeline by
#: a single stage is the compromise the paper's policy accepts ("the
#: largest possible latency that does not have an impact on compute
#: time"); more would hide every remote access behind compute and also
#: blow up register pressure, which this model does not charge for.
LENGTH_SLACK_STAGES = 1


def schedule_with_latency_policy(
    ddg: Ddg,
    machine: MachineConfig,
    assignment: ClusterAssignment,
) -> Schedule:
    """Schedule with the paper's compute/stall latency compromise."""
    ladder = machine.memory_latencies().ladder()
    loads = [instr.iid for instr in ddg.loads()]
    floor = assignment_res_mii(ddg, machine, assignment)

    def uniform(level: int) -> Dict[int, int]:
        return {iid: level for iid in loads}

    base = modulo_schedule(ddg, machine, assignment, uniform(ladder[0]), min_ii=floor)
    if not loads:
        return base

    limit = base.length + LENGTH_SLACK_STAGES * base.ii
    for level in sorted(set(ladder[1:]), reverse=True):
        # Only a schedule at the base II is acceptable, so the II search
        # is capped there: a level whose MII already exceeds it raises
        # before any placement.
        try:
            candidate = modulo_schedule(
                ddg, machine, assignment, uniform(level),
                min_ii=base.ii, max_ii=base.ii,
            )
        except SchedulingError:
            continue
        if candidate.length <= limit:
            return candidate
    return base


def consumer_separation(schedule: Schedule, load_iid: int) -> Optional[int]:
    """Scheduled distance (cycles) between a load and its nearest register
    consumer — the latency the schedule tolerates before stalling.

    Returns ``None`` for loads without register consumers (their value is
    never used, so they can never cause a stall).
    """
    from repro.ir.edges import DepKind

    ddg = schedule.ddg
    best: Optional[int] = None
    for edge in ddg.succs(load_iid):
        if edge.kind is not DepKind.RF:
            continue
        sep = (
            schedule.time_of(edge.dst)
            + schedule.ii * edge.distance
            - schedule.time_of(load_iid)
        )
        best = sep if best is None else min(best, sep)
    return best
