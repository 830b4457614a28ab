"""Schedule data structures: modulo reservation table and the result type.

Resource model
--------------
Each cluster owns ``fu_per_cluster[kind]`` units of each functional-unit
class; an operation occupies one unit for one (issue) slot — the units are
fully pipelined.  Inter-cluster COPY operations occupy one of the global
register-to-register buses for ``register_buses.latency`` *consecutive*
modulo slots (the buses run at a fraction of the core frequency).  Memory
buses are not statically reserved: their occupancy depends on run-time hit/
miss behaviour, which is exactly why their latency is non-deterministic to
the compiler (paper section 2.3, footnote 2).

Timing model
------------
A modulo schedule assigns every operation ``v`` a start time ``t(v)``;
instance ``i`` of ``v`` issues at ``t(v) + i * II``.  A dependence edge
``u -> v`` with latency ``lat`` and distance ``d`` is satisfied iff
``t(v) >= t(u) + lat - II * d``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.arch.config import FuKind, MachineConfig
from repro.errors import SchedulingError
from repro.ir.ddg import Ddg
from repro.ir.edges import DepKind, Edge
from repro.ir.instructions import Instruction, LATENCY_MNEMONIC, Opcode


def edge_latency(
    edge: Edge,
    ddg: Ddg,
    machine: MachineConfig,
    assumed_latency: Optional[Dict[int, int]] = None,
) -> int:
    """Scheduling latency of a dependence edge.

    * RF from a load: the load's *assumed* latency (the scheduler's pick
      from the memory-latency ladder; defaults to a local hit);
    * RF from a COPY: the register-bus latency;
    * RF otherwise: the producer's fixed latency;
    * MF / MO: the store's completion latency (the consumer memory op must
      issue strictly after the store);
    * MA / SYNC: 0 — the target may issue in the same cycle or later.
    """
    src = ddg.node(edge.src)
    if edge.kind is DepKind.RF:
        if src.opcode is Opcode.LOAD:
            if assumed_latency and edge.src in assumed_latency:
                return assumed_latency[edge.src]
            return machine.memory_latencies().local_hit
        if src.opcode is Opcode.COPY:
            return machine.register_buses.latency
        return machine.op_latency(LATENCY_MNEMONIC[src.opcode])
    if edge.kind in (DepKind.MF, DepKind.MO):
        return machine.op_latency("store")
    # MA and SYNC: issue-order constraints.
    return 0


@dataclass(frozen=True)
class ScheduledOp:
    """Placement of one instruction in the kernel."""

    iid: int
    cluster: int
    time: int  # absolute start time within the flat schedule

    def slot(self, ii: int) -> int:
        return self.time % ii

    def stage(self, ii: int) -> int:
        return self.time // ii


#: The reservation unit of an inter-cluster COPY (see :func:`unit_of`).
BUS = -1
_KIND_INDEX = {kind: k for k, kind in enumerate(FuKind)}


def unit_of(instr: Instruction, cluster: int) -> int:
    """The resource ``instr`` occupies in ``cluster``: the index of its
    row of functional units in a :class:`ReservationTable`, or
    :data:`BUS` for a copy."""
    if instr.is_copy:
        return BUS
    kind = instr.fu_kind
    assert kind is not None
    return cluster * len(_KIND_INDEX) + _KIND_INDEX[kind]


class ReservationTable:
    """Modulo reservation table for one candidate II.

    Flat layout: one row of II slot cells per (cluster, functional-unit
    kind), each cell listing its occupants, plus a bitmask of the row's
    full slots; and one occupancy bitmask per register bus, tested
    against per-slot span masks (a transfer holds
    ``register_buses.latency`` consecutive modulo slots) built once
    here.  Operations are addressed by their :func:`unit_of`.
    ``place``/``remove`` keep the table consistent under the iterative
    scheduler's eject-and-retry policy, and :meth:`first_free` finds the
    first usable slot of an II-wide window with a few big-int
    operations, never slot by slot.
    """

    def __init__(self, machine: MachineConfig, ii: int) -> None:
        if ii < 1:
            raise SchedulingError(f"II must be >= 1, got {ii}")
        self.machine = machine
        self.ii = ii
        # row -> unit count; row = cluster * len(FuKind) + kind index
        self._units = [
            machine.fu_per_cluster.get(kind, 0)
            for _ in machine.clusters
            for kind in FuKind
        ]
        # row -> slot -> occupant iids (at most `units` of them)
        self._cells: List[List[List[int]]] = [
            [[] for _ in range(ii)] for _ in self._units
        ]
        # row -> bitmask of the slots whose units are all taken
        self._full = [0] * len(self._units)
        self._all_slots = (1 << ii) - 1
        # slot -> the modulo slots a transfer issued there holds
        latency = machine.register_buses.latency
        self._span_offsets = sorted({k % ii for k in range(latency)})
        self._span_slots = [
            [(slot + k) % ii for k in range(latency)] for slot in range(ii)
        ]
        self._span = [
            sum({1 << s for s in slots}) for slots in self._span_slots
        ]
        # bus -> bitmask of occupied slots, and slot -> owner iid
        self._bus = [0] * machine.register_buses.count
        self._bus_owner: List[List[Optional[int]]] = [
            [None] * ii for _ in self._bus
        ]
        # iid -> bus index (for removal)
        self._bus_of: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def _free_bus(self, slot: int) -> Optional[int]:
        span = self._span[slot]
        for bus, occupied in enumerate(self._bus):
            if not occupied & span:
                return bus
        return None

    def fits(self, instr: Instruction, cluster: int, time: int) -> bool:
        """Whether ``instr`` can issue in ``cluster`` at ``time``."""
        return self.first_free(unit_of(instr, cluster), time) == time

    def first_free(self, unit: int, start: int) -> Optional[int]:
        """First time in ``[start, start + II)`` at which ``unit`` has room,
        or ``None`` when every slot is taken."""
        ii = self.ii
        if unit == BUS:
            # A transfer may start at slot s on a bus iff none of the
            # slots s .. s+latency-1 is taken there: rotate each bus's
            # occupancy back by every offset of the span.
            free = 0
            for occupied in self._bus:
                blocked = 0
                for k in self._span_offsets:
                    blocked |= (occupied >> k) | (occupied << (ii - k))
                free |= ~blocked
            free &= self._all_slots
        elif self._units[unit]:
            free = self._all_slots & ~self._full[unit]
        else:
            return None
        first = start % ii
        later = free >> first
        if later:
            return start + (later & -later).bit_length() - 1
        if free:
            return start + ii - first + (free & -free).bit_length() - 1
        return None

    def place(self, unit: int, iid: int, time: int) -> None:
        slot = time % self.ii
        if unit == BUS:
            bus = self._free_bus(slot)
            if bus is None:
                raise SchedulingError(
                    f"no register bus free at slot {slot} for i{iid}"
                )
            self._bus[bus] |= self._span[slot]
            owner = self._bus_owner[bus]
            for s in self._span_slots[slot]:
                owner[s] = iid
            self._bus_of[iid] = bus
            return
        if not self._units[unit] or self._full[unit] >> slot & 1:
            raise SchedulingError(
                f"unit row {unit} busy at slot {slot} for i{iid}"
            )
        cell = self._cells[unit][slot]
        cell.append(iid)
        if len(cell) == self._units[unit]:
            self._full[unit] |= 1 << slot

    def remove(self, unit: int, iid: int, time: int) -> None:
        slot = time % self.ii
        if unit == BUS:
            bus = self._bus_of.pop(iid)
            self._bus[bus] &= ~self._span[slot]
            owner = self._bus_owner[bus]
            for s in self._span_slots[slot]:
                owner[s] = None
            return
        self._cells[unit][slot].remove(iid)
        self._full[unit] &= ~(1 << slot)

    def conflicting_ops(self, unit: int, time: int) -> List[int]:
        """Operations that must be ejected to place an op of ``unit`` at
        ``time``."""
        slot = time % self.ii
        if unit != BUS:
            return list(self._cells[unit][slot])
        # Eject every transfer overlapping the first bus's window.
        victims: List[int] = []
        for s in self._span_slots[slot] if self._bus_owner else ():
            iid = self._bus_owner[0][s]
            if iid is not None and iid not in victims:
                victims.append(iid)
        return victims


@dataclass
class Schedule:
    """A finished modulo schedule.

    ``ddg`` is the final graph actually scheduled — including COPY nodes,
    replicated store instances and fake consumers.
    """

    ii: int
    ops: Dict[int, ScheduledOp]
    ddg: Ddg
    machine: MachineConfig
    assumed_latency: Dict[int, int] = field(default_factory=dict)

    @property
    def length(self) -> int:
        """Flat schedule length (cycles from first to last issue, +1)."""
        if not self.ops:
            return 0
        return max(op.time for op in self.ops.values()) + 1

    @property
    def stage_count(self) -> int:
        """Number of kernel stages (SC); a loop of N iterations executes in
        about ``(N + SC - 1) * II`` stall-free cycles."""
        if not self.ops:
            return 1
        return max(op.time for op in self.ops.values()) // self.ii + 1

    def time_of(self, iid: int) -> int:
        return self.ops[iid].time

    def cluster_of(self, iid: int) -> int:
        return self.ops[iid].cluster

    def ops_by_slot(self) -> List[List[ScheduledOp]]:
        """Scheduled ops bucketed by modulo slot (index = slot)."""
        buckets: List[List[ScheduledOp]] = [[] for _ in range(self.ii)]
        for op in self.ops.values():
            buckets[op.time % self.ii].append(op)
        for bucket in buckets:
            bucket.sort(key=lambda op: op.iid)
        return buckets

    def copy_count(self) -> int:
        return sum(1 for op in self.ops.values() if self.ddg.node(op.iid).is_copy)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check dependence and resource constraints; raise on violation.

        This re-checks everything from scratch and is used by tests and by
        the pipeline's ``check=True`` mode.
        """
        for instr in self.ddg:
            if instr.iid not in self.ops:
                raise SchedulingError(f"{instr.label} was never scheduled")
            placed = self.ops[instr.iid]
            rc = instr.required_cluster
            if rc is not None and placed.cluster != rc:
                raise SchedulingError(
                    f"{instr.label} pinned to cluster {rc} but scheduled in "
                    f"{placed.cluster}"
                )
        for edge in self.ddg.edges():
            lat = edge_latency(edge, self.ddg, self.machine, self.assumed_latency)
            lhs = self.ops[edge.dst].time - self.ops[edge.src].time
            rhs = lat - self.ii * edge.distance
            if lhs < rhs:
                raise SchedulingError(
                    f"dependence violated: {edge} (needs {rhs}, got {lhs})"
                )
        # Re-play functional-unit usage exactly (one slot per op, so the
        # check is order-independent).
        fu_usage: Dict[Tuple[int, FuKind, int], int] = {}
        bus_usage: Dict[int, int] = {}
        for op in self.ops.values():
            instr = self.ddg.node(op.iid)
            slot = op.time % self.ii
            if instr.is_copy:
                # Copies occupy a register bus for `latency` consecutive
                # modulo slots.  Bus *identity* is a first-fit packing whose
                # feasibility the scheduler's reservation table proved
                # constructively; replaying it in a different order can
                # false-negative, so validation checks the per-slot
                # aggregate capacity instead.
                for k in range(self.machine.register_buses.latency):
                    s = (slot + k) % self.ii
                    bus_usage[s] = bus_usage.get(s, 0) + 1
                continue
            key = (op.cluster, instr.fu_kind, slot)
            fu_usage[key] = fu_usage.get(key, 0) + 1
        for (cluster, kind, slot), used in fu_usage.items():
            units = self.machine.fu_per_cluster.get(kind, 0)
            if used > units:
                raise SchedulingError(
                    f"{used} {kind} ops in cluster {cluster} slot {slot} "
                    f"but only {units} unit(s)"
                )
        for slot, used in bus_usage.items():
            if used > self.machine.register_buses.count:
                raise SchedulingError(
                    f"{used} copies occupy slot {slot} but only "
                    f"{self.machine.register_buses.count} register buses"
                )

    def describe(self) -> str:
        """Kernel dump: one line per (slot, cluster) with the ops issued."""
        lines = [
            f"II={self.ii} length={self.length} stages={self.stage_count} "
            f"copies={self.copy_count()}"
        ]
        by_slot = self.ops_by_slot()
        for slot in range(self.ii):
            for cluster in self.machine.clusters:
                cell = [
                    f"{self.ddg.node(op.iid).label}@s{op.stage(self.ii)}"
                    for op in by_slot[slot]
                    if op.cluster == cluster
                ]
                if cell:
                    lines.append(
                        f"  slot {slot} cluster {cluster}: " + " ".join(cell)
                    )
        return "\n".join(lines)
