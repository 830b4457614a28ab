"""Simulation statistics.

The two headline decompositions the paper reports:

* **memory access classification** (Figure 6): every access is exactly one
  of local hit / remote hit / local miss / remote miss / combined (the
  second access to an already-requested, still-pending subblock);
* **cycle split** (Figures 7 and 9): compute cycles (the machine issued a
  kernel slot) vs stall cycles (issue blocked on a not-yet-arrived load
  value).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict

from repro.obs import metrics


class AccessType(enum.Enum):
    LOCAL_HIT = "local_hit"
    REMOTE_HIT = "remote_hit"
    LOCAL_MISS = "local_miss"
    REMOTE_MISS = "remote_miss"
    COMBINED = "combined"


#: Scalar counters of :class:`SimStats` (everything but ``accesses``).
_COUNTER_FIELDS = (
    "compute_cycles",
    "stall_cycles",
    "issued_ops",
    "nullified_stores",
    "coherence_violations",
    "ab_hits",
    "ab_fills",
    "ab_overflows",
    "ab_flushed_dirty",
    "bus_transfers",
    "bus_queued_cycles",
    "next_level_requests",
)

#: Engine-internal diagnostics of the event-skipping executor.  These are
#: deliberately *excluded* from ``to_dict``/``from_dict``: the serialized
#: form of a run is engine-independent and byte-identical to the captured
#: goldens (``tests/test_golden_equivalence.py``), while these counters
#: describe how the run was executed, not what it observed.
_DIAGNOSTIC_FIELDS = (
    "fast_forwarded_cycles",
    "fast_retired_indexes",
)


@dataclass
class SimStats:
    """Counters collected by one simulation run.

    The executor counts cycles and issued ops here directly; the memory
    system keeps its access-class, bus, next-level and Attraction-Buffer
    hit/fill/overflow counters itself and copies them in once per run
    (:meth:`~repro.sim.memory.MemorySystem.sync_stats`).
    """

    accesses: Dict[AccessType, int] = field(
        default_factory=lambda: {t: 0 for t in AccessType}
    )
    compute_cycles: int = 0
    stall_cycles: int = 0
    #: instances actually executed (nullified store replicas excluded)
    issued_ops: int = 0
    nullified_stores: int = 0
    coherence_violations: int = 0
    ab_hits: int = 0
    ab_fills: int = 0
    ab_overflows: int = 0
    ab_flushed_dirty: int = 0
    bus_transfers: int = 0
    bus_queued_cycles: int = 0
    next_level_requests: int = 0
    #: stalled/drain cycles the event-skipping engine jumped over in bulk
    #: (diagnostic; not serialized — see ``_DIAGNOSTIC_FIELDS``)
    fast_forwarded_cycles: int = 0
    #: kernel indexes retired by the "no loads in flight, none due" bulk
    #: fast path (diagnostic; not serialized)
    fast_retired_indexes: int = 0
    #: per-message-kind split of ``bus_transfers`` (``req_load``,
    #: ``req_store``, ``fwd_load``, ``fwd_store``, ``resp``).  The
    #: serialized form keeps the backward-compatible scalar — which is
    #: always the sum of this breakdown — so run records and goldens
    #: are unchanged; the split is surfaced through :meth:`publish`
    #: (per-hop traffic metrics, one series per kind and memory model).
    bus_transfer_kinds: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.stall_cycles

    @property
    def total_accesses(self) -> int:
        return sum(self.accesses.values())

    @property
    def local_hit_ratio(self) -> float:
        """Share of all memory accesses that were local hits (Figure 6's
        headline metric)."""
        total = self.total_accesses
        if not total:
            return 0.0
        return self.accesses[AccessType.LOCAL_HIT] / total

    def access_fractions(self) -> Dict[AccessType, float]:
        total = self.total_accesses
        if not total:
            return {t: 0.0 for t in AccessType}
        return {t: n / total for t, n in self.accesses.items()}

    def merged_with(self, other: "SimStats") -> "SimStats":
        """Aggregate two runs (used to combine a benchmark's loops)."""
        merged = SimStats()
        for kind in AccessType:
            merged.accesses[kind] = self.accesses[kind] + other.accesses[kind]
        for name in _COUNTER_FIELDS + _DIAGNOSTIC_FIELDS:
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        for kinds in (self.bus_transfer_kinds, other.bus_transfer_kinds):
            for kind, count in kinds.items():
                merged.bus_transfer_kinds[kind] = (
                    merged.bus_transfer_kinds.get(kind, 0) + count
                )
        return merged

    def publish(self, engine: str, model: str = "snooping") -> None:
        """Surface this run's counters through the metrics registry.

        Called once per :func:`~repro.sim.executor.simulate` run — never
        inside the cycle loop — so the simulator's contribution to the
        observability layer is O(runs), not O(cycles).  Unlike
        :meth:`to_dict`, this *does* include the event-skipping engine's
        diagnostic counters (``_DIAGNOSTIC_FIELDS``): the registry is
        labeled by engine, so engine-dependent numbers are fine here
        even though they must stay out of serialized records.
        """
        reg = metrics.registry()
        if not reg.enabled:
            return
        reg.inc("sim.runs", engine=engine)
        reg.inc("sim.cycles", self.compute_cycles,
                engine=engine, kind="compute")
        reg.inc("sim.cycles", self.stall_cycles,
                engine=engine, kind="stall")
        for kind, count in self.accesses.items():
            if count:
                reg.inc("sim.accesses", count, engine=engine,
                        type=kind.value)
        for name in _COUNTER_FIELDS[2:] + _DIAGNOSTIC_FIELDS:
            value = getattr(self, name)
            if value:
                reg.inc(f"sim.{name}", value, engine=engine)
        # Per-hop traffic: one labeled series per message kind and
        # memory model (the distributed-directory model's extra
        # forwarding hops show up here, not in the scalar).
        for kind in sorted(self.bus_transfer_kinds):
            count = self.bus_transfer_kinds[kind]
            if count:
                reg.inc("sim.bus_transfer_kinds", count,
                        engine=engine, kind=kind, model=model)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (used by the ``repro.api`` ResultStore)."""
        data: Dict[str, object] = {
            "accesses": {t.value: n for t, n in self.accesses.items()},
        }
        for name in _COUNTER_FIELDS:
            data[name] = getattr(self, name)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimStats":
        stats = cls()
        for raw, count in data.get("accesses", {}).items():
            stats.accesses[AccessType(raw)] = int(count)
        for name in _COUNTER_FIELDS:
            setattr(stats, name, int(data.get(name, 0)))
        return stats

    def describe(self) -> str:
        frac = self.access_fractions()
        lines = [
            f"cycles: {self.total_cycles} "
            f"(compute {self.compute_cycles}, stall {self.stall_cycles})",
            "accesses: "
            + ", ".join(
                f"{t.value} {self.accesses[t]} ({frac[t]:.1%})" for t in AccessType
            ),
            f"coherence violations: {self.coherence_violations}",
        ]
        return "\n".join(lines)
