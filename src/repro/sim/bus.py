"""Inter-cluster memory-bus fabric.

The memory buses carry remote requests and responses between clusters.
Their occupancy depends on run-time traffic, which is why the compiler
cannot rely on their latency (section 2.3, footnote 2) — the root cause of
the coherence problem.

Model:

* ``count`` identical buses; a transfer occupies one bus for ``latency``
  consecutive cycles and is delivered when it completes;
* per-source FIFO queues with at most one injection per source per cycle,
  and round-robin arbitration across sources for free buses.

Those two properties make same-source messages arrive in injection order
(equal transit times, staggered starts), which is the hardware property
the MDC solution relies on: requests issued by one cluster reach any home
cluster in issue order.  Nothing orders messages from *different* sources
— exactly the paper's Figure 2 hazard.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.arch.config import BusConfig


class BusMessage:
    """One transfer.  ``on_deliver(cycle)`` runs when it reaches ``dst``.

    ``tag`` is optional opaque metadata for observers (the conformance
    trace of :mod:`repro.check.conformance`); the fabric never reads it.
    ``kind`` labels the message for per-hop traffic accounting
    (``req_load``/``req_store``/``fwd_load``/``fwd_store``/``resp``) —
    it feeds :attr:`BusFabric.transfers_by_kind` and never affects
    routing or timing.
    """

    __slots__ = ("src", "dst", "on_deliver", "tag", "kind")

    def __init__(
        self,
        src: int,
        dst: int,
        on_deliver: Callable[[int], None],
        tag: Optional[tuple] = None,
        kind: str = "data",
    ) -> None:
        self.src = src
        self.dst = dst
        self.on_deliver = on_deliver
        self.tag = tag
        self.kind = kind


class BusFabric:
    """The shared memory buses.

    Two pieces of per-cycle arbitration state are kept lazily, so that a
    cycle on which nothing can move costs no work at all:

    * ``_free_min`` caches ``min(_bus_free_at)``, the first cycle any bus
      is free; it only changes when a message injects;
    * the round-robin pointer rotates once on every cycle with a free
      bus.  Cycles with nothing queued need not call :meth:`inject`:
      ``_rr_at`` records the first cycle whose rotation has not been
      applied yet, and the next injection catches up the idle cycles in
      O(1) — every one of them at or after ``_free_min`` rotated once.
    """

    def __init__(self, config: BusConfig, num_clusters: int) -> None:
        self.config = config
        self.num_clusters = num_clusters
        self._queues: List[Deque[BusMessage]] = [
            deque() for _ in range(num_clusters)
        ]
        #: source queues in round-robin order starting at each source
        self._rr_order = [
            tuple(self._queues[(src + k) % num_clusters]
                  for k in range(num_clusters))
            for src in range(num_clusters)
        ]
        self._bus_free_at: List[int] = [0] * config.count
        self._free_min = 0
        #: delivery cycle -> messages landing then
        self._in_flight: Dict[int, List[BusMessage]] = {}
        self._queued = 0  # messages currently waiting in source queues
        self._rr_start = 0
        self._rr_at = 0
        #: per-message-kind transfer counts; sums to ``transfers``
        #: (diagnostic; the serialized scalar stays the sum)
        self.transfers_by_kind: Dict[str, int] = {}
        self.queued_cycles = 0  # total cycles messages spent waiting
        #: cycles each physical bus spent occupied by a transfer —
        #: per-bus occupancy for the observability layer (diagnostic;
        #: never serialized into run records)
        self.busy_cycles: List[int] = [0] * config.count

    @property
    def transfers(self) -> int:
        """Messages injected so far."""
        return sum(self.transfers_by_kind.values())

    # ------------------------------------------------------------------
    def send(self, message: BusMessage) -> None:
        """Enqueue a transfer at its source cluster."""
        self._queues[message.src].append(message)
        self._queued += 1

    def pending(self) -> int:
        return self._queued + sum(len(v) for v in self._in_flight.values())

    # ------------------------------------------------------------------
    # Event-skipping support (see ``docs/architecture.md``)
    # ------------------------------------------------------------------
    def skip_window(self, start: int, stop: int) -> None:
        """Advance per-cycle fabric state across cycles ``[start, stop)``
        during which :meth:`inject` provably moves no message.

        Two such window kinds exist:

        * *stuck* — messages are queued but every bus stays occupied for
          the whole window (``stop <= _free_min``).  ``inject`` only
          accounts wait cycles, so the window collapses to one bulk
          ``queued_cycles`` update;
        * *idle* — no messages queued.  The only per-cycle state that
          moves is the round-robin pointer, which is already lazy (see
          the class docstring): nothing to do.

        Replaying arbitration state exactly keeps later injection
        decisions — and therefore every downstream stat — identical to a
        per-cycle run.
        """
        if self._queued:
            self.queued_cycles += self._queued * (stop - start)

    # ------------------------------------------------------------------
    def deliver(self, cycle: int) -> None:
        """Hand over every message whose transfer completes this cycle."""
        if not self._in_flight:
            return
        for message in self._in_flight.pop(cycle, ()):
            message.on_deliver(cycle)

    def inject(self, cycle: int) -> None:
        """Assign queued messages to free buses (round-robin over sources,
        at most one injection per source per cycle).

        Calling it on a cycle with nothing queued is allowed and does
        nothing: the round-robin rotation of idle cycles is applied
        lazily by the next injection.
        """
        queued = self._queued
        if not queued:
            return
        free_min = self._free_min
        if cycle < free_min:
            # Every bus busy: wait accounting only, no rotation.
            self.queued_cycles += queued
            return
        src = self._rr_start
        rr_at = self._rr_at
        if cycle > rr_at:
            # Catch up the rotations of the idle cycles [_rr_at, cycle)
            # that had a free bus; _free_min has not changed since.
            idle_from = rr_at if rr_at > free_min else free_min
            if cycle > idle_from:
                src = (src + cycle - idle_from) % self.num_clusters
        self._rr_start = src + 1 if src + 1 < self.num_clusters else 0
        self._rr_at = cycle + 1

        free_at = self._bus_free_at
        latency = self.config.latency
        arrival = cycle + latency
        landing = self._in_flight.setdefault(arrival, [])
        kinds = self.transfers_by_kind
        # Free buses are taken highest index first.
        bus = len(free_at)
        for queue in self._rr_order[src]:
            if queue:
                bus -= 1
                while bus >= 0 and free_at[bus] > cycle:
                    bus -= 1
                if bus < 0:
                    break
                message = queue.popleft()
                free_at[bus] = arrival
                self.busy_cycles[bus] += latency
                landing.append(message)
                kinds[message.kind] = kinds.get(message.kind, 0) + 1
                queued -= 1
                if not queued:
                    break
        self._queued = queued
        self._free_min = min(free_at)
        self.queued_cycles += queued
