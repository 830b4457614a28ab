"""The distributed memory system.

Glues together the per-cluster cache modules, the memory-bus fabric, the
next memory level and (optionally) the Attraction Buffers, and implements
the four access flows of section 2.1 — local hit, remote hit, local miss,
remote miss — plus combined accesses (merged into a pending subblock
request) and the store-replication / Attraction-Buffer semantics of
sections 3.3 and 5.

Values are modeled as store *versions* (see :mod:`repro.sim.coherence`):
each home cluster keeps, per subblock, the map address -> last applied
version.  That is enough to detect every ordering violation while staying
trace-driven.

Timing recipe (matching :meth:`MachineConfig.memory_latencies`):

* local hit:    complete at ``issue + hit``;
* local miss:   next-level request at ``issue + hit``, fill +``latency``;
* remote —      request bus transfer, probe at home (+``hit``), optional
  next-level round trip, response bus transfer.

Per cycle the executor calls :meth:`tick_begin` (deliver bus messages and
next-level fills), lets the core issue, then :meth:`tick_end` (inject
queued transfers).  A request issued at cycle ``c`` therefore first
contends for a bus at ``c``.

The event-skipping executor (the default engine of
:func:`repro.sim.executor.simulate`) replaces long runs of no-op tick
pairs with one :meth:`advance` interval: :meth:`next_event_cycle`
names the earliest cycle at which a tick pair would do anything (a bus
arrival, a deferred home response becoming sendable, a next-level fill —
or the very next cycle while any injection/acceptance queue is busy,
since arbitration and wait accounting happen per cycle), and every cycle
strictly before it is provably inert.  Skipped intervals replay the one
piece of per-cycle state that still moves — bus round-robin arbitration
— in bulk, so an event-skipped run is observation-equivalent, stat for
stat, to a per-cycle run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.arch.config import MachineConfig
from repro.errors import SimulationError
from repro.sim.attraction import AttractionBuffer
from repro.sim.bus import BusFabric, BusMessage
from repro.sim.cache import CacheModule
from repro.sim.coherence import CoherenceChecker
from repro.sim.interleave import home_cluster, subblock_id
from repro.sim.nextlevel import NextLevel, NextLevelRequest
from repro.sim.stats import AccessType, SimStats

Version = Tuple[int, int]
SubblockKey = Tuple[int, int]
LoadCallback = Callable[[int], None]  # completion cycle
#: Structured protocol events (see the class docstring of
#: :class:`MemorySystem` for the vocabulary); consumed by the
#: conformance bridge in :mod:`repro.check.conformance`.
TraceCallback = Callable[[tuple], None]


@dataclass
class _PendingLoad:
    """A load waiting for a subblock (local fill or remote response)."""

    iid: int
    iteration: int
    addr: int
    on_complete: LoadCallback


@dataclass
class _HomeWaiter:
    """Work deferred at a home module until its next-level fill arrives.

    Actions replay *in arrival order* at fill time: a load that reached
    the module before a later store must not observe that store's value
    (they merged into one MSHR entry, but the module still serializes
    them as they arrived).  Each action is one of::

        ("store", addr, version)              apply a write
        ("load", _PendingLoad)                complete a local load
        ("respond", requester, _PendingLoad)  answer a remote read request
    """

    actions: List[tuple] = field(default_factory=list)

    def defer_store(self, addr: int, version: Version) -> None:
        self.actions.append(("store", addr, version))

    def defer_load(self, pending: "_PendingLoad") -> None:
        self.actions.append(("load", pending))

    def defer_response(self, requester: int, pending: "_PendingLoad") -> None:
        self.actions.append(("respond", requester, pending))


class MemorySystem:
    """All clusters' cache modules plus the interconnect.

    ``trace``, when given, receives one tuple per protocol step — pure
    observation, no behavioural effect.  The vocabulary (``block`` is
    the cache-block id, ``ref`` a load's iid or a store's version)::

        ("local", cluster, block, kind, ref, disposition)
        ("remote_issue", cluster, home, block, kind, ref)
        ("home_request", home, src, block, kind, ref, disposition)
        ("send_response", home, block, iids, deferred)
        ("deliver_response", requester, block, iids)
        ("fill", cluster, block)
        ("observe", iid, iteration, observed_version)
        ("apply", block, home, addr, version, inverted)

    with ``kind`` in ``load``/``store`` and ``disposition`` in
    ``hit``/``miss``/``combine``.  The conformance bridge
    (:mod:`repro.check.conformance`) replays these through the protocol
    model transition by transition.
    """

    def __init__(
        self,
        machine: MachineConfig,
        stats: SimStats,
        checker: Optional[CoherenceChecker] = None,
        trace: Optional[TraceCallback] = None,
    ) -> None:
        self.machine = machine
        self.stats = stats
        self.checker = checker
        self._trace = trace
        self.modules = [
            CacheModule(machine.cache) for _ in machine.clusters
        ]
        self.abs: Optional[List[AttractionBuffer]] = None
        if machine.attraction_buffer is not None:
            self.abs = [
                AttractionBuffer(machine.attraction_buffer)
                for _ in machine.clusters
            ]
        self.fabric = BusFabric(machine.memory_buses, machine.num_clusters)
        self.next_level = NextLevel(machine.next_level)
        #: ground truth: (block, home) -> {addr: version}
        self._versions: Dict[SubblockKey, Dict[int, Version]] = {}
        #: home-side MSHRs: per cluster, block -> deferred work
        self._home_mshr: List[Dict[int, _HomeWaiter]] = [
            {} for _ in machine.clusters
        ]
        #: responses waiting for their earliest send cycle
        self._deferred_sends: Dict[int, List[BusMessage]] = {}
        self._outstanding = 0  # accesses not yet fully resolved

    # ------------------------------------------------------------------
    # Cycle driving
    # ------------------------------------------------------------------
    def tick_begin(self, cycle: int) -> None:
        if self._deferred_sends:
            for message in self._deferred_sends.pop(cycle, ()):
                if self._trace is not None and message.tag is not None:
                    self._trace(("send_response",) + message.tag + (True,))
                self.fabric.send(message)
        self.next_level.tick(cycle)
        self.fabric.deliver(cycle)

    def tick_end(self, cycle: int) -> None:
        self.fabric.inject(cycle)
        self.sync_stats()

    def sync_stats(self) -> None:
        """Mirror fabric/next-level counters into :class:`SimStats`.

        Pure absolute copies of monotonic counters, so calling it on any
        subset of cycles yields the same final stats as calling it every
        ``tick_end``.
        """
        self.stats.bus_transfers = self.fabric.transfers
        self.stats.bus_queued_cycles = self.fabric.queued_cycles
        self.stats.next_level_requests = self.next_level.requests
        # The fabric mutates its per-kind dict in place and each run owns
        # its own fabric, so sharing the reference is safe and keeps this
        # per-tick call allocation-free.
        self.stats.bus_transfer_kinds = self.fabric.transfers_by_kind

    def quiescent(self) -> bool:
        return (
            self._outstanding == 0
            and self.fabric.pending() == 0
            and self.next_level.pending() == 0
            and not self._deferred_sends
        )

    def pending_work(self) -> int:
        """How much in-flight work remains (accesses, messages, fills).

        The post-issue drain watchdog tracks this as a low-water mark: a
        healthy drain shrinks it within any watchdog-sized window (every
        message completes within a bus/next-level latency), while a
        memory bug that perpetually reschedules itself does not — so the
        watchdog bounds *progress-free* windows, never the total drain
        length of a legitimately large backlog.
        """
        return (
            self._outstanding
            + self.fabric.pending()
            + self.next_level.pending()
            + sum(len(v) for v in self._deferred_sends.values())
        )

    # ------------------------------------------------------------------
    # Interval advancing (event-skipping executor support)
    # ------------------------------------------------------------------
    def next_event_cycle(self, after: int) -> Optional[int]:
        """Earliest cycle ``>= after`` at which a tick pair does work.

        The timed event sources: in-flight bus transfers, deferred home
        responses (probe/fill data waiting for its earliest send cycle),
        next-level fills, and — when messages are queued but every bus is
        occupied — the first cycle a bus frees up.  While the next level
        has queued requests, or a queued bus message could inject *now*,
        every cycle does work (port acceptance, arbitration) and
        ``after`` itself is returned.  Returns ``None`` when nothing is
        pending at all: no tick pair will ever do anything again.
        (Attraction-Buffer actions are synchronous side effects of loads,
        stores and response deliveries, so they never add event cycles of
        their own.)

        This deliberately reads its components' internal queues rather
        than going through accessor methods: it runs once per processed
        stall/drain cycle, and the three structures probed here are the
        complete set of timed state in the subsystem (the engine
        equivalence tests pin that completeness).
        """
        fabric = self.fabric
        if self.next_level._queue:
            return after
        best: Optional[int] = None
        if fabric._queued:
            free_at = fabric.next_free_bus()
            if free_at <= after:
                return after
            best = free_at
        if fabric._in_flight:
            candidate = min(fabric._in_flight)
            if best is None or candidate < best:
                best = candidate
        completions = self.next_level._completions
        if completions:
            candidate = min(completions)
            if best is None or candidate < best:
                best = candidate
        if self._deferred_sends:
            candidate = min(self._deferred_sends)
            if best is None or candidate < best:
                best = candidate
        if best is None:
            return None
        return best if best > after else after

    def advance(self, start: int, stop: int) -> None:
        """Replay cycles ``[start, stop)`` in one jump.

        Only legal when :meth:`next_event_cycle` proved the window inert
        (``stop <= next_event_cycle(start)``): no deliveries, fills,
        deferred sends, injections or port acceptances can occur, so the
        whole window collapses to the bus fabric's bulk replay (wait
        accounting for stuck queues, round-robin rotation otherwise).
        Semantically identical to ``stop - start`` tick pairs with no
        core issue in between.
        """
        if stop <= start:
            return
        self.fabric.skip_window(start, stop)

    # ------------------------------------------------------------------
    # Version bookkeeping
    # ------------------------------------------------------------------
    def _bucket(self, key: SubblockKey) -> Dict[int, Version]:
        return self._versions.setdefault(key, {})

    def _apply_store(self, key: SubblockKey, addr: int, version: Version) -> None:
        bucket = self._bucket(key)
        current = bucket.get(addr)
        inverted = current is not None and current > version
        if self._trace is not None:
            self._trace(("apply", key[0], key[1], addr, version, inverted))
        if inverted:
            # A younger store already applied: program order inverted.
            if self.checker is not None:
                self.checker.observe_write_inversion()
            self.stats.coherence_violations += 1
            return  # keep the younger (trace-correct) version
        bucket[addr] = version

    def _observe(self, load: _PendingLoad, observed: Optional[Version]) -> None:
        if self._trace is not None:
            self._trace(("observe", load.iid, load.iteration, observed))
        if self.checker is not None:
            if self.checker.observe_load(load.iid, load.iteration, observed):
                self.stats.coherence_violations += 1

    # ------------------------------------------------------------------
    # Public access API
    # ------------------------------------------------------------------
    def _route(self, addr: int) -> Tuple[int, SubblockKey]:
        """Map an address to ``(serving cluster, subblock key)``.

        The snooping default is the paper's word-interleaved home map;
        memory models with a different placement (e.g. the hashed
        last-level slices of the DLS model) override only this hook and
        inherit every protocol flow unchanged.
        """
        return home_cluster(self.machine, addr), subblock_id(self.machine, addr)

    def load(
        self,
        cluster: int,
        addr: int,
        width: int,
        iid: int,
        iteration: int,
        on_complete: LoadCallback,
        cycle: int,
    ) -> None:
        self._check_alignment(addr, width)
        home, key = self._route(addr)
        pending = _PendingLoad(iid, iteration, addr, on_complete)

        if home == cluster:
            self._local_load(cluster, key, pending, cycle)
            return

        # Attraction Buffer: a cached copy of the remote subblock makes the
        # access local (section 5.1).
        if self.abs is not None:
            entry = self.abs[cluster].lookup(key)
            if entry is not None:
                self.stats.record_access(AccessType.LOCAL_HIT)
                self.stats.ab_hits = sum(ab.hits for ab in self.abs)
                self._observe(pending, entry.versions.get(addr))
                on_complete(cycle + self.machine.cache.hit_latency)
                return

        self._remote_load(cluster, home, key, pending, cycle)

    def store(
        self,
        cluster: int,
        addr: int,
        width: int,
        iid: int,
        iteration: int,
        version: Version,
        replica: bool,
        cycle: int,
    ) -> None:
        self._check_alignment(addr, width)
        home, key = self._route(addr)

        if replica and home != cluster:
            # Nullified instance (section 3.3) — but it still refreshes an
            # Attraction Buffer copy if one exists (section 5.3).
            self.stats.nullified_stores += 1
            if self.abs is not None:
                self.abs[cluster].update(key, addr, version)
            return

        if home == cluster:
            self._local_store(cluster, key, addr, version, cycle)
            return

        # Remote store with a locally attracted copy: update it in place;
        # the dirty data goes home at the loop-boundary flush (section 5.2).
        if self.abs is not None:
            if self.abs[cluster].update(key, addr, version):
                self.stats.record_access(AccessType.LOCAL_HIT)
                return

        self._remote_store(cluster, home, key, addr, version, cycle)

    # ------------------------------------------------------------------
    # Local flows
    # ------------------------------------------------------------------
    def _local_load(
        self, cluster: int, key: SubblockKey, pending: _PendingLoad, cycle: int
    ) -> None:
        block = key[0]
        module = self.modules[cluster]
        if module.probe(block):
            self.stats.record_access(AccessType.LOCAL_HIT)
            if self._trace is not None:
                self._trace(("local", cluster, block, "load", pending.iid,
                             "hit"))
            self._observe(pending, self._bucket(key).get(pending.addr))
            pending.on_complete(cycle + self.machine.cache.hit_latency)
            return
        waiter = self._home_mshr[cluster].get(block)
        if waiter is not None:
            self.stats.record_access(AccessType.COMBINED)
            if self._trace is not None:
                self._trace(("local", cluster, block, "load", pending.iid,
                             "combine"))
            waiter.defer_load(pending)
            self._outstanding += 1
            return
        self.stats.record_access(AccessType.LOCAL_MISS)
        if self._trace is not None:
            self._trace(("local", cluster, block, "load", pending.iid,
                         "miss"))
        waiter = _HomeWaiter()
        waiter.defer_load(pending)
        self._home_mshr[cluster][block] = waiter
        self._outstanding += 1
        self._fetch(cluster, block)

    def _local_store(
        self, cluster: int, key: SubblockKey, addr: int, version: Version,
        cycle: int,
    ) -> None:
        block = key[0]
        module = self.modules[cluster]
        if module.probe(block):
            self.stats.record_access(AccessType.LOCAL_HIT)
            if self._trace is not None:
                self._trace(("local", cluster, block, "store", version,
                             "hit"))
            module.mark_dirty(block)
            self._apply_store(key, addr, version)
            return
        waiter = self._home_mshr[cluster].get(block)
        if waiter is not None:
            self.stats.record_access(AccessType.COMBINED)
            if self._trace is not None:
                self._trace(("local", cluster, block, "store", version,
                             "combine"))
            waiter.defer_store(addr, version)
            self._outstanding += 1
            return
        self.stats.record_access(AccessType.LOCAL_MISS)
        if self._trace is not None:
            self._trace(("local", cluster, block, "store", version, "miss"))
        waiter = _HomeWaiter()
        waiter.defer_store(addr, version)
        self._home_mshr[cluster][block] = waiter
        self._outstanding += 1
        self._fetch(cluster, block)

    def _fetch(self, cluster: int, block: int) -> None:
        """Issue the next-level fill for a missing subblock.

        The next level accepts requests at the tick following enqueue, so
        the probe latency is naturally folded into the acceptance delay:
        a miss detected at cycle ``c`` fills at ``c + 1 + latency``, which
        matches the local-miss rung of the latency ladder.
        """

        def on_fill(fill_cycle: int) -> None:
            self._handle_fill(cluster, block, fill_cycle)

        self.next_level.request(NextLevelRequest(on_fill=on_fill))

    def _handle_fill(self, cluster: int, block: int, cycle: int) -> None:
        if self._trace is not None:
            self._trace(("fill", cluster, block))
        module = self.modules[cluster]
        victim = module.install(block, dirty=False)
        if victim is not None and victim.dirty:
            # Write-back of the victim consumes a next-level port.
            self.next_level.request(
                NextLevelRequest(on_fill=lambda c: None, enqueued_at=cycle)
            )
        waiter = self._home_mshr[cluster].pop(block, None)
        if waiter is None:
            raise SimulationError(f"fill for block {block} without waiter")
        key = (block, cluster)
        for action in waiter.actions:
            if action[0] == "store":
                _tag, addr, version = action
                self._apply_store(key, addr, version)
                module.mark_dirty(block)
            elif action[0] == "load":
                pending = action[1]
                self._observe(pending, self._bucket(key).get(pending.addr))
                pending.on_complete(cycle)
            else:  # respond
                self._send_response(
                    cluster, action[1], key, action[2],
                    send_at=cycle, now=cycle,
                )
            self._outstanding -= 1

    # ------------------------------------------------------------------
    # Remote flows
    # ------------------------------------------------------------------
    def _remote_load(
        self,
        cluster: int,
        home: int,
        key: SubblockKey,
        pending: _PendingLoad,
        cycle: int,
    ) -> None:
        """Every remote load travels to its home as its own request.

        There is deliberately no requester-side combining onto an
        in-flight request for the same subblock: a merged load would be
        served at the *older* request's serialization point at the home,
        where it can miss a store that program order placed before it
        (stale read) or observe one placed after it (broken MA).  The
        per-source FIFO buses deliver same-cluster messages in issue
        order, so serving each load where its own request arrives at the
        home — the point of coherence — preserves exactly the ordering
        the MDC/DDGT solutions rely on.  (Requests that find a next-level
        fill in progress still merge into the home MSHR below, which
        replays its actions in arrival order.)
        """
        self._outstanding += 1
        if self._trace is not None:
            self._trace(("remote_issue", cluster, home, key[0], "load",
                         pending.iid))

        def at_home(arrival: int) -> None:
            self._home_load_request(cluster, home, key, pending, arrival)

        self.fabric.send(
            BusMessage(src=cluster, dst=home, on_deliver=at_home,
                       enqueued_at=cycle, kind="req_load")
        )

    def _home_load_request(
        self, requester: int, home: int, key: SubblockKey,
        pending: _PendingLoad, arrival: int,
    ) -> None:
        block = key[0]
        module = self.modules[home]
        if module.probe(block):
            self.stats.record_access(AccessType.REMOTE_HIT)
            if self._trace is not None:
                self._trace(("home_request", home, requester, block, "load",
                             pending.iid, "hit"))
            self._send_response(
                home,
                requester,
                key,
                pending,
                send_at=arrival + self.machine.cache.hit_latency,
                now=arrival,
            )
            return
        waiter = self._home_mshr[home].get(block)
        if waiter is not None:
            self.stats.record_access(AccessType.COMBINED)
            if self._trace is not None:
                self._trace(("home_request", home, requester, block, "load",
                             pending.iid, "combine"))
            waiter.defer_response(requester, pending)
            self._outstanding += 1
            return
        self.stats.record_access(AccessType.REMOTE_MISS)
        if self._trace is not None:
            self._trace(("home_request", home, requester, block, "load",
                         pending.iid, "miss"))
        waiter = _HomeWaiter()
        waiter.defer_response(requester, pending)
        self._home_mshr[home][block] = waiter
        self._outstanding += 1
        self._fetch(home, block)

    def _send_response(
        self, home: int, requester: int, key: SubblockKey,
        pending: _PendingLoad, send_at: int, now: int,
    ) -> None:
        """Serve one read request and queue its response.

        The load observes the subblock *here*, at its serialization point
        at the home module; the response only models the transfer back.
        ``send_at`` is the cycle the response data is ready at the home
        module (probe latency after the request's arrival, or the fill
        cycle itself); messages ready now enter the bus queue directly so
        they contend for a bus this very cycle.
        """
        snapshot = dict(self._bucket(key))
        self._observe(pending, snapshot.get(pending.addr))

        def at_requester(arrival: int) -> None:
            if self._trace is not None:
                self._trace(("deliver_response", requester, key[0],
                             (pending.iid,)))
            pending.on_complete(arrival)
            self._outstanding -= 1
            if self.abs is not None:
                self._ab_fill(requester, key, snapshot)

        message = BusMessage(
            src=home, dst=requester, on_deliver=at_requester,
            enqueued_at=send_at, tag=(home, key[0], (pending.iid,)),
            kind="resp",
        )
        if send_at <= now:
            if self._trace is not None:
                self._trace(("send_response", home, key[0], (pending.iid,),
                             False))
            self.fabric.send(message)
        else:
            self._deferred_sends.setdefault(send_at, []).append(message)

    def _remote_store(
        self,
        cluster: int,
        home: int,
        key: SubblockKey,
        addr: int,
        version: Version,
        cycle: int,
    ) -> None:
        self._outstanding += 1
        if self._trace is not None:
            self._trace(("remote_issue", cluster, home, key[0], "store",
                         version))

        def at_home(arrival: int) -> None:
            self._home_store_request(home, key, addr, version, src=cluster)
            self._outstanding -= 1

        self.fabric.send(
            BusMessage(src=cluster, dst=home, on_deliver=at_home,
                       enqueued_at=cycle, kind="req_store")
        )

    def _home_store_request(
        self, home: int, key: SubblockKey, addr: int, version: Version,
        src: Optional[int] = None,
    ) -> None:
        block = key[0]
        module = self.modules[home]
        if module.probe(block):
            self.stats.record_access(AccessType.REMOTE_HIT)
            if self._trace is not None:
                self._trace(("home_request", home, src, block, "store",
                             version, "hit"))
            module.mark_dirty(block)
            self._apply_store(key, addr, version)
            return
        waiter = self._home_mshr[home].get(block)
        if waiter is not None:
            self.stats.record_access(AccessType.COMBINED)
            if self._trace is not None:
                self._trace(("home_request", home, src, block, "store",
                             version, "combine"))
            waiter.defer_store(addr, version)
            self._outstanding += 1
            return
        self.stats.record_access(AccessType.REMOTE_MISS)
        if self._trace is not None:
            self._trace(("home_request", home, src, block, "store",
                         version, "miss"))
        waiter = _HomeWaiter()
        waiter.defer_store(addr, version)
        self._home_mshr[home][block] = waiter
        self._outstanding += 1
        self._fetch(home, block)

    # ------------------------------------------------------------------
    # Attraction Buffers
    # ------------------------------------------------------------------
    def _ab_fill(
        self, cluster: int, key: SubblockKey, snapshot: Dict[int, Version]
    ) -> None:
        assert self.abs is not None
        victim = self.abs[cluster].fill(key, snapshot)
        if victim is not None and victim.dirty:
            self._write_back_ab_entry(victim)
        self.stats.ab_fills = sum(ab.fills for ab in self.abs)
        self.stats.ab_overflows = sum(ab.overflows for ab in self.abs)

    def _write_back_ab_entry(self, entry) -> None:
        for addr, version in entry.versions.items():
            self._apply_store(entry.key, addr, version)

    def flush_attraction_buffers(self) -> None:
        """Loop-boundary flush (sections 5.2/5.3): every dirty attracted
        copy is written back to its home cluster and all entries drop."""
        if self.abs is None:
            return
        for ab in self.abs:
            for entry in ab.flush():
                self._write_back_ab_entry(entry)
                self.stats.ab_flushed_dirty += 1

    # ------------------------------------------------------------------
    def _check_alignment(self, addr: int, width: int) -> None:
        """Accesses wider than the interleave unit (e.g. mpeg2dec's 8-byte
        data over a 4-byte interleave, Table 1) are modeled as touching the
        *leading* unit's home cluster; versions are tracked at the exact
        access address, so coherence checking is unaffected."""
        if width < 1:
            raise SimulationError(f"access width must be positive, got {width}")
