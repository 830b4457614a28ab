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
contends for a bus at ``c``.  Both are cheap on cycles with nothing due:
``tick_begin`` only runs the deliveries, fills and deferred sends keyed
to this very cycle, and ``tick_end`` only calls into the fabric while
messages are queued.

Counters are kept where they change — plain ints on this object, the
fabric and the next level — and copied into :class:`SimStats` by
:meth:`sync_stats`, which the executor calls once, at the end of a run.
Neither tick syncs stats; a caller that drives the memory system by hand
and reads its stats calls :meth:`sync_stats` first.

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

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.arch.config import MachineConfig
from repro.errors import SimulationError
from repro.sim.attraction import AttractionBuffer
from repro.sim.bus import BusFabric, BusMessage
from repro.sim.cache import CacheModule
from repro.sim.coherence import CoherenceChecker
from repro.sim.interleave import home_cluster
from repro.sim.nextlevel import NextLevel, NextLevelRequest
from repro.sim.stats import AccessType, SimStats

Version = Tuple[int, int]
SubblockKey = Tuple[int, int]
LoadCallback = Callable[[int], None]  # completion cycle
#: Structured protocol events (see the class docstring of
#: :class:`MemorySystem` for the vocabulary); consumed by the
#: conformance bridge in :mod:`repro.check.conformance`.
TraceCallback = Callable[[tuple], None]


class _PendingLoad:
    """A load waiting for a subblock (local fill or remote response)."""

    __slots__ = ("iid", "iteration", "addr", "on_complete")

    def __init__(
        self, iid: int, iteration: int, addr: int, on_complete: LoadCallback
    ) -> None:
        self.iid = iid
        self.iteration = iteration
        self.addr = addr
        self.on_complete = on_complete


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

    __slots__ = ("actions",)

    def __init__(self) -> None:
        self.actions: List[tuple] = []

    def defer_store(self, addr: int, version: Version) -> None:
        self.actions.append(("store", addr, version))

    def defer_load(self, pending: _PendingLoad) -> None:
        self.actions.append(("load", pending))

    def defer_response(self, requester: int, pending: _PendingLoad) -> None:
        self.actions.append(("respond", requester, pending))


def _ignore_fill(cycle: int) -> None:
    """Completion callback of a victim write-back (nothing waits on it)."""


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
        # Geometry read on every access.
        self._block_bytes = machine.cache.block_bytes
        self._num_clusters = machine.num_clusters
        self._hit_latency = machine.cache.hit_latency
        # Access classification (Figure 6), flushed by sync_stats().
        self._local_hits = 0
        self._remote_hits = 0
        self._local_misses = 0
        self._remote_misses = 0
        self._combined = 0

    # ------------------------------------------------------------------
    # Cycle driving
    # ------------------------------------------------------------------
    def tick_begin(self, cycle: int) -> None:
        deferred = self._deferred_sends
        if deferred and cycle in deferred:
            for message in deferred.pop(cycle):
                if self._trace is not None and message.tag is not None:
                    self._trace(("send_response",) + message.tag + (True,))
                self.fabric.send(message)
        next_level = self.next_level
        if next_level._queue or cycle in next_level._completions:
            next_level.tick(cycle)
        if cycle in self.fabric._in_flight:
            self.fabric.deliver(cycle)

    def tick_end(self, cycle: int) -> None:
        if self.fabric._queued:
            self.fabric.inject(cycle)

    def sync_stats(self) -> None:
        """Copy the memory-side counters into :class:`SimStats`.

        Pure absolute copies of monotonic counters, so it may run any
        number of times; the executor runs it once, after the last cycle
        and the Attraction-Buffer flush.
        """
        stats = self.stats
        stats.bus_transfers = self.fabric.transfers
        stats.bus_queued_cycles = self.fabric.queued_cycles
        stats.next_level_requests = self.next_level.requests
        # The fabric mutates its per-kind dict in place and each run owns
        # its own fabric, so sharing the reference is safe.
        stats.bus_transfer_kinds = self.fabric.transfers_by_kind
        accesses = stats.accesses
        accesses[AccessType.LOCAL_HIT] = self._local_hits
        accesses[AccessType.REMOTE_HIT] = self._remote_hits
        accesses[AccessType.LOCAL_MISS] = self._local_misses
        accesses[AccessType.REMOTE_MISS] = self._remote_misses
        accesses[AccessType.COMBINED] = self._combined
        if self.abs is not None:
            stats.ab_hits = sum(ab.hits for ab in self.abs)
            stats.ab_fills = sum(ab.fills for ab in self.abs)
            stats.ab_overflows = sum(ab.overflows for ab in self.abs)

    def quiescent(self) -> bool:
        return (
            self._outstanding == 0
            and self.fabric._queued == 0
            and not self.fabric._in_flight
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
            free_at = fabric._free_min
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
        accounting for stuck queues; idle round-robin rotation is lazy).
        Semantically identical to ``stop - start`` tick pairs with no
        core issue in between.
        """
        if stop > start:
            self.fabric.skip_window(start, stop)

    # ------------------------------------------------------------------
    # Version bookkeeping
    # ------------------------------------------------------------------
    def _version_at(self, key: SubblockKey, addr: int) -> Optional[Version]:
        bucket = self._versions.get(key)
        return None if bucket is None else bucket.get(addr)

    def _apply_store(self, key: SubblockKey, addr: int, version: Version) -> None:
        bucket = self._versions.get(key)
        if bucket is None:
            bucket = self._versions[key] = {}
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

    def _observe(
        self, iid: int, iteration: int, observed: Optional[Version]
    ) -> None:
        if self._trace is not None:
            self._trace(("observe", iid, iteration, observed))
        checker = self.checker
        if checker is not None and checker.observe_load(
            iid, iteration, observed
        ):
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
        home = home_cluster(self.machine, addr)
        return home, (addr // self._block_bytes, home)

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

        if home == cluster:
            self._local_load(cluster, key, iid, iteration, addr,
                             on_complete, cycle)
            return

        # Attraction Buffer: a cached copy of the remote subblock makes the
        # access local (section 5.1).
        if self.abs is not None:
            entry = self.abs[cluster].lookup(key)
            if entry is not None:
                self._local_hits += 1
                self._observe(iid, iteration, entry.versions.get(addr))
                on_complete(cycle + self._hit_latency)
                return

        self._remote_load(cluster, home, key,
                          _PendingLoad(iid, iteration, addr, on_complete))

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
            self._local_store(cluster, key, addr, version)
            return

        # Remote store with a locally attracted copy: update it in place;
        # the dirty data goes home at the loop-boundary flush (section 5.2).
        if self.abs is not None:
            if self.abs[cluster].update(key, addr, version):
                self._local_hits += 1
                return

        self._remote_store(cluster, home, key, addr, version)

    # ------------------------------------------------------------------
    # Local flows
    # ------------------------------------------------------------------
    def _local_load(
        self, cluster: int, key: SubblockKey, iid: int, iteration: int,
        addr: int, on_complete: LoadCallback, cycle: int,
    ) -> None:
        block = key[0]
        if self.modules[cluster].probe(block):
            self._local_hits += 1
            if self._trace is not None:
                self._trace(("local", cluster, block, "load", iid, "hit"))
            self._observe(iid, iteration, self._version_at(key, addr))
            on_complete(cycle + self._hit_latency)
            return
        pending = _PendingLoad(iid, iteration, addr, on_complete)
        waiter = self._home_mshr[cluster].get(block)
        if waiter is not None:
            self._combined += 1
            if self._trace is not None:
                self._trace(("local", cluster, block, "load", iid,
                             "combine"))
            waiter.defer_load(pending)
            self._outstanding += 1
            return
        self._local_misses += 1
        if self._trace is not None:
            self._trace(("local", cluster, block, "load", iid, "miss"))
        waiter = _HomeWaiter()
        waiter.defer_load(pending)
        self._home_mshr[cluster][block] = waiter
        self._outstanding += 1
        self._fetch(cluster, block)

    def _local_store(
        self, cluster: int, key: SubblockKey, addr: int, version: Version,
    ) -> None:
        block = key[0]
        module = self.modules[cluster]
        if module.probe(block):
            self._local_hits += 1
            if self._trace is not None:
                self._trace(("local", cluster, block, "store", version,
                             "hit"))
            module.mark_dirty(block)
            self._apply_store(key, addr, version)
            return
        waiter = self._home_mshr[cluster].get(block)
        if waiter is not None:
            self._combined += 1
            if self._trace is not None:
                self._trace(("local", cluster, block, "store", version,
                             "combine"))
            waiter.defer_store(addr, version)
            self._outstanding += 1
            return
        self._local_misses += 1
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
        self.next_level.request(
            NextLevelRequest(partial(self._handle_fill, cluster, block))
        )

    def _handle_fill(self, cluster: int, block: int, cycle: int) -> None:
        if self._trace is not None:
            self._trace(("fill", cluster, block))
        module = self.modules[cluster]
        victim = module.install(block, dirty=False)
        if victim is not None and victim.dirty:
            # Write-back of the victim consumes a next-level port.
            self.next_level.request(NextLevelRequest(_ignore_fill))
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
                self._observe(pending.iid, pending.iteration,
                              self._version_at(key, pending.addr))
                pending.on_complete(cycle)
            else:  # respond
                self._send_response(cluster, action[1], key, action[2],
                                    cycle, cycle)
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
        self.fabric.send(BusMessage(
            cluster, home,
            partial(self._home_load_request, cluster, home, key, pending),
            None, "req_load",
        ))

    def _home_load_request(
        self, requester: int, home: int, key: SubblockKey,
        pending: _PendingLoad, arrival: int, event: str = "home_request",
    ) -> None:
        """Serve a read request at its serving module (``event`` names
        the step in the trace vocabulary)."""
        block = key[0]
        if self.modules[home].probe(block):
            self._remote_hits += 1
            if self._trace is not None:
                self._trace((event, home, requester, block, "load",
                             pending.iid, "hit"))
            self._send_response(home, requester, key, pending,
                                arrival + self._hit_latency, arrival)
            return
        waiter = self._home_mshr[home].get(block)
        if waiter is not None:
            self._combined += 1
            if self._trace is not None:
                self._trace((event, home, requester, block, "load",
                             pending.iid, "combine"))
            waiter.defer_response(requester, pending)
            self._outstanding += 1
            return
        self._remote_misses += 1
        if self._trace is not None:
            self._trace((event, home, requester, block, "load",
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
        they contend for a bus this very cycle.  The subblock's version
        snapshot travels with the response only when an Attraction
        Buffer will keep it.
        """
        bucket = self._versions.get(key)
        self._observe(pending.iid, pending.iteration,
                      None if bucket is None else bucket.get(pending.addr))
        snapshot = None
        if self.abs is not None:
            snapshot = {} if bucket is None else dict(bucket)
        tag = None
        if self._trace is not None:
            tag = (home, key[0], (pending.iid,))
            if send_at <= now:
                self._trace(("send_response",) + tag + (False,))
        message = BusMessage(
            home, requester,
            partial(self._deliver_response, requester, key, pending,
                    snapshot),
            tag, "resp",
        )
        if send_at <= now:
            self.fabric.send(message)
        else:
            deferred = self._deferred_sends.get(send_at)
            if deferred is None:
                self._deferred_sends[send_at] = [message]
            else:
                deferred.append(message)

    def _deliver_response(
        self, requester: int, key: SubblockKey, pending: _PendingLoad,
        snapshot: Optional[Dict[int, Version]], arrival: int,
    ) -> None:
        if self._trace is not None:
            self._trace(("deliver_response", requester, key[0],
                         (pending.iid,)))
        pending.on_complete(arrival)
        self._outstanding -= 1
        if snapshot is not None:
            self._ab_fill(requester, key, snapshot)

    def _remote_store(
        self,
        cluster: int,
        home: int,
        key: SubblockKey,
        addr: int,
        version: Version,
    ) -> None:
        self._outstanding += 1
        if self._trace is not None:
            self._trace(("remote_issue", cluster, home, key[0], "store",
                         version))
        self.fabric.send(BusMessage(
            cluster, home,
            partial(self._store_arrival, self._home_store_request, home,
                    key, addr, version, cluster),
            None, "req_store",
        ))

    def _store_arrival(
        self, serve: Callable[..., None], server: int, key: SubblockKey,
        addr: int, version: Version, src: int, arrival: int,
    ) -> None:
        """A store request reaches ``server``: serve it, and the issuing
        access stops counting as in flight."""
        serve(server, key, addr, version, src)
        self._outstanding -= 1

    def _home_store_request(
        self, home: int, key: SubblockKey, addr: int, version: Version,
        src: Optional[int] = None, event: str = "home_request",
    ) -> None:
        block = key[0]
        module = self.modules[home]
        if module.probe(block):
            self._remote_hits += 1
            if self._trace is not None:
                self._trace((event, home, src, block, "store", version,
                             "hit"))
            module.mark_dirty(block)
            self._apply_store(key, addr, version)
            return
        waiter = self._home_mshr[home].get(block)
        if waiter is not None:
            self._combined += 1
            if self._trace is not None:
                self._trace((event, home, src, block, "store", version,
                             "combine"))
            waiter.defer_store(addr, version)
            self._outstanding += 1
            return
        self._remote_misses += 1
        if self._trace is not None:
            self._trace((event, home, src, block, "store", version, "miss"))
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
