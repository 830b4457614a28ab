"""The stall-on-use VLIW core: executes a modulo schedule against the
distributed memory system.

Execution model (section 2.1 + modulo semantics):

* the machine is a single flow of control in lockstep across clusters;
  instance ``i`` of operation ``v`` issues at kernel index
  ``t(v) + i * II``; one kernel index is retired per non-stalled cycle;
* *stall-on-use*: issue blocks — for the whole machine — when any operation
  due this cycle consumes a load value that has not arrived yet; the memory
  system keeps advancing during stalls;
* only loads have non-deterministic completion times, so only direct
  register consumers of loads can stall (every fixed-latency producer is
  separated from its consumers by at least its latency in kernel indexes,
  and stalls can only widen the real-time gap).

Cycle accounting matches Figures 7/9: ``compute_cycles`` counts retired
kernel indexes, ``stall_cycles`` counts blocked cycles.  The drain of
in-flight memory traffic after the last issue is not charged to either.

Two engines share this model:

* ``engine="events"`` (the default) — an event-skipping engine.  A cycle
  only needs processing when the core issues or the memory system does
  work; during stalled windows and the post-issue drain, the engine asks
  the memory system for its :meth:`~repro.sim.memory.MemorySystem.
  next_event_cycle` (earliest pending bus arrival, deferred home
  response, or next-level fill) and jumps there in one step, advancing
  stall accounting and arbitration state in bulk.  A "no loads in
  flight, none due" fast path additionally retires whole runs of
  memory-free kernel indexes at once.  The engine is observation-
  equivalent to the per-cycle reference — the golden fixtures under
  ``tests/goldens/`` pin this byte for byte.
* ``engine="cycles"`` — the per-cycle reference: one Python iteration
  per machine cycle, ``tick_begin``/``tick_end`` every cycle.  Kept as
  the semantic baseline for equivalence tests and the speedup benchmark
  (``benchmarks/bench_sim_fastpath.py``).

Memory is always constructed through the model registry
(:mod:`repro.sim.models`); tests substitute fault-injecting memory
systems by registering a model under an existing name.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.alias.profiles import TraceLike
from repro.errors import SimulationError
from repro.ir.edges import DepKind
from repro.obs import metrics
from repro.sched.pipeline import CompilationResult
from repro.sim.coherence import CoherenceChecker, ViolationCounts
from repro.sim.memory import MemorySystem
from repro.sim.stats import SimStats
from repro.workloads.traces import address_tables

#: Consecutive stalled cycles after which the simulation is declared
#: hung.  The same bound guards the post-issue drain: a memory system
#: that fails to quiesce within this many cycles after the last issue
#: raises instead of spinning forever.
STALL_WATCHDOG = 100_000

#: Kernel indexes between prunes of the load-completion map.
_PRUNE_INTERVAL = 4096

#: The available simulation engines (see module docstring).
ENGINES = ("events", "cycles")


@dataclass
class SimulationResult:
    """Statistics plus context for one simulated loop execution."""

    stats: SimStats
    ii: int
    stage_count: int
    iterations: int
    violations: Optional[ViolationCounts] = None

    @property
    def total_cycles(self) -> int:
        return self.stats.total_cycles

    @property
    def compute_cycles(self) -> int:
        return self.stats.compute_cycles

    @property
    def stall_cycles(self) -> int:
        return self.stats.stall_cycles


@dataclass
class _OpInfo:
    """Pre-resolved per-operation execution info."""

    iid: int
    cluster: int
    time: int
    is_load: bool = False
    is_store: bool = False
    width: int = 4
    replica: bool = False
    seq: int = 0
    #: (load iid, distance) pairs this op must wait for (stall-on-use)
    load_preds: Tuple[Tuple[int, int], ...] = ()


def simulate(
    compilation: CompilationResult,
    trace: TraceLike,
    iterations: Optional[int] = None,
    check_coherence: bool = True,
    flush_abs: bool = True,
    engine: str = "events",
    model: str = "snooping",
) -> SimulationResult:
    """Run a compiled loop against an execution address trace.

    ``engine`` selects the execution strategy: ``"events"`` (default)
    fast-forwards stalled and drain windows to the next memory event,
    ``"cycles"`` is the one-iteration-per-cycle reference.  Both produce
    identical :class:`~repro.sim.stats.SimStats` and violation counts.

    ``model`` names the registered memory model
    (:mod:`repro.sim.models`) the run simulates; every engine supports
    every model.
    """
    if engine not in ENGINES:
        raise SimulationError(
            f"unknown simulation engine {engine!r}; expected one of {ENGINES}"
        )
    from repro.sim import models as _models  # local: avoid cycle

    model_impl = _models.named_model(model)
    schedule = compilation.schedule
    machine = compilation.machine
    ddg = compilation.ddg

    n_iter = trace.num_iterations if iterations is None else iterations
    if n_iter < 1:
        raise SimulationError("need at least one iteration")
    if n_iter > trace.num_iterations:
        raise SimulationError(
            f"trace provides {trace.num_iterations} iterations, "
            f"{n_iter} requested"
        )

    addresses = address_tables(ddg, trace, n_iter)
    checker = (
        CoherenceChecker(ddg, addresses, n_iter) if check_coherence else None
    )
    stats = SimStats()
    memory = model_impl.build(machine, stats, checker)

    ops_by_slot = _prepare(compilation)
    total_indexes = schedule.length + (n_iter - 1) * schedule.ii

    #: load completions: iid -> {iteration: cycle or None while in flight}
    completions: Dict[int, Dict[int, Optional[int]]] = {
        instr.iid: {} for instr in ddg.loads()
    }

    run = _run_event_skipping if engine == "events" else _run_per_cycle
    run(
        schedule, n_iter, total_indexes, ops_by_slot, completions,
        addresses, memory, stats,
    )

    if flush_abs:
        memory.flush_attraction_buffers()
    memory.sync_stats()

    # One registry publication per run (never per cycle): engine counters
    # incl. the event-skipping diagnostics, plus per-bus occupancy.
    if metrics.enabled():
        stats.publish(engine, model=model)
        for bus, busy in enumerate(memory.fabric.busy_cycles):
            metrics.inc("sim.bus_busy_cycles", busy, engine=engine, bus=bus)

    return SimulationResult(
        stats=stats,
        ii=schedule.ii,
        stage_count=schedule.stage_count,
        iterations=n_iter,
        violations=checker.counts if checker else None,
    )


# ----------------------------------------------------------------------
# Per-run tables
# ----------------------------------------------------------------------
def _issue_tables(
    ops_by_slot: List[List[_OpInfo]],
    ii: int,
    completions: Dict[int, Dict[int, Optional[int]]],
    addresses: Dict[int, Sequence[int]],
) -> List[tuple]:
    """Per-slot issue lists for the steady window (see
    :func:`_fastpath_tables`), where every op of a slot is due.

    At kernel index ``index = q * ii + slot``, the op with issue time
    ``time`` runs iteration ``q - time // ii``; a slot entry is::

        (op count, load waits, loads, stores)

    Load waits are ``(completion map, offset)`` pairs: the producer
    iteration is ``q - offset``, and a negative one reads as ready,
    exactly like the reference's ``j < 0`` skip.  Loads are
    ``(cluster, address table, width, iid, time // ii, completion-map
    setter)`` and stores ``(cluster, address table, width, iid,
    time // ii, seq, replica)``; issuing every load before every store
    keeps the bucket order of :func:`_prepare`.
    """
    tables = []
    for bucket in ops_by_slot:
        waits = tuple(
            (completions[load_iid], info.time // ii + distance)
            for info in bucket
            for load_iid, distance in info.load_preds
        )
        loads = tuple(
            (info.cluster, addresses[info.iid], info.width, info.iid,
             info.time // ii, completions[info.iid].__setitem__)
            for info in bucket
            if info.is_load
        )
        stores = tuple(
            (info.cluster, addresses[info.iid], info.width, info.iid,
             info.time // ii, info.seq, info.replica)
            for info in bucket
            if info.is_store
        )
        tables.append((len(bucket), waits, loads, stores))
    return tables


# ----------------------------------------------------------------------
# Engine: per-cycle reference
# ----------------------------------------------------------------------
def _run_per_cycle(
    schedule, n_iter, total_indexes, ops_by_slot, completions,
    addresses, memory, stats,
) -> None:
    """One Python iteration per machine cycle (the semantic baseline)."""
    ii = schedule.ii
    index = 0
    cycle = 0
    stall_streak = 0
    drain_streak = 0
    drain_low_water = float("inf")
    while index < total_indexes or not memory.quiescent():
        memory.tick_begin(cycle)
        if index < total_indexes:
            due = _due_ops(ops_by_slot, index, ii, n_iter)
            if _all_ready(due, completions, cycle):
                for info, iteration in due:
                    _issue(
                        info, iteration, cycle, addresses, memory,
                        completions, stats,
                    )
                index += 1
                stats.compute_cycles += 1
                stall_streak = 0
                if index % _PRUNE_INTERVAL == 0:
                    _prune(completions, index, ii, schedule.length)
            else:
                stats.stall_cycles += 1
                stall_streak += 1
                if stall_streak > STALL_WATCHDOG:
                    raise SimulationError(
                        f"machine stalled for {stall_streak} cycles at "
                        f"kernel index {index}"
                    )
        else:
            # Post-issue drain: nothing issues, the memory system empties
            # its in-flight traffic.  A memory bug that never quiesces
            # must raise, not spin forever.  The watchdog bounds
            # *progress-free* windows — the low-water mark of pending
            # work must keep falling — so a legitimately large backlog
            # may take arbitrarily long, but a stuck or self-rescheduling
            # memory system cannot.
            pending = memory.pending_work()
            if pending < drain_low_water:
                drain_low_water = pending
                drain_streak = 0
            drain_streak += 1
            if drain_streak > STALL_WATCHDOG:
                raise SimulationError(
                    f"memory system failed to drain: no progress for "
                    f"{STALL_WATCHDOG} cycles after the last issue"
                )
        memory.tick_end(cycle)
        cycle += 1


# ----------------------------------------------------------------------
# Engine: event skipping
# ----------------------------------------------------------------------
def _run_event_skipping(
    schedule, n_iter, total_indexes, ops_by_slot, completions,
    addresses, memory, stats,
) -> None:
    """Jump stalled and drain windows to the next memory event.

    Observation-equivalence argument, window by window:

    * a *stalled* cycle does exactly: no-op tick pair (plus bus
      round-robin rotation), ``stall_cycles += 1``.  Readiness can only
      change when a blocking load completes — at a memory event, or at
      its already-known completion cycle — so every cycle strictly
      before ``min(next event, known wake)`` is a stall, and the whole
      window collapses to one bulk accounting step plus
      :meth:`~repro.sim.memory.MemorySystem.advance`;
    * a *drain* cycle does exactly: no-op tick pair.  Jump straight from
      event to event until quiescent;
    * a run of kernel indexes whose slots contain no memory operation
      and no load consumer, entered with the memory system quiescent
      (no loads in flight, none due), issues unconditionally and leaves
      memory untouched — the run retires in one step.

    Inside the steady window every index issues from its slot's
    precomputed issue list (:func:`_issue_tables`) — the same ops, in
    the same order, with the same iterations as :func:`_due_ops`.
    """
    ii = schedule.ii
    length = schedule.length
    index = 0
    cycle = 0
    stall_streak = 0
    drain_low_water = float("inf")
    drain_anchor = 0
    next_prune = _PRUNE_INTERVAL

    (
        run_len, all_clean, count_prefix, ops_per_ii, steady_lo, steady_hi,
    ) = _fastpath_tables(ops_by_slot, ii, n_iter, total_indexes)
    slot_tables = _issue_tables(ops_by_slot, ii, completions, addresses)

    tick_begin = memory.tick_begin
    tick_end = memory.tick_end
    quiescent = memory.quiescent
    load = memory.load
    store = memory.store

    while index < total_indexes or not quiescent():
        if index >= total_indexes:
            # ---- post-issue drain ------------------------------------
            # Same watchdog policy as the reference: bound windows in
            # which the low-water mark of pending work stops falling,
            # not the total drain length of a large (healthy) backlog.
            # Sampled after tick_begin, exactly like the reference, so
            # progress delivered *this* cycle re-anchors immediately and
            # both engines agree on the cycle a drain is declared hung.
            tick_begin(cycle)
            pending = memory.pending_work()
            if pending < drain_low_water:
                drain_low_water = pending
                drain_anchor = cycle
            tick_end(cycle)
            cycle += 1
            if cycle - drain_anchor > STALL_WATCHDOG:
                raise SimulationError(
                    f"memory system failed to drain: no progress for "
                    f"{STALL_WATCHDOG} cycles after the last issue"
                )
            if quiescent():
                continue
            event = memory.next_event_cycle(cycle)
            if event is None:
                raise SimulationError(
                    f"memory system cannot drain: in-flight work remains "
                    f"but no event is pending at cycle {cycle}"
                )
            # Never jump past the cycle on which the reference would
            # declare the drain hung: clamp so that cycle still gets
            # processed and the watchdog fires at the same point.
            limit = drain_anchor + STALL_WATCHDOG
            if event > limit:
                event = limit
            if event > cycle:
                stats.fast_forwarded_cycles += event - cycle
                memory.advance(cycle, event)
                cycle = event
            continue

        steady = steady_lo <= index < steady_hi
        if steady:
            q, slot = divmod(index, ii)
            # ---- bulk fast path: memory-free kernel-index runs -------
            if all_clean:
                k = steady_hi - index
            else:
                k = run_len[slot]
                if k:
                    bound = steady_hi - index
                    if k > bound:
                        k = bound
            # k <= total_indexes - index always: steady_hi is capped at
            # total_indexes and both branches bound k by steady_hi.
            if k and quiescent():
                if all_clean:
                    whole, rem = divmod(k, ii)
                    issued = whole * ops_per_ii + (
                        count_prefix[slot + rem] - count_prefix[slot]
                    )
                else:
                    issued = count_prefix[slot + k] - count_prefix[slot]
                stats.issued_ops += issued
                stats.compute_cycles += k
                stats.fast_retired_indexes += k
                memory.advance(cycle, cycle + k)
                index += k
                cycle += k
                stall_streak = 0
                if index >= next_prune:
                    _prune(completions, index, ii, length)
                    next_prune = _next_prune_after(index)
                continue

        # ---- one kernel index: stall (fast-forwarding) until ready ---
        tick_begin(cycle)
        waits = None
        if steady:
            count, slot_waits, loads, stores = slot_tables[slot]
            for per_load, offset in slot_waits:
                done = per_load.get(q - offset, 0)
                if done is None or done > cycle:
                    waits = [(d, q - o) for d, o in slot_waits]
                    break
        else:
            due = _due_ops(ops_by_slot, index, ii, n_iter)
            if not _all_ready(due, completions, cycle):
                waits = [
                    (completions[load_iid], iteration - distance)
                    for info, iteration in due
                    for load_iid, distance in info.load_preds
                    if iteration - distance >= 0
                ]
        if waits is not None:
            # The due set is frozen while the index stalls; its load
            # waits are resolved once: loop event-to-event until they
            # clear.
            while True:
                stats.stall_cycles += 1
                stall_streak += 1
                if stall_streak > STALL_WATCHDOG:
                    raise SimulationError(
                        f"machine stalled for {stall_streak} cycles at "
                        f"kernel index {index}"
                    )
                tick_end(cycle)
                cycle += 1

                event = memory.next_event_cycle(cycle)
                if event is None or event > cycle:
                    # No event this very cycle: a jump may be possible,
                    # bounded by the earliest known load-completion wake.
                    wake = _waits_wake(waits)
                    if wake is None and event is None:
                        # A blocking load is in flight but the memory
                        # system has nothing scheduled: the machine can
                        # never unblock.  The per-cycle reference spins
                        # up to the watchdog; charge the same window and
                        # raise its exact error.
                        _raise_watchdog(stats, stall_streak, index)
                    if wake is None:
                        target = event
                    elif event is None:
                        target = wake
                    else:
                        target = event if event < wake else wake
                    if target > cycle:
                        skipped = target - cycle
                        if stall_streak + skipped > STALL_WATCHDOG:
                            _raise_watchdog(stats, stall_streak, index)
                        stats.stall_cycles += skipped
                        stats.fast_forwarded_cycles += skipped
                        stall_streak += skipped
                        memory.advance(cycle, target)
                        cycle = target
                        if skipped >= _PRUNE_INTERVAL:
                            # A fast-forwarded stall window as long as a
                            # whole prune interval: drop stale
                            # completions now, not after the streak.
                            _prune(completions, index, ii, length)
                            if index >= next_prune:
                                next_prune = _next_prune_after(index)
                tick_begin(cycle)
                if _waits_ready(waits, cycle):
                    break

        if steady:
            stats.issued_ops += count
            for cluster, table, width, iid, offset, setter in loads:
                iteration = q - offset
                setter(iteration, None)
                load(cluster, table[iteration], width, iid, iteration,
                     partial(setter, iteration), cycle)
            for cluster, table, width, iid, offset, seq, replica in stores:
                iteration = q - offset
                store(cluster, table[iteration], width, iid, iteration,
                      (iteration, seq), replica, cycle)
        else:
            for info, iteration in due:
                _issue(info, iteration, cycle, addresses, memory,
                       completions, stats)
        index += 1
        stats.compute_cycles += 1
        stall_streak = 0
        tick_end(cycle)
        cycle += 1
        if index >= next_prune:
            _prune(completions, index, ii, length)
            next_prune = _next_prune_after(index)


def _raise_watchdog(stats: SimStats, stall_streak: int, index: int) -> None:
    """Charge the stall window up to the watchdog bound and raise exactly
    the error the per-cycle reference would have raised."""
    over = STALL_WATCHDOG + 1 - stall_streak
    stats.stall_cycles += over
    raise SimulationError(
        f"machine stalled for {STALL_WATCHDOG + 1} cycles at "
        f"kernel index {index}"
    )


def _waits_ready(
    waits: List[Tuple[Dict[int, Optional[int]], int]], cycle: int
) -> bool:
    """Same predicate as :func:`_all_ready`, over pre-resolved waits."""
    for per_load, j in waits:
        done = per_load.get(j, 0)
        if done is None or done > cycle:
            return False
    return True


def _waits_wake(
    waits: List[Tuple[Dict[int, Optional[int]], int]]
) -> Optional[int]:
    """The cycle the current stall provably ends, or None.

    When every blocking load has already completed with a known (future)
    completion cycle, issue resumes exactly at the latest of them.  A
    load still in flight (completion unknown) returns None — only a
    memory event can change anything then.
    """
    wake = 0
    for per_load, j in waits:
        done = per_load.get(j, 0)
        if done is None:
            return None
        if done > wake:
            wake = done
    return wake


def _next_prune_after(index: int) -> int:
    """The next prune threshold at or above ``index`` — robust to the
    bulk fast path jumping over several interval multiples at once."""
    return index - index % _PRUNE_INTERVAL + _PRUNE_INTERVAL


def _fastpath_tables(
    ops_by_slot: List[List[_OpInfo]], ii: int, n_iter: int, total_indexes: int
):
    """Precomputed tables for the bulk (memory-free run) fast path.

    A modulo slot is *clean* when none of its ops touch memory or consume
    a load value; a run of clean slots entered with the memory system
    quiescent retires without per-cycle processing.  ``run_len[s]`` is the
    clean-run length starting at slot ``s`` (wrapping, capped at II);
    ``count_prefix`` gives O(1) issued-op counts over any wrapped slot
    window.  The run bounds [steady_lo, steady_hi) are the indexes where
    every matching op instance is live (past the prologue ramp, before
    the epilogue ramp), so due-op sets equal whole slot buckets.
    """
    clean = [
        all(
            not (op.is_load or op.is_store or op.load_preds)
            for op in bucket
        )
        for bucket in ops_by_slot
    ]
    counts = [len(bucket) for bucket in ops_by_slot]
    doubled = counts + counts
    count_prefix = [0]
    for count in doubled:
        count_prefix.append(count_prefix[-1] + count)
    ops_per_ii = sum(counts)

    all_clean = all(clean)
    run_len = [0] * ii
    if not all_clean:
        doubled_clean = clean + clean
        lens = [0] * (2 * ii)
        run = 0
        for i in range(2 * ii - 1, -1, -1):
            run = run + 1 if doubled_clean[i] else 0
            lens[i] = run
        run_len = [lens[s] if lens[s] < ii else ii for s in range(ii)]

    times = [op.time for bucket in ops_by_slot for op in bucket]
    if times:
        steady_lo = max(times)
        steady_hi = min(times) + n_iter * ii
    else:
        steady_lo = 0
        steady_hi = total_indexes
    if steady_hi > total_indexes:
        steady_hi = total_indexes
    return run_len, all_clean, count_prefix, ops_per_ii, steady_lo, steady_hi


# ----------------------------------------------------------------------
def _prepare(compilation: CompilationResult) -> List[List[_OpInfo]]:
    """Bucket scheduled ops by modulo slot with pre-resolved issue info."""
    schedule = compilation.schedule
    ddg = compilation.ddg
    buckets: List[List[_OpInfo]] = [[] for _ in range(schedule.ii)]
    for op in schedule.ops.values():
        instr = ddg.node(op.iid)
        load_preds = tuple(
            (e.src, e.distance)
            for e in ddg.preds(op.iid)
            if e.kind is DepKind.RF and ddg.node(e.src).is_load
        )
        info = _OpInfo(
            iid=op.iid,
            cluster=op.cluster,
            time=op.time,
            is_load=instr.is_load,
            is_store=instr.is_store,
            width=instr.mem.width if instr.mem is not None else 4,
            replica=instr.replica_group is not None,
            seq=instr.seq,
            load_preds=load_preds,
        )
        buckets[op.time % schedule.ii].append(info)
    for bucket in buckets:
        # Within one cycle, reads happen before writes (an MA-dependent
        # store scheduled in the same cycle as the load must not clobber
        # the value first — the paper's "at the same time" case).
        bucket.sort(key=lambda info: (info.is_store, info.iid))
    return buckets


def _due_ops(
    ops_by_slot: List[List[_OpInfo]], index: int, ii: int, n_iter: int
) -> List[Tuple[_OpInfo, int]]:
    due = []
    for info in ops_by_slot[index % ii]:
        iteration, rem = divmod(index - info.time, ii)
        if rem == 0 and 0 <= iteration < n_iter:
            due.append((info, iteration))
    return due


def _all_ready(
    due: List[Tuple[_OpInfo, int]],
    completions: Dict[int, Dict[int, Optional[int]]],
    cycle: int,
) -> bool:
    for info, iteration in due:
        for load_iid, distance in info.load_preds:
            j = iteration - distance
            if j < 0:
                continue
            done = completions[load_iid].get(j, 0)
            if done is None or done > cycle:
                return False
    return True


def _issue(
    info: _OpInfo,
    iteration: int,
    cycle: int,
    addresses: Dict[int, Sequence[int]],
    memory: MemorySystem,
    completions: Dict[int, Dict[int, Optional[int]]],
    stats: SimStats,
) -> None:
    stats.issued_ops += 1
    if info.is_load:
        per_load = completions[info.iid]
        per_load[iteration] = None
        memory.load(
            info.cluster, addresses[info.iid][iteration], info.width,
            info.iid, iteration, partial(per_load.__setitem__, iteration),
            cycle,
        )
    elif info.is_store:
        memory.store(
            info.cluster,
            addresses[info.iid][iteration],
            info.width,
            info.iid,
            iteration,
            (iteration, info.seq),
            info.replica,
            cycle,
        )


def _prune(
    completions: Dict[int, Dict[int, Optional[int]]],
    index: int,
    ii: int,
    length: int,
) -> None:
    """Drop completion records no consumer can still reference."""
    horizon = (index - length) // ii - 8
    if horizon <= 0:
        return
    for per_load in completions.values():
        stale = [it for it, done in per_load.items() if it < horizon and done is not None]
        for it in stale:
            del per_load[it]
