"""Plan execution: a streaming, resumable core over stores and workers.

The :class:`Runner` is the only component that touches both the stores
and the executor.  Its primitive is :meth:`Runner.stream`, a generator
that yields results *as they complete*:

1. every spec is looked up in the :class:`~repro.api.store.ResultStore`
   by content hash; hits are yielded immediately;
2. misses are grouped by :attr:`~repro.api.spec.RunSpec.frontend_key`,
   so the specs of one coherence × heuristic cross — which share their
   compilation front end verbatim — execute together and hit each
   other's warm artifacts.  Serially the shared
   :class:`~repro.api.artifacts.ArtifactStore` makes that automatic;
   under ``parallel`` each *group* becomes one pool task fanned out over
   one persistent worker pool via ``imap_unordered`` (when there are
   fewer groups than requested workers, the largest groups are split so
   occupancy never drops below what the caller asked for; the pool is
   sized to the resulting task count, so tiny plans never spawn idle
   processes).  In-flight groups are bounded (``max_inflight``) for
   backpressure: a slow consumer never forces the whole plan's payloads
   into the task queue at once;
3. fresh records are stored (and journalled, when a
   :class:`~repro.api.journal.RunJournal` is attached) the moment they
   arrive; failures become structured :class:`RunError` records instead
   of killing sibling specs mid-flight.

:meth:`Runner.run` is a thin wrapper that drains the stream and
reassembles plan order — byte-identical to the historical batch
behaviour.  With a journal plus the on-disk store, a killed run resumes
where it stopped: completed groups are store hits, the journal carries
what finished and what failed.
"""

from __future__ import annotations

import copy
import multiprocessing
import threading
import time
import traceback as _tb
import warnings
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro import errors as _errors
from repro.api.artifacts import (
    ArtifactStore,
    DiskArtifactStore,
    MemoryArtifactStore,
    default_artifact_store,
)
from repro.api.core import (
    execute_spec,
    suppress_floor_warning,
    warn_floor_from_record,
)
from repro.api.journal import RunJournal
from repro.api.records import RunRecord
from repro.api.spec import Plan, RunSpec
from repro.api.store import ResultStore, default_store
from repro.errors import ExecutionError
from repro.obs import metrics, trace

PlanLike = Union[Plan, Iterable[RunSpec]]

#: ``progress`` callbacks receive ``(completed, total, item)``.
ProgressFn = Callable[[int, int, "StreamItem"], None]


@dataclass
class RunError:
    """Structured record of one spec's failure.

    Captured in the worker (or inline, serially) so one bad spec cannot
    kill its siblings; journalled for post-mortems and retried on
    resume.  ``spec``/``spec_key`` identify the work, ``error_type`` is
    the exception class name, ``traceback`` the formatted worker-side
    stack.
    """

    spec: Dict[str, object]
    spec_key: str
    error_type: str
    message: str
    traceback: str = ""
    #: The live exception, when the failure happened in this process
    #: (never crosses pickling boundaries; lets serial re-raise preserve
    #: the original object).
    _exception: Optional[BaseException] = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def from_exception(cls, spec: RunSpec, spec_key: str,
                       exc: BaseException) -> "RunError":
        return cls(
            spec=spec.to_dict(),
            spec_key=spec_key,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback="".join(
                _tb.format_exception(type(exc), exc, exc.__traceback__)
            ),
            _exception=exc,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "spec": self.spec,
            "spec_key": self.spec_key,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunError":
        return cls(
            spec=dict(data.get("spec") or {}),
            spec_key=str(data.get("spec_key", "")),
            error_type=str(data.get("error_type", "Exception")),
            message=str(data.get("message", "")),
            traceback=str(data.get("traceback", "")),
        )

    def exception(self) -> BaseException:
        """The failure as a raisable exception.

        The original object when it never left this process; otherwise a
        reconstructed :mod:`repro.errors` instance of the same type, or
        an :class:`~repro.errors.ExecutionError` carrying the worker
        traceback when the type cannot be rebuilt faithfully.
        """
        if self._exception is not None:
            return self._exception
        cls = getattr(_errors, self.error_type, None)
        if (isinstance(cls, type) and issubclass(cls, _errors.ReproError)
                and cls is not _errors.ReproError):
            try:
                return cls(self.message)
            except Exception:  # pragma: no cover - exotic signature
                pass
        detail = f"\n{self.traceback}" if self.traceback else ""
        return ExecutionError(
            f"{self.error_type}: {self.message} "
            f"(spec {self.spec_key}){detail}"
        )

    def reraise(self) -> None:
        raise self.exception()


StreamItem = Union[RunRecord, RunError]


# ----------------------------------------------------------------------
# Pool worker side
# ----------------------------------------------------------------------
def _worker_init() -> None:
    """Pool worker initializer: the one-time kernel-iteration-floor
    warning is per-process, so without suppression every worker would
    re-emit it; the parent surfaces a single warning from the returned
    records instead."""
    suppress_floor_warning()


def _worker_group(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Top-level (hence picklable) pool worker: one front-end group in,
    one result dict per spec out, so payloads cross process boundaries
    as pure JSON-able data.  Failures are captured per spec — a bad spec
    reports a structured error instead of poisoning its group.

    With an ``artifact_root`` the worker replays/records front-end
    artifacts on disk (shared with every other worker and process);
    without one it falls back to its process-local default store, which
    still makes sibling variants of the group warm for each other.

    Observability: the task runs under a *captured* metrics registry
    whose snapshot travels back in the result envelope — the parent
    merges it on receipt, so artifact hit/miss counters, stage timings
    and per-spec latencies survive the process boundary instead of
    dying with the worker (the historical ``repro cache artifacts``
    under-reporting bug).  With ``payload["trace"]`` the task also runs
    under a private tracer whose spans ship back for wall-clock
    re-basing into the parent trace.
    """
    root = payload.get("artifact_root")
    artifacts = (
        DiskArtifactStore(root, version=payload.get("artifact_version"))
        if root else default_artifact_store()
    )
    results: List[Dict[str, object]] = []
    worker_tracer = trace.Tracer() if payload.get("trace") else None
    metrics_enabled = bool(payload.get("metrics_enabled", True))
    with metrics.capture(enabled=metrics_enabled) as reg:
        previous_tracer = trace.set_tracer(worker_tracer)
        try:
            for data, key in zip(payload["specs"], payload["keys"]):
                spec = RunSpec.from_dict(data)
                start = time.perf_counter()
                try:
                    record = execute_spec(spec, artifacts=artifacts)
                    results.append({"record": record.to_dict()})
                except Exception as exc:
                    results.append({
                        "error": RunError.from_exception(
                            spec, key, exc
                        ).to_dict()
                    })
                elapsed = time.perf_counter() - start
                reg.observe("runner.spec_seconds", elapsed,
                            mode="parallel")
                reg.inc("runner.worker_busy_seconds", elapsed)
        finally:
            trace.set_tracer(previous_tracer)
    envelope: Dict[str, object] = {
        "task": payload["task"],
        "results": results,
    }
    if metrics_enabled:
        envelope["metrics"] = reg.snapshot()
    if worker_tracer is not None:
        envelope["trace"] = worker_tracer.export()
    return envelope


class Runner:
    """Executes plans against a result store and an artifact store.

    ``parallel=None`` (or 0/1) runs serially in-process; ``parallel=N``
    fans miss *groups* out over at most ``N`` worker processes;
    ``parallel=-1`` uses every available CPU (clamped to the number of
    tasks, so small plans spawn small pools).  The worker pool persists
    across plans — a sweep driver issuing many plans pays the fork cost
    once; :meth:`close` (or the context-manager exit) tears it down.

    ``max_inflight`` bounds how many groups may be queued or executing
    at once during streaming (default: twice the worker count).
    """

    def __init__(self, store: Optional[ResultStore] = None,
                 parallel: Optional[int] = None,
                 artifacts: Optional[ArtifactStore] = None,
                 max_inflight: Optional[int] = None) -> None:
        self._store = store
        self._artifacts = artifacts
        self.parallel = parallel
        self.max_inflight = max_inflight
        self._pool: Optional[multiprocessing.pool.Pool] = None
        self._pool_size = 0

    @property
    def store(self) -> ResultStore:
        return self._store if self._store is not None else default_store()

    @property
    def artifacts(self) -> ArtifactStore:
        if self._artifacts is not None:
            return self._artifacts
        return default_artifact_store()

    # ------------------------------------------------------------------
    # Persistent pool management
    # ------------------------------------------------------------------
    def _ensure_pool(self, workers: int) -> multiprocessing.pool.Pool:
        if self._pool is not None and self._pool_size < workers:
            self.close()  # grow: replace the undersized pool
        if self._pool is None:
            self._pool = multiprocessing.Pool(
                processes=workers, initializer=_worker_init
            )
            self._pool_size = workers
        return self._pool

    def close(self) -> None:
        """Tear down the persistent worker pool (idempotent)."""
        pool, self._pool, self._pool_size = self._pool, None, 0
        if pool is not None:
            pool.terminate()
            pool.join()

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Public execution surface
    # ------------------------------------------------------------------
    def run_one(self, spec: RunSpec) -> RunRecord:
        return self.run(Plan.single(spec))[0]

    def run(self, plan: PlanLike, *,
            journal: Optional[RunJournal] = None,
            progress: Optional[ProgressFn] = None) -> List[RunRecord]:
        """Execute (or fetch) every spec; records come back in plan
        order, byte-identical to the historical batch behaviour.

        A thin wrapper over :meth:`stream`: results are reassembled into
        plan order as the stream completes them, and the first failure
        re-raises (serially, the original exception object).
        """
        if not isinstance(plan, Plan):
            plan = Plan(tuple(plan))
        total = len(plan.specs)
        records: List[Optional[RunRecord]] = [None] * total
        done = 0
        for index, item in self._stream(plan, journal, on_error="raise"):
            records[index] = item  # on_error="raise": always a RunRecord
            done += 1
            if progress is not None:
                progress(done, total, item)
        return records  # type: ignore[return-value]

    def stream(self, plan: PlanLike, *,
               journal: Optional[RunJournal] = None,
               on_error: str = "raise") -> Iterator[StreamItem]:
        """Yield one result per plan spec in *completion* order.

        Store hits stream out immediately; computed groups follow as the
        pool (or the serial loop) finishes them.  ``on_error="raise"``
        re-raises the first failure; ``on_error="yield"`` emits
        structured :class:`RunError` items in place of records so a
        sweep can keep going around a poisoned spec.  Attach a
        ``journal`` to checkpoint progress for ``--resume``.
        """
        if not isinstance(plan, Plan):
            plan = Plan(tuple(plan))
        for _index, item in self._stream(plan, journal, on_error):
            yield item

    # ------------------------------------------------------------------
    # Streaming core
    # ------------------------------------------------------------------
    def _stream(self, plan: Plan, journal: Optional[RunJournal],
                on_error: str) -> Iterator[Tuple[int, StreamItem]]:
        if on_error not in ("raise", "yield"):
            raise ValueError(
                f"on_error must be 'raise' or 'yield', not {on_error!r}"
            )
        store = self.store
        keys = [spec.content_hash for spec in plan.specs]
        key_indices: Dict[str, List[int]] = {}
        for i, key in enumerate(keys):
            key_indices.setdefault(key, []).append(i)
        if journal is not None:
            journal.begin(plan)
        misses: List[int] = []
        for i, key in enumerate(keys):
            if key_indices[key][0] != i:
                continue  # duplicate content hash: primary index covers it
            record = store.get(key)
            metrics.inc("runner.store_lookups",
                        outcome="miss" if record is None else "hit")
            if record is None:
                misses.append(i)
                continue
            if journal is not None:
                journal.note_done(key)
            # Tag a shallow copy: a MemoryStore hands back the object it
            # stored, and mutating it would retroactively relabel the
            # record the original simulation yielded.
            record = copy.copy(record)
            record.source = "store"
            for j in key_indices[key]:
                yield j, record
        if not misses:
            return
        for i, item in self._execute_stream(plan, keys, misses):
            key = keys[i]
            if isinstance(item, RunRecord):
                store.put(key, item)
                if journal is not None:
                    journal.note_done(key)
                for j in key_indices[key]:
                    yield j, item
            else:
                if journal is not None:
                    journal.note_error(key, item)
                if on_error == "raise":
                    item.reraise()
                for j in key_indices[key]:
                    yield j, item

    def _execute_stream(
        self, plan: Plan, keys: List[str], misses: List[int]
    ) -> Iterator[Tuple[int, StreamItem]]:
        """Execute the missing specs, yielding ``(plan index, item)`` in
        completion order."""
        specs = [plan.specs[i] for i in misses]
        workers = self._effective_parallel(len(specs))
        if workers <= 1:
            # The shared artifact store already makes sibling variants
            # warm for each other; plan order is fine serially.
            artifacts = self.artifacts
            for pos, spec in enumerate(specs):
                start = time.perf_counter()
                try:
                    item: StreamItem = execute_spec(spec,
                                                    artifacts=artifacts)
                except Exception as exc:
                    item = RunError.from_exception(
                        spec, keys[misses[pos]], exc
                    )
                metrics.observe("runner.spec_seconds",
                                time.perf_counter() - start, mode="serial")
                yield misses[pos], item
            return

        tasks = self._balance(self._group_indices(specs), workers)
        # Clamp to the post-split task count: a tiny plan on a many-core
        # machine (parallel=-1) must not spawn a pool of idle processes.
        workers = min(workers, len(tasks))
        artifacts = self.artifacts
        artifact_root = None
        artifact_version = None
        if isinstance(artifacts, DiskArtifactStore):
            artifact_root = str(artifacts.root)
            # Propagate the resolved version so workers read/write the
            # same entries even when the parent pinned a custom one.
            artifact_version = artifacts.version
        elif not isinstance(artifacts, MemoryArtifactStore):
            warnings.warn(
                "custom ArtifactStore cannot cross process boundaries; "
                "parallel workers fall back to per-worker in-memory "
                "artifact stores (use a DiskArtifactStore to share)",
                RuntimeWarning,
                stacklevel=3,
            )

        pool = self._ensure_pool(workers)
        limit = self.max_inflight or 2 * workers
        inflight = threading.Semaphore(max(1, limit))
        abort = [False]
        # Submitted-but-unconsumed task count, sampled into the
        # ``runner.inflight`` histogram at every receive so the stream's
        # effective queue depth (and thus backpressure behaviour) is
        # visible after the fact.
        depth_lock = threading.Lock()
        depth = [0]

        def payloads() -> Iterator[Dict[str, object]]:
            # Runs in the pool's feeder thread: the semaphore keeps at
            # most ``limit`` groups submitted-but-unconsumed, so a slow
            # consumer applies backpressure instead of letting the whole
            # plan pile up in the task queue.
            for t, indices in enumerate(tasks):
                inflight.acquire()
                if abort[0]:
                    return
                with depth_lock:
                    depth[0] += 1
                yield {
                    "task": t,
                    "specs": [specs[i].to_dict() for i in indices],
                    "keys": [keys[misses[i]] for i in indices],
                    "artifact_root": artifact_root,
                    "artifact_version": artifact_version,
                    "metrics_enabled": metrics.enabled(),
                    "trace": trace.tracer() is not None,
                }

        reg = metrics.registry()
        busy_before = reg.counter("runner.worker_busy_seconds")
        stream_start = time.perf_counter()
        try:
            for reply in pool.imap_unordered(_worker_group, payloads()):
                inflight.release()
                with depth_lock:
                    current = depth[0]
                    depth[0] -= 1
                metrics.observe("runner.inflight", current)
                metrics.inc("runner.tasks")
                snapshot = reply.get("metrics")
                if snapshot:
                    # Satellite-telemetry merge: fold the worker's
                    # per-task metric deltas (artifact hits/misses,
                    # stage timings, spec latencies...) into this
                    # process's registry.
                    reg.merge(snapshot)
                exported = reply.get("trace")
                if exported:
                    parent_tracer = trace.tracer()
                    if parent_tracer is not None:
                        parent_tracer.absorb(exported)
                for i, result in zip(tasks[reply["task"]],
                                     reply["results"]):
                    if "record" in result:
                        record = RunRecord.from_dict(result["record"])
                        # Workers suppress the one-time floor warning;
                        # surface a single parent-side one instead.
                        warn_floor_from_record(record)
                        yield misses[i], record
                    else:
                        yield misses[i], RunError.from_dict(
                            result["error"]
                        )
        finally:
            # Unblock the feeder if the consumer stopped early, so the
            # persistent pool stays usable for the next plan.
            abort[0] = True
            inflight.release()
            wall = time.perf_counter() - stream_start
            if wall > 0 and metrics.enabled():
                busy = reg.counter("runner.worker_busy_seconds")
                metrics.set_gauge(
                    "runner.worker_utilization",
                    (busy - busy_before) / (wall * workers),
                )

    # ------------------------------------------------------------------
    @staticmethod
    def _group_indices(specs: List[RunSpec]) -> List[List[int]]:
        """Partition spec indices by shared front-end key, preserving
        first-seen group order and in-group plan order."""
        groups: Dict[str, List[int]] = {}
        for index, spec in enumerate(specs):
            groups.setdefault(spec.frontend_key, []).append(index)
        return list(groups.values())

    @staticmethod
    def _balance(groups: List[List[int]], workers: int) -> List[List[int]]:
        """Split the largest groups until every worker has a task.

        Grouping must never *reduce* parallelism below what the caller
        asked for: a single 6-variant cross run with ``parallel=6`` should
        use six workers, not one.  Splitting a group trades some in-worker
        front-end sharing for occupancy — with a disk artifact store the
        split halves still share through the file system, and the loss is
        bounded by one redundant front end per extra worker.
        """
        tasks = [list(group) for group in groups]
        while len(tasks) < workers:
            largest = max(range(len(tasks)), key=lambda j: len(tasks[j]))
            if len(tasks[largest]) <= 1:
                break
            group = tasks.pop(largest)
            mid = (len(group) + 1) // 2
            tasks[largest:largest] = [group[:mid], group[mid:]]
        return tasks

    def _effective_parallel(self, num_tasks: int) -> int:
        parallel = self.parallel
        if parallel is None or parallel == 0:
            return 1
        if parallel < 0:
            parallel = multiprocessing.cpu_count()
        return max(1, min(parallel, num_tasks))


# ----------------------------------------------------------------------
# Module-level conveniences
# ----------------------------------------------------------------------
def default_runner(parallel: Optional[int] = None) -> Runner:
    """A runner on the process-wide default stores."""
    return Runner(store=None, parallel=parallel)


def run(spec: RunSpec, store: Optional[ResultStore] = None) -> RunRecord:
    """Execute (or fetch) a single spec against ``store`` / the default."""
    return Runner(store=store).run_one(spec)
