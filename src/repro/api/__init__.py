"""`repro.api` — the package's single front door.

Every figure and table of the CGO 2003 evaluation aggregates the same
unit of work: *compile loop L of benchmark B under coherence solution C
with heuristic H on machine M, then simulate it*.  This subsystem makes
that unit a first-class, declarative object:

* :class:`RunSpec` — one frozen, content-hashable unit of work;
* :class:`Plan` — an ordered collection of specs with grid/sweep
  constructors (``Plan.grid(benchmarks=..., variants=...)``);
* :class:`Runner` — executes plans serially or via ``multiprocessing``
  with deterministic result ordering;
* :class:`ResultStore` — pluggable result cache
  (:class:`MemoryStore`, :class:`DiskStore` under ``.repro_cache/``);
* :class:`RunRecord` / :class:`LoopRecord` — structured, JSON/CSV
  serializable results;
* ``python -m repro`` — a CLI (:mod:`repro.api.cli`) built on the same
  Plan objects.

Quick example::

    from repro.api import Plan, Runner, DiskStore, FIGURE7_BARS

    plan = Plan.grid(benchmarks=["epicdec", "gsmdec"],
                     variants=FIGURE7_BARS, scale=0.25)
    runner = Runner(store=DiskStore(), parallel=4)
    for record in runner.run(plan):
        print(record.benchmark, record.variant, record.total_cycles)
"""

from repro.api.artifacts import (
    ArtifactStore,
    DiskArtifactStore,
    MemoryArtifactStore,
    artifact_root,
    artifact_stats,
    default_artifact_store,
    reset_artifact_stats,
    set_default_artifact_store,
)
from repro.api.core import execute_spec
from repro.api.journal import JournalState, RunJournal, journal_root
from repro.api.records import (
    LoopRecord,
    RunRecord,
    records_to_csv,
    records_to_json,
)
from repro.api.runner import Runner, RunError, default_runner, run
from repro.api.spec import (
    ALL_VARIANTS,
    DDGT_MIN,
    DDGT_PREF,
    EVALUATED,
    FIGURE7_BARS,
    FREE_MIN,
    FREE_PREF,
    MDC_MIN,
    MDC_PREF,
    PROFILE_ITERATIONS,
    Plan,
    RunSpec,
    Variant,
    default_scale,
    parse_variant,
    resolve_machine,
    spec_cache_key,
)
from repro.api.store import (
    DEFAULT_CACHE_DIR,
    DiskStore,
    MemoryStore,
    ResultStore,
    default_store,
    set_default_store,
)

__all__ = [
    "ALL_VARIANTS",
    "ArtifactStore",
    "DDGT_MIN",
    "DDGT_PREF",
    "DEFAULT_CACHE_DIR",
    "DiskArtifactStore",
    "DiskStore",
    "EVALUATED",
    "FIGURE7_BARS",
    "FREE_MIN",
    "FREE_PREF",
    "JournalState",
    "LoopRecord",
    "MDC_MIN",
    "MDC_PREF",
    "MemoryArtifactStore",
    "MemoryStore",
    "PROFILE_ITERATIONS",
    "Plan",
    "ResultStore",
    "RunError",
    "RunJournal",
    "RunRecord",
    "RunSpec",
    "Runner",
    "Variant",
    "artifact_root",
    "artifact_stats",
    "default_artifact_store",
    "default_runner",
    "journal_root",
    "default_scale",
    "default_store",
    "execute_spec",
    "parse_variant",
    "records_to_csv",
    "records_to_json",
    "reset_artifact_stats",
    "resolve_machine",
    "run",
    "set_default_artifact_store",
    "spec_cache_key",
    "set_default_store",
]
