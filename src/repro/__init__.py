"""repro — reproduction of Gibert, Sánchez & González, *Local Scheduling
Techniques for Memory Coherence in a Clustered VLIW Processor with a
Distributed Data Cache* (CGO 2003).

The package provides, from scratch:

* a loop IR with typed dependence edges (:mod:`repro.ir`);
* conservative memory disambiguation and preferred-cluster profiling
  (:mod:`repro.alias`);
* a clustered modulo scheduler with the PrefClus/MinComs heuristics and
  the paper's two coherence solutions — Memory Dependent Chains and the
  DDG Transformations (:mod:`repro.sched`);
* a cycle-level simulator of the word-interleaved cache clustered VLIW
  machine, including Attraction Buffers and a coherence-violation checker
  (:mod:`repro.sim`);
* a calibrated Mediabench-like workload catalog (:mod:`repro.workloads`);
* a declarative session layer (:mod:`repro.api`) — ``RunSpec``/``Plan``
  grids, a serial/parallel ``Runner``, persistent ``ResultStore`` caching
  and a ``python -m repro`` CLI — on which the experiment drivers
  (:mod:`repro.experiments`) regenerate every table and figure of the
  evaluation.  Compilation runs as a staged pipeline
  (:mod:`repro.sched.stages`) whose variant-independent front end
  (unroll → disambiguate → profile) is content-addressed and shared
  across the 6-way coherence × heuristic cross through an
  ``ArtifactStore`` (:mod:`repro.api.artifacts`, ``docs/architecture.md``);
* a seeded synthetic scenario engine (:mod:`repro.scenarios`) — kernel
  and machine-space generators plus a differential free/MDC/DDGT sweep
  harness (``repro scenarios {generate,sweep,report}``) that turns the
  reproduction into a general stress/fuzz rig;
* unified observability (:mod:`repro.obs`) — a process-wide metrics
  registry with exact cross-process aggregation and span tracing with
  Perfetto-loadable export (``--trace``/``--metrics``, ``repro obs``) —
  plus config-driven benchmark grids with a persistent, CI-compared
  ``BENCH_*.json`` perf trajectory (:mod:`repro.bench`,
  ``repro bench {run,compare}``, ``docs/observability.md``).

Quickstart — declare work, run it, read structured results::

    from repro import Plan, Runner, RunSpec, run

    # One unit of work: benchmark x variant x machine (content-hashed,
    # cached by the process-wide ResultStore).
    record = run(RunSpec(benchmark="epicdec", variant="mdc/prefclus",
                         scale=0.25))
    print(record.total_cycles, f"{record.local_hit_ratio:.1%}")

    # A whole grid, fanned out over 4 worker processes with an on-disk
    # cache: re-running is near-instant.
    from repro.api import DiskStore, FIGURE7_BARS

    plan = Plan.grid(benchmarks=["epicdec", "gsmdec", "pgpdec"],
                     variants=FIGURE7_BARS, scale=0.25)
    for rec in Runner(store=DiskStore(), parallel=4).run(plan):
        print(rec.benchmark, rec.variant, rec.total_cycles)

The same plans drive the CLI: ``python -m repro figure 7 --parallel 4``,
``python -m repro run epicdec -v ddgt/prefclus``, ``python -m repro list``.

For the low-level path — build a DDG by hand, compile and simulate it —
see ``examples/quickstart.py`` and :func:`compile_loop`/:func:`simulate`.
"""

__version__ = "1.10.0"

from repro.alias import AccessPattern, MemRef
from repro.arch import (
    BASELINE_CONFIG,
    NOBAL_MEM_CONFIG,
    NOBAL_REG_CONFIG,
    MachineConfig,
    named_config,
)
from repro.errors import (
    ConfigError,
    ExecutionError,
    GraphError,
    ReproError,
    SchedulingError,
    SimulationError,
    TransformError,
    WorkloadError,
)
from repro.ir import Ddg, DdgBuilder, DepKind, Edge, Instruction, Opcode
from repro.sched import (
    CoherenceMode,
    CompilationResult,
    Heuristic,
    apply_ddgt,
    apply_mdc,
    compile_loop,
    memory_dependent_chains,
)
from repro.sim import SimStats, SimulationResult, simulate
from repro.workloads import benchmark_names, get_benchmark, trace_factory
from repro.api import (
    DiskStore,
    LoopRecord,
    MemoryStore,
    Plan,
    ResultStore,
    RunError,
    RunJournal,
    RunRecord,
    RunSpec,
    Runner,
    Variant,
    default_store,
    run,
    set_default_store,
)
from repro.scenarios import (
    ScenarioParams,
    build_scenario_ddg,
    run_sweep,
    sample_scenarios,
    scenario_benchmark,
)

__all__ = [
    "AccessPattern",
    "MemRef",
    "BASELINE_CONFIG",
    "NOBAL_MEM_CONFIG",
    "NOBAL_REG_CONFIG",
    "MachineConfig",
    "named_config",
    "ConfigError",
    "GraphError",
    "ReproError",
    "ExecutionError",
    "SchedulingError",
    "SimulationError",
    "TransformError",
    "WorkloadError",
    "Ddg",
    "DdgBuilder",
    "DepKind",
    "Edge",
    "Instruction",
    "Opcode",
    "CoherenceMode",
    "CompilationResult",
    "Heuristic",
    "apply_ddgt",
    "apply_mdc",
    "compile_loop",
    "memory_dependent_chains",
    "SimStats",
    "SimulationResult",
    "simulate",
    "benchmark_names",
    "get_benchmark",
    "trace_factory",
    "DiskStore",
    "LoopRecord",
    "MemoryStore",
    "Plan",
    "ResultStore",
    "RunError",
    "RunJournal",
    "RunRecord",
    "RunSpec",
    "Runner",
    "Variant",
    "default_store",
    "run",
    "set_default_store",
    "ScenarioParams",
    "build_scenario_ddg",
    "run_sweep",
    "sample_scenarios",
    "scenario_benchmark",
    "__version__",
]
