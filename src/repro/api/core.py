"""Spec execution: the compile+simulate unit of work, result-cache-free.

:func:`execute_spec` turns a declarative :class:`~repro.api.spec.RunSpec`
into a :class:`~repro.api.records.RunRecord`; *result* caching and
parallelism live one layer up in :class:`~repro.api.runner.Runner`.
Compilation rides the staged pipeline (:mod:`repro.sched.stages`)
against an :class:`~repro.api.artifacts.ArtifactStore`, so the
variant-independent front end (unrolling, disambiguation, profiling) is
shared across the coherence × heuristic cross instead of being
recomputed per variant.

Every loop simulates on the default event-skipping engine
(:func:`~repro.sim.executor.simulate`); the per-cycle reference engine
is reached only by calling ``simulate`` directly.
"""

from __future__ import annotations

import warnings
from typing import Optional, Tuple

from repro.api.artifacts import ArtifactStore, default_artifact_store
from repro.api.records import LoopRecord, RunRecord
from repro.api.spec import (
    PROFILE_ITERATIONS,
    RunSpec,
    Variant,
    resolve_machine,
)
from repro.arch.config import MachineConfig
from repro.errors import WorkloadError
from repro.obs import trace
from repro.sched.pipeline import compile_loop
from repro.sim.executor import simulate
from repro.workloads.catalog import Benchmark, LoopSpec, get_benchmark
from repro.workloads.traces import cached_trace_spec, trace_factory


#: Minimum kernel iterations simulated per loop: below this the pipeline
#: warm-up dominates and the cycle counts stop being comparable across
#: variants.  Tiny scaled runs are inflated up to this floor (and the
#: inflation is recorded in :attr:`LoopRecord.iteration_floor`).
KERNEL_ITERATION_FLOOR = 32

_floor_warning_emitted = False


def _warn_iteration_floor(benchmark: str, loop: str, natural: int) -> None:
    """One-time (per process) warning that the floor inflated a run."""
    global _floor_warning_emitted
    if _floor_warning_emitted:
        return
    _floor_warning_emitted = True
    warnings.warn(
        f"kernel-iteration floor: {benchmark}:{loop} scaled to {natural} "
        f"kernel iterations; simulating {KERNEL_ITERATION_FLOOR} instead "
        f"(the floor is recorded in LoopRecord.iteration_floor; further "
        f"floored runs will not be reported)",
        RuntimeWarning,
        stacklevel=3,
    )


def suppress_floor_warning() -> None:
    """Mark the one-time floor warning as already emitted.

    The warning gate is per-process, so without this every pool worker
    of a parallel sweep would re-emit it.  The
    :class:`~repro.api.runner.Runner` installs this as the pool worker
    initializer and surfaces a single parent-side warning instead (see
    :func:`warn_floor_from_record`).
    """
    global _floor_warning_emitted
    _floor_warning_emitted = True


def warn_floor_from_record(record: RunRecord) -> None:
    """Parent-side one-time floor warning, derived from a record.

    Pool workers run with the in-worker warning suppressed; when their
    records come back, the first one carrying a non-zero
    :attr:`LoopRecord.iteration_floor` triggers this single warning in
    the parent process (same gate as the in-process warning, so serial
    and parallel execution never double-report).
    """
    global _floor_warning_emitted
    if _floor_warning_emitted:
        return
    for loop in record.loops:
        if loop.iteration_floor:
            _floor_warning_emitted = True
            warnings.warn(
                f"kernel-iteration floor: {record.benchmark}:{loop.loop} "
                f"inflated to {loop.kernel_iterations} kernel iterations "
                f"in a worker process (recorded in "
                f"LoopRecord.iteration_floor; further floored runs will "
                f"not be reported)",
                RuntimeWarning,
                stacklevel=3,
            )
            return


def _select_loops(bench: Benchmark, name: str, loop: Optional[str]):
    loops = bench.loops
    if loop is not None:
        loops = tuple(s for s in loops if s.name == loop)
        if not loops:
            known = sorted(s.name for s in bench.loops)
            raise WorkloadError(
                f"benchmark {name!r} has no loop {loop!r}; expected one of "
                f"{known}"
            )
    return loops


def execute_spec(spec: RunSpec,
                 artifacts: Optional[ArtifactStore] = None) -> RunRecord:
    """Compile + simulate the work a spec declares (no result caching):
    every loop (or the one named loop) of the benchmark, on the spec's
    *effective* machine — interleave and Attraction Buffers applied.

    ``artifacts`` (default: the process-wide store) shares front-end
    compilation stages with every other spec run in this process.
    """
    if artifacts is None:
        artifacts = default_artifact_store()
    machine = resolve_machine(spec)
    variant = spec.variant_obj
    with trace.span(f"spec:{spec.benchmark}/{spec.variant}", cat="spec",
                    machine=spec.machine, spec_key=spec.content_hash):
        bench = get_benchmark(spec.benchmark)
        loops = _select_loops(bench, spec.benchmark, spec.loop)
        record = RunRecord(
            benchmark=spec.benchmark,
            variant=variant.key,
            machine=machine.name,
            attraction=spec.attraction,
            scale=spec.scale,
            spec_key=spec.content_hash,
            model=spec.model,
        )
        for loop_spec in loops:
            record.loops.append(
                _run_loop(bench, loop_spec, variant, machine, spec.scale,
                          spec.seeds, artifacts, spec.model)
            )
        return record


def _run_loop(
    bench: Benchmark,
    spec: LoopSpec,
    variant: Variant,
    machine: MachineConfig,
    scale: float,
    seeds: Optional[Tuple[int, int]],
    artifacts: ArtifactStore,
    model: str,
) -> LoopRecord:
    """Compile one loop, build its execution trace and simulate it."""
    profile_seed, execute_seed = seeds or (bench.profile_seed,
                                           bench.execute_seed)
    # One frozen, keyed spec per (iterations, seed): its key is what lets
    # the profile stage hit the artifact store across the variant cross.
    profile = cached_trace_spec(PROFILE_ITERATIONS, seed=profile_seed)
    with trace.span(f"compile:{spec.name}", cat="compile"):
        compiled = compile_loop(
            spec.ddg,
            machine,
            coherence=variant.coherence,
            heuristic=variant.heuristic,
            trace_factory=profile,
            unroll_factor=spec.unroll,
            artifacts=artifacts,
        )
    # spec.iterations counts *original* loop iterations; one kernel
    # iteration of the unrolled loop covers `unroll_factor` of them, so
    # every variant of a loop simulates the same amount of original work.
    original_iters = spec.scaled_iterations(scale)
    natural_iters = original_iters // compiled.unroll_factor
    kernel_iters = max(KERNEL_ITERATION_FLOOR, natural_iters)
    iteration_floor = 0
    if kernel_iters > natural_iters:
        iteration_floor = KERNEL_ITERATION_FLOOR
        _warn_iteration_floor(bench.name, spec.name, natural_iters)
    with trace.span(f"trace-gen:{spec.name}", cat="trace-gen"):
        execution = trace_factory(kernel_iters,
                                  seed=execute_seed)(compiled.ddg)
    with trace.span(f"simulate:{spec.name}", cat="sim"):
        sim = simulate(compiled, execution, iterations=kernel_iters,
                       model=model)
    return LoopRecord(
        benchmark=bench.name,
        loop=spec.name,
        variant=variant.key,
        ii=compiled.ii,
        unroll=compiled.unroll_factor,
        kernel_iterations=kernel_iters,
        compute_cycles=sim.compute_cycles,
        stall_cycles=sim.stall_cycles,
        stats=sim.stats,
        violations=sim.violations.total if sim.violations else 0,
        static_copies=compiled.num_copies,
        replicated_instances=(
            compiled.ddgt.instance_count if compiled.ddgt else 0
        ),
        fake_consumers=(
            len(compiled.ddgt.fake_consumers) if compiled.ddgt else 0
        ),
        iteration_floor=iteration_floor,
    )
