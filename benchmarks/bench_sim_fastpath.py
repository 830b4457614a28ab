"""Event-skipping simulation — speedup over the per-cycle reference.

Every figure, sweep and scenario run bottoms out in ``simulate()``.  The
per-cycle reference engine burns one Python iteration per machine cycle
even while the core is stalled on a remote load or draining in-flight
traffic — exactly the long-latency windows the distributed-data-cache
model creates.  The event-skipping engine jumps those windows to the
next memory event in one step.

This bench runs a stall-heavy scenario — an indirect gather whose table
busts the tiny cache modules, on a machine with one slow memory bus and
a far next level, so ~90%+ of all cycles are stall cycles — under both
engines, requires their ``SimStats`` to be identical, and asserts the
event engine is at least 2x faster (typical: ~3x; the checked-run ratio
is reported alongside).  The same scenario's per-engine seconds under
the ``dls`` and ``directory`` memory models are printed too (report
only: the floor applies to the snooping run).  Wired into the CI smoke
step like the pipeline-stage bench.
"""

from __future__ import annotations

import json
import time

from conftest import run_once

from repro.arch.config import parse_config_name
from repro.scenarios import ScenarioParams, build_scenario_ddg
from repro.sched.pipeline import CoherenceMode, Heuristic, compile_loop
from repro.sim import simulate
from repro.workloads.traces import trace_factory

#: Indirect gather/scatter, few ops per iteration, long dependence chain.
SCENARIO = ScenarioParams(family="gather", size=12, mem_pct=15, seed=3)
#: One 8-cycle memory bus, 512B cache modules, 60-cycle next level: the
#: stall-heavy corner of the machine space (contended interconnect, tiny
#: distributed cache, far backing store).
MACHINE = "gen-c4-mb1x8-rb4x2-cm512b32a2-nl60p2"
ITERATIONS = 2000
#: The acceptance bar asserted in CI.
MIN_SPEEDUP = 2.0


def _compiled():
    ddg = build_scenario_ddg(SCENARIO)
    return compile_loop(
        ddg,
        parse_config_name(MACHINE),
        coherence=CoherenceMode.NONE,
        heuristic=Heuristic.MINCOMS,
        trace_factory=trace_factory(64, seed=5),
        profile_iterations=64,
    )


def _run(compiled, engine: str, check: bool, model: str = "snooping"):
    trace = trace_factory(ITERATIONS, seed=7)(compiled.ddg)
    start = time.perf_counter()
    result = simulate(
        compiled, trace, iterations=ITERATIONS, engine=engine,
        check_coherence=check, model=model,
    )
    return result, time.perf_counter() - start


def _canonical(stats) -> str:
    return json.dumps(stats.to_dict(), sort_keys=True)


def test_event_skipping_beats_per_cycle_reference(benchmark):
    compiled = _compiled()
    # Warm once (bytecode, allocator) so the timed pair is stable.
    _run(compiled, "events", check=False)

    reference, ref_seconds = _run(compiled, "cycles", check=False)
    events, evt_seconds = run_once(
        benchmark, _run, compiled, "events", False
    )
    speedup = ref_seconds / evt_seconds

    checked_ref, checked_ref_s = _run(compiled, "cycles", check=True)
    checked_evt, checked_evt_s = _run(compiled, "events", check=True)

    stats = reference.stats
    print(f"\nscenario {SCENARIO.name} on {MACHINE}, "
          f"{ITERATIONS} kernel iterations")
    print(f"cycles: {stats.total_cycles} total "
          f"({stats.stall_cycles} stalled = "
          f"{stats.stall_cycles / stats.total_cycles:.0%}); "
          f"event engine fast-forwarded "
          f"{events.stats.fast_forwarded_cycles} and bulk-retired "
          f"{events.stats.fast_retired_indexes} kernel indexes")
    print(f"per-cycle {ref_seconds:.3f}s | event-skipping "
          f"{evt_seconds:.3f}s | {speedup:.2f}x speedup")
    print(f"with coherence checking: {checked_ref_s:.3f}s | "
          f"{checked_evt_s:.3f}s | "
          f"{checked_ref_s / checked_evt_s:.2f}x")
    # Report only: the other memory models on the same scenario.
    for model in ("dls", "directory"):
        model_ref, model_ref_s = _run(compiled, "cycles", False, model)
        model_evt, model_evt_s = _run(compiled, "events", False, model)
        assert _canonical(model_evt.stats) == _canonical(model_ref.stats)
        print(f"{model}: per-cycle {model_ref_s:.3f}s | event-skipping "
              f"{model_evt_s:.3f}s | {model_ref_s / model_evt_s:.2f}x")

    # Observation equivalence first: a fast wrong answer is no answer.
    assert _canonical(events.stats) == _canonical(reference.stats)
    assert _canonical(checked_evt.stats) == _canonical(checked_ref.stats)
    assert (checked_evt.violations.total
            == checked_ref.violations.total)
    # The workload must actually be stall-heavy for the claim to mean
    # anything.
    assert stats.stall_cycles / stats.total_cycles >= 0.75
    # Deterministic counterpart of the timing claim (immune to CI
    # runner noise): the engine must have skipped the vast majority of
    # machine cycles, the mechanism the wall-clock win comes from.
    skipped = (events.stats.fast_forwarded_cycles
               + events.stats.fast_retired_indexes)
    assert skipped / stats.total_cycles >= 0.75, (
        f"event engine only skipped {skipped / stats.total_cycles:.0%} "
        f"of cycles"
    )
    # The acceptance bar: >=2x on a stall-heavy scenario.
    assert speedup >= MIN_SPEEDUP, (
        f"expected >={MIN_SPEEDUP}x simulation speedup, got {speedup:.2f}x"
    )


#: Max relative wall-time cost of the observability layer on the
#: simulator path, in either state.  `repro.obs` instrumentation is
#: O(1) per simulate() call — never per cycle — so both the disabled
#: path (one attribute check per hook) and the enabled path (a few
#: dozen dict updates per run) must be noise next to the simulation.
MAX_OBS_OVERHEAD = 0.05


def test_observability_overhead_is_negligible():
    """Instrumented-vs-disabled wall time on the simulator hot path.

    Interleaves min-of-N timings of the same event-engine run with the
    metrics registry disabled (and no tracer — the default state) and
    with everything lit (recording registry + installed tracer), and
    bounds the relative difference.  min-of-N makes the comparison
    robust to scheduler noise; interleaving makes it fair to both.
    """
    from repro.obs import metrics, trace

    compiled = _compiled()
    _run(compiled, "events", check=False)  # warm-up

    rounds = 5
    dark_best = lit_best = float("inf")
    for _ in range(rounds):
        with metrics.capture(enabled=False):
            previous = trace.set_tracer(None)
            try:
                _, seconds = _run(compiled, "events", check=False)
            finally:
                trace.set_tracer(previous)
        dark_best = min(dark_best, seconds)

        with metrics.capture(enabled=True):
            previous = trace.set_tracer(trace.Tracer())
            try:
                _, seconds = _run(compiled, "events", check=False)
            finally:
                trace.set_tracer(previous)
        lit_best = min(lit_best, seconds)

    overhead = lit_best / dark_best - 1.0
    print(f"\nobservability overhead: disabled {dark_best:.4f}s | "
          f"enabled {lit_best:.4f}s | {overhead:+.1%}")
    assert lit_best <= dark_best * (1.0 + MAX_OBS_OVERHEAD), (
        f"enabled instrumentation costs {overhead:+.1%} "
        f"(budget: {MAX_OBS_OVERHEAD:.0%})"
    )
