"""Fast modulo scheduler — speedup over the reference scheduler.

The ``schedule`` stage (iterative modulo scheduling under the paper's
section 2.2 latency ladder) is where compilation time goes.  The fast
scheduler caps every ladder level's II search at the base II (the only
II the policy accepts), keeps a flat bitmask reservation table that
finds the first free slot of a window without probing slot by slot,
picks operations from a heap, and computes RecMII by cycle-ratio jumps
instead of a binary search.  None of that may move a single placement.

This bench takes the schedule-stage inputs of two loops — ``epicdec``
under DDGT/PrefClus (the scheduler's worst known input) and one
``sweep`` scenario on the stall-heavy generated machine — schedules each
with the fast scheduler and with the reference copy in
``tests/sched_reference.py``, requires identical placements, and asserts
the fast one is at least ``MIN_SPEEDUP`` times faster in total.
"""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path

from conftest import run_once

from repro.api.core import PROFILE_ITERATIONS
from repro.api.spec import RunSpec, resolve_machine
from repro.sched import stages
from repro.sched.latency import schedule_with_latency_policy
from repro.workloads import get_benchmark
from repro.workloads.traces import cached_trace_spec

_REFERENCE = Path(__file__).resolve().parents[1] / "tests"
_spec = importlib.util.spec_from_file_location(
    "sched_reference", _REFERENCE / "sched_reference.py"
)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

#: (benchmark, variant, machine) whose loops feed the schedule stage.
CASES = (
    ("epicdec", "ddgt/prefclus", "baseline"),
    ("scn-alias-n24-m60-r3-a25-s593016", "ddgt/mincoms",
     "gen-c4-mb1x8-rb4x2-cm512b32a2-nl60p2"),
)
#: The acceptance bar asserted in CI.
MIN_SPEEDUP = 5.0


def schedule_inputs(name: str, variant: str, machine_name: str):
    """The ``(ddg, machine, assignment)`` of every loop of a benchmark,
    as the pipeline's stages hand them to the schedule stage."""
    spec = RunSpec(benchmark=name, variant=variant, machine=machine_name)
    machine = resolve_machine(spec)
    bench = get_benchmark(name)
    profile = cached_trace_spec(PROFILE_ITERATIONS, seed=bench.profile_seed)
    inputs = []
    for loop in bench.loops:
        work, _ = stages.run_unroll(loop.ddg, machine, loop.unroll)
        work = stages.run_disambiguate(work, True)
        profiles = stages.run_profile(work, machine, profile,
                                      PROFILE_ITERATIONS)
        work, mdc, _ = stages.run_coherence(
            work, machine, spec.variant_obj.coherence, profiles
        )
        assignment = stages.run_assign(
            work, machine, spec.variant_obj.heuristic, profiles, mdc
        )
        stages.run_copies(work, machine, assignment)
        inputs.append((work, machine, assignment))
    return inputs


def _timed(policy, inputs):
    start = time.perf_counter()
    schedules = [policy(*args) for args in inputs]
    return schedules, time.perf_counter() - start


def _placements(schedule):
    return schedule.ii, [
        (op.iid, op.cluster, op.time) for op in schedule.ops.values()
    ]


def _schedule_all(cases):
    return [_timed(schedule_with_latency_policy, inputs)
            for inputs in cases]


def test_fast_scheduler_beats_reference(benchmark):
    cases = [schedule_inputs(*case) for case in CASES]
    _schedule_all(cases)  # warm once (bytecode, allocator)

    ref_runs = [_timed(reference.latency_policy, inputs) for inputs in cases]
    fast_runs = run_once(benchmark, _schedule_all, cases)

    print()
    for case, inputs, (ref, ref_s), (fast, fast_s) in zip(
        CASES, cases, ref_runs, fast_runs
    ):
        ops = sum(len(ddg) for ddg, _, _ in inputs)
        print(f"{case[0]} {case[1]} on {case[2]}: {len(inputs)} loop(s), "
              f"{ops} ops, II {[s.ii for s in fast]} | reference "
              f"{ref_s:.3f}s | fast {fast_s:.3f}s | "
              f"{ref_s / fast_s:.1f}x")
        # Placement identity first: a fast wrong schedule is no schedule.
        assert [_placements(s) for s in fast] == [
            _placements(s) for s in ref
        ]
    ref_total = sum(seconds for _, seconds in ref_runs)
    fast_total = sum(seconds for _, seconds in fast_runs)
    speedup = ref_total / fast_total
    print(f"total: reference {ref_total:.3f}s | fast {fast_total:.3f}s | "
          f"{speedup:.1f}x speedup")
    assert speedup >= MIN_SPEEDUP, (
        f"expected >={MIN_SPEEDUP}x scheduling speedup, got {speedup:.2f}x"
    )
