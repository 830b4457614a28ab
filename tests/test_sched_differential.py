"""The fast modulo scheduler against the reference scheduler.

``tests/sched_reference.py`` keeps the straightforward scheduler the
fast one replaced (dict reservation table, linear ``max`` pick, uncapped
II search per latency level, binary-search RecMII).  Every loop below is
compiled through the real pipeline up to the ``schedule`` stage; the
stage's input is then scheduled by both, and they must agree exactly:

* the same II and the same ``(iid, cluster, time)`` for every op, in the
  same ``Schedule.ops`` order;
* the same RecMII (or the same error) at every latency level;
* the same accept/reject decision at every level of the section 2.2
  latency ladder, with identical placements where the level is accepted;

and the compiled loop must lint clean.
"""

from __future__ import annotations

import random

import pytest

import sched_reference as ref
from repro.api.core import PROFILE_ITERATIONS
from repro.api.spec import ALL_VARIANTS, RunSpec, resolve_machine
from repro.arch import BASELINE_CONFIG
from repro.arch.config import named_config
from repro.check.schedule_lint import lint_compilation
from repro.errors import SchedulingError
from repro.ir import Ddg, DdgBuilder, DepKind, Opcode
from repro.scenarios import sample_scenarios, scenario_benchmark
from repro.sched import stages
from repro.sched.cluster import ClusterAssignment
from repro.sched.latency import (
    LENGTH_SLACK_STAGES,
    schedule_with_latency_policy,
)
from repro.sched.mii import assignment_res_mii, rec_mii
from repro.sched.modulo import modulo_schedule
from repro.sched.pipeline import compile_loop
from repro.workloads import get_benchmark
from repro.workloads.traces import cached_trace_spec

MACHINES = ("baseline", "gen-c4-mb1x8-rb4x2-cm512b32a2-nl60p2")
#: One scenario per family: the sweep's shapes at a test-sized cost.
SCENARIOS = [p.name for p in sample_scenarios(5, 6)]
#: Catalog benchmarks with short DDGs, plus every variant's transform.
CATALOG = ("gsmdec", "g721dec", "rasta", "mpeg2dec")
VARIANTS = [v.key for v in ALL_VARIANTS]


def placements(schedule):
    """II plus every placement, in ``Schedule.ops`` order."""
    return schedule.ii, [
        (op.iid, op.cluster, op.time) for op in schedule.ops.values()
    ]


def outcome(fn, *args, **kwargs):
    """A schedule's placements, an int, or the error message raised."""
    try:
        result = fn(*args, **kwargs)
    except SchedulingError as error:
        return f"SchedulingError: {error}"
    return placements(result) if hasattr(result, "ops") else result


def compile_recording(benchmark: str, machine_name: str, variant: str,
                      monkeypatch):
    """Compile every loop of a benchmark; yield each loop's result and
    the (ddg, machine, assignment) the schedule stage received."""
    spec = RunSpec(benchmark=benchmark, variant=variant,
                   machine=machine_name)
    machine = resolve_machine(spec)
    bench = get_benchmark(benchmark)
    inputs = []
    original = stages.run_schedule

    def recording(work, machine, assignment):
        inputs.append((work.clone(), machine, assignment))
        return original(work, machine, assignment)

    monkeypatch.setattr(stages, "run_schedule", recording)
    for loop in bench.loops:
        result = compile_loop(
            loop.ddg, machine,
            coherence=spec.variant_obj.coherence,
            heuristic=spec.variant_obj.heuristic,
            trace_factory=cached_trace_spec(PROFILE_ITERATIONS,
                                             seed=bench.profile_seed),
            unroll_factor=loop.unroll,
        )
        yield result, inputs.pop()


def assert_ladder_matches(ddg, machine, assignment):
    """Both schedulers agree at every level of the latency ladder."""
    ladder = machine.memory_latencies().ladder()
    for level in ladder:
        assumed = {v.iid: level for v in ddg.loads()}
        assert outcome(rec_mii, ddg, machine, assumed) == outcome(
            ref.rec_mii, ddg, machine, assumed
        ), f"RecMII differs at latency {level}"

    base = ref.base_schedule(ddg, machine, assignment)
    floor = assignment_res_mii(ddg, machine, assignment)
    local_hit = {v.iid: ladder[0] for v in ddg.loads()}
    assert placements(
        modulo_schedule(ddg, machine, assignment, local_hit, min_ii=floor)
    ) == placements(base)
    assert placements(
        schedule_with_latency_policy(ddg, machine, assignment)
    ) == placements(ref.latency_policy(ddg, machine, assignment))
    if not ddg.loads():
        return
    limit = base.length + LENGTH_SLACK_STAGES * base.ii
    for level in ref.ladder_levels(machine):
        accepted, candidate = ref.level_decision(ddg, machine, assignment,
                                                 base, level)
        assumed = {v.iid: level for v in ddg.loads()}
        try:
            fast = modulo_schedule(ddg, machine, assignment, assumed,
                                   min_ii=base.ii, max_ii=base.ii)
        except SchedulingError:
            fast = None
        assert (fast is not None and fast.length <= limit) == accepted, (
            f"latency {level}"
        )
        if candidate is not None and candidate.ii == base.ii:
            assert fast is not None
            assert placements(fast) == placements(candidate)
        else:
            assert fast is None


@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("variant", ["none/mincoms", "mdc/prefclus",
                                     "ddgt/mincoms"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_scenarios_match_reference(scenario, variant, machine, monkeypatch):
    scenario_benchmark(scenario)
    for result, inputs in compile_recording(scenario, machine, variant,
                                            monkeypatch):
        assert lint_compilation(result) == []
        assert_ladder_matches(*inputs)


@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", CATALOG)
def test_catalog_loops_match_reference(name, variant, machine, monkeypatch):
    for result, inputs in compile_recording(name, machine, variant,
                                            monkeypatch):
        assert lint_compilation(result) == []
        assert_ladder_matches(*inputs)


@pytest.mark.parametrize("seed", range(12))
def test_random_assignments_match_reference(seed):
    """Scenario DDGs on seeded random cluster assignments and latencies:
    assignments the heuristics never produce, to stress ejection."""
    rng = random.Random(seed)
    params = sample_scenarios(seed, 6)[seed % 6]
    ddg = scenario_benchmark(params).loops[0].ddg
    machine = named_config(MACHINES[seed % 2])
    assignment = ClusterAssignment(
        {v.iid: rng.randrange(machine.num_clusters) for v in ddg}
    )
    for level in machine.memory_latencies().ladder():
        assumed = {v.iid: level for v in ddg.loads()}
        floor = rng.choice([None, 1, 3])
        assert outcome(
            modulo_schedule, ddg, machine, assignment, assumed, min_ii=floor
        ) == outcome(
            ref.modulo_schedule, ddg, machine, assignment, assumed,
            min_ii=floor,
        )


class TestRecurrenceErrors:
    def test_zero_distance_cycle_error_matches(self):
        """A positive cycle of total distance zero, in a graph that also
        has a carried dependence: both raise the same error."""
        b = DdgBuilder()
        b.ialu("acc", b.carried("acc", 1), name="acc")
        ddg = b.build()
        a = ddg.add_instruction(Opcode.IALU, dest="a")
        c = ddg.add_instruction(Opcode.IALU, dest="c", srcs=("a",))
        ddg.add_edge(a.iid, c.iid, DepKind.RF, 0)
        ddg.add_edge(c.iid, a.iid, DepKind.RF, 0)
        expected = outcome(ref.rec_mii, ddg, BASELINE_CONFIG)
        assert expected.startswith("SchedulingError: recurrence")
        assert outcome(rec_mii, ddg, BASELINE_CONFIG) == expected

    def test_all_zero_distance_graph_fails_the_same_way(self):
        ddg = Ddg()
        a = ddg.add_instruction(Opcode.IALU, dest="a")
        c = ddg.add_instruction(Opcode.IALU, dest="c", srcs=("a",))
        ddg.add_edge(a.iid, c.iid, DepKind.RF, 0)
        ddg.add_edge(c.iid, a.iid, DepKind.RF, 0)
        assert rec_mii(ddg, BASELINE_CONFIG) == ref.rec_mii(
            ddg, BASELINE_CONFIG
        ) == 1
        assignment = ClusterAssignment({a.iid: 0, c.iid: 0})
        expected = outcome(ref.modulo_schedule, ddg, BASELINE_CONFIG,
                           assignment)
        assert expected.startswith("SchedulingError: no schedule found")
        assert outcome(modulo_schedule, ddg, BASELINE_CONFIG,
                       assignment) == expected

    @staticmethod
    def ratio_six():
        """A recurrence of 12 cycles of latency over distance 2."""
        b = DdgBuilder()
        b.fmul("x", b.carried("y", 2), name="x")
        b.fmul("z", "x", name="z")
        b.fmul("y", "z", name="y")
        return b.build()

    @pytest.mark.parametrize("max_ii", [2, 5, 6, 512])
    def test_ratio_above_max_ii_matches(self, max_ii):
        """An error when ``max_ii`` is below the ratio, RecMII 6 at or
        above it: exactly where the binary search says."""
        ddg = self.ratio_six()
        assert outcome(rec_mii, ddg, BASELINE_CONFIG, max_ii=max_ii) == (
            outcome(ref.rec_mii, ddg, BASELINE_CONFIG, max_ii=max_ii)
        )

    @pytest.mark.parametrize("floor", [1, 4, 6, 7, 40])
    def test_floor_returns_max_of_recmii_and_floor(self, floor):
        ddg = self.ratio_six()
        assert rec_mii(ddg, BASELINE_CONFIG, floor=floor) == max(
            ref.rec_mii(ddg, BASELINE_CONFIG), floor
        )


def test_capped_level_raises_before_placement():
    """A cap below the MII raises without trying any II."""
    b = DdgBuilder()
    b.fmul("acc", b.carried("acc", 1), name="mul")
    ddg = b.build()
    assignment = ClusterAssignment({v.iid: 0 for v in ddg})
    with pytest.raises(SchedulingError, match="exceeds the II cap 3"):
        modulo_schedule(ddg, BASELINE_CONFIG, assignment, max_ii=3)
    assert modulo_schedule(ddg, BASELINE_CONFIG, assignment,
                           max_ii=4).ii == 4
