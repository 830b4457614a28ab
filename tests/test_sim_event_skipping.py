"""The event-skipping engine vs the per-cycle reference.

Five concerns:

* **equivalence** — both engines produce identical ``SimStats`` and
  violation counts on random scenarios across families, coherence modes,
  machine shapes, and with Attraction Buffers, and on a mixed
  family x machine x coherence x heuristic pool under every memory
  model (the golden fixtures in ``tests/test_golden_equivalence.py``
  additionally pin the default engine byte-for-byte against the
  pre-rewrite monolith);
* **input validation** — unknown engines and bad iteration counts are
  rejected, and trace errors propagate under both engines;
* **hung-drain watchdog** — a memory system that never quiesces after
  the last issue raises :class:`SimulationError` within the watchdog
  bound under both engines and every memory model instead of spinning
  forever;
* **stall watchdog under event skipping** — a load that never completes
  raises the same watchdog error as the per-cycle reference, immediately
  rather than after 100k wall iterations;
* **completion-map pruning** — prune scheduling survives the bulk fast
  path jumping over interval multiples, so the map stays bounded.

The watchdog tests inject faults by re-registering a model in
``repro.sim.models.MODELS``, so every memory model is covered.
"""

from __future__ import annotations

import json

import pytest

from repro.alias import MemRef
from repro.arch import BASELINE_CONFIG
from repro.arch.config import parse_config_name
from repro.errors import SimulationError
from repro.ir import DdgBuilder
from repro.scenarios import ScenarioParams, build_scenario_ddg
from repro.sched import CoherenceMode, Heuristic, compile_loop
from repro.sim import ENGINES, simulate
from repro.sim import executor as executor_mod
from repro.sim.models import MODELS, model_names, named_model
from repro.workloads import trace_factory
from repro.workloads.traces import AddressTrace


def _compile(ddg, machine=BASELINE_CONFIG, **kwargs):
    defaults = dict(
        coherence=CoherenceMode.NONE,
        heuristic=Heuristic.MINCOMS,
        trace_factory=trace_factory(64, seed=5),
        profile_iterations=64,
    )
    defaults.update(kwargs)
    return compile_loop(ddg, machine, **defaults)


def _run(compiled, engine, iterations=200, seed=7):
    trace = trace_factory(iterations, seed=seed)(compiled.ddg)
    return simulate(compiled, trace, iterations=iterations, engine=engine)


def _canonical(result):
    return json.dumps(result.stats.to_dict(), sort_keys=True)


def single_load_loop():
    b = DdgBuilder("one-load")
    b.load("x", mem=MemRef("A", stride=16), name="ld")
    b.ialu("y", "x", name="use")
    return b.build()


# ----------------------------------------------------------------------
# Equivalence properties
# ----------------------------------------------------------------------
_SCENARIOS = [
    ScenarioParams(family="chase", seed=3),
    ScenarioParams(family="gather", size=12, mem_pct=15, seed=3),
    ScenarioParams(family="stream", seed=3),
    ScenarioParams(family="stencil", seed=3),
    ScenarioParams(family="reduce", seed=3),
    ScenarioParams(family="alias", alias_pct=40, seed=3),
]

_MACHINES = {
    "baseline": BASELINE_CONFIG,
    # The stall-heavy corner: contended single bus, tiny modules, far
    # next level — long in-flight windows, bus queueing, NL port queues.
    "slowmem": parse_config_name("gen-c4-mb1x8-rb4x2-cm512b32a2-nl60p2"),
}


class TestEngineEquivalence:
    @pytest.mark.parametrize("params", _SCENARIOS, ids=lambda p: p.name)
    @pytest.mark.parametrize("machine", sorted(_MACHINES), ids=str)
    def test_identical_stats_on_scenarios(self, params, machine):
        compiled = _compile(build_scenario_ddg(params), _MACHINES[machine])
        reference = _run(compiled, "cycles")
        events = _run(compiled, "events")
        assert _canonical(events) == _canonical(reference)
        assert events.violations.total == reference.violations.total
        assert events.violations.stale_reads == reference.violations.stale_reads
        assert events.violations.future_reads == reference.violations.future_reads

    @pytest.mark.parametrize(
        "mode", [CoherenceMode.MDC, CoherenceMode.DDGT], ids=lambda m: m.value
    )
    def test_identical_under_coherence_solutions(self, mode):
        params = ScenarioParams(family="alias", alias_pct=40, seed=3)
        compiled = _compile(build_scenario_ddg(params), coherence=mode)
        reference = _run(compiled, "cycles")
        events = _run(compiled, "events")
        assert _canonical(events) == _canonical(reference)
        assert events.violations.total == reference.violations.total == 0

    def test_identical_with_attraction_buffers(self):
        params = ScenarioParams(family="gather", seed=3)
        compiled = _compile(
            build_scenario_ddg(params),
            BASELINE_CONFIG.with_attraction_buffers(),
        )
        reference = _run(compiled, "cycles")
        events = _run(compiled, "events")
        assert _canonical(events) == _canonical(reference)

    def test_fast_paths_actually_engage(self):
        """The equivalence above must cover the skipping machinery, not
        vacuously compare two per-cycle runs."""
        params = ScenarioParams(family="gather", size=12, mem_pct=15, seed=3)
        compiled = _compile(build_scenario_ddg(params), _MACHINES["slowmem"])
        events = _run(compiled, "events")
        assert events.stats.fast_forwarded_cycles > 0
        reference = _run(compiled, "cycles")
        assert reference.stats.fast_forwarded_cycles == 0

    def test_unknown_engine_rejected(self):
        compiled = _compile(single_load_loop())
        trace = trace_factory(8, seed=7)(compiled.ddg)
        with pytest.raises(SimulationError, match="unknown simulation engine"):
            simulate(compiled, trace, iterations=8, engine="warp")

    def test_removed_batch_engine_rejected(self):
        compiled = _compile(single_load_loop())
        trace = trace_factory(8, seed=7)(compiled.ddg)
        with pytest.raises(SimulationError, match="'batch'"):
            simulate(compiled, trace, iterations=8, engine="batch")


# ----------------------------------------------------------------------
# Mixed pool x memory model: the engines agree beyond the default model
# ----------------------------------------------------------------------
_POOL = {
    "stream-baseline-none-mincoms": (
        "stream", "baseline", CoherenceMode.NONE, Heuristic.MINCOMS, {}),
    "gather-slowmem-none-mincoms": (
        "gather", "slowmem", CoherenceMode.NONE, Heuristic.MINCOMS, {}),
    "chase-baseline-mdc-prefclus": (
        "chase", "baseline", CoherenceMode.MDC, Heuristic.PREFCLUS, {}),
    "alias-slowmem-ddgt-mincoms": (
        "alias", "slowmem", CoherenceMode.DDGT, Heuristic.MINCOMS, {}),
    "stencil-baseline-ddgt-prefclus": (
        "stencil", "baseline", CoherenceMode.DDGT, Heuristic.PREFCLUS, {}),
}


@pytest.mark.parametrize("model", model_names())
@pytest.mark.parametrize("workload", sorted(_POOL), ids=str)
def test_engines_agree_on_mixed_pool(workload, model):
    """Every family x machine x coherence x heuristic corner simulates
    identically under both engines on every memory model."""
    family, machine, coherence, heuristic, params = _POOL[workload]
    ddg = build_scenario_ddg(ScenarioParams(family=family, seed=3, **params))
    compiled = _compile(ddg, _MACHINES[machine], coherence=coherence,
                        heuristic=heuristic)
    results = {}
    for engine in ENGINES:
        trace = trace_factory(120, seed=7)(compiled.ddg)
        results[engine] = simulate(compiled, trace, iterations=120,
                                   engine=engine, model=model)
    events, reference = results["events"], results["cycles"]
    assert _canonical(events) == _canonical(reference)
    assert events.stats.bus_transfer_kinds == reference.stats.bus_transfer_kinds
    assert events.violations.total == reference.violations.total
    if coherence is not CoherenceMode.NONE:
        assert events.violations.total == 0


def _paper_scale_loop(benchmark, loop_name, variant):
    """One catalog loop compiled and sized exactly as a scale-1.0 run
    spec would (see ``repro.api.core``)."""
    from repro.api.core import (
        KERNEL_ITERATION_FLOOR,
        PROFILE_ITERATIONS,
        resolve_machine,
    )
    from repro.api.spec import RunSpec
    from repro.workloads import get_benchmark
    from repro.workloads.traces import cached_trace_spec

    spec = RunSpec(benchmark=benchmark, variant=variant, scale=1.0)
    bench = get_benchmark(benchmark)
    loop = next(s for s in bench.loops if s.name == loop_name)
    compiled = compile_loop(
        loop.ddg, resolve_machine(spec),
        coherence=spec.variant_obj.coherence,
        heuristic=spec.variant_obj.heuristic,
        trace_factory=cached_trace_spec(PROFILE_ITERATIONS,
                                        seed=bench.profile_seed),
        unroll_factor=loop.unroll,
    )
    iterations = max(KERNEL_ITERATION_FLOOR,
                     loop.scaled_iterations(1.0) // compiled.unroll_factor)
    return compiled, iterations, bench.execute_seed


@pytest.mark.parametrize("model", model_names())
def test_engines_agree_on_paper_scale_long_trace(model):
    """A long, stall-heavy catalog loop at the paper's scale — the
    steady-window issue tables, the lazy bus arbitration and every
    message kind of every model — simulates identically under both
    engines, down to the per-kind traffic split (diagnostic: not part
    of the canonical record)."""
    compiled, iterations, seed = _paper_scale_loop(
        "rasta", "rasta.chain", "ddgt/prefclus")
    results = {}
    for engine in ENGINES:
        trace = trace_factory(iterations, seed=seed)(compiled.ddg)
        results[engine] = simulate(compiled, trace, iterations=iterations,
                                   engine=engine, model=model)
    events, reference = results["events"], results["cycles"]
    assert _canonical(events) == _canonical(reference)
    assert events.stats.bus_transfer_kinds == reference.stats.bus_transfer_kinds
    assert events.violations.total == reference.violations.total == 0
    # Long enough to matter: thousands of cycles, most of them issuing
    # one index at a time while memory is busy.
    assert reference.stats.total_cycles > 5000
    assert events.stats.bus_transfers > 1000


# ----------------------------------------------------------------------
# Input validation and error propagation
# ----------------------------------------------------------------------
class _BoomTrace:
    """TraceLike double whose address stream fails mid-run."""

    def __init__(self, inner):
        self._inner = inner
        self.num_iterations = inner.num_iterations

    def address(self, iid, iteration):
        raise RuntimeError("boom")

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.mark.parametrize(
    "iterations, message",
    [(0, "at least one"), (9, "trace provides 8 iterations, 9 requested")],
    ids=["zero", "past-trace"],
)
def test_iteration_count_validated(iterations, message):
    compiled = _compile(single_load_loop())
    trace = trace_factory(8, seed=7)(compiled.ddg)
    with pytest.raises(SimulationError, match=message):
        simulate(compiled, trace, iterations=iterations)


@pytest.mark.parametrize("engine", ENGINES)
def test_trace_errors_propagate(engine):
    compiled = _compile(single_load_loop())
    trace = _BoomTrace(trace_factory(8, seed=7)(compiled.ddg))
    with pytest.raises(RuntimeError, match="boom"):
        simulate(compiled, trace, iterations=8, engine=engine)


# ----------------------------------------------------------------------
# Watchdogs (regression: hung drain / hung stall must raise, not spin)
# ----------------------------------------------------------------------
class _NeverQuiescentMemory:
    """Fault mixin: a memory system that claims in-flight work forever."""

    def quiescent(self) -> bool:
        return False


class _SwallowingMemory:
    """Fault mixin: a memory system that drops loads, so completion
    never comes."""

    def load(self, cluster, addr, width, iid, iteration, on_complete,
             cycle) -> None:
        pass


def _inject_fault(monkeypatch, model: str, fault: type) -> None:
    """Re-register ``model`` so every memory system it builds mixes in
    ``fault`` ahead of the model's own class."""
    base = named_model(model)

    class _FaultyModel(type(base)):
        def build(self, *args, **kwargs):
            memory = super().build(*args, **kwargs)
            memory.__class__ = type(
                fault.__name__, (fault, type(memory)), {}
            )
            return memory

    monkeypatch.setitem(MODELS, model, _FaultyModel())


@pytest.fixture
def small_watchdog(monkeypatch):
    monkeypatch.setattr(executor_mod, "STALL_WATCHDOG", 500)
    return 500


@pytest.mark.parametrize("model", model_names())
@pytest.mark.parametrize("engine", ENGINES)
def test_hung_drain_raises_within_bound(engine, model, small_watchdog,
                                        monkeypatch):
    _inject_fault(monkeypatch, model, _NeverQuiescentMemory)
    compiled = _compile(single_load_loop())
    trace = trace_factory(8, seed=7)(compiled.ddg)
    with pytest.raises(SimulationError, match="drain"):
        simulate(compiled, trace, iterations=8, engine=engine, model=model)


@pytest.mark.parametrize("model", model_names())
@pytest.mark.parametrize("engine", ENGINES)
def test_lost_load_raises_stall_watchdog(engine, model, small_watchdog,
                                         monkeypatch):
    _inject_fault(monkeypatch, model, _SwallowingMemory)
    compiled = _compile(single_load_loop())
    trace = trace_factory(8, seed=7)(compiled.ddg)
    with pytest.raises(
        SimulationError,
        match=f"machine stalled for {small_watchdog + 1} cycles",
    ):
        simulate(compiled, trace, iterations=8, engine=engine, model=model)


@pytest.mark.parametrize("engine", ENGINES)
def test_long_healthy_drain_does_not_trip_watchdog(engine, small_watchdog):
    """The drain watchdog bounds progress-free windows, not total drain
    length: a store-heavy loop on a single slow bus builds a backlog
    whose (healthy) drain takes far longer than the watchdog."""
    b = DdgBuilder("store-flood")
    b.store(mem=MemRef("A", stride=4), name="st")
    ddg = b.build()
    # Pin the store away from 3/4 of its rotating homes and forbid the
    # locality unroll, so one remote store issues per cycle against a
    # single 8-cycle bus: the backlog grows ~7/8 per cycle.
    for v in list(ddg):
        ddg.pin_cluster(v.iid, 0)
    machine = parse_config_name("gen-c4-mb1x8-rb4x2-cm2048b32a2-nl10p4")
    compiled = _compile(ddg, machine, unroll_factor=1)
    iterations = 400
    trace = trace_factory(iterations, seed=7)(compiled.ddg)
    result = simulate(compiled, trace, iterations=iterations, engine=engine)
    # The backlog really outlived the watchdog: messages spent far more
    # aggregate cycles queued than the progress-free bound allows.
    assert result.stats.bus_queued_cycles > small_watchdog
    assert result.stats.stall_cycles == 0  # stores never stall the core


@pytest.mark.parametrize("model", model_names())
def test_watchdog_stall_accounting_matches_reference(
    model, small_watchdog, monkeypatch
):
    """The event engine charges the emulated watchdog window exactly as
    the per-cycle reference would have before raising."""
    _inject_fault(monkeypatch, model, _SwallowingMemory)
    compiled = _compile(single_load_loop())
    messages = {}
    for engine in ENGINES:
        trace = trace_factory(8, seed=7)(compiled.ddg)
        with pytest.raises(SimulationError) as excinfo:
            simulate(compiled, trace, iterations=8, engine=engine,
                     model=model)
        messages[engine] = str(excinfo.value)
    assert messages["events"] == messages["cycles"]


# ----------------------------------------------------------------------
# Completion-map pruning (regression: bulk jumps must not starve it)
# ----------------------------------------------------------------------
def test_prune_drops_stale_completed_entries():
    completions = {0: {it: it * 10 for it in range(100)}}
    completions[0][55] = None  # still in flight: must survive
    executor_mod._prune(completions, index=4096, ii=2, length=4)
    survivors = completions[0]
    assert None in survivors.values()
    horizon = (4096 - 4) // 2 - 8
    assert all(it >= horizon or done is None
               for it, done in survivors.items())


def test_prune_keeps_running_across_bulk_jumps(monkeypatch):
    """A kernel whose slots are mostly memory-free retires via the bulk
    fast path, jumping the kernel index over multiples of the prune
    interval; threshold-based scheduling must keep pruning anyway."""
    calls = []
    watermarks = []
    real_prune = executor_mod._prune

    def spy(completions, index, ii, length):
        calls.append(index)
        real_prune(completions, index, ii, length)
        watermarks.append(sum(len(m) for m in completions.values()))

    monkeypatch.setattr(executor_mod, "_prune", spy)
    monkeypatch.setattr(executor_mod, "_PRUNE_INTERVAL", 256)

    # One local-hit load plus ten independent filler ALUs, all pinned to
    # the load's home cluster: II grows to ~11 with a single memory slot,
    # so almost every slot is clean and long index runs retire in bulk.
    b = DdgBuilder("mostly-clean")
    b.load("x", mem=MemRef("A", stride=0), name="ld")
    b.ialu("y", "x", name="use")
    for k in range(10):
        b.ialu(f"f{k}", name=f"filler{k}")
    ddg = b.build()
    for v in list(ddg):
        ddg.pin_cluster(v.iid, 0)
    compiled = _compile(ddg)
    iterations = 2000
    trace = AddressTrace(compiled.ddg, num_iterations=iterations,
                         base_of={"A": 0})
    result = simulate(compiled, trace, iterations=iterations)

    total_indexes = (
        compiled.schedule.length + (iterations - 1) * compiled.schedule.ii
    )
    assert calls, "prune never ran"
    # Coverage: pruning kept pace with the index stream to the end.
    assert max(calls) > total_indexes - 2 * 256
    gaps = [b - a for a, b in zip(calls, calls[1:])]
    assert all(gap <= 2 * 256 for gap in gaps)
    # The bound itself: after each prune the map holds at most the live
    # window plus one interval of completions, never the whole history.
    assert max(watermarks) <= 2 * 256
    # Sanity: the run really used the bulk path.
    assert result.stats.fast_retired_indexes > 0
