"""Executor tests: issue timing, the latency ladder, stall-on-use, and
the per-run address tables the issue path and the checker read."""

import pytest

from repro.alias import MemRef
from repro.alias.memref import AccessPattern
from repro.arch import BASELINE_CONFIG
from repro.errors import SimulationError
from repro.ir import DdgBuilder
from repro.sched import CoherenceMode, Heuristic, compile_loop
from repro.sim import simulate
from repro.workloads import get_benchmark, trace_factory
from repro.workloads.traces import AddressTrace, address_tables


def single_load_loop(stride: int, consumer: bool = True):
    b = DdgBuilder("one-load")
    b.load("x", mem=MemRef("A", stride=stride), name="ld")
    if consumer:
        b.ialu("y", "x", name="use")
    return b.build()


def compiled(ddg, **kwargs):
    defaults = dict(
        coherence=CoherenceMode.NONE,
        heuristic=Heuristic.MINCOMS,
        trace_factory=trace_factory(64, seed=1),
        unroll_factor=1,
    )
    defaults.update(kwargs)
    return compile_loop(ddg, BASELINE_CONFIG, **defaults)


class TestBasicExecution:
    def test_compute_cycles_equal_kernel_slots(self):
        """Without stalls the machine retires exactly
        length + (N-1) * II kernel indexes."""
        ddg = single_load_loop(stride=16)  # single-home, cluster 0
        result = compiled(ddg)
        trace = trace_factory(100, seed=2)(result.ddg)
        sim = simulate(result, trace, iterations=100)
        expected = result.schedule.length + 99 * result.schedule.ii
        assert sim.compute_cycles == expected

    def test_iterations_bounded_by_trace(self):
        ddg = single_load_loop(stride=16)
        result = compiled(ddg)
        trace = trace_factory(10, seed=2)(result.ddg)
        with pytest.raises(SimulationError):
            simulate(result, trace, iterations=50)

    def test_all_instances_issue(self):
        ddg = single_load_loop(stride=16)
        result = compiled(ddg)
        trace = trace_factory(50, seed=2)(result.ddg)
        sim = simulate(result, trace, iterations=50)
        assert sim.stats.issued_ops == 50 * len(result.ddg)


class TestLatencyLadder:
    def _run(self, base_of, pin_cluster=0, iterations=64):
        """One load (+consumer) pinned to a cluster, trace pinned to an
        address, so the access class is fully controlled."""
        b = DdgBuilder("probe")
        b.load("x", mem=MemRef("A", stride=0, width=4), name="ld")
        b.ialu("y", "x", name="use")
        ddg = b.build()
        for v in list(ddg):
            ddg.pin_cluster(v.iid, pin_cluster)
        result = compiled(ddg)
        trace = AddressTrace(
            result.ddg, num_iterations=iterations, base_of=base_of
        )
        return simulate(result, trace, iterations=iterations), result

    def test_local_hits_do_not_stall(self):
        # address 0 homes in cluster 0; the load is pinned there.
        sim, _ = self._run({"A": 0}, pin_cluster=0)
        assert sim.stall_cycles <= BASELINE_CONFIG.next_level.latency
        from repro.sim.stats import AccessType

        assert sim.stats.accesses[AccessType.LOCAL_HIT] >= 62

    def test_remote_hits_stall_on_use(self):
        # address 4 homes in cluster 1; the load is pinned to cluster 0.
        sim, result = self._run({"A": 4}, pin_cluster=0)
        from repro.sim.stats import AccessType

        remote = (
            sim.stats.accesses[AccessType.REMOTE_HIT]
            + sim.stats.accesses[AccessType.REMOTE_MISS]
        )
        assert remote >= 60
        # Each remote hit makes the consumer wait roughly the ladder gap.
        assert sim.stall_cycles > sim.compute_cycles

    def test_remote_stall_close_to_ladder(self):
        sim, result = self._run({"A": 4}, pin_cluster=0, iterations=200)
        lat = BASELINE_CONFIG.memory_latencies()
        # Separation scheduled for a local hit; actual is a remote hit.
        per_iter = sim.stall_cycles / 200
        assert lat.remote_hit - lat.local_hit - 2 <= per_iter <= lat.remote_hit

    def test_loads_without_consumers_never_stall(self):
        ddg = single_load_loop(stride=4, consumer=False)
        result = compiled(ddg, unroll_factor=1)
        trace = trace_factory(64, seed=2)(result.ddg)
        sim = simulate(result, trace, iterations=64)
        assert sim.stall_cycles == 0


class TestStoreSemantics:
    def test_stores_never_stall_the_core(self):
        b = DdgBuilder("stores")
        b.store(mem=MemRef("A", stride=4), name="st")
        ddg = b.build()
        result = compiled(ddg, unroll_factor=1)
        trace = trace_factory(64, seed=2)(result.ddg)
        sim = simulate(result, trace, iterations=64)
        assert sim.stall_cycles == 0

    def test_replica_nullification_counted(self, figure3):
        ddg, _ = figure3
        result = compiled(
            ddg,
            coherence=CoherenceMode.DDGT,
            add_mem_deps=False,
        )
        trace = trace_factory(64, seed=2)(result.ddg)
        sim = simulate(result, trace, iterations=64)
        # 2 logical stores x 64 iterations: 3 of 4 instances nullified.
        assert sim.stats.nullified_stores == 2 * 64 * 3


def mixed_refs_loop():
    """Affine (forward, backward and invariant) and indirect references,
    loads and stores."""
    b = DdgBuilder("mixed-refs")
    b.load("a", mem=MemRef("A", offset=8, stride=4), name="affine")
    b.load("k", mem=MemRef("K", offset=12), name="invariant")
    b.load("i", mem=MemRef("T", width=2, pattern=AccessPattern.INDIRECT,
                           spread=512, salt=3), name="gather")
    b.ialu("s", "a", "k", "i", name="sum")
    b.store("s", mem=MemRef("B", offset=4096, stride=-8, width=8),
            name="backward")
    b.store("s", mem=MemRef("T", pattern=AccessPattern.INDIRECT,
                            spread=256, salt=9), name="scatter")
    return b.build()


def _by_address(trace, ddg, iterations):
    return {
        v.iid: [trace.address(v.iid, i) for i in range(iterations)]
        for v in ddg.memory_instructions()
    }


class TestAddressTables:
    @pytest.mark.parametrize("padded", [True, False], ids=["padded",
                                                           "unpadded"])
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("iterations", [1, 37, 64])
    def test_tables_match_trace_address(self, padded, seed, iterations):
        """Bulk tables equal ``AddressTrace.address`` element for
        element, including runs shorter than the trace."""
        ddg = mixed_refs_loop()
        trace = AddressTrace(ddg, num_iterations=64, seed=seed,
                             padded=padded)
        tables = address_tables(ddg, trace, iterations)
        expected = _by_address(trace, ddg, iterations)
        assert set(tables) == set(expected)
        for iid, table in tables.items():
            assert len(table) == iterations
            assert list(table) == expected[iid]

    def test_compiled_catalog_loop_with_replicas(self):
        """An unrolled DDGT loop: salts bumped per copy, replicated
        stores sharing one reference (and one table)."""
        loop = get_benchmark("gsmdec").loops[0]
        result = compile_loop(
            loop.ddg, BASELINE_CONFIG, coherence=CoherenceMode.DDGT,
            heuristic=Heuristic.PREFCLUS,
            trace_factory=trace_factory(64, seed=1),
        )
        ddg = result.ddg
        trace = trace_factory(100, seed=4)(ddg)
        tables = address_tables(ddg, trace, 90)
        expected = _by_address(trace, ddg, 90)
        assert {iid: list(t) for iid, t in tables.items()} == expected
        replicas = [v for v in ddg.memory_instructions()
                    if v.replica_group is not None]
        assert replicas
        for v in replicas:
            assert tables[v.iid] is tables[v.replica_group]

    def test_other_trace_likes_use_their_own_address(self):
        """Only an ``AddressTrace`` is evaluated in bulk; any other
        ``TraceLike`` is asked for every address it supplies."""
        ddg = mixed_refs_loop()
        inner = AddressTrace(ddg, num_iterations=16, seed=3)
        calls = []

        class RecordingTrace:
            num_iterations = 16

            def address(self, iid, iteration):
                calls.append((iid, iteration))
                return inner.address(iid, iteration)

        tables = address_tables(ddg, RecordingTrace(), 10)
        mem_iids = [v.iid for v in ddg.memory_instructions()]
        assert sorted(calls) == sorted(
            (iid, i) for iid in mem_iids for i in range(10)
        )
        assert {iid: list(t) for iid, t in tables.items()} == \
            _by_address(inner, ddg, 10)
