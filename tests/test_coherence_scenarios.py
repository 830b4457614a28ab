"""The paper's Figure 2 / Figure 4 scenario, end to end.

Figure 2: a store scheduled in cluster 4 updates variable X homed in
cluster 1; an aliased load runs in cluster 1 shortly after.  The store's
bus transit is slower than the load's local access, so the load reads a
stale value — unless a coherence solution intervenes.

Figure 4: store replication places an instance in every cluster; the one
in X's home cluster executes (locally, immediately), so the load always
sees the new value.
"""

import pytest

from repro.alias import MemRef
from repro.arch import BASELINE_CONFIG
from repro.ir import DdgBuilder, DepKind
from repro.sched import CoherenceMode, Heuristic, compile_loop
from repro.sim import simulate
from repro.workloads import trace_factory
from repro.workloads.traces import AddressTrace, address_tables

ITERATIONS = 128


def store_then_load(pin_store=None, pin_load=None, consumer=True):
    """store X; load X — aliased, same address every iteration.

    With ``consumer=False`` the loaded value is dead: stall-on-use then
    never delays the kernel, so the load really issues one cycle after the
    store — the tight Figure 2 timing.  (With a consumer, the stalls the
    remote loads themselves cause happen to stretch the store-to-load
    distance past the bus transit; the hazard then needs congested buses,
    which the property tests exercise.)
    """
    b = DdgBuilder("figure2")
    # "variable X": one hot location, updated and read every iteration
    # (stride 0 keeps the cache warm so the timing race is visible).
    ref = MemRef("X", stride=0, width=4, ambiguous=True)
    st = b.store(mem=ref, name="st")
    ld = b.load("v", mem=ref, name="ld")
    if consumer:
        b.ialu("c", "v", name="use")
    b.mem_dep(st, ld, DepKind.MF, 0)
    b.mem_dep(ld, st, DepKind.MA, 1)
    b.mem_dep(st, st, DepKind.MO, 1)
    ddg = b.build()
    if pin_store is not None:
        ddg.pin_cluster(st.iid, pin_store)
    if pin_load is not None:
        ddg.pin_cluster(ld.iid, pin_load)
    return ddg


def run(ddg, coherence, heuristic=Heuristic.MINCOMS):
    result = compile_loop(
        ddg,
        BASELINE_CONFIG,
        coherence=coherence,
        heuristic=heuristic,
        trace_factory=trace_factory(64, seed=5),
        unroll_factor=1,
        add_mem_deps=False,
    )
    trace = trace_factory(ITERATIONS, seed=6)(result.ddg)
    return simulate(result, trace, iterations=ITERATIONS)


class TestFigure2Violation:
    def test_cross_cluster_store_load_reads_stale(self):
        """The optimistic baseline with the store forced away from the
        load's cluster produces stale reads."""
        ddg = store_then_load(pin_store=3, pin_load=0, consumer=False)
        sim = run(ddg, CoherenceMode.NONE)
        assert sim.violations.total > 0
        assert sim.violations.stale_reads > 0

    def test_same_cluster_is_naturally_coherent(self):
        ddg = store_then_load(pin_store=0, pin_load=0, consumer=False)
        sim = run(ddg, CoherenceMode.NONE)
        assert sim.violations.total == 0

    def test_mdc_fixes_the_same_tight_timing(self):
        """Identical graph, MDC placement: zero violations."""
        ddg = store_then_load(consumer=False)
        sim = run(ddg, CoherenceMode.MDC)
        assert sim.violations.total == 0

    def test_ddgt_fixes_the_same_tight_timing(self):
        ddg = store_then_load(consumer=False)
        sim = run(ddg, CoherenceMode.DDGT)
        assert sim.violations.total == 0


class TestFigure4StoreReplication:
    def test_ddgt_eliminates_all_violations(self):
        ddg = store_then_load()  # unconstrained: DDGT must fix placement
        sim = run(ddg, CoherenceMode.DDGT)
        assert sim.violations.total == 0

    def test_ddgt_fixes_even_adversarial_pins(self):
        """Pins on the original store are overridden by replication (the
        local instance always exists)."""
        ddg = store_then_load(pin_load=0)
        sim = run(ddg, CoherenceMode.DDGT)
        assert sim.violations.total == 0

    def test_mdc_eliminates_all_violations(self):
        ddg = store_then_load()
        for heuristic in (Heuristic.MINCOMS, Heuristic.PREFCLUS):
            sim = run(ddg, CoherenceMode.MDC, heuristic)
            assert sim.violations.total == 0


class TestCheckerPrecision:
    def test_expected_versions_follow_program_order(self):
        from repro.sim.coherence import CoherenceChecker

        ddg = store_then_load()
        trace = AddressTrace(ddg, num_iterations=4, base_of={"X": 0})
        checker = CoherenceChecker(ddg, address_tables(ddg, trace, 4), 4)
        store = next(v for v in ddg if v.is_store)
        load = next(v for v in ddg if v.is_load)
        # load of iteration i must see the store of iteration i (same
        # address, store earlier in program order).
        for i in range(4):
            assert checker.expected(load.iid, i) == (i, store.seq)

    def test_observe_classification(self):
        from repro.sim.coherence import CoherenceChecker

        ddg = store_then_load()
        trace = AddressTrace(ddg, num_iterations=4, base_of={"X": 0})
        checker = CoherenceChecker(ddg, address_tables(ddg, trace, 4), 4)
        load = next(v for v in ddg if v.is_load)
        store = next(v for v in ddg if v.is_store)
        assert checker.observe_load(load.iid, 2, (1, store.seq))  # stale
        assert checker.counts.stale_reads == 1
        assert checker.observe_load(load.iid, 1, (3, store.seq))  # future
        assert checker.counts.future_reads == 1
        assert not checker.observe_load(load.iid, 3, (3, store.seq))
