"""Modulo scheduler tests: MII bounds, reservation table, IMS, latencies."""

import pytest

from repro.alias import MemRef
from repro.arch import BASELINE_CONFIG, FuKind, MachineConfig
from repro.errors import SchedulingError
from repro.ir import Ddg, DdgBuilder, DepKind, Opcode
from repro.sched.cluster import ClusterAssignment, HeuristicKind
from repro.sched.mii import assignment_res_mii, minimum_ii, rec_mii, res_mii
from repro.sched.modulo import modulo_schedule
from repro.sched.schedule import BUS, ReservationTable, edge_latency, unit_of


class TestResMii:
    def test_memory_bound(self, stream_loop):
        # 3 memory ops over 4 clusters x 1 unit -> ceil(3/4) = 1.
        assert res_mii(stream_loop, BASELINE_CONFIG) == 1

    def test_many_ops_one_kind(self):
        ddg = Ddg()
        for k in range(9):
            ddg.add_instruction(Opcode.IALU, dest=f"r{k}")
        # 9 integer ops / 4 units -> 3.
        assert res_mii(ddg, BASELINE_CONFIG) == 3

    def test_pinned_ops_bound_per_cluster(self):
        ddg = Ddg()
        for k in range(3):
            ddg.add_instruction(
                Opcode.LOAD, dest=f"r{k}", mem=MemRef("A"), required_cluster=0
            )
        assert res_mii(ddg, BASELINE_CONFIG) == 3

    def test_assignment_aware_bound(self):
        ddg = Ddg()
        iids = [
            ddg.add_instruction(Opcode.LOAD, dest=f"r{k}", mem=MemRef("A")).iid
            for k in range(6)
        ]
        spread = ClusterAssignment({iid: i % 4 for i, iid in enumerate(iids)})
        packed = ClusterAssignment({iid: 0 for iid in iids})
        assert assignment_res_mii(ddg, BASELINE_CONFIG, spread) == 2
        assert assignment_res_mii(ddg, BASELINE_CONFIG, packed) == 6


class TestRecMii:
    def test_acyclic_graph(self, stream_loop):
        assert rec_mii(stream_loop, BASELINE_CONFIG) == 1

    def test_simple_recurrence(self):
        # acc = fmul(acc@1): latency 4 over distance 1 -> RecMII 4.
        b = DdgBuilder()
        b.fmul("acc", b.carried("acc", 1))
        assert rec_mii(b.build(), BASELINE_CONFIG) == 4

    def test_two_op_recurrence(self):
        b = DdgBuilder()
        b.ialu("a", b.carried("c", 1), name="a")
        b.ialu("c", "a", name="c")
        # latency 2 around a distance-1 cycle -> RecMII 2.
        assert rec_mii(b.build(), BASELINE_CONFIG) == 2

    def test_minimum_ii_is_max(self):
        b = DdgBuilder()
        b.fmul("acc", b.carried("acc", 1))
        for k in range(9):
            b.ialu(f"r{k}")
        ddg = b.build()
        assert minimum_ii(ddg, BASELINE_CONFIG) == max(
            res_mii(ddg, BASELINE_CONFIG), 4
        )


class TestEdgeLatency:
    def test_rf_from_load_uses_assumed(self, stream_loop):
        load = next(v for v in stream_loop if v.name == "lda")
        edge = next(
            e for e in stream_loop.succs(load.iid) if e.kind is DepKind.RF
        )
        assert edge_latency(edge, stream_loop, BASELINE_CONFIG) == 1
        assert edge_latency(
            edge, stream_loop, BASELINE_CONFIG, {load.iid: 15}
        ) == 15

    def test_sync_and_ma_are_zero(self, figure3):
        ddg, nodes = figure3
        ma = next(e for e in ddg.edges() if e.kind is DepKind.MA)
        assert edge_latency(ma, ddg, BASELINE_CONFIG) == 0

    def test_mf_is_store_latency(self, figure3):
        ddg, _ = figure3
        mf = next(e for e in ddg.edges() if e.kind is DepKind.MF)
        assert edge_latency(mf, ddg, BASELINE_CONFIG) == 1


class TestReservationTable:
    def test_fu_capacity(self):
        table = ReservationTable(BASELINE_CONFIG, ii=2)
        ddg = Ddg()
        a = ddg.add_instruction(Opcode.IALU, dest="a")
        b = ddg.add_instruction(Opcode.IALU, dest="b")
        table.place(unit_of(a, 0), a.iid, time=0)
        assert not table.fits(b, cluster=0, time=2)  # same modulo slot
        assert table.fits(b, cluster=0, time=1)
        assert table.fits(b, cluster=1, time=0)  # other cluster

    def test_remove_frees_slot(self):
        table = ReservationTable(BASELINE_CONFIG, ii=2)
        ddg = Ddg()
        a = ddg.add_instruction(Opcode.IALU, dest="a")
        table.place(unit_of(a, 0), a.iid, 0)
        table.remove(unit_of(a, 0), a.iid, 0)
        assert table.fits(a, 0, 0)

    def test_copies_occupy_bus_for_latency_slots(self):
        table = ReservationTable(BASELINE_CONFIG, ii=4)
        ddg = Ddg()
        copies = [
            ddg.add_instruction(Opcode.COPY, dest=f"c{k}") for k in range(5)
        ]
        assert unit_of(copies[0], 0) == BUS
        # 4 buses, each transfer holds 2 slots: [0, 1] on every bus.
        for k in range(4):
            table.place(BUS, copies[k].iid, 0)
        assert not table.fits(copies[4], 0, 0)
        assert not table.fits(copies[4], 0, 1)  # [1, 2] overlaps [0, 1]
        assert table.fits(copies[4], 0, 2)  # [2, 3] does not
        assert table.first_free(BUS, 0) == 2
        assert table.first_free(BUS, 3) == 6  # wraps past slot 3 to 2

    def test_first_free_scans_the_window_with_wraparound(self):
        table = ReservationTable(BASELINE_CONFIG, ii=4)
        ddg = Ddg()
        ops = [
            ddg.add_instruction(Opcode.IALU, dest=f"r{k}") for k in range(4)
        ]
        unit = unit_of(ops[0], 2)
        for time in (1, 2, 3):
            table.place(unit, ops[time].iid, time)
        assert table.first_free(unit, 0) == 0
        assert table.first_free(unit, 5) == 8  # slots 1-3 taken; slot 0
        table.place(unit, ops[0].iid, 4)
        assert table.first_free(unit, 5) is None
        table.remove(unit, ops[2].iid, 2)
        assert table.first_free(unit, 3) == 6

    def test_conflicting_ops_reports_victims(self):
        table = ReservationTable(BASELINE_CONFIG, ii=1)
        ddg = Ddg()
        a = ddg.add_instruction(Opcode.IALU, dest="a")
        b = ddg.add_instruction(Opcode.IALU, dest="b")
        table.place(unit_of(a, 0), a.iid, 0)
        assert table.conflicting_ops(unit_of(b, 0), 0) == [a.iid]


class TestModuloScheduler:
    def _uniform_assignment(self, ddg, cluster=0):
        return ClusterAssignment({v.iid: cluster for v in ddg})

    def test_stream_loop_schedules_at_mii(self, stream_loop):
        assignment = ClusterAssignment(
            {v.iid: i % 4 for i, v in enumerate(stream_loop)}
        )
        sched = modulo_schedule(stream_loop, BASELINE_CONFIG, assignment)
        sched.validate()
        assert sched.ii >= minimum_ii(stream_loop, BASELINE_CONFIG)

    def test_single_cluster_memory_serialization(self, stream_loop):
        assignment = self._uniform_assignment(stream_loop)
        sched = modulo_schedule(
            stream_loop, BASELINE_CONFIG, assignment,
            min_ii=assignment_res_mii(stream_loop, BASELINE_CONFIG, assignment),
        )
        sched.validate()
        assert sched.ii >= 3  # three memory ops share one memory unit

    def test_figure3_schedules_under_all_coherence(self, figure3):
        ddg, _ = figure3
        assignment = ClusterAssignment({v.iid: 0 for v in ddg})
        sched = modulo_schedule(ddg, BASELINE_CONFIG, assignment)
        sched.validate()

    def test_recurrence_respected(self):
        b = DdgBuilder()
        b.fmul("acc", b.carried("acc", 1), name="mul")
        ddg = b.build()
        sched = modulo_schedule(
            ddg, BASELINE_CONFIG, ClusterAssignment({0: 0})
        )
        assert sched.ii == 4

    def test_impossible_zero_distance_cycle_raises(self):
        ddg = Ddg()
        a = ddg.add_instruction(Opcode.IALU, dest="a")
        c = ddg.add_instruction(Opcode.IALU, dest="c", srcs=("a",))
        ddg.add_edge(a.iid, c.iid, DepKind.RF, 0)
        ddg.add_edge(c.iid, a.iid, DepKind.RF, 0)
        with pytest.raises(SchedulingError):
            modulo_schedule(
                ddg, BASELINE_CONFIG,
                ClusterAssignment({a.iid: 0, c.iid: 0}),
            )

    def test_validate_catches_moved_op(self, stream_loop):
        assignment = ClusterAssignment(
            {v.iid: i % 4 for i, v in enumerate(stream_loop)}
        )
        sched = modulo_schedule(stream_loop, BASELINE_CONFIG, assignment)
        # Corrupt: move a dependent op before its producer.
        from repro.sched.schedule import ScheduledOp

        load = next(v for v in stream_loop if v.name == "add")
        sched.ops[load.iid] = ScheduledOp(load.iid, 0, -100)
        with pytest.raises(SchedulingError):
            sched.validate()
