"""Experiment-driver tests on a reduced benchmark subset and scale.

These check the *shape* claims each figure/table must reproduce, not
absolute numbers (see EXPERIMENTS.md for the full-scale comparison).
"""

import pytest

from repro.api import DDGT_PREF, FREE_PREF, MDC_PREF, RunSpec, run
from repro.experiments import (
    run_figure6,
    run_figure7,
    run_figure9,
    run_nobal,
    run_table4,
    run_table5,
)

SCALE = 0.15
SUBSET = ["epicdec", "gsmdec", "pgpdec"]


def run_record(name, variant, attraction=False):
    return run(RunSpec(benchmark=name, variant=variant.key, scale=SCALE,
                       attraction=attraction))


@pytest.fixture(scope="module")
def figure6():
    return run_figure6(SUBSET, scale=SCALE)


@pytest.fixture(scope="module")
def figure7():
    return run_figure7(SUBSET, scale=SCALE)


class TestFigure6Shape:
    def test_mdc_reduces_local_hits(self, figure6):
        """Chains concentrate in one cluster: local hit ratio drops."""
        assert figure6.mean_local_hit("MDC") < figure6.mean_local_hit("free")

    def test_ddgt_maximizes_local_hits(self, figure6):
        """All loads at their preferred cluster + local replicated stores:
        DDGT beats even unrestricted scheduling (section 4.2)."""
        assert figure6.mean_local_hit("DDGT") >= figure6.mean_local_hit("free")
        assert figure6.mean_local_hit("DDGT") > figure6.mean_local_hit("MDC")

    def test_epicdec_collapse_under_mdc(self, figure6):
        """The paper's starkest example: epicdec's local hits collapse."""
        free = figure6.local_hit("epicdec", "free")
        mdc = figure6.local_hit("epicdec", "MDC")
        assert mdc < 0.75 * free

    def test_fractions_sum_to_one(self, figure6):
        for bench, bars in figure6.fractions.items():
            for bar, fractions in bars.items():
                assert sum(fractions.values()) == pytest.approx(1.0)

    def test_render_contains_amean(self, figure6):
        assert "AMEAN" in figure6.render()


class TestFigure7Shape:
    def test_ddgt_wins_chain_loops(self):
        """Paper (Table 4 'selected loops' + section 4.2): DDGT outperforms
        MDC on the chain-heavy loops, where free load placement pays.
        The latency-assignment policy may convert either side's stall time
        into compute time, so the robust claim is about total cycles."""
        mdc_total = ddgt_total = 0
        for name in SUBSET:
            mdc = run_record(name, MDC_PREF)
            ddgt = run_record(name, DDGT_PREF)
            mdc_total += mdc.loops[0].total_cycles
            ddgt_total += ddgt.loops[0].total_cycles
        assert ddgt_total <= mdc_total

    def test_ddgt_wins_epicdec(self, figure7):
        bars = figure7.bars["epicdec"]
        assert (
            bars["ddgt/prefclus"].total < bars["mdc/prefclus"].total
        ), "the paper's headline epicdec result"

    def test_bars_are_positive(self, figure7):
        for bench, bars in figure7.bars.items():
            for bar in bars.values():
                assert bar.compute > 0 and bar.stall >= 0


class TestTable4Shape:
    def test_ddgt_adds_communication(self):
        result = run_table4(SUBSET, scale=SCALE)
        # Replicated stores multiply operand copies on chain benchmarks.
        assert result.comm_ratio["epicdec"] > 1.0
        assert result.comm_ratio["pgpdec"] > 1.0
        assert "Δ com. ops" in result.render()


class TestTable5Shape:
    def test_specialization_shrinks_chains(self):
        result = run_table5()
        for name, (old_cmr, old_car, new_cmr, new_car) in result.rows.items():
            assert new_cmr < old_cmr
            assert new_car < old_car
        assert "epicdec" in result.render()


class TestFigure9Shape:
    def test_attraction_buffers_never_hurt_stall(self):
        """ABs attract remote chain data: MDC's stall time shrinks (or at
        worst stays) vs the AB-less machine (paper: ~30% reduction)."""
        for name in ("epicdec", "rasta"):
            plain = run_record(name, MDC_PREF)
            with_ab = run_record(name, MDC_PREF, attraction=True)
            assert with_ab.stall_cycles <= plain.stall_cycles

    def test_figure9_runs_and_reports_epicdec_loop(self):
        result = run_figure9(["epicdec"], scale=SCALE)
        assert "MDC" in result.epicdec_loop
        assert "DDGT" in result.epicdec_loop
        assert result.epicdec_loop["DDGT"]["local_hit"] > 0

    def test_ab_closes_the_gap_except_epicdec(self):
        """With ABs, MDC catches up on pgpdec; epicdec's 76-op chain
        overflows a single cluster's AB so DDGT keeps winning there."""
        result = run_figure9(["epicdec"], scale=SCALE)
        bars = result.figure.bars["epicdec"]
        assert bars["ddgt/prefclus"].total < bars["mdc/prefclus"].total


class TestNobalShape:
    def test_nobal_reg_favors_ddgt_on_chains(self):
        result = run_nobal(["epicdec"], scale=SCALE)
        reg = result.ddgt_speedup_over_best_mdc("nobal+reg", "epicdec")
        mem = result.ddgt_speedup_over_best_mdc("nobal+mem", "epicdec")
        # Expensive remote accesses help DDGT more than cheap ones.
        assert reg > mem - 0.05
        assert "nobal+reg" in result.render()


class TestCoherenceAcrossSweep:
    @pytest.mark.parametrize("variant", [MDC_PREF, DDGT_PREF])
    @pytest.mark.parametrize("name", SUBSET)
    def test_no_violations_anywhere(self, name, variant):
        record = run_record(name, variant)
        assert record.violations == 0

    def test_baseline_keeps_timing_edges(self):
        """Even the optimistic baseline rarely violates on these loops —
        memory edges still constrain timing — but it is *allowed* to."""
        record = run_record("epicdec", FREE_PREF)
        assert record.violations >= 0
