"""Figure 7 — execution time, split compute/stall, normalized.

Four bars per benchmark — MDC(PrefClus), MDC(MinComs), DDGT(PrefClus),
DDGT(MinComs) — normalized to the optimistic baseline (free scheduling
with MinComs), which "usually performs better than PrefClus" (section
4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.report import format_table
from repro.api.runner import Runner, default_runner
from repro.api.spec import EVALUATED, FIGURE7_BARS, FREE_MIN, Variant
from repro.experiments.common import fetch_records


@dataclass
class Bar:
    """One normalized execution-time bar."""

    compute: float
    stall: float

    @property
    def total(self) -> float:
        return self.compute + self.stall


@dataclass
class Figure7Result:
    #: benchmark -> variant key -> normalized bar
    bars: Dict[str, Dict[str, Bar]] = field(default_factory=dict)
    #: benchmark -> absolute baseline cycles (free/mincoms)
    baseline_cycles: Dict[str, int] = field(default_factory=dict)
    variant_keys: Tuple[str, ...] = tuple(v.key for v in FIGURE7_BARS)

    def mean_bar(self, variant_key: str) -> Bar:
        rows = [
            bench[variant_key]
            for name, bench in self.bars.items()
            if name != "AMEAN"
        ]
        n = len(rows)
        return Bar(
            compute=sum(bar.compute for bar in rows) / n,
            stall=sum(bar.stall for bar in rows) / n,
        )

    def winner(self, benchmark: str) -> str:
        bench = self.bars[benchmark]
        return min(bench, key=lambda key: bench[key].total)

    def render(self) -> str:
        headers = ["benchmark"] + [
            f"{key} {part}"
            for key in self.variant_keys
            for part in ("cmp", "stall", "tot")
        ]
        rows = []
        for name, bench in self.bars.items():
            row: List[object] = [name]
            for key in self.variant_keys:
                bar = bench[key]
                row.extend([bar.compute, bar.stall, bar.total])
            rows.append(row)
        return format_table(
            headers, rows,
            title=(
                "Figure 7: execution cycles normalized to free(MinComs), "
                "split compute/stall"
            ),
        )


def run_figure7(
    benchmarks: Optional[List[str]] = None,
    machine: str = "baseline",
    scale: Optional[float] = None,
    attraction: bool = False,
    bars: Tuple[Variant, ...] = FIGURE7_BARS,
    runner: Optional[Runner] = None,
    progress=None,
) -> Figure7Result:
    """Also reused by Figure 9 (same bars, Attraction Buffers enabled)."""
    names = list(benchmarks) if benchmarks is not None else list(EVALUATED)
    runner = runner if runner is not None else default_runner()
    records = fetch_records(
        names, (FREE_MIN,) + tuple(bars), machine, scale, attraction, runner,
        progress=progress,
    )

    result = Figure7Result(variant_keys=tuple(v.key for v in bars))
    for name in names:
        base_cycles = records[(name, FREE_MIN.key)].total_cycles
        result.baseline_cycles[name] = base_cycles
        result.bars[name] = {}
        for variant in bars:
            run = records[(name, variant.key)]
            result.bars[name][variant.key] = Bar(
                compute=run.compute_cycles / base_cycles,
                stall=run.stall_cycles / base_cycles,
            )
    result.bars["AMEAN"] = {
        key: result.mean_bar(key) for key in result.variant_keys
    }
    return result
