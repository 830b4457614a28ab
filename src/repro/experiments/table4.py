"""Table 4 — analyzing the DDGT solution.

Two columns per benchmark (PrefClus heuristic):

* **delta comm. ops** — the ratio of communication (copy) operations
  executed under DDGT to those under MDC;
* **speedup on selected loops** — DDGT over MDC, restricted to loops that
  suffer at least a 10% slowdown under MDC relative to the optimistic
  baseline (dash when no loop qualifies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.report import format_table
from repro.api.runner import Runner, default_runner
from repro.api.spec import DDGT_PREF, EVALUATED, FREE_PREF, MDC_PREF
from repro.experiments import paperdata
from repro.experiments.common import fetch_records

#: Loops slower than this factor vs the baseline are "selected".
SLOWDOWN_THRESHOLD = 1.10


@dataclass
class Table4Result:
    #: benchmark -> DDGT/MDC dynamic copy ratio
    comm_ratio: Dict[str, float] = field(default_factory=dict)
    #: benchmark -> speedup (None when no loop qualified)
    selected_speedup: Dict[str, Optional[float]] = field(default_factory=dict)
    #: benchmark -> names of the selected loops
    selected_loops: Dict[str, List[str]] = field(default_factory=dict)

    def render(self) -> str:
        headers = ["benchmark", "Δ com. ops", "paper Δ",
                   "speedup sel. loops", "paper speedup"]
        rows = []
        for name, ratio in self.comm_ratio.items():
            paper_ratio, paper_speedup = paperdata.TABLE4.get(
                name, (float("nan"), None)
            )
            speedup = self.selected_speedup.get(name)
            rows.append([
                name,
                ratio,
                paper_ratio,
                "-" if speedup is None else f"{speedup:+.1%}",
                "-" if paper_speedup is None else f"{paper_speedup:+.1%}",
            ])
        return format_table(headers, rows, title="Table 4: the DDGT solution")


def run_table4(
    benchmarks: Optional[List[str]] = None,
    machine: str = "baseline",
    scale: Optional[float] = None,
    runner: Optional[Runner] = None,
    progress=None,
) -> Table4Result:
    names = list(benchmarks) if benchmarks is not None else list(EVALUATED)
    runner = runner if runner is not None else default_runner()
    records = fetch_records(
        names, (FREE_PREF, MDC_PREF, DDGT_PREF), machine, scale, False, runner,
        progress=progress,
    )
    result = Table4Result()
    for name in names:
        base = records[(name, FREE_PREF.key)]
        mdc = records[(name, MDC_PREF.key)]
        ddgt = records[(name, DDGT_PREF.key)]

        mdc_copies = mdc.dynamic_copies
        ddgt_copies = ddgt.dynamic_copies
        if mdc_copies:
            result.comm_ratio[name] = ddgt_copies / mdc_copies
        else:
            # No communication under MDC at all: report the paper's "1"
            # convention unless DDGT added some.
            result.comm_ratio[name] = 1.0 if not ddgt_copies else float(
                ddgt_copies
            )

        selected: List[str] = []
        mdc_cycles = 0
        ddgt_cycles = 0
        for base_loop, mdc_loop, ddgt_loop in zip(
            base.loops, mdc.loops, ddgt.loops
        ):
            if (
                mdc_loop.total_cycles
                >= SLOWDOWN_THRESHOLD * base_loop.total_cycles
            ):
                selected.append(mdc_loop.loop)
                mdc_cycles += mdc_loop.total_cycles
                ddgt_cycles += ddgt_loop.total_cycles
        result.selected_loops[name] = selected
        if selected and ddgt_cycles:
            result.selected_speedup[name] = mdc_cycles / ddgt_cycles - 1.0
        else:
            result.selected_speedup[name] = None
    return result
