"""Figure 6 — classification of memory accesses (PrefClus heuristic).

Three bars per benchmark: (i) no memory-dependence restrictions (free),
(ii) MDC, (iii) DDGT; each bar splits all memory accesses into local hits,
remote hits, local misses, remote misses and combined accesses, plus the
arithmetic mean across benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.report import format_table
from repro.api.runner import Runner, default_runner
from repro.api.spec import DDGT_PREF, EVALUATED, FREE_PREF, MDC_PREF, Variant
from repro.experiments.common import fetch_records
from repro.sim.stats import AccessType

BARS: Tuple[Variant, ...] = (FREE_PREF, MDC_PREF, DDGT_PREF)
BAR_NAMES = {FREE_PREF.key: "free", MDC_PREF.key: "MDC", DDGT_PREF.key: "DDGT"}


@dataclass
class Figure6Result:
    #: benchmark -> bar name -> access-type fractions
    fractions: Dict[str, Dict[str, Dict[AccessType, float]]] = field(
        default_factory=dict
    )

    def local_hit(self, benchmark: str, bar: str) -> float:
        return self.fractions[benchmark][bar][AccessType.LOCAL_HIT]

    def mean_local_hit(self, bar: str) -> float:
        values = [
            bench[bar][AccessType.LOCAL_HIT]
            for name, bench in self.fractions.items()
            if name != "AMEAN"
        ]
        return sum(values) / len(values) if values else 0.0

    def render(self) -> str:
        headers = ["benchmark", "bar", "local hit", "remote hit",
                   "local miss", "remote miss", "combined"]
        rows = []
        for name, bars in self.fractions.items():
            for bar, frac in bars.items():
                rows.append([
                    name, bar,
                    frac[AccessType.LOCAL_HIT],
                    frac[AccessType.REMOTE_HIT],
                    frac[AccessType.LOCAL_MISS],
                    frac[AccessType.REMOTE_MISS],
                    frac[AccessType.COMBINED],
                ])
        return format_table(
            headers, rows,
            title="Figure 6: memory access classification (PrefClus)",
        )


def run_figure6(
    benchmarks: Optional[List[str]] = None,
    machine: str = "baseline",
    scale: Optional[float] = None,
    runner: Optional[Runner] = None,
    progress=None,
) -> Figure6Result:
    names = list(benchmarks) if benchmarks is not None else list(EVALUATED)
    runner = runner if runner is not None else default_runner()
    records = fetch_records(names, BARS, machine, scale, False, runner,
                            progress=progress)
    result = Figure6Result()
    for name in names:
        result.fractions[name] = {}
        for variant in BARS:
            run = records[(name, variant.key)]
            result.fractions[name][BAR_NAMES[variant.key]] = (
                run.access_fractions()
            )
    # Arithmetic mean bar (the paper's AMEAN column).
    mean: Dict[str, Dict[AccessType, float]] = {}
    for variant in BARS:
        bar = BAR_NAMES[variant.key]
        mean[bar] = {
            kind: sum(result.fractions[n][bar][kind] for n in names) / len(names)
            for kind in AccessType
        }
    result.fractions["AMEAN"] = mean
    return result
