"""The one record source every experiment driver shares.

Each figure/table driver is a grid of (benchmark, variant) cells on one
named machine; :func:`fetch_records` runs that grid as a
:class:`~repro.api.spec.Plan` through a
:class:`~repro.api.runner.Runner`, so every record the drivers report
comes from ``RunSpec → Runner`` and shares the runner's result store.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.api.records import RunRecord
from repro.api.runner import Runner
from repro.api.spec import Plan, Variant


def fetch_records(
    names: Iterable[str],
    variants: Iterable[Variant],
    machine: str,
    scale: Optional[float],
    attraction: bool,
    runner: Runner,
    progress=None,
) -> Dict[Tuple[str, str], RunRecord]:
    """``(benchmark, variant key) -> RunRecord`` for one driver grid.

    ``machine`` is any registry name, including a self-describing
    ``gen-…`` geometry.  The plan is streamed, so a ``progress``
    callback (``(done, total, record)``) sees every completion live.
    """
    plan = Plan.grid(
        benchmarks=list(names),
        variants=tuple(variants),
        machines=machine,
        attraction=attraction,
        scale=scale,
    )
    records = runner.run(plan, progress=progress)
    return {(r.benchmark, r.variant): r for r in records}
