"""Experiment drivers — one per table/figure of the paper's evaluation.

Each driver returns a structured result object and can render the
plain-text equivalent of the paper's table or figure; the
``benchmarks/`` tree wraps them in pytest-benchmark entry points.
"""

from repro.api.spec import ALL_VARIANTS, EVALUATED, Variant
from repro.experiments.figure6 import Figure6Result, run_figure6
from repro.experiments.figure7 import Figure7Result, run_figure7
from repro.experiments.figure9 import Figure9Result, run_figure9
from repro.experiments.table4 import Table4Result, run_table4
from repro.experiments.table5 import Table5Result, run_table5
from repro.experiments.nobal import NobalResult, run_nobal

__all__ = [
    "ALL_VARIANTS",
    "EVALUATED",
    "Variant",
    "Figure6Result",
    "run_figure6",
    "Figure7Result",
    "run_figure7",
    "Figure9Result",
    "run_figure9",
    "Table4Result",
    "run_table4",
    "Table5Result",
    "run_table5",
    "NobalResult",
    "run_nobal",
]
