"""The benchmark's three workloads, built as ``repro.api.Plan`` objects.

Each workload is a fixed set of ``RunSpec``s.  The ``--seed`` argument
shuffles the order in which their front-end groups run; it never changes
which specs run,
so every seed does the same work and the run-to-run spread is host
noise, not input noise.  The ``sweep`` workload draws its scenario DDGs
from ``sample_scenarios(scenario_seed, SWEEP_SCENARIOS)``; a different
``--scenario-seed`` gives a held-out draw (see README.md).
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Tuple

from repro.api import ALL_VARIANTS, EVALUATED, Plan, RunSpec
from repro.scenarios import sample_scenarios, scenario_benchmark
from repro.workloads import get_benchmark

WORKLOADS = ("sweep", "figures", "memsim")

#: The sweep's default scenario draw: two scenarios per family.
SWEEP_SCENARIO_SEED = 2
SWEEP_SCENARIOS = 12
SWEEP_VARIANTS = ("none/mincoms", "mdc/prefclus", "ddgt/mincoms")
SWEEP_MACHINES = ("baseline", "gen-c4-mb1x8-rb4x2-cm512b32a2-nl60p2")
SWEEP_SCALE = 0.1

FIGURES_SCALE = 0.05

#: The catalog benchmarks with the longest simulated traces relative to
#: their compile time.
MEMSIM_BENCHMARKS = ("gsmenc", "g721enc", "jpegenc", "rasta", "g721dec")
MEMSIM_VARIANTS = ("mdc/prefclus", "ddgt/prefclus")
MEMSIM_MODELS = ("snooping", "dls", "directory")
MEMSIM_SCALE = 1.0


def spec_label(spec: RunSpec) -> str:
    """A readable, unique name for one spec of a workload."""
    label = f"{spec.benchmark}:{spec.variant}@{spec.machine}"
    if spec.model != "snooping":
        label += f"/{spec.model}"
    return label


def build_plan(workload: str, seed: int,
               scenario_seed: int = SWEEP_SCENARIO_SEED
               ) -> Tuple[Plan, float]:
    """The workload's plan in ``seed`` order, and the seconds spent
    generating scenario DDGs (zero for the catalog workloads)."""
    generate_s = 0.0
    if workload == "sweep":
        start = time.perf_counter()
        names = [p.name for p in sample_scenarios(scenario_seed,
                                                  SWEEP_SCENARIOS)]
        for name in names:
            scenario_benchmark(name)
        generate_s = time.perf_counter() - start
        plan = Plan.grid(benchmarks=names, variants=SWEEP_VARIANTS,
                         machines=SWEEP_MACHINES, scale=SWEEP_SCALE)
    elif workload == "figures":
        plan = Plan.grid(benchmarks=EVALUATED, variants=ALL_VARIANTS,
                         scale=FIGURES_SCALE)
    elif workload == "memsim":
        plan = Plan.grid(benchmarks=MEMSIM_BENCHMARKS,
                         variants=MEMSIM_VARIANTS, models=MEMSIM_MODELS,
                         scale=MEMSIM_SCALE)
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"expected one of {WORKLOADS}")
    # Shuffle whole front-end groups (one benchmark on one machine) and
    # keep the grid's variant order inside each: the first variant of a
    # group pays for the shared front end, so which spec carries that
    # cost never depends on the seed.
    groups: Dict[Tuple[str, str], List[RunSpec]] = {}
    for spec in plan.specs:
        groups.setdefault((spec.benchmark, spec.machine), []).append(spec)
    order = list(groups.values())
    random.Random(f"{workload}/{seed}").shuffle(order)
    return Plan(tuple(spec for group in order for spec in group)), generate_s


def oracle_sample(plan: Plan, seed: int,
                  size: int) -> List[Tuple[str, int]]:
    """A seeded sample of ``(spec label, loop ordinal)`` pairs to replay
    on the per-cycle reference engine."""
    pairs = sorted((spec_label(spec), i) for spec in plan.specs
                   for i in range(len(get_benchmark(spec.benchmark).loops)))
    rng = random.Random(f"oracle/{seed}")
    return rng.sample(pairs, min(size, len(pairs)))
