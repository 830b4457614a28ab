"""The differential sweep harness.

Runs every scenario under the three coherence modes — free (``none``),
MDC and DDGT — over a machine space, through the ordinary
:class:`~repro.api.spec.Plan` / :class:`~repro.api.runner.Runner` path
(so results land in the shared :class:`~repro.api.store.ResultStore`,
multiprocessing/warm-cache behaviour comes for free, and the runner's
front-end grouping lets all six variants of a scenario share one
unroll+disambiguate+profile compilation via the
:class:`~repro.api.artifacts.ArtifactStore`), then
cross-checks the :class:`~repro.sim.coherence.CoherenceChecker` verdicts:
**coherence violations are allowed only under free scheduling**.  A
violation reported under MDC or DDGT is a bug in the coherence machinery
(or the generator found a pathological input) and is surfaced as an
anomaly.  Per-family IPC/II/traffic summaries aggregate the rest.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import format_table
from repro.api.records import RunRecord
from repro.api.runner import Runner
from repro.api.spec import Plan
from repro.errors import WorkloadError
from repro.obs import metrics, trace
from repro.scenarios.generator import (
    FAMILIES,
    ScenarioParams,
    sample_scenarios,
)
from repro.scenarios.machines import resolve_machines

#: The differential grid, free modes first: the full coherence x
#: heuristic cross.  Both heuristics matter — PrefClus tends to
#: co-locate accesses with their home cluster, while MinComs chases
#: register traffic and is the placement that actually provokes
#: coherence races — so MDC and DDGT must be violation-free under both,
#: not just under the gentle one.
DIFFERENTIAL_VARIANTS: Tuple[str, ...] = (
    "none/prefclus", "none/mincoms",
    "mdc/prefclus", "mdc/mincoms",
    "ddgt/prefclus", "ddgt/mincoms",
)


def _is_free(variant: str) -> bool:
    return variant.startswith("none/")


@dataclass(frozen=True)
class FamilySummary:
    """Aggregate metrics of one (family, variant, model) cell of a sweep."""

    family: str
    variant: str
    runs: int
    mean_ii: float
    mean_ipc: float
    mean_local_hit: float
    mean_bus_per_iter: float
    violations: int
    model: str = "snooping"
    #: Of ``runs``, how many were freshly simulated (vs store hits).
    simulated: int = 0
    #: Cells of this (family, variant, model) group the surrogate budget
    #: pruned — never measured, never aggregated into the means.
    skipped: int = 0
    #: Where this row's numbers came from: ``store`` / ``simulated`` /
    #: ``mixed``; ``skipped`` when the whole group was pruned.
    source: str = "simulated"

    def row(self) -> List[object]:
        return [
            self.family, self.variant, self.runs, self.mean_ii,
            self.mean_ipc, self.mean_local_hit, self.mean_bus_per_iter,
            self.violations, self.model, self.simulated, self.skipped,
            self.source,
        ]


SUMMARY_COLUMNS = (
    "family", "variant", "runs", "mean_ii", "mean_ipc", "mean_local_hit",
    "mean_bus_per_iter", "violations", "model", "simulated", "skipped",
    "source",
)


@dataclass
class SweepResult:
    """Everything one differential sweep produced."""

    scenarios: List[str]
    machines: List[str]
    variants: Tuple[str, ...]
    plan: Plan
    records: List[RunRecord]
    summaries: List[FamilySummary] = field(default_factory=list)
    #: Human-readable description of every differential-check failure.
    anomalies: List[str] = field(default_factory=list)
    #: (benchmark, variant, machine, model) -> violation count, free mode
    #: only — the violations the optimistic baseline is *expected* to show.
    free_violations: Dict[Tuple[str, str, str, str], int] = field(
        default_factory=dict
    )
    #: Specs a surrogate budget pruned (empty for exhaustive sweeps).
    skipped_specs: List = field(default_factory=list)
    #: The refit surrogate after folding realized results back in
    #: (active learning); ``None`` for unguided sweeps.
    surrogate: Optional[object] = None

    @property
    def ok(self) -> bool:
        """True when violations appeared only under free scheduling."""
        return not self.anomalies

    @property
    def simulated_runs(self) -> int:
        return sum(1 for r in self.records if r.source == "simulated")

    @property
    def store_runs(self) -> int:
        return sum(1 for r in self.records if r.source == "store")

    @property
    def skipped_runs(self) -> int:
        return len(self.skipped_specs)

    # ------------------------------------------------------------------
    def render(self) -> str:
        # Provenance columns appear in the rendered table only for
        # guided sweeps: an unguided rerun against a warm store must
        # stay byte-identical to the cold run (the CSV always carries
        # them — that is where trajectory diffs and audits look).
        guided = bool(self.skipped_specs)
        columns = list(
            SUMMARY_COLUMNS if guided else SUMMARY_COLUMNS[:-3]
        )
        lines = [format_table(
            columns,
            [s.row() if guided else s.row()[:-3]
             for s in self.summaries],
            title=(
                f"differential sweep: {len(self.scenarios)} scenarios x "
                f"{len(self.machines)} machines x {len(self.variants)} "
                f"variants = {len(self.plan)} runs"
            ),
        )]
        if self.skipped_specs:
            lines.append(
                f"surrogate-guided: {self.simulated_runs} simulated, "
                f"{self.store_runs} from store, {self.skipped_runs} "
                f"skipped by budget (all reported numbers are measured; "
                f"skipped cells carry no data)"
            )
        free_total = sum(self.free_violations.values())
        flagged = sum(1 for count in self.free_violations.values() if count)
        lines.append(
            f"free-scheduling violations: {free_total} "
            f"(in {flagged} of {len(self.free_violations)} free runs) — "
            f"expected under the optimistic baseline"
        )
        if self.anomalies:
            lines.append("DIFFERENTIAL CHECK FAILED:")
            lines.extend(f"  {msg}" for msg in self.anomalies)
        else:
            lines.append(
                "differential check passed: no violations under MDC/DDGT"
            )
        return "\n".join(lines)

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        for s in self.summaries:
            writer.writerow([
                s.family, s.variant, s.runs, f"{s.mean_ii:.3f}",
                f"{s.mean_ipc:.4f}", f"{s.mean_local_hit:.4f}",
                f"{s.mean_bus_per_iter:.3f}", s.violations, s.model,
                s.simulated, s.skipped, s.source,
            ])
        return out.getvalue()


# ----------------------------------------------------------------------
def scenario_family(benchmark_name: str) -> str:
    return ScenarioParams.parse(benchmark_name).family


def sweep_plan(
    scenarios: Sequence[str],
    machines: Optional[Sequence[str]] = None,
    variants: Sequence[str] = DIFFERENTIAL_VARIANTS,
    scale: Optional[float] = None,
    models: Sequence[str] = ("snooping",),
) -> Plan:
    """The full scenario x machine x variant x model grid as a ``Plan``."""
    for name in scenarios:
        ScenarioParams.parse(name)  # fail fast on malformed names
    return Plan.grid(
        benchmarks=list(scenarios),
        variants=list(variants),
        machines=resolve_machines(machines),
        scale=scale,
        models=list(models),
    )


def summarize(records: Sequence[RunRecord],
              skipped: Sequence = ()) -> SweepResult:
    """Differential cross-check + per-family aggregation of sweep records.

    Standalone so callers holding warm-store records (e.g. the ``report``
    CLI verb) can re-aggregate without re-running anything.  ``skipped``
    is the list of specs a surrogate budget pruned: they contribute only
    to the per-cell ``skipped`` counts (never to the measured means) and
    a cell with no measured runs at all is reported with
    ``source="skipped"``.
    """
    grouped: Dict[Tuple[str, str, str], List[RunRecord]] = {}
    skipped_counts: Dict[Tuple[str, str, str], int] = {}
    for spec in skipped:
        key = (scenario_family(spec.benchmark), spec.variant, spec.model)
        skipped_counts[key] = skipped_counts.get(key, 0) + 1
    anomalies: List[str] = []
    free_violations: Dict[Tuple[str, str, str, str], int] = {}
    for record in records:
        family = scenario_family(record.benchmark)
        cell_key = (family, record.variant, record.model)
        grouped.setdefault(cell_key, []).append(record)
        if _is_free(record.variant):
            key = (
                record.benchmark, record.variant, record.machine,
                record.model,
            )
            free_violations[key] = record.violations
        elif record.violations:
            coherence, _, heuristic = record.variant.partition("/")
            # Echo the memory model so the repro command replays the
            # exact run; omitted for the default to keep the command
            # (and the pinned tests) stable for snooping sweeps.
            model_arg = (
                "" if record.model == "snooping"
                else f" --model {record.model}"
            )
            anomalies.append(
                f"scenario={record.benchmark} coherence={coherence} "
                f"heuristic={heuristic} machine={record.machine}: "
                f"{record.violations} coherence violations (only free "
                f"scheduling may violate) — reproduce with: "
                f"repro run {record.benchmark} -v {record.variant} "
                f"--machine {record.machine} --scale {record.scale:g}"
                f"{model_arg}"
            )

    models = sorted(
        {record.model for record in records}
        | {model for (_, _, model) in skipped_counts}
    )
    summaries: List[FamilySummary] = []
    for family in FAMILIES:
        for variant in DIFFERENTIAL_VARIANTS:
            for model in models:
                key = (family, variant, model)
                cell = grouped.pop(key, None)
                skips = skipped_counts.pop(key, 0)
                if cell or skips:
                    summaries.append(
                        _summarize_cell(family, variant, model,
                                        cell or [], skips)
                    )
    # Cells outside the canonical family/variant grid (custom variants).
    leftovers = sorted(set(grouped) | set(skipped_counts))
    for key in leftovers:
        family, variant, model = key
        summaries.append(_summarize_cell(
            family, variant, model,
            grouped.get(key, []), skipped_counts.get(key, 0),
        ))

    scenarios = sorted({r.benchmark for r in records})
    machines = sorted({r.machine for r in records})
    variants = tuple(sorted({r.variant for r in records}))
    return SweepResult(
        scenarios=scenarios,
        machines=machines,
        variants=variants,
        plan=Plan(),
        records=list(records),
        summaries=summaries,
        anomalies=anomalies,
        free_violations=free_violations,
        skipped_specs=list(skipped),
    )


def _cell_source(store_n: int, simulated_n: int, skipped_n: int) -> str:
    kinds = [
        kind
        for kind, n in (
            ("store", store_n),
            ("simulated", simulated_n),
            ("skipped", skipped_n),
        )
        if n
    ]
    if not kinds:
        return "simulated"
    return kinds[0] if len(kinds) == 1 else "mixed"


def _summarize_cell(
    family: str, variant: str, model: str, cell: List[RunRecord],
    skipped: int = 0,
) -> FamilySummary:
    iis: List[int] = []
    ipcs: List[float] = []
    hits: List[float] = []
    bus_rates: List[float] = []
    violations = 0
    for record in cell:
        stats = record.merged_stats()
        cycles = stats.total_cycles
        iters = sum(loop.kernel_iterations for loop in record.loops)
        iis.extend(loop.ii for loop in record.loops)
        if cycles:
            ipcs.append(stats.issued_ops / cycles)
        if stats.total_accesses:
            hits.append(stats.local_hit_ratio)
        if iters:
            bus_rates.append(stats.bus_transfers / iters)
        violations += record.violations
    simulated = sum(1 for record in cell if record.source == "simulated")
    store_hits = len(cell) - simulated
    return FamilySummary(
        family=family,
        variant=variant,
        runs=len(cell),
        mean_ii=_mean(iis),
        mean_ipc=_mean(ipcs),
        mean_local_hit=_mean(hits),
        mean_bus_per_iter=_mean(bus_rates),
        violations=violations,
        model=model,
        simulated=simulated,
        skipped=skipped,
        source=_cell_source(store_hits, simulated, skipped),
    )


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
def run_sweep(
    scenarios: Optional[Sequence[str]] = None,
    *,
    seed: int = 0,
    count: int = 50,
    families: Optional[Sequence[str]] = None,
    machines: Optional[Sequence[str]] = None,
    variants: Sequence[str] = DIFFERENTIAL_VARIANTS,
    scale: Optional[float] = None,
    models: Sequence[str] = ("snooping",),
    runner: Optional[Runner] = None,
    journal=None,
    progress=None,
    surrogate=None,
    budget: Optional[int] = None,
    explore_frac: float = 0.1,
    surrogate_seed: int = 0,
) -> SweepResult:
    """Sample (or take) scenarios, run the differential grid, cross-check.

    With an explicit ``scenarios`` list the sampler is bypassed; otherwise
    ``count`` scenarios are drawn from ``seed`` over ``families``.

    The grid executes through the runner's streaming core: ``progress``
    (``(done, total, record)``) fires as each run completes, and a
    ``journal`` (:class:`~repro.api.journal.RunJournal`) checkpoints the
    sweep so a killed run resumes — against the on-disk store — without
    re-executing completed groups.

    With a ``surrogate`` (:class:`~repro.surrogate.SurrogateModel`) and a
    ``budget``, the sweep becomes frontier-guided: store hits are always
    kept (they are free), and of the remaining cells only the
    ``budget``-most-interesting by predicted IPC/II/traffic — plus a
    seeded ``explore_frac`` random slice — are simulated.  Pruned specs
    land in ``SweepResult.skipped_specs`` and per-cell ``skipped``
    counts; every reported number still comes from real simulation, and
    the realized results are folded back into the returned
    ``SweepResult.surrogate`` (active learning).
    """
    if scenarios is None:
        scenarios = [
            p.name for p in sample_scenarios(seed, count, families)
        ]
    if not scenarios:
        raise WorkloadError("differential sweep needs at least one scenario")
    if runner is None:
        runner = Runner(store=None)
    plan = sweep_plan(scenarios, machines, variants, scale, models)

    skipped_specs: List = []
    if surrogate is not None:
        if budget is None:
            raise WorkloadError(
                "surrogate-guided sweep needs a simulation budget"
            )
        plan, skipped_specs = _guide_plan(
            plan, runner, surrogate, budget, explore_frac, surrogate_seed
        )

    with trace.span("sweep", cat="sweep", scenarios=len(scenarios),
                    runs=len(plan)):
        records = runner.run(plan, journal=journal, progress=progress)
        result = summarize(records, skipped=skipped_specs)
    metrics.inc("sweep.runs", len(records))
    metrics.inc("sweep.skipped", len(skipped_specs))
    if result.anomalies:
        metrics.inc("sweep.anomalies", len(result.anomalies))
    result.plan = plan
    result.scenarios = list(scenarios)

    if surrogate is not None:
        result.surrogate = _refit_surrogate(surrogate, records)
    return result


def _guide_plan(
    plan: Plan, runner: Runner, surrogate, budget: int,
    explore_frac: float, surrogate_seed: int,
) -> Tuple[Plan, List]:
    """Partition the full plan into the guided plan + the pruned specs.

    Store hits ride along for free regardless of the budget — the budget
    only rations *fresh simulations* — and plan order is preserved so the
    runner's front-end grouping still shares compilations.
    """
    from repro.surrogate.guide import select_frontier

    store = runner.store
    hits = [
        spec for spec in plan.specs if store is not None
        and spec.content_hash in store
    ]
    hit_keys = {spec.content_hash for spec in hits}
    misses = [
        spec for spec in plan.specs if spec.content_hash not in hit_keys
    ]
    if budget >= len(misses):
        return plan, []
    selection = select_frontier(
        misses, surrogate, budget,
        explore_frac=explore_frac, seed=surrogate_seed,
    )
    chosen_keys = hit_keys | {
        spec.content_hash for spec in selection.chosen
    }
    guided = [s for s in plan.specs if s.content_hash in chosen_keys]
    skipped = [s for s in plan.specs if s.content_hash not in chosen_keys]
    return Plan(tuple(guided)), skipped


def _refit_surrogate(surrogate, records: Sequence[RunRecord]):
    """Fold freshly simulated ground truth back into the model (active
    learning); returns the original model when nothing new was measured
    or the merged training set is still too small."""
    from repro.surrogate.train import rows_from_records

    fresh = rows_from_records(
        [record for record in records if record.source == "simulated"]
    )
    if not fresh:
        return surrogate
    try:
        return surrogate.refit_with(fresh)
    except WorkloadError:
        return surrogate
