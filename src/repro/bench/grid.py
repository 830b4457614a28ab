"""Config-driven benchmark grids with a persistent perf trajectory.

A *grid config* (JSON; see ``benchmarks/grids/default.json`` and
``docs/observability.md``) names a set of benchmark *series*.  Each
series describes a :class:`~repro.api.spec.Plan` — catalog benchmarks
or sampled synthetic scenarios, crossed with variants and machines —
that :func:`run_grid` executes through the ordinary ``Plan``/``Runner``
path against **fresh in-memory stores per repeat**, so every repeat
measures cold end-to-end cost (compile + simulate) rather than cache
luck.  The median wall time over ``repeat`` repeats is the series'
tracked number.

The output is one :data:`BENCH_FILE_PREFIX`\\ ``<grid>.json`` trajectory
file plus a flat CSV (anomalib-style machine-readable emission), meant
to be committed at the repo root each PR so the perf history lives in
version control.  ``repro bench compare`` (:mod:`repro.bench.compare`)
diffs two trajectory files and fails on regression.

Series results carry two kinds of fields:

* **perf fields** (``wall_seconds``, ``cycles_per_second``,
  ``frontend_seconds``) — machine-dependent; compared with a relative
  threshold;
* **deterministic fields** (``specs``, ``total_cycles``,
  ``issued_ops``, ``records_digest``) — seeded and exactly
  reproducible anywhere; any change means the *work* changed, which
  compare reports as a note rather than a failure (a legitimate
  simulator change moves them on purpose).
"""

from __future__ import annotations

import csv
import io
import json
import platform
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.analysis.report import format_table
from repro.api.artifacts import MemoryArtifactStore
from repro.api.records import RunRecord
from repro.api.runner import Runner
from repro.api.spec import Plan
from repro.api.store import MemoryStore
from repro.errors import WorkloadError
from repro.hashing import digest
from repro.obs import metrics, trace
from repro.sched.stages import FRONTEND_STAGES

#: Trajectory files are ``BENCH_<grid name>.json`` at the output root.
BENCH_FILE_PREFIX = "BENCH_"

#: Trajectory file format version.
BENCH_SCHEMA = 1

#: Flat-file column order (also the CSV header).
CSV_COLUMNS = (
    "series", "wall_seconds", "cycles_per_second", "frontend_seconds",
    "specs", "total_cycles", "issued_ops", "records_digest",
)

#: Relative spread fields live under these keys in a series result.
PERF_FIELDS = ("wall_seconds", "cycles_per_second", "frontend_seconds")
DETERMINISTIC_FIELDS = ("specs", "total_cycles", "issued_ops",
                        "records_digest")

#: Every key a series entry may carry.  Anything else — a typo or a
#: stale key — is rejected: an ignored key would silently measure a
#: different configuration than the grid file claims.
SERIES_KEYS = frozenset({
    "key", "benchmarks", "scenarios", "variants", "machines", "scale",
    "loop", "model", "surrogate",
})


@dataclass(frozen=True)
class GridSeries:
    """One tracked series of a grid config."""

    key: str
    benchmarks: Sequence[str]
    variants: Sequence[str]
    machines: Sequence[str]
    scale: float
    loop: Optional[str] = None
    model: str = "snooping"
    #: Surrogate-guided series: ``{"budget": N, "explore_frac": F,
    #: "seed": S, "train": {"seed": …, "count": …}}``.  Each repeat pays
    #: the *whole* guided pipeline cold — train-sweep simulation, model
    #: fit, frontier selection, frontier simulation — so the tracked
    #: wall time is the honest end-to-end cost of guidance.
    surrogate: Optional[Dict[str, Any]] = None

    def plan(self) -> Plan:
        return Plan.grid(
            benchmarks=list(self.benchmarks),
            variants=list(self.variants),
            machines=list(self.machines),
            scale=self.scale,
            loops=self.loop,
            models=self.model,
        )


@dataclass
class GridConfig:
    """A parsed grid config file."""

    name: str
    repeat: int
    series: List[GridSeries] = field(default_factory=list)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "GridConfig":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except OSError as exc:
            raise WorkloadError(f"cannot read grid config {path}: {exc}")
        except ValueError as exc:
            raise WorkloadError(f"grid config {path} is not JSON: {exc}")
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "GridConfig":
        try:
            name = str(data["name"])
            raw_series = data["series"]
        except (KeyError, TypeError):
            raise WorkloadError(
                "grid config needs at least 'name' and 'series'"
            )
        if not raw_series:
            raise WorkloadError("grid config has no series")
        default_scale = float(data.get("scale", 0.05))
        series: List[GridSeries] = []
        for entry in raw_series:
            key = str(entry["key"])
            unknown = sorted(set(entry) - SERIES_KEYS)
            if unknown:
                raise WorkloadError(
                    f"series {key!r} names unknown or removed key "
                    f"{unknown[0]!r}; expected keys: {sorted(SERIES_KEYS)}"
                )
            benchmarks = entry.get("benchmarks")
            sampler = entry.get("scenarios")
            if benchmarks is None and sampler is None:
                raise WorkloadError(
                    f"series {key!r} names neither 'benchmarks' nor a "
                    "'scenarios' sampler"
                )
            if benchmarks is None:
                # Seeded synthetic scenarios: resolved here, at config
                # parse time, so the plan (and the records digest) is a
                # pure function of the config.
                from repro.scenarios.generator import sample_scenarios
                benchmarks = [
                    p.name for p in sample_scenarios(
                        int(sampler.get("seed", 0)),
                        int(sampler.get("count", 2)),
                        sampler.get("families"),
                    )
                ]
            model = str(entry.get("model", "snooping"))
            from repro.sim.models import model_names
            if model not in model_names():
                raise WorkloadError(
                    f"series {key!r} names unknown memory model "
                    f"{model!r}; expected one of {model_names()}"
                )
            surrogate = entry.get("surrogate")
            if surrogate is not None:
                if not isinstance(surrogate, dict) or "budget" not in surrogate:
                    raise WorkloadError(
                        f"series {key!r}: 'surrogate' must be an object "
                        "with at least a 'budget'"
                    )
                if int(surrogate["budget"]) < 1:
                    raise WorkloadError(
                        f"series {key!r}: surrogate budget must be >= 1"
                    )
            series.append(GridSeries(
                key=key,
                benchmarks=[str(b) for b in benchmarks],
                variants=[str(v) for v in entry.get(
                    "variants", ["mdc/prefclus", "mdc/mincoms"])],
                machines=[str(m) for m in entry.get(
                    "machines", ["baseline"])],
                scale=float(entry.get("scale", default_scale)),
                loop=entry.get("loop"),
                model=model,
                surrogate=surrogate,
            ))
        seen: Dict[str, int] = {}
        for s in series:
            seen[s.key] = seen.get(s.key, 0) + 1
        dupes = sorted(k for k, n in seen.items() if n > 1)
        if dupes:
            raise WorkloadError(f"duplicate series keys: {dupes}")
        return cls(
            name=name,
            repeat=max(1, int(data.get("repeat", 3))),
            series=series,
        )


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _records_digest(records: Sequence[RunRecord]) -> str:
    return digest([r.to_dict() for r in records])


def _frontend_seconds_now() -> float:
    reg = metrics.registry()
    total = 0.0
    for labels, value in reg.counter_items("stages.seconds"):
        if labels.get("stage") in FRONTEND_STAGES:
            total += value
    return total


def run_series(series: GridSeries, repeat: int) -> Dict[str, Any]:
    """Execute one series ``repeat`` times cold; median-walled result."""
    if series.surrogate is not None:
        return _run_series_surrogate(series, repeat)
    plan = series.plan()
    walls: List[float] = []
    records: List[RunRecord] = []
    frontend = 0.0
    for _ in range(repeat):
        # Fresh stores per repeat: no result-cache or artifact-cache
        # carry-over, so every repeat pays the full compile+simulate
        # cost the series claims to measure.
        runner = Runner(store=MemoryStore(),
                        artifacts=MemoryArtifactStore())
        frontend_before = _frontend_seconds_now()
        start = time.perf_counter()
        with trace.span(f"bench:{series.key}", cat="bench"):
            records = runner.run(plan)
        walls.append(time.perf_counter() - start)
        frontend = _frontend_seconds_now() - frontend_before
    wall = statistics.median(walls)
    total_cycles = 0
    issued_ops = 0
    for record in records:
        stats = record.merged_stats()
        total_cycles += stats.total_cycles
        issued_ops += stats.issued_ops
    return {
        "wall_seconds": wall,
        "wall_seconds_all": walls,
        "cycles_per_second": (total_cycles / wall) if wall else 0.0,
        "frontend_seconds": frontend,
        "specs": len(plan),
        "total_cycles": total_cycles,
        "issued_ops": issued_ops,
        "records_digest": _records_digest(records),
    }


def _run_series_surrogate(series: GridSeries, repeat: int) -> Dict[str, Any]:
    """Execute a surrogate-guided series ``repeat`` times, cold.

    Each repeat: simulate a small seeded *training* space, fit the
    surrogate on those records, pick the ``budget`` frontier of the
    series' candidate plan, and simulate only that.  The tracked wall
    time covers all four steps, so the series' speedup claim vs its
    exhaustive twin is end-to-end honest.  Deterministic fields come
    from the frontier records; the selection itself is deterministic
    (seeded model, seeded exploration), so ``records_digest`` is stable.
    """
    from repro.scenarios.generator import sample_scenarios
    from repro.surrogate.guide import select_frontier
    from repro.surrogate.train import train_from_records

    cfg = series.surrogate or {}
    budget = int(cfg["budget"])
    explore_frac = float(cfg.get("explore_frac", 0.1))
    guide_seed = int(cfg.get("seed", 0))
    train_cfg = cfg.get("train", {})
    train_benchmarks = [
        p.name for p in sample_scenarios(
            int(train_cfg.get("seed", 1)),
            int(train_cfg.get("count", 6)),
            train_cfg.get("families"),
        )
    ]
    train_plan = Plan.grid(
        benchmarks=train_benchmarks,
        variants=list(series.variants),
        machines=list(series.machines),
        scale=series.scale,
        models=series.model,
    )
    plan = series.plan()

    walls: List[float] = []
    records: List[RunRecord] = []
    frontend = 0.0
    chosen = 0
    for _ in range(repeat):
        runner = Runner(store=MemoryStore(),
                        artifacts=MemoryArtifactStore())
        frontend_before = _frontend_seconds_now()
        start = time.perf_counter()
        with trace.span(f"bench:{series.key}", cat="bench"):
            train_records = runner.run(train_plan)
            model = train_from_records(train_records)
            selection = select_frontier(
                list(plan.specs), model, budget,
                explore_frac=explore_frac, seed=guide_seed,
            )
            records = runner.run(Plan(tuple(selection.chosen)))
        walls.append(time.perf_counter() - start)
        frontend = _frontend_seconds_now() - frontend_before
        chosen = len(selection.chosen)
    wall = statistics.median(walls)
    total_cycles = 0
    issued_ops = 0
    for record in records:
        stats = record.merged_stats()
        total_cycles += stats.total_cycles
        issued_ops += stats.issued_ops
    return {
        "wall_seconds": wall,
        "wall_seconds_all": walls,
        "cycles_per_second": (total_cycles / wall) if wall else 0.0,
        "frontend_seconds": frontend,
        "specs": chosen,
        "total_cycles": total_cycles,
        "issued_ops": issued_ops,
        "records_digest": _records_digest(records),
        "candidate_specs": len(plan),
        "skipped_specs": len(plan) - chosen,
        "train_specs": len(train_plan),
    }


def run_grid(config: GridConfig,
             repeat: Optional[int] = None,
             progress=None) -> Dict[str, Any]:
    """Run every series of a grid; returns the trajectory payload."""
    repeat = config.repeat if repeat is None else max(1, repeat)
    results: Dict[str, Any] = {}
    for pos, series in enumerate(config.series):
        if progress is not None:
            progress(pos, len(config.series), series.key)
        results[series.key] = run_series(series, repeat)
        metrics.inc("bench.series_runs", grid=config.name)
    from repro import __version__
    return {
        "schema": BENCH_SCHEMA,
        "grid": config.name,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "repeat": repeat,
        "env": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "repro_version": __version__,
        },
        "series": results,
    }


# ----------------------------------------------------------------------
# Emission
# ----------------------------------------------------------------------
def bench_paths(name: str,
                out_dir: Union[str, Path] = ".") -> Dict[str, Path]:
    out = Path(out_dir)
    stem = f"{BENCH_FILE_PREFIX}{name}"
    return {"json": out / f"{stem}.json", "csv": out / f"{stem}.csv"}


def to_csv(trajectory: Dict[str, Any]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for key in sorted(trajectory.get("series", {})):
        cell = trajectory["series"][key]
        writer.writerow([key] + [
            (f"{cell[column]:.6f}"
             if isinstance(cell[column], float) else cell[column])
            for column in CSV_COLUMNS[1:]
        ])
    return out.getvalue()


def write_trajectory(trajectory: Dict[str, Any],
                     out_dir: Union[str, Path] = ".") -> Dict[str, Path]:
    """Write ``BENCH_<grid>.json`` + CSV; returns the paths."""
    paths = bench_paths(str(trajectory["grid"]), out_dir)
    paths["json"].write_text(
        json.dumps(trajectory, indent=2, sort_keys=True) + "\n"
    )
    paths["csv"].write_text(to_csv(trajectory))
    return paths


def load_trajectory(path: Union[str, Path]) -> Dict[str, Any]:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise WorkloadError(f"cannot read trajectory {path}: {exc}")
    except ValueError as exc:
        raise WorkloadError(f"trajectory {path} is not JSON: {exc}")
    if not isinstance(data, dict) or "series" not in data:
        raise WorkloadError(f"{path} is not a BENCH_*.json trajectory")
    return data


def render(trajectory: Dict[str, Any]) -> str:
    rows = []
    for key in sorted(trajectory.get("series", {})):
        cell = trajectory["series"][key]
        rows.append([
            key, cell["wall_seconds"], cell["cycles_per_second"],
            cell["specs"], cell["total_cycles"],
            str(cell["records_digest"])[:12],
        ])
    return format_table(
        ["series", "wall_s", "cycles/s", "specs", "cycles", "digest"],
        rows,
        title=(f"bench grid {trajectory.get('grid')} "
               f"(repeat={trajectory.get('repeat')}, "
               f"{trajectory.get('created')})"),
    )
