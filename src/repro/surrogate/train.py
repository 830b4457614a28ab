"""Training: turn stored :class:`RunRecord`s into a :class:`SurrogateModel`.

The training set is whatever ground truth already exists — records in a
:class:`~repro.api.store.ResultStore`, or an in-memory list from a sweep
that just ran.  Only self-describing ``scn-…`` scenario records featurize
(catalog benchmarks carry no decodable knobs), so everything else is
silently skipped and reported in the train stats.

The held-out split is deterministic: a cell is held out when
``stable_hash64(cell_key) % 1000 < holdout_frac * 1000``, so the same
data always yields the same split (and the same model artifact,
byte-for-byte).  Held-out MAE and Spearman rank correlation per target
are computed at train time, stored in the artifact, and published
through :mod:`repro.obs` as ``surrogate.*`` gauges.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro import __version__
from repro.errors import WorkloadError
from repro.obs import inc, set_gauge
from repro.scenarios.generator import is_scenario_name
from repro.scenarios.rng import stable_hash64
from repro.surrogate.features import (
    FEATURE_NAMES,
    cell_key,
    feature_schema_hash,
    featurize,
)
from repro.surrogate.model import (
    TARGETS,
    SurrogateModel,
    TrainRow,
    fit_boosted_stumps,
    mean_absolute_error,
    predict_boosted,
    rank_correlation,
)

#: Fraction of cells held out for error reporting by default.
DEFAULT_HOLDOUT_FRAC = 0.2


def record_targets(record) -> Dict[str, float]:
    """The measured target values of one :class:`RunRecord`.

    * ``ipc``     — issued operations per total cycle;
    * ``ii``      — mean initiation interval across the record's loops;
    * ``traffic`` — bus transfers per kernel iteration.
    """
    stats = record.merged_stats()
    cycles = stats.total_cycles
    iterations = sum(loop.kernel_iterations for loop in record.loops)
    loops = len(record.loops)
    return {
        "ipc": stats.issued_ops / cycles if cycles else 0.0,
        "ii": (sum(loop.ii for loop in record.loops) / loops
               if loops else 0.0),
        "traffic": stats.bus_transfers / iterations if iterations else 0.0,
    }


def record_to_row(record) -> Optional[TrainRow]:
    """A :class:`TrainRow` for one record, or ``None`` when the record
    cannot be featurized (non-scenario benchmark)."""
    if not is_scenario_name(record.benchmark):
        return None
    features = featurize(
        benchmark=record.benchmark,
        machine=record.machine,
        variant=record.variant,
        model=record.model,
    )
    key = cell_key(record.benchmark, record.machine, record.variant,
                   record.model)
    return TrainRow(key=key, features=features,
                    targets=record_targets(record))


def rows_from_records(records: Iterable) -> List[TrainRow]:
    """Featurizable training rows from records, deduplicated by cell key
    (last record wins) and sorted for determinism."""
    by_key: Dict[str, TrainRow] = {}
    skipped = 0
    for record in records:
        row = record_to_row(record)
        if row is None:
            skipped += 1
            continue
        by_key[row.key] = row
    if skipped:
        inc("surrogate.train.records_skipped", skipped)
    return sorted(by_key.values(), key=lambda row: row.key)


def rows_from_store(store) -> List[TrainRow]:
    """Training rows from every record in a :class:`ResultStore`."""
    return rows_from_records(
        store.get(key) for key in sorted(store.keys())
    )


def _is_holdout(key: str, holdout_frac: float) -> bool:
    return stable_hash64("surrogate-holdout:" + key) % 1000 < int(
        round(holdout_frac * 1000)
    )


def train_from_rows(
    rows: Sequence[TrainRow],
    *,
    holdout_frac: float = DEFAULT_HOLDOUT_FRAC,
) -> SurrogateModel:
    """Fit a :class:`SurrogateModel` on training rows.

    The final fit uses **all** rows; the held-out metrics come from an
    intermediate fit on the non-held-out subset, so the reported error
    is honest while the shipped model wastes no data.
    """
    if len(rows) < 8:
        raise WorkloadError(
            f"surrogate training needs at least 8 featurizable cells, "
            f"got {len(rows)} (run a sweep first)"
        )
    vectors = [row.features for row in rows]

    # Deterministic held-out split for the error report.
    holdout_idx = [i for i, row in enumerate(rows)
                   if _is_holdout(row.key, holdout_frac)]
    held_out = set(holdout_idx)
    train_idx = [i for i in range(len(rows)) if i not in held_out]
    if not train_idx:  # degenerate holdout fraction: report on everything
        train_idx, holdout_idx = list(range(len(rows))), []

    metrics: Dict[str, Dict[str, float]] = {}
    boosters: Dict[str, Dict[str, object]] = {}
    for target in TARGETS:
        y_all = [rows[i].targets.get(target, 0.0) for i in range(len(rows))]
        if holdout_idx:
            eval_booster = fit_boosted_stumps(
                [vectors[i] for i in train_idx],
                [y_all[i] for i in train_idx],
            )
            predicted = [
                predict_boosted(eval_booster, vectors[i])
                for i in holdout_idx
            ]
            actual = [y_all[i] for i in holdout_idx]
        else:
            predicted, actual = [], []
        metrics[target] = {
            "mae": mean_absolute_error(predicted, actual),
            "rank_corr": rank_correlation(predicted, actual),
            "holdout": float(len(holdout_idx)),
        }
        boosters[target] = fit_boosted_stumps(vectors, y_all)

    model = SurrogateModel(
        version=__version__,
        schema_hash=feature_schema_hash(),
        feature_names=FEATURE_NAMES,
        train_size=len(rows),
        metrics=metrics,
        boosters=boosters,
        rows=list(rows),
    )
    _publish(model)
    return model


def train_from_records(records: Iterable, **kwargs) -> SurrogateModel:
    return train_from_rows(rows_from_records(records), **kwargs)


def train_from_store(store, **kwargs) -> SurrogateModel:
    return train_from_rows(rows_from_store(store), **kwargs)


def _publish(model: SurrogateModel) -> None:
    """Publish train-time quality through the obs registry."""
    inc("surrogate.train.fits")
    set_gauge("surrogate.train.rows", float(model.train_size))
    for target, m in model.metrics.items():
        set_gauge("surrogate.holdout.mae", m["mae"], target=target)
        set_gauge("surrogate.holdout.rank_corr", m["rank_corr"],
                  target=target)
