"""The learned cost model: pure-python boosted stumps / ridge per target.

One :class:`SurrogateModel` predicts the three quantities the sweep
frontier cares about — ``ipc`` (issued ops per cycle), ``ii`` (mean
initiation interval) and ``traffic`` (bus transfers per kernel
iteration) — from the :mod:`repro.surrogate.features` vector of a cell.
Everything is standard-library python.  The default predictor family is
gradient-boosted depth-1 regression stumps fit on raw features; the
``ridge`` family standardizes features (zero-mean/unit-variance over
the training set) and solves the normal equations
``(XᵀX + λI)·w = Xᵀy`` by Gaussian elimination with partial pivoting —
a ~45×45 dense solve, microseconds of work.

The model carries its **training rows** (feature vector + targets +
cell key) in the artifact, which is what makes the active-learning loop
exact: :meth:`SurrogateModel.refit_with` appends freshly *measured*
rows (deduplicated by cell key, new measurements win) and re-solves,
so a guided sweep continuously sharpens the model with ground truth it
just paid for.

Serialization is canonical JSON (sorted keys, no whitespace drift):
``loads(dumps(model))`` round-trips byte-identically, which the store
layer relies on for content-hashed artifact names.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError, WorkloadError
from repro.hashing import digest
from repro.surrogate.features import FEATURE_NAMES, feature_schema_hash

#: The quantities a surrogate predicts, in canonical order.
TARGETS: Tuple[str, ...] = ("ipc", "ii", "traffic")

#: Default L2 regularization strength (``model_type="ridge"``).
DEFAULT_RIDGE_LAMBDA = 1.0

#: Default boosting hyperparameters (``model_type="gbs"``).
DEFAULT_BOOST_ROUNDS = 200
DEFAULT_LEARN_RATE = 0.15

#: Supported predictor families.  ``gbs`` (gradient-boosted stumps) is
#: the default: the sweep targets respond nonlinearly to the generator
#: knobs (II saturates with recurrence, traffic explodes with alias
#: density under mincoms), which a linear model provably cannot rank —
#: ridge stays available as the cheap, fully-interpretable baseline.
MODEL_TYPES: Tuple[str, ...] = ("gbs", "ridge")

#: Model artifact format version.
MODEL_SCHEMA = 1


@dataclass(frozen=True)
class TrainRow:
    """One training example: a cell, its features, its measured targets."""

    key: str
    features: Tuple[float, ...]
    targets: Dict[str, float]

    def to_dict(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "features": list(self.features),
            "targets": {t: self.targets[t] for t in sorted(self.targets)},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TrainRow":
        return cls(
            key=str(data["key"]),
            features=tuple(float(v) for v in data["features"]),
            targets={str(k): float(v)
                     for k, v in dict(data["targets"]).items()},
        )


# ----------------------------------------------------------------------
# Dense linear algebra (pure python, no deps)
# ----------------------------------------------------------------------
def _solve(matrix: List[List[float]], rhs: List[float]) -> List[float]:
    """Solve ``matrix · x = rhs`` by Gaussian elimination with partial
    pivoting.  ``matrix`` is mutated; ridge regularization guarantees the
    system is well-conditioned for any λ > 0."""
    n = len(matrix)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if abs(aug[pivot][col]) < 1e-12:
            raise WorkloadError(
                "singular system while fitting the surrogate (is the "
                "ridge lambda zero on degenerate data?)"
            )
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1.0 / aug[col][col]
        for r in range(col + 1, n):
            factor = aug[r][col] * inv
            if factor == 0.0:
                continue
            for c in range(col, n + 1):
                aug[r][c] -= factor * aug[col][c]
    out = [0.0] * n
    for row in range(n - 1, -1, -1):
        acc = aug[row][n]
        for c in range(row + 1, n):
            acc -= aug[row][c] * out[c]
        out[row] = acc / aug[row][row]
    return out


def fit_ridge(
    x_rows: Sequence[Sequence[float]],
    y: Sequence[float],
    ridge_lambda: float,
) -> List[float]:
    """Ridge-regression weights for one target over standardized rows.

    The first column (the bias slot) is excluded from regularization so
    the intercept is never shrunk toward zero.
    """
    n_features = len(x_rows[0])
    xtx = [[0.0] * n_features for _ in range(n_features)]
    xty = [0.0] * n_features
    for row, target in zip(x_rows, y):
        for i in range(n_features):
            ri = row[i]
            if ri == 0.0:
                continue
            xty[i] += ri * target
            xtx_i = xtx[i]
            for j in range(n_features):
                xtx_i[j] += ri * row[j]
    for i in range(1, n_features):  # slot 0 is the unregularized bias
        xtx[i][i] += ridge_lambda
    xtx[0][0] += 1e-9  # keep the bias row non-singular on empty data
    return _solve(xtx, xty)


def fit_boosted_stumps(
    x_rows: Sequence[Sequence[float]],
    y: Sequence[float],
    rounds: int = DEFAULT_BOOST_ROUNDS,
    learn_rate: float = DEFAULT_LEARN_RATE,
) -> Dict[str, object]:
    """Gradient-boosted depth-1 regression trees on *raw* features.

    Each round greedily picks the (feature, threshold) split of the
    current residuals with the largest SSE reduction and adds the
    shrunken leaf means to the ensemble.  Fully deterministic: features
    are scanned in index order, thresholds are midpoints of consecutive
    distinct sorted values, and ties keep the first-found split.
    Returns ``{"base": float, "stumps": [[feature, threshold, left,
    right], ...]}`` with the learning rate pre-multiplied into the
    leaves.
    """
    n = len(y)
    n_features = len(x_rows[0])
    base = sum(y) / n
    preds = [base] * n
    # Per feature, built once: the row order by value, and every split
    # position (between consecutive distinct sorted values) with its
    # midpoint threshold.
    orders = []
    splits = []
    for f in range(n_features):
        order = sorted(range(n), key=lambda i: x_rows[i][f])
        column = [x_rows[i][f] for i in order]
        cuts = [pos + 1 for pos in range(n - 1)
                if column[pos] != column[pos + 1]]
        orders.append(order)
        splits.append((
            cuts,
            [(column[cnt - 1] + column[cnt]) / 2.0 for cnt in cuts],
        ))
    stumps: List[List[float]] = []
    for _ in range(rounds):
        resid = [y[i] - preds[i] for i in range(n)]
        total = sum(resid)
        best_gain = 1e-12
        best = None
        for f in range(n_features):
            cuts, thresholds = splits[f]
            if not cuts:
                continue
            # prefix[cnt]: residual sum of the cnt smallest rows, added
            # in sorted order.
            prefix = list(accumulate(map(resid.__getitem__, orders[f]),
                                     initial=0.0))
            sums = [prefix[cnt] for cnt in cuts]
            # SSE reduction of (left mean, right mean) vs zero.
            gains = [
                left * left / cnt + (total - left) ** 2 / (n - cnt)
                for left, cnt in zip(sums, cuts)
            ]
            if not math.isfinite(total):
                # Only then can a gain be NaN; a NaN never wins a split.
                gains = [g if g == g else -math.inf for g in gains]
            k = max(range(len(gains)), key=gains.__getitem__)
            if gains[k] > best_gain:  # ties keep the first-found split
                best_gain = gains[k]
                cnt = cuts[k]
                best = (f, thresholds[k], sums[k] / cnt,
                        (total - sums[k]) / (n - cnt))
        if best is None:
            break  # residuals are flat (or all features constant)
        f, threshold, left, right = best
        left *= learn_rate
        right *= learn_rate
        stumps.append([float(f), threshold, left, right])
        for i in range(n):
            preds[i] += left if x_rows[i][f] <= threshold else right
    return {"base": base, "stumps": stumps}


def predict_boosted(booster: Dict[str, object],
                    vector: Sequence[float]) -> float:
    value = float(booster["base"])
    for feature, threshold, left, right in booster["stumps"]:
        value += left if vector[int(feature)] <= threshold else right
    return value


# ----------------------------------------------------------------------
# Error metrics
# ----------------------------------------------------------------------
def mean_absolute_error(predicted: Sequence[float],
                        actual: Sequence[float]) -> float:
    if not actual:
        return 0.0
    return sum(abs(p - a) for p, a in zip(predicted, actual)) / len(actual)


def _ranks(values: Sequence[float]) -> List[float]:
    """Average ranks (1-based, ties share the mean rank)."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    pos = 0
    while pos < len(order):
        end = pos
        while (end + 1 < len(order)
               and values[order[end + 1]] == values[order[pos]]):
            end += 1
        mean_rank = (pos + end) / 2.0 + 1.0
        for k in range(pos, end + 1):
            ranks[order[k]] = mean_rank
        pos = end + 1
    return ranks


def rank_correlation(predicted: Sequence[float],
                     actual: Sequence[float]) -> float:
    """Spearman rank correlation (ties averaged); 0.0 on degenerate input.

    This is the metric that matters for frontier guidance: the guided
    sweep only needs the surrogate to *order* cells correctly, not to
    predict absolute values.
    """
    if len(predicted) < 2:
        return 0.0
    pr = _ranks(predicted)
    ar = _ranks(actual)
    n = len(pr)
    mean = (n + 1) / 2.0
    cov = sum((p - mean) * (a - mean) for p, a in zip(pr, ar))
    var_p = sum((p - mean) ** 2 for p in pr)
    var_a = sum((a - mean) ** 2 for a in ar)
    if var_p <= 0.0 or var_a <= 0.0:
        return 0.0
    return cov / (var_p * var_a) ** 0.5


# ----------------------------------------------------------------------
# The model
# ----------------------------------------------------------------------
@dataclass
class SurrogateModel:
    """A trained (features → ipc/ii/traffic) predictor with provenance.

    ``metrics`` holds the held-out evaluation computed at train time
    (``{"ipc": {"mae": …, "rank_corr": …, "holdout": n}, …}``); the
    training rows ride along for exact active-learning refits.
    """

    version: str
    schema_hash: str
    feature_names: Tuple[str, ...]
    means: Tuple[float, ...]
    scales: Tuple[float, ...]
    weights: Dict[str, Tuple[float, ...]]
    ridge_lambda: float
    train_size: int
    metrics: Dict[str, Dict[str, float]]
    rows: List[TrainRow] = field(default_factory=list)
    #: ``"gbs"`` (boosted stumps, the default) or ``"ridge"``.
    model_type: str = "ridge"
    #: Per-target boosted-stump ensembles (``model_type="gbs"``).
    boosters: Dict[str, Dict[str, object]] = field(default_factory=dict)
    boost_rounds: int = DEFAULT_BOOST_ROUNDS
    learn_rate: float = DEFAULT_LEARN_RATE

    # ------------------------------------------------------------------
    @property
    def model_id(self) -> str:
        """Content hash of the full artifact payload — the artifact's
        file name, so identical trainings collide into one file."""
        return digest(self.to_dict())

    def standardize(self, vector: Sequence[float]) -> List[float]:
        return [
            (v - m) / s if s else (v - m)
            for v, m, s in zip(vector, self.means, self.scales)
        ]

    def predict(self, vector: Sequence[float]) -> Dict[str, float]:
        """Predicted ``{target: value}`` for one feature vector."""
        if len(vector) != len(self.feature_names):
            raise WorkloadError(
                f"feature vector has {len(vector)} slots, model expects "
                f"{len(self.feature_names)}"
            )
        if self.model_type == "gbs":
            # Stumps split on raw values; no standardization needed.
            return {
                target: predict_boosted(booster, vector)
                for target, booster in self.boosters.items()
            }
        std = self.standardize(vector)
        return {
            target: sum(w * x for w, x in zip(weights, std))
            for target, weights in self.weights.items()
        }

    def predict_many(
        self, vectors: Sequence[Sequence[float]]
    ) -> List[Dict[str, float]]:
        return [self.predict(vector) for vector in vectors]

    def check_schema(self) -> None:
        """Refuse to score vectors produced by a different feature schema."""
        current = feature_schema_hash()
        if self.schema_hash != current:
            raise ConfigError(
                f"surrogate model was trained with feature schema "
                f"{self.schema_hash}, this build produces {current}; "
                f"retrain with 'repro surrogate train'"
            )

    def refit_with(self, new_rows: Sequence[TrainRow],
                   **train_kwargs) -> "SurrogateModel":
        """The active-learning step: merge freshly measured rows into the
        training set (new measurements replace stale rows for the same
        cell) and retrain from scratch.  Returns the new model; ``self``
        is untouched."""
        from repro.surrogate.train import train_from_rows

        merged: Dict[str, TrainRow] = {row.key: row for row in self.rows}
        for row in new_rows:
            merged[row.key] = row
        train_kwargs.setdefault("model_type", self.model_type)
        train_kwargs.setdefault("ridge_lambda", self.ridge_lambda)
        train_kwargs.setdefault("boost_rounds", self.boost_rounds)
        train_kwargs.setdefault("learn_rate", self.learn_rate)
        return train_from_rows(
            sorted(merged.values(), key=lambda row: row.key), **train_kwargs
        )

    # ------------------------------------------------------------------
    # Serialization (canonical: load → dump is byte-identical)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": MODEL_SCHEMA,
            "version": self.version,
            "schema_hash": self.schema_hash,
            "model_type": self.model_type,
            "feature_names": list(self.feature_names),
            "means": list(self.means),
            "scales": list(self.scales),
            "weights": {
                target: list(self.weights[target])
                for target in sorted(self.weights)
            },
            "boosters": {
                target: {
                    "base": self.boosters[target]["base"],
                    "stumps": [list(s)
                               for s in self.boosters[target]["stumps"]],
                }
                for target in sorted(self.boosters)
            },
            "ridge_lambda": self.ridge_lambda,
            "boost_rounds": self.boost_rounds,
            "learn_rate": self.learn_rate,
            "train_size": self.train_size,
            "metrics": {
                target: {k: self.metrics[target][k]
                         for k in sorted(self.metrics[target])}
                for target in sorted(self.metrics)
            },
            "rows": [row.to_dict() for row in self.rows],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SurrogateModel":
        if int(data.get("schema", 0)) != MODEL_SCHEMA:
            raise ConfigError(
                f"unsupported surrogate model schema "
                f"{data.get('schema')!r}; this build reads {MODEL_SCHEMA}"
            )
        return cls(
            version=str(data["version"]),
            schema_hash=str(data["schema_hash"]),
            feature_names=tuple(str(n) for n in data["feature_names"]),
            means=tuple(float(v) for v in data["means"]),
            scales=tuple(float(v) for v in data["scales"]),
            weights={
                str(t): tuple(float(w) for w in ws)
                for t, ws in dict(data["weights"]).items()
            },
            ridge_lambda=float(data["ridge_lambda"]),
            train_size=int(data["train_size"]),
            metrics={
                str(t): {str(k): float(v) for k, v in dict(m).items()}
                for t, m in dict(data["metrics"]).items()
            },
            rows=[TrainRow.from_dict(d) for d in data.get("rows", [])],
            model_type=str(data.get("model_type", "ridge")),
            boosters={
                str(t): {
                    "base": float(b["base"]),
                    "stumps": [
                        [float(v) for v in stump] for stump in b["stumps"]
                    ],
                }
                for t, b in dict(data.get("boosters", {})).items()
            },
            boost_rounds=int(data.get("boost_rounds",
                                      DEFAULT_BOOST_ROUNDS)),
            learn_rate=float(data.get("learn_rate", DEFAULT_LEARN_RATE)),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SurrogateModel":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    def summary(self) -> str:
        hyper = (
            f"ridge lambda {self.ridge_lambda:g}"
            if self.model_type == "ridge"
            else f"{self.boost_rounds} rounds @ lr {self.learn_rate:g}"
        )
        lines = [
            f"surrogate model {self.model_id}",
            f"  package version : {self.version}",
            f"  model type      : {self.model_type}",
            f"  feature schema  : {self.schema_hash} "
            f"({len(self.feature_names)} features)",
            f"  training rows   : {self.train_size} ({hyper})",
        ]
        for target in sorted(self.metrics):
            m = self.metrics[target]
            lines.append(
                f"  {target:8s}: held-out MAE {m.get('mae', 0.0):.4f}, "
                f"rank corr {m.get('rank_corr', 0.0):+.3f} "
                f"({int(m.get('holdout', 0))} held-out rows)"
            )
        return "\n".join(lines)


#: Short per-model listing line used by ``repro list``.
def describe_model(model: SurrogateModel) -> str:
    worst_corr = min(
        (m.get("rank_corr", 0.0) for m in model.metrics.values()),
        default=0.0,
    )
    return (
        f"{model.model_id}  v{model.version}  {model.model_type}  "
        f"schema {model.schema_hash}  rows {model.train_size}  "
        f"worst rank-corr {worst_corr:+.3f}"
    )
