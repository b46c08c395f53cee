"""Cross-validation harness and model-level diagnostics.

Supports leave-one-out and leave-one-quartet-out schemes with per-fold
feature selection, training-fold cutoff tuning for imbalanced data, run
comparison reports, selection-stability summaries and a full-data model
with a coefficient table and Hosmer-Lemeshow sweep.
"""

from __future__ import annotations

import csv
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from . import glm, selection
from .features import (
    DevelopmentSdPool,
    FeatureMatrix,
    near_zero_variance_filter,
    parse_label,
)
from .glm import PriorConfig
from .selection import SelectionResult

logger = logging.getLogger(__name__)


class ConfigurationError(ValueError):
    """The cross-validation configuration contradicts the data."""


class MismatchedCorpora(ValueError):
    """Two runs cover different movement sets and cannot be compared."""


class Scheme(str, Enum):
    LOO = "loo"
    LOQO = "loqo"


class CutoffPolicy(str, Enum):
    FIXED = "fixed"  # constant 0.5
    TUNED = "tuned"  # grid-tuned on the training fold


class FeatureScope(str, Enum):
    FULL = "full"
    REDUCED = "reduced"  # basic summary + interval features only


REDUCED_CATEGORIES = ("basic", "interval")
DEFAULT_GRID = tuple(round(i / 100, 2) for i in range(101))


@dataclass(frozen=True)
class CVConfig:
    scheme: Scheme = Scheme.LOO
    cutoff_policy: CutoffPolicy = CutoffPolicy.FIXED
    grid: tuple[float, ...] = DEFAULT_GRID
    feature_scope: FeatureScope = FeatureScope.FULL
    prior: PriorConfig = field(default_factory=PriorConfig)
    seed: int = 0
    restarts: int = 10
    filter_mode: str = "per-fold"  # or "global": filter once before the folds
    bic_form: str = "paper"
    leakage_audit: bool = False  # recompute development thresholds per training fold
    n_jobs: int = 1

    def __post_init__(self):
        if not self.grid:
            raise ValueError("cutoff grid must not be empty")
        if list(self.grid) != sorted(set(self.grid)) or not (
            0 <= self.grid[0] and self.grid[-1] <= 1
        ):
            raise ValueError("cutoff grid must be strictly increasing within [0, 1]")
        if self.filter_mode not in ("per-fold", "global"):
            raise ValueError("filter_mode must be 'per-fold' or 'global'")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.bic_form not in glm.BIC_FORMS:
            raise ValueError(f"bic_form must be one of {tuple(glm.BIC_FORMS)}")

    def to_json(self) -> dict:
        return {
            "scheme": self.scheme.value,
            "cutoff_policy": self.cutoff_policy.value,
            "feature_scope": self.feature_scope.value,
            "grid": list(self.grid),
            "prior": {
                "scale_factor": self.prior.scale_factor,
                "intercept_scale": self.prior.intercept_scale,
            },
            "seed": self.seed,
            "restarts": self.restarts,
            "filter_mode": self.filter_mode,
            "bic_form": self.bic_form,
            "leakage_audit": self.leakage_audit,
        }


def tune_cutoff(train_probs, train_y, grid: Sequence[float] = DEFAULT_GRID) -> float:
    """Grid cutoff maximising training accuracy (class 1 when prob > cutoff).

    Ties prefer the cutoff closest to 0.5, then the smaller cutoff.
    """
    probs = np.asarray(train_probs, dtype=float)
    y = np.asarray(train_y, dtype=float)
    if len(probs) == 0:
        raise ValueError("cannot tune a cutoff on empty training data")
    best_correct = -1
    candidates: list[float] = []
    for c in grid:
        correct = int(((probs > c).astype(float) == y).sum())
        if correct > best_correct:
            best_correct = correct
            candidates = [c]
        elif correct == best_correct:
            candidates.append(c)
    return min(candidates, key=lambda c: (round(abs(c - 0.5), 12), c))


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FoldRecord:
    fold_id: str
    indices: tuple[int, ...]  # row positions of held-out movements
    left_out: tuple[str, ...]  # their source paths
    true_classes: tuple[int, ...]
    probabilities: tuple[float, ...]
    cutoff: float
    predicted: tuple[int, ...]
    selected: tuple[str, ...]
    failed: bool = False
    error: str = ""

    @property
    def accuracy(self) -> float:
        correct = sum(1 for t, p in zip(self.true_classes, self.predicted) if t == p)
        return correct / len(self.true_classes)


@dataclass
class CVResult:
    scheme: str
    config: dict
    folds: tuple[FoldRecord, ...]

    @property
    def n(self) -> int:
        return sum(len(f.indices) for f in self.folds)

    def iter_movements(self):
        for f in self.folds:
            for path, true, prob, pred, idx in zip(
                f.left_out, f.true_classes, f.probabilities, f.predicted, f.indices
            ):
                yield idx, path, true, prob, pred, f

    @property
    def pooled_accuracy(self) -> float:
        correct = sum(1 for _, _, t, _, p, _ in self.iter_movements() if t == p)
        return correct / self.n

    @property
    def fold_mean_accuracy(self) -> float:
        return float(np.mean([f.accuracy for f in self.folds]))

    @property
    def accuracy(self) -> float:
        """Pooled proportion correct for LOO; mean per-fold accuracy for LOQO."""
        if self.scheme == Scheme.LOQO.value:
            return self.fold_mean_accuracy
        return self.pooled_accuracy

    def class_accuracy(self, cls: int) -> float:
        rows = [(t, p) for _, _, t, _, p, _ in self.iter_movements() if t == cls]
        if not rows:
            return float("nan")
        return sum(1 for t, p in rows if t == p) / len(rows)

    @property
    def confusion(self) -> list[list[int]]:
        """2x2 counts: rows observed class (0, 1), columns predicted class."""
        out = [[0, 0], [0, 0]]
        for _, _, t, _, p, _ in self.iter_movements():
            out[t][p] += 1
        return out

    def to_json(self) -> dict:
        return {
            "scheme": self.scheme,
            "config": self.config,
            "accuracy": self.accuracy,
            "pooled_accuracy": self.pooled_accuracy,
            "fold_mean_accuracy": self.fold_mean_accuracy,
            "class_accuracy": {
                "mozart": self.class_accuracy(0),
                "haydn": self.class_accuracy(1),
            },
            "confusion": self.confusion,
            "folds": [
                {
                    "fold_id": f.fold_id,
                    "indices": list(f.indices),
                    "left_out": list(f.left_out),
                    "true_classes": list(f.true_classes),
                    "probabilities": list(f.probabilities),
                    "cutoff": f.cutoff,
                    "predicted": list(f.predicted),
                    "selected": list(f.selected),
                    "failed": f.failed,
                    "error": f.error,
                }
                for f in self.folds
            ],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "CVResult":
        folds = tuple(
            FoldRecord(
                fold_id=f["fold_id"],
                indices=tuple(f["indices"]),
                left_out=tuple(f["left_out"]),
                true_classes=tuple(f["true_classes"]),
                probabilities=tuple(float(p) for p in f["probabilities"]),
                cutoff=float(f["cutoff"]),
                predicted=tuple(f["predicted"]),
                selected=tuple(f["selected"]),
                failed=f.get("failed", False),
                error=f.get("error", ""),
            )
            for f in payload["folds"]
        )
        return cls(scheme=payload["scheme"], config=payload.get("config", {}), folds=folds)


class _FoldSpec(NamedTuple):
    fold_id: str
    indices: tuple[int, ...]


def _make_folds(matrix: FeatureMatrix, scheme: Scheme) -> list[_FoldSpec]:
    if scheme == Scheme.LOO:
        return [
            _FoldSpec(meta.source_path or f"row{i}", (i,))
            for i, meta in enumerate(matrix.rows)
        ]
    groups: dict[tuple[int, str], list[int]] = {}
    for i, meta in enumerate(matrix.rows):
        if not meta.quartet_id:
            raise ConfigurationError(
                "leave-one-quartet-out needs a quartet_id for every movement"
            )
        groups.setdefault((int(meta.composer), meta.quartet_id), []).append(i)
    return [
        _FoldSpec(quartet_id, tuple(idx)) for (_, quartet_id), idx in groups.items()
    ]


def _scope_matrix(matrix: FeatureMatrix, scope: FeatureScope) -> FeatureMatrix:
    if scope == FeatureScope.REDUCED:
        return matrix.select_columns(matrix.category_indices(REDUCED_CATEGORIES))
    return matrix


def _fold_seed(seed: int, fold_index: int) -> int:
    return int(np.random.SeedSequence([seed, fold_index]).generate_state(1)[0])


def _apply_fold_thresholds(
    matrix: FeatureMatrix,
    pool: DevelopmentSdPool,
    train_idx: Sequence[int],
    reading: str = "prose",
) -> FeatureMatrix:
    """Replace development count columns with training-fold thresholds."""
    thresholds = pool.thresholds(rows=train_idx, reading=reading)
    block = pool.count_columns(thresholds)
    labels = pool.count_labels()
    values = matrix.values.copy()
    present = {lbl: j for j, lbl in enumerate(matrix.labels)}
    for bcol, lbl in enumerate(labels):
        j = present.get(lbl)
        if j is not None:
            values[:, j] = block[:, bcol]
    return FeatureMatrix(rows=matrix.rows, columns=matrix.columns, values=values)


def _run_fold(matrix, y, config, pool, reading, fold, fold_index) -> FoldRecord:
    held_out = set(fold.indices)
    train_idx = [i for i in range(matrix.n) if i not in held_out]
    test_idx = list(fold.indices)
    train_paths = {matrix.rows[i].source_path for i in train_idx}
    test_paths = {matrix.rows[i].source_path for i in test_idx}
    if train_paths & test_paths:
        raise AssertionError(f"fold {fold.fold_id}: train/test rows overlap")
    shared = dict(
        fold_id=fold.fold_id,
        indices=tuple(test_idx),
        left_out=tuple(matrix.rows[i].source_path for i in test_idx),
        true_classes=tuple(int(y[i]) for i in test_idx),
    )

    try:
        fm = matrix
        if config.leakage_audit:
            fm = _apply_fold_thresholds(fm, pool, train_idx, reading)
        if config.filter_mode == "per-fold":
            train_fm = near_zero_variance_filter(fm.select_rows(train_idx))
            kept = [fm.column_index(lbl) for lbl in train_fm.labels]
        else:
            train_fm = fm.select_rows(train_idx)
            kept = list(range(fm.p))
        y_train = y[train_idx]
        result = selection.icm_select(
            train_fm,
            y_train,
            prior=config.prior,
            restarts=config.restarts,
            seed=_fold_seed(config.seed, fold_index),
            bic_form=config.bic_form,
        )
        model = result.model
        sel_cols_local = [train_fm.column_index(lbl) for lbl in result.selected]
        train_X = train_fm.values[:, sel_cols_local]
        sel_cols_global = [kept[j] for j in sel_cols_local]
        test_X = fm.values[np.ix_(test_idx, sel_cols_global)]

        if config.cutoff_policy == CutoffPolicy.TUNED:
            cutoff = tune_cutoff(glm.predict_prob(model, train_X), y_train, config.grid)
        else:
            cutoff = 0.5
        probs = glm.predict_prob(model, test_X)
        predicted = (probs > cutoff).astype(int)
        return FoldRecord(
            **shared,
            probabilities=tuple(float(p) for p in probs),
            cutoff=float(cutoff),
            predicted=tuple(int(p) for p in predicted),
            selected=result.selected,
        )
    except (ValueError, ArithmeticError) as exc:  # numerical or data failure: misclassified
        logger.warning("fold %s failed: %s: %s", fold.fold_id, type(exc).__name__, exc)
        return FoldRecord(
            **shared,
            probabilities=tuple(float("nan") for _ in test_idx),
            cutoff=float("nan"),
            predicted=tuple(1 - t for t in shared["true_classes"]),
            selected=(),
            failed=True,
            error=f"{type(exc).__name__}: {exc}",
        )


#: What every fold of a parallel run shares, set once in each worker process.
_worker_shared: tuple | None = None


def _init_worker(*shared) -> None:
    global _worker_shared
    _worker_shared = shared


def _run_worker_fold(task) -> FoldRecord:
    return _run_fold(*_worker_shared, *task)


def run_cv(
    matrix: FeatureMatrix,
    config: CVConfig,
    development_pool: DevelopmentSdPool | None = None,
    threshold_reading: str = "prose",
) -> CVResult:
    """Cross-validate the full selection-plus-fit pipeline.

    Every training fold runs feature selection, fits the selected model,
    chooses its cutoff and predicts the held-out movement(s).  With
    filter_mode="per-fold" the near-zero-variance filter is recomputed
    inside each training fold; "global" filters once up front.  A fold
    that fails with a numerical or data error (ValueError or
    ArithmeticError) is recorded as misclassified; any other exception is
    a programming error and propagates.  A leakage audit without its
    development pool raises ``ConfigurationError`` before any fold.
    """
    if config.leakage_audit and development_pool is None:
        raise ConfigurationError("leakage_audit requires the development sd pool")
    y = np.array([int(meta.composer) for meta in matrix.rows])
    scoped = _scope_matrix(matrix, config.feature_scope)
    if config.filter_mode == "global":
        scoped = near_zero_variance_filter(scoped)
    folds = _make_folds(scoped, config.scheme)
    shared = (scoped, y, config, development_pool, threshold_reading)
    tasks = [(fold, fi) for fi, fold in enumerate(folds)]
    if config.n_jobs > 1:
        # the matrix and the pool go to each worker once, not with every fold
        with ProcessPoolExecutor(
            max_workers=config.n_jobs, initializer=_init_worker, initargs=shared
        ) as pool_exec:
            records = list(pool_exec.map(_run_worker_fold, tasks))
    else:
        records = [_run_fold(*shared, *task) for task in tasks]
    return CVResult(
        scheme=config.scheme.value, config=config.to_json(), folds=tuple(records)
    )


# ---------------------------------------------------------------------------
# Stability and comparison reports
# ---------------------------------------------------------------------------


class StabilityEntry(NamedTuple):
    feature: str
    category: str
    count: int


def selection_stability(result: CVResult) -> list[StabilityEntry]:
    """How many folds selected each feature, most frequent first."""
    counts: dict[str, int] = {}
    for f in result.folds:
        for lbl in f.selected:
            counts[lbl] = counts.get(lbl, 0) + 1

    def category_of(lbl: str) -> str:
        try:
            return parse_label(lbl).category
        except ValueError:
            return ""

    entries = [
        StabilityEntry(feature=lbl, category=category_of(lbl), count=c)
        for lbl, c in counts.items()
    ]
    entries.sort(key=lambda e: (-e.count, e.feature))
    return entries


@dataclass
class AgreementReport:
    n: int
    prob_less_pct: float
    prob_equal_pct: float
    prob_greater_pct: float
    class_less_pct: float
    class_equal_pct: float
    class_greater_pct: float
    by_composer: dict
    accuracy_a: float
    accuracy_b: float

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "probability": {
                "less_pct": self.prob_less_pct,
                "equal_pct": self.prob_equal_pct,
                "greater_pct": self.prob_greater_pct,
            },
            "class": {
                "less_pct": self.class_less_pct,
                "equal_pct": self.class_equal_pct,
                "greater_pct": self.class_greater_pct,
            },
            "by_composer": self.by_composer,
            "accuracy_a": self.accuracy_a,
            "accuracy_b": self.accuracy_b,
        }


def compare_runs(a: CVResult, b: CVResult) -> AgreementReport:
    """Per-movement agreement between two runs on the same movements.

    Probabilities are rounded to the nearest hundredth before the equality
    comparison.  Rows with an unavailable probability (failed folds) drop
    out of all three probability buckets.
    """
    rows_a = {path: (true, prob, pred) for _, path, true, prob, pred, _ in a.iter_movements()}
    rows_b = {path: (true, prob, pred) for _, path, true, prob, pred, _ in b.iter_movements()}
    if set(rows_a) != set(rows_b):
        raise MismatchedCorpora("the two runs cover different movement sets")
    paths = sorted(rows_a)
    n = len(paths)

    def pct(count: int, total: int) -> float:
        return 100.0 * count / total if total else float("nan")

    buckets = {"prob_less": 0, "prob_equal": 0, "prob_greater": 0}
    cls = {"less": 0, "equal": 0, "greater": 0}
    per_comp: dict[str, dict[str, int]] = {
        "mozart": {"n": 0, "prob_equal": 0, "class_equal": 0},
        "haydn": {"n": 0, "prob_equal": 0, "class_equal": 0},
    }
    for path in paths:
        true, pa, ca = rows_a[path]
        _, pb, cb = rows_b[path]
        ra, rb = round(pa, 2), round(pb, 2)
        if not (math.isnan(pa) or math.isnan(pb)):
            if ra < rb:
                buckets["prob_less"] += 1
            elif ra == rb:
                buckets["prob_equal"] += 1
            else:
                buckets["prob_greater"] += 1
        if ca < cb:
            cls["less"] += 1
        elif ca == cb:
            cls["equal"] += 1
        else:
            cls["greater"] += 1
        comp = "haydn" if true == 1 else "mozart"
        per_comp[comp]["n"] += 1
        if not (math.isnan(pa) or math.isnan(pb)) and ra == rb:
            per_comp[comp]["prob_equal"] += 1
        if ca == cb:
            per_comp[comp]["class_equal"] += 1

    by_composer = {
        comp: {
            "n": d["n"],
            "prob_equal_pct": pct(d["prob_equal"], d["n"]),
            "class_equal_pct": pct(d["class_equal"], d["n"]),
        }
        for comp, d in per_comp.items()
    }
    return AgreementReport(
        n=n,
        prob_less_pct=pct(buckets["prob_less"], n),
        prob_equal_pct=pct(buckets["prob_equal"], n),
        prob_greater_pct=pct(buckets["prob_greater"], n),
        class_less_pct=pct(cls["less"], n),
        class_equal_pct=pct(cls["equal"], n),
        class_greater_pct=pct(cls["greater"], n),
        by_composer=by_composer,
        accuracy_a=a.accuracy,
        accuracy_b=b.accuracy,
    )


# ---------------------------------------------------------------------------
# Full-data model and diagnostics
# ---------------------------------------------------------------------------


@dataclass
class FullModelReport:
    selection: SelectionResult
    table: list[dict]  # intercept row first, then one row per feature
    hosmer: list[tuple[int, float, float]]  # (groups, statistic, p_value)
    hosmer_median_p: float
    n: int
    config: dict

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "config": self.config,
            "selection": self.selection.to_json(),
            "table": self.table,
            "hosmer": [
                {"g": g, "statistic": s, "p_value": p} for g, s, p in self.hosmer
            ],
            "hosmer_median_p": self.hosmer_median_p,
        }


def fit_full_model(matrix: FeatureMatrix, config: CVConfig) -> FullModelReport:
    """Select and fit one model on all movements, with diagnostics.

    The bundle holds a coefficient table (estimates, standard errors, Wald
    p-values) and a Hosmer-Lemeshow sweep over the group counts 20..100
    that are feasible (g <= n and g > d + 1).
    """
    y = np.array([int(meta.composer) for meta in matrix.rows])
    scoped = near_zero_variance_filter(_scope_matrix(matrix, config.feature_scope))
    result = selection.icm_select(
        scoped,
        y,
        prior=config.prior,
        restarts=config.restarts,
        seed=config.seed,
        bic_form=config.bic_form,
    )
    model = result.model
    pvals = glm.wald_pvalues(model)
    table = [
        {
            "category": "",
            "feature": "(Intercept)",
            "estimate": model.intercept,
            "se": float(model.standard_errors[0]),
            "p_value": float(pvals[0]),
        }
    ]
    for j, lbl in enumerate(model.feature_names):
        table.append(
            {
                "category": parse_label(lbl).category,
                "feature": lbl,
                "estimate": float(model.coef[j]),
                "se": float(model.standard_errors[j + 1]),
                "p_value": float(pvals[j + 1]),
            }
        )

    cols = [scoped.column_index(lbl) for lbl in result.selected]
    probs = glm.predict_prob(model, scoped.values[:, cols])
    hosmer: list[tuple[int, float, float]] = []
    for g in range(20, 101):
        if g > matrix.n or g <= model.d + 1:
            continue
        res = glm.hosmer_lemeshow(probs, y, g)
        hosmer.append((g, res.statistic, res.p_value))
    median_p = float(np.median([p for _, _, p in hosmer])) if hosmer else float("nan")
    return FullModelReport(
        selection=result,
        table=table,
        hosmer=hosmer,
        hosmer_median_p=median_p,
        n=matrix.n,
        config=config.to_json(),
    )


# ---------------------------------------------------------------------------
# Tabular exports
# ---------------------------------------------------------------------------


def write_fold_csv(result: CVResult, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["fold_id", "source_path", "true_class", "probability", "cutoff", "predicted", "selected_features"]
        )
        for _, src, true, prob, pred, fold in result.iter_movements():
            writer.writerow(
                [
                    fold.fold_id,
                    src,
                    true,
                    "" if math.isnan(prob) else f"{prob:.12g}",
                    "" if math.isnan(fold.cutoff) else f"{fold.cutoff:.12g}",
                    pred,
                    ";".join(fold.selected),
                ]
            )


def write_probability_csv(result: CVResult, path) -> None:
    """Per-movement probabilities ordered by composer then corpus order,
    ready for probability-timeline charts."""
    rows = sorted(result.iter_movements(), key=lambda r: (r[2], r[0]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["order", "source_path", "composer", "probability", "predicted", "correct"])
        for order, (_, src, true, prob, pred, _) in enumerate(rows):
            writer.writerow(
                [
                    order,
                    src,
                    true,
                    "" if math.isnan(prob) else f"{prob:.12g}",
                    pred,
                    int(true == pred),
                ]
            )


def write_stability_csv(entries: list[StabilityEntry], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "category", "folds_selected"])
        for e in entries:
            writer.writerow([e.feature, e.category, e.count])
