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
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields
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
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be at least 1")
        if self.bic_form not in glm.BIC_FORMS:
            raise ValueError(f"bic_form must be one of {tuple(glm.BIC_FORMS)}")

    def to_json(self) -> dict:
        """Every field but ``n_jobs``, each enum as its value.

        ``n_jobs`` is left out because it does not change the results:
        runs with ``--jobs 1`` and ``--jobs N`` write the same bytes.
        """
        return {
            k: v.value if isinstance(v, Enum) else v
            for k, v in asdict(self).items()
            if k != "n_jobs"
        }


def tune_cutoff(train_probs, train_y, grid: Sequence[float] = DEFAULT_GRID) -> float:
    """Grid cutoff maximising training accuracy (class 1 when prob > cutoff).

    Ties prefer the cutoff closest to 0.5, then the smaller cutoff.
    """
    probs = np.asarray(train_probs, dtype=float)
    y = np.asarray(train_y, dtype=float)
    if len(probs) == 0:
        raise ValueError("cannot tune a cutoff on empty training data")
    correct = ((probs > np.asarray(grid, dtype=float)[:, None]).astype(float) == y).sum(axis=1)
    best = correct.max()
    candidates = [c for c, k in zip(grid, correct) if k == best]
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
        cm = self.confusion
        return (cm[0][0] + cm[1][1]) / self.n

    @property
    def fold_mean_accuracy(self) -> float:
        return float(np.mean([f.accuracy for f in self.folds]))

    @property
    def accuracy(self) -> float:
        """Mean per-fold accuracy.  A LOO fold holds one movement, so for LOO
        this is the pooled proportion correct, bit for bit: both divide the
        same integer count by n once."""
        return self.fold_mean_accuracy

    def class_accuracy(self, cls: int) -> float:
        row = self.confusion[cls]
        return row[cls] / sum(row) if sum(row) else float("nan")

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
            "folds": [asdict(f) for f in self.folds],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "CVResult":
        """Read ``to_json`` output.  A fold's keys that are not FoldRecord
        fields are ignored, and missing ``failed``/``error`` take their
        defaults; any other missing key is a ValueError."""
        require_keys(payload, ("scheme", "folds"), "a CV result")
        required = [f.name for f in fields(FoldRecord) if f.default is MISSING]
        for f in payload["folds"]:
            require_keys(f, required, "a CV fold record")
        names = {f.name for f in fields(FoldRecord)}
        folds = tuple(
            FoldRecord(
                **{k: tuple(v) if isinstance(v, list) else v for k, v in f.items() if k in names}
            )
            for f in payload["folds"]
        )
        return cls(scheme=payload["scheme"], config=payload.get("config", {}), folds=folds)


def require_keys(payload, keys: Sequence[str], what: str) -> None:
    """Raise ValueError naming the keys that payload, read from JSON, lacks."""
    missing = [k for k in keys if k not in payload] if isinstance(payload, dict) else keys
    if missing:
        raise ValueError(f"not {what} (missing keys: {', '.join(missing)})")


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
) -> FeatureMatrix:
    """Replace development count columns with training-fold thresholds."""
    thresholds = pool.thresholds(rows=train_idx)
    block = pool.count_columns(thresholds)
    labels = pool.count_labels()
    values = matrix.values.copy()
    present = {lbl: j for j, lbl in enumerate(matrix.labels)}
    for bcol, lbl in enumerate(labels):
        j = present.get(lbl)
        if j is not None:
            values[:, j] = block[:, bcol]
    return FeatureMatrix(rows=matrix.rows, columns=matrix.columns, values=values)


def _select(fm: FeatureMatrix, y, rows, config: CVConfig, seed: int, filtered: bool):
    """Select a subset on ``rows`` of ``fm`` (variance-filtered first unless
    ``filtered``); return the selection and its columns over all rows of ``fm``."""
    train = fm.select_rows(rows)
    if not filtered:
        train = near_zero_variance_filter(train)
    result = selection.icm_select(
        train,
        y[rows],
        prior=config.prior,
        restarts=config.restarts,
        seed=seed,
        bic_form=config.bic_form,
    )
    return result, fm.values[:, [fm.column_index(lbl) for lbl in result.selected]]


def _run_fold(matrix, y, config, pool, fold, fold_index) -> FoldRecord:
    held_out = set(fold.indices)
    train_idx = [i for i in range(matrix.n) if i not in held_out]
    test_idx = list(fold.indices)
    shared = dict(
        fold_id=fold.fold_id,
        indices=tuple(test_idx),
        left_out=tuple(matrix.rows[i].source_path for i in test_idx),
        true_classes=tuple(int(y[i]) for i in test_idx),
    )

    try:
        fm = matrix
        if config.leakage_audit:
            fm = _apply_fold_thresholds(fm, pool, train_idx)
        seed = _fold_seed(config.seed, fold_index)
        result, X = _select(fm, y, train_idx, config, seed, config.filter_mode == "global")
        model = result.model
        if config.cutoff_policy == CutoffPolicy.TUNED:
            cutoff = tune_cutoff(glm.predict_prob(model, X[train_idx]), y[train_idx], config.grid)
        else:
            cutoff = 0.5
        probs = glm.predict_prob(model, X[test_idx])
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
) -> CVResult:
    """Cross-validate the full selection-plus-fit pipeline.

    Every training fold runs feature selection, fits the selected model,
    chooses its cutoff and predicts the held-out movement(s).  With
    filter_mode="per-fold" the near-zero-variance filter is recomputed
    inside each training fold; "global" filters once up front.  A fold
    that fails with a numerical or data error (ValueError or
    ArithmeticError) is recorded as misclassified; any other exception is
    a programming error and propagates.  A leakage audit recomputes the
    development counts on each training fold, with the thresholds read as
    the pool was built to read them; without its pool it raises
    ``ConfigurationError`` before any fold, as does a source path that
    two rows share.  Rows without a source path are told apart by index.
    """
    if config.leakage_audit and development_pool is None:
        raise ConfigurationError("leakage_audit requires the development sd pool")
    paths = Counter(meta.source_path for meta in matrix.rows if meta.source_path)
    for path, count in paths.items():
        if count > 1:
            raise ConfigurationError(f"the matrix repeats the movement {path!r}")
    y = np.array([int(meta.composer) for meta in matrix.rows])
    scoped = _scope_matrix(matrix, config.feature_scope)
    if config.filter_mode == "global":
        scoped = near_zero_variance_filter(scoped)
    folds = _make_folds(scoped, config.scheme)
    shared = (scoped, y, config, development_pool)
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
    probability: dict  # less_pct / equal_pct / greater_pct of rounded probabilities
    class_: dict  # the same for predicted classes; written as "class"
    by_composer: dict
    accuracy_a: float
    accuracy_b: float

    def to_json(self) -> dict:
        out = asdict(self)
        out["class"] = out.pop("class_")
        return out


def _side(a, b) -> str:
    return "less" if a < b else "equal" if a == b else "greater"


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

    prob, cls = Counter(), Counter()  # less / equal / greater
    per_comp = Counter()  # (composer, "n" / "prob_equal" / "class_equal")
    for path in paths:
        true, pa, ca = rows_a[path]
        _, pb, cb = rows_b[path]
        comp = "haydn" if true == 1 else "mozart"
        per_comp[comp, "n"] += 1
        if not (math.isnan(pa) or math.isnan(pb)):
            side = _side(round(pa, 2), round(pb, 2))
            prob[side] += 1
            per_comp[comp, "prob_equal"] += side == "equal"
        side = _side(ca, cb)
        cls[side] += 1
        per_comp[comp, "class_equal"] += side == "equal"

    by_composer = {
        comp: {
            "n": per_comp[comp, "n"],
            "prob_equal_pct": pct(per_comp[comp, "prob_equal"], per_comp[comp, "n"]),
            "class_equal_pct": pct(per_comp[comp, "class_equal"], per_comp[comp, "n"]),
        }
        for comp in ("mozart", "haydn")
    }
    probability, class_ = {}, {}
    for side in ("less", "equal", "greater"):
        probability[f"{side}_pct"] = pct(prob[side], n)
        class_[f"{side}_pct"] = pct(cls[side], n)
    return AgreementReport(
        n=n,
        probability=probability,
        class_=class_,
        by_composer=by_composer,
        accuracy_a=a.accuracy,
        accuracy_b=b.accuracy,
    )


# ---------------------------------------------------------------------------
# Full-data model and diagnostics
# ---------------------------------------------------------------------------


#: The CVConfig fields that fit_full_model reads, and all that a fit records.
FIT_FIELDS = ("feature_scope", "prior", "seed", "restarts", "bic_form")


@dataclass
class FullModelReport:
    selection: SelectionResult
    table: list[dict]  # intercept row first, then one row per feature
    hosmer: list[dict]  # one {"g", "statistic", "p_value"} per group count
    hosmer_median_p: float
    n: int
    config: dict

    def to_json(self) -> dict:
        return {**asdict(self), "selection": self.selection.to_json()}


def fit_full_model(matrix: FeatureMatrix, config: CVConfig) -> FullModelReport:
    """Select and fit one model on all movements, with diagnostics.

    A CV fold's select step run on all rows: the variance filter runs once,
    as both filter modes keep the same columns on all rows, and the CV-only
    settings (scheme, cutoff, filter mode, leakage audit, jobs) go unread.

    The bundle holds a coefficient table (estimates, standard errors, Wald
    p-values) and a Hosmer-Lemeshow sweep over the group counts 20..100
    that are feasible (g <= n and g > d + 1).
    """
    y = np.array([int(meta.composer) for meta in matrix.rows])
    scoped = _scope_matrix(matrix, config.feature_scope)
    result, X = _select(scoped, y, range(matrix.n), config, config.seed, filtered=False)
    model = result.model
    pvals = glm.wald_pvalues(model)
    names = ("(Intercept)", *model.feature_names)
    estimates = (model.intercept, *model.coef)
    table = [
        {
            "category": parse_label(lbl).category if j else "",
            "feature": lbl,
            "estimate": float(est),
            "se": float(se),
            "p_value": float(p),
        }
        for j, (lbl, est, se, p) in enumerate(zip(names, estimates, model.standard_errors, pvals))
    ]
    probs = glm.predict_prob(model, X)
    hosmer = [
        {"g": g, **glm.hosmer_lemeshow(probs, y, g)._asdict()}
        for g in range(20, 101)
        if model.d + 1 < g <= matrix.n
    ]
    median_p = float(np.median([h["p_value"] for h in hosmer])) if hosmer else float("nan")
    return FullModelReport(
        selection=result,
        table=table,
        hosmer=hosmer,
        hosmer_median_p=median_p,
        n=matrix.n,
        config={k: v for k, v in config.to_json().items() if k in FIT_FIELDS},
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
