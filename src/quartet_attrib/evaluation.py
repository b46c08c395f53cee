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
from .score import Composer
from .selection import SelectionResult

logger = logging.getLogger(__name__)


class ConfigurationError(ValueError):
    """The cross-validation configuration contradicts the data."""


class MismatchedCorpora(ValueError):
    """Two runs cover different movement sets and cannot be compared."""


#: Leave one movement out, or one quartet.
SCHEMES = ("loo", "loqo")
#: A constant 0.5 cutoff, or one grid-tuned on the training fold.
CUTOFF_POLICIES = ("fixed", "tuned")
#: Every feature, or the basic summary and interval features only.
FEATURE_SCOPES = ("full", "reduced")
REDUCED_CATEGORIES = ("basic", "interval")
#: Where the near-zero-variance filter runs: in each training fold, or once before the folds.
FILTER_MODES = ("per-fold", "global")
#: The cutoffs a tuned fold chooses from: 0, 0.01, ..., 1.
CUTOFF_GRID = tuple(round(i / 100, 2) for i in range(101))
#: The spellings of each CVConfig mode field.
MODES = {
    "scheme": SCHEMES,
    "cutoff_policy": CUTOFF_POLICIES,
    "feature_scope": FEATURE_SCOPES,
    "filter_mode": FILTER_MODES,
    "bic_form": tuple(glm.BIC_FORMS),
}


@dataclass(frozen=True)
class CVConfig:
    scheme: str = "loo"
    cutoff_policy: str = "fixed"
    feature_scope: str = "full"
    prior: PriorConfig = field(default_factory=PriorConfig)
    seed: int = 0
    restarts: int = 10
    filter_mode: str = "per-fold"
    bic_form: str = "paper"
    n_jobs: int = 1

    def __post_init__(self):
        for name, spellings in MODES.items():
            if getattr(self, name) not in spellings:
                raise ValueError(f"{name} must be one of {spellings}")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be at least 1")

    def to_json(self) -> dict:
        """Every field but ``n_jobs``, and the cutoff grid as ``grid``.

        ``n_jobs`` is left out because it does not change the results:
        runs with ``--jobs 1`` and ``--jobs N`` write the same bytes.
        """
        out = asdict(self)
        del out["n_jobs"]
        return {**out, "grid": list(CUTOFF_GRID)}


def tune_cutoff(train_probs, train_y) -> float:
    """The CUTOFF_GRID cutoff maximising training accuracy (class 1 when
    prob > cutoff).

    Ties prefer the cutoff closest to 0.5, then the smaller cutoff.
    """
    probs = np.asarray(train_probs, dtype=float)
    y = np.asarray(train_y, dtype=float)
    if len(probs) == 0:
        raise ValueError("cannot tune a cutoff on empty training data")
    correct = ((probs > np.asarray(CUTOFF_GRID)[:, None]).astype(float) == y).sum(axis=1)
    best = correct.max()
    candidates = [c for c, k in zip(CUTOFF_GRID, correct) if k == best]
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
        folds = []
        for f in payload["folds"]:
            record = {k: tuple(v) if isinstance(v, list) else v for k, v in f.items() if k in names}
            record["probabilities"] = tuple(map(json_float, record["probabilities"]))
            record["cutoff"] = json_float(record["cutoff"])
            folds.append(FoldRecord(**record))
        return cls(scheme=payload["scheme"], config=payload.get("config", {}), folds=tuple(folds))


def json_float(value) -> float:
    """A number read from JSON output, where NaN is written as null."""
    return float("nan") if value is None else value


def require_keys(payload, keys: Sequence[str], what: str) -> None:
    """Raise ValueError naming the keys that payload, read from JSON, lacks."""
    missing = [k for k in keys if k not in payload] if isinstance(payload, dict) else keys
    if missing:
        raise ValueError(f"not {what} (missing keys: {', '.join(missing)})")


class _FoldSpec(NamedTuple):
    fold_id: str
    indices: tuple[int, ...]


def _movement_id(path: str, row: int) -> str:
    """A movement's source path, or ``row{row}`` when it has none: its LOO
    fold id."""
    return path or f"row{row}"


def _make_folds(matrix: FeatureMatrix, scheme: str) -> list[_FoldSpec]:
    if scheme == "loo":
        return [
            _FoldSpec(_movement_id(meta.source_path, i), (i,))
            for i, meta in enumerate(matrix.rows)
        ]
    groups: dict[tuple[Composer, str], list[int]] = {}
    for i, meta in enumerate(matrix.rows):
        if not meta.quartet_id:
            raise ConfigurationError(
                "leave-one-quartet-out needs a quartet_id for every movement"
            )
        groups.setdefault((Composer(int(meta.composer)), meta.quartet_id), []).append(i)
    # a quartet id both composers use names its two folds by composer
    shared = {q for c, q in groups if (Composer(1 - c), q) in groups}
    return [
        _FoldSpec(f"{c.name.lower()}/{q}" if q in shared else q, tuple(idx))
        for (c, q), idx in groups.items()
    ]


def _scope_matrix(matrix: FeatureMatrix, scope: str) -> FeatureMatrix:
    if scope == "reduced":
        return matrix.select_columns(matrix.category_indices(REDUCED_CATEGORIES))
    return matrix


def _fold_seed(seed: int, fold_index: int) -> int:
    return int(np.random.SeedSequence([seed, fold_index]).generate_state(1)[0])


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
        if pool is not None:
            fm, _ = pool.counted(fm, train_idx)
        seed = _fold_seed(config.seed, fold_index)
        result, X = _select(fm, y, train_idx, config, seed, config.filter_mode == "global")
        model = result.model
        if config.cutoff_policy == "tuned":
            cutoff = tune_cutoff(glm.predict_prob(model, X[train_idx]), y[train_idx])
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
    except np.linalg.LinAlgError as exc:  # a numerical failure: misclassified
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
    whose linear algebra fails (``np.linalg.LinAlgError``) is recorded as
    misclassified; any other exception propagates.  Given
    ``development_pool``, the run is a leakage audit: each training fold
    recomputes the development counts from its own rows, with the
    thresholds read as the pool was built to read them, and the result's
    config records ``leakage_audit``.  A source path that two rows share,
    a pool whose movements are not the matrix rows in the same order, a
    matrix without rows and a training fold of fewer than two rows raise
    ``ConfigurationError`` before any fold.  Rows without a source path
    are told apart by index.  A parallel run starts at most one worker
    process per fold.
    """
    paths = tuple(meta.source_path for meta in matrix.rows)
    for path, count in Counter(filter(None, paths)).items():
        if count > 1:
            raise ConfigurationError(f"the matrix repeats the movement {path!r}")
    if development_pool is not None and development_pool.paths != paths:
        raise ConfigurationError(
            "the development pool's movements must be the matrix rows, in the same order"
        )
    folds = _make_folds(matrix, config.scheme)
    if not folds:
        raise ConfigurationError("the matrix has no rows, so there is no fold to run")
    for fold in folds:
        if matrix.n - len(fold.indices) < 2:
            raise ConfigurationError(
                f"fold {fold.fold_id!r} trains on {matrix.n - len(fold.indices)} of "
                f"{matrix.n} rows; every training fold needs at least two"
            )
    y = np.array([int(meta.composer) for meta in matrix.rows])
    scoped = _scope_matrix(matrix, config.feature_scope)
    if config.filter_mode == "global":
        scoped = near_zero_variance_filter(scoped)
    shared = (scoped, y, config, development_pool)
    tasks = [(fold, fi) for fi, fold in enumerate(folds)]
    workers = min(config.n_jobs, len(folds))
    if workers > 1:
        # the matrix and the pool go to each worker once, not with every fold
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=shared
        ) as pool_exec:
            records = list(pool_exec.map(_run_worker_fold, tasks))
    else:
        records = [_run_fold(*shared, *task) for task in tasks]
    recorded = {**config.to_json(), "leakage_audit": development_pool is not None}
    return CVResult(scheme=config.scheme, config=recorded, folds=tuple(records))


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


def _movement_rows(run: CVResult) -> dict:
    """(true, prob, pred) of each movement of run, by movement id."""
    rows = {}
    for idx, path, true, prob, pred, _ in run.iter_movements():
        key = _movement_id(path, idx)
        if key in rows:
            raise MismatchedCorpora(f"a run holds the movement {key!r} twice")
        rows[key] = (true, prob, pred)
    return rows


def compare_runs(a: CVResult, b: CVResult) -> AgreementReport:
    """Per-movement agreement between two runs on the same movements.

    Probabilities are rounded to the nearest hundredth before the equality
    comparison.  Rows with an unavailable probability (failed folds) drop
    out of all three probability buckets.  Movements are matched by id (see
    ``_movement_id``); a run that holds one twice raises MismatchedCorpora.
    """
    rows_a, rows_b = _movement_rows(a), _movement_rows(b)
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
    settings (scheme, cutoff, filter mode, jobs) go unread.

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
