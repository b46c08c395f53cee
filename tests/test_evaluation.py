import json
import math

import numpy as np
import pytest

import synth
from quartet_attrib import selection as selection_mod
from quartet_attrib.evaluation import (
    AgreementReport,
    CVConfig,
    CVResult,
    ConfigurationError,
    CutoffPolicy,
    FeatureScope,
    FoldRecord,
    MismatchedCorpora,
    Scheme,
    compare_runs,
    fit_full_model,
    run_cv,
    selection_stability,
    tune_cutoff,
    write_fold_csv,
    write_probability_csv,
)
from quartet_attrib.features import FeatureMatrix, FeatureName
from quartet_attrib.glm import PriorConfig
from quartet_attrib.score import Composer


def toy_matrix(rng, n=12, p=5, signal_scale=2.5, quartet_size=2, categories=None):
    """FeatureMatrix with one informative column (col 0) and noise.

    Movements are grouped into single-composer quartets of quartet_size.
    """
    y = np.array([(i // quartet_size) % 2 for i in range(n)])
    X = rng.normal(size=(n, p))
    X[:, 0] = (y * 2 - 1) * signal_scale + rng.normal(scale=0.4, size=n)
    rows = []
    for i in range(n):
        rows.append(
            synth.make_meta(
                path=f"mv{i}.krn",
                composer=Composer(y[i]),
                quartet=f"q{i // quartet_size}",
                movement=i % quartet_size + 1,
            )
        )
    categories = categories or ["basic"] * p
    cols = tuple(FeatureName(categories[j], f"col{j}") for j in range(p))
    return FeatureMatrix(rows=tuple(rows), columns=cols, values=X)


FAST = dict(restarts=2, prior=PriorConfig(scale_factor=0.6))


class TestTuneCutoff:
    def test_separated_returns_half(self):
        assert tune_cutoff([0.1, 0.9], [0, 1]) == 0.5

    def test_all_ones_prefers_half(self):
        assert tune_cutoff([0.7, 0.8, 0.95], [1, 1, 1]) == 0.5

    def test_all_ones_low_probs(self):
        # perfect accuracy needs cutoff below 0.2; nearest qualifying to 0.5
        assert tune_cutoff([0.2, 0.3, 0.9], [1, 1, 1]) == pytest.approx(0.19)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(20)
        grid = tuple(round(i / 100, 2) for i in range(101))
        for _ in range(20):
            probs = rng.random(100)
            y = (rng.random(100) < 0.5).astype(int)
            got = tune_cutoff(probs, y, grid)
            accs = {c: np.mean((probs > c).astype(int) == y) for c in grid}
            assert accs[got] == max(accs.values())

    def test_downward_tie_break(self):
        # cutoffs 0.4 and 0.6 equal accuracy and equidistant from 0.5
        probs = [0.45, 0.55]
        y = [1, 0]  # impossible: every cutoff gets exactly 1 of 2 right
        got = tune_cutoff(probs, y, (0.4, 0.6))
        assert got == 0.4


class TestRunCV:
    def test_loo_recovers_planted_signal(self):
        rng = np.random.default_rng(21)
        matrix = toy_matrix(rng, n=14, p=4)
        config = CVConfig(scheme=Scheme.LOO, seed=5, **FAST)
        result = run_cv(matrix, config)
        assert result.n == 14
        assert len(result.folds) == 14
        assert result.accuracy >= 0.85
        counts = {e.feature: e.count for e in selection_stability(result)}
        assert counts.get("basic|col0", 0) >= 12

    def test_fold_disjointness_and_coverage(self):
        rng = np.random.default_rng(22)
        matrix = toy_matrix(rng, n=10, p=3)
        result = run_cv(matrix, CVConfig(scheme=Scheme.LOO, seed=1, **FAST))
        seen = []
        for fold in result.folds:
            assert len(fold.left_out) == 1
            seen.extend(fold.left_out)
        assert sorted(seen) == sorted(m.source_path for m in matrix.rows)

    def test_loqo_groups_by_quartet(self):
        rng = np.random.default_rng(23)
        matrix = toy_matrix(rng, n=12, p=3, quartet_size=3)
        result = run_cv(matrix, CVConfig(scheme=Scheme.LOQO, seed=2, **FAST))
        assert len(result.folds) == 4
        assert all(len(f.left_out) == 3 for f in result.folds)
        # aggregate is the mean of per-fold accuracies, not pooled
        want = float(np.mean([f.accuracy for f in result.folds]))
        assert result.accuracy == want

    def test_loqo_requires_quartet_ids(self):
        rng = np.random.default_rng(24)
        matrix = toy_matrix(rng, n=6, p=3)
        rows = tuple(
            synth.make_meta(path=m.source_path, composer=m.composer, quartet="x", movement=1)
            for m in matrix.rows
        )
        # blank out quartet ids
        import dataclasses

        rows = tuple(dataclasses.replace(m, quartet_id="") for m in rows)
        bad = FeatureMatrix(rows=rows, columns=matrix.columns, values=matrix.values)
        with pytest.raises(ConfigurationError):
            run_cv(bad, CVConfig(scheme=Scheme.LOQO, **FAST))

    def test_determinism_byte_for_byte(self):
        rng = np.random.default_rng(25)
        matrix = toy_matrix(rng, n=10, p=4)
        config = CVConfig(scheme=Scheme.LOO, seed=9, cutoff_policy=CutoffPolicy.TUNED, **FAST)
        a = run_cv(matrix, config)
        b = run_cv(matrix, config)
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)

    def test_seed_changes_orderings(self):
        rng = np.random.default_rng(26)
        matrix = toy_matrix(rng, n=10, p=4)
        a = run_cv(matrix, CVConfig(scheme=Scheme.LOO, seed=1, **FAST))
        b = run_cv(matrix, CVConfig(scheme=Scheme.LOO, seed=2, **FAST))
        assert a.n == b.n  # results may or may not differ, but both complete

    def test_two_movement_corpus_degenerate_but_defined(self):
        rng = np.random.default_rng(27)
        matrix = toy_matrix(rng, n=2, p=2)
        config = CVConfig(scheme=Scheme.LOO, filter_mode="global", **FAST)
        result = run_cv(matrix, config)
        assert result.n == 2
        assert len(result.folds) == 2

    def test_failed_fold_counts_as_misclassified(self, monkeypatch):
        rng = np.random.default_rng(28)
        matrix = toy_matrix(rng, n=8, p=3)
        real = selection_mod.icm_select
        calls = {"i": 0}

        def flaky(*args, **kwargs):
            calls["i"] += 1
            if calls["i"] == 3:
                raise np.linalg.LinAlgError("synthetic failure")
            return real(*args, **kwargs)

        import quartet_attrib.evaluation as ev

        monkeypatch.setattr(ev.selection, "icm_select", flaky)
        result = run_cv(matrix, CVConfig(scheme=Scheme.LOO, seed=3, **FAST))
        failed = [f for f in result.folds if f.failed]
        assert len(failed) == 1
        f = failed[0]
        assert f.predicted[0] == 1 - f.true_classes[0]
        assert math.isnan(f.probabilities[0])
        assert f.error == "LinAlgError: synthetic failure"

    def test_programming_error_in_a_fold_propagates(self, monkeypatch):
        rng = np.random.default_rng(28)
        matrix = toy_matrix(rng, n=8, p=3)

        def broken(*args, **kwargs):
            raise TypeError("synthetic bug")

        import quartet_attrib.evaluation as ev

        monkeypatch.setattr(ev.selection, "icm_select", broken)
        with pytest.raises(TypeError, match="synthetic bug"):
            run_cv(matrix, CVConfig(scheme=Scheme.LOO, seed=3, **FAST))

    def test_label_symmetry_with_flat_intercept_prior(self):
        rng = np.random.default_rng(29)
        matrix = toy_matrix(rng, n=12, p=3)
        flipped_rows = []
        import dataclasses

        for m in matrix.rows:
            flipped_rows.append(dataclasses.replace(m, composer=Composer(1 - int(m.composer))))
        flipped = FeatureMatrix(rows=tuple(flipped_rows), columns=matrix.columns, values=matrix.values)
        prior = PriorConfig(scale_factor=0.6, intercept_scale=1e6)
        config = CVConfig(scheme=Scheme.LOO, seed=4, restarts=2, prior=prior)
        a = run_cv(matrix, config)
        b = run_cv(flipped, config)
        for fa, fb in zip(a.folds, b.folds):
            assert fa.predicted[0] == 1 - fb.predicted[0]
            assert fa.probabilities[0] == pytest.approx(1 - fb.probabilities[0], abs=1e-9)

    def test_reduced_scope_drops_sonata_columns(self):
        rng = np.random.default_rng(30)
        cats = ["basic", "interval", "development", "recapitulation"]
        matrix = toy_matrix(rng, n=10, p=4, categories=cats)
        result = run_cv(
            matrix,
            CVConfig(scheme=Scheme.LOO, feature_scope=FeatureScope.REDUCED, seed=1, **FAST),
        )
        for fold in result.folds:
            for lbl in fold.selected:
                assert lbl.split("|")[0] in ("basic", "interval")

    def test_parallel_folds_match_serial(self):
        rng = np.random.default_rng(31)
        matrix = toy_matrix(rng, n=8, p=3)
        base = CVConfig(scheme=Scheme.LOO, seed=6, **FAST)
        import dataclasses

        par = dataclasses.replace(base, n_jobs=2)
        a = run_cv(matrix, base)
        b = run_cv(matrix, par)
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)


class TestAggregates:
    def _result(self):
        folds = (
            FoldRecord("a", (0, 1), ("p0", "p1"), (0, 1), (0.2, 0.9), 0.5, (0, 1), ("basic|f1",)),
            FoldRecord("b", (2, 3), ("p2", "p3"), (0, 1), (0.8, 0.4), 0.5, (1, 0), ("basic|f1", "interval|f2",)),
        )
        return CVResult(scheme="loqo", config={}, folds=folds)

    def test_loqo_mean_vs_pooled(self):
        r = self._result()
        assert r.pooled_accuracy == 0.5
        assert r.fold_mean_accuracy == 0.5
        assert r.accuracy == 0.5
        folds = (
            FoldRecord("a", (0,), ("p0",), (0,), (0.2,), 0.5, (0,), ()),
            FoldRecord("b", (1, 2, 3), ("p1", "p2", "p3"), (1, 1, 1), (0.9, 0.2, 0.1), 0.5, (1, 0, 0), ()),
        )
        r2 = CVResult(scheme="loqo", config={}, folds=folds)
        assert r2.pooled_accuracy == 0.5
        assert r2.accuracy == pytest.approx((1.0 + 1 / 3) / 2)

    def test_confusion_sums_to_n(self):
        r = self._result()
        cm = r.confusion
        assert sum(sum(row) for row in cm) == r.n
        assert cm == [[1, 1], [1, 1]]

    def test_json_round_trip(self):
        r = self._result()
        back = CVResult.from_json(r.to_json())
        assert back.folds == r.folds
        assert back.accuracy == r.accuracy

    def test_stability_counts(self):
        r = self._result()
        entries = selection_stability(r)
        got = {(e.feature, e.category, e.count) for e in entries}
        assert got == {("basic|f1", "basic", 2), ("interval|f2", "interval", 1)}


class TestCompareRuns:
    def test_identical_runs(self):
        rng = np.random.default_rng(32)
        matrix = toy_matrix(rng, n=8, p=3)
        result = run_cv(matrix, CVConfig(scheme=Scheme.LOO, seed=7, **FAST))
        rep = compare_runs(result, result)
        assert rep.prob_equal_pct == 100.0
        assert rep.class_equal_pct == 100.0

    def test_hand_built_percentages(self):
        folds_a = (
            FoldRecord("0", (0,), ("p0",), (0,), (0.20,), 0.5, (0,), ()),
            FoldRecord("1", (1,), ("p1",), (1,), (0.90,), 0.5, (1,), ()),
            FoldRecord("2", (2,), ("p2",), (1,), (0.40,), 0.5, (0,), ()),
            FoldRecord("3", (3,), ("p3",), (0,), (0.52,), 0.5, (1,), ()),
        )
        folds_b = (
            FoldRecord("0", (0,), ("p0",), (0,), (0.20,), 0.5, (0,), ()),
            FoldRecord("1", (1,), ("p1",), (1,), (0.80,), 0.5, (1,), ()),
            FoldRecord("2", (2,), ("p2",), (1,), (0.60,), 0.5, (1,), ()),
            FoldRecord("3", (3,), ("p3",), (0,), (0.40,), 0.5, (0,), ()),
        )
        a = CVResult(scheme="loo", config={}, folds=folds_a)
        b = CVResult(scheme="loo", config={}, folds=folds_b)
        rep = compare_runs(a, b)
        assert rep.prob_equal_pct == 25.0
        assert rep.prob_less_pct == 25.0
        assert rep.prob_greater_pct == 50.0
        assert rep.class_equal_pct == 50.0
        assert rep.class_less_pct == 25.0
        assert rep.class_greater_pct == 25.0
        assert rep.by_composer["mozart"]["class_equal_pct"] == 50.0

    def test_mismatched_corpora(self):
        f1 = (FoldRecord("0", (0,), ("p0",), (0,), (0.2,), 0.5, (0,), ()),)
        f2 = (FoldRecord("0", (0,), ("px",), (0,), (0.2,), 0.5, (0,), ()),)
        with pytest.raises(MismatchedCorpora):
            compare_runs(
                CVResult(scheme="loo", config={}, folds=f1),
                CVResult(scheme="loo", config={}, folds=f2),
            )


class TestFullModel:
    def test_planted_feature_selected_with_sign(self):
        rng = np.random.default_rng(33)
        matrix = toy_matrix(rng, n=60, p=5)
        config = CVConfig(seed=8, restarts=4, prior=PriorConfig(scale_factor=0.6))
        report = fit_full_model(matrix, config)
        assert "basic|col0" in report.selection.selected
        row = [r for r in report.table if r["feature"] == "basic|col0"][0]
        assert row["estimate"] > 0  # col0 rises with the class-1 label
        assert row["p_value"] < 0.05

    def test_hosmer_sweep_bounds(self):
        rng = np.random.default_rng(34)
        matrix = toy_matrix(rng, n=60, p=4)
        config = CVConfig(seed=9, restarts=3, prior=PriorConfig(scale_factor=0.6))
        report = fit_full_model(matrix, config)
        gs = [g for g, _, _ in report.hosmer]
        assert gs and max(gs) <= 60 and min(gs) >= 20
        assert not math.isnan(report.hosmer_median_p)

    def test_intercept_row_first(self):
        rng = np.random.default_rng(35)
        matrix = toy_matrix(rng, n=40, p=3)
        report = fit_full_model(matrix, CVConfig(seed=1, restarts=2, prior=PriorConfig(0.6)))
        assert report.table[0]["feature"] == "(Intercept)"
        payload = report.to_json()
        assert payload["n"] == 40


class TestCsvWriters:
    def test_fold_and_probability_csv(self, tmp_path):
        rng = np.random.default_rng(36)
        matrix = toy_matrix(rng, n=6, p=3)
        result = run_cv(matrix, CVConfig(scheme=Scheme.LOO, seed=2, **FAST))
        write_fold_csv(result, tmp_path / "folds.csv")
        write_probability_csv(result, tmp_path / "probs.csv")
        folds = (tmp_path / "folds.csv").read_text().strip().splitlines()
        assert len(folds) == 7
        probs = (tmp_path / "probs.csv").read_text().strip().splitlines()
        assert probs[0].startswith("order,")
        assert len(probs) == 7


def test_cv_config_validation():
    with pytest.raises(ValueError):
        CVConfig(grid=(0.5, 0.2))
    with pytest.raises(ValueError):
        CVConfig(filter_mode="sometimes")
    with pytest.raises(ValueError, match="grid must not be empty"):
        CVConfig(grid=())
    with pytest.raises(ValueError, match="restarts"):
        CVConfig(restarts=0)
    with pytest.raises(ValueError, match="bic_form must be one of"):
        CVConfig(bic_form="aic")


class TestLeakageAudit:
    def _corpus_matrix(self, rng, n=8):
        movements = [
            synth.random_movement(
                rng,
                n_notes=(25, 40),
                meta=synth.make_meta(
                    path=f"lk{i}.krn",
                    composer=Composer((i // 2) % 2),
                    quartet=f"q{i // 2}",
                    movement=i % 2 + 1,
                ),
            )
            for i in range(n)
        ]
        from quartet_attrib.features import SegmentConfig, extract_all

        matrix, pool, _ = extract_all(movements, SegmentConfig(lengths=(8, 10)))
        return matrix, pool

    def test_fold_thresholds_replace_count_columns(self):
        rng = np.random.default_rng(40)
        matrix, pool = self._corpus_matrix(rng)
        from quartet_attrib.evaluation import _apply_fold_thresholds

        train_idx = list(range(1, matrix.n))
        adjusted = _apply_fold_thresholds(matrix, pool, train_idx)
        fold_thr = pool.thresholds(rows=train_idx)
        block = pool.count_columns(fold_thr)
        labels = pool.count_labels()
        for bcol, lbl in enumerate(labels):
            j = matrix.column_index(lbl)
            got = adjusted.values[:, j]
            want = block[:, bcol]
            nan = np.isnan(got) & np.isnan(want)
            assert np.array_equal(got[~nan], want[~nan])
        # non-count columns untouched
        j = matrix.column_index("basic|note_count|Violin1")
        assert np.array_equal(adjusted.values[:, j], matrix.values[:, j])

    def test_run_cv_with_leakage_audit(self):
        rng = np.random.default_rng(41)
        matrix, pool = self._corpus_matrix(rng)
        config = CVConfig(scheme=Scheme.LOO, seed=1, restarts=2,
                          prior=PriorConfig(scale_factor=0.6), leakage_audit=True)
        result = run_cv(matrix, config, development_pool=pool)
        assert result.n == matrix.n
        assert not any(f.failed for f in result.folds)

    def test_parallel_leakage_audit_matches_serial(self):
        rng = np.random.default_rng(41)
        matrix, pool = self._corpus_matrix(rng)
        config = CVConfig(scheme=Scheme.LOO, seed=1, restarts=2,
                          prior=PriorConfig(scale_factor=0.6), leakage_audit=True)
        import dataclasses

        a = run_cv(matrix, config, development_pool=pool)
        b = run_cv(matrix, dataclasses.replace(config, n_jobs=2), development_pool=pool)
        assert not any(f.failed for f in a.folds)
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)

    def test_leakage_audit_requires_pool(self):
        rng = np.random.default_rng(42)
        matrix, _ = self._corpus_matrix(rng)
        config = CVConfig(scheme=Scheme.LOO, seed=1, restarts=2,
                          prior=PriorConfig(scale_factor=0.6), leakage_audit=True)
        with pytest.raises(ConfigurationError, match="development sd pool"):
            run_cv(matrix, config, development_pool=None)


class TestTunedCutoffEdge:
    def test_tuned_cutoff_with_empty_selection(self):
        # pure-noise features: selections come back empty, tuning still works
        rng = np.random.default_rng(43)
        matrix = toy_matrix(rng, n=8, p=3, signal_scale=0.0)
        config = CVConfig(scheme=Scheme.LOO, seed=2, restarts=2,
                          cutoff_policy=CutoffPolicy.TUNED,
                          prior=PriorConfig(scale_factor=0.6))
        result = run_cv(matrix, config)
        assert result.n == 8
        assert not any(f.failed for f in result.folds)
