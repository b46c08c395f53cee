import dataclasses
import json
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np
import pytest

import oracles
import synth
from quartet_attrib import evaluation
from quartet_attrib import selection as selection_mod
from quartet_attrib.evaluation import (
    CUTOFF_GRID,
    AgreementReport,
    CVConfig,
    CVResult,
    ConfigurationError,
    CutoffPolicy,
    FeatureScope,
    FoldRecord,
    FullModelReport,
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
from quartet_attrib.features import (
    FeatureMatrix,
    FeatureName,
    SegmentConfig,
    build_development_pool,
    extract_all,
)
from quartet_attrib.glm import FeatureMisalignment, HosmerLemeshowResult, PriorConfig
from quartet_attrib.score import Composer, MovementMeta, movement_to_json


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
SEG = SegmentConfig(lengths=(8, 10))
NO_ROWS = "the matrix has no rows, so there is no fold to run"
TOO_FEW = "rows; every training fold needs at least two"


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
        for _ in range(20):
            probs = rng.random(100)
            y = (rng.random(100) < 0.5).astype(int)
            got = tune_cutoff(probs, y)
            assert got in CUTOFF_GRID
            accs = {c: np.mean((probs > c).astype(int) == y) for c in CUTOFF_GRID}
            assert accs[got] == max(accs.values())

    def test_the_grid_is_hundredths(self):
        assert CUTOFF_GRID == tuple(i / 100 for i in range(101))

    def test_downward_tie_break(self):
        # 1 of 2 right for every cutoff below 0.455 or from 0.545 on, 0 of 2
        # between: 0.45 and 0.55 tie, equidistant from 0.5, and 0.45 wins
        assert tune_cutoff([0.455, 0.545], [1, 0]) == 0.45


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

    def test_rows_without_source_paths_run(self):
        rng = np.random.default_rng(22)
        matrix = toy_matrix(rng, n=8, p=3)
        rows = tuple(dataclasses.replace(m, source_path="") for m in matrix.rows)
        blank = FeatureMatrix(rows=rows, columns=matrix.columns, values=matrix.values)
        result = run_cv(blank, CVConfig(scheme=Scheme.LOO, seed=1, **FAST))
        assert [f.fold_id for f in result.folds] == [f"row{i}" for i in range(8)]
        assert not any(f.failed for f in result.folds)

    def test_repeated_source_path_fails_before_any_fold(self, monkeypatch):
        rng = np.random.default_rng(22)
        matrix = toy_matrix(rng, n=8, p=3)
        rows = (*matrix.rows[:-1], dataclasses.replace(matrix.rows[-1], source_path="mv0.krn"))
        twice = FeatureMatrix(rows=rows, columns=matrix.columns, values=matrix.values)

        def no_fold(*args):
            raise AssertionError("a fold ran")

        import quartet_attrib.evaluation as ev

        monkeypatch.setattr(ev, "_run_fold", no_fold)
        with pytest.raises(ConfigurationError, match="repeats the movement 'mv0.krn'"):
            run_cv(twice, CVConfig(scheme=Scheme.LOO, **FAST))

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

    @pytest.mark.parametrize("filter_mode", ["per-fold", "global"])
    @pytest.mark.parametrize(
        "n, scheme, message",
        [
            (0, Scheme.LOO, NO_ROWS),
            (0, Scheme.LOQO, NO_ROWS),
            (1, Scheme.LOO, f"fold 'mv0.krn' trains on 0 of 1 {TOO_FEW}"),
            (2, Scheme.LOO, f"fold 'mv0.krn' trains on 1 of 2 {TOO_FEW}"),
            (3, Scheme.LOQO, f"fold 'q0' trains on 1 of 3 {TOO_FEW}"),
        ],
        ids=["empty-loo", "empty-loqo", "one-loo", "two-loo", "three-loqo"],
    )
    def test_training_fold_of_fewer_than_two_rows_fails_before_any_fold(
        self, monkeypatch, filter_mode, n, scheme, message
    ):
        matrix = toy_matrix(np.random.default_rng(27), n=n, p=2)

        def no_fold(*args, **kwargs):
            raise AssertionError("a fold ran")

        import quartet_attrib.evaluation as ev

        monkeypatch.setattr(ev.selection, "icm_select", no_fold)
        config = CVConfig(scheme=scheme, filter_mode=filter_mode, **FAST)
        with pytest.raises(ConfigurationError) as info:
            run_cv(matrix, config)
        assert str(info.value) == message

    @pytest.mark.parametrize("jobs, workers", [(1, None), (3, 3), (4, 4), (8, 4)])
    def test_no_more_workers_than_folds(self, monkeypatch, jobs, workers):
        """A 4-fold LOQO run starts min(jobs, 4) workers, and none at --jobs 1;
        the stand-in executor runs the folds inline, so no process starts."""
        import quartet_attrib.evaluation as ev

        started = []

        class Inline:
            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(ev, "ProcessPoolExecutor", Inline)
        monkeypatch.setattr(ev, "_worker_shared", None)
        matrix = toy_matrix(np.random.default_rng(29), n=8, p=3)
        config = CVConfig(scheme=Scheme.LOQO, seed=1, **FAST)
        serial = run_cv(matrix, config)
        assert started == []
        result = run_cv(matrix, dataclasses.replace(config, n_jobs=jobs))
        assert started == ([] if workers is None else [workers])
        assert result.to_json() == serial.to_json()

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

    @pytest.mark.parametrize("error", [TypeError, ValueError, FeatureMisalignment])
    def test_programming_error_in_a_fold_propagates(self, monkeypatch, error):
        # only a failed linear algebra step scores a fold as misclassified
        rng = np.random.default_rng(28)
        matrix = toy_matrix(rng, n=8, p=3)

        def broken(*args, **kwargs):
            raise error("synthetic bug")

        import quartet_attrib.evaluation as ev

        monkeypatch.setattr(ev.selection, "icm_select", broken)
        with pytest.raises(error, match="synthetic bug"):
            run_cv(matrix, CVConfig(scheme=Scheme.LOO, seed=3, **FAST))

    def test_label_symmetry_with_flat_intercept_prior(self):
        rng = np.random.default_rng(29)
        matrix = toy_matrix(rng, n=12, p=3)
        flipped_rows = []
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

    @pytest.mark.parametrize("n, correct", [(3, 2), (7, 5), (10, 7), (285, 241)])
    def test_loo_accuracy_is_the_pooled_proportion_bit_for_bit(self, n, correct):
        folds = tuple(
            FoldRecord(f"p{i}", (i,), (f"p{i}",), (i % 2,), (0.5,), 0.5,
                       (i % 2 if i < correct else 1 - i % 2,), ())
            for i in range(n)
        )
        r = CVResult(scheme="loo", config={}, folds=folds)
        assert r.pooled_accuracy == correct / n
        assert r.accuracy.hex() == r.pooled_accuracy.hex()

    def test_confusion_sums_to_n(self):
        r = self._result()
        cm = r.confusion
        assert sum(sum(row) for row in cm) == r.n
        assert cm == [[1, 1], [1, 1]]

    def test_json_round_trip(self):
        r = self._result()
        payload = json.loads(json.dumps(r.to_json()))
        back = CVResult.from_json(payload)
        assert back.folds == r.folds
        assert back.accuracy == r.accuracy
        old, extended = payload["folds"]
        del old["failed"], old["error"]  # written before folds could fail
        extended["fits"] = 12  # a key that is not a FoldRecord field
        assert CVResult.from_json(payload).folds == r.folds

    def test_json_without_required_keys_names_them(self):
        payload = json.loads(json.dumps(self._result().to_json()))
        with pytest.raises(ValueError, match=r"not a CV result \(missing keys: folds\)"):
            CVResult.from_json({k: v for k, v in payload.items() if k != "folds"})
        del payload["folds"][1]["cutoff"], payload["folds"][1]["selected"]
        with pytest.raises(ValueError, match=r"missing keys: cutoff, selected\)"):
            CVResult.from_json(payload)

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
        assert rep.probability["equal_pct"] == 100.0
        assert rep.class_["equal_pct"] == 100.0

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
        assert rep.probability["equal_pct"] == 25.0
        assert rep.probability["less_pct"] == 25.0
        assert rep.probability["greater_pct"] == 50.0
        assert rep.class_["equal_pct"] == 50.0
        assert rep.class_["less_pct"] == 25.0
        assert rep.class_["greater_pct"] == 25.0
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
        gs = [h["g"] for h in report.hosmer]
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


def test_json_keys_are_the_dataclass_fields():
    def names(cls):
        return {f.name for f in dataclasses.fields(cls)}

    rng = np.random.default_rng(46)
    matrix = toy_matrix(rng, n=8, p=3)
    config = CVConfig(scheme=Scheme.LOQO, cutoff_policy=CutoffPolicy.TUNED, n_jobs=2, **FAST)
    payload = config.to_json()
    assert payload.keys() == names(CVConfig) - {"n_jobs"} | {"grid"}
    assert payload["grid"] == list(CUTOFF_GRID)
    assert [type(payload[k]) for k in ("scheme", "cutoff_policy", "feature_scope")] == [str] * 3
    assert payload["scheme"] == "loqo" and payload["cutoff_policy"] == "tuned"
    result = run_cv(matrix, dataclasses.replace(config, n_jobs=1))
    assert result.config == {**payload, "leakage_audit": False}
    assert all(f.keys() == names(FoldRecord) for f in result.to_json()["folds"])

    y = np.array([int(meta.composer) for meta in matrix.rows])
    untraced = selection_mod.icm_select(matrix, y, restarts=1).to_json()
    assert untraced.keys() == names(selection_mod.SelectionResult) - {"trace"}
    traced = selection_mod.icm_select(matrix, y, restarts=1, trace=True)
    payload = traced.to_json()
    assert payload.keys() == names(selection_mod.SelectionResult)
    assert payload["model"] == traced.model.to_json()
    assert traced.trace and all(
        t.keys() == names(selection_mod.TraceEntry) for t in payload["trace"]
    )

    agreement = compare_runs(result, result).to_json()
    assert agreement.keys() == names(AgreementReport) - {"class_"} | {"class"}
    sides = {"less_pct", "equal_pct", "greater_pct"}
    assert agreement["probability"].keys() == agreement["class"].keys() == sides

    report = fit_full_model(toy_matrix(rng, n=24, p=3), CVConfig(**FAST))
    payload = report.to_json()
    assert payload.keys() == names(FullModelReport)
    assert payload["selection"] == report.selection.to_json()
    assert payload["hosmer"] and all(
        h.keys() == {"g", *HosmerLemeshowResult._fields} for h in payload["hosmer"]
    )

    dump = movement_to_json(synth.random_movement(rng, meta=synth.make_meta()))
    assert dump["meta"].keys() == names(MovementMeta)
    events = [e for voice in dump["voices"].values() for e in voice]
    assert events and all(e.keys() == names(synth.Event) for e in events)


def test_cv_config_validation():
    with pytest.raises(ValueError):
        CVConfig(filter_mode="sometimes")
    with pytest.raises(ValueError, match="restarts"):
        CVConfig(restarts=0)
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="n_jobs must be at least 1"):
            CVConfig(n_jobs=jobs)
    with pytest.raises(ValueError, match="bic_form must be one of"):
        CVConfig(bic_form="aic")


class TestLeakageAudit:
    def _movements(self, rng, n=8):
        return [
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

    def _corpus_matrix(self, rng, n=8, reading="prose"):
        matrix, pool, _ = extract_all(self._movements(rng, n), SEG, threshold_reading=reading)
        return matrix, pool

    @pytest.mark.parametrize("pooled", ["reversed", "one-short"])
    def test_misaligned_pool_fails_before_any_fold(self, monkeypatch, pooled):
        movements = self._movements(np.random.default_rng(47))
        matrix = extract_all(movements, SEG).matrix
        others = movements[::-1] if pooled == "reversed" else movements[:-1]
        pool = build_development_pool(others, SEG)

        def no_fold(*args):
            raise AssertionError("a fold ran")

        import quartet_attrib.evaluation as ev

        monkeypatch.setattr(ev, "_run_fold", no_fold)
        with pytest.raises(ConfigurationError, match="in the same order"):
            run_cv(matrix, CVConfig(scheme=Scheme.LOO, **FAST), development_pool=pool)

    @pytest.mark.parametrize("reading", ["prose", "literal"])
    def test_all_rows_reproduce_the_extraction(self, reading):
        matrix, pool = self._corpus_matrix(np.random.default_rng(45), reading=reading)
        adjusted, thresholds = pool.counted(matrix)
        assert adjusted.values.tobytes() == matrix.values.tobytes()
        assert repr(thresholds) == repr(pool.thresholds())

    def test_fold_thresholds_replace_count_columns(self):
        rng = np.random.default_rng(40)
        matrix, pool = self._corpus_matrix(rng)
        train_idx = list(range(1, matrix.n))
        before = matrix.values.tobytes()
        adjusted, fold_thr = pool.counted(matrix, train_idx)
        assert matrix.values.tobytes() == before  # counted copies
        assert repr(fold_thr) == repr(pool.thresholds(rows=train_idx))
        block = pool.count_columns(fold_thr)
        labels = oracles.count_labels(pool.lengths)
        for bcol, lbl in enumerate(labels):
            j = matrix.column_index(lbl)
            assert adjusted.values[:, j].tobytes() == block[:, bcol].tobytes()
        # non-count columns untouched
        others = [j for j, lbl in enumerate(matrix.labels) if lbl not in set(labels)]
        assert adjusted.values[:, others].tobytes() == matrix.values[:, others].tobytes()

    def test_fold_counts_fill_the_count_columns_a_scope_holds(self):
        """Counted on a matrix that holds some count columns, in another
        order, and on one that holds none: each held column gets its label's
        counts, and the thresholds are taken either way."""
        matrix, pool = self._corpus_matrix(np.random.default_rng(46))
        train_idx = list(range(2, matrix.n))
        full, thresholds = pool.counted(matrix, train_idx)
        labels = oracles.count_labels(pool.lengths)
        cols = [matrix.column_index(lbl) for lbl in labels[::-3]]
        cols.append(matrix.column_index("basic|note_count|Viola"))
        part, part_thr = pool.counted(matrix.select_columns(cols), train_idx)
        assert repr(part_thr) == repr(thresholds)
        assert part.values.tobytes() == full.values[:, cols].tobytes()
        reduced = matrix.select_columns(matrix.category_indices(("basic", "interval")))
        none, none_thr = pool.counted(reduced, train_idx)
        assert repr(none_thr) == repr(thresholds)
        assert none.values.tobytes() == reduced.values.tobytes()

    def test_run_cv_with_leakage_audit(self):
        rng = np.random.default_rng(41)
        matrix, pool = self._corpus_matrix(rng)
        config = CVConfig(scheme=Scheme.LOO, seed=1, restarts=2,
                          prior=PriorConfig(scale_factor=0.6))
        result = run_cv(matrix, config, development_pool=pool)
        assert result.n == matrix.n
        assert not any(f.failed for f in result.folds)
        assert result.config["leakage_audit"] is True

    @pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
    def test_parallel_leakage_audit_matches_serial(self, method, monkeypatch):
        """The workers' results do not depend on how they are started."""
        context = multiprocessing.get_context(method)
        monkeypatch.setattr(
            evaluation, "ProcessPoolExecutor", partial(ProcessPoolExecutor, mp_context=context)
        )
        rng = np.random.default_rng(41)
        matrix, pool = self._corpus_matrix(rng)
        config = CVConfig(scheme=Scheme.LOO, seed=1, restarts=2,
                          prior=PriorConfig(scale_factor=0.6))
        a = run_cv(matrix, config, development_pool=pool)
        b = run_cv(matrix, dataclasses.replace(config, n_jobs=2), development_pool=pool)
        assert not any(f.failed for f in a.folds)
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)


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
