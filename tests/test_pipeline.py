"""Full-stack study on a corpus with planted composer differences.

Generated movements differ by construction: one "composer" favours
descending steps and uniform quarter-note rhythm, the other ascending
steps and varied rhythm.  The complete pipeline (kern text -> parsing ->
features -> per-fold selection -> CV) must recover that signal.
"""

import pytest

import synth
from quartet_attrib.evaluation import (
    CVConfig,
    compare_runs,
    fit_full_model,
    run_cv,
    selection_stability,
)
from quartet_attrib.features import SegmentConfig, extract_all
from quartet_attrib.glm import PriorConfig
from quartet_attrib.score import load_corpus


@pytest.fixture(scope="module")
def styled_matrix(tmp_path_factory):
    root = tmp_path_factory.mktemp("styled")
    manifest = synth.write_styled_corpus(root, n_quartets=4, movements_per_quartet=2)
    movements, errors = load_corpus(root, manifest)
    movements = list(movements)  # one pass: listed, as it is counted and then extracted
    assert errors == []
    assert len(movements) == 16
    return extract_all(movements, SegmentConfig(lengths=(8,))).matrix


BASE = dict(restarts=2, prior=PriorConfig(scale_factor=0.6), seed=0)


@pytest.fixture(scope="module")
def loo_result(styled_matrix):
    return run_cv(styled_matrix, CVConfig(scheme="loo", **BASE))


class TestPlantedCorpus:
    def test_loo_recovers_the_planted_signal(self, loo_result):
        assert loo_result.n == 16
        assert loo_result.accuracy >= 0.8
        stability = selection_stability(loo_result)
        assert stability, "some feature must be selected in at least one fold"
        # the plant contrasts rhythm rigidity and melodic direction, so the
        # recurring selections should involve duration tracks or interval signs
        top = stability[0].feature
        assert "duration" in top or "sign_" in top, stability[:5]

    def test_loqo_close_to_loo(self, styled_matrix, loo_result):
        loo = loo_result
        loqo = run_cv(styled_matrix, CVConfig(scheme="loqo", **BASE))
        assert len(loqo.folds) == 8
        assert loqo.accuracy >= 0.75
        report = compare_runs(loo, loqo)
        assert report.class_["equal_pct"] >= 75.0

    def test_tuned_cutoff_variant_completes(self, styled_matrix):
        result = run_cv(
            styled_matrix,
            CVConfig(scheme="loo", cutoff_policy="tuned", **BASE),
        )
        assert result.accuracy >= 0.8

    def test_full_model_sign_matches_plant(self, styled_matrix):
        report = fit_full_model(styled_matrix, CVConfig(**BASE))
        rows = {r["feature"]: r for r in report.table[1:]}
        assert rows, "full-data selection picked at least one feature"
        # class 1 was built with descending motion and rigid rhythm
        for feature, row in rows.items():
            if "sign_descending" in feature:
                assert row["estimate"] > 0
            if "sign_ascending" in feature:
                assert row["estimate"] < 0
            if "sd_duration" in feature:
                assert row["estimate"] < 0
