"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line (run pytest with -s to see them all).
Criteria 7 and 8 need the public quartet corpora; point the environment
variables QUARTET_ATTRIB_HM285 / QUARTET_ATTRIB_HM107 at directories that
contain the **kern files plus a manifest.csv, otherwise those tests skip.
"""

import json
import math
import os
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
import synth
from quartet_attrib import glm
from quartet_attrib.evaluation import (
    CVConfig,
    CutoffPolicy,
    FeatureScope,
    Scheme,
    fit_full_model,
    run_cv,
)
from quartet_attrib.features import (
    SegmentConfig,
    build_development_pool,
    exposition_features,
    extract_all,
    feature_names,
    minor_third_segment_features,
    near_zero_variance_filter,
    pairwise_interval_features,
    recapitulation_features,
)
from oracles import Segment, fraction_overlap, relative_transform, windows
from quartet_attrib.score import load_corpus, parse_kern
from quartet_attrib.selection import icm_select
from test_features import FLAT_THRESHOLDS, development_with_counts, voice_data
from test_selection import PRIOR, exhaustive_best, forward_stepwise


class Criterion:
    def __init__(self, number, budget_seconds):
        self.number = number
        self.budget = budget_seconds
        self.start = time.perf_counter()

    def finish(self, ok, detail=""):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if ok and elapsed < self.budget else "FAIL"
        print(f"ACCEPTANCE {self.number}: {status} ({elapsed:.2f}s) {detail}")
        assert ok, f"criterion {self.number}: {detail}"
        assert elapsed < self.budget, f"criterion {self.number} over budget: {elapsed:.2f}s"

    def skip(self, reason):
        print(f"ACCEPTANCE {self.number}: SKIP ({reason})")
        pytest.skip(reason)


def _corpus_dir(env_name):
    root = os.environ.get(env_name)
    if not root:
        return None
    root = Path(root)
    if not (root / "manifest.csv").exists():
        return None
    return root


def _load_named_corpus(env_name):
    root = _corpus_dir(env_name)
    if root is None:
        return None
    movements, errors = load_corpus(root, root / "manifest.csv")
    movements = list(movements)
    return movements if movements else None


def test_criterion_1_k157_golden():
    crit = Criterion(1, budget_seconds=1.0)
    mv = parse_kern(synth.k157_excerpt_kern())
    v1 = oracles.notes_of(mv, "Violin1")
    pcs = [e.pitch_class for e in v1]
    durs = [e.duration for e in v1]
    ok = pcs[:8] == [1, 3, 5, 5, 5, 3, 6, 5]
    ok &= [float(d) for d in durs[:4]] == [0.375, 0.125, 0.25, 0.25]
    ok &= len(pcs) == 20
    segs = windows(pcs, 8)
    ok &= len(segs) == 13
    pitch_overlap = fraction_overlap(relative_transform(segs[0]), relative_transform(segs[10]))
    ok &= pitch_overlap == Fraction(1, 2)
    dur_overlap = fraction_overlap(Segment(tuple(durs[0:8]), 1), Segment(tuple(durs[10:18]), 11))
    ok &= dur_overlap == Fraction(1)
    crit.finish(ok, f"segments=13 pitch_overlap={pitch_overlap} duration_overlap={dur_overlap}")


def test_criterion_2_feature_count_identities():
    crit = Criterion(2, budget_seconds=30.0)
    names = feature_names(SegmentConfig())
    by_cat = {}
    for fn in names:
        by_cat[fn.category] = by_cat.get(fn.category, 0) + 1
    want = {"basic": 22, "interval": 392, "exposition": 240, "development": 288, "recapitulation": 240}
    ok = by_cat == want and len(names) == 1182

    detail = f"columns={len(names)} partition={by_cat}"
    hm285 = _load_named_corpus("QUARTET_ATTRIB_HM285")
    hm107 = _load_named_corpus("QUARTET_ATTRIB_HM107")
    for corpus, label, target in ((hm285, "HM285", 1115), (hm107, "HM107", 1110)):
        if corpus is None:
            detail += f" {label}=unavailable"
            continue
        matrix = extract_all(corpus).matrix
        kept = near_zero_variance_filter(matrix).p
        ok &= kept == target
        detail += f" {label}_retained={kept} (target {target})"
    crit.finish(ok, detail)


def test_criterion_3_oracle_equivalence_suite():
    crit = Criterion(3, budget_seconds=60.0)
    rng = np.random.default_rng(2024)
    config = SegmentConfig()
    checked = 0
    worst = 0.0
    for _ in range(100):
        mv = synth.random_movement(rng, n_notes=(10, 60))
        data = voice_data(mv)
        pairs = [
            (pairwise_interval_features(data), oracles.pairwise_oracle(mv)),
            (minor_third_segment_features(data, config), oracles.minor3_oracle(mv, config.lengths)),
            (exposition_features(data, config), oracles.exposition_oracle(mv, config.lengths)),
            (
                development_with_counts(mv, FLAT_THRESHOLDS, config),
                oracles.development_oracle(mv, FLAT_THRESHOLDS, config.lengths),
            ),
            (recapitulation_features(data, config), oracles.recapitulation_oracle(mv, config.lengths)),
        ]
        for got, want in pairs:
            for key, expect in want.items():
                val = got[key]
                if math.isnan(expect):
                    assert math.isnan(val), key
                    continue
                err = abs(val - expect)
                worst = max(worst, err)
                assert err <= 1e-12, (key, val, expect)
                checked += 1
    crit.finish(checked > 100_000, f"values_checked={checked} worst_abs_err={worst:.2e}")


def test_criterion_4_glm_correctness():
    crit = Criterion(4, budget_seconds=30.0)
    rng = np.random.default_rng(7)
    prior = glm.PriorConfig(scale_factor=0.6)
    ok = True
    details = []

    # MAP equals the dense-grid maximiser of the exact penalized posterior
    for _ in range(2):
        x = rng.normal(size=20)
        y = (rng.random(20) < 1 / (1 + np.exp(0.4 - 1.5 * x))).astype(float)
        X = x.reshape(-1, 1)
        model = glm.fit(X, y, prior)
        s1 = prior.scale_factor / (2 * np.std(x, ddof=1))

        def post(b0, b1):
            eta = b0 + b1 * x
            ll = float(y @ eta - np.logaddexp(0, eta).sum())
            return ll - math.log1p((b0 / prior.intercept_scale) ** 2) - math.log1p((b1 / s1) ** 2)

        b0, b1, width = 0.0, 0.0, 6.0
        for _ in range(14):
            g0 = np.linspace(b0 - width, b0 + width, 61)
            g1 = np.linspace(b1 - width, b1 + width, 61)
            vals = np.array([[post(a, b) for b in g1] for a in g0])
            i, j = np.unravel_index(vals.argmax(), vals.shape)
            b0, b1, width = g0[i], g1[j], width / 3
        grid_err = max(abs(model.intercept - b0), abs(model.coef[0] - b1))
        ok &= grid_err < 1e-4
        details.append(f"grid_err={grid_err:.1e}")

        diffs = np.diff(oracles.fit_objective_path(X, y, prior))
        ok &= bool((diffs >= -1e-10).all())

    # large prior scale recovers the MLE
    from scipy.optimize import minimize

    X, y = synth.logistic_toy(rng, n=150, p=2, signal=(1.0, -0.8))

    def nll(b):
        eta = b[0] + X @ b[1:]
        return -(y @ eta - np.logaddexp(0, eta).sum())

    mle = minimize(nll, np.zeros(3), method="BFGS").x
    big = glm.fit(X, y, glm.PriorConfig(scale_factor=1e6, intercept_scale=1e6))
    mle_err = float(np.max(np.abs(np.concatenate(([big.intercept], big.coef)) - mle)))
    ok &= mle_err < 1e-3
    details.append(f"mle_err={mle_err:.1e}")

    # Table-style intercept-only prediction
    model = glm.FittedModel(
        feature_names=(),
        intercept=-1.12,
        coef=np.empty(0),
        standard_errors=np.array([2.32]),
        log_likelihood=0.0,
        n=285,
        d=0,
        converged=True,
        iterations=0,
        prior=prior,
        prior_scales=np.array([10.0]),
    )
    p = glm.predict_prob(model, np.empty(0))
    ok &= abs(p - 1 / (1 + math.exp(1.12))) < 1e-12
    details.append(f"logistic(-1.12)={p:.4f}")
    crit.finish(ok, " ".join(details))


def test_criterion_5_icm_desk_scale():
    crit = Criterion(5, budget_seconds=300.0)
    rng = np.random.default_rng(99)
    trials = 50
    exact_hits = 0
    never_worse = True
    for _ in range(trials):
        X, y = synth.logistic_toy(rng, n=60, p=8)
        res = icm_select(X, y, prior=PRIOR, restarts=10, seed=17)
        best_bic, _ = exhaustive_best(X, y)
        assert res.bic >= best_bic - 1e-9
        if res.bic <= best_bic + 1e-6:
            exact_hits += 1
        fwd_bic, _ = forward_stepwise(X, y)
        never_worse &= res.bic <= fwd_bic + 1e-9
    ok = exact_hits >= 0.8 * trials and never_worse
    crit.finish(
        ok, f"exact_optimum={exact_hits}/{trials} never_worse_than_forward={never_worse}"
    )


def test_criterion_6_invariant_suite():
    crit = Criterion(6, budget_seconds=120.0)
    rng = np.random.default_rng(606)
    config = SegmentConfig()
    small = SegmentConfig(lengths=(8, 10))
    ok = True
    notes = []

    # transposition invariance outside the 8 pitch mean/sd columns
    corpus = [
        synth.random_movement(rng, n_notes=(25, 45), meta=synth.make_meta(path=f"t{i}"))
        for i in range(4)
    ]
    moved = [synth.transpose_movement(m, 4) for m in corpus]
    m1, m2 = extract_all(corpus, config).matrix, extract_all(moved, config).matrix
    variant_cols = {
        j for j, fn in enumerate(m1.columns) if fn.descriptor in ("mean_pitch", "sd_pitch")
    }
    ok &= len(variant_cols) == 8
    invariant_ok = True
    for j in range(m1.p):
        if j in variant_cols:
            continue
        a, b = m1.values[:, j], m2.values[:, j]
        nan = np.isnan(a) & np.isnan(b)
        invariant_ok &= bool(np.allclose(a[~nan], b[~nan], atol=1e-9, equal_nan=False))
        invariant_ok &= bool((np.isnan(a) == np.isnan(b)).all())
    ok &= invariant_ok
    notes.append(f"transposition={invariant_ok}")

    # proportion simplexes, location ranges, count dominance and monotonicity
    simplex_ok = ranges_ok = dominance_ok = True
    for mv in corpus:
        feats = pairwise_interval_features(voice_data(mv))
        for v in ("Violin1", "Violin2", "Viola", "Cello"):
            simplex_ok &= abs(math.fsum(feats[f"interval|class_{c}|{v}"] for c in range(12)) - 1) < 1e-12
            simplex_ok &= (
                abs(
                    math.fsum(
                        feats[f"interval|sign_{s}|{v}"]
                        for s in ("ascending", "descending", "constant")
                    )
                    - 1
                )
                < 1e-12
            )
            simplex_ok &= (
                abs(
                    math.fsum(
                        feats[f"interval|mode_{m}|{v}"]
                        for m in ("perfect", "minor", "major", "dimaug")
                    )
                    - 1
                )
                < 1e-12
            )
        expo = exposition_features(voice_data(mv), config)
        recap = recapitulation_features(voice_data(mv), config)
        for key, val in expo.items():
            if math.isnan(val):
                continue
            if "max_location" in key:
                ranges_ok &= 0 < val <= 1
            if "max_overlap" in key:
                fn_m = int(key.rsplit("m=", 1)[1])
                ranges_ok &= 1 / fn_m <= val <= 1
            if "count_t" in key:
                rk = key.replace("exposition", "recapitulation")
                if not math.isnan(recap[rk]):
                    dominance_ok &= val <= recap[rk]
    ok &= simplex_ok and ranges_ok and dominance_ok
    notes.append(f"simplex={simplex_ok} ranges={ranges_ok} expo<=recap={dominance_ok}")

    # overlap-count monotone in t is structural: counts at 0.7 >= 0.9 >= 1
    mono_t = True
    for mv in corpus:
        recap = recapitulation_features(voice_data(mv), config)
        for v in ("Violin1", "Cello"):
            for m in config.lengths:
                for track in ("pitch", "duration"):
                    base = f"|{track}|{v}|m={m}"
                    seq = [recap[f"recapitulation|count_t{t}{base}"] for t in ("0.7", "0.9", "1")]
                    if any(math.isnan(x) for x in seq):
                        continue
                    mono_t &= seq == sorted(seq, reverse=True)
    ok &= mono_t
    notes.append(f"count_monotone_t={mono_t}")

    # development counts monotone in q
    pool = build_development_pool(corpus, small)
    thresholds = pool.thresholds()
    mono_q = True
    for row in pool.count_columns(thresholds):
        dev = dict(zip(pool.count_labels(), row))
        for v in ("Violin1", "Viola"):
            for m in small.lengths:
                for track in ("pitch", "duration"):
                    seq = [
                        dev[f"development|count_q{q:.2f}|{track}|{v}|m={m}"]
                        for q in thresholds.quantiles
                    ]
                    seq = [x for x in seq if not math.isnan(x)]
                    mono_q &= seq == sorted(seq, reverse=True)
    ok &= mono_q
    notes.append(f"dev_monotone_q={mono_q}")

    # CV fold disjointness (asserted inside run_cv) and determinism
    matrix = extract_all(
        [
            synth.random_movement(
                rng,
                n_notes=(20, 30),
                meta=synth.make_meta(
                    path=f"cv{i}", composer=(i // 2) % 2, quartet=f"q{i // 2}"
                ),
            )
            for i in range(8)
        ],
        small,
    ).matrix
    cv_cfg = CVConfig(scheme=Scheme.LOO, seed=3, restarts=2, prior=glm.PriorConfig(0.6))
    r1 = run_cv(matrix, cv_cfg)
    r2 = run_cv(matrix, cv_cfg)
    deterministic = json.dumps(r1.to_json(), sort_keys=True) == json.dumps(
        r2.to_json(), sort_keys=True
    )
    ok &= deterministic
    notes.append(f"cv_deterministic={deterministic}")
    crit.finish(ok, " ".join(notes))


@pytest.mark.corpus
def test_criterion_7_paper_number_reproduction():
    crit = Criterion(7, budget_seconds=6 * 3600.0)
    hm285 = _load_named_corpus("QUARTET_ATTRIB_HM285")
    hm107 = _load_named_corpus("QUARTET_ATTRIB_HM107")
    if hm285 is None or hm107 is None:
        crit.skip("public corpora not available; set QUARTET_ATTRIB_HM285/HM107")
    seed = int(os.environ.get("QUARTET_ATTRIB_SEED", "0"))
    prior = glm.PriorConfig(scale_factor=0.6)
    details = []
    ok = True

    m107 = extract_all(hm107).matrix
    r107 = run_cv(
        m107,
        CVConfig(
            scheme=Scheme.LOO,
            cutoff_policy=CutoffPolicy.FIXED,
            prior=prior,
            seed=seed,
            filter_mode="global",
        ),
    )
    ok &= 0.80 <= r107.accuracy <= 0.88
    details.append(f"HM107_loo={100 * r107.accuracy:.2f}% (target 84.11, band 80-88)")

    m285 = extract_all(hm285).matrix
    cfg285 = CVConfig(
        scheme=Scheme.LOO,
        cutoff_policy=CutoffPolicy.TUNED,
        prior=prior,
        seed=seed,
        filter_mode="global",
    )
    r285 = run_cv(m285, cfg285)
    ok &= 0.78 <= r285.accuracy <= 0.86
    details.append(
        f"HM285_loo={100 * r285.accuracy:.2f}% (target 82.46) "
        f"haydn={100 * r285.class_accuracy(1):.2f}% mozart={100 * r285.class_accuracy(0):.2f}%"
    )

    import dataclasses

    rq = run_cv(m285, dataclasses.replace(cfg285, scheme=Scheme.LOQO))
    ok &= 0.75 <= rq.accuracy <= 0.83
    details.append(f"HM285_loqo={100 * rq.accuracy:.2f}% (target 79.03)")

    rr = run_cv(m285, dataclasses.replace(cfg285, feature_scope=FeatureScope.REDUCED))
    ok &= 0.76 <= rr.accuracy <= 0.84
    details.append(f"HM285_reduced_loo={100 * rr.accuracy:.2f}% (target 80.35)")

    full = fit_full_model(m285, cfg285)
    n_selected = len(full.selection.selected)
    cats = {row["category"] for row in full.table[1:]}
    ok &= n_selected < 10
    details.append(f"full_model_features={n_selected} categories={sorted(cats)}")
    ok &= full.hosmer_median_p >= 0.5
    details.append(f"hosmer_median_p={full.hosmer_median_p:.4f} (target 0.9880)")
    crit.finish(ok, " ".join(details))


@pytest.mark.corpus
def test_criterion_8_threshold_reproduction():
    crit = Criterion(8, budget_seconds=3600.0)
    hm285 = _load_named_corpus("QUARTET_ATTRIB_HM285")
    if hm285 is None:
        crit.skip("HM285 corpus not available; set QUARTET_ATTRIB_HM285")
    targets = {("Viola", 14, "pitch", 0.80): 4.244, ("Cello", 8, "pitch", 0.70): 4.024}
    readings = {}
    for reading in ("prose", "literal"):
        thr = build_development_pool(hm285, reading=reading).thresholds()
        vals = {}
        for (voice, m, track, q), want in targets.items():
            qi = thr.quantiles.index(q)
            vals[(voice, m, track, q)] = thr.get(voice, m, track)[qi]
        readings[reading] = vals
    matches = {
        reading: all(abs(vals[k] - want) <= 0.01 for k, want in targets.items())
        for reading, vals in readings.items()
    }
    detail = " ".join(
        f"{reading}:{ {k[0:2]: round(v, 3) for k, v in vals.items()} } match={matches[reading]}"
        for reading, vals in readings.items()
    )
    if not any(matches.values()):
        print(f"ACCEPTANCE 8: FAIL (no reading reproduces the published thresholds) {detail}")
        pytest.fail(f"threshold discrepancy to report: {detail}")
    crit.finish(True, detail)
