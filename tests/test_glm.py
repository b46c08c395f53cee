import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

import oracles
import synth
from quartet_attrib import glm
from quartet_attrib.glm import (
    FeatureMisalignment,
    FittedModel,
    PriorConfig,
    bic,
    design_stack,
    fit,
    hosmer_lemeshow,
    posterior_modes,
    predict_prob,
    prior_scales,
    wald_pvalues,
)


def exact_log_posterior(b0, beta, X, y, prior):
    """Direct evaluation of the penalized objective, independent arithmetic."""
    eta = b0 + X @ np.atleast_1d(beta)
    ll = float(np.sum(y * eta) - np.sum(np.log1p(np.exp(-np.abs(eta))) + np.maximum(eta, 0)))
    pen = math.log1p((b0 / prior.intercept_scale) ** 2)
    sds = X.std(axis=0, ddof=1)
    for bj, sd in zip(np.atleast_1d(beta), sds):
        s = prior.scale_factor / (2 * sd)
        pen += math.log1p((bj / s) ** 2)
    return ll - pen


class TestFit:
    def test_intercept_only_balanced_is_zero(self):
        y = np.array([0.0, 1.0] * 25)
        model = fit(np.empty((50, 0)), y)
        assert model.intercept == 0.0
        assert model.converged

    def test_intercept_only_shrinks_toward_zero(self):
        y = np.array([1.0] * 30 + [0.0] * 70)
        model = fit(np.empty((100, 0)), y)
        raw = math.log(30 / 70)
        assert raw < model.intercept < 0
        assert abs(model.intercept - raw) < 0.05  # scale-10 prior barely shrinks

    def test_map_matches_grid_search(self):
        rng = np.random.default_rng(42)
        for trial in range(3):
            x = rng.normal(size=20)
            eta = -0.4 + 1.5 * x
            y = (rng.random(20) < expit(eta)).astype(float)
            X = x.reshape(-1, 1)
            prior = PriorConfig(scale_factor=0.6)
            model = fit(X, y, prior)
            b0, b1, width = 0.0, 0.0, 6.0
            for _ in range(14):
                g0 = np.linspace(b0 - width, b0 + width, 61)
                g1 = np.linspace(b1 - width, b1 + width, 61)
                vals = np.array(
                    [[exact_log_posterior(a, b, X, y, prior) for b in g1] for a in g0]
                )
                i, j = np.unravel_index(vals.argmax(), vals.shape)
                b0, b1, width = g0[i], g1[j], width / 3
            assert abs(model.intercept - b0) < 1e-4
            assert abs(model.coef[0] - b1) < 1e-4

    def test_objective_monotone(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            X, y = synth.logistic_toy(rng, n=40, p=3)
            diffs = np.diff(oracles.fit_objective_path(X, y, PriorConfig(scale_factor=0.6)))
            assert (diffs >= -1e-10).all()

    def test_separation_stays_finite(self):
        x = np.array([-2.0, -1.5, -1.0, 1.0, 1.5, 2.0])
        y = np.array([0.0, 0, 0, 1, 1, 1])
        model = fit(x.reshape(-1, 1), y, PriorConfig(scale_factor=2.5))
        assert np.isfinite(model.coef).all() and np.isfinite(model.intercept)
        assert model.converged

    def test_large_scale_recovers_mle(self):
        rng = np.random.default_rng(2)
        X, y = synth.logistic_toy(rng, n=200, p=2, signal=(1.0, -0.7))

        def nll(b):
            eta = b[0] + X @ b[1:]
            return -(y @ eta - np.logaddexp(0, eta).sum())

        mle = minimize(nll, np.zeros(3), method="BFGS").x
        model = fit(X, y, PriorConfig(scale_factor=1e6, intercept_scale=1e6))
        assert abs(model.intercept - mle[0]) < 1e-3
        assert np.abs(model.coef - mle[1:]).max() < 1e-3

    def test_column_scaling_equivariance(self):
        rng = np.random.default_rng(3)
        X, y = synth.logistic_toy(rng, n=80, p=3)
        prior = PriorConfig(scale_factor=0.6)
        base = fit(X, y, prior)
        scaled = X.copy()
        c = 37.5
        scaled[:, 1] *= c
        other = fit(scaled, y, prior)
        assert abs(other.coef[1] - base.coef[1] / c) < 1e-6
        p1 = predict_prob(base, X)
        p2 = predict_prob(other, scaled)
        assert np.abs(p1 - p2).max() < 1e-8

    def test_warm_start_reaches_same_mode(self):
        rng = np.random.default_rng(4)
        X, y = synth.logistic_toy(rng, n=60, p=4)
        prior = PriorConfig(scale_factor=0.6)
        cold = fit(X, y, prior)
        start = np.concatenate(([cold.intercept], cold.coef)) + 0.05
        warm = oracles.fit_solve(X, y, prior, start)[0].beta[0]
        assert abs(warm[0] - cold.intercept) < 1e-6
        assert np.abs(warm[1:] - cold.coef).max() < 1e-6

    def test_oracle_solve_is_fits_solve(self):
        """oracles.fit_solve from a zero start for 200 iterations is glm.fit's
        solve bit for bit, so the objective paths it rebuilds are fit's."""
        rng = np.random.default_rng(1)
        cases = [synth.logistic_toy(rng, n=40, p=3) for _ in range(10)]
        x = np.array([-2.0, -1.5, -1.0, 1.0, 1.5, 2.0])
        cases.append((x.reshape(-1, 1), np.array([0.0, 0, 0, 1, 1, 1])))  # separated
        X = np.column_stack([rng.normal(size=30), np.ones(30)])
        cases.append((np.asfortranarray(X), (rng.random(30) < 0.5).astype(float)))
        cases.append((np.empty((20, 0)), np.array([0.0, 1.0] * 10)))
        for prior in (PriorConfig(), PriorConfig(scale_factor=0.6)):
            for X, y in cases:
                model = fit(X, y, prior)
                modes, scales = oracles.fit_solve(X, y, prior)
                assert np.array_equal(modes.beta[0], np.r_[model.intercept, model.coef])
                assert modes.log_likelihood[0] == model.log_likelihood
                assert modes.iterations[0] == model.iterations
                assert modes.converged[0] == model.converged
                assert np.array_equal(scales, model.prior_scales)

    def test_constant_column_flagged_degenerate(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([rng.normal(size=30), np.ones(30)])
        y = (rng.random(30) < 0.5).astype(float)
        model = fit(X, y, PriorConfig())
        assert model.degenerate
        assert np.isfinite(model.coef).all()

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit(np.zeros((3, 1)), np.array([0.0, 2.0, 1.0]))
        with pytest.raises(ValueError):
            fit(np.zeros((3, 1)), np.array([0.0, 1.0]))

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_prior_scales_must_be_finite_and_positive(self, value):
        for field in ("scale_factor", "intercept_scale"):
            with pytest.raises(ValueError, match="finite and positive"):
                PriorConfig(**{field: value})

    def test_json_is_the_fields(self):
        rng = np.random.default_rng(6)
        X, y = synth.logistic_toy(rng, n=40, p=2)
        model = fit(X, y, feature_names=("a", "b"))
        payload = json.loads(json.dumps(model.to_json()))
        assert payload.keys() == {f.name for f in dataclasses.fields(FittedModel)}
        for name in ("coef", "standard_errors", "prior_scales"):
            assert np.array(payload[name]).tobytes() == getattr(model, name).tobytes()
        assert payload["feature_names"] == ["a", "b"]
        assert payload["intercept"] == model.intercept
        assert payload["log_likelihood"] == model.log_likelihood
        assert payload["prior"] == dataclasses.asdict(model.prior)

    def test_memory_layout_does_not_change_the_bits(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(12, 50))
            X = rng.normal(size=(n, 3)) * rng.uniform(0.2, 4.0, size=3)
            y = (rng.random(n) < 0.5).astype(float)
            y[:2] = (0.0, 1.0)
            a = fit(np.ascontiguousarray(X), y)
            b = fit(np.asfortranarray(X), y)
            assert a.intercept == b.intercept
            assert np.array_equal(a.coef, b.coef)
            assert np.array_equal(a.prior_scales, b.prior_scales)
            assert np.array_equal(a.standard_errors, b.standard_errors)
            assert a.log_likelihood == b.log_likelihood
            assert oracles.fit_objective_path(
                np.ascontiguousarray(X), y
            ) == oracles.fit_objective_path(np.asfortranarray(X), y)


PRIOR_06 = PriorConfig(scale_factor=0.6)

#: The modes of test_coefficients_up_to_one_keep_the_absolute_test under the
#: absolute 1e-8 convergence test: coefficients and log-likelihoods as
#: float.hex, and iterations.
PINNED_BETA = [
    "-0x1.4201a81f21199p-3", "0x1.0949d4113e62dp-3", "-0x1.bbfb2ee419ab6p-5",
    "-0x1.7bac75c654ba5p-3", "-0x1.1821f96166a01p-5", "-0x1.5732eeb3cffe2p-5",
]
PINNED_LL = ["-0x1.a8a175fc855f0p+3", "-0x1.b6243d84ee298p+3"]
PINNED_ITERATIONS = [5, 4]


def _stack(X, y, subsets):
    """The design stack of subsets of X's columns and their prior scales."""
    design = np.ascontiguousarray(np.column_stack([np.ones(len(y)), X]).T)
    scales, _ = prior_scales(design[1:].std(axis=1, ddof=1), PRIOR_06)
    rows = np.array([[0, *(c + 1 for c in cols)] for cols in subsets])
    return design_stack(design, rows), y, scales[rows]


def _stacked_and_solo(X, y, subsets, starts, max_iter):
    """Solve subsets of X's columns as one stack, each alone in a stack of
    one, and each as glm.fit solves it; assert that the three agree bit for
    bit.  Returns the stacked Modes."""
    stacked = posterior_modes(*_stack(X, y, subsets), starts, max_iter=max_iter)
    for k, cols in enumerate(subsets):
        alone = posterior_modes(*_stack(X, y, [cols]), starts[k : k + 1], max_iter=max_iter)
        solo, _ = oracles.fit_solve(X[:, list(cols)], y, PRIOR_06, starts[k], max_iter)
        for modes, j in ((stacked, k), (alone, 0)):
            assert modes.beta[j].tobytes() == solo.beta[0].tobytes()
            assert modes.log_likelihood[j].tobytes() == solo.log_likelihood[0].tobytes()
            assert modes.iterations[j] == solo.iterations[0]
            assert modes.converged[j] == solo.converged[0]
            assert modes.singular[j] == solo.singular[0]
    return stacked


class TestStackedSolver:
    @pytest.mark.parametrize(
        "n, d, max_iter",
        [(2, 1, 200), (15, 0, 200), (15, 1, 200), (40, 2, 200), (90, 3, 200), (30, 4, 3)],
    )
    def test_members_match_fit_bit_for_bit(self, n, d, max_iter):
        rng = np.random.default_rng(100 * n + d)
        p = d + 4
        X = rng.normal(size=(n, p)) * rng.uniform(0.2, 3.0, size=p)
        y = (rng.random(n) < 0.5).astype(float)
        y[:2] = (0.0, 1.0)
        X[:, 0] = 2 * y - 1 + rng.normal(scale=0.05, size=n)  # separates y
        X[:, 1] = 1.5  # constant
        subsets = [(0, 1, 2, 3)[:d]] + [
            tuple(sorted(rng.choice(p, size=d, replace=False))) for _ in range(5)
        ]
        starts = rng.normal(size=(len(subsets), d + 1)) * 3.0
        stacked = _stacked_and_solo(X, y, subsets, starts, max_iter)
        stack, _, scales = _stack(X, y, subsets)
        resolve = functools.cache(
            lambda k: posterior_modes(stack, y, scales, starts, max_iter=k)
        )
        for k, cols in enumerate(subsets):
            path = oracles.objective_path(
                lambda i: (resolve(i).beta[k], resolve(i).log_likelihood[k], scales[k]),
                stacked.iterations[k],
            )
            assert path == oracles.fit_objective_path(
                X[:, list(cols)], y, PRIOR_06, start=starts[k], max_iter=max_iter
            )

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_a_stack_of_every_stopping_path_matches_fit_bit_for_bit(self, monkeypatch):
        """One stack whose members stop at iteration 1, step on the EM
        surrogate, get a non-finite step, are jittered as singular and hit
        max_iter: each is written back as its solo solve, bit for bit."""
        rng = np.random.default_rng(23)
        n, max_iter = 40, 4
        X = rng.normal(size=(n, 6))
        y = (rng.random(n) < 0.5).astype(float)
        y[:2] = (0.0, 1.0)
        X[:, 0] = 2 * y - 1 + rng.normal(scale=0.05, size=n)  # separates y
        X[0, 2] = np.nan
        at_mode = oracles.fit_solve(X[:, [3, 4]], y, PRIOR_06)[0].beta[0]
        members = {  # subset: start
            "stops at iteration 1": ((3, 4), at_mode),
            "EM step": ((3, 5), [0.0, 1e3, 0.0]),  # far in the prior's tail
            "non-finite step": ((2, 3), [0.0, 0.0, 0.0]),
            "jittered as singular": ((4, 5), [0.0, 1e200, 0.0]),
            "hits max_iter": ((0, 3), [0.0, 0.0, 0.0]),
        }
        subsets = [cols for cols, _ in members.values()]
        starts = np.array([start for _, start in members.values()], dtype=float)
        stacked = _stacked_and_solo(X, y, subsets, starts, max_iter)
        stop_at_1, em, non_finite, singular, last = range(5)
        assert stacked.iterations[stop_at_1] == 1 and stacked.converged[stop_at_1]
        assert stacked.iterations[non_finite] == 1 and not stacked.converged[non_finite]
        assert stacked.beta[non_finite].tobytes() == starts[non_finite].tobytes()  # stays put
        assert stacked.singular.tolist() == [k == singular for k in range(5)]
        assert stacked.iterations[last] == max_iter and not stacked.converged[last]
        not_pd = []
        real_pd = glm._positive_definite

        def positive_definite(H):
            not_pd.append(not real_pd(H).all())
            return real_pd(H)

        monkeypatch.setattr(glm, "_positive_definite", positive_definite)
        posterior_modes(*_stack(X, y, [subsets[em]]), starts[em : em + 1], max_iter=max_iter)
        assert any(not_pd)

    def test_a_full_step_inside_the_tolerance_stands_converged(self, monkeypatch):
        """A member started at its own mode, with a coefficient above 100 (a
        small-sd column under PRIOR_06): its full Newton step moves no
        coefficient by 1e-8 of its size and lowers the objective on rounding,
        so it stops converged at iteration 1, where it stood, after
        evaluating only the full step.  (The absolute test took 3 iterations
        and 21 log-likelihood rows here.)"""
        rng = np.random.default_rng(7)
        n = 40
        y = (rng.random(n) < 0.5).astype(float)
        y[:2] = (0.0, 1.0)
        X = np.column_stack([1e-3 * (rng.normal(size=n) + 1.2 * y), rng.normal(size=n)])
        mode = oracles.fit_solve(X, y, PRIOR_06)[0].beta[0]
        assert np.abs(mode).max() > 100
        starts = np.array([mode, np.zeros(3)])
        stacked = _stacked_and_solo(X, y, [(0, 1), (0, 1)], starts, 200)
        assert stacked.beta[0].tobytes() == mode.tobytes()
        rows = []
        real = glm._log_likelihoods

        def log_likelihoods(eta, y):
            rows.append(len(eta))
            return real(eta, y)

        monkeypatch.setattr(glm, "_log_likelihoods", log_likelihoods)
        alone = posterior_modes(*_stack(X, y, [(0, 1)]), starts[:1])
        assert rows == [1, 1]  # the start, then the full step alone
        assert alone.iterations[0] == 1 and alone.converged[0]
        assert alone.beta[0].tobytes() == mode.tobytes()

    def test_coefficients_up_to_one_keep_the_absolute_test(self):
        """While every |beta_j| stays at or below 1 the tolerance is the
        absolute 1e-8: where no full step lowers the objective on rounding,
        the modes are bit for bit those of the absolute test, pinned from it.
        These bits are the same on the SkylakeX, Haswell, Sandybridge and
        Prescott OpenBLAS kernels."""
        rng = np.random.default_rng(20020)
        X, y = synth.logistic_toy(rng, n=20, p=3, signal=(0.6, -0.4), intercept=0.1)
        y[:2] = (0.0, 1.0)
        subsets, starts = [(0, 1), (2, 1)], np.zeros((2, 3))
        modes = _stacked_and_solo(X, y, subsets, starts, 200)
        stack = _stack(X, y, subsets)
        for k in range(1, modes.iterations.max() + 1):
            assert np.abs(posterior_modes(*stack, starts, max_iter=k).beta).max() <= 1
        assert [b.hex() for b in modes.beta.ravel()] == PINNED_BETA
        assert [v.hex() for v in modes.log_likelihood] == PINNED_LL
        assert modes.iterations.tolist() == PINNED_ITERATIONS
        assert modes.converged.all() and not modes.singular.any()


@pytest.mark.parametrize("seed", range(16))
def test_no_reference_optimizer_raises_a_converged_mode(seed):
    """From each converged member's mode, scipy's trust-exact with the
    analytic gradient and Hessian raises the penalized objective by at most
    1e-11.  The fits mix small-sd columns (|beta| above 100), a separating
    column and random starts, so members stop after a full step, where they
    stand, and on a flat objective after step halving.  This bounds the
    objective only: along a flat ridge the log-likelihood in a BIC moves to
    first order with the coefficients."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(15, 284)), int(rng.integers(0, 7))
    p = d + 4
    X = rng.normal(size=(n, p)) * rng.uniform(0.2, 3.0, size=p)
    y = (rng.random(n) < 0.5).astype(float)
    y[:2] = (0.0, 1.0)
    X[:, 0] = 2 * y - 1 + rng.normal(scale=0.05, size=n)  # separates y
    X[:, 1:3] = 1e-3 * (rng.normal(size=(n, 2)) + 1.5 * y[:, None])  # small sds
    subsets = [tuple(rng.choice(p, size=d, replace=False)) for _ in range(6)]
    subsets[:2] = [(1, 2, 3, 4, 5, 6)[:d], (0, 1, 2, 3, 4, 5)[:d]]
    starts = np.zeros((6, d + 1))
    starts[3:] = rng.normal(size=(3, d + 1)) * 3.0
    stack, _, scales = _stack(X, y, subsets)
    modes = posterior_modes(stack, y, scales, starts)
    assert d == 0 or np.abs(modes.beta[0]).max() > 100
    for Xt, s, beta, ok in zip(stack, scales, modes.beta, modes.converged):
        if not ok:
            continue
        s2 = s**2

        def neg(b):  # the penalized objective, negated, evaluated apart from glm
            eta = Xt @ b
            return np.logaddexp(0.0, eta).sum() - y @ eta + np.log1p((b / s) ** 2).sum()

        def neg_grad(b):
            return -(Xt.T @ (y - expit(Xt @ b)) - 2.0 * b / (s2 + b**2))

        def neg_hess(b):
            q = expit(Xt @ b)
            curv = 2.0 * (s2 - b**2) / (s2 + b**2) ** 2
            return Xt.T @ (Xt * (q * (1.0 - q))[:, None]) + np.diag(curv)

        ref = minimize(neg, beta, jac=neg_grad, hess=neg_hess, method="trust-exact")
        assert neg(beta) - neg(ref.x) <= 1e-11


class TestPredict:
    def test_linear_predictor_zero(self):
        model = _toy_model(intercept=0.0, coef=[])
        assert predict_prob(model, np.empty(0)) == 0.5

    def test_table_intercept_value(self):
        model = _toy_model(intercept=-1.12, coef=[2.0, -1.0, 0.5])
        p = predict_prob(model, np.zeros(3))
        assert p == pytest.approx(1 / (1 + math.exp(1.12)))
        assert p == pytest.approx(0.246, abs=5e-4)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(7)
        model = _toy_model(intercept=0.3, coef=[0.5, -1.5])
        for _ in range(20):
            x = rng.normal(size=2)
            want = 1 / (1 + math.exp(-(0.3 + 0.5 * x[0] - 1.5 * x[1])))
            assert predict_prob(model, x) == pytest.approx(want, abs=1e-12)

    def test_strictly_inside_unit_interval(self):
        model = _toy_model(intercept=900.0, coef=[])
        p = predict_prob(model, np.empty(0))
        assert 0 < p < 1

    def test_monotone_in_coefficient_sign(self):
        model = _toy_model(intercept=0.0, coef=[2.0, -3.0])
        lo = predict_prob(model, np.array([0.0, 0.0]))
        assert predict_prob(model, np.array([1.0, 0.0])) > lo
        assert predict_prob(model, np.array([0.0, 1.0])) < lo

    def test_misalignment_rejected(self):
        model = _toy_model(intercept=0.0, coef=[1.0], names=("a",))
        with pytest.raises(FeatureMisalignment):
            predict_prob(model, np.zeros(1), feature_names=("b",))
        with pytest.raises(FeatureMisalignment):
            predict_prob(model, np.zeros(3))


def _toy_model(intercept, coef, names=None):
    coef = np.asarray(coef, dtype=float)
    return FittedModel(
        feature_names=names or tuple(f"f{i}" for i in range(len(coef))),
        intercept=intercept,
        coef=coef,
        standard_errors=np.ones(len(coef) + 1),
        log_likelihood=-1.0,
        n=10,
        d=len(coef),
        converged=True,
        iterations=1,
        prior=PriorConfig(),
        prior_scales=np.ones(len(coef) + 1),
    )


class TestBic:
    def test_direct_substitution(self):
        model = _toy_model(0.0, [1.0])
        model.log_likelihood = -10.0
        model.n = 100
        model.d = 1
        assert bic(model) == pytest.approx(20 + 4 * math.log(100), abs=1e-12)

    def test_intercept_only_balanced(self):
        y = np.array([0.0, 1.0] * 50)
        model = fit(np.empty((100, 0)), y)
        want = -2 * (100 * math.log(0.5)) + 2 * math.log(100)
        assert bic(model) == pytest.approx(want, abs=1e-9)

    def test_recomputable_from_model(self):
        rng = np.random.default_rng(8)
        X, y = synth.logistic_toy(rng, n=50, p=3)
        model = fit(X, y)
        eta = model.intercept + X @ model.coef
        ll = float(y @ eta - np.logaddexp(0, eta).sum())
        assert bic(model) == pytest.approx(-2 * ll + 2 * 4 * math.log(50), abs=1e-12)

    def test_textbook_form(self):
        model = _toy_model(0.0, [1.0])
        model.log_likelihood = -10.0
        model.n = 100
        assert bic(model, form="textbook") == pytest.approx(20 + 2 * math.log(100))
        with pytest.raises(ValueError):
            bic(model, form="other")

    def test_penalty_arithmetic_identity(self):
        base = _toy_model(0.0, [1.0])
        base.log_likelihood = -20.0
        base.n = 64
        bigger = _toy_model(0.0, [1.0, 0.5])
        bigger.n = 64
        # adding a feature lowers BIC only if 2*(likelihood gain) > 2*log(n)
        gain_needed = math.log(64)
        bigger.log_likelihood = base.log_likelihood + gain_needed + 0.01
        assert bic(bigger) < bic(base)
        bigger.log_likelihood = base.log_likelihood + gain_needed - 0.01
        assert bic(bigger) > bic(base)


class TestWald:
    def test_zero_coefficient_p_one(self):
        model = _toy_model(0.0, [0.0])
        assert wald_pvalues(model)[1] == 1.0

    def test_reported_row(self):
        model = _toy_model(0.0, [-15.47])
        model.standard_errors = np.array([1.0, 4.23])
        p = wald_pvalues(model)[1]
        assert p == pytest.approx(0.000255, abs=5e-6)

    def test_z_1_96(self):
        model = _toy_model(0.0, [1.96])
        p = wald_pvalues(model)[1]
        assert p == pytest.approx(0.05, abs=2e-4)

    def test_intercept_row(self):
        model = _toy_model(-1.12, [])
        model.standard_errors = np.array([2.32])
        assert wald_pvalues(model)[0] == pytest.approx(0.63, abs=5e-3)

    def test_equals_the_scipy_stats_form_bit_for_bit(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            X, y = synth.logistic_toy(rng, n=40, p=4)
            model = fit(X, y, PriorConfig(scale_factor=0.6))
            model.coef[0] = 0.0  # a zero estimate: p is 1
            model.standard_errors[2] = np.nan  # a nonzero estimate without an SE: p is NaN
            got = wald_pvalues(model)
            assert got[1] == 1.0 and math.isnan(got[2])
            assert got.tobytes() == oracles.wald_pvalues_oracle(model).tobytes()


class TestHosmerLemeshow:
    def test_exact_frequencies_statistic_zero(self):
        probs = np.repeat([0.2, 0.5, 0.8], 10)
        y = np.concatenate([[1, 1] + [0] * 8, [1] * 5 + [0] * 5, [1] * 8 + [0, 0]])
        res = hosmer_lemeshow(probs, y, 3)
        assert res.statistic == pytest.approx(0.0, abs=1e-12)
        assert res.p_value == pytest.approx(1.0)

    def test_calibrated_simulation_mean_p_half(self):
        # the g - 2 degrees of freedom presume probabilities fitted on the
        # same data, so the oracle simulates, fits, then tests
        rng = np.random.default_rng(9)
        prior = PriorConfig(scale_factor=1e5, intercept_scale=1e5)
        ps = []
        for _ in range(150):
            X, y = synth.logistic_toy(rng, n=400, p=2, signal=(0.8, -0.6), intercept=0.2)
            model = fit(X, y, prior)
            probs = predict_prob(model, X)
            ps.append(hosmer_lemeshow(probs, y, 10).p_value)
        assert abs(float(np.mean(ps)) - 0.5) < 0.08

    def test_miscalibrated_detected(self):
        rng = np.random.default_rng(10)
        probs = rng.uniform(0.1, 0.9, size=2000)
        y = (rng.random(2000) < np.clip(probs + 0.15, 0, 1)).astype(float)
        res = hosmer_lemeshow(probs, y, 10)
        assert res.p_value < 0.01

    def test_p_value_equals_the_scipy_stats_form_bit_for_bit(self):
        rng = np.random.default_rng(48)
        for g in range(3, 40):
            # probabilities inside (0, 1) merge no group, so df is g - 2
            probs = rng.uniform(0.01, 0.99, size=3 * g)
            y = (rng.random(3 * g) < probs).astype(float)
            res = hosmer_lemeshow(probs, y, g)
            want = oracles.hosmer_pvalue_oracle(res.statistic, g - 2)
            assert np.float64(res.p_value).tobytes() == np.float64(want).tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            hosmer_lemeshow([0.5] * 10, [1] * 10, 2)
        with pytest.raises(ValueError):
            hosmer_lemeshow([0.5] * 3, [1, 0, 1], 5)
