import itertools
import math

import numpy as np
import pytest

import synth
from quartet_attrib import glm, selection
from quartet_attrib.selection import icm_select, replay_trace


PRIOR = glm.PriorConfig(scale_factor=0.6)


def exhaustive_best(X, y, prior=PRIOR, max_size=None):
    p = X.shape[1]
    max_size = p if max_size is None else max_size
    best = (math.inf, ())
    for size in range(max_size + 1):
        for cols in itertools.combinations(range(p), size):
            model = glm.fit(X[:, cols], y, prior=prior)
            b = glm.bic(model)
            if b < best[0]:
                best = (b, cols)
    return best


def forward_stepwise(X, y, prior=PRIOR):
    p = X.shape[1]
    selected: list[int] = []
    current = glm.bic(glm.fit(X[:, []], y, prior=prior))
    while True:
        best_j, best_b = None, current
        for j in range(p):
            if j in selected:
                continue
            cand = sorted(selected + [j])
            b = glm.bic(glm.fit(X[:, cand], y, prior=prior))
            if b < best_b - 1e-9:
                best_j, best_b = j, b
        if best_j is None:
            return current, tuple(sorted(selected))
        selected.append(best_j)
        current = best_b


class TestPlantedSignal:
    def test_single_separating_column_found(self):
        rng = np.random.default_rng(100)
        n = 200
        y = np.array([0.0, 1.0] * (n // 2))
        signal = y * 2 - 1 + rng.normal(scale=0.2, size=n)
        noise = rng.normal(size=(n, 5))
        X = np.column_stack([signal, noise])
        hits = 0
        for seed in range(10):
            res = icm_select(X, y, prior=PRIOR, restarts=3, seed=seed)
            if res.selected == ("x0",):
                hits += 1
        assert hits >= 9
        # the exhaustive optimum over small subsets is exactly that column
        best_bic, best_cols = exhaustive_best(X, y, max_size=2)
        assert best_cols == (0,)

    def test_empty_matrix_gives_intercept_model(self):
        y = np.array([0.0, 1.0] * 10)
        res = icm_select(np.empty((20, 0)), y, prior=PRIOR, restarts=2, seed=0)
        assert res.selected == ()
        want = glm.bic(glm.fit(np.empty((20, 0)), y, prior=PRIOR))
        assert res.bic == pytest.approx(want, abs=1e-12)


class TestAgainstExhaustive:
    def test_matches_exhaustive_on_most_toys(self):
        rng = np.random.default_rng(7)
        wins = 0
        trials = 12
        for _ in range(trials):
            X, y = synth.logistic_toy(rng, n=60, p=8)
            res = icm_select(X, y, prior=PRIOR, restarts=10, seed=1)
            best_bic, _ = exhaustive_best(X, y)
            assert res.bic >= best_bic - 1e-9  # never better than the optimum
            if res.bic <= best_bic + 1e-6:
                wins += 1
        assert wins >= 0.8 * trials

    def test_never_worse_than_forward_stepwise(self):
        rng = np.random.default_rng(8)
        for _ in range(12):
            X, y = synth.logistic_toy(rng, n=60, p=8)
            res = icm_select(X, y, prior=PRIOR, restarts=10, seed=2)
            fwd_bic, _ = forward_stepwise(X, y)
            assert res.bic <= fwd_bic + 1e-9


class TestDeterminismAndTrace:
    def test_identical_inputs_identical_results(self):
        rng = np.random.default_rng(9)
        X, y = synth.logistic_toy(rng, n=50, p=6)
        a = icm_select(X, y, prior=PRIOR, restarts=5, seed=11, trace=True)
        b = icm_select(X, y, prior=PRIOR, restarts=5, seed=11, trace=True)
        assert a.selected == b.selected
        assert a.bic == b.bic
        assert a.restart_index == b.restart_index
        assert a.trace == b.trace

    def test_trace_replay_reproduces_selection(self):
        rng = np.random.default_rng(10)
        X, y = synth.logistic_toy(rng, n=60, p=6)
        res = icm_select(X, y, prior=PRIOR, restarts=4, seed=3, trace=True)
        assert replay_trace(res.trace) == tuple(sorted(res.selected))

    def test_trace_bic_strictly_decreasing(self):
        rng = np.random.default_rng(11)
        X, y = synth.logistic_toy(rng, n=60, p=6)
        res = icm_select(X, y, prior=PRIOR, restarts=4, seed=4, trace=True)
        afters = [t.bic_after for t in res.trace]
        assert all(b < a for a, b in zip(afters, afters[1:])) or len(afters) <= 1
        for t in res.trace:
            assert t.bic_after < t.bic_before

    def test_no_accepted_moves_empty_trace(self):
        y = np.array([0.0, 1.0] * 10)
        res = icm_select(np.empty((20, 0)), y, prior=PRIOR, restarts=1, seed=0, trace=True)
        assert res.trace == ()
        assert res.selected == ()


class TestLocalOptimality:
    def test_no_single_move_improves(self):
        rng = np.random.default_rng(12)
        X, y = synth.logistic_toy(rng, n=60, p=8)
        res = icm_select(X, y, prior=PRIOR, restarts=6, seed=5)
        labels = [f"x{j}" for j in range(8)]
        chosen = {labels.index(s) for s in res.selected}
        for j in range(8):
            cand = sorted(chosen ^ {j})
            b = glm.bic(glm.fit(X[:, cand], y, prior=PRIOR))
            assert b >= res.bic - 1e-9

    def test_restart_bics_reported(self):
        rng = np.random.default_rng(13)
        X, y = synth.logistic_toy(rng, n=50, p=5)
        res = icm_select(X, y, prior=PRIOR, restarts=7, seed=6)
        assert len(res.restart_bics) == 7
        assert res.bic == min(res.restart_bics)
        assert res.restart_index == res.restart_bics.index(min(res.restart_bics))

    def test_selected_bic_recomputable(self):
        rng = np.random.default_rng(14)
        X, y = synth.logistic_toy(rng, n=60, p=6)
        res = icm_select(X, y, prior=PRIOR, restarts=3, seed=7)
        labels = [f"x{j}" for j in range(6)]
        cols = [labels.index(s) for s in res.selected]
        fresh = glm.bic(glm.fit(X[:, cols], y, prior=PRIOR))
        assert res.bic == pytest.approx(fresh, abs=1e-9)


class TestOptions:
    def test_bic_form_changes_selection_pressure(self):
        rng = np.random.default_rng(15)
        X, y = synth.logistic_toy(rng, n=80, p=6, signal=(1.2, -0.9, 0.7))
        paper = icm_select(X, y, prior=PRIOR, restarts=5, seed=8, bic_form="paper")
        textbook = icm_select(X, y, prior=PRIOR, restarts=5, seed=8, bic_form="textbook")
        assert len(textbook.selected) >= len(paper.selected)

    def test_restart_validation(self):
        with pytest.raises(ValueError):
            icm_select(np.zeros((4, 2)), np.array([0.0, 1, 0, 1]), restarts=0)


def _oracle_cases():
    """Seeded matrices for the oracle comparison: a separating column, a
    constant column, duplicated columns, a column with a missing value,
    tiny n and an empty matrix."""
    rng = np.random.default_rng(18)
    for case in range(14):
        n = (2, 3, 12, 25, 40, 60, 90)[case % 7]
        p = 0 if case == 5 else int(rng.integers(3, 30))
        X = rng.normal(size=(n, p)) * rng.uniform(0.2, 3.0, size=p)
        y = (rng.uniform(size=n) < 0.5).astype(float)
        y[:2] = (0.0, 1.0)
        if p >= 3:
            X[:, 0] = 2 * y - 1 + rng.normal(scale=0.05, size=n)  # separates y
            X[:, 1] = 1.5  # constant
        if p >= 6 and case % 2:
            X[:, 4] = X[:, 5]
        if p >= 3 and case % 3 == 0:
            X[0, 2] = np.nan  # its fits never converge and its BIC never wins
        kwargs = dict(
            prior=glm.PriorConfig(scale_factor=(0.6, 2.5)[case % 2]),
            restarts=1 + case % 3,
            seed=case,
            bic_form=("paper", "textbook")[(case // 2) % 2],
            trace=case % 4 != 3,
        )
        yield X, y, kwargs


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_batched_search_matches_one_fit_per_candidate_oracle(monkeypatch):
    import oracles

    seen = {"nonconverged": 0, "em_fallback": 0}
    real_modes, real_pd = glm.posterior_modes, glm._positive_definite

    def modes(*args, **kwargs):
        out = real_modes(*args, **kwargs)
        seen["nonconverged"] += int((~out.converged).sum())
        return out

    def positive_definite(H):
        out = real_pd(H)
        seen["em_fallback"] += int((~out).sum())
        return out

    monkeypatch.setattr(glm, "posterior_modes", modes)
    monkeypatch.setattr(glm, "_positive_definite", positive_definite)
    for X, y, kwargs in _oracle_cases():
        want = oracles.icm_select_oracle(X, y, **kwargs)
        got = icm_select(X, y, **kwargs)
        assert got.selected == want.selected
        assert got.restart_bics == want.restart_bics
        assert got.passes == want.passes
        assert got.trace == want.trace
        assert (got.bic, got.restart_index) == (want.bic, want.restart_index)
    # the cases reach the solver's fallback paths, not just plain Newton steps
    assert seen["nonconverged"] > 0 and seen["em_fallback"] > 0, seen


def test_first_move_of_each_restart_costs_one_fit(monkeypatch):
    """A restart starts at BIC inf, where any finite candidate is accepted,
    so its first candidate is solved alone instead of in a full chunk."""
    rng = np.random.default_rng(19)
    X, y = synth.logistic_toy(rng, n=50, p=40)
    calls = []  # (subsets solved together, started cold) per solver call
    real_fit_subsets = selection._fit_subsets

    def fit_subsets(subsets, design, y, scales, warm, bic_form):
        calls.append((len(subsets), not warm.any()))
        return real_fit_subsets(subsets, design, y, scales, warm, bic_form)

    monkeypatch.setattr(selection, "_fit_subsets", fit_subsets)
    restarts = 3
    icm_select(X, y, prior=PRIOR, restarts=restarts, seed=4)
    # the cold solves alternate: a restart's first move, then its final subset
    cold = [i for i, (_, is_cold) in enumerate(calls) if is_cold]
    assert len(cold) == 2 * restarts and cold[0] == 0 and cold[-1] == len(calls) - 1
    assert [calls[i][0] for i in cold] == [1] * (2 * restarts)
    # later moves are still solved in chunks
    assert max(size for size, _ in calls) > 1


@pytest.mark.parametrize("bic_form", ["paper", "textbook"])
def test_one_reporting_fit_per_selection(monkeypatch, bic_form):
    """Every restart's BIC comes from the stacked solver; only the winning
    subset gets a glm.fit, whose BIC is the reported one bit for bit."""
    rng = np.random.default_rng(20)
    X, y = synth.logistic_toy(rng, n=50, p=12)
    fits = []
    real_fit = glm.fit

    def fit(*args, **kwargs):
        fits.append(args)
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(glm, "fit", fit)
    res = icm_select(X, y, prior=PRIOR, restarts=4, seed=2, bic_form=bic_form)
    assert len(fits) == 1
    assert res.model.feature_names == res.selected
    assert res.bic.hex() == glm.bic(res.model, form=bic_form).hex()
    assert res.bic == res.restart_bics[res.restart_index] == min(res.restart_bics)
