"""Cauchy-prior logistic regression.

The model is fit at its posterior mode under independent Cauchy priors:
scale xi / (2 * sd(x_j)) on each coefficient and a wider scale on the
intercept.  Fitting uses iteratively reweighted least squares augmented
with an expectation step that treats each Cauchy prior as a normal scale
mixture; every iteration is guarded so the penalized objective never
decreases.  The heavy-tailed prior keeps estimates finite under complete
separation while shrinking mostly-irrelevant coefficients toward zero.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
from numpy.linalg import _umath_linalg
from scipy.special import chdtrc, expit, ndtr

logger = logging.getLogger(__name__)


class FeatureMisalignment(ValueError):
    """Prediction input does not match the model's feature names."""


@dataclass(frozen=True)
class PriorConfig:
    """Cauchy prior scales: xi / (2 * sd) per feature, a flat-ish intercept."""

    scale_factor: float = 2.5
    intercept_scale: float = 10.0

    def __post_init__(self):
        for scale in (self.scale_factor, self.intercept_scale):
            if not (math.isfinite(scale) and scale > 0):
                raise ValueError(f"prior scales must be finite and positive, got {scale}")


@dataclass
class FittedModel:
    feature_names: tuple[str, ...]
    intercept: float
    coef: np.ndarray
    standard_errors: np.ndarray  # length d + 1, intercept first
    log_likelihood: float  # unpenalized, at the posterior mode
    n: int
    d: int
    converged: bool
    iterations: int
    prior: PriorConfig
    prior_scales: np.ndarray = field(repr=False, default=None)
    degenerate: bool = False

    def to_json(self) -> dict:
        """The fields, each array as a list."""
        return {
            k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in asdict(self).items()
        }


def check_data(X, y) -> tuple[np.ndarray, np.ndarray]:
    """Float copies of a design X (n x d; a vector is one column) and a 0/1 y."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    y = np.asarray(y, dtype=float)
    if X.shape[0] != len(y):
        raise ValueError("X and y disagree on n")
    if len(y) < 1:
        raise ValueError("need at least one observation")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("y must be binary 0/1")
    return X, y


def prior_scales(sds: np.ndarray, prior: PriorConfig) -> tuple[np.ndarray, np.ndarray]:
    """Prior scales, intercept first, from feature sds; and which sds were
    zero or not finite (those features are scaled as if their sd were 1)."""
    bad = ~(np.isfinite(sds) & (sds > 0))
    sds = np.where(bad, 1.0, sds)
    return np.concatenate(([prior.intercept_scale], prior.scale_factor / (2.0 * sds))), bad


class Modes(NamedTuple):
    """Posterior modes of a stack of K fits, one row per member."""

    beta: np.ndarray  # K x (d + 1), intercept first
    log_likelihood: np.ndarray  # unpenalized, at the mode
    converged: np.ndarray
    iterations: np.ndarray
    singular: np.ndarray  # a Newton system had to be jittered


#: Line-search step sizes, in the blocks solved together: 2^-h for h < 60.
_STEP_BLOCKS = tuple(
    np.ldexp(1.0, -np.arange(a, b)) for a, b in ((0, 1), (1, 4), (4, 12), (12, 28), (28, 60))
)


def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.matmul(A, x[:, :, None])[:, :, 0]


def _log_likelihoods(eta: np.ndarray, y: np.ndarray) -> np.ndarray:
    y_eta = np.matmul(y[None, None, :], eta[:, :, None])[:, 0, 0]
    return y_eta - np.logaddexp(0.0, eta).sum(axis=1)


def _log_priors(beta: np.ndarray, scales: np.ndarray) -> np.ndarray:
    return np.log1p((beta / scales) ** 2).sum(axis=1)


def _with_diagonal(A: np.ndarray, diag: np.ndarray) -> np.ndarray:
    D = np.zeros_like(A)
    r = np.arange(A.shape[-1])
    D[:, r, r] = diag
    return A + D


def _positive_definite(H: np.ndarray) -> np.ndarray:
    # np.linalg.cholesky raises for the whole stack if one member fails;
    # the gufunc behind it fills a failed member with NaN instead.
    with np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore"):
        L = _umath_linalg.cholesky_lo(H, signature="d->d")
    return ~np.isnan(L).all(axis=(1, 2))


def _newton_deltas(H: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve each H_k delta_k = grad_k; a singular H_k is solved again with
    1e-8 added to its diagonal and flagged."""
    singular = np.zeros(len(H), dtype=bool)
    try:
        return np.linalg.solve(H, grad[:, :, None])[:, :, 0], singular
    except np.linalg.LinAlgError:
        pass
    delta = np.empty_like(grad)
    for k in range(len(H)):  # only to find the singular members
        try:
            delta[k] = np.linalg.solve(H[k], grad[k])
        except np.linalg.LinAlgError:
            singular[k] = True
            delta[k] = np.linalg.solve(H[k] + 1e-8 * np.eye(H.shape[-1]), grad[k])
    return delta, singular


def design_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[1 | X]^T in C order and the column sds of X taken along its rows;
    neither depends on the memory layout of X."""
    n, d = X.shape
    design = np.ascontiguousarray(np.vstack([np.ones(n), X.T]))
    return design, design[1:].std(axis=1, ddof=1) if n > 1 else np.zeros(d)


def design_stack(design: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """K x n x (d + 1) designs from the rows of [1 | X]^T, rows[k] picking
    member k's; each laid out in C order up to one feature and in Fortran
    order beyond.  BLAS sums in an order that follows the layout, so every
    design, ``fit``'s included, is built here."""
    Xt = design[rows].transpose(0, 2, 1)
    return Xt.copy() if rows.shape[1] <= 2 else Xt


def posterior_modes(
    Xt: np.ndarray,
    y: np.ndarray,
    scales: np.ndarray,
    start: np.ndarray,
    max_iter: int = 200,
) -> Modes:
    """Posterior modes of K Cauchy-prior logits that share y, solved together.

    Xt is K x n x (d + 1) with the intercept column first, scales and start
    are K x (d + 1).  Every member runs the iteration of ``fit``: a Newton
    step on the exact Hessian when it is positive definite, else on the EM
    surrogate, each with up to 60 step halvings until the penalized
    objective does not decrease.  A member stops when no step is found,
    when it converges (no coefficient moves by 1e-8 or more in a full step,
    or at a flat objective or a gradient below 1e-8), or after max_iter
    iterations.

    Each member's result is bit-identical to solving it alone, in a stack
    of one with the same memory layout (see ``design_stack``): every product
    is a stacked matmul or LAPACK call, which sums as the unstacked call
    does, and every reduction runs along one member's own row.
    """
    K, n, m = Xt.shape
    beta = np.array(start, dtype=float)
    eta = _matvec(Xt, beta)
    ll = _log_likelihoods(eta, y)
    obj = ll - _log_priors(beta, scales)
    converged = np.zeros(K, dtype=bool)
    iterations = np.zeros(K, dtype=int)
    singular = np.zeros(K, dtype=bool)
    live = np.arange(K)

    for it in range(1, max_iter + 1):
        if not live.size:
            break
        iterations[live] = it
        X, b, e, s, o = Xt[live], beta[live], eta[live], scales[live], obj[live]
        XT = X.transpose(0, 2, 1)
        p = expit(e)
        w = p * (1.0 - p)
        s2b2 = s**2 + b**2
        grad = _matvec(XT, y - p) - 2.0 * b / s2b2
        xtwx = np.matmul(XT, X * w[:, :, None])

        # Exact curvature of the log prior is negative in the tails, where
        # the Hessian may be indefinite; it is only used when positive
        # definite, otherwise the EM surrogate (always positive) steps.
        exact_curv = 2.0 * (s**2 - b**2) / s2b2**2
        em_curv = 2.0 / s2b2

        found = np.zeros(len(live), dtype=bool)
        new_b, new_e = np.empty_like(b), np.empty_like(e)
        new_ll, new_o, alpha = np.empty_like(o), np.empty_like(o), np.empty_like(o)
        for curv, need_pd in ((exact_curv, True), (em_curv, False)):
            idx = np.flatnonzero(~found)
            if not idx.size:
                break
            H = _with_diagonal(xtwx[idx], curv[idx])
            if need_pd:
                pd = _positive_definite(H)
                idx, H = idx[pd], H[pd]
            if not idx.size:
                continue
            delta, sing = _newton_deltas(H, grad[idx])
            singular[live[idx[sing]]] = True
            finite = np.isfinite(delta).all(axis=1)
            idx, delta = idx[finite], delta[finite]
            # step sizes 1, 1/2, ... 2^-59 are tried in blocks; each member
            # takes the first (largest) one that does not lower its objective
            pending = np.arange(len(idx))
            for block in _STEP_BLOCKS:
                if not pending.size:
                    break
                rows = idx[pending]
                cand = b[rows][:, None, :] + block[None, :, None] * delta[pending][:, None, :]
                cand_eta = np.matmul(X[rows][:, None], cand[..., None])[..., 0]
                cand_ll = _log_likelihoods(cand_eta.reshape(-1, n), y).reshape(len(rows), -1)
                cand_prior = _log_priors(cand.reshape(-1, m), s[rows].repeat(len(block), axis=0))
                cand_obj = cand_ll - cand_prior.reshape(len(rows), -1)
                ok = cand_obj >= o[rows][:, None]
                hit = ok.any(axis=1)
                first = ok.argmax(axis=1)[hit]
                at, take = (np.flatnonzero(hit), first), rows[hit]
                new_b[take], new_e[take] = cand[at], cand_eta[at]
                new_ll[take], new_o[take], alpha[take] = cand_ll[at], cand_obj[at], block[first]
                found[take] = True
                pending = pending[~hit]

        # a member with no ascent direction left at floating-point
        # resolution stops unconverged
        idx = np.flatnonzero(found)
        members = live[idx]
        new_b, new_e, new_ll, new_o = new_b[idx], new_e[idx], new_ll[idx], new_o[idx]
        alpha = alpha[idx]
        change = np.max(np.abs(new_b - b[idx]), axis=1)
        grad_small = np.max(np.abs(grad[idx]), axis=1) < 1e-8
        stalled = new_o == o[idx]  # objective flat at float resolution
        beta[members], eta[members], ll[members], obj[members] = new_b, new_e, new_ll, new_o
        done = (change < 1e-8) & ((alpha == 1.0) | grad_small | stalled)
        converged[members[done]] = True
        live = members[~done]

    return Modes(
        beta=beta,
        log_likelihood=ll,
        converged=converged,
        iterations=iterations,
        singular=singular,
    )


def fit(
    X,
    y,
    prior: PriorConfig = PriorConfig(),
    feature_names: Sequence[str] | None = None,
) -> FittedModel:
    """Posterior mode of Cauchy-prior logistic regression, with standard errors.

    X is n x d (d may be 0 for an intercept-only model), y is 0/1.  Each
    feature's prior scale is xi / (2 * sd(x_j)); the intercept gets the
    configured intercept scale.  The mode is ``posterior_modes``' cold
    solve (zero start, at most 200 iterations) of a stack of one; the last
    iterate is returned with converged=False if the iterations run out.
    """
    X, y = check_data(X, y)
    n, d = X.shape
    if feature_names is None:
        feature_names = tuple(f"x{j}" for j in range(d))
    feature_names = tuple(feature_names)
    if len(feature_names) != d:
        raise ValueError("feature_names length does not match X")

    design, sds = design_rows(X)
    scales, bad_sds = prior_scales(sds, prior)
    stack = design_stack(design, np.arange(d + 1)[None])
    modes = posterior_modes(stack, y, scales[None], np.zeros((1, d + 1)))
    Xt = stack[0]
    beta = modes.beta[0]
    converged = bool(modes.converged[0])
    iterations = int(modes.iterations[0])
    degenerate = bool(bad_sds.any() or modes.singular[0])
    if not converged:
        logger.warning("fit did not converge in %d iterations", iterations)

    p = expit(Xt @ beta)
    w = p * (1.0 - p)
    exact_curv = 2.0 * (scales**2 - beta**2) / (scales**2 + beta**2) ** 2
    hessian = Xt.T @ (Xt * w[:, None]) + np.diag(exact_curv)
    try:
        cov = np.linalg.inv(hessian)
    except np.linalg.LinAlgError:
        degenerate = True
        cov = np.linalg.pinv(hessian)
    diag = np.diag(cov)
    ses = np.sqrt(np.where(diag > 0, diag, np.nan))

    return FittedModel(
        feature_names=feature_names,
        intercept=float(beta[0]),
        coef=beta[1:].copy(),
        standard_errors=ses,
        log_likelihood=float(modes.log_likelihood[0]),
        n=n,
        d=d,
        converged=converged,
        iterations=iterations,
        prior=prior,
        prior_scales=scales,
        degenerate=degenerate,
    )


def predict_prob(model: FittedModel, X, feature_names: Sequence[str] | None = None):
    """Estimated class-1 probability, strictly inside (0, 1).

    X is a single feature vector or an array of rows aligned with the
    model's feature names; pass feature_names to have the alignment checked.
    """
    if feature_names is not None and tuple(feature_names) != model.feature_names:
        raise FeatureMisalignment(
            f"model expects features {model.feature_names}, got {tuple(feature_names)}"
        )
    X = np.asarray(X, dtype=float)
    single = X.ndim == 1
    if single:
        X = X.reshape(1, -1)
    if X.shape[1] != model.d:
        raise FeatureMisalignment(f"expected {model.d} features, got {X.shape[1]}")
    eta = model.intercept + X @ model.coef
    p = expit(eta)
    p = np.clip(p, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    return float(p[0]) if single else p


#: The BIC forms by their dimension penalty c: "paper" doubles it (the form
#: this pipeline selects with), "textbook" is the standard c = 1.
BIC_FORMS = {"paper": 2.0, "textbook": 1.0}


def bic(model: FittedModel, form: str = "paper") -> float:
    """Model-selection criterion: -2 L + c (d + 1) log n, c from ``BIC_FORMS``."""
    return bic_value(model.log_likelihood, model.d, model.n, form)


def bic_value(log_likelihood, d: int, n: int, form: str = "paper"):
    """``bic`` from a log-likelihood (a float or an array of them)."""
    if form not in BIC_FORMS:
        raise ValueError(f"form must be one of {tuple(BIC_FORMS)}")
    return -2.0 * log_likelihood + BIC_FORMS[form] * (d + 1) * math.log(n)


def wald_pvalues(model: FittedModel) -> np.ndarray:
    """Two-sided normal p-values for each coefficient, intercept first."""
    est = np.concatenate(([model.intercept], model.coef))
    with np.errstate(invalid="ignore", divide="ignore"):
        z = est / model.standard_errors
    out = 2.0 * ndtr(-np.abs(z))
    return np.where(est == 0, 1.0, out)


class HosmerLemeshowResult(NamedTuple):
    statistic: float
    p_value: float


def hosmer_lemeshow(probs, y, g: int) -> HosmerLemeshowResult:
    """Goodness-of-fit test over g probability-sorted groups.

    Observations are sorted by estimated probability and split into g
    near-equal groups; the statistic compares observed and expected outcome
    counts per group and is referred to chi-squared with g - 2 degrees of
    freedom.  Groups with a zero expected count are merged into a neighbour.
    """
    probs = np.asarray(probs, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(probs)
    if g < 3:
        raise ValueError("need at least 3 groups")
    if n < g:
        raise ValueError("need at least as many observations as groups")
    order = np.argsort(probs, kind="stable")
    groups = np.array_split(order, g)

    merged: list[np.ndarray] = []
    carry: np.ndarray | None = None
    for idx in groups:
        cur = idx if carry is None else np.concatenate([carry, idx])
        e1 = probs[cur].sum()
        e0 = len(cur) - e1
        if e1 <= 0 or e0 <= 0:
            carry = cur
            continue
        merged.append(cur)
        carry = None
    if carry is not None and merged:
        merged[-1] = np.concatenate([merged[-1], carry])
    if len(merged) < len(groups):
        logger.warning(
            "merged %d degenerate groups in the Hosmer-Lemeshow test",
            len(groups) - len(merged),
        )

    stat = 0.0
    for idx in merged:
        e1 = probs[idx].sum()
        e0 = len(idx) - e1
        o1 = y[idx].sum()
        o0 = len(idx) - o1
        stat += (o1 - e1) ** 2 / e1 + (o0 - e0) ** 2 / e0
    df = len(merged) - 2
    p_value = float(chdtrc(df, stat)) if df >= 1 else float("nan")
    return HosmerLemeshowResult(statistic=float(stat), p_value=p_value)
