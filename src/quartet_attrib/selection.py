"""Iterative conditional minimization of BIC over feature subsets.

Each restart sweeps the columns in an independent random order, tentatively
adding absent features and removing present ones, accepting any move that
strictly lowers the BIC; a restart stops once two consecutive sweeps make
no change.  The best restart (lowest BIC, ties to the lowest restart index)
wins.  Results are deterministic given (matrix, y, prior, restarts, seed).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import glm
from .features import FeatureMatrix

#: A move must beat the current BIC by more than this to be accepted,
#: preventing oscillation on floating-point ties.
ACCEPT_TOL = 1e-9

#: Candidate moves solved together.  An accepted move discards the fits after
#: it in its chunk; 64 keeps stacks small, and on the benchmark's cv-loo and
#: audit inputs (seeds 101 and 202) 8-12% of the solved fits were discarded.
#: On a paper-scale fold (n = 283, p = 933, 3 restarts) it is 31%: 8793
#: members solved where a one-at-a-time search solves 6099.  There CHUNK 32
#: took 0.97-1.02 s against 1.07-1.22 s, and CHUNK 128 slowed the fold to
#: 1.5-1.8 s while making cv-loo 7-14% faster (2-core x86-64 host); a
#: change waits for a paper-scale benchmark workload.
#: A restart's first move is solved alone, since any finite BIC is accepted.
CHUNK = 64


@dataclass(frozen=True)
class TraceEntry:
    restart: int
    sweep: int
    feature: str
    action: str  # "add" or "remove"
    bic_before: float
    bic_after: float


@dataclass
class SelectionResult:
    selected: tuple[str, ...]  # in matrix column order
    bic: float
    restart_index: int
    orderings_seed: int
    passes: int
    model: glm.FittedModel
    restart_bics: tuple[float, ...]
    trace: tuple[TraceEntry, ...] | None = None

    def to_json(self) -> dict:
        """The fields, ``model`` as its own JSON; no ``trace`` when it is None."""
        out = {**asdict(self), "model": self.model.to_json()}
        if self.trace is None:
            del out["trace"]
        return out


def _as_array(matrix) -> tuple[np.ndarray, tuple[str, ...]]:
    if isinstance(matrix, FeatureMatrix):
        return matrix.values, matrix.labels
    X = np.asarray(matrix, dtype=float)
    if X.ndim != 2:
        raise ValueError("matrix must be 2-D")
    return X, tuple(f"x{j}" for j in range(X.shape[1]))


def icm_select(
    matrix,
    y,
    prior: glm.PriorConfig = glm.PriorConfig(),
    restarts: int = 10,
    seed: int = 0,
    bic_form: str = "paper",
    trace: bool = False,
) -> SelectionResult:
    """Random-order coordinate search for the lowest-BIC feature subset.

    matrix is a FeatureMatrix (already variance-filtered) or a plain 2-D
    array.  Candidate fits are warm-started from the current model; each
    restart ends in one cold ``glm.fit`` of its final subset, whose BIC is
    the restart's, so it is recomputable from the subset alone.  The
    winning restart's fit is the reported model.
    An empty selection (intercept-only model) is a legal outcome.

    The moves of a sweep are tried in chunks of ``CHUNK``: the candidates of
    a chunk that are not cached are solved together, and the first one in
    order whose BIC beats the current BIC is accepted.  The fits after it
    are dropped and the sweep resumes right after it, so every decision is
    the one a candidate-by-candidate search would make.

    A restart stops after its first sweep that changes nothing, and
    ``passes`` counts the confirming quiet sweep without running it: that
    sweep would find every candidate cached and accept nothing.
    """
    X, labels = _as_array(matrix)
    if restarts < 1:
        raise ValueError("need at least one restart")
    X, y = glm.check_data(X, y)
    p = X.shape[1]
    # design rows [1 | X]^T, gathered per candidate; their sds are the
    # column sds glm.fit computes for any subset
    design, sds = glm.design_rows(X)
    scales, _ = glm.prior_scales(sds, prior)

    states = []  # (bic, restart, model, passes, trace) of each restart
    for k in range(restarts):
        rng = np.random.default_rng([seed, k])
        order = rng.permutation(p).tolist()  # Python ints: cheaper keys
        selected: set[int] = set()
        current_bic = float("inf")
        beta = np.zeros(p + 1)  # current model's coefficients by design row
        cache: dict[tuple[int, ...], float] = {}
        entries: list[TraceEntry] = []
        sweeps = 0
        changed = True

        while changed:
            sweeps += 1
            changed = False
            pos = 0
            while pos < p:
                # at BIC inf any finite candidate wins, so the first is solved alone
                size = CHUNK if current_bic < float("inf") else 1
                chunk = order[pos : pos + size]
                keys = [tuple(sorted(selected ^ {j})) for j in chunk]
                fresh = [key for key in keys if key not in cache]
                fits = _fit_subsets(fresh, design, y, scales, beta, bic_form)
                for i, (j, key) in enumerate(zip(chunk, keys)):
                    cand_bic, coef = fits[key] if key in fits else (cache[key], None)
                    cache[key] = cand_bic
                    if not cand_bic < current_bic - ACCEPT_TOL:
                        continue
                    # never a cache hit: a cached BIC lost to an earlier, higher current_bic
                    assert coef is not None
                    if trace:
                        entries.append(
                            TraceEntry(
                                restart=k,
                                sweep=sweeps,
                                feature=labels[j],
                                action="add" if j not in selected else "remove",
                                bic_before=current_bic,
                                bic_after=cand_bic,
                            )
                        )
                    selected = set(key)
                    current_bic = cand_bic
                    beta = np.zeros(p + 1)
                    beta[[0, *(c + 1 for c in key)]] = coef  # the intercept, then each column
                    changed = True
                    break
                # resume after the last candidate tried; fits after an accepted one are dropped
                pos += i + 1

        cols = tuple(sorted(selected))
        model = glm.fit(X[:, cols], y, prior=prior, feature_names=[labels[j] for j in cols])
        # passes counts the confirming quiet sweep, which is not run
        states.append(
            (glm.bic(model, bic_form), k, model, sweeps + 1, tuple(entries) if trace else None)
        )

    bic, restart, model, passes, winner_trace = min(states, key=lambda s: s[:2])
    return SelectionResult(
        selected=model.feature_names,
        bic=bic,
        restart_index=restart,
        orderings_seed=seed,
        passes=passes,
        model=model,
        restart_bics=tuple(s[0] for s in states),
        trace=winner_trace,
    )


def _fit_subsets(
    subsets: list[tuple[int, ...]],
    design: np.ndarray,
    y: np.ndarray,
    scales: np.ndarray,
    warm: np.ndarray,
    bic_form: str,
) -> dict[tuple[int, ...], tuple[float, np.ndarray]]:
    """BIC and coefficients of each subset's posterior mode, warm-started
    from warm, by subset; subsets of one size are solved as one stack."""
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for cols in subsets:
        by_size.setdefault(len(cols), []).append(cols)
    out = {}
    for d, members in by_size.items():
        rows = np.zeros((len(members), d + 1), dtype=int)  # the intercept, then each column
        rows[:, 1:] = np.array(members, dtype=int) + 1
        modes = glm.posterior_modes(glm.design_stack(design, rows), y, scales[rows], warm[rows])
        bics = glm.bic_value(modes.log_likelihood, d, len(y), bic_form)
        out.update(zip(members, zip(map(float, bics), modes.beta)))
    return out
