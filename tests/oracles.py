"""Brute-force reference computations the tests check against.

Everything here recomputes feature definitions directly with plain loops,
independently of the library's vectorized implementations, and runs BIC
subset selection one candidate fit at a time.  The scalar segment
primitives (windows, relative transform, overlap) state the paper's
definitions one segment at a time, and the scalar **kern parser reads every
token afresh on a Fraction clock.
"""

import logging
import math
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np
from scipy.stats import chi2, norm

from quartet_attrib import glm
from quartet_attrib.features import (
    DevelopmentThresholds,
    LengthMismatch,
    SegmentConfig,
    _INT64_EXACT,
    feature_names,
)
from quartet_attrib.score import (
    VOICE_ORDER,
    EncodedMovement,
    MalformedKern,
    MissingMeter,
    Voice,
    WrongVoiceCount,
    pitch_class_of,
)
from quartet_attrib.selection import (
    ACCEPT_TOL,
    SelectionResult,
    TraceEntry,
    _as_array,
)
from synth import Event, events, track_from_events

MODE_OF_CLASS = (0, 1, 2, 1, 2, 0, 3, 0, 1, 2, 1, 2)
MODE_LABELS = ("perfect", "minor", "major", "dimaug")
VOICES = ("Violin1", "Violin2", "Viola", "Cello")
PAIRS = (
    ("Violin1", "Violin2"),
    ("Violin1", "Viola"),
    ("Violin1", "Cello"),
    ("Violin2", "Viola"),
    ("Violin2", "Cello"),
    ("Viola", "Cello"),
)


# ---------------------------------------------------------------------------
# Scalar segment primitives: the paper's definitions, one segment at a time;
# pitch segments hold integers 1..12 and duration segments exact Fractions,
# so equality checks are exact.
# ---------------------------------------------------------------------------


class RestInSegment(ValueError):
    """A pitch segment contains a rest (value 0)."""


class Segment(NamedTuple):
    values: tuple
    start: int  # 1-based position of the first note in the voice sequence


def windows(seq: Sequence, m: int) -> list[Segment]:
    """All max(0, M - m + 1) length-m windows of seq with 1-based starts."""
    if m < 2:
        raise ValueError("segment length must be >= 2")
    vals = tuple(seq)
    n = len(vals)
    return [Segment(vals[i : i + m], i + 1) for i in range(n - m + 1)]


def location(segment_order: int, segment_count: int) -> Fraction:
    """Relative position of a segment: its order over the total count."""
    if not 1 <= segment_order <= segment_count:
        raise ValueError(
            f"segment order {segment_order} outside 1..{segment_count}"
        )
    return Fraction(segment_order, segment_count)


def relative_transform(segment: Segment) -> Segment:
    """Re-express a pitch-class segment relative to its first note.

    output[k] = ((input[k] - input[0]) mod 12) + 1, so the first value is
    always 1 and transposed copies of a phrase compare equal.
    """
    vals = segment.values
    if any(v == 0 for v in vals):
        raise RestInSegment("pitch segment contains a rest")
    first = vals[0]
    return Segment(tuple((v - first) % 12 + 1 for v in vals), segment.start)


def fraction_overlap(a: Segment, b: Segment) -> Fraction:
    """Proportion of positions at which two equal-length segments agree.

    Pitch segments must be relative-transformed by the caller; duration
    values compare as exact rationals.
    """
    if len(a.values) != len(b.values):
        raise LengthMismatch(f"segment lengths differ: {len(a.values)} vs {len(b.values)}")
    m = len(a.values)
    matches = sum(1 for x, y in zip(a.values, b.values) if x == y)
    return Fraction(matches, m)


def overlap_count(fractions: Sequence, t) -> int:
    """Number of overlap fractions at or above the threshold t."""
    if not 0 <= t <= 1:
        raise ValueError("threshold must lie in [0, 1]")
    return sum(1 for f in fractions if f >= t)


# ---------------------------------------------------------------------------
# Feature families
# ---------------------------------------------------------------------------


def notes_of(movement, voice):
    track = [t for t in movement.voices if t.voice.value == voice][0]
    return [e for e in events(track) if not e.is_rest]


def duration_columns_oracle(track):
    """(denominator, numerators, floats) of a voice's note durations as
    features._voice_data reads them, built from Fractions: each duration
    reduced to its integer ratio, put over the lcm of the reduced
    denominators, the numerators in int64 while the voice stays within
    _INT64_EXACT, else Python ints."""
    fracs = [Fraction(d, track.onset_den) for p, d in zip(track.pitches, track.durations) if p]
    den = math.lcm(*(f.denominator for f in fracs))
    nums = [f.numerator * (den // f.denominator) for f in fracs]
    exact = len(nums) * max([den, *nums]) <= _INT64_EXACT
    floats = [f.numerator / f.denominator for f in fracs]
    return den, np.array(nums, dtype=np.int64 if exact else object), np.array(floats, dtype=float)


def mean(xs):
    return math.fsum(xs) / len(xs)


def sample_sd(xs):
    if len(xs) < 2:
        return float("nan")
    mu = mean(xs)
    return math.sqrt(math.fsum((x - mu) ** 2 for x in xs) / (len(xs) - 1))


def rel_transform(values):
    return [(v - values[0]) % 12 + 1 for v in values]


def basic_summary_oracle(movement):
    out = {}
    for v in VOICES:
        notes = notes_of(movement, v)
        durs = [float(e.duration) for e in notes]
        pcs = [e.pitch_class for e in notes]
        out[f"basic|note_count|{v}"] = float(len(notes))
        out[f"basic|mean_duration|{v}"] = mean(durs)
        out[f"basic|sd_duration|{v}"] = sample_sd(durs)
        out[f"basic|mean_pitch|{v}"] = mean(pcs)
        out[f"basic|sd_pitch|{v}"] = sample_sd(pcs)
    starts = []
    for track in movement.voices:
        starts.append({e.onset: e.is_rest for e in events(track)})
    union = set()
    for d in starts:
        union |= set(d)
    all_note = sum(1 for t in union if all(t in d and not d[t] for d in starts))
    all_rest = sum(1 for t in union if all(t in d and d[t] for d in starts))
    out["basic|simultaneous_notes"] = all_note / len(union)
    out["basic|simultaneous_rests"] = all_rest / len(union)
    return out


def pairwise_oracle(movement, signed=True):
    out = {}
    per = {}
    for v in VOICES:
        notes = notes_of(movement, v)
        ap = [e.absolute_pitch for e in notes]
        du = [float(e.duration) for e in notes]
        if len(ap) < 2:
            per[v] = None
            continue
        steps = [b - a for a, b in zip(ap, ap[1:])]
        dsteps = [b - a for a, b in zip(du, du[1:])]
        if not signed:
            steps_stat = [abs(s) for s in steps]
            dsteps_stat = [abs(s) for s in dsteps]
        else:
            steps_stat, dsteps_stat = steps, dsteps
        n = len(steps)
        cls = [abs(s) % 12 for s in steps]
        cls_prop = [sum(1 for c in cls if c == k) / n for k in range(12)]
        for k in range(12):
            out[f"interval|class_{k}|{v}"] = cls_prop[k]
        out[f"interval|sign_ascending|{v}"] = sum(1 for s in steps if s > 0) / n
        out[f"interval|sign_descending|{v}"] = sum(1 for s in steps if s < 0) / n
        out[f"interval|sign_constant|{v}"] = sum(1 for s in steps if s == 0) / n
        for mi, lbl in enumerate(MODE_LABELS):
            out[f"interval|mode_{lbl}|{v}"] = sum(
                cls_prop[k] for k in range(12) if MODE_OF_CLASS[k] == mi
            )
        out[f"interval|mean_semitone|{v}"] = mean(steps_stat)
        out[f"interval|sd_semitone|{v}"] = sample_sd(steps_stat)
        out[f"interval|mean_duration_diff|{v}"] = mean(dsteps_stat)
        out[f"interval|sd_duration_diff|{v}"] = sample_sd(dsteps_stat)
        per[v] = (cls_prop, out[f"interval|mean_semitone|{v}"], out[f"interval|sd_semitone|{v}"])
    for a, b in PAIRS:
        pair = f"{a}-{b}"
        if per.get(a) is None or per.get(b) is None:
            continue
        pa, pb = per[a], per[b]
        out[f"interval|pair_mean_semitone|{pair}"] = pa[1] - pb[1]
        out[f"interval|pair_sd_semitone|{pair}"] = pa[2] - pb[2]
        for k in range(12):
            out[f"interval|pair_class_{k}|{pair}"] = pa[0][k] - pb[0][k]
    return out


def minor3_oracle(movement, lengths):
    out = {}
    for v in VOICES:
        ap = [e.absolute_pitch for e in notes_of(movement, v)]
        for m in lengths:
            base = f"|{v}|m={m}"
            if len(ap) < m:
                continue
            counts = []
            for s in range(len(ap) - m + 1):
                win = ap[s : s + m]
                counts.append(sum(1 for x in win[1:] if abs(x - win[0]) % 12 == 3))
            props = [c / (m - 1) for c in counts]
            out[f"interval|minor3_min{base}"] = min(props)
            out[f"interval|minor3_q1{base}"] = float(np.percentile(props, 25))
            out[f"interval|minor3_median{base}"] = float(np.percentile(props, 50))
            out[f"interval|minor3_q3{base}"] = float(np.percentile(props, 75))
            out[f"interval|minor3_max{base}"] = max(props)
            out[f"interval|minor3_mean{base}"] = mean(props)
            out[f"interval|minor3_sd{base}"] = sample_sd(props)
            out[f"interval|minor3_count_zero{base}"] = float(sum(1 for c in counts if c == 0))
            out[f"interval|minor3_count_high{base}"] = float(
                sum(1 for c in counts if Fraction(c, m - 1) >= Fraction(3, 5))
            )
    return out


def _overlap_oracle(windows_list, last_start, m):
    """Opening window vs windows starting 2..last_start; ties take the later one."""
    if last_start < 2:
        return None
    opening = windows_list[0]
    fracs = []
    for s in range(2, last_start + 1):
        win = windows_list[s - 1]
        fracs.append(Fraction(sum(1 for a, b in zip(opening, win) if a == b), m))
    best = max(fracs)
    best_start = max(s for s, f in zip(range(2, last_start + 1), fracs) if f == best)
    total = len(windows_list)
    return {
        "max_overlap": float(best),
        "max_location": best_start / total,
        "count_t0.7": float(sum(1 for f in fracs if f >= Fraction(7, 10))),
        "count_t0.9": float(sum(1 for f in fracs if f >= Fraction(9, 10))),
        "count_t1": float(sum(1 for f in fracs if f >= 1)),
    }


def _voice_windows(movement, voice, track, m):
    notes = notes_of(movement, voice)
    if track == "pitch":
        seq = [e.pitch_class for e in notes]
    else:
        seq = [e.duration for e in notes]  # exact Fractions
    if len(seq) < m:
        return None
    wins = [seq[s : s + m] for s in range(len(seq) - m + 1)]
    if track == "pitch":
        wins = [rel_transform(w) for w in wins]
    return wins


def exposition_oracle(movement, lengths):
    out = {}
    for v in VOICES:
        n_notes = len(notes_of(movement, v))
        half = (n_notes + 1) // 2
        for m in lengths:
            for track in ("pitch", "duration"):
                wins = _voice_windows(movement, v, track, m)
                if wins is None:
                    continue
                stats = _overlap_oracle(wins, min(half, len(wins)), m)
                if stats is None:
                    continue
                for k, val in stats.items():
                    out[f"exposition|{k}|{track}|{v}|m={m}"] = val
    return out


def recapitulation_oracle(movement, lengths):
    out = {}
    for v in VOICES:
        for m in lengths:
            for track in ("pitch", "duration"):
                wins = _voice_windows(movement, v, track, m)
                if wins is None:
                    continue
                stats = _overlap_oracle(wins, len(wins), m)
                if stats is None:
                    continue
                for k, val in stats.items():
                    out[f"recapitulation|{k}|{track}|{v}|m={m}"] = val
    return out


def exact_sample_sd(values):
    """Sample sd of exact (int or Fraction) values: sqrt of the exact variance."""
    m = len(values)
    s1 = sum(values)
    s2 = sum(x * x for x in values)
    var = (m * s2 - s1 * s1) / (m * (m - 1))  # exact until the final conversion
    return math.sqrt(var)


def development_oracle(movement, thresholds, lengths):
    out = {}
    for v in VOICES:
        notes = notes_of(movement, v)
        for m in lengths:
            for track in ("pitch", "duration"):
                base = f"|{track}|{v}|m={m}"
                if track == "pitch":
                    seq = [e.pitch_class for e in notes]
                else:
                    seq = [e.duration for e in notes]  # exact Fractions
                if len(seq) < m:
                    continue
                sds = []
                for s in range(len(seq) - m + 1):
                    win = seq[s : s + m]
                    if track == "pitch":
                        win = rel_transform(win)
                    sds.append(exact_sample_sd(win))
                best = max(sds)
                first = min(i for i, x in enumerate(sds) if x == best)
                out[f"development|max_sd{base}"] = best
                out[f"development|max_location{base}"] = (first + 1) / len(sds)
                thr = thresholds.get(v, m, track)
                for qi, q in enumerate(thresholds.quantiles):
                    out[f"development|count_q{q:.2f}{base}"] = float(
                        sum(1 for x in sds if x >= thr[qi])
                    )
    return out


def weighted_quantile_oracle(values, weights, q):
    """Prefix-sum scan for the lower weighted quantile."""
    pairs = sorted(zip(values, weights), key=lambda p: p[0])
    total = math.fsum(w for _, w in pairs)
    acc = 0.0
    i = 0
    while i < len(pairs):
        v = pairs[i][0]
        while i < len(pairs) and pairs[i][0] == v:
            acc += pairs[i][1]
            i += 1
        if acc / total >= q:
            return v
    return pairs[-1][0]


def weighted_quantile_loop_oracle(values, weights, q):
    """The lower weighted quantile as a plain loop that adds the weights one
    at a time in sorted order and takes the running sum as the total; this
    is the rounding the library promises, where weighted_quantile_oracle's
    fsum total can tip a share that lands exactly on q."""
    pairs = sorted(zip(values, weights), key=lambda p: p[0])
    total = 0.0
    for _, w in pairs:
        total += w
    cum = 0.0
    for i, (v, w) in enumerate(pairs):
        cum += w
        if i + 1 < len(pairs) and pairs[i + 1][0] == v:
            continue  # advance through ties
        if cum / total >= q:
            return v
    return pairs[-1][0]


def thresholds_from_json(payload):
    """DevelopmentThresholds back from its thresholds.json form."""
    quantiles = tuple(float(q) for q in payload["quantiles"])
    if quantiles != DevelopmentThresholds.quantiles:
        raise ValueError(f"thresholds.json quantiles {quantiles} are not the library's")
    table = {}
    for track, by_m in payload["thresholds"].items():
        for m, by_voice in by_m.items():
            for voice, by_q in by_voice.items():
                table[(voice, int(m), track)] = tuple(
                    float(by_q[f"{q:.2f}"]) for q in quantiles
                )
    return DevelopmentThresholds(table=table)


# ---------------------------------------------------------------------------
# Per-length window reference: a voice's notes read from its columns, with
# each length-m window matrix built on its own and summed again, where the
# library reads every length from one prefix-sum table per voice and track,
# built once for the whole length set.
# ---------------------------------------------------------------------------


def _sliding(arr, m):
    return np.lib.stride_tricks.sliding_window_view(arr, m)


def relative_windows(pcs, m):
    """Windows of pitch classes, each re-expressed relative to its first note."""
    w = _sliding(pcs, m)
    return (w - w[:, :1]) % 12 + 1


def note_columns(part, track):
    """A voice's notes on ``track`` and their denominator: the pitch classes
    1..12 over 1, or the duration numerators over the denominator of
    duration_columns_oracle."""
    if track == "pitch":
        return np.array([(p - 1) % 12 + 1 for p in part.pitches if p], dtype=np.int64), 1
    den, nums, _ = duration_columns_oracle(part)
    return nums, den


def track_windows(part, track, m):
    """The voice's length-m windows of ``track``; None when the voice is
    shorter."""
    seq, _ = note_columns(part, track)
    if len(seq) < m:
        return None
    return relative_windows(seq, m) if track == "pitch" else _sliding(seq, m)


def exact_window_sd(windows, denominator=1):
    """Sample sd per integer window via the exact variance identity: the
    variance of k/denominator values is (m * sum(k^2) - (sum k)^2) over
    (denominator^2 * m * (m - 1)), computed in integers and rounded once."""
    m = windows.shape[1]
    s1 = windows.sum(axis=1)
    s2 = (windows * windows).sum(axis=1)
    var = (m * s2 - s1 * s1) / (denominator * denominator * m * (m - 1))
    return np.sqrt(var.astype(float))


def window_sds_reference(part, track, m):
    """The sds of the track's length-m windows; None when the voice is shorter."""
    w = track_windows(part, track, m)
    return None if w is None else exact_window_sd(w, note_columns(part, track)[1])


def overlap_matches_reference(part, track, m, last_start):
    """Matches of the opening length-m window with the windows starting at
    2..last_start."""
    w = track_windows(part, track, m)
    return (w[1:last_start] == w[0]).sum(axis=1)


def minor_third_counts_reference(vd, m):
    """Per length-m window, its notes a minor-third class from its first."""
    w = _sliding(vd.abs_pitch, m)
    return (np.abs(w[:, 1:] - w[:, :1]) % 12 == 3).sum(axis=1)


# ---------------------------------------------------------------------------
# Development pool, one row at a time: each movement's window sds kept as its
# own array, thresholds from the rows' concatenated sds, counts per row.
# ---------------------------------------------------------------------------


def window_sds_by_row(movements, lengths):
    """(voice, m, track) -> one array of window sds per movement, in the
    library pool's key order; empty where the voice is shorter than m."""
    parts = [{part.voice.value: part for part in mv.voices} for mv in movements]
    out = {}
    for v in VOICES:
        for m in lengths:
            for track in ("pitch", "duration"):
                sds = [window_sds_reference(p[v], track, m) for p in parts]
                out[(v, m, track)] = [np.empty(0) if a is None else a for a in sds]
    return out


def pool_thresholds_oracle(by_row, quantiles, reading, rows):
    """Thresholds per key from the sds of ``rows``, concatenated in row
    order, each weighted by one over its row's window count: the prose
    reading is the running-sum weighted quantile of the sds, the literal one
    np.percentile of sd times weight; NaN when no kept row has a window."""
    table = {}
    for key, arrays in by_row.items():
        vals = [x for i in rows for x in arrays[i].tolist()]
        wts = [1.0 / arrays[i].size for i in rows for _ in range(arrays[i].size)]
        if not vals:
            table[key] = tuple(float("nan") for _ in quantiles)
        elif reading == "prose":
            table[key] = tuple(weighted_quantile_loop_oracle(vals, wts, q) for q in quantiles)
        else:
            scaled = np.array(vals) * np.array(wts)
            table[key] = tuple(float(np.percentile(scaled, 100.0 * q)) for q in quantiles)
    return table


def count_labels(lengths):
    """The registry's development count labels, in registry order: the
    column order of ``DevelopmentSdPool.count_columns``."""
    return [
        fn.label
        for fn in feature_names(SegmentConfig(tuple(lengths)))
        if fn.category == "development" and fn.descriptor.startswith("count_")
    ]


def pool_counts_oracle(by_row, thresholds):
    """The count block: per key and quantile, each row's number of sds at or
    above the threshold; NaN for a row without windows or a NaN threshold."""
    n = len(next(iter(by_row.values())))
    out = np.full((n, len(by_row) * len(thresholds.quantiles)), np.nan)
    col = 0
    for key, arrays in by_row.items():
        for t in thresholds.get(*key):
            if not math.isnan(t):
                for i, a in enumerate(arrays):
                    if a.size:
                        out[i, col] = float(sum(1 for x in a.tolist() if x >= t))
            col += 1
    return out


def objective_path(solve, iterations):
    """The penalized objective (log-likelihood minus log prior) of one
    Cauchy-prior solve after each of its first `iterations` iterations.
    solve(k) re-solves with max_iter=k, which runs exactly the first k
    iterations of a longer solve, and returns (beta, log-likelihood, prior
    scales), intercept first."""
    path = []
    for k in range(iterations + 1):
        beta, ll, scales = solve(k)
        path.append(float(ll - np.log1p((beta / scales) ** 2).sum()))
    return tuple(path)


def fit_solve(X, y, prior=glm.PriorConfig(), start=None, max_iter=200):
    """glm.fit's posterior-mode solve, from start (zeros by default) for at
    most max_iter iterations: its one-member design stack and prior scales
    passed to ``glm.posterior_modes``.  Returns the Modes and the scales."""
    X, y = glm.check_data(X, y)
    d = X.shape[1]
    design, sds = glm.design_rows(X)
    scales, _ = glm.prior_scales(sds, prior)
    stack = glm.design_stack(design, np.arange(d + 1)[None])
    start = np.zeros(d + 1) if start is None else np.asarray(start, dtype=float)
    return glm.posterior_modes(stack, y, scales[None], start[None], max_iter=max_iter), scales


def fit_objective_path(X, y, prior=glm.PriorConfig(), start=None, max_iter=200):
    """``objective_path`` of fit_solve(X, y, prior, start, max_iter)."""

    def solve(k):
        modes, scales = fit_solve(X, y, prior, start, k)
        return modes.beta[0], modes.log_likelihood[0], scales

    return objective_path(solve, fit_solve(X, y, prior, start, max_iter)[0].iterations[0])


def _fit_subset(X, y, cols, prior, warm):
    """Coefficients and log-likelihood of subset cols solved as glm.fit
    solves it, started from warm = (intercept, {column: coefficient}) with
    0 for a column warm lacks."""
    intercept, coef = warm
    start = [intercept] + [coef.get(j, 0.0) for j in cols]
    modes, _ = fit_solve(X[:, cols], y, prior, start)
    return modes.beta[0], modes.log_likelihood[0]


def icm_select_oracle(
    matrix,
    y,
    prior=glm.PriorConfig(),
    restarts=10,
    seed=0,
    bic_form="paper",
    trace=False,
):
    """icm_select one candidate at a time, each a warm-started solve of its
    own; each restart ends in one cold glm.fit, the winner's reported."""
    X, labels = _as_array(matrix)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if n != len(y):
        raise ValueError("matrix and y disagree on n")
    if restarts < 1:
        raise ValueError("need at least one restart")

    best_key = None
    best_state = None
    restart_bics = []

    for k in range(restarts):
        rng = np.random.default_rng([seed, k])
        order = rng.permutation(p)
        selected = set()
        current_bic = float("inf")
        current = (0.0, {})  # the current model's intercept and coefficients
        cache = {}
        entries = []
        sweeps = 0
        quiet = 0

        while quiet < 2:
            sweeps += 1
            changed = False
            for j in order:
                cand = selected | {j} if j not in selected else selected - {j}
                key = tuple(sorted(cand))
                cand_bic = cache.get(key)
                cand_fit = None
                if cand_bic is None:
                    cand_fit = _fit_subset(X, y, key, prior, current)
                    cand_bic = float(glm.bic_value(cand_fit[1], len(key), n, bic_form))
                    cache[key] = cand_bic
                if cand_bic < current_bic - ACCEPT_TOL:
                    action = "add" if j not in selected else "remove"
                    if trace:
                        entries.append(
                            TraceEntry(
                                restart=k,
                                sweep=sweeps,
                                feature=labels[j],
                                action=action,
                                bic_before=current_bic,
                                bic_after=cand_bic,
                            )
                        )
                    selected = cand
                    current_bic = cand_bic
                    if cand_fit is None:
                        cand_fit = _fit_subset(X, y, key, prior, current)
                    beta = cand_fit[0]
                    current = (beta[0], dict(zip(key, beta[1:])))
                    changed = True
            quiet = 0 if changed else quiet + 1

        final_cols = tuple(sorted(selected))
        final_model = glm.fit(
            X[:, final_cols], y, prior, feature_names=[labels[j] for j in final_cols]
        )
        final_bic = glm.bic(final_model, form=bic_form)
        restart_bics.append(final_bic)
        key = (final_bic, k)
        if best_key is None or key < best_key:
            best_key = key
            best_state = {
                "cols": final_cols,
                "model": final_model,
                "bic": final_bic,
                "restart": k,
                "passes": sweeps,
                "trace": tuple(entries) if trace else None,
            }

    return SelectionResult(
        selected=tuple(labels[j] for j in best_state["cols"]),
        bic=best_state["bic"],
        restart_index=best_state["restart"],
        orderings_seed=seed,
        passes=best_state["passes"],
        model=best_state["model"],
        restart_bics=tuple(restart_bics),
        trace=best_state["trace"],
    )


def replay_trace(trace):
    """Reapply a restart's accepted moves; returns the final selected set."""
    current = []
    for entry in trace:
        if entry.action == "add":
            current.append(entry.feature)
        else:
            current.remove(entry.feature)
    return tuple(sorted(current))


def wald_pvalues_oracle(model):
    """``glm.wald_pvalues`` through scipy.stats: 2 * norm.sf(|z|), 1 for a zero estimate."""
    est = np.concatenate(([model.intercept], model.coef))
    with np.errstate(invalid="ignore", divide="ignore"):
        z = est / model.standard_errors
    return np.where(est == 0, 1.0, 2.0 * norm.sf(np.abs(z)))


def hosmer_pvalue_oracle(statistic, df):
    """The Hosmer-Lemeshow p-value through scipy.stats: chi2.sf(statistic, df)."""
    return float(chi2.sf(statistic, df))


# ---------------------------------------------------------------------------
# Scalar **kern parser: every token read with its own regexes, every voice's
# clock a running Fraction.  The library parser must give the same movement,
# the same warnings and the same KernError as this one.
# ---------------------------------------------------------------------------

_oracle_log = logging.getLogger("quartet_attrib.score")

_METER_RE = re.compile(r"^\*M(\d+)/(\d+)")
_DUR_RE = re.compile(r"(\d+)(?:%(\d+))?(\.*)")
_PITCH_RE = re.compile(r"([a-gA-G]+)(#+|-+|n)?")
_PC_BASE = {"c": 0, "d": 2, "e": 4, "f": 5, "g": 7, "a": 9, "b": 11}
_MANIPULATORS = ("*-", "*^", "*v", "*x", "*+")
_CLOCK_DIGITS = 1000
_MAX_BARS = 10**100


def _number(digits, lineno):
    try:
        return int(digits)
    except ValueError:
        raise MalformedKern(f"line {lineno}: {len(digits)}-digit number too long to read") from None


def _token_duration(sub, lineno):
    m = _DUR_RE.search(sub)
    if m is None:
        return None
    digits, denom, dots = m.group(1), m.group(2), m.group(3)
    if set(digits) == {"0"}:
        num, den = 2 ** len(digits), 1
    else:
        num, den = _number(denom or "1", lineno), _number(digits, lineno)
    k = len(dots)
    return num * (2 ** (k + 1) - 1), den * 2**k


def _token_pitch(sub, lineno):
    m = _PITCH_RE.search(sub)
    if m is None:
        raise MalformedKern(f"line {lineno}: no pitch in token {sub!r}")
    letters, acc = m.group(1), m.group(2) or ""
    if len(set(letters.lower())) != 1:
        raise MalformedKern(f"line {lineno}: mixed pitch letters in {sub!r}")
    letter = letters[0]
    octave = 3 + len(letters) if letter.islower() else 4 - len(letters)
    midi = 12 * (octave + 1) + _PC_BASE[letter.lower()]
    if acc.startswith("#"):
        midi += len(acc)
    elif acc.startswith("-"):
        midi -= len(acc)
    absolute = midi - 11
    if not 1 <= absolute <= 132:
        raise MalformedKern(f"line {lineno}: pitch {sub!r} outside the 1..132 range")
    return absolute


@dataclass
class _OracleVoice:
    meter: tuple | None = None
    events: list = field(default_factory=list)
    clock: Fraction = Fraction(0)
    den: int = 1  # the lcm of the voice's bar-fraction denominators so far
    bar_start: Fraction = Fraction(0)
    tie: Event | None = None


def _flush_tie(st, src):
    tie, st.tie = st.tie, None
    if tie.duration > 1:
        _oracle_log.warning(
            "%s: tied note of duration %s exceeds one bar (stored unclamped)", src, tie.duration
        )
    st.events.append(tie)


def _process_token(tok, st, bar_index, lineno, src):
    """Consume one data token for one voice.  Returns True if time advanced."""
    if "q" in tok or "Q" in tok:
        return False
    notes, rest, zero = [], None, False
    for sub in (s for s in tok.split(" ") if s):
        dur = _token_duration(sub, lineno)
        zero = zero or (dur is not None and not dur[0])
        if "r" in sub:
            if dur is None:
                raise MalformedKern(f"line {lineno}: rest without duration in {tok!r}")
            if rest is None:
                rest = (dur, sub)
            continue
        if dur is None:
            raise MalformedKern(f"line {lineno}: note without duration in {tok!r}")
        notes.append((_token_pitch(sub, lineno), dur, sub))
    if notes:
        notes.sort(key=lambda n: (n[0], Fraction(*n[1]), n[2]))
        pitch, (num, den), sub = notes[-1]
    elif rest is not None:
        (num, den), sub = rest
        pitch = 0
    else:
        raise MalformedKern(f"line {lineno}: unparseable token {tok!r}")

    if st.meter is None:
        raise MissingMeter(f"line {lineno}: note before any time signature")
    if zero:
        raise MalformedKern(f"line {lineno}: zero duration in {tok!r}")
    frac = Fraction(num * st.meter[1], den * st.meter[0])
    onset = st.clock
    st.clock = onset + frac
    st.den = math.lcm(st.den, frac.denominator)
    if st.den >= 10**_CLOCK_DIGITS:
        raise MalformedKern(f"line {lineno}: voice clock needs more than {_CLOCK_DIGITS} digits")
    if st.clock >= _MAX_BARS:
        raise MalformedKern(f"line {lineno}: voice lasts 10**100 bars or more")
    opens, closes, cont = "[" in sub, "]" in sub, "_" in sub

    if st.tie is not None:
        if (cont or closes) and pitch == st.tie.absolute_pitch:
            st.tie = replace(st.tie, duration=st.tie.duration + frac)
            if closes:
                _flush_tie(st, src)
            return True
        _oracle_log.warning("%s: line %d: tie broken by a non-matching event", src, lineno)
        _flush_tie(st, src)

    event = Event(pitch, pitch_class_of(pitch), frac, bar_index, onset)
    if opens and not closes:
        st.tie = event
    else:
        if (cont or closes) and not opens:
            _oracle_log.warning("%s: line %d: stray tie marker", src, lineno)
        st.events.append(event)
    return True


def _apply_manipulators(tokens, cols):
    out, i = [], 0
    while i < len(tokens):
        tok, spine = tokens[i], cols[i]
        if tok == "*-":
            i += 1
        elif tok == "*^":
            out.extend([spine, spine])
            i += 1
        elif tok == "*v":
            j = i
            while j < len(tokens) and tokens[j] == "*v" and cols[j] == spine:
                j += 1
            out.append(spine)
            i = max(j, i + 1)
        elif tok == "*x":
            if i + 1 < len(tokens) and tokens[i + 1] == "*x":
                out.extend([cols[i + 1], cols[i]])
                i += 2
            else:
                out.append(spine)
                i += 1
        elif tok == "*+":
            out.extend([spine, None])
            i += 1
        else:
            out.append(spine)
            i += 1
    return out


def parse_kern_oracle(file_content, meta=None):
    """Reference for score.parse_kern, line by line and token by token."""
    src = meta.source_path if meta is not None else "<string>"
    cols, voices = None, []
    bar_index, seen_any_event, events_in_bar = 0, False, 0

    for lineno, line in enumerate(file_content.splitlines(), start=1):
        if not line.strip() or line.startswith("!"):
            continue
        tokens = line.split("\t")
        if cols is None:
            if all(t.startswith("**") for t in tokens):
                cols, nkern = [], 0
                for t in tokens:
                    if t == "**kern":
                        cols.append(nkern)
                        nkern += 1
                    else:
                        cols.append(None)
                if nkern != 4:
                    raise WrongVoiceCount(f"expected 4 **kern spines, found {nkern}")
                voices = [_OracleVoice() for _ in range(4)]
                continue
            raise MalformedKern(f"line {lineno}: content before the **kern header")
        if len(tokens) != len(cols):
            raise MalformedKern(f"line {lineno}: expected {len(cols)} spines, got {len(tokens)}")
        # each voice reads the leftmost column of its kern spine, for notes and meters
        first_col = {}
        for ci, spine in enumerate(cols):
            if spine is not None and spine not in first_col:
                first_col[spine] = ci

        if all(t.startswith("*") for t in tokens):
            # meters apply to the spines as they stand before this line's manipulators
            for spine, ci in sorted(first_col.items()):
                tok = tokens[ci]
                m = _METER_RE.match(tok)
                if m:
                    num, den = _number(m.group(1), lineno), _number(m.group(2), lineno)
                    if not num or not den:
                        raise MalformedKern(f"line {lineno}: meter {tok!r} has a zero term")
                    voices[spine].meter = (num, den)
            if any(t in _MANIPULATORS for t in tokens):
                cols = _apply_manipulators(tokens, cols)
                if not any(c is not None for c in cols):
                    break
            continue

        if tokens[0].startswith("="):
            if not seen_any_event:
                if bar_index == 0:
                    bar_index = 1
                continue
            if events_in_bar == 0:
                continue
            for spine, st in enumerate(voices):
                length = st.clock - st.bar_start
                if bar_index > 0 and length not in (0, 1):
                    _oracle_log.warning(
                        "%s: bar %d of voice %d sums to %s, expected 1",
                        src,
                        bar_index,
                        spine,
                        length,
                    )
                st.bar_start = st.clock
            bar_index += 1
            events_in_bar = 0
            continue

        for spine in range(4):
            ci = first_col.get(spine)
            if ci is None or tokens[ci] in (".", ""):
                continue
            if _process_token(tokens[ci], voices[spine], bar_index, lineno, src):
                events_in_bar += 1
                seen_any_event = True

    if cols is None:
        raise MalformedKern("no **kern exclusive interpretation found")
    for st in voices:
        if st.tie is not None:
            _oracle_log.warning("%s: unterminated tie at end of file", src)
            _flush_tie(st, src)
    by_voice = dict(zip((Voice.CELLO, Voice.VIOLA, Voice.VIOLIN2, Voice.VIOLIN1), voices))
    tracks = tuple(track_from_events(v, by_voice[v].events) for v in VOICE_ORDER)
    return EncodedMovement(meta=meta, voices=tracks)
