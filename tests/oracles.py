"""Brute-force reference computations the tests check against.

Everything here recomputes feature definitions directly with plain loops,
independently of the library's vectorized implementations, and runs BIC
subset selection one candidate fit at a time.  The scalar segment
primitives (windows, relative transform, overlap) state the paper's
definitions one segment at a time.
"""

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from quartet_attrib import glm
from quartet_attrib.features import LengthMismatch
from quartet_attrib.selection import (
    ACCEPT_TOL,
    SelectionResult,
    TraceEntry,
    _as_array,
)

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
    return [e for e in track.events if not e.is_rest]


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
        starts.append({e.onset: e.is_rest for e in track.events})
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


def _fit_subset(X, y, labels, cols, prior, warm):
    names = tuple(labels[j] for j in cols)
    start = None
    if warm is not None:
        prev = dict(zip(warm.feature_names, warm.coef))
        start = np.array([warm.intercept] + [prev.get(nm, 0.0) for nm in names])
    return glm.fit(X[:, cols], y, prior=prior, feature_names=names, start=start)


def icm_select_oracle(
    matrix,
    y,
    prior=glm.PriorConfig(),
    restarts=10,
    seed=0,
    bic_form="paper",
    trace=False,
):
    """icm_select one candidate at a time, each a warm-started glm.fit."""
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
        current_model = None
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
                cand_model = None
                if cand_bic is None:
                    cand_model = _fit_subset(X, y, labels, key, prior, current_model)
                    cand_bic = glm.bic(cand_model, form=bic_form)
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
                    if cand_model is None:
                        cand_model = _fit_subset(X, y, labels, key, prior, current_model)
                    current_model = cand_model
                    changed = True
            quiet = 0 if changed else quiet + 1

        final_cols = tuple(sorted(selected))
        final_model = _fit_subset(X, y, labels, final_cols, prior, None)
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
