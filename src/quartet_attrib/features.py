"""Movement-level feature extraction and corpus feature-matrix assembly.

Five feature families are computed per movement: basic summary, interval,
exposition, development and recapitulation.  The full set holds 1182
features (22 + 392 + 240 + 288 + 240).  Sonata-style segment features are
computed for segment lengths 8..18 on both pitch and duration tracks;
pitch segments are first re-expressed relative to their opening note so
transposed phrases compare equal.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .score import (
    Composer,
    EncodedMovement,
    MovementMeta,
    VOICE_ORDER,
    onset_grid,
)

CATEGORIES = ("basic", "interval", "exposition", "development", "recapitulation")
TRACKS = ("pitch", "duration")
VOICE_LABELS = tuple(v.value for v in VOICE_ORDER)
VOICE_PAIRS = (
    ("Violin1", "Violin2"),
    ("Violin1", "Viola"),
    ("Violin1", "Cello"),
    ("Violin2", "Viola"),
    ("Violin2", "Cello"),
    ("Viola", "Cello"),
)

SIGN_LABELS = ("ascending", "descending", "constant")
MODE_LABELS = ("perfect", "minor", "major", "dimaug")
# interval classes 0..11 map to P1 m2 M2 m3 M3 P4 d5/A4 P5 m6 M6 m7 M7
MODE_OF_CLASS = (0, 1, 2, 1, 2, 0, 3, 0, 1, 2, 1, 2)

#: Overlap-count thresholds for exposition and recapitulation features.
OVERLAP_THRESHOLDS = (Fraction(7, 10), Fraction(9, 10), Fraction(1))
#: Cut for the "high proportion of minor thirds" segment count.
MINOR_THIRD_HIGH = Fraction(3, 5)
#: Quantiles defining the development standard-deviation thresholds.
DEV_QUANTILES = (0.70, 0.80, 0.90, 0.95)

THRESHOLD_READINGS = ("prose", "literal")
DEFAULT_SEGMENT_LENGTHS = (8, 10, 12, 14, 16, 18)


class EmptyVoice(ValueError):
    """A voice contains no notes, so its summaries are undefined."""


class LengthMismatch(ValueError):
    """Two sequences that must align have different lengths."""


class EmptyInput(ValueError):
    """An aggregate was requested over an empty collection."""


@dataclass(frozen=True)
class SegmentConfig:
    lengths: tuple[int, ...] = DEFAULT_SEGMENT_LENGTHS

    def __post_init__(self):
        if not self.lengths:
            raise ValueError("at least one segment length is required")
        if any(m < 2 for m in self.lengths):
            raise ValueError("segment lengths must be >= 2")
        if len(set(self.lengths)) != len(self.lengths):
            raise ValueError("segment lengths must be distinct")


# ---------------------------------------------------------------------------
# Feature naming
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeatureName:
    category: str
    descriptor: str
    voice: str | None = None  # voice name or "VoiceA-VoiceB" pair
    track: str | None = None
    segment_length: int | None = None

    @property
    def label(self) -> str:
        parts = [self.category, self.descriptor]
        if self.track is not None:
            parts.append(self.track)
        if self.voice is not None:
            parts.append(self.voice)
        if self.segment_length is not None:
            parts.append(f"m={self.segment_length}")
        return "|".join(parts)

    def __str__(self) -> str:
        return self.label


def parse_label(label: str) -> FeatureName:
    parts = label.split("|")
    if len(parts) < 2 or parts[0] not in CATEGORIES:
        raise ValueError(f"unparseable feature label {label!r}")
    category, descriptor = parts[0], parts[1]
    voice = track = None
    segment_length = None
    for token in parts[2:]:
        if token.startswith("m="):
            segment_length = int(token[2:])
        elif token in TRACKS:
            track = token
        else:
            voice = token
    return FeatureName(
        category=category,
        descriptor=descriptor,
        voice=voice,
        track=track,
        segment_length=segment_length,
    )


_BASIC_DESCRIPTORS = ("note_count", "mean_duration", "sd_duration", "mean_pitch", "sd_pitch")
_MINOR3_DESCRIPTORS = (
    "minor3_min",
    "minor3_q1",
    "minor3_median",
    "minor3_q3",
    "minor3_max",
    "minor3_mean",
    "minor3_sd",
    "minor3_count_zero",
    "minor3_count_high",
)


@lru_cache(maxsize=8)
def _feature_names_cached(lengths: tuple[int, ...]):
    names: list[FeatureName] = []

    def add(category, descriptor, **kw):
        names.append(FeatureName(category, descriptor, **kw))

    for v in VOICE_LABELS:
        for desc in _BASIC_DESCRIPTORS:
            add("basic", desc, voice=v)
    add("basic", "simultaneous_notes")
    add("basic", "simultaneous_rests")

    for v in VOICE_LABELS:
        for c in range(12):
            add("interval", f"class_{c}", voice=v)
        for s in SIGN_LABELS:
            add("interval", f"sign_{s}", voice=v)
        for mode in MODE_LABELS:
            add("interval", f"mode_{mode}", voice=v)
    for v in VOICE_LABELS:
        for desc in ("mean_semitone", "sd_semitone", "mean_duration_diff", "sd_duration_diff"):
            add("interval", desc, voice=v)
    for a, b in VOICE_PAIRS:
        pair = f"{a}-{b}"
        add("interval", "pair_mean_semitone", voice=pair)
        add("interval", "pair_sd_semitone", voice=pair)
        for c in range(12):
            add("interval", f"pair_class_{c}", voice=pair)
    for v in VOICE_LABELS:
        for m in lengths:
            for desc in _MINOR3_DESCRIPTORS:
                add("interval", desc, voice=v, segment_length=m)

    overlap_descs = ["max_overlap", "max_location"] + [
        f"count_t{float(t):g}" for t in OVERLAP_THRESHOLDS
    ]
    dev_descs = ["max_sd", "max_location"] + [f"count_q{q:.2f}" for q in DEV_QUANTILES]
    for category, descs in (
        ("exposition", overlap_descs),
        ("development", dev_descs),
        ("recapitulation", overlap_descs),
    ):
        for v in VOICE_LABELS:
            for m in lengths:
                for track in TRACKS:
                    for desc in descs:
                        add(category, desc, voice=v, track=track, segment_length=m)

    # keep Table-1 category order: basic, interval, exposition, development, recap
    order = {c: i for i, c in enumerate(CATEGORIES)}
    names.sort(key=lambda fn: order[fn.category])
    return tuple(names)


def feature_names(config: SegmentConfig = SegmentConfig()) -> tuple[FeatureName, ...]:
    """The full ordered feature registry for one segment configuration."""
    return _feature_names_cached(tuple(config.lengths))


# ---------------------------------------------------------------------------
# Feature matrix
# ---------------------------------------------------------------------------


@dataclass
class FeatureMatrix:
    """Named n x p matrix of movement feature values; NaN marks missing."""

    rows: tuple[MovementMeta, ...]
    columns: tuple[FeatureName, ...]
    values: np.ndarray

    def __post_init__(self):
        self.rows = tuple(self.rows)
        self.columns = tuple(self.columns)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.rows), len(self.columns)):
            raise ValueError(
                f"value shape {self.values.shape} does not match "
                f"{len(self.rows)} rows x {len(self.columns)} columns"
            )
        # columns are never reassigned, so labels and their index are built once
        self.labels = tuple(c.label for c in self.columns)
        self._label_index = {lbl: j for j, lbl in enumerate(self.labels)}
        if len(self._label_index) != len(self.labels):
            raise ValueError("duplicated feature names")

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def p(self) -> int:
        return len(self.columns)

    def column_index(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise KeyError(f"no feature column {label!r}") from None

    def select_columns(self, indices) -> "FeatureMatrix":
        indices = list(indices)
        return FeatureMatrix(
            rows=self.rows,
            columns=tuple(self.columns[j] for j in indices),
            values=self.values[:, indices].copy(),
        )

    def select_rows(self, indices) -> "FeatureMatrix":
        indices = list(indices)
        return FeatureMatrix(
            rows=tuple(self.rows[i] for i in indices),
            columns=self.columns,
            values=self.values[indices, :].copy(),
        )

    def category_indices(self, categories) -> list[int]:
        wanted = set(categories)
        return [j for j, c in enumerate(self.columns) if c.category in wanted]

    def to_csv(self, features_path, meta_path) -> None:
        with open(features_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["source_path", *self.labels])
            for meta, row in zip(self.rows, self.values):
                writer.writerow(
                    [meta.source_path] + [_format_value(x) for x in row]
                )
        with open(meta_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["source_path", "composer", "quartet_id", "set_id", "movement_number"])
            for meta in self.rows:
                writer.writerow(
                    [
                        meta.source_path,
                        int(meta.composer),
                        meta.quartet_id,
                        meta.set_id,
                        meta.movement_number,
                    ]
                )

    @classmethod
    def from_csv(cls, features_path, meta_path) -> "FeatureMatrix":
        metas: dict[str, MovementMeta] = {}
        with open(meta_path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                meta = MovementMeta(
                    composer=Composer(int(row["composer"])),
                    quartet_id=row["quartet_id"],
                    set_id=row.get("set_id", ""),
                    movement_number=int(row["movement_number"]),
                    source_path=row["source_path"],
                )
                metas[meta.source_path] = meta
        with open(features_path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if not header or header[0] != "source_path":
                raise ValueError("feature CSV must start with a source_path column")
            columns = tuple(parse_label(lbl) for lbl in header[1:])
            rows: list[MovementMeta] = []
            data: list[list[float]] = []
            seen: set[str] = set()
            for rec in reader:
                path = rec[0]
                if path not in metas:
                    raise ValueError(f"feature row {path!r} missing from metadata sidecar")
                if path in seen:
                    raise ValueError(f"feature CSV repeats the row {path!r}")
                seen.add(path)
                rows.append(metas[path])
                data.append([float(x) if x != "" else float("nan") for x in rec[1:]])
        return cls(rows=tuple(rows), columns=columns, values=np.array(data, dtype=float))


def _format_value(x: float) -> str:
    if np.isnan(x):
        return ""
    return repr(float(x))  # the shortest text that reads back as the same float


# ---------------------------------------------------------------------------
# Per-voice preparation
# ---------------------------------------------------------------------------


#: A voice's duration numerators are kept in int64 while its note count
#: times its largest numerator or common denominator is at most this: the
#: exact variance of any of its windows then has terms below 2**53, which
#: int64 and float64 both hold exactly.  Past it they are Python ints.
_INT64_EXACT = 1 << 26


@dataclass
class _VoiceData:
    pcs: np.ndarray  # pitch classes 1..12, rests removed
    abs_pitch: np.ndarray  # absolute pitches 1..132
    dur_float: np.ndarray
    # integer numerators over the voice's common denominator; equal
    # durations have equal numerators, which is all window matching needs
    dur_num: np.ndarray
    dur_den: int
    # (kind, track, m) -> window matrix or window sds, each built once
    memo: dict = field(default_factory=dict, repr=False)

    @property
    def m_notes(self) -> int:
        return len(self.pcs)

    def windows(self, track: str, m: int) -> np.ndarray | None:
        """The track's length-m windows; None when the voice is shorter."""
        key = ("windows", track, m)
        if key not in self.memo:
            self.memo[key] = _track_windows(self, track, m)
        return self.memo[key]

    def window_sds(self, track: str, m: int) -> np.ndarray | None:
        """Standard deviation of each of the track's length-m windows."""
        key = ("sds", track, m)
        if key not in self.memo:
            wmat = self.windows(track, m)
            den = 1 if track == "pitch" else self.dur_den
            self.memo[key] = None if wmat is None else _exact_window_sd(wmat, den)
        return self.memo[key]


def _voice_data(movement: EncodedMovement) -> dict[str, _VoiceData]:
    """Per-voice arrays of the window features, from one pass over each
    voice's notes; the feature families and the pool read only these."""
    out = {}
    for track in movement.voices:
        notes = [
            (e.pitch_class, e.absolute_pitch, e.duration)
            for e in track.events
            if not e.is_rest
        ]
        pcs, abs_pitch, durations = zip(*notes) if notes else ((), (), ())
        ratios = [d.as_integer_ratio() for d in durations]
        den = math.lcm(*(b for _, b in ratios))
        nums = [a * (den // b) for a, b in ratios]
        in_int64 = len(nums) * max([den, *nums]) <= _INT64_EXACT
        out[track.voice.value] = _VoiceData(
            pcs=np.array(pcs, dtype=np.int64),
            abs_pitch=np.array(abs_pitch, dtype=np.int64),
            dur_float=np.array([a / b for a, b in ratios], dtype=float),
            dur_num=np.array(nums, dtype=np.int64 if in_int64 else object),
            dur_den=den,
        )
    return out


def _exact_window_sd(windows: np.ndarray, denominator: int = 1) -> np.ndarray:
    """Sample sd per integer window via the exact variance identity.

    The variance of k/denominator values is (m * sum(k^2) - (sum k)^2)
    over (denominator^2 * m * (m - 1)); computing it in integers (int64, or
    Python ints in an object array) and rounding the quotient once makes
    the result bitwise identical for any reordering of equal value
    multisets, so location tie-breaking is exact.
    """
    m = windows.shape[1]
    s1 = windows.sum(axis=1)
    s2 = (windows * windows).sum(axis=1)
    var = (m * s2 - s1 * s1) / (denominator * denominator * m * (m - 1))
    return np.sqrt(var.astype(float))


def _sliding(arr: np.ndarray, m: int) -> np.ndarray:
    return np.lib.stride_tricks.sliding_window_view(arr, m)


def _relative_windows(pcs: np.ndarray, m: int) -> np.ndarray:
    """Windows of pitch classes, each re-expressed relative to its first note."""
    w = _sliding(pcs, m)
    return (w - w[:, :1]) % 12 + 1


def _sd(x) -> float:
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        return float("nan")
    return float(np.std(x, ddof=1))


# ---------------------------------------------------------------------------
# Basic summary features (22)
# ---------------------------------------------------------------------------


def basic_summary(movement: EncodedMovement, data: dict[str, _VoiceData]) -> dict[str, float]:
    """Per-voice note counts and duration/pitch summaries plus the two
    all-four-voices simultaneity proportions (from the movement's onsets)."""
    feats: dict[str, float] = {}
    for v in VOICE_LABELS:
        vd = data[v]
        if not vd.m_notes:
            raise EmptyVoice(f"voice {v} has no notes")
        feats[f"basic|note_count|{v}"] = float(vd.m_notes)
        feats[f"basic|mean_duration|{v}"] = float(np.mean(vd.dur_float))
        feats[f"basic|sd_duration|{v}"] = _sd(vd.dur_float)
        feats[f"basic|mean_pitch|{v}"] = float(np.mean(vd.pcs))
        feats[f"basic|sd_pitch|{v}"] = _sd(vd.pcs)

    # onsets as integer numerators over the movement's common denominator
    grid = onset_grid(movement).values()
    den = math.lcm(*{t.denominator for pairs in grid for t, _ in pairs})
    first, *others = (
        {t.numerator * (den // t.denominator): rest for t, rest in pairs} for pairs in grid
    )
    n_onsets = len(set(first).union(*others))
    shared = [r for t, r in first.items() if all(t in d and d[t] == r for d in others)]
    all_rest = sum(shared)
    all_note = len(shared) - all_rest
    feats["basic|simultaneous_notes"] = all_note / n_onsets if n_onsets else float("nan")
    feats["basic|simultaneous_rests"] = all_rest / n_onsets if n_onsets else float("nan")
    return feats


# ---------------------------------------------------------------------------
# Interval features (392 = 176 pairwise + 216 minor-third segment)
# ---------------------------------------------------------------------------


def pairwise_interval_features(data: dict[str, _VoiceData]) -> dict[str, float]:
    """Consecutive-note interval features on the full 1..132 pitch scale.

    Per voice: the 12 interval-class proportions, 3 sign proportions,
    4 mode proportions and the mean/sd of semitone and duration steps;
    per voice pair, differences of the semitone summaries and of the class
    proportions.  Voices with fewer than two notes are missing-masked.
    """
    feats: dict[str, float] = {}
    stats: dict[str, dict | None] = {}
    for v in VOICE_LABELS:
        vd = data[v]
        if vd.m_notes < 2:
            stats[v] = None
            for c in range(12):
                feats[f"interval|class_{c}|{v}"] = float("nan")
            for s in SIGN_LABELS:
                feats[f"interval|sign_{s}|{v}"] = float("nan")
            for mode in MODE_LABELS:
                feats[f"interval|mode_{mode}|{v}"] = float("nan")
            for desc in ("mean_semitone", "sd_semitone", "mean_duration_diff", "sd_duration_diff"):
                feats[f"interval|{desc}|{v}"] = float("nan")
            continue
        steps = np.diff(vd.abs_pitch)
        dur_steps = np.diff(vd.dur_float)
        classes = np.abs(steps) % 12
        class_props = np.bincount(classes, minlength=12) / len(classes)
        mode_props = np.zeros(4)
        for c in range(12):
            mode_props[MODE_OF_CLASS[c]] += class_props[c]
        sem_mean = float(np.mean(steps))
        sem_sd = _sd(steps)
        for c in range(12):
            feats[f"interval|class_{c}|{v}"] = float(class_props[c])
        feats[f"interval|sign_ascending|{v}"] = float(np.mean(steps > 0))
        feats[f"interval|sign_descending|{v}"] = float(np.mean(steps < 0))
        feats[f"interval|sign_constant|{v}"] = float(np.mean(steps == 0))
        for mi, mode in enumerate(MODE_LABELS):
            feats[f"interval|mode_{mode}|{v}"] = float(mode_props[mi])
        feats[f"interval|mean_semitone|{v}"] = sem_mean
        feats[f"interval|sd_semitone|{v}"] = sem_sd
        feats[f"interval|mean_duration_diff|{v}"] = float(np.mean(dur_steps))
        feats[f"interval|sd_duration_diff|{v}"] = _sd(dur_steps)
        stats[v] = {"class_props": class_props, "sem_mean": sem_mean, "sem_sd": sem_sd}

    for a, b in VOICE_PAIRS:
        pair = f"{a}-{b}"
        sa, sb = stats[a], stats[b]
        if sa is None or sb is None:
            feats[f"interval|pair_mean_semitone|{pair}"] = float("nan")
            feats[f"interval|pair_sd_semitone|{pair}"] = float("nan")
            for c in range(12):
                feats[f"interval|pair_class_{c}|{pair}"] = float("nan")
            continue
        feats[f"interval|pair_mean_semitone|{pair}"] = sa["sem_mean"] - sb["sem_mean"]
        feats[f"interval|pair_sd_semitone|{pair}"] = sa["sem_sd"] - sb["sem_sd"]
        for c in range(12):
            feats[f"interval|pair_class_{c}|{pair}"] = float(
                sa["class_props"][c] - sb["class_props"][c]
            )
    return feats


def minor_third_segment_features(
    data: dict[str, _VoiceData], config: SegmentConfig = SegmentConfig()
) -> dict[str, float]:
    """Summary statistics of per-segment minor-third proportions.

    Within each length-m window the proportion of notes at a 3-semitone
    class distance from the window's first note, summarised by seven order
    statistics plus counts of all-zero and high-proportion segments.
    """
    feats: dict[str, float] = {}
    for v in VOICE_LABELS:
        ap = data[v].abs_pitch
        for m in config.lengths:
            base = f"|{v}|m={m}"
            if len(ap) < m:
                for desc in _MINOR3_DESCRIPTORS:
                    feats[f"interval|{desc}{base}"] = float("nan")
                continue
            w = _sliding(ap, m)
            counts = (np.abs(w[:, 1:] - w[:, :1]) % 12 == 3).sum(axis=1)
            props = counts / (m - 1)
            feats[f"interval|minor3_min{base}"] = float(props.min())
            feats[f"interval|minor3_q1{base}"] = float(np.percentile(props, 25))
            feats[f"interval|minor3_median{base}"] = float(np.percentile(props, 50))
            feats[f"interval|minor3_q3{base}"] = float(np.percentile(props, 75))
            feats[f"interval|minor3_max{base}"] = float(props.max())
            feats[f"interval|minor3_mean{base}"] = float(props.mean())
            feats[f"interval|minor3_sd{base}"] = _sd(props)
            feats[f"interval|minor3_count_zero{base}"] = float((counts == 0).sum())
            high = MINOR_THIRD_HIGH
            feats[f"interval|minor3_count_high{base}"] = float(
                (counts * high.denominator >= high.numerator * (m - 1)).sum()
            )
    return feats


# ---------------------------------------------------------------------------
# Sonata-style overlap features (exposition 240, recapitulation 240)
# ---------------------------------------------------------------------------


def _track_windows(vd: _VoiceData, track: str, m: int) -> np.ndarray | None:
    seq = vd.pcs if track == "pitch" else vd.dur_num
    if len(seq) < m:
        return None
    if track == "pitch":
        return _relative_windows(seq, m)
    return _sliding(seq, m)


def _overlap_stats(wmat: np.ndarray, last_start: int) -> dict[str, float] | None:
    """Overlap of the opening window against windows starting at 2..last_start.

    Ties on the maximum take the later segment.  Counts compare the exact
    match fraction against the OVERLAP_THRESHOLDS.
    """
    total, m = wmat.shape
    if last_start < 2:
        return None
    matches = (wmat[1:last_start] == wmat[0]).sum(axis=1)
    best = int(matches.max())
    pos = int(np.nonzero(matches == best)[0][-1])
    out = {
        "max_overlap": best / m,
        "max_location": (pos + 2) / total,
    }
    for t in OVERLAP_THRESHOLDS:
        out[f"count_t{float(t):g}"] = float(
            (matches * t.denominator >= t.numerator * m).sum()
        )
    return out


_OVERLAP_DESCS = ("max_overlap", "max_location", "count_t0.7", "count_t0.9", "count_t1")


def _overlap_features(
    category: str, data: dict[str, _VoiceData], config: SegmentConfig, first_half: bool
) -> dict[str, float]:
    """Overlap of each voice's opening segment against its later segments:
    those starting at or before ceil(M/2) with ``first_half``, else all."""
    feats: dict[str, float] = {}
    for v in VOICE_LABELS:
        vd = data[v]
        half = (vd.m_notes + 1) // 2
        for m in config.lengths:
            for track in TRACKS:
                base = f"|{track}|{v}|m={m}"
                wmat = vd.windows(track, m)
                stats = None
                if wmat is not None:
                    total = wmat.shape[0]
                    stats = _overlap_stats(wmat, min(half, total) if first_half else total)
                for desc in _OVERLAP_DESCS:
                    feats[f"{category}|{desc}{base}"] = (
                        stats[desc] if stats is not None else float("nan")
                    )
    return feats


def exposition_features(
    data: dict[str, _VoiceData], config: SegmentConfig = SegmentConfig()
) -> dict[str, float]:
    """Overlap of the opening segment against segments in the first half.

    The first half covers segments starting at or before ceil(M/2); a voice
    needs at least two segments there, otherwise its cells are masked.
    """
    return _overlap_features("exposition", data, config, first_half=True)


def recapitulation_features(
    data: dict[str, _VoiceData], config: SegmentConfig = SegmentConfig()
) -> dict[str, float]:
    """Overlap of the opening segment against all subsequent segments."""
    return _overlap_features("recapitulation", data, config, first_half=False)


# ---------------------------------------------------------------------------
# Development features (288) and their corpus-level thresholds
# ---------------------------------------------------------------------------


def weighted_quantile(values: Sequence, weights: Sequence, q):
    """Lower weighted q-quantile(s).

    Returns the smallest value v such that the normalized cumulative weight
    of {values <= v} reaches q.  With equal weights on distinct values this
    is the standard lower empirical quantile.  q is a scalar (a scalar is
    returned) or a sequence (an array is returned, one value per quantile).
    Weights are added in sorted order (a stable sort), and the total is the
    last running sum, so every comparison is reproducible bit for bit.
    """
    if len(values) != len(weights):
        raise LengthMismatch("values and weights lengths differ")
    if len(values) == 0:
        raise EmptyInput("weighted quantile of an empty collection")
    qs = np.asarray(q, dtype=float)
    if not np.all((0 < qs) & (qs < 1)):
        raise ValueError("q must lie in (0, 1)")
    values = np.asarray(values)
    order = np.argsort(values, kind="stable")
    v = values[order]
    cum = np.cumsum(np.asarray(weights)[order])
    total = cum[-1]
    if not total > 0:
        raise ValueError("total weight must be positive")
    # the last index of each tie group, where the cumulative weight covers
    # {values <= v}; of equal values (-0.0 and 0.0) the last in order is returned
    last = np.flatnonzero(np.append(v[1:] != v[:-1], True))
    reached = cum[last] / total
    picks = [v[last[np.flatnonzero(reached >= x)[0]]] for x in qs.ravel()]
    return picks[0] if qs.ndim == 0 else np.array(picks)


@dataclass(frozen=True)
class DevelopmentThresholds:
    """Thresholds s(q) per (voice, segment length, track), ordered by quantile."""

    quantiles: tuple[float, ...]
    table: dict

    def get(self, voice: str, m: int, track: str) -> tuple[float, ...]:
        return self.table[(voice, m, track)]

    def to_json(self) -> dict:
        out: dict = {}
        for (voice, m, track), vals in sorted(self.table.items(), key=lambda kv: str(kv[0])):
            out.setdefault(track, {}).setdefault(str(m), {})[voice] = {
                f"{q:.2f}": v for q, v in zip(self.quantiles, vals)
            }
        return {"quantiles": [f"{q:.2f}" for q in self.quantiles], "thresholds": out}

    @classmethod
    def from_json(cls, payload: dict) -> "DevelopmentThresholds":
        quantiles = tuple(float(q) for q in payload["quantiles"])
        table = {}
        for track, by_m in payload["thresholds"].items():
            for m, by_voice in by_m.items():
                for voice, by_q in by_voice.items():
                    table[(voice, int(m), track)] = tuple(
                        float(by_q[f"{q:.2f}"]) for q in quantiles
                    )
        return cls(quantiles=quantiles, table=table)


@dataclass
class DevelopmentSdPool:
    """Per-movement window standard deviations, pooled for threshold setting.

    Rows align with the corpus used to build the pool; this is what allows
    recomputing thresholds on training folds only (leakage-audit mode).
    """

    lengths: tuple[int, ...]
    quantiles: tuple[float, ...]
    sds: dict  # (voice, m, track) -> list of per-movement float arrays

    @property
    def n(self) -> int:
        return len(next(iter(self.sds.values())))

    def add(self, data: dict[str, _VoiceData]) -> None:
        """Append one movement's window sds, from its per-voice data."""
        for (v, m, track), arrays in self.sds.items():
            sds = data[v].window_sds(track, m)
            arrays.append(sds if sds is not None else np.empty(0, dtype=float))

    def thresholds(self, rows=None, reading: str = "prose") -> DevelopmentThresholds:
        if reading not in THRESHOLD_READINGS:
            raise ValueError(f"reading must be one of {THRESHOLD_READINGS}")
        if rows is None:
            rows = range(self.n)
        rows = list(rows)
        table = {}
        for key, arrays in self.sds.items():
            vals, wts = [], []
            for i in rows:
                a = arrays[i]
                if a.size:
                    vals.append(a)
                    wts.append(np.full(a.size, 1.0 / a.size))
            if not vals:
                table[key] = tuple(float("nan") for _ in self.quantiles)
                continue
            v = np.concatenate(vals)
            w = np.concatenate(wts)
            if reading == "prose":
                # weighted quantile of the raw sd values, weights 1/(M_i - m + 1)
                table[key] = tuple(
                    float(x) for x in weighted_quantile(v, w, self.quantiles)
                )
            else:
                # literal reading: plain quantile of the scaled values
                table[key] = tuple(
                    float(np.percentile(v * w, 100.0 * q)) for q in self.quantiles
                )
        return DevelopmentThresholds(quantiles=self.quantiles, table=table)

    def count_labels(self) -> list[str]:
        return [
            f"development|count_q{q:.2f}|{track}|{v}|m={m}"
            for v in VOICE_LABELS
            for m in self.lengths
            for track in TRACKS
            for q in self.quantiles
        ]

    def count_columns(self, thresholds: DevelopmentThresholds) -> np.ndarray:
        """Threshold-count feature block for all pooled movements."""
        labels = self.count_labels()
        out = np.full((self.n, len(labels)), np.nan)
        col = 0
        for v in VOICE_LABELS:
            for m in self.lengths:
                for track in TRACKS:
                    thr = thresholds.get(v, m, track)
                    arrays = self.sds[(v, m, track)]
                    for qi in range(len(self.quantiles)):
                        if not np.isnan(thr[qi]):
                            for i, a in enumerate(arrays):
                                if a.size:
                                    out[i, col + qi] = float((a >= thr[qi]).sum())
                    col += len(self.quantiles)
        return out


def build_development_pool(corpus, config: SegmentConfig = SegmentConfig()) -> DevelopmentSdPool:
    pool = DevelopmentSdPool(
        lengths=tuple(config.lengths),
        quantiles=DEV_QUANTILES,
        sds={(v, m, track): [] for v in VOICE_LABELS for m in config.lengths for track in TRACKS},
    )
    for movement in corpus:
        pool.add(_voice_data(movement))
    return pool


def development_features(
    data: dict[str, _VoiceData], config: SegmentConfig = SegmentConfig()
) -> dict[str, float]:
    """Within-window variability features.

    Per voice, window length and track: the maximum window standard
    deviation and its location (ties take the first occurrence).  The
    counts of windows at or above each corpus-level threshold come from
    ``DevelopmentSdPool.count_columns``.
    """
    feats: dict[str, float] = {}
    for v in VOICE_LABELS:
        vd = data[v]
        for m in config.lengths:
            for track in TRACKS:
                base = f"|{track}|{v}|m={m}"
                sds = vd.window_sds(track, m)
                if sds is None:
                    feats[f"development|max_sd{base}"] = float("nan")
                    feats[f"development|max_location{base}"] = float("nan")
                    continue
                pos = int(np.argmax(sds))  # first occurrence on ties
                feats[f"development|max_sd{base}"] = float(sds[pos])
                feats[f"development|max_location{base}"] = (pos + 1) / len(sds)
    return feats


# ---------------------------------------------------------------------------
# Corpus assembly and filtering
# ---------------------------------------------------------------------------


class Extraction(NamedTuple):
    """The feature matrix, its development pool and its count thresholds."""

    matrix: FeatureMatrix
    pool: DevelopmentSdPool
    thresholds: DevelopmentThresholds


def extract_all(
    corpus,
    config: SegmentConfig = SegmentConfig(),
    *,
    threshold_reading: str = "prose",
) -> Extraction:
    """Assemble the corpus feature matrix in one pass over the movements.

    Each movement's threshold-free features are computed and its window sds
    pooled; the development counts are then taken at the pool's thresholds.
    """
    corpus = list(corpus)
    if not corpus:
        raise ValueError("corpus is empty")
    if any(m.meta is None for m in corpus):
        raise ValueError("every movement needs metadata for matrix assembly")
    if threshold_reading not in THRESHOLD_READINGS:
        raise ValueError(f"reading must be one of {THRESHOLD_READINGS}")
    names = feature_names(config)
    pool = build_development_pool((), config)
    free = {fn.label: j for j, fn in enumerate(names)}  # the count columns are popped
    counted = [free.pop(lbl) for lbl in pool.count_labels()]
    values = np.empty((len(corpus), len(names)))
    for i, movement in enumerate(corpus):
        data = _voice_data(movement)
        feats = basic_summary(movement, data)
        feats.update(pairwise_interval_features(data))
        feats.update(minor_third_segment_features(data, config))
        feats.update(exposition_features(data, config))
        feats.update(development_features(data, config))
        feats.update(recapitulation_features(data, config))
        if feats.keys() != free.keys():
            raise AssertionError("computed features do not match the registry")
        values[i, list(free.values())] = [feats[lbl] for lbl in free]
        pool.add(data)
    thresholds = pool.thresholds(reading=threshold_reading)
    values[:, counted] = pool.count_columns(thresholds)
    matrix = FeatureMatrix(rows=tuple(m.meta for m in corpus), columns=names, values=values)
    return Extraction(matrix, pool, thresholds)


def near_zero_variance_filter(matrix: FeatureMatrix) -> FeatureMatrix:
    """Drop columns with (near-)zero variability and columns with missing values.

    A column is near-zero-variance when it is constant, or when its most
    common value is at least 95/5 = 19 times as frequent as its second most
    common and fewer than 10% of its values are distinct.
    """
    if matrix.n < 2:
        raise ValueError("variance filtering needs at least two rows")
    keep: list[int] = []
    for j in range(matrix.p):
        col = matrix.values[:, j]
        if np.isnan(col).any():
            continue
        counts = Counter(col.tolist())
        if len(counts) <= 1:
            continue
        (_, c1), (_, c2) = counts.most_common(2)
        freq_ratio = c1 / c2
        pct_unique = 100.0 * len(counts) / matrix.n
        if freq_ratio >= 95.0 / 5.0 and pct_unique < 10.0:
            continue
        keep.append(j)
    return matrix.select_columns(keep)
