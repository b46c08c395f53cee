"""Movement-level feature extraction and corpus feature-matrix assembly.

Six feature families are computed per movement, each from the movement's
prepared data alone, in five categories: basic summary, interval (pairwise
and minor-third segment), exposition, development and recapitulation.  The
full set holds 1182 features (22 + 392 + 240 + 288 + 240).  Sonata-style
segment features are computed for segment lengths 8..18 on both pitch and
duration tracks; pitch segments are first re-expressed relative to their
opening note so transposed phrases compare equal.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from typing import ClassVar, Iterable, NamedTuple, Sequence

import numpy as np

from .score import EncodedMovement, MovementMeta, VOICE_ORDER, read_manifest

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
#: Their descriptors: the best overlap, its location and one count per threshold.
OVERLAP_DESCS = (
    "max_overlap", "max_location", *(f"count_t{float(t):g}" for t in OVERLAP_THRESHOLDS)
)
#: Cut for the "high proportion of minor thirds" segment count.
MINOR_THIRD_HIGH = Fraction(3, 5)
#: Quantiles defining the development standard-deviation thresholds.
DEV_QUANTILES = (0.70, 0.80, 0.90, 0.95)
_NAN = float("nan")

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
    """The FeatureName whose label is ``label``; a label that would not
    read back exactly (a repeated or misplaced token, ``m=08``) is a
    ValueError."""
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
    name = FeatureName(
        category=category,
        descriptor=descriptor,
        voice=voice,
        track=track,
        segment_length=segment_length,
    )
    if name.label != label:
        raise ValueError(f"feature label {label!r} does not read back (as {name.label!r})")
    return name


_BASIC_DESCRIPTORS = ("note_count", "mean_duration", "sd_duration", "mean_pitch", "sd_pitch")
_STEP_DESCRIPTORS = (
    *(f"class_{c}" for c in range(12)),
    *(f"sign_{s}" for s in SIGN_LABELS),
    *(f"mode_{mode}" for mode in MODE_LABELS),
)
_STEP_SUMMARIES = ("mean_semitone", "sd_semitone", "mean_duration_diff", "sd_duration_diff")
_PAIR_DESCRIPTORS = (
    "pair_mean_semitone", "pair_sd_semitone", *(f"pair_class_{c}" for c in range(12))
)
_MINOR3_DESCRIPTORS = tuple(
    "minor3_" + d
    for d in ("min", "q1", "median", "q3", "max", "mean", "sd", "count_zero", "count_high")
)
_DEV_MAXIMA = ("max_sd", "max_location")


def _block(category, descriptors, voices=(None,), lengths=(None,), tracks=(None,)):
    """Names in voice -> segment length -> track -> descriptor order."""
    return tuple(
        FeatureName(category, desc, voice=v, track=track, segment_length=m)
        for v in voices
        for m in lengths
        for track in tracks
        for desc in descriptors
    )


@lru_cache(maxsize=8)
def _layout(lengths: tuple[int, ...]):
    """The registry for ``lengths`` and each family's labels in registry order.

    The registry is the families' blocks joined in CATEGORIES order.  The
    development block interleaves the family's maxima with the count columns
    the pool fills; "count" holds the latter.
    """
    windows = {"voices": VOICE_LABELS, "lengths": lengths, "tracks": TRACKS}
    dev_descs = (*_DEV_MAXIMA, *(f"count_q{q:.2f}" for q in DEV_QUANTILES))
    blocks = {
        "basic": _block("basic", _BASIC_DESCRIPTORS, VOICE_LABELS)
        + _block("basic", ("simultaneous_notes", "simultaneous_rests")),
        "pairwise": _block("interval", _STEP_DESCRIPTORS, VOICE_LABELS)
        + _block("interval", _STEP_SUMMARIES, VOICE_LABELS)
        + _block("interval", _PAIR_DESCRIPTORS, tuple("-".join(p) for p in VOICE_PAIRS)),
        "minor_third": _block("interval", _MINOR3_DESCRIPTORS, VOICE_LABELS, lengths),
        "exposition": _block("exposition", OVERLAP_DESCS, **windows),
        "development": _block("development", dev_descs, **windows),
        "recapitulation": _block("recapitulation", OVERLAP_DESCS, **windows),
    }
    labels = {family: tuple(fn.label for fn in block) for family, block in blocks.items()}
    dev = blocks["development"]
    labels["development"] = tuple(fn.label for fn in dev if fn.descriptor in _DEV_MAXIMA)
    labels["count"] = tuple(fn.label for fn in dev if fn.descriptor not in _DEV_MAXIMA)
    return tuple(fn for block in blocks.values() for fn in block), labels


def feature_names(config: SegmentConfig = SegmentConfig()) -> tuple[FeatureName, ...]:
    """The full ordered feature registry for one segment configuration."""
    return _layout(tuple(config.lengths))[0]


def _labels(lengths: Sequence[int], family: str) -> tuple[str, ...]:
    return _layout(tuple(lengths))[1][family]


def _named(family: str, values: list, lengths: tuple[int, ...]) -> dict:
    """A family's values, given in its block order, keyed by their labels."""
    return dict(zip(_labels(lengths, family), values, strict=True))


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
        """Write the values and the rows' metadata, joined on source path; a
        blank, padded or repeated path would not read back, so it is refused."""
        seen: set[str] = set()
        for i, path in enumerate(meta.source_path for meta in self.rows):
            if not path or path != path.strip() or path in seen:
                raise ValueError(f"row {i} has a blank, padded or repeated source path {path!r}")
            seen.add(path)
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
        metas = {meta.source_path: meta for meta in read_manifest(meta_path)}
        with open(features_path, newline="", encoding="utf-8-sig") as fh:
            reader = filter(None, csv.reader(fh))  # blank lines are skipped
            header = next(reader, None)
            if header is None:
                raise ValueError(f"feature CSV {features_path} is empty")
            if header[0] != "source_path":
                raise ValueError("feature CSV must start with a source_path column")
            columns = tuple(parse_label(lbl) for lbl in header[1:])
            rows: list[MovementMeta] = []
            data: list[list[float]] = []
            seen: set[str] = set()
            for rec in reader:
                path = rec[0]
                if len(rec) != len(header):
                    raise ValueError(
                        f"feature row {path!r} has {len(rec)} fields, "
                        f"the header has {len(header)}"
                    )
                if path not in metas:
                    raise ValueError(f"feature row {path!r} missing from metadata sidecar")
                if path in seen:
                    raise ValueError(f"feature CSV repeats the row {path!r}")
                seen.add(path)
                rows.append(metas[path])
                data.append([float(x) if x != "" else float("nan") for x in rec[1:]])
        # a header-only CSV reads as 0 rows of the header's columns
        values = np.array(data, dtype=float).reshape(len(rows), len(columns))
        return cls(rows=tuple(rows), columns=columns, values=values)


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


@dataclass(frozen=True)
class _VoiceData:
    pcs: np.ndarray  # pitch classes 1..12, rests removed
    abs_pitch: np.ndarray  # absolute pitches 1..132
    dur_float: np.ndarray
    # every event's onset, rests included, as an integer numerator over
    # onset_den, and whether the voice rests there (the track's columns)
    onsets: tuple[int, ...]
    rests: np.ndarray
    onset_den: int
    # track -> row i, column m - 1: matches of the length-m window at note i
    # with the opening window; (track, m) -> each length-m window's sd, None
    # when the voice is shorter than m.  See _voice_data.
    matches: dict
    sds: dict

    @property
    def m_notes(self) -> int:
        return len(self.pcs)


def _windows(seq: np.ndarray, lengths: Sequence[int]) -> np.ndarray:
    """Row i holds the min(L, N) values of ``seq`` (N >= 1 of them) from
    index i on, L the longest of ``lengths``, zero-padded past the end."""
    width = min(max(lengths), len(seq))  # no window is longer than the voice
    padded = np.concatenate([seq, np.zeros(width - 1, dtype=seq.dtype)])
    return np.lib.stride_tricks.sliding_window_view(padded, width)


def _minor_third_counts(abs_pitch: np.ndarray, lengths: Sequence[int]) -> np.ndarray:
    """Row i, column m - 1: the notes of the length-m window at note i a
    minor-third class from the window's first note."""
    table = _windows(abs_pitch, lengths)
    return np.cumsum(np.abs(table - table[:, :1]) % 12 == 3, axis=1)


class _MovementData(NamedTuple):
    """A movement's prepared data, the only input of the families and the
    pool: its source path ("" without metadata), the segment lengths its
    window tables were built for, and each voice's data."""

    source: str
    lengths: tuple[int, ...]
    voices: dict[str, _VoiceData]


def _voice_data(movement: EncodedMovement, lengths: Sequence[int]) -> _MovementData:
    """The movement's prepared data: per-voice arrays of the window features,
    from each voice's columns, with the tables for the segment ``lengths``
    built once, only for a voice with a window of the shortest length.

    Durations are integer numerators over the voice's common denominator;
    equal durations have equal numerators, which is all window matching
    needs.  A track's ``_windows`` table is summed along its rows, so column
    m - 1 of row i sums the length-m window at note i; a length-m read takes
    rows 0..N-m only and never reaches the padding.  A window's sd comes from the
    exact variance identity, (m * sum(k^2) - (sum k)^2) / (den^2 * m * (m - 1))
    for k/den values, in integers with the quotient rounded once: bitwise
    identical for any reordering of equal value multisets, so location
    tie-breaking is exact.  Every running sum is the sum of at most one
    window (duration padding is 0, pitch values lie in 1..12), so the
    _INT64_EXACT bound, which covers every window's exact variance terms,
    covers the int64 sums; past it the duration sums are exact Python ints.
    """
    out = {}
    for track in movement.voices:
        pitches = np.array(track.pitches, dtype=np.int64)
        rests = pitches == 0
        abs_pitch = pitches[~rests]
        pcs = (abs_pitch - 1) % 12 + 1
        nums = list(compress(track.durations, track.pitches))  # the notes'
        # over the lcm of the notes' reduced denominators, which divides onset_den
        g = math.gcd(track.onset_den, *nums)
        den = track.onset_den // g
        nums = [n // g for n in nums]
        in_int64 = len(nums) * max([den, *nums]) <= _INT64_EXACT
        dur_num = np.array(nums, dtype=np.int64 if in_int64 else object)
        matches, sds = {}, {(name, m): None for name in TRACKS for m in lengths}
        if len(nums) >= min(lengths):
            for name, seq, scale in (("pitch", pcs, 1), ("duration", dur_num, den)):
                table = _windows(seq, lengths)
                if name == "pitch":
                    table = (table - table[:, :1]) % 12 + 1  # relative to the window's first note
                s1, s2 = np.cumsum(table, axis=1), np.cumsum(table * table, axis=1)
                matches[name] = np.cumsum(table == table[0], axis=1)
                for m in lengths:
                    if (n := len(nums) - m + 1) > 0:
                        k1, k2 = s1[:n, m - 1], s2[:n, m - 1]
                        var = (m * k2 - k1 * k1) / (scale * scale * m * (m - 1))
                        sds[name, m] = np.sqrt(var.astype(float))
        out[track.voice.value] = _VoiceData(
            pcs=pcs,
            abs_pitch=abs_pitch,
            dur_float=np.array([n / den for n in nums], dtype=float),
            onsets=track.onsets,
            rests=rests,
            onset_den=track.onset_den,
            matches=matches,
            sds=sds,
        )
    source = movement.meta.source_path if movement.meta is not None else ""
    return _MovementData(source, tuple(lengths), out)


def _sd(x) -> float:
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        return float("nan")
    return float(np.std(x, ddof=1))


# ---------------------------------------------------------------------------
# Basic summary features (22)
# ---------------------------------------------------------------------------


def basic_summary(data: _MovementData) -> dict[str, float]:
    """Per-voice note counts and duration/pitch summaries plus the two
    all-four-voices simultaneity proportions."""
    values = []
    for v in VOICE_LABELS:
        vd = data.voices[v]
        if not vd.m_notes:
            raise EmptyVoice(f"{data.source or '<string>'}: voice {v} has no notes")
        mean_duration, mean_pitch = float(np.mean(vd.dur_float)), float(np.mean(vd.pcs))
        values += [float(vd.m_notes), mean_duration, _sd(vd.dur_float), mean_pitch, _sd(vd.pcs)]

    # each voice's onsets as integer numerators over the lcm of the voices'
    # denominators, mapped to its rest flag there (the last event at an onset wins)
    den = math.lcm(*(vd.onset_den for vd in data.voices.values()))
    first, *others = (
        dict(zip(map((den // vd.onset_den).__mul__, vd.onsets), vd.rests.tolist()))
        for vd in data.voices.values()
    )
    n_onsets = len(set(first).union(*others))
    shared = [r for t, r in first.items() if all(t in d and d[t] == r for d in others)]
    all_rest = sum(shared)
    all_note = len(shared) - all_rest
    values += [all_note / n_onsets, all_rest / n_onsets] if n_onsets else [_NAN] * 2
    return _named("basic", values, data.lengths)


# ---------------------------------------------------------------------------
# Interval features (392 = 176 pairwise + 216 minor-third segment)
# ---------------------------------------------------------------------------


def pairwise_interval_features(data: _MovementData) -> dict[str, float]:
    """Consecutive-note interval features on the full 1..132 pitch scale.

    Per voice: the 12 interval-class proportions, 3 sign proportions,
    4 mode proportions and the mean/sd of semitone and duration steps;
    per voice pair, differences of the semitone summaries and of the class
    proportions.  Voices with fewer than two notes are missing-masked.
    """
    steps_block, summaries, stats = [], [], {}
    for v in VOICE_LABELS:
        vd = data.voices[v]
        if vd.m_notes < 2:
            stats[v] = None
            steps_block += [_NAN] * len(_STEP_DESCRIPTORS)
            summaries += [_NAN] * len(_STEP_SUMMARIES)
            continue
        steps = np.diff(vd.abs_pitch)
        dur_steps = np.diff(vd.dur_float)
        classes = np.abs(steps) % 12
        class_props = np.bincount(classes, minlength=12) / len(classes)
        mode_props = np.bincount(MODE_OF_CLASS, weights=class_props, minlength=4)
        signs = [np.mean(steps > 0), np.mean(steps < 0), np.mean(steps == 0)]
        steps_block += [*class_props.tolist(), *map(float, signs), *mode_props.tolist()]
        sem_mean, sem_sd = float(np.mean(steps)), _sd(steps)
        summaries += [sem_mean, sem_sd, float(np.mean(dur_steps)), _sd(dur_steps)]
        stats[v] = (sem_mean, sem_sd, class_props)

    pairs = []
    for a, b in VOICE_PAIRS:
        if stats[a] is None or stats[b] is None:
            pairs += [_NAN] * len(_PAIR_DESCRIPTORS)
            continue
        (mean_a, sd_a, props_a), (mean_b, sd_b, props_b) = stats[a], stats[b]
        pairs += [mean_a - mean_b, sd_a - sd_b, *(props_a - props_b).tolist()]
    return _named("pairwise", steps_block + summaries + pairs, data.lengths)


def minor_third_segment_features(data: _MovementData) -> dict[str, float]:
    """Summary statistics of per-segment minor-third proportions.

    Within each length-m window the proportion of notes at a 3-semitone
    class distance from the window's first note, summarised by seven order
    statistics plus counts of all-zero and high-proportion segments.
    """
    high, lengths, values = MINOR_THIRD_HIGH, data.lengths, []
    for v in VOICE_LABELS:
        vd = data.voices[v]
        if vd.m_notes >= min(lengths):
            table = _minor_third_counts(vd.abs_pitch, lengths)
        for m in lengths:
            n = vd.m_notes - m + 1
            if n <= 0:
                values += [_NAN] * len(_MINOR3_DESCRIPTORS)
                continue
            counts = table[:n, m - 1]
            props = counts / (m - 1)
            values += [
                float(props.min()),
                *np.percentile(props, [25, 50, 75]).tolist(),
                float(props.max()),
                float(props.mean()),
                _sd(props),
                float((counts == 0).sum()),
                float((counts * high.denominator >= high.numerator * (m - 1)).sum()),
            ]
    return _named("minor_third", values, lengths)


# ---------------------------------------------------------------------------
# Sonata-style overlap features (exposition 240, recapitulation 240)
# ---------------------------------------------------------------------------


def _overlap_stats(matches: np.ndarray, m: int, total: int) -> tuple[float, ...]:
    """Overlap of the opening length-m window against the windows starting
    at 2, 3, ... (their ``matches``, out of ``total`` windows), one value
    per OVERLAP_DESCS entry.

    Ties on the maximum take the later segment.  Counts compare the exact
    match fraction against the OVERLAP_THRESHOLDS.
    """
    best = int(matches.max())
    pos = int(np.nonzero(matches == best)[0][-1])
    counts = (
        float((matches * t.denominator >= t.numerator * m).sum()) for t in OVERLAP_THRESHOLDS
    )
    return (best / m, (pos + 2) / total, *counts)


def _overlap_features(category: str, data: _MovementData, first_half: bool) -> dict[str, float]:
    """Overlap of each voice's opening segment against its later segments:
    those starting at or before ceil(M/2) with ``first_half``, else all.
    A voice with fewer than two such segments is masked."""
    values = []
    for v in VOICE_LABELS:
        vd = data.voices[v]
        half = (vd.m_notes + 1) // 2
        for m in data.lengths:
            total = vd.m_notes - m + 1
            last_start = min(half, total) if first_half else total
            for track in TRACKS:
                if last_start < 2:
                    values += [_NAN] * len(OVERLAP_DESCS)
                    continue
                matches = vd.matches[track][1:last_start, m - 1]
                values += _overlap_stats(matches, m, total)
    return _named(category, values, data.lengths)


def exposition_features(data: _MovementData) -> dict[str, float]:
    """Overlap of the opening segment against segments in the first half.

    The first half covers segments starting at or before ceil(M/2); a voice
    needs at least two segments there, otherwise its cells are masked.
    """
    return _overlap_features("exposition", data, first_half=True)


def recapitulation_features(data: _MovementData) -> dict[str, float]:
    """Overlap of the opening segment against all subsequent segments."""
    return _overlap_features("recapitulation", data, first_half=False)


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

    quantiles: ClassVar[tuple[float, ...]] = DEV_QUANTILES
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


@dataclass(frozen=True)
class DevelopmentSdPool:
    """Every movement's window standard deviations, pooled per
    (voice, segment length, track) key for threshold setting.

    Each key keeps its pooled sds in one stable sorted order, the row of
    each sd and each row's window count.  Rows align with the corpus used
    to build the pool, whose source paths ``paths`` records, so thresholds
    can be recomputed on training folds only (leakage-audit mode) by
    masking the held-out rows.
    """

    quantiles: ClassVar[tuple[float, ...]] = DEV_QUANTILES
    lengths: tuple[int, ...]
    reading: str  # how thresholds() reads the pooled sds: "prose" or "literal"
    paths: tuple[str, ...]  # each row's source path ("" without metadata)
    sds: dict  # key -> every row's sds, sorted (stable: ties by row, then window)
    rows: dict  # key -> the int32 row of each sd
    sizes: dict  # key -> each row's window count

    def thresholds(self, rows=None) -> DevelopmentThresholds:
        """Thresholds from the pooled sds of ``rows`` (all rows by default),
        read as the pool's ``reading``."""
        keep = np.zeros(len(self.paths), dtype=bool)
        keep[slice(None) if rows is None else rows] = True
        table = {}
        for key, sds in self.sds.items():
            kept = keep[self.rows[key]]
            v = sds[kept]
            if not v.size:
                table[key] = tuple(float("nan") for _ in self.quantiles)
                continue
            # each window weighs 1/(M_i - m + 1); the restricted stable order
            # adds the weights in the order a sort of the kept rows would
            w = 1.0 / self.sizes[key][self.rows[key][kept]]
            if self.reading == "prose":
                picks = weighted_quantile(v, w, self.quantiles)
            else:
                # literal reading: plain quantiles of the scaled values
                picks = np.percentile(v * w, [100.0 * q for q in self.quantiles])
            table[key] = tuple(float(x) for x in picks)
        return DevelopmentThresholds(table=table)

    def count_columns(self, thresholds: DevelopmentThresholds) -> np.ndarray:
        """Threshold-count feature block for all pooled movements: per key and
        quantile, each row's count of sds at or above the threshold; NaN for
        a row without windows or a NaN threshold."""
        nq, n = len(self.quantiles), len(self.paths)
        out = np.full((n, len(self.sds) * nq), np.nan)
        for k, (key, sds) in enumerate(self.sds.items()):
            has = self.sizes[key] > 0
            for qi, t in enumerate(thresholds.get(*key)):
                if not np.isnan(t):
                    above = self.rows[key][np.searchsorted(sds, t):]
                    out[has, k * nq + qi] = np.bincount(above, minlength=n)[has]
        return out

    def counted(
        self, matrix: FeatureMatrix, rows=None
    ) -> tuple[FeatureMatrix, DevelopmentThresholds]:
        """``matrix`` (rows aligned with the pool) with whichever count
        columns it holds taken at the thresholds of ``rows`` (all rows by
        default), and those thresholds.  The other columns are copied."""
        thresholds = self.thresholds(rows)
        block, values = self.count_columns(thresholds), matrix.values.copy()
        for k, lbl in enumerate(_labels(self.lengths, "count")):  # the block's column order
            if lbl in matrix._label_index:
                values[:, matrix._label_index[lbl]] = block[:, k]
        return FeatureMatrix(matrix.rows, matrix.columns, values), thresholds


def _pooled(
    movements: Iterable[_MovementData], lengths: Sequence[int], reading: str
) -> DevelopmentSdPool:
    """The pool of the window sds of ``movements``' prepared data, taken one
    movement at a time; the reading is checked before the first."""
    if reading not in THRESHOLD_READINGS:
        raise ValueError(f"reading must be one of {THRESHOLD_READINGS}")
    parts = {(v, m, track): [] for v in VOICE_LABELS for m in lengths for track in TRACKS}
    paths = []
    for data in movements:
        for (v, m, track), arrays in parts.items():
            sds = data.voices[v].sds[track, m]
            arrays.append(sds if sds is not None else np.empty(0, dtype=float))
        paths.append(data.source)
    sorted_sds, rows, sizes = {}, {}, {}
    for key in list(parts):
        arrays = parts.pop(key)
        pooled = np.concatenate(arrays) if arrays else np.empty(0, dtype=float)
        sizes[key] = np.array([a.size for a in arrays], dtype=np.int64)
        del arrays  # this key's per-movement arrays are freed before its sort
        order = np.argsort(pooled, kind="stable")
        sorted_sds[key] = pooled[order]
        rows[key] = np.repeat(np.arange(len(paths), dtype=np.int32), sizes[key])[order]
    return DevelopmentSdPool(
        lengths=tuple(lengths), reading=reading, paths=tuple(paths),
        sds=sorted_sds, rows=rows, sizes=sizes,
    )


def build_development_pool(
    corpus, config: SegmentConfig = SegmentConfig(), reading: str = "prose"
) -> DevelopmentSdPool:
    """The development pool of ``corpus``, any iterable of movements, taken
    one movement at a time without listing it."""
    data = (_voice_data(mv, config.lengths) for mv in corpus)
    return _pooled(data, config.lengths, reading)


def development_features(data: _MovementData) -> dict[str, float]:
    """Within-window variability features.

    Per voice, window length and track: the maximum window standard
    deviation and its location (ties take the first occurrence).  The
    counts of windows at or above each corpus-level threshold come from
    ``DevelopmentSdPool.count_columns``.
    """
    values = []
    for v in VOICE_LABELS:
        for m in data.lengths:
            for track in TRACKS:
                sds = data.voices[v].sds[track, m]
                if sds is None:
                    values += [_NAN] * len(_DEV_MAXIMA)
                    continue
                pos = int(np.argmax(sds))  # first occurrence on ties
                values += [float(sds[pos]), (pos + 1) / len(sds)]
    return _named("development", values, data.lengths)


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

    ``corpus`` may be any iterable, a one-pass iterator included, and is
    not listed: each movement's threshold-free features are computed and
    its window sds pooled, and then only its meta and its row of values are
    kept.  The development counts are taken at the pool's thresholds once
    every movement is pooled.
    """
    names = feature_names(config)
    position = {fn.label: j for j, fn in enumerate(names)}
    metas, rows = [], []

    def threshold_free(movement):
        if movement.meta is None:
            raise ValueError("every movement needs metadata for matrix assembly")
        data = _voice_data(movement, config.lengths)
        row = np.full(len(names), _NAN)  # the pool fills the count columns
        for family in (  # looked up per call, so a family wrapped in the module is called
            basic_summary, pairwise_interval_features, minor_third_segment_features,
            exposition_features, development_features, recapitulation_features,
        ):
            feats = family(data)
            row[[position[lbl] for lbl in feats]] = list(feats.values())
        metas.append(movement.meta)
        rows.append(row)
        return data

    pool = _pooled(map(threshold_free, corpus), config.lengths, threshold_reading)
    if not rows:
        raise ValueError("corpus is empty")
    matrix, thresholds = pool.counted(FeatureMatrix(tuple(metas), names, np.array(rows)))
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
