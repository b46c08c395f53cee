"""Synthetic movements, kern sources and toy datasets shared by the tests."""

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from quartet_attrib.score import (
    Composer,
    EncodedMovement,
    MovementMeta,
    VOICE_ORDER,
    VoiceTrack,
    pitch_class_of,
)

DUR_PALETTE = (
    Fraction(1, 16),
    Fraction(1, 8),
    Fraction(3, 16),
    Fraction(1, 4),
    Fraction(3, 8),
    Fraction(1, 2),
)


def make_meta(path="synth.krn", composer=Composer.MOZART, quartet="q1", movement=1, set_id=""):
    return MovementMeta(
        composer=composer,
        quartet_id=quartet,
        set_id=set_id,
        movement_number=movement,
        source_path=path,
    )


@dataclass(frozen=True)
class Event:
    """One event of a voice as a record, for tests that state events by hand."""

    absolute_pitch: int  # 0 for rests
    pitch_class: int  # 0 for rests, else 1..12 (1 = C)
    duration: Fraction  # fraction of one bar; merged ties may exceed 1
    bar_index: int
    onset: Fraction  # bar index plus within-bar offset at the event start

    @property
    def is_rest(self) -> bool:
        return self.absolute_pitch == 0


def events(track):
    """A VoiceTrack's events as Event records."""
    den = track.onset_den
    return tuple(
        Event(p, pitch_class_of(p), Fraction(d, den), b, Fraction(t, den))
        for p, d, b, t in zip(track.pitches, track.durations, track.bars, track.onsets)
    )


def track_from_events(voice, events):
    """The VoiceTrack holding ``events`` as columns, durations and onsets
    over the lcm of their denominators."""
    events = tuple(events)
    den = math.lcm(*(f.denominator for e in events for f in (e.duration, e.onset)))
    return VoiceTrack(
        voice=voice,
        pitches=tuple(e.absolute_pitch for e in events),
        durations=tuple(int(e.duration * den) for e in events),
        bars=tuple(e.bar_index for e in events),
        onsets=tuple(int(e.onset * den) for e in events),
        onset_den=den,
    )


def track_from_values(voice, pitches, durations, rest_flags=None):
    """Build a VoiceTrack from absolute pitches (0 = rest) and bar-fraction durations."""
    events = []
    clock = Fraction(0)
    rest_flags = rest_flags or [p == 0 for p in pitches]
    for p, d, is_rest in zip(pitches, durations, rest_flags):
        ap = 0 if is_rest else int(p)
        events.append(
            Event(
                absolute_pitch=ap,
                pitch_class=pitch_class_of(ap),
                duration=Fraction(d),
                bar_index=int(clock),
                onset=clock,
            )
        )
        clock += Fraction(d)
    return track_from_events(voice, events)


def movement_from_pitches(per_voice_pitches, per_voice_durations=None, meta=None):
    """Four-voice movement from absolute pitch lists (0 = rest)."""
    tracks = []
    for i, voice in enumerate(VOICE_ORDER):
        pitches = per_voice_pitches[i]
        if per_voice_durations is None:
            durations = [Fraction(1, 4)] * len(pitches)
        else:
            durations = per_voice_durations[i]
        tracks.append(track_from_values(voice, pitches, durations))
    return EncodedMovement(meta=meta or make_meta(), voices=tuple(tracks))


def random_movement(rng, n_notes=(10, 60), rest_prob=0.08, meta=None):
    """Random four-voice movement with occasional rests."""
    per_pitch, per_dur = [], []
    for _ in range(4):
        n = int(rng.integers(n_notes[0], n_notes[1] + 1))
        pitches = []
        for _ in range(n):
            if rng.random() < rest_prob:
                pitches.append(0)
            else:
                pitches.append(int(rng.integers(20, 111)))
        if all(p == 0 for p in pitches):
            pitches[0] = int(rng.integers(20, 111))
        per_pitch.append(pitches)
        per_dur.append([DUR_PALETTE[int(rng.integers(len(DUR_PALETTE)))] for _ in range(n)])
    return movement_from_pitches(per_pitch, per_dur, meta=meta)


def transpose_movement(movement, semitones):
    """Shift every note by a fixed number of semitones (rests untouched)."""
    tracks = []
    for track in movement.voices:
        pitches = tuple(p and p + semitones for p in track.pitches)
        if any(p and not 1 <= p <= 132 for p in pitches):
            raise ValueError("transposition leaves the pitch range")
        tracks.append(replace(track, pitches=pitches))
    return EncodedMovement(meta=movement.meta, voices=tuple(tracks))


# ---------------------------------------------------------------------------
# Golden excerpt: the Mozart K. 157 opening (four bars, Violin 1 melody)
# ---------------------------------------------------------------------------

K157_BARS = {
    1: ["4.cc", "8dd", "4ee", "4ee"],
    2: ["8ee", "8dd", "8ff", "8ee", "4dd", "4cc"],
    3: ["4.dd", "8ee", "4ff", "4ff"],
    4: ["8ff", "8ee", "8gg", "8ff", "4ee", "4dd"],
}

K157_PITCH_CLASSES = [1, 3, 5, 5, 5, 3, 6, 5, 3, 1, 3, 5, 6, 6, 6, 5, 8, 6, 5, 3]
K157_DURATIONS = [
    0.375, 0.125, 0.25, 0.25,
    0.125, 0.125, 0.125, 0.125, 0.25, 0.25,
    0.375, 0.125, 0.25, 0.25,
    0.125, 0.125, 0.125, 0.125, 0.25, 0.25,
]


def k157_excerpt_kern():
    """Four-spine kern source whose Violin 1 carries the K. 157 opening."""
    lines = [
        "!!!COM: synthetic golden excerpt",
        "**kern\t**kern\t**kern\t**kern",
        "*clefF4\t*clefC3\t*clefG2\t*clefG2",
        "*M4/4\t*M4/4\t*M4/4\t*M4/4",
    ]
    for bar in sorted(K157_BARS):
        lines.append("\t".join([f"={bar}"] * 4))
        for i, tok in enumerate(K157_BARS[bar]):
            rest = "1r" if i == 0 else "."
            lines.append("\t".join([rest, rest, rest, tok]))
    lines.append("\t".join(["=="] * 4))
    lines.append("\t".join(["*-"] * 4))
    return "\n".join(lines) + "\n"


def melody_kern(bars, meter="4/4", voices_rest=True):
    """Kern file with a given Violin 1 melody and whole-bar rests elsewhere."""
    lines = [
        "**kern\t**kern\t**kern\t**kern",
        f"*M{meter}\t*M{meter}\t*M{meter}\t*M{meter}",
    ]
    for b, toks in enumerate(bars, start=1):
        lines.append("\t".join([f"={b}"] * 4))
        for i, tok in enumerate(toks):
            rest = "1r" if i == 0 and voices_rest else "."
            lines.append("\t".join([rest, rest, rest, tok]))
    lines.append("\t".join(["*-"] * 4))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Tiny playable corpus for CLI end-to-end runs
# ---------------------------------------------------------------------------

_NOTE_TOKENS = ["c", "d", "e", "f", "g", "a", "b", "cc", "dd", "ee", "ff", "gg"]


def _tiny_movement_kern(rng):
    n_bars = int(rng.integers(8, 13))
    cols = []
    for _ in range(4):
        bars = []
        for _ in range(n_bars):
            toks = []
            for _ in range(4):
                toks.append(f"4{_NOTE_TOKENS[int(rng.integers(len(_NOTE_TOKENS)))]}")
            bars.append(toks)
        cols.append(bars)
    lines = [
        "**kern\t**kern\t**kern\t**kern",
        "*M4/4\t*M4/4\t*M4/4\t*M4/4",
    ]
    for b in range(n_bars):
        lines.append("\t".join([f"={b + 1}"] * 4))
        for i in range(4):
            lines.append("\t".join(cols[v][b][i] for v in range(4)))
    lines.append("\t".join(["*-"] * 4))
    return "\n".join(lines) + "\n"


def write_tiny_corpus(root, n_quartets=2, movements_per_quartet=2, seed=11):
    """Write a small corpus plus its manifest; returns the manifest path."""
    rng = np.random.default_rng(seed)
    root.mkdir(parents=True, exist_ok=True)
    rows = ["path,composer,quartet_id,set_id,movement_number"]
    for q in range(n_quartets):
        for comp in (0, 1):
            qid = f"{'m' if comp == 0 else 'h'}q{q + 1}"
            for mvno in range(1, movements_per_quartet + 1):
                name = f"{qid}_{mvno}.krn"
                (root / name).write_text(_tiny_movement_kern(rng), encoding="utf-8")
                rows.append(f"{name},{comp},{qid},set{q + 1},{mvno}")
    manifest = root / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return manifest


# ---------------------------------------------------------------------------
# Toy datasets for model fitting
# ---------------------------------------------------------------------------


def logistic_toy(rng, n=60, p=8, signal=(1.6, -1.2), intercept=-0.2):
    """Design matrix with the first len(signal) columns informative."""
    X = rng.normal(size=(n, p))
    eta = intercept + X[:, : len(signal)] @ np.asarray(signal)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return X, y


# ---------------------------------------------------------------------------
# Kern generation from pitch/duration plans (inverse of the parser)
# ---------------------------------------------------------------------------

_KERN_PC_NAMES = ("c", "c#", "d", "d#", "e", "f", "f#", "g", "g#", "a", "a#", "b")
_KERN_RECIP = {
    Fraction(1, 8): "8",
    Fraction(1, 4): "4",
    Fraction(3, 8): "4.",
    Fraction(1, 2): "2",
    Fraction(3, 4): "2.",
    Fraction(1, 1): "1",
}


def kern_pitch_token(absolute_pitch):
    """Kern spelling of an absolute pitch (sharps only)."""
    midi = absolute_pitch + 11
    octave, pc = midi // 12 - 1, midi % 12
    name = _KERN_PC_NAMES[pc]
    letter, accidental = name[0], name[1:]
    if octave >= 4:
        return letter * (octave - 3) + accidental
    return letter.upper() * (4 - octave) + accidental


def bars_to_kern(per_voice_bars):
    """Kern text from per-voice lists of bars, each bar a list of
    (absolute_pitch, bar_fraction) pairs summing to one whole bar of 4/4."""
    n_bars = len(per_voice_bars[0])
    lines = [
        "**kern\t**kern\t**kern\t**kern",
        "*Icello\t*Iviola\t*Ivioln\t*Ivioln",
        "*M4/4\t*M4/4\t*M4/4\t*M4/4",
    ]
    # per_voice_bars comes ordered Violin1..Cello; kern spines run low to high
    spines = [per_voice_bars[3], per_voice_bars[2], per_voice_bars[1], per_voice_bars[0]]
    for b in range(n_bars):
        lines.append("\t".join([f"={b + 1}"] * 4))
        cursors = [list(spine[b]) for spine in spines]
        while any(cursors):
            row = []
            for cur in cursors:
                if cur:
                    pitch, frac = cur.pop(0)
                    recip = _KERN_RECIP[Fraction(frac) * 1]
                    row.append(f"{recip}r" if pitch == 0 else f"{recip}{kern_pitch_token(pitch)}")
                else:
                    row.append(".")
            lines.append("\t".join(row))
    lines.append("\t".join(["*-"] * 4))
    return "\n".join(lines) + "\n"


def tuplet_kern(rng, durations, rows=48, bar_rows=8, meter="4/4", per_voice=None):
    """Kern text whose voices draw their durations (whole-note fractions,
    tuplets included) from durations, or voice v from per_voice[v], with
    rests, held rows and tied pairs; a barline follows every bar_rows rows,
    so most bars do not sum to a full bar."""
    lines = ["**kern\t**kern\t**kern\t**kern", "\t".join([f"*M{meter}"] * 4)]
    tied = [None] * 4  # the pitch token each voice must close a tie on
    for row in range(rows):
        if row % bar_rows == 0:
            lines.append("\t".join([f"={row // bar_rows + 1}"] * 4))
        cells = []
        for v in range(4):
            choices = durations if per_voice is None else per_voice[v]
            d = Fraction(choices[int(rng.integers(len(choices)))])
            recip = str(d.denominator) if d.numerator == 1 else f"{d.denominator}%{d.numerator}"
            if tied[v] is not None:
                cells.append(f"{recip}{tied[v]}]")
                tied[v] = None
            elif rng.random() < 0.15:
                cells.append(".")
            elif rng.random() < 0.1:
                cells.append(f"{recip}r")
            else:
                pitch = kern_pitch_token(int(rng.integers(30 + 8 * v, 60 + 8 * v)))
                opens = rng.random() < 0.1
                tied[v] = pitch if opens else None
                cells.append(f"{'[' if opens else ''}{recip}{pitch}")
        lines.append("\t".join(cells))
    lines.append("\t".join(["*-"] * 4))
    return "\n".join(lines) + "\n"


def _styled_bar(rng, style):
    """One 4/4 bar shaped by a composer style: direction bias and rhythm variety."""
    if style == "haydn":
        durations = [Fraction(1, 4)] * 4
        step_sign = -1
    else:
        durations = []
        left = Fraction(1)
        while left > 0:
            d = [Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)][int(rng.integers(3))]
            if d > left:
                d = left
            durations.append(d)
            left -= d
        step_sign = 1
    return durations, step_sign


def styled_movement_kern(rng, style, n_bars=10):
    """Kern text whose melodic direction and rhythm variety depend on style."""
    per_voice = []
    for v in range(4):
        lo, hi = (40 + 12 * (3 - v)), (70 + 12 * (3 - v))
        pitch = int(rng.integers(lo + 10, hi - 10))
        bars = []
        for _ in range(n_bars):
            durations, sign = _styled_bar(rng, style)
            bar = []
            for d in durations:
                step = sign * int(rng.integers(1, 4))
                if rng.random() < 0.2:
                    step = -step
                pitch += step
                if pitch <= lo or pitch >= hi:
                    pitch = int(rng.integers(lo + 10, hi - 10))
                bar.append((pitch, d))
            bars.append(bar)
        per_voice.append(bars)
    return bars_to_kern(per_voice)


def write_styled_corpus(root, n_quartets=4, movements_per_quartet=2, seed=23):
    """Corpus with planted composer differences; returns the manifest path."""
    rng = np.random.default_rng(seed)
    root.mkdir(parents=True, exist_ok=True)
    rows = ["path,composer,quartet_id,set_id,movement_number"]
    for q in range(n_quartets):
        for comp, style in ((0, "mozart"), (1, "haydn")):
            qid = f"{style[0]}sq{q + 1}"
            for mvno in range(1, movements_per_quartet + 1):
                name = f"{qid}_{mvno}.krn"
                (root / name).write_text(styled_movement_kern(rng, style), encoding="utf-8")
                rows.append(f"{name},{comp},{qid},set{q + 1},{mvno}")
    manifest = root / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return manifest
