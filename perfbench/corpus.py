"""Seeded synthetic **kern corpora with overlapping composer styles.

Every bar takes its own composer's style with probability ``own_style``
(a little over one half), otherwise the other composer's.  The two classes
therefore overlap: no single feature separates them, and BIC selection
keeps about one feature per fold.

Movement lengths vary, but each corpus uses a fixed multiset of lengths
that the seed only shuffles, so the work per run barely depends on the
seed.  The kern writer follows the layout of ``tests/synth.bars_to_kern``
but lives here so that edits to the test helpers cannot change the
benchmark's inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

_PC_NAMES = ("c", "c#", "d", "d#", "e", "f", "f#", "g", "g#", "a", "a#", "b")
_RECIP = {
    Fraction(1, 8): "8",
    Fraction(1, 4): "4",
    Fraction(3, 8): "4.",
    Fraction(1, 2): "2",
}
_MOZART_DURATIONS = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))
COMPOSERS = ((0, "mozart"), (1, "haydn"))
#: Mean notes per bar of the two styles together (4 and about 3.5).
NOTES_PER_BAR = 3.75
#: Movement lengths lie within (1 - SPREAD, 1 + SPREAD) times the mean.
SPREAD = 0.3


def pitch_token(absolute_pitch: int) -> str:
    """Kern spelling of an absolute pitch (middle C = 49, sharps only)."""
    midi = absolute_pitch + 11
    octave, pc = midi // 12 - 1, midi % 12
    name = _PC_NAMES[pc]
    letter, accidental = name[0], name[1:]
    if octave >= 4:
        return letter * (octave - 3) + accidental
    return letter.upper() * (4 - octave) + accidental


def bars_to_kern(per_voice_bars) -> str:
    """Kern text from per-voice bars (Violin 1 first); each bar is a list of
    (absolute_pitch, bar_fraction) pairs filling one 4/4 bar."""
    lines = [
        "**kern\t**kern\t**kern\t**kern",
        "*Icello\t*Iviola\t*Ivioln\t*Ivioln",
        "*M4/4\t*M4/4\t*M4/4\t*M4/4",
    ]
    spines = per_voice_bars[::-1]  # kern spines run low to high
    for b in range(len(spines[0])):
        lines.append("\t".join([f"={b + 1}"] * 4))
        cursors = [list(spine[b]) for spine in spines]
        while any(cursors):
            row = []
            for cur in cursors:
                if cur:
                    pitch, frac = cur.pop(0)
                    row.append(f"{_RECIP[frac]}{pitch_token(pitch)}")
                else:
                    row.append(".")
            lines.append("\t".join(row))
    lines.append("\t".join(["*-"] * 4))
    return "\n".join(lines) + "\n"


def _bar(rng: random.Random, style: str, pitch: int, lo: int, hi: int):
    """One bar in a style: Haydn walks down in quarters, Mozart climbs in
    mixed values.  Returns the bar and the next starting pitch."""
    if style == "haydn":
        durations, sign = [Fraction(1, 4)] * 4, -1
    else:
        durations, left, sign = [], Fraction(1), 1
        while left > 0:
            d = min(rng.choice(_MOZART_DURATIONS), left)
            durations.append(d)
            left -= d
    bar = []
    for d in durations:
        step = sign * rng.randint(1, 3)
        if rng.random() < 0.2:
            step = -step
        pitch += step
        if pitch <= lo or pitch >= hi:
            pitch = rng.randint(lo + 10, hi - 10)
        bar.append((pitch, d))
    return bar, pitch


def movement_kern(rng: random.Random, composer: str, n_bars: int, own_style: float) -> str:
    """One movement; each bar's style is drawn once and shared by all four
    voices, so the voices carry one signal rather than four independent ones."""
    other = "haydn" if composer == "mozart" else "mozart"
    styles = [composer if rng.random() < own_style else other for _ in range(n_bars)]
    per_voice = []
    for v in range(4):
        lo, hi = 40 + 12 * (3 - v), 70 + 12 * (3 - v)
        pitch = rng.randint(lo + 10, hi - 10)
        bars = []
        for style in styles:
            bar, pitch = _bar(rng, style, pitch, lo, hi)
            bars.append(bar)
        per_voice.append(bars)
    return bars_to_kern(per_voice)


def write_corpus(
    root: Path,
    seed: int,
    quartets: int,
    movements_per_quartet: int,
    notes_per_voice: int,
    own_style: float,
) -> Path:
    """Write ``quartets`` quartets per composer and their manifest.

    Movement lengths are evenly spaced within ``notes_per_voice`` times
    (1 - SPREAD, 1 + SPREAD); the seed shuffles which movement gets which.
    Returns the manifest path.
    """
    rng = random.Random(seed)
    count = 2 * quartets * movements_per_quartet
    mean_bars = notes_per_voice / NOTES_PER_BAR
    lengths = [
        round(mean_bars * (1 - SPREAD + 2 * SPREAD * i / max(count - 1, 1)))
        for i in range(count)
    ]
    rng.shuffle(lengths)
    root.mkdir(parents=True, exist_ok=True)
    rows = ["path,composer,quartet_id,set_id,movement_number"]
    k = 0
    for q in range(quartets):
        for label, composer in COMPOSERS:
            qid = f"{composer[0]}q{q + 1}"
            for mv in range(1, movements_per_quartet + 1):
                name = f"{qid}_{mv}.krn"
                text = movement_kern(rng, composer, lengths[k], own_style)
                (root / name).write_text(text, encoding="utf-8")
                rows.append(f"{name},{label},{qid},set{q + 1},{mv}")
                k += 1
    manifest = root / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return manifest
