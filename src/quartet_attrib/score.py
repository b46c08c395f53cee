"""**kern score parsing into per-voice pitch and duration tracks.

A movement is represented as four monophonic voices in the fixed order
Violin 1, Violin 2, Viola, Cello.  Each voice holds its events as columns:
an absolute pitch (1..132, middle C = 49; 0 for rests), a duration, a bar
index and an onset.  Durations and onsets are integers over one clock
denominator per voice, so a voice's time is exact fractions of a bar under
the meter in force at each event's bar, without a Fraction per note.
"""

from __future__ import annotations

import csv
import logging
import math
import re
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from fractions import Fraction
from pathlib import Path
from typing import Iterator

logger = logging.getLogger(__name__)

# Absolute pitch of C4.  The 1..132 range spans C0..B10 (11 octaves); only
# differences and mod-12 classes are consumed downstream, so any affine
# semitone mapping would do, but this constant is fixed for reproducibility.
MIDDLE_C = 49


class Composer(IntEnum):
    """Class labels used throughout: Mozart = 0, Haydn = 1."""

    MOZART = 0
    HAYDN = 1


class Voice(Enum):
    VIOLIN1 = "Violin1"
    VIOLIN2 = "Violin2"
    VIOLA = "Viola"
    CELLO = "Cello"


#: Fixed voice order of EncodedMovement.voices.
VOICE_ORDER = (Voice.VIOLIN1, Voice.VIOLIN2, Voice.VIOLA, Voice.CELLO)


class KernError(ValueError):
    """Base class for **kern parsing failures."""


class MalformedKern(KernError):
    """Unparseable token or spine structure."""


class WrongVoiceCount(KernError):
    """File does not contain exactly four note-bearing spines."""


class MissingMeter(KernError):
    """A note or rest appears before any time signature."""


@dataclass(frozen=True)
class MovementMeta:
    composer: Composer
    quartet_id: str
    movement_number: int
    set_id: str = ""
    source_path: str = ""

    def __post_init__(self):
        if int(self.composer) not in (0, 1):
            raise ValueError(f"composer label must be 0 or 1, got {self.composer}")
        if self.movement_number < 1:
            raise ValueError("movement_number must be >= 1")


@dataclass(frozen=True)
class VoiceTrack:
    """One voice's events in time order, one column per field: absolute
    pitch (0 for a rest), duration, bar index and onset.  A duration and an
    onset are integer counts of 1/onset_den bars, the onset counted from the
    movement start; a merged tie may last more than onset_den."""

    voice: Voice
    pitches: tuple[int, ...]
    durations: tuple[int, ...]
    bars: tuple[int, ...]
    onsets: tuple[int, ...]
    onset_den: int

    def __post_init__(self):
        if not len(self.pitches) == len(self.durations) == len(self.bars) == len(self.onsets):
            raise ValueError("a voice's columns must have equal lengths")


@dataclass(frozen=True)
class EncodedMovement:
    meta: MovementMeta | None
    voices: tuple[VoiceTrack, VoiceTrack, VoiceTrack, VoiceTrack]

    def __post_init__(self):
        if len(self.voices) != 4:
            raise ValueError("a movement holds exactly four voices")
        got = tuple(t.voice for t in self.voices)
        if got != VOICE_ORDER:
            raise ValueError(f"voices must be ordered {VOICE_ORDER}, got {got}")

    def voice(self, voice: Voice) -> VoiceTrack:
        return self.voices[VOICE_ORDER.index(voice)]


# ---------------------------------------------------------------------------
# Token-level parsing
# ---------------------------------------------------------------------------

_METER_RE = re.compile(r"^\*M(\d+)/(\d+)")
_DUR_RE = re.compile(r"(\d+)(?:%(\d+))?(\.*)")
_PITCH_RE = re.compile(r"([a-gA-G]+)(#+|-+|n)?")

_PC_BASE = {"c": 0, "d": 2, "e": 4, "f": 5, "g": 7, "a": 9, "b": 11}


def pitch_class_of(absolute_pitch: int) -> int:
    """Map an absolute pitch (1..132) to its pitch class (1..12); 0 stays 0."""
    if absolute_pitch == 0:
        return 0
    return (absolute_pitch - 1) % 12 + 1


def _number(digits: str, lineno: int) -> int:
    """A number of the score; one too long for int() to read is malformed."""
    try:
        return int(digits)
    except ValueError:
        raise MalformedKern(f"line {lineno}: {len(digits)}-digit number too long to read") from None


def _token_duration(sub: str, lineno: int) -> tuple[int, int] | None:
    """Duration of one note token in whole notes as an integer (numerator,
    denominator) pair, or None if it has none."""
    m = _DUR_RE.search(sub)
    if m is None:
        return None
    digits, denom, dots = m.group(1), m.group(2), m.group(3)
    if set(digits) == {"0"}:
        num, den = 2 ** len(digits), 1  # breve family: 0 = 2 wholes, 00 = 4
    else:
        # recip a%b lasts b/a whole notes
        num, den = _number(denom or "1", lineno), _number(digits, lineno)
    k = len(dots)  # k dots lengthen by (2^(k+1) - 1) / 2^k
    return num * (2 ** (k + 1) - 1), den * 2**k


def _token_pitch(sub: str, lineno: int) -> int:
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
    absolute = midi - 60 + MIDDLE_C  # C4 is MIDI 60
    if not 1 <= absolute <= 132:
        raise MalformedKern(f"line {lineno}: pitch {sub!r} outside the 1..132 range")
    return absolute


#: A voice's clock denominator must stay below 10**_CLOCK_DIGITS and its
#: clock (its latest onset plus duration) below _MAX_BARS bars, so that
#: every onset and duration of an accepted parse prints within Python's
#: 4300-digit limit on int to str conversion, and every float taken from
#: durations (in bars: means, squares, window variances) stays finite.
_CLOCK_DIGITS = 1000
_CLOCK_LIMIT = 10**_CLOCK_DIGITS
_MAX_BARS = 10**100


@dataclass
class _VoiceState:
    meter: tuple[int, int] | None = None  # bar length num/den in whole notes
    # The clock counts bar fractions from the movement start in units of
    # 1/den; den grows by integer factors as new duration denominators appear.
    clock: int = 0
    bar_start: int = 0  # clock at the last barline
    den: int = 1
    # the VoiceTrack columns; each duration and onset is over the den in
    # force when it was appended, and marks holds (events appended, den) at
    # each growth
    pitches: list[int] = field(default_factory=list)
    durations: list[int] = field(default_factory=list)
    bars: list[int] = field(default_factory=list)
    onsets: list[int] = field(default_factory=list)
    marks: list[tuple[int, int]] = field(default_factory=list)
    # an open tie: (pitch, bar index, onset, den at the onset)
    tie: tuple[int, int, int, int] | None = None

    def add(self, pitch: int, duration: int, bar: int, onset: int) -> None:
        self.pitches.append(pitch)
        self.durations.append(duration)
        self.bars.append(bar)
        self.onsets.append(onset)

    def track(self, voice: Voice) -> VoiceTrack:
        """The voice's columns, every duration and onset rescaled to the final den."""
        durations, onsets, start = self.durations, self.onsets, 0
        for end, den in self.marks:
            scale = self.den // den
            durations[start:end] = [d * scale for d in durations[start:end]]
            onsets[start:end] = [t * scale for t in onsets[start:end]]
            start = end
        return VoiceTrack(
            voice, tuple(self.pitches), tuple(durations), tuple(self.bars),
            tuple(onsets), self.den,
        )


def _flush_tie(st: _VoiceState, src: str, end: int) -> None:
    """Add the open tie as one event, from its onset to the clock value
    end: the tied notes fill that span."""
    (pitch, bar, onset, den), st.tie = st.tie, None
    onset *= st.den // den
    duration = end - onset
    if duration > st.den:
        logger.warning(
            "%s: tied note of duration %s exceeds one bar (stored unclamped)",
            src,
            Fraction(duration, st.den),
        )
    st.add(pitch, duration, bar, onset)


def _read_token(tok: str, lineno: int) -> tuple | None:
    """Read one data token as (pitch, num, den, opens, closes, cont, zero),
    or None for a grace note: the kept note or rest (pitch 0), its duration
    num/den in whole notes, its tie marks, and whether any sub-token has a
    zero duration.  The reading depends on the token text alone; lineno
    only labels the errors."""
    if "q" in tok or "Q" in tok:
        return None  # grace notes carry no duration; dropped
    subs = [s for s in tok.split(" ") if s]
    notes: list[tuple[int, tuple[int, int], str]] = []
    rest: tuple[tuple[int, int], str] | None = None
    zero = False  # reported after the meter check, which comes first
    for sub in subs:
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
        # Multiple stops: retain only the highest of simultaneous notes
        # (ties: the longer, then the larger token text).
        if len(notes) > 1:
            notes.sort(key=lambda n: (n[0], Fraction(*n[1]), n[2]))
        pitch, (num, den), sub = notes[-1]
    elif rest is not None:
        (num, den), sub = rest
        pitch = 0
    else:
        raise MalformedKern(f"line {lineno}: unparseable token {tok!r}")
    return pitch, num, den, "[" in sub, "]" in sub, "_" in sub, zero


def _process_token(
    tok: str, reading: tuple, st: _VoiceState, bar_index: int, lineno: int, src: str
) -> None:
    """Advance one voice by one read token."""
    pitch, num, den, opens, closes, cont, zero = reading
    meter = st.meter
    if meter is None:
        raise MissingMeter(f"line {lineno}: note before any time signature")
    if zero:
        raise MalformedKern(f"line {lineno}: zero duration in {tok!r}")
    # the token's length in bars, num/step in lowest terms
    num, step = num * meter[1], den * meter[0]
    g = math.gcd(num, step)
    num, step = num // g, step // g
    if st.den % step:
        grow = step // math.gcd(st.den, step)
        st.marks.append((len(st.onsets), st.den))
        st.den *= grow
        st.clock *= grow
        st.bar_start *= grow
    onset = st.clock
    length = num * (st.den // step)
    st.clock += length
    if st.den >= _CLOCK_LIMIT:
        raise MalformedKern(f"line {lineno}: voice clock needs more than {_CLOCK_DIGITS} digits")
    if st.clock >= _MAX_BARS and st.clock >= _MAX_BARS * st.den:  # the first test is cheap
        raise MalformedKern(f"line {lineno}: voice lasts 10**100 bars or more")

    tie = st.tie
    if tie is not None:
        if (cont or closes) and pitch == tie[0]:
            if closes:
                _flush_tie(st, src, st.clock)
            return
        logger.warning("%s: line %d: tie broken by a non-matching event", src, lineno)
        _flush_tie(st, src, onset)

    if opens and not closes:
        st.tie = (pitch, bar_index, onset, st.den)
    else:
        if (cont or closes) and not opens:
            logger.warning("%s: line %d: stray tie marker", src, lineno)
        st.add(pitch, length, bar_index, onset)


_MANIPULATORS = ("*-", "*^", "*v", "*x", "*+")


def _apply_manipulators(tokens: list[str], cols: list[int | None]) -> list[int | None]:
    out: list[int | None] = []
    i = 0
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
            out.extend([spine, None])  # added spine is never note-bearing for us
            i += 1
        else:
            out.append(spine)
            i += 1
    return out


def _voice_columns(
    voices: list[_VoiceState], cols: list[int | None]
) -> list[tuple[_VoiceState, int]]:
    """Each voice, in spine order, with the column it reads: the leftmost
    one of its kern spine."""
    first: dict[int, int] = {}
    for ci, spine in enumerate(cols):
        if spine is not None and spine not in first:
            first[spine] = ci
    return [(voices[spine], first[spine]) for spine in sorted(first)]


def parse_kern(file_content: str, meta: MovementMeta | None = None) -> EncodedMovement:
    """Parse a four-voice **kern score into an EncodedMovement.

    Within any chord only the top note is kept, grace notes are dropped,
    tied note groups are merged into single events, and every duration is
    stored exactly, in bars under the meter in force, as an integer over the
    voice's clock denominator.  Spines other than the four **kern spines are
    ignored; when a kern spine splits, only its leftmost sub-spine is read so
    the rhythm stays well-formed, and that sub-spine alone sets the voice's
    meter.  A meter on a line that also manipulates spines applies to the
    spines as they stand before the manipulation.

    Raises MalformedKern, WrongVoiceCount or MissingMeter on structural
    problems, and MalformedKern when a voice's clock denominator outgrows
    _CLOCK_DIGITS digits or the voice lasts _MAX_BARS bars.  Irregular bar
    sums are logged, not fatal.
    """
    src = meta.source_path if meta is not None else "<string>"
    cols: list[int | None] | None = None
    voices: list[_VoiceState] = []
    reads: list[tuple[_VoiceState, int]] = []
    readings: dict[str, tuple | None] = {}  # each distinct data token, read once
    bar_index = 0
    seen_any_event = False
    events_in_bar = 0

    for lineno, line in enumerate(file_content.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("!"):
            continue  # global or local comments, reference records
        tokens = line.split("\t")

        if cols is None:
            if all(t.startswith("**") for t in tokens):
                cols = []
                nkern = 0
                for t in tokens:
                    if t == "**kern":
                        cols.append(nkern)
                        nkern += 1
                    else:
                        cols.append(None)
                if nkern != 4:
                    raise WrongVoiceCount(f"expected 4 **kern spines, found {nkern}")
                voices = [_VoiceState() for _ in range(4)]
                reads = _voice_columns(voices, cols)
                continue
            raise MalformedKern(f"line {lineno}: content before the **kern header")

        if len(tokens) != len(cols):
            raise MalformedKern(
                f"line {lineno}: expected {len(cols)} spines, got {len(tokens)}"
            )

        if all(t.startswith("*") for t in tokens):
            # a voice's meter comes from the column it reads, like its notes
            for st, ci in reads:
                m = _METER_RE.match(tokens[ci])
                if m:
                    num, den = _number(m.group(1), lineno), _number(m.group(2), lineno)
                    if not num or not den:
                        raise MalformedKern(f"line {lineno}: meter {tokens[ci]!r} has a zero term")
                    # a bar of num/den meter lasts num/den whole notes
                    st.meter = (num, den)
            if any(t in _MANIPULATORS for t in tokens):
                cols = _apply_manipulators(tokens, cols)
                if not any(c is not None for c in cols):
                    break  # all spines terminated
                reads = _voice_columns(voices, cols)
            continue

        if tokens[0].startswith("="):
            if not seen_any_event:
                if bar_index == 0:
                    bar_index = 1  # explicit opening barline: no pickup bar
                continue
            if events_in_bar == 0:
                continue  # consecutive barlines
            for spine, st in enumerate(voices):
                length = st.clock - st.bar_start
                if bar_index > 0 and length and length != st.den:
                    logger.warning(
                        "%s: bar %d of voice %d sums to %s, expected 1",
                        src,
                        bar_index,
                        spine,
                        Fraction(length, st.den),
                    )
                st.bar_start = st.clock
            bar_index += 1
            events_in_bar = 0
            continue

        # data line: read each kern spine's leftmost active column
        for st, ci in reads:
            tok = tokens[ci]
            if tok in (".", ""):
                continue
            try:
                reading = readings[tok]
            except KeyError:
                reading = readings[tok] = _read_token(tok, lineno)
            if reading is None:
                continue  # grace note
            _process_token(tok, reading, st, bar_index, lineno, src)
            events_in_bar += 1
            seen_any_event = True

    if cols is None:
        raise MalformedKern("no **kern exclusive interpretation found")
    for st in voices:
        if st.tie is not None:
            logger.warning("%s: unterminated tie at end of file", src)
            _flush_tie(st, src, st.clock)

    # kern spines run low to high: Cello, Viola, Violin 2, Violin 1
    by_voice = dict(zip((Voice.CELLO, Voice.VIOLA, Voice.VIOLIN2, Voice.VIOLIN1), voices))
    tracks = tuple(by_voice[v].track(v) for v in VOICE_ORDER)
    return EncodedMovement(meta=meta, voices=tracks)


# ---------------------------------------------------------------------------
# Track views and corpus loading
# ---------------------------------------------------------------------------


def movement_to_json(movement: EncodedMovement) -> dict:
    """JSON-safe dump of a parsed movement, for debugging."""
    meta = movement.meta
    return {
        "meta": None if meta is None else {**vars(meta), "composer": int(meta.composer)},
        "voices": {
            t.voice.value: [
                {
                    "absolute_pitch": p,
                    "pitch_class": pitch_class_of(p),
                    "duration": str(Fraction(d, t.onset_den)),
                    "bar_index": b,
                    "onset": str(Fraction(o, t.onset_den)),
                }
                for p, d, b, o in zip(t.pitches, t.durations, t.bars, t.onsets)
            ]
            for t in movement.voices
        },
    }


_COMPOSER_ALIASES = {
    "0": Composer.MOZART,
    "1": Composer.HAYDN,
    "mozart": Composer.MOZART,
    "haydn": Composer.HAYDN,
}


def _parse_composer(text: str) -> Composer:
    try:
        return _COMPOSER_ALIASES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown composer label {text!r}") from None


def read_manifest(manifest_path: str | Path) -> list[MovementMeta]:
    """Read a manifest CSV (path, composer, quartet_id, set_id, movement_number).

    The path column is ``source_path`` when the file has one, as the
    ``movement_meta.csv`` sidecar does, and ``path`` otherwise.  A file that
    lacks a column, or a row that does not read, raises ValueError naming
    the file (and the row's line)."""
    metas: list[MovementMeta] = []
    seen: set[str] = set()
    with open(manifest_path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh, restval="")
        header = set(reader.fieldnames or [])
        path_column = "source_path" if "source_path" in header else "path"
        missing = {path_column, "composer", "quartet_id", "movement_number"} - header
        if missing:
            raise ValueError(f"manifest {manifest_path} is missing columns: {sorted(missing)}")
        for row in reader:
            path = row[path_column].strip()
            if not path:
                continue
            try:
                if path in seen:
                    raise ValueError(f"duplicate path {path!r}")
                seen.add(path)
                metas.append(
                    MovementMeta(
                        composer=_parse_composer(row["composer"]),
                        quartet_id=row["quartet_id"].strip(),
                        set_id=(row.get("set_id") or "").strip(),
                        movement_number=int(row["movement_number"]),
                        source_path=path,
                    )
                )
            except ValueError as exc:
                raise ValueError(f"manifest {manifest_path} line {reader.line_num}: {exc}") from None
    return metas


def load_corpus(
    corpus_root: str | Path,
    manifest_path: str | Path,
) -> tuple[Iterator[EncodedMovement], list[tuple[str, str]]]:
    """Parse the manifest movements under corpus_root, one at a time.

    Returns (movements, errors).  The manifest is read at once; movements
    is a one-pass iterator that reads and parses each file when asked for
    it, and errors is the list it fills with one (manifest path, message)
    pair per movement that does not parse, complete once movements is
    exhausted.  Reporting the errors, and deciding whether they are fatal,
    is the caller's job.
    """
    root = Path(corpus_root)
    metas = read_manifest(manifest_path)
    errors: list[tuple[str, str]] = []

    def movements():
        for meta in metas:
            path = Path(meta.source_path)
            if not path.is_absolute():
                path = root / path
            try:
                content = path.read_text(encoding="utf-8-sig", errors="replace")
                movement = parse_kern(content, meta=meta)
            except (OSError, KernError) as exc:
                errors.append((meta.source_path, str(exc)))
                continue
            yield movement

    return movements(), errors
