import logging
from fractions import Fraction

import numpy as np
import pytest

import oracles
import synth
from quartet_attrib import score
from quartet_attrib.score import (
    Composer,
    KernError,
    MalformedKern,
    MissingMeter,
    MovementMeta,
    Voice,
    WrongVoiceCount,
    load_corpus,
    movement_to_json,
    parse_kern,
    pitch_class_of,
    read_manifest,
)


def notes(mv, voice, attr):
    """One attribute of each of a voice's notes, rests removed."""
    return [getattr(e, attr) for e in oracles.notes_of(mv, voice.value)]


def four_spine(body_lines, meter="*M4/4"):
    lines = ["**kern\t**kern\t**kern\t**kern", "\t".join([meter] * 4)]
    lines.extend(body_lines)
    lines.append("\t".join(["*-"] * 4))
    return "\n".join(lines) + "\n"


def melody_file(tokens, meter="*M4/4"):
    """Violin 1 carries the tokens; the other voices rest a whole bar each bar."""
    body = []
    for tok in tokens:
        if tok.startswith("="):
            body.append("\t".join([tok] * 4))
            continue
        rest = "1r" if not body or body[-1].startswith("=") else "."
        body.append("\t".join([rest, rest, rest, tok]))
    return four_spine(body, meter)


class TestK157Golden:
    def test_pitch_and_duration_tracks(self):
        mv = parse_kern(synth.k157_excerpt_kern())
        assert notes(mv, Voice.VIOLIN1, "pitch_class") == synth.K157_PITCH_CLASSES
        assert [float(d) for d in notes(mv, Voice.VIOLIN1, "duration")] == synth.K157_DURATIONS
        assert len(notes(mv, Voice.VIOLIN1, "pitch_class")) == 20

    def test_rest_voices_hold_whole_bar_rests(self):
        mv = parse_kern(synth.k157_excerpt_kern())
        cello = mv.voice(Voice.CELLO)
        assert all(e.is_rest for e in synth.events(cello))
        assert all(e.duration == 1 for e in synth.events(cello))
        assert notes(mv, Voice.CELLO, "pitch_class") == []

    def test_deterministic(self):
        content = synth.k157_excerpt_kern()
        assert parse_kern(content) == parse_kern(content)


class TestTokenHandling:
    def test_whole_bar_rest(self):
        mv = parse_kern(melody_file(["=1", "1r"]))
        ev = synth.events(mv.voice(Voice.VIOLIN1))[0]
        assert ev.absolute_pitch == 0 and ev.pitch_class == 0
        assert ev.duration == Fraction(1)

    # hand-resolved chords: keep only the highest of simultaneous notes
    CHORDS = [
        ("4g 4b", "b"),  # G4+B4 -> B4
        ("4b 4g", "b"),
        ("4c 4e 4g", "g"),
        ("2C 2G", "G"),
        ("8cc 8ee", "ee"),
        ("4c 4cc", "cc"),
        ("4B 4c", "c"),
        ("4f# 4a", "a"),
        ("4e- 4g", "g"),
        ("4GG 4d", "d"),
    ]

    @pytest.mark.parametrize("token,expected", CHORDS)
    def test_chord_keeps_top_note(self, token, expected):
        mv = parse_kern(melody_file(["=1", token, "2.r"]))
        solo = parse_kern(melody_file(["=1", f"4{expected}", "2.r"]))
        got = synth.events(mv.voice(Voice.VIOLIN1))[0]
        want = synth.events(solo.voice(Voice.VIOLIN1))[0]
        assert got.absolute_pitch == want.absolute_pitch

    @pytest.mark.parametrize("token", ["4c 8c", "8c 4c", "8.c 4c", "4c 16.c"])
    def test_chord_on_one_top_pitch_keeps_longest_note(self, token):
        mv = parse_kern(melody_file(["=1", token, "2.r"]))
        assert synth.events(mv.voice(Voice.VIOLIN1))[0].duration == Fraction(1, 4)

    def test_grace_notes_dropped(self):
        mv = parse_kern(melody_file(["=1", "4c", "ccq", "4d", "2e"]))
        pcs = notes(mv, Voice.VIOLIN1, "pitch_class")
        assert pcs == [1, 3, 5]

    def test_tie_merged_within_bar(self):
        mv = parse_kern(melody_file(["=1", "[4c", "4c]", "2d"]))
        events = synth.events(mv.voice(Voice.VIOLIN1))
        assert [float(e.duration) for e in events] == [0.5, 0.5]
        assert events[0].pitch_class == 1

    def test_tie_across_barline_exceeds_one_bar(self, caplog):
        tokens = ["=1", "4c", "4d", "[2e", "=2", "2e_", "2e]"]
        with caplog.at_level(logging.WARNING):
            mv = parse_kern(melody_file(tokens))
        events = synth.events(mv.voice(Voice.VIOLIN1))
        assert [float(e.duration) for e in events] == [0.25, 0.25, 1.5]
        assert events[-1].onset == Fraction(1, 2)
        assert any("exceeds one bar" in r.message for r in caplog.records)

    def test_broken_tie_ends_where_the_next_event_starts(self, caplog):
        # the breaking triplet also grows the voice's clock denominator
        with caplog.at_level(logging.WARNING):
            mv = parse_kern(melody_file(["=1", "[4c", "12d", "12e", "12f", "2g"]))
        durs = [e.duration for e in synth.events(mv.voice(Voice.VIOLIN1))]
        assert durs == [Fraction(1, 4)] + [Fraction(1, 12)] * 3 + [Fraction(1, 2)]
        assert any("tie broken" in r.message for r in caplog.records)

    def test_accidentals_shift_pitch(self):
        sharp = parse_kern(melody_file(["=1", "4c#", "2.r"]))
        flat = parse_kern(melody_file(["=1", "4d-", "2.r"]))
        natural = parse_kern(melody_file(["=1", "4cn", "2.r"]))
        assert (
            synth.events(sharp.voice(Voice.VIOLIN1))[0].absolute_pitch
            == synth.events(flat.voice(Voice.VIOLIN1))[0].absolute_pitch
        )
        assert synth.events(natural.voice(Voice.VIOLIN1))[0].pitch_class == 1

    def test_dotted_and_tuplet_durations(self):
        mv = parse_kern(melody_file(["=1", "2.c", "12d", "12e", "12f"]))
        durs = notes(mv, Voice.VIOLIN1, "duration")
        assert durs == [Fraction(3, 4), Fraction(1, 12), Fraction(1, 12), Fraction(1, 12)]

    def test_meter_change_rescales_durations(self):
        tokens = ["=1", "4c", "4d", "4e", "4f"]
        body = ["\t".join(["=1"] * 4)]
        body.append("\t".join(["1r", "1r", "1r", "4c"]))
        body.append("\t".join([".", ".", ".", "2.d"]))
        body.append("\t".join(["*M3/4"] * 4))
        body.append("\t".join(["=2"] * 4))
        body.append("\t".join(["2.r", "2.r", "2.r", "4e"]))
        body.append("\t".join([".", ".", ".", "2f"]))
        content = four_spine(body)
        mv = parse_kern(content)
        durs = notes(mv, Voice.VIOLIN1, "duration")
        # a quarter note is 1/4 of a 4/4 bar but 1/3 of a 3/4 bar
        assert durs == [Fraction(1, 4), Fraction(3, 4), Fraction(1, 3), Fraction(2, 3)]


class TestErrors:
    def test_wrong_voice_count(self):
        content = "**kern\t**kern\t**kern\n*M4/4\t*M4/4\t*M4/4\n4c\t4c\t4c\n*-\t*-\t*-\n"
        with pytest.raises(WrongVoiceCount):
            parse_kern(content)

    def test_non_kern_spines_ignored(self):
        lines = [
            "**kern\t**kern\t**kern\t**kern\t**dynam",
            "*M4/4\t*M4/4\t*M4/4\t*M4/4\t*",
            "=1\t=1\t=1\t=1\t=1",
            "1r\t1r\t1r\t4c\tp",
            ".\t.\t.\t2.d\t.",
            "*-\t*-\t*-\t*-\t*-",
        ]
        mv = parse_kern("\n".join(lines) + "\n")
        assert notes(mv, Voice.VIOLIN1, "pitch_class") == [1, 3]

    def test_missing_meter(self):
        content = "**kern\t**kern\t**kern\t**kern\n4c\t4c\t4c\t4c\n*-\t*-\t*-\t*-\n"
        with pytest.raises(MissingMeter):
            parse_kern(content)

    @pytest.mark.parametrize("meter", ["*M4/0", "*M0/4"])
    def test_zero_meter_term(self, meter):
        with pytest.raises(MalformedKern):
            parse_kern(four_spine(["4c\t4c\t4c\t4c"], meter=meter))

    @pytest.mark.parametrize("token", ["4%0c", "4%0r", "8%0.g", "4%0c 4e", "4c 4r 4%0r"])
    def test_zero_duration_recip(self, token):
        with pytest.raises(MalformedKern, match="zero duration"):
            parse_kern(four_spine([f"{token}\t4c\t4c\t4c", "4c\t4c\t4c\t4c"]))

    def test_malformed_token(self):
        with pytest.raises(MalformedKern):
            parse_kern(melody_file(["=1", "4zz", "2.r"]))

    def test_ragged_line(self):
        content = "**kern\t**kern\t**kern\t**kern\n*M4/4\t*M4/4\t*M4/4\t*M4/4\n4c\t4c\n"
        with pytest.raises(MalformedKern):
            parse_kern(content)

    def test_bar_sum_mismatch_logged_not_fatal(self, caplog):
        with caplog.at_level(logging.WARNING):
            mv = parse_kern(melody_file(["=1", "4c", "4d", "=2", "4e", "4f", "4g", "4a"]))
        assert len(synth.events(mv.voice(Voice.VIOLIN1))) == 6
        assert any("sums to" in r.message for r in caplog.records)

    def test_pickup_bar_not_flagged(self, caplog):
        # pickup quarter before the first barline, then full bars
        body = [
            "\t".join(["4r", "4r", "4r", "4c"]),
            "\t".join(["=1"] * 4),
            "\t".join(["1r", "1r", "1r", "4d"]),
            "\t".join([".", ".", ".", "2.e"]),
            "\t".join(["=2"] * 4),
            "\t".join(["1r", "1r", "1r", "1f"]),
            "\t".join(["=3"] * 4),
        ]
        with caplog.at_level(logging.WARNING):
            mv = parse_kern(four_spine(body))
        assert not any("sums to" in r.message for r in caplog.records)
        events = synth.events(mv.voice(Voice.VIOLIN1))
        assert events[0].bar_index == 0 and events[1].bar_index == 1


class TestSpineStructure:
    def test_spine_split_keeps_leftmost(self):
        body = [
            "\t".join(["=1"] * 4),
            "\t".join(["1r", "1r", "1r", "4c"]),
            "\t".join([".", ".", ".", "*^"]).replace(".", "*"),
            "\t".join([".", ".", ".", "4d\t4G"]),
            "\t".join([".", ".", ".", "4e\t4A"]),
            "\t".join(["*", "*", "*", "*v\t*v"]),
            "\t".join([".", ".", ".", "4f"]),
        ]
        mv = parse_kern(four_spine(body))
        assert notes(mv, Voice.VIOLIN1, "pitch_class") == [1, 3, 5, 6]

    @staticmethod
    def _meter_on_split(first_bar):
        """Four kern spines and a dynamics spine that splits on the line
        which sets every kern spine's meter to 3/4."""
        lines = ["**kern\t**kern\t**kern\t**kern\t**dynam", *first_bar]
        lines.append("\t".join(["*M3/4"] * 4 + ["*^"]))
        lines += ["\t".join(["=2"] * 6), "\t".join(["2.C", "2.c", "2.e", "2.g", "f", "p"])]
        lines += ["\t".join(["=3"] * 6), "\t".join(["*-"] * 6)]
        return "\n".join(lines) + "\n"

    def test_meter_on_manipulator_line_applies(self, caplog):
        first_bar = [
            "\t".join(["*M4/4"] * 4 + ["*"]),
            "\t".join(["=1"] * 5),
            "\t".join(["1C", "1c", "1e", "1g", "p"]),
        ]
        with caplog.at_level(logging.WARNING):
            mv = parse_kern(self._meter_on_split(first_bar))
        assert not any("sums to" in r.message for r in caplog.records)
        for track in mv.voices:
            assert [e.duration for e in synth.events(track)] == [1, 1]
            assert [e.onset for e in synth.events(track)] == [0, 1]

    def test_meter_on_manipulator_line_is_the_first_meter(self):
        mv = parse_kern(self._meter_on_split([]))
        for track in mv.voices:
            assert [(e.duration, e.bar_index) for e in synth.events(track)] == [(1, 1)]

    def test_meter_on_split_of_a_kern_spine(self):
        # the splitting spine has no meter of its own on that line; it gets
        # one on the next line, read by its leftmost sub-spine
        body = [
            "\t".join(["=1"] * 4),
            "\t".join(["1C", "1c", "1e", "1g"]),
            "*M3/4\t*M3/4\t*M3/4\t*^",
            "*\t*\t*\t*M3/4\t*M3/4",
            "\t".join(["=2"] * 5),
            "\t".join(["2.C", "2.c", "2.e", "2.g", "2.b"]),
            "\t".join(["=3"] * 5),
            "*\t*\t*\t*v\t*v",
        ]
        mv = parse_kern(four_spine(body))
        for track in mv.voices:
            assert [e.duration for e in synth.events(track)] == [1, 1]

    @staticmethod
    def _meters_differ_across_a_split():
        """Violin 1 splits and its sub-spines then get different meters."""
        body = [
            "*\t*\t*\t*^",
            "*\t*\t*\t*M4/4\t*M3/4",
            "\t".join(["=1"] * 5),
            "\t".join(["1C", "1c", "1e", "1g", "2.b"]),
            "\t".join(["=2"] * 5),
            "*\t*\t*\t*v\t*v",
        ]
        return four_spine(body)

    def test_split_spine_meter_comes_from_the_read_sub_spine(self, caplog):
        with caplog.at_level(logging.WARNING):
            mv = parse_kern(self._meters_differ_across_a_split())
        assert not any("sums to" in r.message for r in caplog.records)
        assert [e.duration for e in synth.events(mv.voice(Voice.VIOLIN1))] == [1]

    def test_spine_order_maps_low_to_high(self):
        body = [
            "\t".join(["=1"] * 4),
            "\t".join(["4C", "4e", "4cc", "4ee"]),
            "\t".join(["2.r", "2.r", "2.r", "2.r"]),
        ]
        mv = parse_kern(four_spine(body))
        # leftmost spine is the lowest voice: C3, E4, C5, E5 low to high
        assert notes(mv, Voice.CELLO, "absolute_pitch") == [37]
        assert notes(mv, Voice.VIOLA, "absolute_pitch") == [53]
        assert notes(mv, Voice.VIOLIN2, "absolute_pitch") == [61]
        assert notes(mv, Voice.VIOLIN1, "absolute_pitch") == [65]


class TestTrackViews:
    def test_rest_removal(self):
        mv = parse_kern(melody_file(["=1", "4c", "4r", "4d", "4r"]))
        assert notes(mv, Voice.VIOLIN1, "pitch_class") == [1, 3]

    def test_pitch_class_consistency(self):
        mv = parse_kern(synth.k157_excerpt_kern())
        for track in mv.voices:
            for e in synth.events(track):
                if e.absolute_pitch:
                    assert e.pitch_class == (e.absolute_pitch - 1) % 12 + 1
                else:
                    assert e.pitch_class == 0

    def test_no_zero_in_pitch_sequences(self):
        mv = parse_kern(melody_file(["=1", "4c", "4r", "4d", "4r"]))
        for voice in Voice:
            assert 0 not in notes(mv, voice, "pitch_class")

    def test_columns_of_unequal_length_are_refused(self):
        with pytest.raises(ValueError, match="equal lengths"):
            score.VoiceTrack(Voice.VIOLIN1, (49, 51), (1, 1), (0,), (0, 1), 4)

    def test_onsets_cumulative(self):
        mv = parse_kern(melody_file(["=1", "4c", "4d", "2e"]))
        onsets = [e.onset for e in synth.events(mv.voice(Voice.VIOLIN1))]
        assert onsets == [Fraction(0), Fraction(1, 4), Fraction(1, 2)]

    def test_onsets_second_bar_pattern(self):
        # a bar of 0.375/0.125/0.25/0.25 starting one bar in: onsets 1.0..1.75
        tokens = ["=1", "4c", "4d", "4e", "4f", "=2", "4.g", "8a", "4b", "4cc"]
        mv = parse_kern(melody_file(tokens))
        onsets = [float(e.onset) for e in synth.events(mv.voice(Voice.VIOLIN1))][4:]
        assert onsets == [1.0, 1.375, 1.5, 1.75]

    def test_onsets_include_rests(self):
        mv = parse_kern(melody_file(["=1", "4c", "4r", "2d"]))
        events = synth.events(mv.voice(Voice.VIOLIN1))
        assert [e.is_rest for e in events] == [False, True, False]
        assert [e.onset for e in events] == [Fraction(0), Fraction(1, 4), Fraction(1, 2)]

    @pytest.mark.parametrize("meter", ["4/4", "3/8"])
    def test_onset_is_the_sum_of_earlier_durations(self, meter):
        """Ties, tuplets and rests: every event starts where the voice's
        earlier events (tied notes merged) end."""
        tuplets = tuple(Fraction(1, 4 * k) for k in (1, 2, 3, 5, 7, 11))
        tied = 0
        for seed in range(4):
            text = synth.tuplet_kern(np.random.default_rng(seed), tuplets, meter=meter)
            tied += text.count("[")
            for track in parse_kern(text).voices:
                clock = Fraction(0)
                for e in synth.events(track):
                    assert e.onset == clock
                    clock += e.duration
                assert any(e.is_rest for e in synth.events(track))
        assert tied


class TestCorpusLoading:
    def test_manifest_round_trip(self, tmp_path):
        manifest = synth.write_tiny_corpus(tmp_path / "corpus", seed=3)
        movements, errors = load_corpus(tmp_path / "corpus", manifest)
        movements = list(movements)
        assert errors == []
        assert len(movements) == 8
        metas = [m.meta for m in movements]
        assert {m.composer for m in metas} == {Composer.MOZART, Composer.HAYDN}
        assert all(m.movement_number >= 1 for m in metas)

    def test_bad_file_reported(self, tmp_path):
        root = tmp_path / "corpus"
        manifest = synth.write_tiny_corpus(root, seed=3)
        bad = root / "bad.krn"
        bad.write_text("**kern\t**kern\n*-\t*-\n", encoding="utf-8")
        with open(manifest, "a", encoding="utf-8") as fh:
            fh.write("bad.krn,0,mq9,set9,1\n")
        movements, errors = load_corpus(root, manifest)
        assert errors == []  # nothing is parsed before the movements are asked for
        assert len(list(movements)) == 8
        assert len(errors) == 1 and errors[0][0] == "bad.krn"

    def test_a_programming_error_in_the_parser_is_not_a_bad_file(self, tmp_path, monkeypatch):
        def parse_kern(content, meta=None):
            raise ValueError("a bug, not a malformed file")

        manifest = synth.write_tiny_corpus(tmp_path / "corpus", seed=3)
        monkeypatch.setattr(score, "parse_kern", parse_kern)
        movements, errors = load_corpus(tmp_path / "corpus", manifest)
        with pytest.raises(ValueError, match="a bug"):
            next(movements)
        assert errors == []

    def test_manifest_validation(self, tmp_path):
        p = tmp_path / "manifest.csv"
        p.write_text("path,composer\nx.krn,0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_manifest(p)

    def test_movement_json_dump(self):
        mv = parse_kern(synth.k157_excerpt_kern(), meta=synth.make_meta())
        payload = movement_to_json(mv)
        assert payload["meta"]["composer"] == 0
        assert len(payload["voices"]["Violin1"]) == 20


def test_meta_validation():
    with pytest.raises(ValueError):
        MovementMeta(composer=Composer.MOZART, quartet_id="q", movement_number=0)


def test_pitch_class_of():
    assert pitch_class_of(49) == 1  # middle C
    assert pitch_class_of(60) == 12
    assert pitch_class_of(0) == 0


class TestRealisticDecorations:
    """Header tandems, ornaments, beams, slurs and editorial marks as they
    appear in production kern files must not disturb pitch or duration."""

    HEADER = "\n".join(
        [
            "!!!COM: Composer, Some",
            "!!!OTL: Quartet in C Major",
            "**kern\t**kern\t**kern\t**kern",
            "*ICcello\t*ICviola\t*ICvln\t*ICvln",
            "*Icello\t*Iviola\t*Ivioln\t*Ivioln",
            '*I"Violoncello\t*I"Viola\t*I"Violino II\t*I"Violino I',
            "*>[A,A,B]\t*>[A,A,B]\t*>[A,A,B]\t*>[A,A,B]",
            "*>norep[A,B]\t*>norep[A,B]\t*>norep[A,B]\t*>norep[A,B]",
            "*>A\t*>A\t*>A\t*>A",
            "*clefF4\t*clefC3\t*clefG2\t*clefG2",
            "*k[f#]\t*k[f#]\t*k[f#]\t*k[f#]",
            "*G:\t*G:\t*G:\t*G:",
            "*met(c)\t*met(c)\t*met(c)\t*met(c)",
            "*M4/4\t*M4/4\t*M4/4\t*M4/4",
            "*MM120\t*MM120\t*MM120\t*MM120",
        ]
    )

    def _parse(self, rows):
        text = self.HEADER + "\n" + "\n".join(rows) + "\n" + "\t".join(["*-"] * 4) + "\n"
        return parse_kern(text)

    def test_decorated_tokens(self):
        rows = [
            "=1-\t=1-\t=1-\t=1-",
            "4GG\t4b\t8ddLL\t(8ggLL",
            ".\t.\t8ee\t8aa)JJ",
            "!  local\t! comment\t!\t!",
            "4G;\t4b\t4ffT\t4bb\\",
            "4G\t4b\t[4dd\t{4ccY",
            "=2\t=2\t=2\t=2",
            "2GG,\t2b'\t4dd]\t4cc#x}",
            ".\t.\t4eem\t8ccLL",
            ".\t.\t.\t8dd",
            "*ped\t*\t*\t*",
            "2G\t2b\t2.ff\t2eeS",
        ]
        mv = self._parse(rows)
        v1 = mv.voice(Voice.VIOLIN1)
        # pitches survive decorations; tie on dd merges across the barline
        assert notes(mv, Voice.VIOLIN2, "pitch_class")[:3] == [3, 5, 6]
        durs = notes(mv, Voice.VIOLIN2, "duration")
        assert durs[0] == Fraction(1, 8)
        tied = [e for e in synth.events(mv.voice(Voice.VIOLIN2)) if e.duration == Fraction(1, 2)]
        assert tied, "tie across barline merged to a half-note duration"
        assert len(notes(mv, Voice.CELLO, "pitch_class")) == 5
        assert v1.pitches[0] > mv.voice(Voice.CELLO).pitches[0]

    def test_grace_and_groupetto_dropped(self):
        rows = [
            "=1\t=1\t=1\t=1",
            "4G\t4b\t4dd\t4gg",
            ".\t.\t.\tccq",
            ".\t.\t.\tddQ",
            "4G\t4b\t4dd\t4ff",
            "2G\t2b\t2dd\t2ee",
        ]
        mv = self._parse(rows)
        assert notes(mv, Voice.VIOLIN1, "pitch_class") == [8, 6, 5]

    def test_key_signature_not_misread_as_meter(self):
        # *k[f#] precedes *M4/4; a note before *M would still be an error
        text = "\n".join(
            [
                "**kern\t**kern\t**kern\t**kern",
                "*k[f#]\t*k[f#]\t*k[f#]\t*k[f#]",
                "4c\t4c\t4c\t4c",
                "*-\t*-\t*-\t*-",
            ]
        )
        with pytest.raises(MissingMeter):
            parse_kern(text)

    def test_nested_spine_gymnastics(self):
        rows = [
            "=1\t=1\t=1\t=1",
            "4G\t4b\t4dd\t4gg",
            "*\t*^\t*\t*",
            "4G\t4a\t4g\t4dd\t4ff",
            "*\t*^\t*\t*\t*",
            "4G\t4g\t4c\t4g\t4dd\t4ee",
            "*\t*v\t*v\t*\t*\t*",
            "*\t*v\t*v\t*\t*",
            "4G\t4b\t4dd\t4dd",
            "*\t*\t*x\t*x",
            "2.r\t2.r\t2.r\t2.r",
        ]
        mv = self._parse(rows)
        # viola keeps its leftmost sub-spine through the nested split
        assert notes(mv, Voice.VIOLA, "pitch_class") == [12, 10, 8, 12]
        assert len(notes(mv, Voice.CELLO, "pitch_class")) == 4


def parse_both(text, caplog, meta=None):
    """(movement JSON or (KernError type, message), warnings) from the library
    parser and from the scalar oracle, in that order."""
    outcomes = []
    for parse in (parse_kern, oracles.parse_kern_oracle):
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            try:
                got = movement_to_json(parse(text, meta=meta))
            except KernError as exc:
                got = (type(exc), str(exc))
        outcomes.append((got, [(r.levelno, r.getMessage()) for r in caplog.records]))
    return outcomes


#: Malformed files, each failing a different check.
MALFORMED = [
    "**kern\t**kern\t**kern\n*M4/4\t*M4/4\t*M4/4\n4c\t4c\t4c\n*-\t*-\t*-\n",
    "4c\t4c\t4c\t4c\n",
    "",
    "**kern\t**kern\t**kern\t**kern\n4c\t4c\t4c\t4c\n*-\t*-\t*-\t*-\n",
    "**kern\t**kern\t**kern\t**kern\n*M4/4\t*M4/4\t*M4/4\t*M4/4\n4c\t4c\n",
    four_spine(["4c\t4c\t4c\t4c"], meter="*M0/4"),
    four_spine(["4%0c 4e\t4c\t4c\t4c"]),
    four_spine(["4c\t4zz\t4c\t4c"]),
    four_spine(["4c\t4c\tr\t4c"]),
    four_spine(["4c\t4c\tcc\t4c"]),
    four_spine(["4c\t4c\t4cd\t4c"]),
    four_spine(["4c\t4c\t4cccccccc\t4c"]),
    four_spine(["4c\t4c\t4c\t4c", "4c\t4c\t4q\t4%0c", "4c\t4c\t4c\t4zz"]),
    # check order within a token: token errors, then the meter, then zero
    "**kern\t**kern\t**kern\t**kern\n*\t*M4/4\t*M4/4\t*M4/4\n4zz\t4c\t4c\t4c\n",
    "**kern\t**kern\t**kern\t**kern\n*\t*M4/4\t*M4/4\t*M4/4\n4%0c\t4c\t4c\t4c\n",
    # a token already read for one voice meets a voice without a meter
    "**kern\t**kern\t**kern\t**kern\n*M4/4\t*\t*M4/4\t*M4/4\n4c\t4c\t4c\t4c\n",
    # numbers past int()'s digit limit: a recip, a tuplet part, a meter term
    pytest.param(four_spine(["4c\t4c\t" + "3" * 5000 + "c\t4c"]), id="long-recip"),
    pytest.param(four_spine(["4c\t4c\t4%" + "3" * 5000 + "c\t4c"]), id="long-tuplet"),
    pytest.param(
        four_spine(["4c\t4c\t4c\t4c"], meter="*M" + "3" * 5000 + "/4"), id="long-meter"
    ),
    # a Violin 1 bar of two 3000-digit recips: a clock too long to print
    pytest.param(
        four_spine(
            ["=1\t=1\t=1\t=1"]
            + [f"{'1r' if d == '1' else '.'}\t.\t.\t1{'0' * 2998}{d}c" for d in "13"]
            + ["=2\t=2\t=2\t=2"]
        ),
        id="long-clock",
    ),
    # a Cello note of 10**400 whole notes: a voice too long for float durations
    pytest.param(four_spine(["1%1" + "0" * 400 + "c\t4c\t4c\t4c"]), id="long-voice"),
]


class TestMatchesOracle:
    """The library parser against the scalar one in tests/oracles.py."""

    def test_synth_sources(self, caplog, tmp_path):
        rng = np.random.default_rng(5)
        texts = [
            synth.k157_excerpt_kern(),
            synth.melody_kern([["4c", "4d", "[2e"], ["2e]", "4.f", "8g"], ["2.a"]], meter="3/4"),
        ]
        texts += [synth.styled_movement_kern(rng, style) for style in ("haydn", "mozart")]
        for manifest in (
            synth.write_tiny_corpus(tmp_path / "tiny", seed=3),
            synth.write_styled_corpus(tmp_path / "styled", n_quartets=1),
        ):
            for meta in read_manifest(manifest):
                text = (manifest.parent / meta.source_path).read_text(encoding="utf-8")
                lib, oracle = parse_both(text, caplog, meta=meta)
                assert lib == oracle and isinstance(lib[0], dict)
        for text in texts:
            lib, oracle = parse_both(text, caplog)
            assert lib == oracle and isinstance(lib[0], dict)

    def test_decorated_and_split_sources(self, caplog):
        for rows in (
            ["=1\t=1\t=1\t=1", "4G\t4b\t[4dd\t{4ccY", "=2\t=2\t=2\t=2", "2GG,\t2b'\t4dd]\t4cc#x}"],
            ["=1\t=1\t=1\t=1", "4G\t4b\t4dd\t4gg", "*\t*^\t*\t*", "4G\t4a\t4g\t4dd\t4ff",
             "*\t*v\t*v\t*\t*", "2.r\t2.r\t2.r\t2.r"],
        ):
            end = "\t".join(["*-"] * 4)
            text = "\n".join([TestRealisticDecorations.HEADER, *rows, end]) + "\n"
            lib, oracle = parse_both(text, caplog)
            assert lib == oracle and isinstance(lib[0], dict)
        for text in (
            TestSpineStructure._meter_on_split([]),
            TestSpineStructure._meters_differ_across_a_split(),
        ):
            lib, oracle = parse_both(text, caplog)
            assert lib == oracle and isinstance(lib[0], dict)

    @pytest.mark.parametrize(
        "primes", [(3, 5, 7, 11, 13, 17, 19), (23, 29, 31, 37, 41, 43, 47)], ids=["to19", "to47"]
    )
    @pytest.mark.parametrize("meter", ["4/4", "3/8"])
    def test_tuplets(self, caplog, primes, meter):
        tuplets = tuple(Fraction(1, 4 * k) for k in (1, *primes))
        for seed in range(3):
            text = synth.tuplet_kern(np.random.default_rng(seed), tuplets, meter=meter)
            lib, oracle = parse_both(text, caplog)
            assert lib == oracle and isinstance(lib[0], dict)
            assert any("sums to" in message for _, message in lib[1])

    @pytest.mark.parametrize("text", MALFORMED)
    def test_malformed(self, caplog, text):
        lib, oracle = parse_both(text, caplog)
        assert lib == oracle
        assert issubclass(lib[0][0], KernError)


def test_each_distinct_token_read_once_per_parse(monkeypatch):
    read = score._read_token
    calls = []

    def counting(tok, lineno):
        calls.append(tok)
        return read(tok, lineno)

    monkeypatch.setattr(score, "_read_token", counting)
    text = synth.styled_movement_kern(np.random.default_rng(8), "haydn")
    rows = [line.split("\t") for line in text.splitlines()]
    data = [tok for row in rows if not row[0][0] in "*=!" for tok in row if tok != "."]
    assert len(set(data)) < len(data)
    parse_kern(text)
    assert sorted(calls) == sorted(set(data))
    parse_kern(text)  # a second call reads every token afresh
    assert sorted(calls) == sorted(2 * list(set(data)))
