import gc
import itertools
import math
import random
import re
import weakref
from fractions import Fraction

import numpy as np
import pytest

import oracles
import synth
from quartet_attrib import features
from quartet_attrib.features import (
    CATEGORIES,
    DevelopmentThresholds,
    FeatureMatrix,
    SegmentConfig,
    basic_summary,
    build_development_pool,
    development_features,
    exposition_features,
    extract_all,
    feature_names,
    minor_third_segment_features,
    near_zero_variance_filter,
    pairwise_interval_features,
    parse_label,
    recapitulation_features,
)
from quartet_attrib.score import (
    VOICE_ORDER,
    EncodedMovement,
    VoiceTrack,
    parse_kern,
)

CONFIG = SegmentConfig()
SMALL = SegmentConfig(lengths=(8, 10))

#: Generic thresholds used when a test needs development counts without a corpus.
FLAT_THRESHOLDS = DevelopmentThresholds(
    table={
        (v, m, track): (0.5, 1.0, 2.0, 3.0)
        for v in ("Violin1", "Violin2", "Viola", "Cello")
        for m in range(2, 19)
        for track in ("pitch", "duration")
    },
)


def voice_data(mv, lengths=CONFIG.lengths):
    """A movement's prepared data, which every feature family reads, with
    its window tables for ``lengths``, the lengths the families label."""
    return features._voice_data(mv, lengths)


def development_with_counts(mv, thresholds, config):
    """A movement's development features with its count columns at the
    given thresholds, taken from a one-movement pool."""
    pool = build_development_pool([mv], config)
    counts = dict(zip(oracles.count_labels(config.lengths), pool.count_columns(thresholds)[0]))
    return {**development_features(voice_data(mv, config.lengths)), **counts}


def close(a, b, tol=1e-12):
    if math.isnan(a) and math.isnan(b):
        return True
    return abs(a - b) <= tol


def assert_dicts_close(got, want, tol=1e-12):
    for key, expect in want.items():
        assert key in got, key
        assert close(got[key], expect, tol), (key, got[key], expect)


class TestRegistry:
    def test_counts_per_category(self):
        names = feature_names(CONFIG)
        by_cat = {}
        for fn in names:
            by_cat[fn.category] = by_cat.get(fn.category, 0) + 1
        assert by_cat == {
            "basic": 22,
            "interval": 392,
            "exposition": 240,
            "development": 288,
            "recapitulation": 240,
        }
        assert len(names) == 1182

    def test_labels_unique_and_parseable(self):
        names = feature_names(CONFIG)
        labels = [fn.label for fn in names]
        assert len(set(labels)) == 1182
        for fn in names:
            back = parse_label(fn.label)
            assert back.category == fn.category
            assert back.descriptor == fn.descriptor
            assert back.voice == fn.voice
            assert back.track == fn.track
            assert back.segment_length == fn.segment_length

    @pytest.mark.parametrize(
        "label",
        ["basic|note_count|Violin2|Violin1", "basic|mean_duration|m=3|Violin1", "basic|a|m=08"],
    )
    def test_a_label_that_does_not_read_back_is_refused(self, label):
        with pytest.raises(ValueError, match="does not read back"):
            parse_label(label)

    @pytest.mark.parametrize(
        "config", [CONFIG, SMALL, SegmentConfig(lengths=(12,))], ids=["paper", "small", "one"]
    )
    def test_families_fill_the_registry_in_its_order(self, config):
        """Each family's keys and the count labels sit at increasing
        registry positions and together fill the registry exactly; the
        registry is grouped by category in CATEGORIES order."""
        mv = synth.random_movement(np.random.default_rng(32), meta=synth.make_meta())
        data = voice_data(mv, config.lengths)
        blocks = {
            "basic_summary": basic_summary(data),
            "pairwise_interval_features": pairwise_interval_features(data),
            "minor_third_segment_features": minor_third_segment_features(data),
            "exposition_features": exposition_features(data),
            "development_features": development_features(data),
            "recapitulation_features": recapitulation_features(data),
            "count_labels": oracles.count_labels(config.lengths),
        }
        names = feature_names(config)
        labels = [fn.label for fn in names]
        position = {label: j for j, label in enumerate(labels)}
        placed = [None] * len(labels)
        for family, keys in blocks.items():
            where = [position[key] for key in keys]
            assert where == sorted(where), family
            for j, key in zip(where, keys):
                assert placed[j] is None, key
                placed[j] = key
        assert placed == labels
        grouped = [category for category, _ in itertools.groupby(fn.category for fn in names)]
        assert grouped == list(CATEGORIES)


class TestBasicSummary:
    def test_k157_mean_duration(self):
        # first-bar durations 0.375, 0.125, 0.25, 0.25 average to 0.25
        mv = synth.movement_from_pitches(
            [[49, 51, 53, 53]] * 4,
            [[Fraction(3, 8), Fraction(1, 8), Fraction(1, 4), Fraction(1, 4)]] * 4,
        )
        feats = basic_summary(voice_data(mv))
        assert feats["basic|mean_duration|Violin1"] == 0.25
        assert feats["basic|note_count|Cello"] == 4.0

    def test_constant_durations_zero_sd(self):
        mv = synth.movement_from_pitches([[49, 53, 56, 61]] * 4)
        assert basic_summary(voice_data(mv))["basic|sd_duration|Viola"] == 0.0

    def test_identical_onset_patterns(self):
        mv = synth.movement_from_pitches([[49, 51, 53, 54]] * 4)
        feats = basic_summary(voice_data(mv))
        assert feats["basic|simultaneous_notes"] == 1.0
        assert feats["basic|simultaneous_rests"] == 0.0

    def test_offset_voices_share_no_onsets(self):
        durs = [
            [Fraction(1, 4), Fraction(1, 4)],
            [Fraction(1, 2)],
            [Fraction(1, 2)],
            [Fraction(1, 2)],
        ]
        pitches = [[49, 51], [53], [56], [61]]
        mv = synth.movement_from_pitches(pitches, durs)
        feats = basic_summary(voice_data(mv))
        # onset 0 shared by all; onset 1/4 only in Violin 1
        assert feats["basic|simultaneous_notes"] == 0.5

    def test_matches_oracle_on_random_movements(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            mv = synth.random_movement(rng)
            assert_dicts_close(basic_summary(voice_data(mv)), oracles.basic_summary_oracle(mv))

    def test_simultaneity_across_voice_onset_denominators(self):
        """Triplets, quintuplets, septuplets and eighths, one kind per voice,
        among quarters: each voice has its own onset denominator, and the
        proportions, read over their lcm, equal the oracle's, which compares
        the onsets as fractions."""
        q = Fraction(1, 4)
        per_voice = tuple((Fraction(1, k), q, q) for k in (12, 20, 8, 28))
        shared = 0
        for seed in range(4):
            text = synth.tuplet_kern(np.random.default_rng(seed), (), per_voice=per_voice)
            mv = parse_kern(text)
            data = voice_data(mv)
            assert len({vd.onset_den for vd in data.voices.values()}) == 4
            got, want = basic_summary(data), oracles.basic_summary_oracle(mv)
            for key in ("basic|simultaneous_notes", "basic|simultaneous_rests"):
                assert got[key] == want[key], key
            shared += got["basic|simultaneous_notes"] > 0
        assert shared

    def test_simultaneity_over_unreduced_onset_denominators(self):
        """Each voice's onsets sit over its own denominator, reduced in none
        of them: the proportions equal the oracle's, which compares the
        onsets as fractions."""
        columns = (  # pitches (0 = rest), onsets, onset denominator
            ((60, 0, 62, 64), (0, 2, 4, 6), 8),
            ((55, 0, 57, 59), (0, 3, 6, 9), 12),
            ((50, 0, 52, 53, 54), (0, 6, 12, 16, 18), 24),
            ((40, 0, 41), (0, 10, 20), 40),
        )
        tracks = tuple(
            VoiceTrack(v, p, (den // 4,) * len(p), (0,) * len(p), t, den)
            for v, (p, t, den) in zip(VOICE_ORDER, columns)
        )
        mv = EncodedMovement(synth.make_meta(), tracks)
        got, want = basic_summary(voice_data(mv)), oracles.basic_summary_oracle(mv)
        # five onsets (0, 1/4, 1/2, 2/3, 3/4): two all-note, one all-rest
        assert got["basic|simultaneous_notes"] == want["basic|simultaneous_notes"] == 2 / 5
        assert got["basic|simultaneous_rests"] == want["basic|simultaneous_rests"] == 1 / 5

    def test_empty_voice_raises(self):
        mv = synth.movement_from_pitches([[49, 51], [0, 0], [49, 51], [49, 51]])
        with pytest.raises(Exception):
            basic_summary(voice_data(mv))


class TestPairwiseIntervals:
    def test_constant_pitch_voice(self):
        mv = synth.movement_from_pitches([[50] * 6] * 4)
        feats = pairwise_interval_features(voice_data(mv))
        assert feats["interval|sign_constant|Violin1"] == 1.0
        assert feats["interval|sign_ascending|Violin1"] == 0.0
        assert feats["interval|class_0|Violin1"] == 1.0
        assert feats["interval|mode_perfect|Violin1"] == 1.0

    def test_paper_interval_example(self):
        # D E F F F E G F: class counts from consecutive pairs
        seq = [51, 53, 54, 54, 54, 53, 56, 54]
        mv = synth.movement_from_pitches([seq] * 4)
        feats = pairwise_interval_features(voice_data(mv))
        # pairs: +2 +1 0 0 -1 +3 -2 -> classes 2,1,0,0,1,3,2
        assert feats["interval|class_0|Viola"] == pytest.approx(2 / 7)
        assert feats["interval|class_1|Viola"] == pytest.approx(2 / 7)
        assert feats["interval|class_2|Viola"] == pytest.approx(2 / 7)
        assert feats["interval|class_3|Viola"] == pytest.approx(1 / 7)
        assert feats["interval|sign_ascending|Viola"] == pytest.approx(3 / 7)
        assert feats["interval|sign_descending|Viola"] == pytest.approx(2 / 7)

    def test_simplex_sums(self):
        rng = np.random.default_rng(11)
        mv = synth.random_movement(rng, n_notes=(30, 30), rest_prob=0)
        feats = pairwise_interval_features(voice_data(mv))
        for v in ("Violin1", "Violin2", "Viola", "Cello"):
            assert math.fsum(feats[f"interval|class_{c}|{v}"] for c in range(12)) == pytest.approx(1, abs=1e-12)
            assert math.fsum(
                feats[f"interval|sign_{s}|{v}"] for s in ("ascending", "descending", "constant")
            ) == pytest.approx(1, abs=1e-12)
            assert math.fsum(
                feats[f"interval|mode_{m}|{v}"] for m in ("perfect", "minor", "major", "dimaug")
            ) == pytest.approx(1, abs=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            mv = synth.random_movement(rng)
            got = pairwise_interval_features(voice_data(mv))
            assert_dicts_close(got, oracles.pairwise_oracle(mv))

    def test_short_voice_masked(self):
        mv = synth.movement_from_pitches([[50, 52], [50], [50, 52], [50, 52]])
        feats = pairwise_interval_features(voice_data(mv))
        assert math.isnan(feats["interval|class_0|Violin2"])
        assert math.isnan(feats["interval|pair_mean_semitone|Violin1-Violin2"])
        assert not math.isnan(feats["interval|class_0|Violin1"])



class TestMinorThird:
    def test_paper_minor_third_proportion(self):
        # D E F F F E G F relative to D: 4 of 7 intervals are 3 semitones
        seq = [51, 53, 54, 54, 54, 53, 56, 54]
        mv = synth.movement_from_pitches([seq] * 4)
        feats = minor_third_segment_features(voice_data(mv, (8,)))
        assert feats["interval|minor3_mean|Violin1|m=8"] == pytest.approx(4 / 7)
        assert feats["interval|minor3_max|Violin1|m=8"] == pytest.approx(4 / 7)

    def test_constant_segment_zero(self):
        mv = synth.movement_from_pitches([[50] * 10] * 4)
        feats = minor_third_segment_features(voice_data(mv, (8,)))
        assert feats["interval|minor3_max|Cello|m=8"] == 0.0
        assert feats["interval|minor3_count_zero|Cello|m=8"] == 3.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            mv = synth.random_movement(rng)
            got = minor_third_segment_features(voice_data(mv))
            want = oracles.minor3_oracle(mv, CONFIG.lengths)
            assert_dicts_close(got, want)

    def test_short_voice_masked(self):
        mv = synth.movement_from_pitches([[50, 51, 52, 53, 54]] * 4)
        feats = minor_third_segment_features(voice_data(mv, (8,)))
        assert math.isnan(feats["interval|minor3_mean|Violin1|m=8"])


class TestExposition:
    def test_verbatim_repeat_in_first_half(self):
        motif = [49, 52, 54, 51, 56, 58, 50, 53]
        voice = motif + motif + [70 + i for i in range(16)]
        mv = synth.movement_from_pitches([voice] * 4)
        feats = exposition_features(voice_data(mv, (8,)))
        assert feats["exposition|max_overlap|pitch|Violin1|m=8"] == 1.0
        assert feats["exposition|count_t1|pitch|Violin1|m=8"] >= 1.0

    def test_repeated_motif_count(self):
        # aperiodic motif repeated three times within the first half
        rng = np.random.default_rng(14)
        motif = [49, 52, 56, 61, 50, 58, 63, 54]
        filler = [int(90 + rng.integers(0, 12)) for _ in range(24)]
        voice = motif * 3 + filler
        mv = synth.movement_from_pitches([voice] * 4)
        feats = exposition_features(voice_data(mv, (8,)))
        count = feats["exposition|count_t1|pitch|Violin1|m=8"]
        want = oracles.exposition_oracle(mv, (8,))["exposition|count_t1|pitch|Violin1|m=8"]
        assert count == want == 2.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(15):
            mv = synth.random_movement(rng)
            got = exposition_features(voice_data(mv))
            want = oracles.exposition_oracle(mv, CONFIG.lengths)
            assert_dicts_close(got, want)

    def test_too_few_first_half_segments_masked(self):
        mv = synth.movement_from_pitches([[49 + i for i in range(8)]] * 4)
        feats = exposition_features(voice_data(mv, (8,)))
        assert math.isnan(feats["exposition|max_overlap|pitch|Violin1|m=8"])


class TestRecapitulation:
    def test_final_restatement_location_one(self):
        motif = [49, 52, 54, 51, 56, 58, 50, 53]
        middle = [70 + (i * 5) % 13 for i in range(20)]
        voice = motif + middle + motif
        mv = synth.movement_from_pitches([voice] * 4)
        feats = recapitulation_features(voice_data(mv, (8,)))
        assert feats["recapitulation|max_overlap|pitch|Violin1|m=8"] == 1.0
        assert feats["recapitulation|max_location|pitch|Violin1|m=8"] == 1.0

    def test_aba_duration_overlap(self):
        a_durs = [Fraction(3, 8), Fraction(1, 8), Fraction(1, 4), Fraction(1, 4)] * 5
        b_durs = [Fraction(1, 16)] * 20
        durs = a_durs + b_durs + a_durs
        pitches = [50 + (i % 7) for i in range(60)]
        mv = synth.movement_from_pitches([pitches] * 4, [durs] * 4)
        feats = recapitulation_features(voice_data(mv, (8,)))
        assert feats["recapitulation|max_overlap|duration|Violin1|m=8"] == 1.0
        assert feats["recapitulation|max_location|duration|Violin1|m=8"] > 2 / 3

    def test_matches_oracle(self):
        rng = np.random.default_rng(16)
        for _ in range(15):
            mv = synth.random_movement(rng)
            got = recapitulation_features(voice_data(mv))
            want = oracles.recapitulation_oracle(mv, CONFIG.lengths)
            assert_dicts_close(got, want)

    def test_exposition_counts_never_exceed_recap(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            mv = synth.random_movement(rng)
            expo = exposition_features(voice_data(mv))
            recap = recapitulation_features(voice_data(mv))
            for key, val in expo.items():
                if "count_t" not in key or math.isnan(val):
                    continue
                assert val <= recap[key.replace("exposition", "recapitulation")]


class TestDevelopment:
    def test_constant_track(self):
        mv = synth.movement_from_pitches([[50] * 12] * 4)
        feats = development_with_counts(mv, FLAT_THRESHOLDS, SegmentConfig(lengths=(8,)))
        assert feats["development|max_sd|pitch|Violin1|m=8"] == 0.0
        assert feats["development|count_q0.70|pitch|Violin1|m=8"] == 0.0

    def test_single_segment_location_one(self):
        mv = synth.movement_from_pitches([[49, 51, 53, 54, 56, 58, 59, 61]] * 4)
        feats = development_features(voice_data(mv, (8,)))
        assert feats["development|max_location|pitch|Violin1|m=8"] == 1.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(18)
        for _ in range(15):
            mv = synth.random_movement(rng, n_notes=(40, 40))
            got = development_with_counts(mv, FLAT_THRESHOLDS, CONFIG)
            want = oracles.development_oracle(mv, FLAT_THRESHOLDS, CONFIG.lengths)
            assert_dicts_close(got, want)

    def test_counts_monotone_in_quantile(self):
        rng = np.random.default_rng(19)
        movements = [synth.random_movement(rng, n_notes=(25, 45)) for _ in range(6)]
        pool = build_development_pool(movements, SMALL)
        thresholds = pool.thresholds()
        for row in pool.count_columns(thresholds):
            feats = dict(zip(oracles.count_labels(SMALL.lengths), row))
            for v in ("Violin1", "Cello"):
                for m in SMALL.lengths:
                    for track in ("pitch", "duration"):
                        counts = [
                            feats[f"development|count_q{q:.2f}|{track}|{v}|m={m}"]
                            for q in thresholds.quantiles
                        ]
                        counts = [c for c in counts if not math.isnan(c)]
                        assert counts == sorted(counts, reverse=True)


class TestHugeDurationDenominators:
    """Tuplets of 3, 5, ..., 19 inside quarter notes put the voices' common
    duration denominator at 19399380, past what int64 and float64 hold
    exactly for every window, so the window sds are computed on Python ints;
    tuplets of 23, ..., 47 push the numerators past 2**35, where int64 sums
    of squares would overflow.  Both must match the exact oracles bit for
    bit."""

    THRESHOLDS = DevelopmentThresholds(
        table={
            key: (0.5, 1.0, 2.0, 3.0) if key[2] == "pitch" else (0.02, 0.04, 0.06, 0.08)
            for key in FLAT_THRESHOLDS.table
        },
    )

    def movement(self, seed, tuplets):
        rng = np.random.default_rng(seed)
        pitches, durations = [], []
        for _ in range(4):
            n = int(rng.integers(28, 45))
            pitches.append(
                [0 if rng.random() < 0.1 else int(rng.integers(40, 70)) for _ in range(n)]
            )
            # a repeated motif holding every tuplet, lightly varied, so
            # duration windows recur and the overlaps are not all zero
            motif = np.concatenate([rng.permutation(8), rng.integers(0, 8, size=2)])
            idx = np.where(rng.random(n) < 0.15, rng.integers(0, 8, size=n), np.resize(motif, n))
            durations.append([tuplets[int(i)] for i in idx])
        return synth.movement_from_pitches(pitches, durations)

    @pytest.mark.parametrize(
        "primes", [(3, 5, 7, 11, 13, 17, 19), (23, 29, 31, 37, 41, 43, 47)], ids=["to19", "to47"]
    )
    def test_matches_exact_oracles_bit_for_bit(self, primes):
        tuplets = tuple(Fraction(1, 4 * k) for k in (1, *primes))
        lengths = SMALL.lengths
        overlaps = 0
        for seed in range(6):
            mv = self.movement(seed, tuplets)
            durs = [e.duration for e in oracles.notes_of(mv, "Violin1")]
            den = math.lcm(*(d.denominator for d in durs))
            assert len(durs) * den > 2**26
            expo = exposition_features(voice_data(mv, SMALL.lengths))
            assert_dicts_close(expo, oracles.exposition_oracle(mv, lengths), tol=0.0)
            recap = recapitulation_features(voice_data(mv, SMALL.lengths))
            assert_dicts_close(recap, oracles.recapitulation_oracle(mv, lengths), tol=0.0)
            dev = development_with_counts(mv, self.THRESHOLDS, SMALL)
            want = oracles.development_oracle(mv, self.THRESHOLDS, lengths)
            assert_dicts_close(dev, want, tol=0.0)
            overlaps += sum(
                x > 0 for k, x in recap.items() if k.startswith("recapitulation|count_t0.7|dur")
            )
        assert overlaps > 0


class TestDurationColumns:
    """_voice_data divides the notes' duration numerators and the clock
    denominator by their gcd: the numerators its duration tables are built
    over (values and dtype), the window sds over the denominator and the
    dur_float bytes equal the reference built from reduced Fractions."""

    @staticmethod
    def assert_matches(mv):
        seqs = []  # what _windows receives: per voice, its pitch classes, then its numerators
        real_windows = features._windows

        def windows(seq, lengths):
            seqs.append(seq)
            return real_windows(seq, lengths)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(features, "_windows", windows)
            data = voice_data(mv, (2,))  # tables for every voice of two notes or more
        dtypes = []
        for track in mv.voices:
            vd = data.voices[track.voice.value]
            den, nums, floats = oracles.duration_columns_oracle(track)
            assert vd.dur_float.tobytes() == floats.tobytes()
            if vd.m_notes >= 2:
                _, got = seqs.pop(0), seqs.pop(0)
                assert got.dtype == nums.dtype
                assert got.tolist() == nums.tolist()
                want = oracles.window_sds_reference(track, "duration", 2)  # over den
                assert vd.sds["duration", 2].tobytes() == want.tobytes()
            dtypes.append(nums.dtype)
        assert seqs == []
        return dtypes

    @staticmethod
    def movement(seed, den, rest_prob=0.2, n=(0, 40)):
        """Random columns over den; each voice's durations share a random
        divisor of den, so the gcd reduction has work to do."""
        rnd = random.Random(seed)
        tracks = []
        for v in VOICE_ORDER:
            k = rnd.randint(*n)
            pitches = [0 if rnd.random() < rest_prob else rnd.randint(1, 132) for _ in range(k)]
            unit = math.gcd(den, rnd.randint(1, den))
            durations = [unit * rnd.randint(1, 3 * den // unit + 1) for _ in range(k)]
            onsets = [0, *itertools.accumulate(durations)][:k]
            columns = tuple(pitches), tuple(durations), (0,) * k, tuple(onsets)
            tracks.append(VoiceTrack(v, *columns, den))
        return EncodedMovement(synth.make_meta(), tuple(tracks))

    def test_random_integer_columns(self):
        rnd = random.Random(21)
        for seed in range(60):
            den = math.prod(rnd.choice([1, 2, 3, 4, 5, 7, 9, 11, 16]) for _ in range(3))
            self.assert_matches(self.movement(seed, den))

    @pytest.mark.parametrize("den", [2**30, 3**45, 10**30], ids=["2^30", "3^45", "10^30"])
    def test_voices_past_int64_exact(self, den):
        """The object path, up to numerators no int64 holds."""
        assert object in self.assert_matches(self.movement(7, den, n=(5, 30)))

    def test_voices_of_rests_only(self):
        assert self.assert_matches(self.movement(4, 12, rest_prob=1.0)) == [np.int64] * 4

    @pytest.mark.parametrize("primes", [(3, 5, 7), (3, 5, 7, 11, 13, 17, 19), (23, 29, 31, 37)])
    def test_tuplet_texts(self, primes):
        tuplets = tuple(Fraction(1, 4 * k) for k in (1, 2, *primes))
        for seed in range(4):
            text = synth.tuplet_kern(np.random.default_rng(seed), tuplets)
            self.assert_matches(parse_kern(text))


class TestPrefixTables:
    """Every segment length read from one prefix-sum table per voice and
    track, built for the whole length set, equals the per-length reference
    of tests/oracles.py bit for bit: window sds, the opening window's
    matches up to both overlap cut-offs, and minor-third counts."""

    LENGTHS = [CONFIG.lengths, (2, 5, 13), (13, 2, 5), (3,), (18, 8), (8, 5000)]

    def movements(self):
        rng = np.random.default_rng(40)
        out = [synth.random_movement(rng, n_notes=(1, 24)) for _ in range(10)]
        out.append(synth.movement_from_pitches([[60], [0, 61, 0], [0, 0], [50] * 3]))
        motif = [49, 52, 56, 49, 51, 49]  # repeats, so maxima tie
        out.append(synth.movement_from_pitches([motif * 5, motif * 3, [50, 53] * 9, motif]))
        for primes in ((3, 5, 7, 11, 13, 17, 19), (23, 29, 31, 37, 41, 43, 47)):
            tuplets = tuple(Fraction(1, 4 * k) for k in (1, *primes))
            out.append(TestHugeDurationDenominators().movement(1, tuplets))
        return out

    def test_tables_equal_the_per_length_reference(self, monkeypatch):
        seen = dict.fromkeys(
            ("below_shortest", "between", "one_note", "object", "match_tie", "sd_tie"), False
        )
        real_windows = features._windows

        def windows(seq, lengths):
            seen["object"] |= seq.dtype == object  # the duration numerators past int64
            return real_windows(seq, lengths)

        monkeypatch.setattr(features, "_windows", windows)
        for mv in self.movements():
            for lengths in self.LENGTHS:
                L = max(lengths)
                data = voice_data(mv, lengths)  # fresh tables for every length set
                for part in mv.voices:
                    vd = data.voices[part.voice.value]
                    seen["below_shortest"] |= 0 < vd.m_notes < min(lengths)
                    seen["between"] |= min(lengths) <= vd.m_notes < L
                    seen["one_note"] |= vd.m_notes == 1
                    half = (vd.m_notes + 1) // 2
                    for m in lengths:
                        n = vd.m_notes - m + 1
                        for track in ("pitch", "duration"):
                            got = vd.sds[track, m]
                            want = oracles.window_sds_reference(part, track, m)
                            if want is None:
                                assert got is None and n <= 0
                                continue
                            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                            seen["sd_tie"] |= n > 1 and (got == got.max()).sum() > 1
                            for last in (min(half, n), n):  # exposition, recapitulation
                                if last < 2:
                                    continue
                                got = vd.matches[track][1:last, m - 1]
                                want = oracles.overlap_matches_reference(part, track, m, last)
                                assert got.dtype == want.dtype and np.array_equal(got, want)
                                seen["match_tie"] |= (got == got.max()).sum() > 1
                        if n > 0:
                            got = features._minor_third_counts(vd.abs_pitch, lengths)[:n, m - 1]
                            want = oracles.minor_third_counts_reference(vd, m)
                            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert all(seen.values()), seen

    def test_tables_are_no_wider_than_the_voice(self):
        """A table holds one row per note and at most one column per note,
        however long the longest segment length; a voice without a window
        of the shortest length has no match tables and no sds."""
        for mv in self.movements():
            for lengths in ((2,), (18, 2), (2, 5000)):
                for vd in voice_data(mv, lengths).voices.values():
                    has_window = vd.m_notes >= 2
                    assert set(vd.matches) == (set(features.TRACKS) if has_window else set())
                    assert {k for k, sds in vd.sds.items() if sds is not None} <= {
                        (track, m) for track in features.TRACKS for m in lengths if m <= vd.m_notes
                    }
                    tables = list(vd.matches.values())
                    if vd.m_notes:
                        tables.append(features._minor_third_counts(vd.abs_pitch, lengths))
                    for table in tables:
                        assert table.shape == (vd.m_notes, min(max(lengths), vd.m_notes))

    def test_families_on_the_edge_cases_equal_the_scalar_oracles(self):
        for mv in self.movements():
            for lengths in self.LENGTHS:
                data = voice_data(mv, lengths)
                # the oracle's Python-sum means and sds round apart from numpy's
                for family, oracle, tol in (
                    (exposition_features, oracles.exposition_oracle, 0.0),
                    (recapitulation_features, oracles.recapitulation_oracle, 0.0),
                    (minor_third_segment_features, oracles.minor3_oracle, 1e-12),
                ):
                    assert_dicts_close(family(data), oracle(mv, lengths), tol)
                want = oracles.development_oracle(mv, FLAT_THRESHOLDS, lengths)
                maxima = {k: x for k, x in want.items() if "count_q" not in k}
                assert_dicts_close(development_features(data), maxima, tol=0.0)


class TestDevelopmentThresholds:
    def test_constant_corpus_zero_thresholds(self):
        mv = synth.movement_from_pitches([[50] * 12] * 4)
        thr = build_development_pool([mv], SegmentConfig(lengths=(8,))).thresholds()
        assert thr.get("Violin1", 8, "pitch") == (0.0, 0.0, 0.0, 0.0)

    def test_two_movement_hand_oracle(self):
        # movement A: 9 notes -> 2 windows; movement B: 8 notes -> 1 window
        a = [49, 52, 54, 51, 56, 58, 50, 53, 61]
        b = [49, 49, 50, 50, 49, 49, 50, 50]
        mva = synth.movement_from_pitches([a] * 4)
        mvb = synth.movement_from_pitches([b] * 4)
        thr = build_development_pool([mva, mvb], SegmentConfig(lengths=(8,))).thresholds()
        sds = []
        wts = []
        for seq, weight in ((a, 0.5), (b, 1.0)):
            for s in range(len(seq) - 8 + 1):
                win = oracles.rel_transform(seq[s : s + 8])
                sds.append(oracles.exact_sample_sd(win))
                wts.append(weight)
        for qi, q in enumerate(thr.quantiles):
            want = oracles.weighted_quantile_oracle(sds, wts, q)
            assert thr.get("Violin1", 8, "pitch")[qi] == pytest.approx(want, abs=1e-12)

    def test_pool_thresholds_on_training_rows_match_oracle(self):
        rng = np.random.default_rng(23)
        movements = [synth.random_movement(rng, n_notes=(5, 40)) for _ in range(7)]
        pool = build_development_pool(movements, SMALL)
        rows = [0, 2, 3, 6]
        thr = pool.thresholds(rows=rows)
        assert thr.quantiles == pool.quantiles
        # equal weights 1/size often put a cumulative share exactly on q, so
        # the oracle rounds as the library does: a running sum in order
        by_row = oracles.window_sds_by_row(movements, SMALL.lengths)
        want = oracles.pool_thresholds_oracle(by_row, pool.quantiles, "prose", rows)
        assert thr.table.keys() == want.keys()
        for key, vals in want.items():
            assert np.array(thr.table[key]).tobytes() == np.array(vals).tobytes(), key
        missing = sum(all(map(math.isnan, vals)) for vals in want.values())
        assert missing < len(want)

    @pytest.mark.parametrize("reading", ["prose", "literal"])
    def test_pool_equals_the_row_by_row_reference(self, reading):
        """Thresholds and counts of the sorted pool equal the per-row loops
        bit for bit, on random corpora and ascending row subsets."""
        lengths = (8, 12, 24)
        seen = {"empty_row": 0, "empty_key": 0, "cross_row_tie": 0}
        for seed in range(12):
            rng = np.random.default_rng([24, seed])
            movements = [
                synth.random_movement(rng, n_notes=(4, 30))
                for _ in range(int(rng.integers(3, 8)))
            ]
            movements.append(synth.transpose_movement(movements[0], 5))  # equal sds
            pool = build_development_pool(movements, SegmentConfig(lengths), reading)
            by_row = oracles.window_sds_by_row(movements, lengths)
            n = len(movements)
            for k in (0, n, *rng.integers(1, n, size=4)):
                rows = sorted(rng.choice(n, size=k, replace=False).tolist())
                thr = pool.thresholds(rows=rows)
                want = oracles.pool_thresholds_oracle(by_row, pool.quantiles, reading, rows)
                assert thr.table.keys() == want.keys()
                for key, vals in want.items():
                    assert np.array(thr.table[key]).tobytes() == np.array(vals).tobytes()
                got = pool.count_columns(thr)
                assert got.tobytes() == oracles.pool_counts_oracle(by_row, thr).tobytes()
                for arrays in by_row.values():
                    kept = [arrays[i] for i in rows]
                    seen["empty_row"] += any(a.size == 0 for a in kept)
                    seen["empty_key"] += bool(kept) and all(a.size == 0 for a in kept)
                    distinct = [set(a.tolist()) for a in kept]
                    seen["cross_row_tie"] += any(
                        a & b for i, a in enumerate(distinct) for b in distinct[i + 1 :]
                    )
        assert all(seen.values()), seen

    def test_non_decreasing_in_quantile(self):
        rng = np.random.default_rng(20)
        movements = [synth.random_movement(rng) for _ in range(5)]
        thr = build_development_pool(movements, SMALL).thresholds()
        for vals in thr.table.values():
            clean = [v for v in vals if not math.isnan(v)]
            assert clean == sorted(clean)

    def test_literal_reading_differs_and_scales_down(self):
        rng = np.random.default_rng(21)
        movements = [synth.random_movement(rng, n_notes=(30, 50)) for _ in range(4)]
        prose = build_development_pool(movements, SMALL, "prose").thresholds()
        literal = build_development_pool(movements, SMALL, "literal").thresholds()
        key = ("Violin1", 8, "pitch")
        assert literal.table[key][0] < prose.table[key][0]

    def test_json_round_trip(self):
        rng = np.random.default_rng(22)
        movements = [synth.random_movement(rng) for _ in range(3)]
        thr = build_development_pool(movements, SMALL).thresholds()
        back = oracles.thresholds_from_json(thr.to_json())
        assert back.quantiles == thr.quantiles
        for key, vals in thr.table.items():
            for a, b in zip(vals, back.table[key]):
                assert close(a, b)


class TestExtractAll:
    def test_shape_and_order(self):
        rng = np.random.default_rng(23)
        corpus = [
            synth.random_movement(rng, meta=synth.make_meta(path=f"m{i}.krn", quartet=f"q{i}"))
            for i in range(4)
        ]
        matrix = extract_all(corpus, CONFIG).matrix
        assert matrix.values.shape == (4, 1182)
        assert matrix.labels == tuple(fn.label for fn in feature_names(CONFIG))

    def test_single_movement_corpus(self):
        rng = np.random.default_rng(24)
        corpus = [synth.random_movement(rng, meta=synth.make_meta())]
        matrix = extract_all(corpus, SMALL).matrix
        assert matrix.n == 1

    def test_permutation_invariance(self):
        rng = np.random.default_rng(25)
        corpus = [
            synth.random_movement(rng, meta=synth.make_meta(path=f"m{i}.krn"))
            for i in range(5)
        ]
        m1 = extract_all(corpus, SMALL).matrix
        perm = [3, 1, 4, 0, 2]
        m2 = extract_all([corpus[i] for i in perm], SMALL).matrix
        for new_row, old_row in enumerate(perm):
            a, b = m2.values[new_row], m1.values[old_row]
            nan = np.isnan(a) & np.isnan(b)
            assert np.array_equal(a[~nan], b[~nan])

    def test_transposition_invariance(self):
        rng = np.random.default_rng(26)
        base = [
            synth.random_movement(
                rng, n_notes=(25, 40), meta=synth.make_meta(path=f"m{i}.krn")
            )
            for i in range(3)
        ]
        for shift in (3, 7):
            moved = [synth.transpose_movement(mv, shift) for mv in base]
            m1 = extract_all(base, SMALL).matrix
            m2 = extract_all(moved, SMALL).matrix
            variant = {
                j
                for j, fn in enumerate(m1.columns)
                if fn.descriptor in ("mean_pitch", "sd_pitch")
            }
            assert len(variant) == 8
            for j in range(m1.p):
                a, b = m1.values[:, j], m2.values[:, j]
                if j in variant:
                    continue
                nan = np.isnan(a) & np.isnan(b)
                assert np.allclose(a[~nan], b[~nan], atol=1e-9), m1.columns[j].label

    def test_mean_pitch_changes_under_transposition(self):
        rng = np.random.default_rng(27)
        base = [synth.random_movement(rng, n_notes=(30, 30), meta=synth.make_meta())]
        moved = [synth.transpose_movement(base[0], 5)]
        m1 = extract_all(base, SMALL).matrix
        m2 = extract_all(moved, SMALL).matrix
        j = m1.column_index("basic|mean_pitch|Violin1")
        assert m1.values[0, j] != m2.values[0, j]

    def test_locations_and_maxima_ranges(self):
        rng = np.random.default_rng(28)
        corpus = [synth.random_movement(rng, meta=synth.make_meta(path=f"{i}")) for i in range(5)]
        matrix = extract_all(corpus, SMALL).matrix
        for j, fn in enumerate(matrix.columns):
            col = matrix.values[:, j]
            col = col[~np.isnan(col)]
            if fn.descriptor == "max_location":
                assert ((col > 0) & (col <= 1)).all()
            if fn.descriptor == "max_overlap":
                assert ((col >= 1.0 / fn.segment_length) & (col <= 1)).all()


class TestMatrixIO:
    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(29)
        corpus = [
            synth.random_movement(rng, meta=synth.make_meta(path=f"m{i}.krn", quartet=f"q{i}"))
            for i in range(3)
        ]
        matrix = extract_all(corpus, SMALL).matrix
        fp, mp = tmp_path / "f.csv", tmp_path / "m.csv"
        matrix.to_csv(fp, mp)
        back = FeatureMatrix.from_csv(fp, mp)
        assert back.labels == matrix.labels
        assert [m.source_path for m in back.rows] == [m.source_path for m in matrix.rows]
        nan = np.isnan(matrix.values)
        assert np.array_equal(nan, np.isnan(back.values))
        assert np.array_equal(back.values[~nan], matrix.values[~nan])

    def test_ragged_row_named_in_the_error(self, tmp_path):
        rows = [synth.make_meta(path=f"r{i}.krn", quartet=f"q{i}") for i in range(3)]
        columns = feature_names(SMALL)[:4]
        fp, mp = tmp_path / "f.csv", tmp_path / "m.csv"
        FeatureMatrix(rows=rows, columns=columns, values=np.ones((3, 4))).to_csv(fp, mp)
        lines = fp.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]  # r1.krn loses its last field
        fp.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"'r1\.krn' has 4 fields, the header has 5"):
            FeatureMatrix.from_csv(fp, mp)

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan", "NaN", "x"])
    def test_a_value_neither_blank_nor_finite_names_its_row_and_column(self, tmp_path, text):
        """A non-finite value would pass the variance filter and be scored as
        NaN by every fit, so the reader refuses it."""
        rows = [synth.make_meta(path=f"r{i}.krn", quartet=f"q{i}") for i in range(3)]
        columns = feature_names(SMALL)[:4]
        fp, mp = tmp_path / "f.csv", tmp_path / "m.csv"
        values = np.ones((3, 4))
        values[0, 0] = np.nan  # written blank, read back as NaN
        FeatureMatrix(rows=rows, columns=columns, values=values).to_csv(fp, mp)
        lines = [line.split(",") for line in fp.read_text(encoding="utf-8").splitlines()]
        lines[2][3] = text  # r1.krn's value of the third column
        fp.write_text("\n".join(",".join(line) for line in lines) + "\n", encoding="utf-8")
        message = f"feature row 'r1.krn' column {columns[2].label!r} is not finite: {text!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            FeatureMatrix.from_csv(fp, mp)

    @pytest.mark.parametrize(
        "paths",
        [("r0.krn", ""), ("r0.krn", " "), ("r0.krn", " r1.krn"), ("r1.krn", "r0.krn", "r0.krn")],
        ids=["empty", "blank", "padded", "repeated"],
    )
    def test_rows_that_would_not_read_back_are_refused_before_writing(self, tmp_path, paths):
        """The sidecar reader strips paths and skips blank ones, and the
        feature reader refuses a repeated row."""
        rows = [synth.make_meta(path=path, quartet=f"q{i}") for i, path in enumerate(paths)]
        matrix = FeatureMatrix(rows, feature_names(SMALL)[:4], np.ones((len(rows), 4)))
        message = f"row {len(rows) - 1} has a blank, padded or repeated source path {paths[-1]!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            matrix.to_csv(tmp_path / "f.csv", tmp_path / "m.csv")
        assert list(tmp_path.iterdir()) == []

    def test_select_rows_columns(self):
        rng = np.random.default_rng(30)
        corpus = [synth.random_movement(rng, meta=synth.make_meta(path=f"{i}")) for i in range(4)]
        matrix = extract_all(corpus, SMALL).matrix
        sub = matrix.select_rows([0, 2]).select_columns([5, 6, 7])
        assert sub.values.shape == (2, 3)
        assert sub.labels == matrix.labels[5:8]


class TestNearZeroVariance:
    def _matrix(self, cols):
        names = tuple(
            parse_label(f"basic|note_count|Violin{1 + (j % 2)}") for j in range(len(cols))
        )
        # parse_label yields duplicate names; construct unique ones instead
        from quartet_attrib.features import FeatureName

        names = tuple(FeatureName("basic", f"col{j}") for j in range(len(cols)))
        rows = tuple(
            synth.make_meta(path=f"r{i}.krn") for i in range(len(cols[0]))
        )
        return FeatureMatrix(rows=rows, columns=names, values=np.array(cols, dtype=float).T)

    def test_constant_dropped(self):
        m = self._matrix([[1.0] * 10, list(range(10))])
        out = near_zero_variance_filter(m)
        assert out.p == 1 and out.columns[0].descriptor == "col1"

    def test_half_half_retained(self):
        m = self._matrix([[0.0] * 5 + [1.0] * 5])
        assert near_zero_variance_filter(m).p == 1

    def test_rare_level_dropped(self):
        col = [0.0] * 95 + [1.0] * 5
        m = self._matrix([col])
        assert near_zero_variance_filter(m).p == 0

    def test_ratio_below_cut_kept(self):
        col = [0.0] * 94 + [1.0] * 6  # ratio 94/6 < 19
        m = self._matrix([col])
        assert near_zero_variance_filter(m).p == 1

    def test_high_uniqueness_kept(self):
        col = list(range(19)) + [0.0]  # ratio 2 but 100% unique
        m = self._matrix([col])
        assert near_zero_variance_filter(m).p == 1

    def test_masked_column_dropped(self):
        col = list(range(10))
        col2 = list(range(10))
        m = self._matrix([col, col2])
        vals = m.values.copy()
        vals[3, 1] = np.nan
        m2 = FeatureMatrix(rows=m.rows, columns=m.columns, values=vals)
        out = near_zero_variance_filter(m2)
        assert out.p == 1 and out.columns[0].descriptor == "col0"

    def test_order_preserved(self):
        m = self._matrix([list(range(10)), [1.0] * 10, list(range(10, 20))])
        out = near_zero_variance_filter(m)
        assert [c.descriptor for c in out.columns] == ["col0", "col2"]


class TestMaskingByLength:
    def test_short_movement_masked_for_long_segments(self):
        pitches = [[49, 51, 53, 54, 56]] * 4
        mv = synth.movement_from_pitches(pitches, meta=synth.make_meta())
        matrix = extract_all([mv], CONFIG).matrix
        j = matrix.column_index("development|max_sd|pitch|Violin1|m=8")
        assert math.isnan(matrix.values[0, j])
        j = matrix.column_index("basic|note_count|Violin1")
        assert matrix.values[0, j] == 5.0


class TestPreparedData:
    """A movement's prepared data is its families' only input: it names the
    movement and sets the segment lengths the families label."""

    def test_a_family_labels_the_lengths_of_its_data(self):
        mv = synth.random_movement(np.random.default_rng(60), n_notes=(20, 60))
        for lengths in ((8,), (18, 8)):
            data = voice_data(mv, lengths)
            assert data.lengths == lengths
            for family in (
                minor_third_segment_features, exposition_features,
                development_features, recapitulation_features,
            ):
                got = {parse_label(label).segment_length for label in family(data)}
                assert got == set(lengths), family.__name__

    def test_an_empty_voice_is_named_by_the_source(self):
        voices = [[49, 51], [0, 0], [49, 51], [49, 51]]
        mv = synth.movement_from_pitches(voices, meta=synth.make_meta(path="op1.krn"))
        with pytest.raises(features.EmptyVoice, match="^op1.krn: voice Violin2 has no notes"):
            basic_summary(voice_data(mv))
        bare = EncodedMovement(meta=None, voices=mv.voices)
        assert voice_data(bare).source == ""
        with pytest.raises(features.EmptyVoice, match="^<string>: voice Violin2"):
            basic_summary(voice_data(bare))


def _threshold_free_features(mv, config):
    data = voice_data(mv, config.lengths)
    return {
        **basic_summary(data),
        **pairwise_interval_features(data),
        **minor_third_segment_features(data),
        **exposition_features(data),
        **development_features(data),
        **recapitulation_features(data),
    }


class TestOnePass:
    def corpus(self, seed, n=4):
        rng = np.random.default_rng(seed)
        return [
            synth.random_movement(
                rng, n_notes=(5, 40), meta=synth.make_meta(path=f"p{i}.krn", quartet=f"q{i}")
            )
            for i in range(n)
        ]

    @pytest.mark.parametrize(
        "build, tracks",
        [
            ("extract_all", ("pitch", "duration", "minor3")),
            ("build_development_pool", ("pitch", "duration")),  # it reads no minor third
        ],
        ids=["extract_all", "build_development_pool"],
    )
    def test_voice_data_and_tables_built_once_per_movement(self, monkeypatch, build, tracks):
        corpus = self.corpus(32)
        built, tables = [], []  # every movement's voice data; every table's column
        real_data, real_windows = features._voice_data, features._windows

        def voice_data(movement, lengths):
            assert lengths == SMALL.lengths
            built.append(real_data(movement, lengths))
            return built[-1]

        def windows(seq, lengths):
            assert lengths == SMALL.lengths
            tables.append(seq)
            return real_windows(seq, lengths)

        monkeypatch.setattr(features, "_voice_data", voice_data)
        monkeypatch.setattr(features, "_windows", windows)
        getattr(features, build)(corpus, SMALL)
        assert len(built) == len(corpus)
        # one table per voice and track for every voice with a window; a
        # voice's duration table is built right after its pitch table
        known = {
            id(getattr(vd, attr)): (k, v, track)
            for k, data in enumerate(built)
            for v, vd in data.voices.items()
            for attr, track in (("pcs", "pitch"), ("abs_pitch", "minor3"))
        }
        column = []
        for seq in tables:
            column.append(known[id(seq)] if id(seq) in known else (*column[-1][:2], "duration"))
        voices = ("Violin1", "Violin2", "Viola", "Cello")
        assert sorted(column) == sorted(
            (k, v, track)
            for k, mv in enumerate(corpus)
            for v in voices
            if len(oracles.notes_of(mv, v)) >= min(SMALL.lengths)
            for track in tracks
        )
        assert 0 < len(tables) < len(corpus) * 4 * len(tracks)  # some voices are too short

    def test_extract_all_calls_each_family_through_the_module(self, monkeypatch):
        """A family wrapped in the module, as a tracer wraps it, is the one
        extract_all calls, once per movement."""
        calls, real = [], features.exposition_features

        def exposition(data):
            calls.append(data.source)
            return real(data)

        monkeypatch.setattr(features, "exposition_features", exposition)
        extract_all(self.corpus(38, n=3), SMALL)
        assert calls == ["p0.krn", "p1.krn", "p2.krn"]

    @pytest.mark.parametrize("build", ["extract_all", "build_development_pool"])
    def test_one_movement_at_a_time(self, build):
        """A one-pass corpus is not listed: when movement i + 1 is asked
        for, movement i - 1 is gone, and the results equal a listed run's."""
        alive = []

        def stream(watch):
            rng, refs = np.random.default_rng(36), []
            for i in range(6):
                if watch and i >= 2:
                    gc.collect()
                    alive.append(refs[i - 2]() is not None)
                mv = synth.random_movement(
                    rng, n_notes=(20, 40), meta=synth.make_meta(path=f"s{i}.krn", quartet=f"q{i}")
                )
                refs.append(weakref.ref(mv))
                yield mv

        got = getattr(features, build)(stream(watch=True), SMALL)
        assert alive == [False] * 4
        want = getattr(features, build)(list(stream(watch=False)), SMALL)
        if build == "extract_all":
            assert got.matrix.values.tobytes() == want.matrix.values.tobytes()
            assert got.matrix.rows == want.matrix.rows
            got, want = got.pool, want.pool
        assert repr(got.thresholds()) == repr(want.thresholds())

    @pytest.mark.parametrize("reading", ["prose", "literal"])
    def test_matrix_is_the_families_plus_the_pool_counts(self, reading):
        corpus = self.corpus(33, n=5)
        matrix, pool, thresholds = extract_all(corpus, SMALL, threshold_reading=reading)
        want_pool = build_development_pool(corpus, SMALL, reading)
        want_thr = want_pool.thresholds()
        assert repr(thresholds) == repr(want_thr) and pool.sds.keys() == want_thr.table.keys()
        assert pool.paths == want_pool.paths == tuple(meta.source_path for meta in matrix.rows)
        counted = want_pool.count_columns(want_thr)
        for i, mv in enumerate(corpus):
            want = {
                **_threshold_free_features(mv, SMALL),
                **dict(zip(oracles.count_labels(SMALL.lengths), counted[i])),
            }
            got = matrix.values[i]
            expect = np.array([want[lbl] for lbl in matrix.labels])
            assert np.array_equal(got, expect, equal_nan=True)
            assert got.tobytes() == expect.tobytes()

    def test_pool_keeps_the_extraction_reading(self):
        corpus = self.corpus(35, n=5)
        _, pool, thresholds = extract_all(corpus, SMALL, threshold_reading="literal")
        assert repr(pool.thresholds()) == repr(thresholds)
        assert pool.reading == "literal"

    def test_unknown_reading_fails_before_any_movement(self, monkeypatch):
        def voice_data(movement, lengths):
            raise AssertionError("a movement was prepared before the reading was checked")

        monkeypatch.setattr(features, "_voice_data", voice_data)
        with pytest.raises(ValueError, match="reading must be one of"):
            extract_all(self.corpus(34), SMALL, threshold_reading="verbatim")
        with pytest.raises(ValueError, match="reading must be one of"):
            build_development_pool([], SMALL, "verbatim")

    def test_empty_pool_has_no_rows(self):
        pool = build_development_pool([], SMALL)
        assert pool.paths == () and len(pool.sds) == 4 * len(SMALL.lengths) * 2

    def test_pool_records_each_movement_source_path_in_order(self):
        corpus = self.corpus(37, n=3)
        corpus[1] = EncodedMovement(meta=None, voices=corpus[1].voices)
        assert build_development_pool(corpus, SMALL).paths == ("p0.krn", "", "p2.krn")
