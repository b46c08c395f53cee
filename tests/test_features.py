import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
import synth
from quartet_attrib import features
from quartet_attrib.features import (
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
from quartet_attrib.score import Composer, parse_kern

CONFIG = SegmentConfig()
SMALL = SegmentConfig(lengths=(8, 10))

#: Generic thresholds used when a test needs development counts without a corpus.
FLAT_THRESHOLDS = DevelopmentThresholds(
    quantiles=(0.70, 0.80, 0.90, 0.95),
    table={
        (v, m, track): (0.5, 1.0, 2.0, 3.0)
        for v in ("Violin1", "Violin2", "Viola", "Cello")
        for m in (8, 10, 12, 14, 16, 18)
        for track in ("pitch", "duration")
    },
)


def voice_data(mv):
    """A movement's shared per-voice data, which every feature family reads."""
    return features._voice_data(mv)


def development_with_counts(mv, thresholds, config):
    """A movement's development features with its count columns at the
    given thresholds, taken from a one-movement pool."""
    pool = build_development_pool([mv], config)
    counts = dict(zip(pool.count_labels(), pool.count_columns(thresholds)[0]))
    return {**development_features(voice_data(mv), config), **counts}


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


class TestBasicSummary:
    def test_k157_mean_duration(self):
        # first-bar durations 0.375, 0.125, 0.25, 0.25 average to 0.25
        mv = synth.movement_from_pitches(
            [[49, 51, 53, 53]] * 4,
            [[Fraction(3, 8), Fraction(1, 8), Fraction(1, 4), Fraction(1, 4)]] * 4,
        )
        feats = basic_summary(mv, voice_data(mv))
        assert feats["basic|mean_duration|Violin1"] == 0.25
        assert feats["basic|note_count|Cello"] == 4.0

    def test_constant_durations_zero_sd(self):
        mv = synth.movement_from_pitches([[49, 53, 56, 61]] * 4)
        assert basic_summary(mv, voice_data(mv))["basic|sd_duration|Viola"] == 0.0

    def test_identical_onset_patterns(self):
        mv = synth.movement_from_pitches([[49, 51, 53, 54]] * 4)
        feats = basic_summary(mv, voice_data(mv))
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
        feats = basic_summary(mv, voice_data(mv))
        # onset 0 shared by all; onset 1/4 only in Violin 1
        assert feats["basic|simultaneous_notes"] == 0.5

    def test_matches_oracle_on_random_movements(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            mv = synth.random_movement(rng)
            assert_dicts_close(basic_summary(mv, voice_data(mv)), oracles.basic_summary_oracle(mv))

    def test_empty_voice_raises(self):
        mv = synth.movement_from_pitches([[49, 51], [0, 0], [49, 51], [49, 51]])
        with pytest.raises(Exception):
            basic_summary(mv, voice_data(mv))


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
        feats = minor_third_segment_features(voice_data(mv), SegmentConfig(lengths=(8,)))
        assert feats["interval|minor3_mean|Violin1|m=8"] == pytest.approx(4 / 7)
        assert feats["interval|minor3_max|Violin1|m=8"] == pytest.approx(4 / 7)

    def test_constant_segment_zero(self):
        mv = synth.movement_from_pitches([[50] * 10] * 4)
        feats = minor_third_segment_features(voice_data(mv), SegmentConfig(lengths=(8,)))
        assert feats["interval|minor3_max|Cello|m=8"] == 0.0
        assert feats["interval|minor3_count_zero|Cello|m=8"] == 3.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            mv = synth.random_movement(rng)
            got = minor_third_segment_features(voice_data(mv), CONFIG)
            want = oracles.minor3_oracle(mv, CONFIG.lengths)
            assert_dicts_close(got, want)

    def test_short_voice_masked(self):
        mv = synth.movement_from_pitches([[50, 51, 52, 53, 54]] * 4)
        feats = minor_third_segment_features(voice_data(mv), SegmentConfig(lengths=(8,)))
        assert math.isnan(feats["interval|minor3_mean|Violin1|m=8"])


class TestExposition:
    def test_verbatim_repeat_in_first_half(self):
        motif = [49, 52, 54, 51, 56, 58, 50, 53]
        voice = motif + motif + [70 + i for i in range(16)]
        mv = synth.movement_from_pitches([voice] * 4)
        feats = exposition_features(voice_data(mv), SegmentConfig(lengths=(8,)))
        assert feats["exposition|max_overlap|pitch|Violin1|m=8"] == 1.0
        assert feats["exposition|count_t1|pitch|Violin1|m=8"] >= 1.0

    def test_repeated_motif_count(self):
        # aperiodic motif repeated three times within the first half
        rng = np.random.default_rng(14)
        motif = [49, 52, 56, 61, 50, 58, 63, 54]
        filler = [int(90 + rng.integers(0, 12)) for _ in range(24)]
        voice = motif * 3 + filler
        mv = synth.movement_from_pitches([voice] * 4)
        feats = exposition_features(voice_data(mv), SegmentConfig(lengths=(8,)))
        count = feats["exposition|count_t1|pitch|Violin1|m=8"]
        want = oracles.exposition_oracle(mv, (8,))["exposition|count_t1|pitch|Violin1|m=8"]
        assert count == want == 2.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(15):
            mv = synth.random_movement(rng)
            got = exposition_features(voice_data(mv), CONFIG)
            want = oracles.exposition_oracle(mv, CONFIG.lengths)
            assert_dicts_close(got, want)

    def test_too_few_first_half_segments_masked(self):
        mv = synth.movement_from_pitches([[49 + i for i in range(8)]] * 4)
        feats = exposition_features(voice_data(mv), SegmentConfig(lengths=(8,)))
        assert math.isnan(feats["exposition|max_overlap|pitch|Violin1|m=8"])


class TestRecapitulation:
    def test_final_restatement_location_one(self):
        motif = [49, 52, 54, 51, 56, 58, 50, 53]
        middle = [70 + (i * 5) % 13 for i in range(20)]
        voice = motif + middle + motif
        mv = synth.movement_from_pitches([voice] * 4)
        feats = recapitulation_features(voice_data(mv), SegmentConfig(lengths=(8,)))
        assert feats["recapitulation|max_overlap|pitch|Violin1|m=8"] == 1.0
        assert feats["recapitulation|max_location|pitch|Violin1|m=8"] == 1.0

    def test_aba_duration_overlap(self):
        a_durs = [Fraction(3, 8), Fraction(1, 8), Fraction(1, 4), Fraction(1, 4)] * 5
        b_durs = [Fraction(1, 16)] * 20
        durs = a_durs + b_durs + a_durs
        pitches = [50 + (i % 7) for i in range(60)]
        mv = synth.movement_from_pitches([pitches] * 4, [durs] * 4)
        feats = recapitulation_features(voice_data(mv), SegmentConfig(lengths=(8,)))
        assert feats["recapitulation|max_overlap|duration|Violin1|m=8"] == 1.0
        assert feats["recapitulation|max_location|duration|Violin1|m=8"] > 2 / 3

    def test_matches_oracle(self):
        rng = np.random.default_rng(16)
        for _ in range(15):
            mv = synth.random_movement(rng)
            got = recapitulation_features(voice_data(mv), CONFIG)
            want = oracles.recapitulation_oracle(mv, CONFIG.lengths)
            assert_dicts_close(got, want)

    def test_exposition_counts_never_exceed_recap(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            mv = synth.random_movement(rng)
            expo = exposition_features(voice_data(mv), CONFIG)
            recap = recapitulation_features(voice_data(mv), CONFIG)
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
        feats = development_features(voice_data(mv), SegmentConfig(lengths=(8,)))
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
            feats = dict(zip(pool.count_labels(), row))
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
        quantiles=FLAT_THRESHOLDS.quantiles,
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
            expo = exposition_features(voice_data(mv), SMALL)
            assert_dicts_close(expo, oracles.exposition_oracle(mv, lengths), tol=0.0)
            recap = recapitulation_features(voice_data(mv), SMALL)
            assert_dicts_close(recap, oracles.recapitulation_oracle(mv, lengths), tol=0.0)
            dev = development_with_counts(mv, self.THRESHOLDS, SMALL)
            want = oracles.development_oracle(mv, self.THRESHOLDS, lengths)
            assert_dicts_close(dev, want, tol=0.0)
            overlaps += sum(
                x > 0 for k, x in recap.items() if k.startswith("recapitulation|count_t0.7|dur")
            )
        assert overlaps > 0


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
        missing = 0
        for key, arrays in pool.sds.items():
            vals = [x for i in rows for x in arrays[i].tolist()]
            wts = [1.0 / arrays[i].size for i in rows for _ in range(arrays[i].size)]
            if not vals:
                missing += 1
                assert all(math.isnan(t) for t in thr.table[key])
                continue
            # equal weights 1/size often put a cumulative share exactly on q,
            # so the oracle rounds as the library does: a running sum in order
            for qi, q in enumerate(pool.quantiles):
                want = oracles.weighted_quantile_loop_oracle(vals, wts, q)
                assert thr.table[key][qi] == want, (key, q)
        assert missing < len(pool.sds)

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
        prose = build_development_pool(movements, SMALL).thresholds(reading="prose")
        literal = build_development_pool(movements, SMALL).thresholds(reading="literal")
        key = ("Violin1", 8, "pitch")
        assert literal.table[key][0] < prose.table[key][0]

    def test_json_round_trip(self):
        rng = np.random.default_rng(22)
        movements = [synth.random_movement(rng) for _ in range(3)]
        thr = build_development_pool(movements, SMALL).thresholds()
        back = DevelopmentThresholds.from_json(thr.to_json())
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


def _threshold_free_features(mv, config):
    data = voice_data(mv)
    return {
        **basic_summary(mv, data),
        **pairwise_interval_features(data),
        **minor_third_segment_features(data, config),
        **exposition_features(data, config),
        **development_features(data, config),
        **recapitulation_features(data, config),
    }


def test_movement_features_complete():
    """The six families and the pool's count columns make up the registry,
    each label exactly once."""
    rng = np.random.default_rng(31)
    mv = synth.random_movement(rng, meta=synth.make_meta())
    free = _threshold_free_features(mv, CONFIG)
    counts = build_development_pool([mv], CONFIG).count_labels()
    assert not set(free) & set(counts) and len(set(counts)) == len(counts)
    assert set(free) | set(counts) == {fn.label for fn in feature_names(CONFIG)}


class TestOnePass:
    def corpus(self, seed, n=4):
        rng = np.random.default_rng(seed)
        return [
            synth.random_movement(
                rng, n_notes=(5, 40), meta=synth.make_meta(path=f"p{i}.krn", quartet=f"q{i}")
            )
            for i in range(n)
        ]

    def test_voice_data_and_windows_built_once_per_movement(self, monkeypatch):
        corpus = self.corpus(32)
        calls = {"voice_data": 0, "windows": [], "sds": 0}
        real_data, real_windows = features._voice_data, features._track_windows
        real_sd = features._exact_window_sd

        def voice_data(movement):
            calls["voice_data"] += 1
            return real_data(movement)

        def track_windows(vd, track, m):
            calls["windows"].append((calls["voice_data"], id(vd), track, m))
            return real_windows(vd, track, m)

        def window_sd(*args):
            calls["sds"] += 1
            return real_sd(*args)

        monkeypatch.setattr(features, "_voice_data", voice_data)
        monkeypatch.setattr(features, "_track_windows", track_windows)
        monkeypatch.setattr(features, "_exact_window_sd", window_sd)
        extract_all(corpus, SMALL)
        assert calls["voice_data"] == len(corpus)
        keys = len(corpus) * 4 * len(SMALL.lengths) * 2  # movements, voices, m, tracks
        assert len(calls["windows"]) == len(set(calls["windows"])) == keys
        long_enough = sum(
            len(oracles.notes_of(mv, v)) >= m
            for mv in corpus
            for v in ("Violin1", "Violin2", "Viola", "Cello")
            for m in SMALL.lengths
        )
        assert calls["sds"] == 2 * long_enough

    @pytest.mark.parametrize("reading", ["prose", "literal"])
    def test_matrix_is_the_families_plus_the_pool_counts(self, reading):
        corpus = self.corpus(33, n=5)
        matrix, pool, thresholds = extract_all(corpus, SMALL, threshold_reading=reading)
        want_thr = build_development_pool(corpus, SMALL).thresholds(reading=reading)
        assert repr(thresholds) == repr(want_thr) and pool.sds.keys() == want_thr.table.keys()
        counted = build_development_pool(corpus, SMALL).count_columns(want_thr)
        for i, mv in enumerate(corpus):
            want = {
                **_threshold_free_features(mv, SMALL),
                **dict(zip(pool.count_labels(), counted[i])),
            }
            got = matrix.values[i]
            expect = np.array([want[lbl] for lbl in matrix.labels])
            assert np.array_equal(got, expect, equal_nan=True)
            assert got.tobytes() == expect.tobytes()

    def test_unknown_reading_fails_before_any_movement(self, monkeypatch):
        def voice_data(movement):
            raise AssertionError("a movement was prepared before the reading was checked")

        monkeypatch.setattr(features, "_voice_data", voice_data)
        with pytest.raises(ValueError, match="reading must be one of"):
            extract_all(self.corpus(34), SMALL, threshold_reading="verbatim")

    def test_empty_pool_has_no_rows(self):
        pool = build_development_pool([], SMALL)
        assert pool.n == 0 and len(pool.sds) == 4 * len(SMALL.lengths) * 2
