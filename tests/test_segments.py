import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from oracles import (
    RestInSegment,
    Segment,
    fraction_overlap,
    location,
    overlap_count,
    relative_transform,
    windows,
)
from quartet_attrib.features import (
    EmptyInput,
    LengthMismatch,
    SegmentConfig,
    weighted_quantile,
)


class TestWindows:
    def test_k157_window_count(self):
        assert len(windows(range(20), 8)) == 13

    def test_single_window_when_equal(self):
        segs = windows([1, 2, 3, 4], 4)
        assert len(segs) == 1 and segs[0].start == 1

    def test_short_sequence_empty(self):
        assert windows([1, 2, 3, 4, 5], 8) == []

    def test_count_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            m = int(rng.integers(2, 20))
            segs = windows(range(n), m)
            if n >= m:
                assert len(segs) + m - 1 == n
            else:
                assert segs == []

    def test_starts_are_one_based(self):
        segs = windows("abcdef", 3)
        assert [s.start for s in segs] == [1, 2, 3, 4]
        assert segs[1].values == ("b", "c", "d")

    def test_m_below_two_rejected(self):
        with pytest.raises(ValueError):
            windows([1, 2, 3], 1)


class TestLocation:
    def test_paper_example(self):
        assert location(2, 13) == Fraction(2, 13)

    def test_last_segment(self):
        assert location(13, 13) == 1

    def test_first_segment(self):
        assert location(1, 13) == Fraction(1, 13)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            location(0, 5)
        with pytest.raises(ValueError):
            location(6, 5)


class TestRelativeTransform:
    def test_paper_example(self):
        seg = Segment((3, 5, 6, 6, 6, 5, 8, 6), 11)
        assert relative_transform(seg).values == (1, 3, 4, 4, 4, 3, 6, 4)

    def test_constant_segment(self):
        assert relative_transform(Segment((7, 7, 7, 7), 1)).values == (1, 1, 1, 1)

    def test_transposition_pair(self):
        a = relative_transform(Segment((4, 6, 7), 1))
        b = relative_transform(Segment((9, 11, 12), 1))
        assert a.values == b.values == (1, 3, 4)

    def test_transposition_invariance_random(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            m = int(rng.integers(2, 12))
            vals = tuple(int(v) for v in rng.integers(1, 13, size=m))
            base = relative_transform(Segment(vals, 1)).values
            d = int(rng.integers(1, 12))
            shifted = tuple((v - 1 + d) % 12 + 1 for v in vals)
            assert relative_transform(Segment(shifted, 1)).values == base

    def test_wraparound(self):
        assert relative_transform(Segment((12, 1), 1)).values == (1, 2)

    def test_rest_rejected(self):
        with pytest.raises(RestInSegment):
            relative_transform(Segment((1, 0, 3), 1))


class TestFractionOverlap:
    def test_k157_pitch_overlap(self):
        a = Segment((1, 3, 5, 5, 5, 3, 6, 5), 1)
        b = Segment((1, 3, 4, 4, 4, 3, 6, 4), 11)
        assert fraction_overlap(a, b) == Fraction(1, 2)

    def test_k157_duration_overlap(self):
        durs = tuple(Fraction(x) for x in (3, 1, 2, 2, 1, 1, 1, 1))
        assert fraction_overlap(Segment(durs, 1), Segment(durs, 11)) == 1

    def test_reflexive(self):
        seg = Segment((1, 2, 3, 4), 1)
        assert fraction_overlap(seg, seg) == 1

    def test_symmetric_and_granular(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m = int(rng.integers(2, 15))
            a = Segment(tuple(int(v) for v in rng.integers(1, 5, size=m)), 1)
            b = Segment(tuple(int(v) for v in rng.integers(1, 5, size=m)), 2)
            f = fraction_overlap(a, b)
            assert f == fraction_overlap(b, a)
            assert 0 <= f <= 1 and (f * m).denominator == 1

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            fraction_overlap(Segment((1, 2), 1), Segment((1, 2, 3), 1))

    def test_exact_rational_duration_comparison(self):
        a = Segment((Fraction(1, 3), Fraction(1, 4)), 1)
        b = Segment((Fraction(2, 6), Fraction(1, 4)), 2)
        assert fraction_overlap(a, b) == 1


class TestOverlapCount:
    def test_basic(self):
        assert overlap_count((0.5, 0.7, 0.9, 1.0), 0.7) == 3

    def test_zero_threshold(self):
        fr = (0.1, 0.4, 0.9)
        assert overlap_count(fr, 0) == len(fr)

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(3)
        fracs = [Fraction(int(rng.integers(0, 11)), 10) for _ in range(200)]
        for t in (Fraction(9, 10), Fraction(7, 10), Fraction(1, 2)):
            assert overlap_count(fracs, t) == sum(1 for f in fracs if f >= t)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(4)
        fracs = rng.random(100)
        counts = [overlap_count(fracs, t) for t in np.linspace(0, 1, 11)]
        assert counts == sorted(counts, reverse=True)

    def test_threshold_range(self):
        with pytest.raises(ValueError):
            overlap_count((0.5,), 1.5)


class TestWeightedQuantile:
    def test_unweighted_median_convention(self):
        assert weighted_quantile([1, 2, 3, 4], [1, 1, 1, 1], 0.5) == 2

    def test_weight_dominance(self):
        assert weighted_quantile([1, 2], [0.9, 0.1], 0.5) == 1

    def test_matches_prefix_sum_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            vals = [float(v) for v in rng.normal(size=50)]
            wts = [float(w) for w in rng.random(50) + 0.01]
            for q in (0.7, 0.8, 0.9, 0.95):
                assert weighted_quantile(vals, wts, q) == oracles.weighted_quantile_oracle(
                    vals, wts, q
                )

    def test_equal_weights_match_lower_empirical_quantile(self):
        rng = np.random.default_rng(6)
        vals = sorted(float(v) for v in rng.normal(size=40))
        wts = [1.0] * 40
        for q in (0.25, 0.5, 0.7, 0.9):
            # smallest value whose empirical CDF reaches q
            import math

            expect = vals[math.ceil(q * 40) - 1]
            assert weighted_quantile(vals, wts, q) == expect

    def test_ties_accumulate(self):
        assert weighted_quantile([1, 1, 2], [0.3, 0.3, 0.4], 0.5) == 1

    def test_tie_group_returns_its_last_member(self):
        # -0.0 == 0.0, so they form one tie group; the stable order keeps
        # the input order and the group's last member is returned
        for vals in ([-0.0, 0.0, 1.0], [0.0, -0.0, 1.0]):
            got = weighted_quantile(vals, [1.0, 1.0, 1.0], [0.2, 0.5])
            assert [math.copysign(1.0, g) for g in got] == [math.copysign(1.0, vals[1])] * 2

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            weighted_quantile([], [], 0.5)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            weighted_quantile([1, 2], [1], 0.5)

    def test_quantile_validation(self):
        for q in (0.0, 1.0, [0.5, 1.2]):
            with pytest.raises(ValueError):
                weighted_quantile([1, 2], [1, 1], q)
        with pytest.raises(ValueError):
            weighted_quantile([1, 2], [0.0, 0.0], 0.5)

    def test_sequence_of_quantiles_matches_oracle(self):
        rng = np.random.default_rng(7)
        qs = (0.05, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.999)
        for case in range(40):
            n = int(rng.integers(1, 300))
            # heavy ties: values rounded to 2 decimals, few distinct values
            vals = np.round(rng.normal(scale=(0.02, 1.0)[case % 2], size=n), 2)
            wts = rng.random(n) + 0.01
            if case % 3 == 0:
                wts = np.repeat(1.0 / rng.integers(1, 50, size=4), -(-n // 4))[:n]
            got = weighted_quantile(vals, wts, qs)
            assert got.shape == (len(qs),)
            for g, q in zip(got, qs):
                want = oracles.weighted_quantile_oracle(vals.tolist(), wts.tolist(), q)
                assert g == want, (case, q)
            # a scalar q gives the matching element, as a scalar
            assert np.ndim(weighted_quantile(vals, wts, qs[3])) == 0
            assert weighted_quantile(vals, wts, qs[3]) == got[3]


def test_segment_config_validation():
    assert SegmentConfig().lengths == (8, 10, 12, 14, 16, 18)
    with pytest.raises(ValueError):
        SegmentConfig(lengths=(8, 1))
    with pytest.raises(ValueError):
        SegmentConfig(lengths=(8, 8))
    with pytest.raises(ValueError):
        SegmentConfig(lengths=())
