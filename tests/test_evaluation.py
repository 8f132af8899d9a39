import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamsad.audio_io import NONSPEECH, SPEECH, SegmentLabel
from streamsad.evaluation import (
    EvalConfig,
    EvalReport,
    EvaluationError,
    aggregate,
    apply_collar,
    format_keyvalues,
    format_table,
    intersect_intervals,
    normalize_intervals,
    score,
    subtract_intervals,
    total_time,
)
from oracles import grid_dcf, merge_intervals_oracle


def sp(start, end):
    return SegmentLabel(start, end, SPEECH)


def ns(start, end):
    return SegmentLabel(start, end, NONSPEECH)


def random_speech(rng, duration, max_segments=6, margin=0.001):
    """Random non-overlapping speech segments on a 1 ms grid."""
    n = int(rng.integers(1, max_segments + 1))
    lo, hi = int(margin * 1000), int(duration * 1000) - int(margin * 1000)
    points = np.sort(rng.choice(np.arange(lo, hi), 2 * n, replace=False))
    segments = []
    for i in range(n):
        a, b = points[2 * i] / 1000.0, points[2 * i + 1] / 1000.0
        if b > a:
            segments.append(sp(a, b))
    return segments


interval_lists = st.lists(
    st.tuples(st.integers(0, 200), st.integers(1, 60)).map(
        lambda ab: (ab[0] / 10.0, (ab[0] + ab[1]) / 10.0)
    ),
    max_size=8,
)


class TestIntervalAlgebra:
    def test_normalize_merges_touching_and_overlapping(self):
        got = normalize_intervals([(3.0, 4.0), (0.0, 1.0), (1.0, 2.0), (3.5, 5.0)])
        assert got == [(0.0, 2.0), (3.0, 5.0)]

    def test_normalize_drops_empty(self):
        assert normalize_intervals([(1.0, 1.0), (2.0, 1.0)]) == []

    @settings(max_examples=60, deadline=None)
    @given(intervals=interval_lists)
    def test_normalize_matches_oracle_and_is_idempotent(self, intervals):
        got = normalize_intervals(intervals)
        assert got == merge_intervals_oracle(intervals)
        assert normalize_intervals(got) == got

    @settings(max_examples=60, deadline=None)
    @given(a=interval_lists, b=interval_lists)
    def test_subtract_and_intersect_partition(self, a, b):
        a = normalize_intervals(a)
        b = normalize_intervals(b)
        inside = total_time(intersect_intervals(a, b))
        outside = total_time(subtract_intervals(a, b))
        assert inside + outside == pytest.approx(total_time(a), abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(a=interval_lists, b=interval_lists)
    def test_intersect_commutes(self, a, b):
        a = normalize_intervals(a)
        b = normalize_intervals(b)
        assert intersect_intervals(a, b) == intersect_intervals(b, a)

    def test_subtract_exact_cases(self):
        assert subtract_intervals([(0.0, 10.0)], [(2.0, 3.0), (5.0, 7.0)]) == [
            (0.0, 2.0),
            (3.0, 5.0),
            (7.0, 10.0),
        ]
        assert subtract_intervals([(0.0, 1.0)], [(0.0, 1.0)]) == []
        assert subtract_intervals([], [(0.0, 1.0)]) == []


class TestCollar:
    def test_zero_collar_partitions_file(self):
        ref = [ns(0.0, 2.0), sp(2.0, 5.0), ns(5.0, 10.0)]
        mask = apply_collar(ref, 0.0, 10.0)
        assert mask.speech == [(2.0, 5.0)]
        assert mask.nonspeech == [(0.0, 2.0), (5.0, 10.0)]

    def test_worked_example_mask(self):
        ref = [sp(2.0, 5.0)]
        mask = apply_collar(ref, 0.25, 10.0)
        assert mask.speech == [(2.25, 4.75)]
        assert mask.nonspeech == [(0.0, 1.75), (5.25, 10.0)]

    def test_touching_speech_has_no_interior_collar(self):
        # two touching speech segments act as one: 3 boundary sites, not 4
        split = [sp(2.0, 3.5), sp(3.5, 5.0)]
        whole = [sp(2.0, 5.0)]
        mask_split = apply_collar(split, 0.25, 10.0)
        mask_whole = apply_collar(whole, 0.25, 10.0)
        assert mask_split == mask_whole

    def test_close_segments_lose_the_gap(self):
        # a 0.3 s gap inside 2x0.25 collars is entirely unscored
        ref = [sp(1.0, 2.0), ns(2.0, 2.3), sp(2.3, 3.0)]
        mask = apply_collar(ref, 0.25, 4.0)
        assert total_time(intersect_intervals(mask.nonspeech, [(2.0, 2.3)])) == 0.0

    def test_collar_clipped_to_file(self):
        ref = [sp(0.1, 9.95)]
        mask = apply_collar(ref, 0.25, 10.0)
        assert all(0.0 <= a < b <= 10.0 for a, b in mask.speech + mask.nonspeech)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_wider_collar_never_scores_more(self, seed):
        rng = np.random.default_rng(seed)
        ref = random_speech(rng, 20.0)
        small = apply_collar(ref, 0.1, 20.0)
        large = apply_collar(ref, 0.4, 20.0)
        assert total_time(large.speech) <= total_time(small.speech) + 1e-12
        assert total_time(large.nonspeech) <= total_time(small.nonspeech) + 1e-12


class TestScore:
    def test_perfect_hypothesis_is_zero(self):
        ref = [ns(0.0, 2.0), sp(2.0, 5.0), ns(5.0, 10.0)]
        report = score(ref, ref)
        assert report.dcf == 0.0
        assert report.p_fn == 0.0 and report.p_fp == 0.0

    def test_all_speech_hypothesis_hits_fa_endpoint(self):
        ref = [ns(0.0, 2.0), sp(2.0, 5.0), ns(5.0, 10.0)]
        report = score(ref, [sp(0.0, 10.0)])
        assert report.p_fn == 0.0
        assert report.p_fp == 1.0
        assert report.dcf == 0.25

    def test_worked_fixture_is_exact(self):
        report = score([sp(2.0, 5.0)], [sp(2.5, 5.0)], file_duration=10.0)
        assert report.scored_speech == pytest.approx(2.5, abs=1e-12)
        assert report.missed == pytest.approx(0.25, abs=1e-12)
        assert report.false_alarm == 0.0
        assert report.p_fn == pytest.approx(0.1, abs=1e-12)
        assert report.dcf == 0.075  # exactly

    def test_dcf_identity_with_weighted_rates(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            ref = random_speech(rng, 30.0)
            hyp = random_speech(rng, 30.0)
            try:
                report = score(ref, hyp, file_duration=30.0)
            except EvaluationError:
                continue
            direct = 0.75 * report.p_fn + 0.25 * report.p_fp
            assert abs(report.dcf - direct) < 1e-12

    def test_splitting_hypothesis_changes_nothing(self):
        ref = [sp(2.0, 6.0)]
        whole = [sp(1.0, 5.0)]
        split = [sp(1.0, 2.5), sp(2.5, 3.125), sp(3.125, 5.0)]
        a = score(ref, whole, file_duration=10.0)
        b = score(ref, split, file_duration=10.0)
        assert a == b  # frozen dataclass equality: all times identical

    def test_matches_grid_oracle_on_random_pairs(self):
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 20:
            duration = float(rng.uniform(10.0, 30.0))
            ref = random_speech(rng, duration)
            hyp = random_speech(rng, duration)
            try:
                report = score(ref, hyp, file_duration=duration)
            except EvaluationError:
                continue
            checked += 1
            missed, fa, s_sp, s_nsp = grid_dcf(
                [(s.start, s.end) for s in ref],
                [(s.start, s.end) for s in hyp],
                0.25,
                duration,
            )
            n_boundaries = 2 * len(merge_intervals_oracle([(s.start, s.end) for s in ref]))
            tol = 0.002 * max(n_boundaries, 1)
            assert abs(report.missed - missed) <= tol
            assert abs(report.false_alarm - fa) <= tol
            assert abs(report.scored_speech - s_sp) <= tol
            assert abs(report.scored_nonspeech - s_nsp) <= tol

    def test_zero_scored_speech_is_an_error(self):
        with pytest.raises(EvaluationError, match="miss rate undefined"):
            score([ns(0.0, 10.0)], [ns(0.0, 10.0)], file_duration=10.0)
        # all speech swallowed by its own collars
        with pytest.raises(EvaluationError, match="miss rate undefined"):
            score([sp(1.0, 1.3)], [sp(1.0, 1.3)], file_duration=10.0)

    def test_zero_scored_nonspeech_is_an_error(self):
        with pytest.raises(EvaluationError, match="false-alarm rate undefined"):
            score([sp(0.0, 10.0)], [sp(0.0, 10.0)], file_duration=10.0)

    def test_duration_defaults_to_last_end(self):
        ref = [sp(2.0, 5.0), ns(5.0, 8.0)]
        hyp = [sp(2.0, 5.0)]
        assert score(ref, hyp) == score(ref, hyp, file_duration=8.0)

    def test_hypothesis_beyond_duration_is_clipped(self):
        ref = [sp(2.0, 5.0)]
        report = score(ref, [sp(2.0, 5.0), sp(9.0, 12.0)], file_duration=10.0)
        # false alarm counts only up to the 10 s mark: [9, 10) = 1 s
        assert report.false_alarm == pytest.approx(1.0, abs=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="collar"):
            EvalConfig(collar=-0.1)
        with pytest.raises(ValueError, match="collar"):
            EvalConfig(collar=float("nan"))


class TestAggregate:
    def r(self, s_sp, s_nsp, miss, fa):
        return EvalReport(
            scored_speech=s_sp, scored_nonspeech=s_nsp, missed=miss, false_alarm=fa
        )

    def test_single_report_unchanged(self):
        one = self.r(3.0, 6.0, 0.3, 0.6)
        pooled = aggregate({"one": one})
        assert pooled.dcf == one.dcf
        assert pooled.scored_speech == one.scored_speech

    def test_two_identical_files_keep_the_dcf(self):
        one = self.r(3.0, 6.0, 0.3, 0.6)
        pooled = aggregate({"a": one, "b": one})
        assert pooled.dcf == pytest.approx(one.dcf, abs=1e-15)
        assert pooled.scored_speech == 6.0

    def test_matches_concatenation_oracle(self):
        # scoring two files separately and pooling must equal scoring one
        # long file made by shifting the second file after the first
        # segments stay >= 0.5 s clear of file edges so no collar can reach
        # across the join and the two scorings see identical geometry
        rng = np.random.default_rng(3)
        d1, d2 = 20.0, 35.0
        ref1, hyp1 = random_speech(rng, d1, margin=0.5), random_speech(rng, d1, margin=0.5)
        ref2, hyp2 = random_speech(rng, d2, margin=0.5), random_speech(rng, d2, margin=0.5)
        pooled = aggregate(
            {"1": score(ref1, hyp1, file_duration=d1), "2": score(ref2, hyp2, file_duration=d2)}
        )

        def shift(segments, by):
            return [SegmentLabel(s.start + by, s.end + by, s.label) for s in segments]

        concat = score(
            ref1 + shift(ref2, d1), hyp1 + shift(hyp2, d1), file_duration=d1 + d2
        )
        assert concat.missed == pytest.approx(pooled.missed, abs=1e-9)
        assert concat.false_alarm == pytest.approx(pooled.false_alarm, abs=1e-9)
        assert concat.dcf == pytest.approx(pooled.dcf, abs=1e-9)

    def test_named_reports_become_per_file(self):
        pooled = aggregate({"a": self.r(1.0, 2.0, 0.1, 0.0), "b": self.r(2.0, 4.0, 0.0, 0.4)})
        assert set(pooled.per_file) == {"a", "b"}

    def test_errors(self):
        with pytest.raises(EvaluationError, match="nothing"):
            aggregate({})


class TestFormatting:
    def test_keyvalues_layout(self):
        pooled = aggregate({"rec0": EvalReport(2.5, 7.0, 0.25, 0.0)})
        text = format_keyvalues(pooled)
        lines = text.split("\n")
        assert lines[0] == "dcf=0.075000"
        assert lines[1] == "p_fn=0.100000"
        assert lines[2] == "p_fp=0.000000"
        assert lines[3].startswith("file=rec0 dcf=0.075000")

    def test_table_has_pooled_row(self):
        pooled = aggregate({"x": EvalReport(2.5, 7.0, 0.25, 0.0)})
        table = format_table(pooled)
        assert "POOLED" in table
        assert "x" in table
