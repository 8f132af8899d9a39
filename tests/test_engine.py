import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from streamsad.audio_io import NONSPEECH, SPEECH, AudioStream, SegmentLabel, read_wav
from streamsad.context_transform import LDA_CONTEXT, PCA_CONTEXT, LinearTransform
from streamsad.engine import (
    SEGMENT_FRAMES,
    TRACE_HEADER,
    AdaptState,
    AdaptationConfig,
    Decision,
    SadModel,
    SmoothingConfig,
    StreamingDetector,
    _bundle_arrays,
    _cosine,
    adapt,
    format_trace,
    load_model,
    merge_decisions,
    save_model,
    score_segments,
    smooth_segments,
    stream_detect,
)
from streamsad.features import BLOCK_FRAMES, FeatureConfig
from streamsad.gmm import Gmm
from oracles import naive_posteriors, supervector_oracle


def mini_model(base_threshold=0.0, seed=0):
    """Hand-sized model with valid dimension chaining (PCA space is 2-d)."""
    rng = np.random.default_rng(seed)
    lda = LinearTransform(
        matrix=rng.standard_normal((2, 396)) * 0.05,
        mean_offset=rng.standard_normal(396) * 0.01,
    )
    q, _ = np.linalg.qr(rng.standard_normal((14, 2)))
    pca = LinearTransform(matrix=q.T, mean_offset=rng.standard_normal(14) * 0.01)
    counts = Gmm(
        weights=np.array([0.4, 0.3, 0.3]),
        means=np.array([[0.0, 0.0], [2.0, 1.0], [-1.5, 2.0]]),
        variances=np.full((3, 2), 0.8),
    )
    supervec = Gmm(
        weights=np.array([0.5, 0.5]),
        means=np.array([[0.5, -0.5], [-1.0, 1.0]]),
        variances=np.full((2, 2), 1.2),
    )
    # the unused draws keep every value at the one the hand-stepped trace
    # (which needs both classes to occur) was built with
    rng.standard_normal(2 * 36)
    weight = rng.standard_normal((4, 3)) * 0.1
    rng.standard_normal(3 * 2)
    # positive biases keep every segment's embedding nonzero
    bias = np.abs(rng.standard_normal(3)) * 0.3 + 0.2
    return SadModel(
        feature_cfg=FeatureConfig(),
        sample_rate=8000,
        lda=lda,
        pca=pca,
        counts_ubm=counts,
        supervector_ubm=supervec,
        embedding_weight=weight,
        embedding_bias=bias,
        speech_counts=np.array([0.2, 0.6, 0.2]),
        nonspeech_counts=np.array([0.6, 0.1, 0.3]),
        speech_embedding=np.array([1.0, 0.2, 0.1]),
        nonspeech_embedding=np.array([0.1, 0.9, 0.8]),
        base_threshold=base_threshold,
    )


def default_size_model(seed=0):
    """Random model with the default trainer's dimensions: projections and
    products as large as the shipped model's, built without training."""
    rng = np.random.default_rng(seed)

    def ubm(n_components):
        return Gmm(rng.dirichlet(np.ones(n_components)), rng.standard_normal((n_components, 24)),
                   rng.uniform(0.5, 2.0, (n_components, 24)))

    q, _ = np.linalg.qr(rng.standard_normal((84, 24)))
    return SadModel(
        feature_cfg=FeatureConfig(),
        sample_rate=8000,
        lda=LinearTransform(rng.standard_normal((12, 396)) * 0.1, rng.standard_normal(396)),
        pca=LinearTransform(q.T, rng.standard_normal(84)),
        counts_ubm=ubm(128),
        supervector_ubm=ubm(32),
        embedding_weight=rng.standard_normal((768, 256)) * np.sqrt(2.0 / 768),
        embedding_bias=np.abs(rng.standard_normal(256)) * 0.1,
        speech_counts=rng.dirichlet(np.ones(128)),
        nonspeech_counts=rng.dirichlet(np.ones(128)),
        speech_embedding=np.abs(rng.standard_normal(256)),
        nonspeech_embedding=np.abs(rng.standard_normal(256)),
    )


def decide_one(frames, model, state, cfg, index=0):
    """Score, decide and adapt one segment: the scorer's block of S = 1."""
    return score_segments(frames[np.newaxis], model, state, cfg, first_index=index)[0]


def cos_oracle(a, b):
    num = sum(x * y for x, y in zip(a, b))
    den = math.sqrt(sum(x * x for x in a)) * math.sqrt(sum(y * y for y in b))
    return max(-1.0, min(1.0, num / den))


def cosine(a, b):
    """The scorer's cosine of two vectors, from their dot product and norms."""
    return _cosine(np.dot(a, b), float(np.linalg.norm(a)), float(np.linalg.norm(b)))


def embedding_scores(embedding, speech, nonspeech):
    """emb_score of one segment under a model whose embedding layer maps
    every supervector to embedding (zero weight, bias = embedding)."""
    model = dataclasses.replace(
        mini_model(), embedding_weight=np.zeros((4, len(embedding))), embedding_bias=np.asarray(embedding),
        speech_embedding=np.asarray(speech), nonspeech_embedding=np.asarray(nonspeech),
    )
    cfg = AdaptationConfig()
    frames = np.random.default_rng(2).standard_normal((10, 2))
    return decide_one(frames, model, AdaptState(model, cfg), cfg).emb_score


class TestScoring:
    def test_cosine_basics(self):
        assert cosine(np.array([1.0, 0.0]), np.array([2.0, 0.0])) == 1.0
        assert cosine(np.array([1.0, 0.0]), np.array([-3.0, 0.0])) == -1.0
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 5.0])) == 0.0
        # a vector with no direction gives no evidence either way
        assert cosine(np.zeros(2), np.ones(2)) == 0.0
        assert cosine(np.ones(2), np.zeros(2)) == 0.0
        assert cosine(np.zeros(2), np.zeros(2)) == 0.0
        assert embedding_scores(np.zeros(2), [1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_cosine_stays_inside_unit_interval(self):
        # parallel vectors can push the raw ratio past 1 ulp-wise; the
        # result must never leave [-1, 1] whatever the scale
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.standard_normal(300) * 10.0 ** rng.integers(-150, 150)
            c = cosine(a, a * 7.0)
            assert -1.0 <= c <= 1.0
            assert c == pytest.approx(1.0, abs=1e-12)
            assert -1.0 <= cosine(a, -3.0 * a) <= 1.0

    def test_zero_embedding_scores_zero(self):
        # a dead embedding layer zeroes the embedding view's score; the
        # count view and the decision are made as usual
        from dataclasses import replace

        live = mini_model()
        dead = replace(live, embedding_weight=np.zeros((4, 3)), embedding_bias=np.full(3, -1.0))
        cfg = AdaptationConfig()
        frames = np.random.default_rng(1).standard_normal((10, 2))
        d = decide_one(frames, dead, AdaptState(dead, cfg), cfg)
        want = decide_one(frames, live, AdaptState(live, cfg), cfg)
        assert d.emb_score == 0.0
        assert d.zero_score == want.zero_score
        assert d.fused_score == d.zero_score / 2.0
        assert d.label == (SPEECH if d.fused_score > d.threshold else NONSPEECH)

    def test_score_extremes(self):
        sp = np.array([1.0, 0.0])
        nsp = np.array([0.0, 1.0])
        assert embedding_scores(sp, sp, nsp) == 1.0
        assert embedding_scores(nsp, sp, nsp) == -1.0
        assert embedding_scores(sp, sp, -sp) == 2.0
        assert embedding_scores(sp, -sp, sp) == -2.0

    def test_score_matches_plain_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            # a non-negative embedding, as the ReLU layer makes
            t, s, n = np.abs(rng.standard_normal(5)), *rng.standard_normal((2, 5))
            want = cos_oracle(t, s) - cos_oracle(t, n)
            assert embedding_scores(t, s, n) == pytest.approx(want, abs=1e-12)


class TestAdaptation:
    def test_empty_buffers_return_model_values(self):
        model = mini_model()
        cfg = AdaptationConfig()
        state = adapt(AdaptState(model, cfg), model, cfg)
        np.testing.assert_array_equal(state.adapted_speech_counts, model.speech_counts)
        np.testing.assert_array_equal(state.adapted_nonspeech_counts, model.nonspeech_counts)
        assert state.adapted_threshold == model.base_threshold

    def test_zero_weights_pin_to_model(self):
        model = mini_model()
        cfg = AdaptationConfig(model_adaptation=0.0, threshold_adaptation=0.0)
        state = AdaptState(model, cfg)
        state.speech_buffer.append(np.array([0.9, 0.05, 0.05]))
        state.speech_scores.append(1.5)
        adapt(state, model, cfg)
        np.testing.assert_array_equal(state.adapted_speech_counts, model.speech_counts)
        assert state.adapted_threshold == model.base_threshold

    def test_full_weight_single_vector_returns_buffer(self):
        model = mini_model()
        cfg = AdaptationConfig(model_adaptation=1.0)
        state = AdaptState(model, cfg)
        vec = np.array([0.7, 0.2, 0.1])
        state.speech_buffer.append(vec)
        adapt(state, model, cfg)
        np.testing.assert_array_equal(state.adapted_speech_counts, vec)

    def test_interpolation_formula(self):
        model = mini_model(base_threshold=0.25)
        cfg = AdaptationConfig(model_adaptation=0.4, threshold_adaptation=0.1)
        state = AdaptState(model, cfg)
        state.nonspeech_buffer.append(np.array([1.0, 0.0, 0.0]))
        state.nonspeech_buffer.append(np.array([0.0, 1.0, 0.0]))
        state.speech_scores.append(0.5)
        state.speech_scores.append(0.7)
        adapt(state, model, cfg)
        want = 0.6 * model.nonspeech_counts + 0.4 * np.array([0.5, 0.5, 0.0])
        np.testing.assert_allclose(state.adapted_nonspeech_counts, want, atol=1e-15)
        assert state.adapted_threshold == pytest.approx(0.9 * 0.25 + 0.1 * 0.6, abs=1e-15)

    def test_buffers_never_exceed_capacity(self):
        model = mini_model()
        cfg = AdaptationConfig(speech_buffer_len=3, nonspeech_buffer_len=2)
        state = AdaptState(model, cfg)
        rng = np.random.default_rng(2)
        for _ in range(50):
            frames = rng.standard_normal((10, 2))
            decide_one(frames, model, state, cfg)
            assert len(state.speech_buffer) <= 3
            assert len(state.speech_scores) <= 3
            assert len(state.nonspeech_buffer) <= 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdaptationConfig(model_adaptation=1.5)
        with pytest.raises(ValueError):
            AdaptationConfig(threshold_adaptation=-0.1)
        with pytest.raises(ValueError):
            AdaptationConfig(speech_buffer_len=0)


class TestProcessSegment:
    """Processing one segment at a time, each a block of S = 1 (`decide_one`)."""

    def test_hand_stepped_twenty_segment_trace(self):
        """Replay 20 segments against a from-scratch reimplementation."""
        # threshold sits at the median fused score so both labels occur
        model = mini_model(base_threshold=-0.34)
        cfg = AdaptationConfig(
            model_adaptation=0.4,
            threshold_adaptation=0.1,
            speech_buffer_len=4,
            nonspeech_buffer_len=6,
        )
        rng = np.random.default_rng(3)
        segments = [rng.standard_normal((10, 2)) * 1.5 for _ in range(20)]

        # oracle state, plain python floats/lists all the way down
        sp_buf: list = []
        nsp_buf: list = []
        score_buf: list = []
        theta = model.base_threshold

        state = AdaptState(model, cfg)
        for index, frames in enumerate(segments):
            # oracle: counts vector from per-frame linear-domain posteriors
            gamma_sum = np.zeros(3)
            for x in frames:
                gamma_sum += naive_posteriors(
                    x, model.counts_ubm.weights, model.counts_ubm.means,
                    model.counts_ubm.variances,
                )
            counts_vec = gamma_sum / gamma_sum.sum()

            adapted_sp = (
                0.6 * model.speech_counts + 0.4 * np.mean(sp_buf, axis=0)
                if sp_buf else model.speech_counts
            )
            adapted_nsp = (
                0.6 * model.nonspeech_counts + 0.4 * np.mean(nsp_buf, axis=0)
                if nsp_buf else model.nonspeech_counts
            )
            zero_score = cos_oracle(counts_vec, adapted_sp) - cos_oracle(counts_vec, adapted_nsp)

            sv = supervector_oracle(
                frames, model.supervector_ubm.weights, model.supervector_ubm.means,
                model.supervector_ubm.variances,
            )
            emb = np.maximum(sv @ model.embedding_weight + model.embedding_bias, 0.0)
            emb_score = cos_oracle(emb, model.speech_embedding) - cos_oracle(
                emb, model.nonspeech_embedding
            )
            fused = (zero_score + emb_score) / 2.0
            want_label = SPEECH if fused > theta else NONSPEECH
            want_threshold = theta

            if want_label == SPEECH:
                sp_buf = (sp_buf + [counts_vec])[-4:]
                score_buf = (score_buf + [fused])[-4:]
            else:
                nsp_buf = (nsp_buf + [counts_vec])[-6:]
            theta = (
                0.9 * model.base_threshold + 0.1 * np.mean(score_buf)
                if score_buf else model.base_threshold
            )

            got = decide_one(frames, model, state, cfg, index=index)
            assert got.label == want_label, f"segment {index}"
            assert got.threshold == pytest.approx(want_threshold, abs=1e-12)
            assert got.zero_score == pytest.approx(zero_score, abs=1e-10)
            assert got.emb_score == pytest.approx(emb_score, abs=1e-10)
            assert got.fused_score == pytest.approx(fused, abs=1e-10)
            assert got.index == index
            assert got.start == pytest.approx(index * 0.1, abs=1e-12)
            assert got.end == pytest.approx(index * 0.1 + 0.1, abs=1e-12)

        # both classes must have occurred for this replay to mean anything
        assert sp_buf and nsp_buf

    def test_tie_goes_to_nonspeech(self):
        model = mini_model()
        cfg = AdaptationConfig()
        rng = np.random.default_rng(4)
        frames = rng.standard_normal((10, 2))
        probe = decide_one(frames, model, AdaptState(model, cfg), cfg)
        # rebuild the model with the threshold exactly at the fused score
        tied = mini_model(base_threshold=probe.fused_score)
        got = decide_one(frames, tied, AdaptState(tied, cfg), cfg)
        assert got.fused_score == got.threshold
        assert got.label == NONSPEECH

    def test_disabled_adaptation_never_mutates_state(self):
        model = mini_model()
        cfg = AdaptationConfig(enabled=False)
        state = AdaptState(model, cfg)
        rng = np.random.default_rng(5)
        for i in range(10):
            decide_one(rng.standard_normal((10, 2)), model, state, cfg, index=i)
            assert not state.speech_buffer and not state.nonspeech_buffer
            np.testing.assert_array_equal(state.adapted_speech_counts, model.speech_counts)
            assert state.adapted_threshold == model.base_threshold

    def test_off_equals_zero_weights(self):
        model = mini_model()
        rng = np.random.default_rng(6)
        segments = [rng.standard_normal((10, 2)) for _ in range(15)]
        off_cfg = AdaptationConfig(enabled=False)
        zero_cfg = AdaptationConfig(model_adaptation=0.0, threshold_adaptation=0.0)
        off_state = AdaptState(model, off_cfg)
        zero_state = AdaptState(model, zero_cfg)
        for i, frames in enumerate(segments):
            d_off = decide_one(frames, model, off_state, off_cfg, index=i)
            d_zero = decide_one(frames, model, zero_state, zero_cfg, index=i)
            assert d_off == d_zero

    def test_score_range_is_enforced(self):
        model = mini_model()
        cfg = AdaptationConfig()
        rng = np.random.default_rng(7)
        for scale in (0.01, 1.0, 100.0):
            d = decide_one(
                rng.standard_normal((10, 2)) * scale, model, AdaptState(model, cfg), cfg
            )
            assert -2.0 <= d.zero_score <= 2.0
            assert -2.0 <= d.emb_score <= 2.0
            assert -2.0 <= d.fused_score <= 2.0

    def test_input_validation(self):
        model = mini_model()
        cfg = AdaptationConfig()
        state = AdaptState(model, cfg)
        with pytest.raises(ValueError, match="empty segment"):
            score_segments(np.zeros((1, 0, 2)), model, state, cfg)
        with pytest.raises(ValueError, match=r"expected \(S, n, 2\) transformed frames"):
            score_segments(np.zeros((1, 10, 3)), model, state, cfg)
        # one segment is a block of S = 1; a bare (n, D) segment is refused
        with pytest.raises(ValueError, match=r"got shape \(10, 2\)"):
            score_segments(np.zeros((10, 2)), model, state, cfg)

    def test_segment_times_sit_on_frame_grid(self):
        model = mini_model()
        cfg = AdaptationConfig()
        state = AdaptState(model, cfg)
        rng = np.random.default_rng(8)
        prev_end = 0.0
        for i in range(7):
            d = decide_one(rng.standard_normal((10, 2)), model, state, cfg, index=i)
            assert d.start == prev_end  # bit-identical, not just close
            prev_end = d.end


class TestMergeAndSmooth:
    def d(self, index, label):
        return Decision(
            index=index, start=index * 0.1, end=(index + 1) * 0.1, label=label,
            zero_score=0.0, emb_score=0.0, fused_score=0.0, threshold=0.0,
        )

    def test_run_length_merge(self):
        decisions = [self.d(0, SPEECH), self.d(1, SPEECH), self.d(2, NONSPEECH), self.d(3, SPEECH)]
        segments = merge_decisions(decisions)
        assert [(s.start, s.end, s.label) for s in segments] == [
            (0.0, 0.2, SPEECH),
            (0.2, pytest.approx(0.3), NONSPEECH),
            (pytest.approx(0.3), 0.4, SPEECH),
        ]

    def test_tail_extends_last_segment(self):
        segments = merge_decisions([self.d(0, SPEECH)], tail_extra=0.04)
        assert len(segments) == 1
        assert segments[0].end == pytest.approx(0.14)

    def test_no_decisions_yields_nonspeech_span(self):
        segments = merge_decisions([], tail_extra=0.07)
        assert segments == [SegmentLabel(0.0, 0.07, NONSPEECH)]
        assert merge_decisions([]) == []

    def seg(self, start, end, label):
        return SegmentLabel(start, end, label)

    def test_short_gap_filled(self):
        segments = [
            self.seg(0.0, 1.0, SPEECH),
            self.seg(1.0, 1.2, NONSPEECH),
            self.seg(1.2, 2.0, SPEECH),
        ]
        out = smooth_segments(segments, SmoothingConfig(min_gap=0.3, min_speech=0.2))
        assert out == [self.seg(0.0, 2.0, SPEECH)]

    def test_edge_gaps_never_filled(self):
        segments = [
            self.seg(0.0, 0.1, NONSPEECH),
            self.seg(0.1, 1.0, SPEECH),
            self.seg(1.0, 1.1, NONSPEECH),
        ]
        out = smooth_segments(segments, SmoothingConfig(min_gap=0.3, min_speech=0.2))
        assert out == segments

    def test_short_speech_deleted(self):
        segments = [
            self.seg(0.0, 1.0, NONSPEECH),
            self.seg(1.0, 1.1, SPEECH),
            self.seg(1.1, 2.0, NONSPEECH),
        ]
        out = smooth_segments(segments, SmoothingConfig(min_gap=0.3, min_speech=0.2))
        assert out == [self.seg(0.0, 2.0, NONSPEECH)]

    def test_gap_fill_runs_before_deletion(self):
        # two 0.15 s speech runs separated by a 0.1 s gap: the gap is filled
        # first, so the combined 0.4 s run survives the min_speech pass
        segments = [
            self.seg(0.0, 0.15, SPEECH),
            self.seg(0.15, 0.25, NONSPEECH),
            self.seg(0.25, 0.4, SPEECH),
        ]
        out = smooth_segments(segments, SmoothingConfig(min_gap=0.3, min_speech=0.2))
        assert out == [self.seg(0.0, 0.4, SPEECH)]

    def test_disabled_smoothing_is_identity(self):
        # zero durations, what --no-smoothing sets, leave merged segments as they are
        segments = [
            self.seg(0.0, 0.1, SPEECH),
            self.seg(0.1, 0.2, NONSPEECH),
            self.seg(0.2, 0.3, SPEECH),
        ]
        out = smooth_segments(segments, SmoothingConfig(min_gap=0.0, min_speech=0.0))
        assert out == segments

    def test_config_validation(self):
        for bad in (-0.1, float("nan")):
            with pytest.raises(ValueError, match="non-negative"):
                SmoothingConfig(min_gap=bad)
            with pytest.raises(ValueError, match="non-negative"):
                SmoothingConfig(min_speech=bad)
        assert SmoothingConfig(min_gap=0.0, min_speech=0.0).min_gap == 0.0

    def test_exact_threshold_durations_survive(self):
        # a gap of exactly min_gap is not "shorter than", so it stays
        segments = [
            self.seg(0.0, 1.0, SPEECH),
            self.seg(1.0, 1.3, NONSPEECH),
            self.seg(1.3, 2.0, SPEECH),
        ]
        out = smooth_segments(segments, SmoothingConfig(min_gap=0.3, min_speech=0.2))
        assert out == segments


class TestStreamingDetector:
    def test_chunking_is_bit_identical(self, tiny_corpus, tiny_model):
        wav = tiny_corpus["entries"][4][0]
        audio = read_wav(wav)
        base = StreamingDetector(tiny_model)
        base.push(audio.samples)
        base.flush()
        ref = format_trace(base.decisions)
        rng = np.random.default_rng(9)
        for _ in range(4):
            det = StreamingDetector(tiny_model)
            cuts = np.sort(rng.choice(np.arange(1, len(audio.samples)), 10, replace=False))
            for chunk in np.split(audio.samples, cuts):
                det.push(chunk)
            det.flush()
            assert format_trace(det.decisions) == ref

    def test_decision_cadence(self, tiny_corpus, tiny_model):
        audio = read_wav(tiny_corpus["entries"][4][0])
        result = stream_detect(audio, tiny_model)
        n_frames = (len(audio.samples) - 200) // 80 + 1
        want_full = n_frames // SEGMENT_FRAMES
        tail = n_frames % SEGMENT_FRAMES
        want = want_full + (1 if tail >= 5 else 0)
        assert len(result.decisions) == want
        for i, d in enumerate(result.decisions):
            assert d.index == i
            assert d.start == pytest.approx(i * 0.1, abs=1e-12)

    def test_dead_embedding_layer_keeps_the_tiling(self, tiny_corpus, tiny_model):
        # every embedding is zero: each 0.1 s still gets its decision, with
        # the embedding view scoring 0, for a whole push and 0.1 s pushes
        from dataclasses import replace

        dead = replace(tiny_model, embedding_bias=tiny_model.embedding_bias - 1e6)
        audio = read_wav(tiny_corpus["entries"][4][0])
        n_frames = (len(audio.samples) - 200) // 80 + 1
        want = n_frames // SEGMENT_FRAMES + (1 if n_frames % SEGMENT_FRAMES >= 5 else 0)
        whole = stream_detect(audio, dead)
        chunked = StreamingDetector(dead)
        for i in range(0, len(audio.samples), 800):
            chunked.push(audio.samples[i : i + 800])
        chunked.flush()
        assert [d.index for d in whole.decisions] == list(range(want))
        assert all(d.emb_score == 0.0 for d in whole.decisions)
        assert format_trace(chunked.decisions) == format_trace(whole.decisions)
        assert chunked.segments() == whole.segments
        assert whole.segments[-1].end == pytest.approx(audio.duration, abs=0.03)

    def test_segments_partition_the_timeline(self, tiny_corpus, tiny_model):
        audio = read_wav(tiny_corpus["entries"][5][0])
        result = stream_detect(audio, tiny_model)
        assert result.segments[0].start == 0.0
        for a, b in zip(result.segments, result.segments[1:]):
            assert a.end == b.start
            assert a.label != b.label

    def test_short_tail_inherits_previous_label(self, tiny_model):
        # 8440 samples: 104 frames = 10 segments + 4 leftover (< 5 min tail)
        rng = np.random.default_rng(10)
        audio = AudioStream(8000, rng.uniform(-0.3, 0.3, 8440))
        result = stream_detect(audio, tiny_model)
        assert len(result.decisions) == 10
        assert result.segments[-1].end == pytest.approx(1.04, abs=1e-9)

    def test_long_tail_gets_own_decision(self, tiny_model):
        # 8680 samples: 107 frames = 10 segments + 7-frame tail (>= 5)
        rng = np.random.default_rng(11)
        audio = AudioStream(8000, rng.uniform(-0.3, 0.3, 8680))
        result = stream_detect(audio, tiny_model)
        assert len(result.decisions) == 11
        assert result.decisions[-1].end == pytest.approx(1.07, abs=1e-9)

    def test_too_short_audio_raises(self, tiny_model):
        with pytest.raises(ValueError, match="shorter than one analysis window"):
            stream_detect(AudioStream(8000, np.zeros(100)), tiny_model)

    def test_sample_rate_mismatch(self, tiny_model):
        with pytest.raises(ValueError, match="sample rate mismatch"):
            stream_detect(AudioStream(16000, np.zeros(16000)), tiny_model)

    def test_push_after_flush(self, tiny_model):
        det = StreamingDetector(tiny_model)
        det.push(np.zeros(8000))
        det.flush()
        with pytest.raises(RuntimeError, match="push after flush"):
            det.push(np.zeros(100))
        with pytest.raises(RuntimeError, match="before flush"):
            StreamingDetector(tiny_model).segments()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_chunk_is_rejected_and_stream_continues(self, tiny_corpus, tiny_model, bad):
        samples = read_wav(tiny_corpus["entries"][4][0]).samples
        first, rest = samples[:8000], samples[8800:12800]  # 1 s, then 0.5 s after the bad chunk
        chunk = samples[8000:8800].copy()
        chunk[400] = bad
        det = StreamingDetector(tiny_model)
        det.push(first)
        with pytest.raises(ValueError, match="NaN or Inf"):
            det.push(chunk)
        det.push(rest)
        det.flush()
        ref = StreamingDetector(tiny_model)
        ref.push(first)
        ref.push(rest)
        ref.flush()
        assert len(det.decisions) == 15
        assert format_trace(det.decisions) == format_trace(ref.decisions)

    @pytest.mark.parametrize(
        "bad,named",
        [(np.zeros((1, 800)), "1-D real numbers"), (np.zeros((2, 800)), "1-D real numbers"),
         (np.zeros((800, 2)), "1-D real numbers"), (0.5, "1-D real numbers"),
         (np.zeros(800, dtype=np.complex128), "1-D real numbers"),
         # finite, but its spectrum would overflow and leave NaN in the 1 s CMN window
         (np.where(np.arange(800) == 400, 1e308, 0.0), "NaN or Inf")],
        ids=["(1, 800)", "(2, 800)", "(800, 2)", "0-d", "complex", "huge"],
    )
    @pytest.mark.parametrize("fed", [0, 8000], ids=["fresh", "fed"])
    def test_bad_push_is_rejected_and_stream_continues(self, tiny_corpus, tiny_model, bad, named, fed):
        samples = read_wav(tiny_corpus["entries"][4][0]).samples[:20000]
        det, ref = StreamingDetector(tiny_model), StreamingDetector(tiny_model)
        for d in (det, ref):
            d.push(samples[:fed])
        with pytest.raises(ValueError, match=named):
            det.push(bad)
        for d in (det, ref):
            for pos in range(fed, len(samples), 800):
                d.push(samples[pos : pos + 800])
            d.flush()
        assert len(det.decisions) == 25
        assert format_trace(det.decisions) == format_trace(ref.decisions)

    @pytest.mark.parametrize("layout", ["every other", "reversed", "float32", "int16", "list"])
    def test_any_sample_layout_gives_its_float64_copy_trace(self, tiny_corpus, tiny_model, layout):
        # the framing and window views read the caller's memory, whatever its strides or dtype
        base = read_wav(tiny_corpus["entries"][5][0]).samples
        samples = {
            "every other": base[::2],
            "reversed": base[::-1],
            "float32": base.astype(np.float32),
            "int16": (base * 32767.0).astype(np.int16),
            "list": base.tolist(),
        }[layout]
        copy = np.array(samples, dtype=np.float64)
        for size in (len(copy), 800):
            det, ref = StreamingDetector(tiny_model), StreamingDetector(tiny_model)
            for pos in range(0, len(copy), size):
                det.push(samples[pos : pos + size])
                ref.push(copy[pos : pos + size])
            det.flush()
            ref.flush()
            assert len(ref.decisions) >= 39
            assert format_trace(det.decisions) == format_trace(ref.decisions)

    def test_steady_push_call_budget(self, tiny_corpus, tiny_model):
        """At most 300 Python-level and C calls per steady-state 0.1 s push.

        Counts sys.setprofile "call" and "c_call" events over 100 pushes after
        5 s of audio. Measured with numpy 2.4.6: 176 per push, with this
        model. The count does not depend on timing, so it guards the live
        path's fixed cost (scoring tables built once per model, a
        counts-only pass for the counts UBM, one kernel call per stage) where
        timings are noise.
        """
        samples = np.concatenate([read_wav(tiny_corpus["entries"][i][0]).samples for i in (4, 5)])
        det = StreamingDetector(tiny_model)
        det.push(samples[:40000])
        events = {"call": 0, "c_call": 0}

        def count(frame, event, arg):
            if event in events:
                events[event] += 1

        sys.setprofile(count)
        try:
            for pos in range(40000, 120000, 800):
                det.push(samples[pos : pos + 800])
        finally:
            sys.setprofile(None)
        assert len(det.decisions) == 147
        assert (events["call"] + events["c_call"]) / 100 <= 300, events

    @staticmethod
    def fail_at(monkeypatch, bad_index):
        """Make the block scorer raise at segment bad_index, after scoring those before it."""
        import streamsad.engine as engine

        original = engine.score_segments

        def failing(segments, model, state, cfg, first_index=0, out=None):
            stop = bad_index - first_index
            if 0 <= stop < len(segments):
                original(segments[:stop], model, state, cfg, first_index, out)
                raise RuntimeError("scoring failed")
            return original(segments, model, state, cfg, first_index, out)

        monkeypatch.setattr(engine, "score_segments", failing)

    def test_raising_segment_does_not_stall_later_ones(self, tiny_corpus, tiny_model, monkeypatch):
        self.fail_at(monkeypatch, 3)
        samples = read_wav(tiny_corpus["entries"][4][0]).samples
        det = StreamingDetector(tiny_model)
        raised = 0
        for i in range(0, 16000, 800):
            try:
                det.push(samples[i : i + 800])
            except RuntimeError:
                raised += 1
            assert len(det.pending) < SEGMENT_FRAMES
        assert raised == 1
        assert [d.index for d in det.decisions] == [i for i in range(len(det.decisions) + 1) if i != 3]

    def test_raising_segment_inside_a_block(self, tiny_corpus, tiny_model, monkeypatch):
        self.fail_at(monkeypatch, 3)
        samples = read_wav(tiny_corpus["entries"][4][0]).samples
        det = StreamingDetector(tiny_model)
        with pytest.raises(RuntimeError, match="scoring failed"):
            det.push(samples[:16000])  # 2 s: 17 whole segments in one block
        # the decisions before it stand and the raising segment took its index
        assert [d.index for d in det.decisions] == [0, 1, 2]
        assert det.n_segments == 4
        # the 13 segments after it went back to pending, for the next push
        assert len(det.pending) // SEGMENT_FRAMES == 13
        new = det.push(samples[16000:24000])
        assert [d.index for d in new[:13]] == list(range(4, 17))
        det.flush()
        indices = [d.index for d in det.decisions]
        assert indices == [i for i in range(len(indices) + 1) if i != 3]
        # and the trace equals 0.1 s pushes that meet the same failure
        ref = StreamingDetector(tiny_model)
        for i in range(0, 24000, 800):
            try:
                ref.push(samples[i : i + 800])
            except RuntimeError:
                pass
        ref.flush()
        assert format_trace(det.decisions) == format_trace(ref.decisions)

    def test_raising_segment_inside_a_push_longer_than_a_block(self, tiny_corpus, tiny_model, monkeypatch):
        # the push stops in the block where the segment raised: the decisions
        # before it stand, and the rest of that block's segments and the
        # samples of the blocks not yet cut wait for the next push
        self.fail_at(monkeypatch, 3)
        samples = np.concatenate([read_wav(tiny_corpus["entries"][i][0]).samples for i in (4, 5)])
        det = StreamingDetector(tiny_model)
        with pytest.raises(RuntimeError, match="scoring failed"):
            det.push(samples[:96000])  # 12 s: 1197 frames, 3 front-end blocks
        assert [d.index for d in det.decisions] == [0, 1, 2]
        det.push(samples[96000:120000])
        det.flush()
        assert [d.index for d in det.decisions] == [i for i in range(150) if i != 3]
        ref = StreamingDetector(tiny_model)
        for i in range(0, 120000, 800):
            try:
                ref.push(samples[i : i + 800])
            except RuntimeError:
                pass
        ref.flush()
        assert format_trace(det.decisions) == format_trace(ref.decisions)

    def test_every_kernel_call_is_at_most_one_block(self, tiny_corpus, tiny_model, monkeypatch):
        # a CausalWindow runs its kernel once per push, however many frames
        # it readies; its callers keep each call to a block: the front end
        # cuts a push into BLOCK_FRAMES runs of analysis windows, and each
        # run goes through every stage and the scorer before the next is cut
        import streamsad.engine as engine

        samples = np.concatenate([read_wav(tiny_corpus["entries"][i][0]).samples for i in range(3)])
        det, rows, segments = StreamingDetector(tiny_model), [], []
        statics = det.extractor.static.compute_block
        det.extractor.static.compute_block = lambda windows: rows.append(len(windows)) or statics(windows)
        for stage in det.extractor.stages + det.cascade:
            def counted(context, start, kernel=stage.kernel, span=stage.lookback + stage.lookahead):
                rows.append(len(context) - span)
                return kernel(context, start)

            stage.kernel = counted
        scorer = engine.score_segments
        monkeypatch.setattr(engine, "score_segments", lambda block, *args: segments.append(len(block))
                            or scorer(block, *args))
        pos = 0
        for size in (1, 800, 40000, 100000):
            det.push(samples[pos : pos + size])
            pos += size
        det.flush()
        assert max(rows) == BLOCK_FRAMES
        assert max(segments) == BLOCK_FRAMES // SEGMENT_FRAMES
        ref = StreamingDetector(tiny_model)
        for i in range(0, pos, 800):
            ref.push(samples[i : min(i + 800, pos)])
        ref.flush()
        assert format_trace(det.decisions) == format_trace(ref.decisions)

    def test_push_memory_does_not_grow_with_the_push(self):
        # a 600 s push holds about what 5 s pushes of the same audio do: the
        # front end casts and joins each block's samples as it cuts the block.
        # Joining the whole push first traced 44.5 MB here, and holding every
        # stage's output for the whole push as well 52.2 MB.
        import tracemalloc

        model = default_size_model()
        samples = np.random.default_rng(5).uniform(-0.5, 0.5, 600 * model.sample_rate)
        peaks = []
        for size in (len(samples), 5 * model.sample_rate):
            det = StreamingDetector(model)
            tracemalloc.start()
            try:
                for pos in range(0, len(samples), size):
                    det.push(samples[pos : pos + size])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 1.5 * peaks[1], f"peak {peaks[0]} B in one push, {peaks[1]} B in 5 s pushes"

    def test_import_does_not_load_scipy(self):
        import streamsad

        code = (
            "import sys, streamsad.engine; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        src = str(Path(streamsad.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "[]"

    def test_traces_equal_under_one_and_two_blas_threads(self, tiny_corpus, tmp_path):
        # each BLAS call computes a row or a segment whole, so splitting the
        # calls over threads must not move a bit; a default-size model makes
        # the embedding's products large enough for OpenBLAS to split
        import streamsad

        save_model(default_size_model(), tmp_path / "m.sadb")
        code = (
            "import sys\n"
            "from streamsad.audio_io import read_wav\n"
            "from streamsad.engine import StreamingDetector, format_trace, load_model\n"
            "model, samples = load_model(sys.argv[1]), read_wav(sys.argv[2]).samples\n"
            "for size in (len(samples), 800, 3777):\n"
            "    det = StreamingDetector(model)\n"
            "    for pos in range(0, len(samples), size):\n"
            "        det.push(samples[pos : pos + size])\n"
            "    det.flush()\n"
            "    print(format_trace(det.decisions))\n"
        )
        src = str(Path(streamsad.__file__).resolve().parents[1])
        traces = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            out = subprocess.run(
                [sys.executable, "-c", code, str(tmp_path / "m.sadb"), str(tiny_corpus["entries"][4][0])],
                env=env, capture_output=True, text=True, check=True,
            )
            traces += out.stdout.split("\n\n")[:3]
        assert traces[0].count("\n") == 80
        assert len(set(traces)) == 1

    def test_training_runs_without_scipy(self, tiny_corpus, tiny_model, tmp_path):
        # scipy made unimportable: training the tiny config still works and
        # writes the bundle of the tiny_model fixture
        import streamsad
        from conftest import TINY

        entries = [(str(wav), str(lab)) for wav, lab in tiny_corpus["entries"][:4]]
        code = (
            "import sys; sys.modules['scipy'] = None\n"
            "from streamsad.trainer import TrainConfig, train\n"
            f"cfg = TrainConfig(entries={entries!r}, seed=99, **{TINY!r})\n"
            f"train(cfg, out_path={str(tmp_path / 'm.sadb')!r})\n"
        )
        src = str(Path(streamsad.__file__).resolve().parents[1])
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        save_model(tiny_model, tmp_path / "want.sadb")
        assert (tmp_path / "m.sadb").read_bytes() == (tmp_path / "want.sadb").read_bytes()

    def test_raising_threshold_reduces_speech(self, tiny_corpus, tiny_model):
        from dataclasses import replace

        audio = read_wav(tiny_corpus["entries"][4][0])
        speech_time = []
        for threshold in (-0.5, 0.0, 0.5):
            model = replace(tiny_model, base_threshold=threshold)
            result = stream_detect(audio, model, AdaptationConfig(enabled=False))
            speech_time.append(
                sum(s.duration for s in result.segments if s.label == SPEECH)
            )
        assert speech_time[0] >= speech_time[1] >= speech_time[2]
        assert speech_time[0] > speech_time[2]

    def test_trace_format(self, tiny_model):
        rng = np.random.default_rng(12)
        audio = AudioStream(8000, rng.uniform(-0.3, 0.3, 8000))
        result = stream_detect(audio, tiny_model)
        text = format_trace(result.decisions)
        lines = text.strip().split("\n")
        assert lines[0] == TRACE_HEADER
        assert len(lines) == len(result.decisions) + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[1] == "0.000"
        assert first[7] in (SPEECH, NONSPEECH)
        # scores round-trip through the printed representation
        assert float(first[5]) == result.decisions[0].fused_score


def same_bits(a, b) -> bool:
    """Field-by-field equality of two models, every array compared bit for bit."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same_bits(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same_bits, a, b))
    return type(a) is type(b) and a == b


def reframe(raw: bytes, edit) -> bytes:
    """A bundle with its JSON header replaced by edit(header), under a valid CRC."""
    version, header_len = struct.unpack_from("<II", raw, 4)
    header = json.dumps(edit(json.loads(raw[12 : 12 + header_len]))).encode()
    body = raw[:4] + struct.pack("<II", version, len(header)) + header + raw[12 + header_len : -4]
    return body + struct.pack("<I", zlib.crc32(body))


def stream_of(raw: bytes) -> bytes:
    """The zlib stream of a v4 bundle: every byte between its header and its CRC."""
    header_len, = struct.unpack_from("<I", raw, 8)
    return raw[12 + header_len : -4]


def with_stream(raw: bytes, stream: bytes) -> bytes:
    """The bundle with its zlib stream replaced by stream, under a valid CRC."""
    header_len, = struct.unpack_from("<I", raw, 8)
    body = raw[: 12 + header_len] + stream
    return body + struct.pack("<I", zlib.crc32(body))


def array_spans(raw: bytes) -> dict:
    """Each array of a v4 bundle by name, placed as the documented layout
    places it: (offset of its planes in the inflated stream, its element
    count, its stored dtype)."""
    header_len, = struct.unpack_from("<I", raw, 8)
    offset, spans = 0, {}
    for name, shape, tag in json.loads(raw[12 : 12 + header_len])["arrays"]:
        spans[name] = (offset, math.prod(shape), np.dtype(tag))
        offset += np.dtype(tag).itemsize * math.prod(shape)
    return spans


def patch(raw: bytes, at: int, data: bytes) -> bytes:
    """The bundle with data written at file offset at, under a valid CRC."""
    body = raw[:at] + data + raw[at + len(data) : -4]
    return body + struct.pack("<I", zlib.crc32(body))


def patch_first_entry(raw: bytes, name: str, value: float) -> bytes:
    """A v4 bundle with the first entry of array name set to value, in its
    stored dtype: the stream is inflated, patched in each byte plane,
    deflated again and put under a new CRC."""
    start, count, dtype = array_spans(raw)[name]
    planes = bytearray(zlib.decompress(stream_of(raw)))
    planes[start : start + count * dtype.itemsize : count] = np.array([value], dtype).tobytes()
    return with_stream(raw, zlib.compress(bytes(planes)))


def as_version_3(raw: bytes) -> bytes:
    """The arrays of a v4 bundle in the version 3 layout: each array's raw
    values after the header, on an 8-byte boundary after zero padding."""
    header_len, = struct.unpack_from("<I", raw, 8)
    planes, parts, offset = zlib.decompress(stream_of(raw)), [], 0
    for start, count, dtype in array_spans(raw).values():
        values = np.frombuffer(planes, np.uint8, count * dtype.itemsize, start).reshape(-1, count).T.tobytes()
        parts += [bytes(-offset % 8), values]
        offset += -offset % 8 + len(values)
    body = raw[:4] + struct.pack("<I", 3) + raw[8 : 12 + header_len] + b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body))


def _with_shape(name, shape):
    return lambda h: {**h, "arrays": [[n, shape if n == name else s, t] for n, s, t in h["arrays"]]}


def _with_tag(name, tag, extend=0):
    """Header edit: array name tagged tag, its shape (1-D) stretched to
    fill its old bytes at the new width plus extend values."""
    def edit(h):
        arrays = []
        for n, shape, old in h["arrays"]:
            if n == name:
                shape = [np.dtype(old).itemsize * math.prod(shape) // np.dtype(tag).itemsize + extend]
                old = tag
            arrays.append([n, shape, old])
        return {**h, "arrays": arrays}
    return edit


def _with_feature(name, value):
    return lambda h: {**h, "feature_cfg": {**h["feature_cfg"], name: value}}


@pytest.fixture(scope="module")
def tiny_bundle(tiny_model, tmp_path_factory):
    path = tmp_path_factory.mktemp("bundle") / "model.sadb"
    save_model(tiny_model, path)
    return path.read_bytes()


def odd_width_model(model):
    """The model with its embedding cut to 7 units: an odd count of 4-byte
    values, which the version 3 layout padded to an 8-byte boundary."""
    width = 7
    return dataclasses.replace(
        model, embedding_weight=model.embedding_weight[:, :width], embedding_bias=model.embedding_bias[:width],
        speech_embedding=model.speech_embedding[:width], nonspeech_embedding=model.nonspeech_embedding[:width])


class TestModelBundle:
    def test_round_trip_is_bit_exact(self, tiny_model, tmp_path):
        path = tmp_path / "model.sadb"
        save_model(tiny_model, path)
        assert same_bits(load_model(path), tiny_model)

    def test_bundle_holds_only_what_detection_reads(self, tiny_bundle):
        header_len, = struct.unpack_from("<I", tiny_bundle, 8)
        header = json.loads(tiny_bundle[12 : 12 + header_len])
        assert sorted(header) == ["arrays", "base_threshold", "feature_cfg", "lda_context", "pca_context",
                                  "sample_rate"]
        assert header["lda_context"] == list(LDA_CONTEXT.offsets)
        assert header["pca_context"] == list(PCA_CONTEXT.offsets)
        names = [name for name, _, _ in header["arrays"]]
        assert [n for n in names if n.startswith("embedding.")] == ["embedding.0.weight", "embedding.0.bias"]
        assert not [n for n in names if "labeling" in n]
        # the trained embedding layer is float32 upcast, so it is stored at 4
        # bytes per value; every other array needs 8, and the stream inflates
        # to those values and nothing else
        sizes = {name: math.prod(shape) for name, shape, _ in header["arrays"]}
        assert {name: tag for name, _, tag in header["arrays"]} == {
            name: "<f4" if name.startswith("embedding.") else "<f8" for name in names}
        narrow = sizes["embedding.0.weight"] + sizes["embedding.0.bias"]
        stream = stream_of(tiny_bundle)
        assert len(tiny_bundle) == 12 + header_len + len(stream) + 4
        assert len(zlib.decompress(stream)) == 4 * narrow + 8 * (sum(sizes.values()) - narrow)

    def test_trained_bundle_is_smaller_than_8_bytes_per_value(self, tiny_bundle):
        header_len, = struct.unpack_from("<I", tiny_bundle, 8)
        n_values = sum(math.prod(shape) for _, shape, _ in json.loads(tiny_bundle[12 : 12 + header_len])["arrays"])
        assert len(tiny_bundle) < 8 * n_values

    def test_hand_built_model_round_trips_as_float64(self, tmp_path):
        # its arrays do not survive a float32 round trip, so each keeps 8 bytes
        model, path = default_size_model(), tmp_path / "model.sadb"
        save_model(model, path)
        raw = path.read_bytes()
        header_len, = struct.unpack_from("<I", raw, 8)
        entries = json.loads(raw[12 : 12 + header_len])["arrays"]
        assert {tag for _, _, tag in entries} == {"<f8"}
        assert len(zlib.decompress(stream_of(raw))) == 8 * sum(math.prod(shape) for _, shape, _ in entries)
        assert same_bits(load_model(path), model)

    def test_loaded_arrays_are_float64_and_read_only(self, tiny_bundle, tmp_path):
        path = tmp_path / "model.sadb"
        path.write_bytes(tiny_bundle)
        arrays = _bundle_arrays(load_model(path))
        assert len(arrays) == 16
        for name, array in arrays.items():
            assert array.dtype == np.float64 and not array.flags.writeable, name

    def test_loaded_arrays_start_on_a_cache_line_in_buffers_of_their_own(self, tiny_bundle, tmp_path):
        # numpy runs products of unaligned float64 arrays by another route,
        # and a one-segment embedding product is slower off a cache line
        path = tmp_path / "model.sadb"
        path.write_bytes(tiny_bundle)
        arrays = list(_bundle_arrays(load_model(path)).values())
        assert all(array.ctypes.data % 64 == 0 for array in arrays)
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1 :])

    def test_odd_width_bundle_round_trips(self, tiny_model, tmp_path):
        # an odd number of 4-byte values: the next array's planes follow at once
        model, path = odd_width_model(tiny_model), tmp_path / "model.sadb"
        save_model(model, path)
        raw = path.read_bytes()
        start, count, dtype = array_spans(raw)["embedding.0.bias"]
        assert (count, dtype.str) == (7, "<f4") and array_spans(raw)["speech_counts"][0] == start + 28
        assert same_bits(load_model(path), model)

    def test_loaded_model_detects_identically(self, tiny_corpus, tiny_model, tmp_path):
        path = tmp_path / "model.sadb"
        save_model(tiny_model, path)
        loaded = load_model(path)
        audio = read_wav(tiny_corpus["entries"][5][0])
        a = stream_detect(audio, tiny_model)
        b = stream_detect(audio, loaded)
        assert format_trace(a.decisions) == format_trace(b.decisions)
        assert a.segments == b.segments

    def test_load_holds_one_copy_of_the_bundle(self, tmp_path):
        # the checksum reads the file's bytes in place, and each array is
        # decoded from the inflated stream in place, so a load holds the
        # file's bytes, the stream and the arrays (here as large as the
        # stream) at once, and zlib joins its output into the stream once
        # (slicing the file as bytes held three copies of it, a 3.01x peak on
        # a default-size version 2 bundle)
        import tracemalloc

        model, path = default_size_model(), tmp_path / "model.sadb"
        save_model(model, path)
        stream_bytes = sum(array.nbytes for array in _bundle_arrays(model).values())  # all stored at 8 bytes
        tracemalloc.start()
        try:
            loaded = load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size + 2.25 * stream_bytes
        assert same_bits(loaded, model)

    def test_loaded_model_holds_only_its_arrays(self, tmp_path):
        # a narrow embedding layer, as training writes: the file's bytes and
        # the stored float32 values are let go once the float64 arrays exist
        # (a version 3 load kept the file's bytes, 0.8 MB here, alive)
        import tracemalloc

        model, path = default_size_model(), tmp_path / "m.sadb"
        weight, bias = (a.astype(np.float32).astype(np.float64) for a in (model.embedding_weight, model.embedding_bias))
        model = dataclasses.replace(model, embedding_weight=weight, embedding_bias=bias)
        save_model(model, path)
        arrays_bytes = sum(array.nbytes for array in _bundle_arrays(model).values())
        tracemalloc.start()
        try:
            loaded = load_model(path)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= arrays_bytes + 32 * 1024
        assert same_bits(loaded, model)

    def test_save_is_deterministic(self, tiny_model, tmp_path):
        p1, p2 = tmp_path / "a.sadb", tmp_path / "b.sadb"
        save_model(tiny_model, p1)
        save_model(tiny_model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corruption_errors(self, tiny_bundle, tmp_path):
        raw = tiny_bundle
        bad = tmp_path / "bad.sadb"
        bad.write_bytes(b"XXXX" + raw[4:])
        with pytest.raises(ValueError, match="not a model bundle"):
            load_model(bad)

        # version 1 to 3 bundles are refused before their layout is read
        for version in (1, 2, 3):
            bad.write_bytes(raw[:4] + struct.pack("<I", version) + raw[8:])
            with pytest.raises(ValueError, match=f"unsupported bundle version {version} "):
                load_model(bad)

        bad.write_bytes(raw[:10])
        with pytest.raises(ValueError, match="not a model bundle"):
            load_model(bad)

        bad.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ValueError, match="checksum"):
            load_model(bad)

        bad.write_bytes(raw + b"\x00")
        with pytest.raises(ValueError, match="checksum"):
            load_model(bad)

    def test_reframed_bundle_loads(self, tiny_bundle, tiny_model, tmp_path):
        # a writer of the documented layout, apart from save_model, round-trips;
        # the malformed cases below use it
        path = tmp_path / "same.sadb"
        path.write_bytes(reframe(tiny_bundle, lambda h: h))
        assert same_bits(load_model(path), tiny_model)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda h: {**h, "feature_cfg": {**h["feature_cfg"], "frame_jitter": 0.1}}, "frame_jitter"),
            (lambda h: {k: v for k, v in h.items() if k != "sample_rate"}, "sample_rate"),
            (lambda h: [h], "not a JSON object"),
            (lambda h: {**h, "base_threshold": float("nan")}, "base_threshold must be finite"),
            (_with_shape("lda.matrix", [2**40, 2**40]), "overrun"),
            (_with_shape("speech_counts", [1]), "longer than its array shapes"),
            (_with_shape("pca.mean_offset", [-8]), "bad array entry"),
            (lambda h: {**h, "arrays": h["arrays"][1:] + h["arrays"][:1]}, "malformed bundle"),
            # JSON keeps 12.0 a float: integer fields must be JSON integers
            (_with_feature("n_mfcc", 12.0), "n_mfcc must be a JSON integer, got 12.0"),
            (_with_feature("n_fft", 256.5), "n_fft must be a JSON integer, got 256.5"),
            (_with_feature("delta_window", 2.0), "delta_window must be a JSON integer"),
            (_with_feature("n_mel_filters", 23.0), "n_mel_filters must be a JSON integer"),
            (_with_feature("n_mfcc", True), "n_mfcc must be a JSON integer, got True"),
            (lambda h: {**h, "sample_rate": 8000.7}, "sample_rate must be a JSON integer, got 8000.7"),
            (lambda h: {**h, "sample_rate": 8000.0}, "sample_rate must be a JSON integer"),
        ],
        ids=["unknown-feature-key", "missing-key", "header-not-object", "nan-threshold", "shapes-overrun",
             "payload-too-long", "negative-dim", "arrays-out-of-order", "float-n_mfcc", "float-n_fft",
             "float-delta_window", "float-n_mel_filters", "bool-n_mfcc", "fractional-sample_rate",
             "float-sample_rate"],
    )
    def test_malformed_header_is_a_value_error(self, tiny_bundle, tmp_path, edit, match):
        path = tmp_path / "bad.sadb"
        path.write_bytes(reframe(tiny_bundle, edit))
        with pytest.raises(ValueError, match=match):
            load_model(path)

    @pytest.mark.parametrize(
        "hostile, match",
        [
            (lambda raw: reframe(raw, _with_tag("lda.matrix", "<f2")), "unknown dtype tag '<f2'"),
            (lambda raw: reframe(raw, _with_tag("lda.matrix", "<i8")), "unknown dtype tag '<i8'"),
            # 4 bytes past the stream's end
            (lambda raw: reframe(raw, _with_tag("nonspeech_embedding", "<f4", extend=1)), "overrun"),
            (lambda raw: with_stream(raw, stream_of(raw)[: len(stream_of(raw)) // 2]), "overrun"),
            # every value is there, but the stream's closing check value is not
            (lambda raw: with_stream(raw, stream_of(raw)[:-4]), "the stream has no end"),
            (lambda raw: with_stream(raw, zlib.compress(zlib.decompress(stream_of(raw)) + bytes(1))),
             "the stream is longer than its array shapes"),
            (lambda raw: with_stream(raw, stream_of(raw) + zlib.compress(b"")), "bytes after the end of the stream"),
            # as many taps, so the same array shapes: only the header tells them apart
            (lambda raw: reframe(raw, lambda h: {**h, "lda_context": list(range(-16, 5, 2))}),
             "lda_context offsets"),
            (lambda raw: reframe(raw, lambda h: {**h, "pca_context": list(range(-15, 4, 3))}),
             "pca_context offsets"),
        ],
        ids=["unknown-tag", "integer-tag", "narrow-tag-overrun", "truncated-stream", "stream-without-its-end",
             "stream-past-the-total", "bytes-after-the-stream", "lda-context", "pca-context"],
    )
    def test_hostile_bundle_exits_2(self, tiny_bundle, tiny_corpus, tmp_path, capsys, hostile, match):
        from streamsad.cli import main

        path = tmp_path / "bad.sadb"
        path.write_bytes(hostile(tiny_bundle))
        with pytest.raises(ValueError, match=match):
            load_model(path)
        rc = main(["detect", "--model", str(path), "--out-dir", str(tmp_path / "hyp"),
                   str(tiny_corpus["entries"][5][0])])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{path}: malformed bundle" in err and match in err

    def test_version_2_bundle_exits_2(self, tiny_bundle, tiny_corpus, tmp_path, capsys):
        from streamsad.cli import main

        path = tmp_path / "v2.sadb"
        path.write_bytes(patch(tiny_bundle, 4, struct.pack("<I", 2)))
        rc = main(["detect", "--model", str(path), "--out-dir", str(tmp_path / "hyp"),
                   str(tiny_corpus["entries"][5][0])])
        assert rc == 2
        assert "unsupported bundle version 2 (this build reads 4)" in capsys.readouterr().err

    def test_version_3_bundle_exits_2(self, tiny_bundle, tiny_corpus, tmp_path, capsys):
        from streamsad.cli import main

        path = tmp_path / "v3.sadb"
        path.write_bytes(as_version_3(tiny_bundle))
        with pytest.raises(ValueError, match=r"unsupported bundle version 3 \(this build reads 4\)"):
            load_model(path)
        rc = main(["detect", "--model", str(path), "--out-dir", str(tmp_path / "hyp"),
                   str(tiny_corpus["entries"][5][0])])
        assert rc == 2
        assert "unsupported bundle version 3 (this build reads 4)" in capsys.readouterr().err

    def test_float_integer_field_exits_2(self, tiny_bundle, tiny_corpus, tmp_path, capsys):
        # it used to load and then fail inside the front end with a TypeError (exit 3)
        from streamsad.cli import main

        path = tmp_path / "float.sadb"
        path.write_bytes(reframe(tiny_bundle, _with_feature("n_mfcc", 12.0)))
        rc = main(["detect", "--model", str(path), "--out-dir", str(tmp_path / "hyp"),
                   str(tiny_corpus["entries"][5][0])])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{path}: malformed bundle" in err and "n_mfcc must be a JSON integer" in err

    def test_unknown_feature_key_exits_2(self, tiny_bundle, tiny_corpus, tmp_path, capsys):
        from streamsad.cli import main

        path = tmp_path / "bad.sadb"
        path.write_bytes(reframe(tiny_bundle, lambda h: {**h, "feature_cfg": {**h["feature_cfg"], "x": 1}}))
        rc = main(["detect", "--model", str(path), "--out-dir", str(tmp_path / "hyp"),
                   str(tiny_corpus["entries"][5][0])])
        assert rc == 2
        assert "malformed bundle" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["embedding.0.weight", "embedding.0.bias"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_embedding_layer_exits_2(self, tiny_bundle, tiny_corpus, tmp_path, capsys,
                                                 name, value):
        # it used to load, and detection then raised "score nan escaped [-2, 2]" (exit 3)
        from streamsad.cli import main

        path = tmp_path / "bad.sadb"
        path.write_bytes(patch_first_entry(tiny_bundle, name, value))
        with pytest.raises(ValueError, match="embedding layer contains non-finite entries"):
            load_model(path)
        rc = main(["detect", "--model", str(path), "--out-dir", str(tmp_path / "hyp"),
                   str(tiny_corpus["entries"][5][0])])
        assert rc == 2
        assert "malformed bundle" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, message",
        [("hop", 1e-5, "hop of 1e-05 s is 0 samples"),
         ("cmn_window", math.inf, "window_length, hop and cmn_window must be finite"),
         ("window_length", math.inf, "window_length, hop and cmn_window must be finite")],
        ids=["hop-of-0-samples", "infinite-cmn_window", "infinite-window_length"],
    )
    def test_front_end_that_cannot_run_exits_2(self, tiny_bundle, tiny_corpus, tmp_path, capsys,
                                                key, value, message):
        # each used to load, and detection then raised ZeroDivisionError or
        # OverflowError (exit 3); training with it named no cause
        from streamsad.cli import main

        path = tmp_path / "bad.sadb"
        path.write_bytes(reframe(tiny_bundle, _with_feature(key, value)))
        with pytest.raises(ValueError, match=message):
            load_model(path)
        rc = main(["detect", "--model", str(path), "--out-dir", str(tmp_path / "hyp"),
                   str(tiny_corpus["entries"][5][0])])
        assert rc == 2
        assert message in capsys.readouterr().err
        config = tmp_path / "bad.cfg"
        config.write_text(f"{key} = {value}\n")
        rc = main(["train", "--manifest", str(tiny_corpus["manifest"]), "--out", str(tmp_path / "m.sadb"),
                   "--config", str(config)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "m.sadb").exists()

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_damaged_bundle_loads_exact_or_raises_value_error(self, tiny_bundle, tiny_model,
                                                             tmp_path, data):
        raw = bytearray(tiny_bundle)
        damage = data.draw(st.sampled_from(["flip", "truncate", "append"]))
        if damage == "flip":
            positions = st.integers(0, 8 * len(raw) - 1)
            for bit in data.draw(st.lists(positions, min_size=1, max_size=8, unique=True)):
                raw[bit // 8] ^= 1 << (bit % 8)
        elif damage == "truncate":
            del raw[data.draw(st.integers(0, len(raw))):]
        else:
            raw += data.draw(st.binary(min_size=1, max_size=64))
        path = tmp_path / "damaged.sadb"
        path.write_bytes(bytes(raw))
        try:
            loaded = load_model(path)
        except ValueError:
            return
        assert same_bits(loaded, tiny_model)

    def test_model_validation_catches_dim_break(self, tiny_model):
        from dataclasses import replace

        with pytest.raises(ValueError, match="count vectors are identical"):
            replace(
                tiny_model,
                nonspeech_counts=tiny_model.speech_counts.copy(),
            )
        with pytest.raises(ValueError, match="length does not match"):
            replace(tiny_model, speech_counts=np.ones(3))
        weight, bias = tiny_model.embedding_weight, tiny_model.embedding_bias
        with pytest.raises(ValueError, match="embedding layer"):
            replace(tiny_model, embedding_weight=weight[1:])
        with pytest.raises(ValueError, match="embedding layer"):
            replace(tiny_model, embedding_bias=bias[1:])
        with pytest.raises(ValueError, match="embedding width"):
            replace(tiny_model, embedding_weight=weight[:, 1:], embedding_bias=bias[1:])
        with pytest.raises(ValueError, match="embedding layer"):
            replace(tiny_model, embedding_weight=weight[0])
        pca = tiny_model.pca
        with pytest.raises(ValueError, match="orthonormal"):
            replace(tiny_model, pca=LinearTransform(pca.matrix * 2.0, pca.mean_offset))
