import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streamsad.gmm as gmm_module
from streamsad.audio_io import NONSPEECH, SPEECH, AudioStream, read_wav
from streamsad.context_transform import LDA_CONTEXT, PCA_CONTEXT, LinearTransform, context_window
from streamsad.embeddings import embed_batch
from streamsad.engine import (
    AdaptationConfig,
    AdaptState,
    RingBuffer,
    StreamingDetector,
    format_trace,
    score_segments,
)
from streamsad.features import (
    BLOCK_FRAMES,
    FeatureConfig,
    FeatureExtractor,
    StaticMfcc,
    cmn_window,
    dct_matrix,
    delta_window,
    extract_features,
    extract_mfcc,
    frame_count,
    hz_to_mel,
    mel_filterbank,
    mel_to_hz,
)
from streamsad.gmm import COUNT_FLOOR, Gmm, block_counts, block_supervectors, log_likelihoods, logsumexp
from oracles import delta_oracle, mfcc_oracle, trailing_mean_oracle


CFG = FeatureConfig()


def cmn(frames):
    """The CMN stage alone over a whole frame sequence: one flush."""
    return cmn_window(CFG).flush(frames)


def with_deltas(frames):
    """Deltas, then delta-deltas, appended as the front end does: (T, D) -> (T, 3D)."""
    dim = frames.shape[1]
    return delta_window(dim, CFG.delta_window).flush(delta_window(dim, CFG.delta_window).flush(frames))


# pushes that are not 1-D real samples, each with the text its error names
BAD_PUSHES = [
    (np.zeros((1, 800)), r"shape \(1, 800\)"),
    (np.zeros((2, 800)), r"shape \(2, 800\)"),
    (np.zeros((800, 2)), r"shape \(800, 2\)"),
    (0.5, r"shape \(\)"),
    (np.zeros(800, dtype=np.complex128), "complex128"),
    (np.zeros(800, dtype=bool), "bool"),
    (np.array(["0.1"] * 800), "<U3"),
    (np.array([0.1, None] * 400, dtype=object), "object"),
]


def tone(freq, duration, sample_rate, amp=0.5):
    t = np.arange(int(duration * sample_rate)) / sample_rate
    return amp * np.sin(2 * np.pi * freq * t)


def stream(samples, sample_rate=8000):
    return AudioStream(sample_rate, np.asarray(samples, dtype=np.float64))


class TestStaticMfcc:
    @pytest.mark.parametrize("sample_rate", [8000, 16000])
    def test_matches_direct_dft_oracle(self, sample_rate):
        rng = np.random.default_rng(5)
        duration = 0.3
        n = int(duration * sample_rate)
        t = np.arange(n) / sample_rate
        signals = [
            tone(440.0, duration, sample_rate),
            tone(1800.0, duration, sample_rate, amp=0.2) + 0.05 * rng.standard_normal(n),
            0.3 * np.sin(2 * np.pi * (300.0 + 1500.0 * t) * t),  # chirp
            rng.standard_normal(n) * 0.1,
        ]
        for samples in signals:
            got = extract_mfcc(stream(samples, sample_rate))
            want = mfcc_oracle(samples, sample_rate)
            assert np.max(np.abs(got - want)) < 1e-4

    def test_tone_at_filter_center_dominates_that_filter(self):
        sample_rate = 8000
        n_fft = CFG.fft_size(sample_rate)
        bank = mel_filterbank(sample_rate, n_fft, 23, 150.0, 4000.0)
        bins = np.arange(n_fft // 2 + 1) * sample_rate / n_fft
        target = 11
        center_hz = bins[np.argmax(bank[target])]
        samples = tone(center_hz, 0.5, sample_rate)
        static = StaticMfcc(CFG, sample_rate)
        frames = samples[: static.win].reshape(1, -1)
        emphasized = np.empty_like(frames)
        emphasized[:, 0] = frames[:, 0] * (1 - CFG.pre_emphasis)
        emphasized[:, 1:] = frames[:, 1:] - CFG.pre_emphasis * frames[:, :-1]
        spectrum = np.abs(np.fft.rfft(emphasized * static.window, n=n_fft, axis=1))
        energies = spectrum @ bank.T
        assert int(np.argmax(energies[0])) == target

    def test_digital_silence_gives_identical_constant_frames(self):
        out = extract_mfcc(stream(np.zeros(8000)))
        assert np.all(out == out[0])

    def test_exact_window_gives_one_frame(self):
        out = extract_mfcc(stream(np.zeros(200)))
        assert out.shape == (1, 12)

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="shorter than one analysis window"):
            extract_mfcc(stream(np.zeros(199)))

    @settings(max_examples=40, deadline=None)
    @given(extra=st.integers(0, 1000))
    def test_frame_count_formula(self, extra):
        n = 200 + extra
        assert frame_count(n, CFG, 8000) == 1 + extra // 80
        assert len(extract_mfcc(stream(np.zeros(n)))) == frame_count(n, CFG, 8000)

    def test_filterbank_spans_requested_range(self):
        n_fft = 256
        bank = mel_filterbank(8000, n_fft, 23, 150.0, 4000.0)
        assert bank.shape == (23, n_fft // 2 + 1)
        freqs = np.arange(bank.shape[1]) * 8000 / n_fft
        active = freqs[bank.sum(axis=0) > 0]
        assert active.min() >= 150.0
        assert active.max() <= 4000.0

    def test_filterbank_rejects_bad_range(self):
        with pytest.raises(ValueError, match="Nyquist"):
            mel_filterbank(8000, 256, 23, 150.0, 5000.0)

    def test_mel_scale_round_trip(self):
        f = np.array([150.0, 1000.0, 3999.0])
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(f)), f, rtol=1e-12)

    def test_dct_rows_orthonormal_and_level_free(self):
        rows = dct_matrix(12, 23)
        np.testing.assert_allclose(rows @ rows.T, np.eye(12), atol=1e-12)
        # row 0 of the full DCT (overall level) is excluded: constant input -> 0
        np.testing.assert_allclose(rows @ np.ones(23), 0.0, atol=1e-12)


class TestCmn:
    def test_constant_input_zeroes_out(self):
        frames = np.tile([3.0, -1.5, 2.0], (50, 1))
        np.testing.assert_allclose(cmn(frames), 0.0, atol=1e-12)

    def test_matches_trailing_mean_oracle(self):
        rng = np.random.default_rng(7)
        frames = rng.standard_normal((240, 12))
        np.testing.assert_allclose(
            cmn(frames), trailing_mean_oracle(frames, 100), atol=1e-10
        )

    def test_recovers_after_level_step(self):
        # the shift washes out once the window holds only post-step frames
        frames = np.zeros((260, 2))
        frames[60:] = 5.0
        out = cmn(frames)
        np.testing.assert_allclose(out[160:], 0.0, atol=1e-12)
        assert np.abs(out[60:159]).max() > 0.01

    def test_streaming_state_equals_batch(self):
        rng = np.random.default_rng(11)
        frames = rng.standard_normal((130, 12))
        stage = cmn_window(CFG)
        streamed = [stage.push(frame[np.newaxis]) for frame in frames]
        streamed.append(stage.flush(np.empty((0, 12))))
        np.testing.assert_array_equal(np.concatenate(streamed), cmn(frames))

    def test_empty_input(self):
        assert cmn(np.zeros((0, 12))).shape == (0, 12)


class TestDeltas:
    def test_constant_frames_give_zero_deltas(self):
        frames = np.tile([1.0, 2.0], (20, 1))
        out = with_deltas(frames)
        np.testing.assert_allclose(out[:, 2:], 0.0, atol=1e-12)

    def test_linear_ramp_has_unit_slope_interior(self):
        frames = np.arange(30.0).reshape(-1, 1)
        out = with_deltas(frames)
        # interior deltas of a unit-slope ramp equal the slope
        np.testing.assert_allclose(out[2:-2, 1], 1.0, atol=1e-12)
        np.testing.assert_allclose(out[4:-4, 2], 0.0, atol=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        frames = rng.standard_normal((10, 4))
        out = with_deltas(frames)
        d1 = delta_oracle(frames)
        d2 = delta_oracle(d1)
        np.testing.assert_allclose(out[:, 4:8], d1, atol=1e-12)
        np.testing.assert_allclose(out[:, 8:], d2, atol=1e-12)

    def test_output_width(self):
        assert with_deltas(np.zeros((5, 12))).shape == (5, 36)

    def test_empty_input(self):
        assert with_deltas(np.zeros((0, 12))).shape == (0, 36)


class TestStreamingExtractor:
    def random_chunks(self, samples, rng, n_chunks):
        cuts = np.sort(rng.choice(np.arange(1, len(samples)), n_chunks - 1, replace=False))
        return np.split(samples, cuts)

    def collect(self, extractor, chunks):
        frames = []
        for chunk in chunks:
            frames.extend(extractor.push(chunk))
        frames.extend(extractor.flush())
        return np.stack(frames)

    def test_chunking_never_changes_output(self):
        rng = np.random.default_rng(21)
        samples = rng.uniform(-0.5, 0.5, 16000)
        ref = self.collect(FeatureExtractor(CFG, 8000), [samples])
        for trial in range(6):
            got = self.collect(
                FeatureExtractor(CFG, 8000), self.random_chunks(samples, rng, 8)
            )
            np.testing.assert_array_equal(got, ref)

    def test_streaming_matches_batch_pipeline(self):
        rng = np.random.default_rng(22)
        samples = rng.uniform(-0.5, 0.5, 12345)
        streamed = self.collect(FeatureExtractor(CFG, 8000), [samples])
        batch = extract_features(stream(samples))
        np.testing.assert_array_equal(streamed, batch)

    def test_frame_total_matches_formula(self):
        ext = FeatureExtractor(CFG, 8000)
        total = len(ext.push(np.zeros(9999))) + len(ext.flush())
        assert total == frame_count(9999, CFG, 8000)

    def test_push_withholds_lookahead_frames(self):
        # delta-deltas need statics through t+4, so push alone holds 4 back
        ext = FeatureExtractor(CFG, 8000)
        emitted = len(ext.push(np.zeros(8000)))
        assert frame_count(8000, CFG, 8000) - emitted == 4

    def test_tiny_pushes(self):
        rng = np.random.default_rng(23)
        samples = rng.uniform(-0.5, 0.5, 4000)
        ext = FeatureExtractor(CFG, 8000)
        chunks = [samples[i : i + 17] for i in range(0, 4000, 17)]
        got = self.collect(ext, chunks)
        np.testing.assert_array_equal(got, extract_features(stream(samples)))

    def test_buffers_stay_bounded(self):
        ext = FeatureExtractor(CFG, 8000)
        rng = np.random.default_rng(24)
        for _ in range(40):
            ext.push(rng.uniform(-0.5, 0.5, 800))
            # each stage keeps only the frames its window still reaches
            for stage in ext.stages:
                assert len(stage.context) <= stage.lookback + stage.lookahead
            assert len(ext.pending) < ext.static.win

    def test_push_after_flush_raises(self):
        ext = FeatureExtractor(CFG, 8000)
        ext.push(np.zeros(4000))
        ext.flush()
        with pytest.raises(RuntimeError, match="push after flush"):
            ext.push(np.zeros(10))

    def test_short_stream_flush_is_empty(self):
        ext = FeatureExtractor(CFG, 8000)
        assert ext.push(np.zeros(100)).shape == (0, 36)
        assert ext.flush().shape == (0, 36)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected_before_any_change(self, bad):
        rng = np.random.default_rng(25)
        samples = rng.uniform(-0.5, 0.5, 6000)
        chunk = rng.uniform(-0.5, 0.5, 800)
        chunk[123] = bad
        ext = FeatureExtractor(CFG, 8000)
        got = [ext.push(samples[:3000])]
        with pytest.raises(ValueError, match="NaN or Inf"):
            ext.push(chunk)
        got += [ext.push(samples[3000:]), ext.flush()]
        np.testing.assert_array_equal(np.concatenate(got), extract_features(stream(samples)))

    @pytest.mark.parametrize("bad,named", BAD_PUSHES, ids=[named for _, named in BAD_PUSHES])
    @pytest.mark.parametrize("fed", [0, 3000], ids=["fresh", "fed"])
    def test_bad_push_rejected_before_any_change(self, bad, named, fed):
        samples = np.random.default_rng(26).uniform(-0.5, 0.5, 6000)
        ext = FeatureExtractor(CFG, 8000)
        got = [ext.push(samples[:fed])]
        before = (ext.pending.copy(), ext.n_frames, [(s.start, s.context) for s in ext.stages])
        with pytest.raises(ValueError, match=named):
            ext.push(bad)
        assert ext.pending.ndim == 1
        np.testing.assert_array_equal(ext.pending, before[0])
        assert ext.n_frames == before[1]
        assert [(s.start, s.context) for s in ext.stages] == before[2]
        got += [ext.push(samples[fed:]), ext.flush()]
        np.testing.assert_array_equal(np.concatenate(got), extract_features(stream(samples)))

    def test_whole_file_too_short_raises(self):
        with pytest.raises(ValueError, match="shorter than one analysis window"):
            extract_features(stream(np.zeros(50)))


BLOCK_SIZES = [1, 2, 7, 10, 64, 1000]
# push sizes around one frame, one segment and one kernel block
PIECES = [0, 1, 9, 10, 11, 499, 500, 501, 1234]


def _transform(out_dim, in_dim, seed):
    rng = np.random.default_rng(seed)
    return LinearTransform(rng.standard_normal((out_dim, in_dim)), rng.standard_normal(in_dim))


# every kind of CausalWindow the detector runs: (factory, input dim)
CAUSAL_WINDOWS = {
    "cmn": (lambda: cmn_window(CFG), 12),
    "deltas": (lambda: delta_window(12, CFG.delta_window), 12),
    "delta-deltas": (lambda: delta_window(12, CFG.delta_window), 24),
    "lda-stack": (lambda: context_window(LDA_CONTEXT), 36),
    "lda": (lambda: context_window(LDA_CONTEXT, _transform(12, 396, 1)), 36),
    "pca": (lambda: context_window(PCA_CONTEXT, _transform(24, 84, 2)), 12),
}


def in_blocks(fn, x, size):
    return np.concatenate([fn(x[i : i + size]) for i in range(0, len(x), size)])


def streamed(stage, x, size):
    """Push x through a stage in blocks of size rows, then flush."""
    out = [stage.push(x[i : i + size]) for i in range(0, len(x), size)]
    out.append(stage.flush(x[:0]))
    return np.concatenate(out)


class TestBatchInvariance:
    """Every kernel the stages use gives a row the same bits in any block.

    Streaming splits the frames into blocks wherever the pushes happen to
    end, so this is what makes streaming equal batch bit for bit.
    """

    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @pytest.mark.parametrize("in_dim,out_dim", [(257, 23), (129, 23), (23, 12), (396, 12), (84, 24)])
    def test_einsum_projection(self, size, in_dim, out_dim):
        # filterbank (16 and 8 kHz), DCT, LDA and PCA shapes
        rng = np.random.default_rng(in_dim)
        x = rng.standard_normal((1500, in_dim))
        matrix = rng.standard_normal((out_dim, in_dim))

        def project(block):
            return np.einsum("tj,kj->tk", block, matrix)

        np.testing.assert_array_equal(in_blocks(project, x, size), project(x))

    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @pytest.mark.parametrize("win,n_fft", [(200, 256), (400, 512)])
    def test_rfft_along_rows(self, size, win, n_fft):
        x = np.random.default_rng(win).standard_normal((1500, win))

        def spectrum(block):
            return np.abs(np.fft.rfft(block, n=n_fft, axis=1))

        np.testing.assert_array_equal(in_blocks(spectrum, x, size), spectrum(x))

    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @pytest.mark.parametrize("sample_rate", [8000, 16000])
    def test_static_mfcc_block(self, size, sample_rate):
        static = StaticMfcc(CFG, sample_rate)
        x = np.random.default_rng(size).uniform(-0.5, 0.5, (1500, static.win))
        np.testing.assert_array_equal(in_blocks(static.compute_block, x, size), static.compute_block(x))

    @pytest.mark.parametrize("size", BLOCK_SIZES)
    def test_cmn_window_sum(self, size):
        x = np.random.default_rng(30).standard_normal((1500, 12))
        np.testing.assert_array_equal(streamed(cmn_window(CFG), x, size), cmn(x))

    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @pytest.mark.parametrize("dim", [1, 12])
    def test_cmn_window_sum_matches_oldest_first_loop(self, size, dim):
        # one column pushed one frame at a time leaves a single value per
        # window, the case numpy would otherwise sum pairwise
        width = CFG.cmn_frames()
        x = np.random.default_rng(32).standard_normal((300, dim)) * 100.0
        padded = np.vstack([np.zeros((width - 1, dim)), x])
        total = padded[: len(x)].copy()
        for j in range(1, width):
            total += padded[j : j + len(x)]
        want = x - total / np.minimum(np.arange(1, len(x) + 1), width)[:, None]
        np.testing.assert_array_equal(streamed(cmn_window(CFG), x, size), want)

    @pytest.mark.parametrize("kind", list(CAUSAL_WINDOWS))
    @pytest.mark.parametrize("piece", PIECES + ["mixed"])
    def test_causal_window_pieces_equal_one_flush(self, kind, piece):
        # a push runs its stage's kernel once, or once per BLOCK_FRAMES
        # outputs when it readies more; both give one flush's bits
        make, dim = CAUSAL_WINDOWS[kind]
        x = np.random.default_rng(33).standard_normal((3000, dim))
        if piece == "mixed":
            sizes = itertools.cycle(PIECES)
        else:
            sizes = itertools.repeat(piece, 3) if piece == 0 else itertools.repeat(piece)
        stage, calls = make(), []
        kernel = stage.kernel

        def counted(context, start):
            out = kernel(context, start)
            calls[-1].append(len(out))
            return out

        stage.kernel = counted
        got, pos = [], 0
        for size in sizes:
            if pos + size > len(x):
                break
            calls.append([])
            got.append(stage.push(x[pos : pos + size]))
            assert len(calls[-1]) == max(1, -(-len(got[-1]) // BLOCK_FRAMES))
            assert max(calls[-1]) <= BLOCK_FRAMES
            pos += size
        calls.append([])
        got.append(stage.flush(x[pos:]))
        np.testing.assert_array_equal(np.concatenate(got), make().flush(x))

    @pytest.mark.parametrize("size", BLOCK_SIZES)
    def test_delta_formula(self, size):
        x = np.random.default_rng(31).standard_normal((1500, 24))
        whole = delta_window(12, CFG.delta_window).flush(x)
        np.testing.assert_array_equal(streamed(delta_window(12, CFG.delta_window), x, size), whole)


def stats_reference(segment, ubm):
    """One segment's counts and centered first-order sums, as plain 2-D products."""
    ll = log_likelihoods(segment, ubm)
    resp = np.exp(ll - logsumexp(ll, axis=1, keepdims=True))
    counts = resp.sum(axis=0)
    return counts, resp.T @ segment - counts[:, None] * ubm.means


def cosine_reference(a, b):
    return float(np.clip(np.dot(a, b) / (float(np.linalg.norm(a)) * float(np.linalg.norm(b))), -1.0, 1.0))


def scores_reference(segments, model, cfg):
    """(zero, emb, fused, threshold, label) per segment, one segment at a time, with deques."""
    alpha, beta = cfg.model_adaptation, cfg.threshold_adaptation
    sp_buf, nsp_buf = deque(maxlen=cfg.speech_buffer_len), deque(maxlen=cfg.nonspeech_buffer_len)
    scores = deque(maxlen=cfg.speech_buffer_len)
    adapted_sp, adapted_nsp, theta = model.speech_counts, model.nonspeech_counts, model.base_threshold
    out = []
    for segment in segments:
        counts, _ = stats_reference(segment, model.counts_ubm)
        counts_vec = counts / counts.sum()
        zero = cosine_reference(counts_vec, adapted_sp) - cosine_reference(counts_vec, adapted_nsp)
        counts, first = stats_reference(segment, model.supervector_ubm)
        h = (first / np.maximum(counts, COUNT_FLOOR)[:, None]).ravel()[np.newaxis]
        h = np.maximum(h @ model.embedding_weight + model.embedding_bias, 0.0)
        emb = cosine_reference(h[0], model.speech_embedding) - cosine_reference(h[0], model.nonspeech_embedding)
        fused = (zero + emb) / 2.0
        label = SPEECH if fused > theta else NONSPEECH
        out.append((zero, emb, fused, theta, label))
        if label == SPEECH:
            sp_buf.append(counts_vec)
            scores.append(fused)
        else:
            nsp_buf.append(counts_vec)
        if sp_buf:
            adapted_sp = (1.0 - alpha) * model.speech_counts + alpha * (np.sum(sp_buf, axis=0) / len(sp_buf))
        if nsp_buf:
            adapted_nsp = (1.0 - alpha) * model.nonspeech_counts + alpha * (np.sum(nsp_buf, axis=0) / len(nsp_buf))
        if scores:
            theta = (1.0 - beta) * model.base_threshold + beta * (sum(scores) / len(scores))
    return out


def random_ubm(rng, n_components, dim):
    return Gmm(
        weights=np.full(n_components, 1.0 / n_components),
        means=rng.standard_normal((n_components, dim)),
        variances=rng.uniform(0.5, 2.0, (n_components, dim)),
    )


class TestSegmentBatchInvariance:
    """Segment scoring gives each segment the same bits in a block of any size.

    The detector scores every segment a push makes ready as one block, so
    this is what keeps decisions independent of how samples were chunked.
    Segment lengths cover whole segments (10 frames) and every tail length
    that gets its own decision (5-9).
    """

    @pytest.mark.parametrize("size", [0] + BLOCK_SIZES)
    @pytest.mark.parametrize("n_frames", [5, 6, 7, 8, 9, 10])
    def test_block_stats_and_supervectors(self, size, n_frames):
        # the counts UBM (2 x 64 components) and the supervector UBM (32) over 24-d frames
        rng = np.random.default_rng(size * 100 + n_frames)
        segments = rng.standard_normal((size, n_frames, 24)) * 2.0
        for ubm in (random_ubm(rng, 128, 24), random_ubm(rng, 32, 24)):
            counts = block_counts(segments, ubm)
            supervectors = block_supervectors(segments, ubm)
            assert counts.shape == (size, ubm.n_components)
            assert supervectors.shape == (size, ubm.n_components * 24)
            for segment, segment_counts, sv in zip(segments, counts, supervectors):
                want_counts, want_first = stats_reference(segment, ubm)
                np.testing.assert_array_equal(segment_counts, want_counts)
                want_sv = (want_first / np.maximum(want_counts, COUNT_FLOOR)[:, None]).ravel()
                np.testing.assert_array_equal(sv, want_sv)

    @pytest.mark.parametrize("n_components", [1, 32, 128])
    def test_scoring_tables_are_the_inline_expressions(self, n_components):
        rng = np.random.default_rng(n_components)
        ubm = random_ubm(rng, n_components, 24)
        constant, scaled_means, precision = ubm.scoring_tables
        assert ubm.scoring_tables is ubm.scoring_tables  # built once per mixture
        want_precision = 1.0 / ubm.variances
        want_constant = (
            np.log(np.maximum(ubm.weights, 1e-300))
            - 0.5 * (24 * np.log(2.0 * np.pi) + np.sum(np.log(ubm.variances), axis=1))
            - 0.5 * np.sum(ubm.means**2 * want_precision, axis=1)
        )
        np.testing.assert_array_equal(constant, want_constant)
        np.testing.assert_array_equal(scaled_means, (ubm.means * want_precision).T)
        np.testing.assert_array_equal(precision, want_precision.T)
        x = rng.standard_normal((50, 24))
        want = want_constant + x @ (ubm.means * want_precision).T - 0.5 * (x**2) @ want_precision.T
        np.testing.assert_array_equal(log_likelihoods(x, ubm), want)

    @pytest.mark.parametrize("size", [0, 1, 2, 7, 50, 1000])
    @pytest.mark.parametrize("n_frames", [5, 10])
    def test_counts_only_pass_equals_block_stats_counts(self, monkeypatch, size, n_frames):
        # the counts-only pass and the statistics pass behind the supervectors
        # each check their counts once per block, and the two are the same bits
        checked = []
        check_counts = gmm_module._check_counts
        monkeypatch.setattr(gmm_module, "_check_counts", lambda c, n: checked.append(c) or check_counts(c, n))
        rng = np.random.default_rng(size * 10 + n_frames)
        segments = rng.standard_normal((size, n_frames, 24)) * 2.0
        for ubm in (random_ubm(rng, 128, 24), random_ubm(rng, 32, 24)):
            checked.clear()
            counts = block_counts(segments, ubm)
            block_supervectors(segments, ubm)
            assert len(checked) == 2
            assert checked[0] is counts
            np.testing.assert_array_equal(checked[1], counts)

    @pytest.mark.parametrize(
        "shift,match",
        [([2.0, -2.0, 0.0, 0.0], "non-negative"), ([1e-3, 0.0, 0.0, 0.0], "sum to the frame count")],
    )
    def test_counts_only_pass_keeps_the_stats_checks(self, monkeypatch, shift, match):
        # moved responsibilities: a negative count with exact sums, or sums off by 1e-2
        responsibilities = gmm_module._responsibilities
        monkeypatch.setattr(gmm_module, "_responsibilities", lambda ll: responsibilities(ll) + np.array(shift))
        ubm = random_ubm(np.random.default_rng(3), 4, 24)
        segments = np.random.default_rng(4).standard_normal((3, 10, 24))
        with pytest.raises(ValueError, match=match):
            block_counts(segments, ubm)
        with pytest.raises(ValueError, match=match):
            block_supervectors(segments, ubm)

    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @pytest.mark.parametrize("in_dim,out_dim", [(768, 256), (96, 32), (4, 3)])
    def test_stacked_embeddings(self, size, in_dim, out_dim):
        rng = np.random.default_rng(in_dim + size)
        layers = ((rng.standard_normal((in_dim, out_dim)) * 0.05, rng.standard_normal(out_dim) * 0.1),)
        supervectors = rng.standard_normal((size, in_dim))
        got = embed_batch(supervectors[:, np.newaxis, :], layers)[:, 0]
        for row, sv in zip(got, supervectors):
            want = np.maximum(sv[np.newaxis, :] @ layers[0][0] + layers[0][1], 0.0)[0]
            np.testing.assert_array_equal(row, want)

    @pytest.mark.parametrize("capacity", [1, 2, 3, 30, 60])
    def test_ring_sum_equals_deque_sum(self, capacity):
        rng = np.random.default_rng(capacity)
        ring, reference = RingBuffer(capacity, 128), deque(maxlen=capacity)
        for fill in range(capacity + 6):
            assert len(ring) == len(reference)
            if reference:
                np.testing.assert_array_equal(ring.rows().sum(axis=0), np.sum(list(reference), axis=0))
            else:
                assert ring.rows().shape == (0, 128)
            row = rng.dirichlet(np.ones(128))
            ring.append(row)
            reference.append(row)

    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @pytest.mark.parametrize("n_frames", [7, 10])
    def test_block_scorer_matches_per_segment_reference(self, tiny_model, size, n_frames):
        # short buffers so they wrap inside the larger blocks
        cfg = AdaptationConfig(speech_buffer_len=4, nonspeech_buffer_len=6)
        dim = tiny_model.pca.output_dim
        segments = np.random.default_rng(size + n_frames).standard_normal((size, n_frames, dim))
        got = score_segments(segments, tiny_model, AdaptState(tiny_model, cfg), cfg, first_index=5)
        want = scores_reference(segments, tiny_model, cfg)
        assert [(d.zero_score, d.emb_score, d.fused_score, d.threshold, d.label) for d in got] == want
        assert [d.index for d in got] == list(range(5, 5 + size))
        # and one segment at a time, each a block of S = 1
        state = AdaptState(tiny_model, cfg)
        assert [
            score_segments(seg[np.newaxis], tiny_model, state, cfg, first_index=5 + i)[0]
            for i, seg in enumerate(segments)
        ] == got

    @settings(max_examples=25, deadline=None)
    @given(sizes=st.lists(st.integers(1, 12000), min_size=1, max_size=40))
    def test_random_chunkings_give_the_whole_push_trace(self, tiny_corpus, tiny_model, sizes):
        samples = read_wav(tiny_corpus["entries"][5][0]).samples
        whole = StreamingDetector(tiny_model)
        whole.push(samples)
        whole.flush()
        chunked = StreamingDetector(tiny_model)
        edges = np.cumsum(sizes)
        for chunk in np.split(samples, edges[edges < len(samples)]):
            chunked.push(chunk)
        chunked.flush()
        assert format_trace(chunked.decisions) == format_trace(whole.decisions)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FeatureConfig(hop=0.05, window_length=0.02)
        with pytest.raises(ValueError):
            FeatureConfig(n_mfcc=30)
        with pytest.raises(ValueError):
            FeatureConfig(pre_emphasis=1.0)
        with pytest.raises(ValueError):
            FeatureConfig(cmn_window=0.001)

    def test_derived_values(self):
        assert CFG.window_samples(8000) == 200
        assert CFG.hop_samples(8000) == 80
        assert CFG.fft_size(8000) == 256
        assert CFG.window_samples(16000) == 400
        assert CFG.fft_size(16000) == 512
        assert CFG.cmn_frames() == 100
        assert CFG.output_dim == 36

    def test_explicit_fft_size_respected(self):
        cfg = FeatureConfig(n_fft=512)
        assert cfg.fft_size(8000) == 512
        with pytest.raises(ValueError, match="smaller than window"):
            StaticMfcc(FeatureConfig(n_fft=128), 8000)
