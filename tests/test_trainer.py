import logging
import tempfile
import tracemalloc

import numpy as np
import pytest

from streamsad.audio_io import NONSPEECH, SPEECH, SegmentLabel, read_labels, read_wav, write_labels, write_wav
from streamsad.engine import StreamingDetector, load_model, save_model, stream_detect
from streamsad.features import FeatureConfig, extract_features
from streamsad.gmm import Gmm, block_supervectors
from streamsad.synth import make_corpus
from streamsad import trainer
from streamsad.trainer import (
    TrainConfig,
    TrainingError,
    _cut_segments,
    frame_labels,
    load_manifest,
    train,
)


MICRO = dict(
    labeling_ubm_size=4,
    counts_ubm_per_class=8,
    supervector_ubm_size=4,
    lda_dim=4,
    pca_dim=8,
    gmm_iters=4,
    hidden_dims=(16, 8),
    mlp_epochs=3,
    base_threshold=0.0,
)


@pytest.fixture(scope="module")
def micro_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("micro_corpus")
    return make_corpus(root, n_files=2, duration=6.0, seed=777)


class TestFrameLabels:
    def test_uncovered_time_is_nonspeech(self):
        labels = [SegmentLabel(0.5, 1.0, SPEECH)]
        mask = frame_labels(labels, n_frames=8, hop=0.25, window=0.5)
        # centers: 0.25, 0.5, 0.75, 1.0, 1.25, ...
        np.testing.assert_array_equal(
            mask, [False, True, True, False, False, False, False, False]
        )

    def test_half_open_boundary_at_center(self):
        # center exactly on a segment start belongs to it; on an end does not
        labels = [
            SegmentLabel(0.0, 0.5, NONSPEECH),
            SegmentLabel(0.5, 1.0, SPEECH),
            SegmentLabel(1.0, 2.0, NONSPEECH),
        ]
        mask = frame_labels(labels, n_frames=6, hop=0.25, window=0.5)
        np.testing.assert_array_equal(mask, [False, True, True, False, False, False])

    def test_all_speech(self):
        mask = frame_labels([SegmentLabel(0.0, 10.0, SPEECH)], 50, 0.01, 0.025)
        assert mask.all()

    def test_empty_labels_mean_silence(self):
        assert not frame_labels([], 20, 0.01, 0.025).any()

    def test_matches_point_membership_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            bounds = np.sort(rng.uniform(0.0, 5.0, 6))
            labels = [
                SegmentLabel(bounds[0], bounds[1], SPEECH),
                SegmentLabel(bounds[2], bounds[3], SPEECH),
                SegmentLabel(bounds[4], bounds[5], SPEECH),
            ]
            n, hop, window = 40, 0.1, 0.2
            mask = frame_labels(labels, n, hop, window)
            for t in range(n):
                center = t * hop + window / 2
                want = any(s.start <= center < s.end for s in labels)
                assert mask[t] == want


class TestManifest:
    def test_relative_paths_resolve_next_to_manifest(self, tmp_path):
        manifest = tmp_path / "nested" / "train.tsv"
        manifest.parent.mkdir()
        manifest.write_text("a.wav\ta.lab\n/abs/b.wav\t/abs/b.lab\n")
        entries = load_manifest(manifest)
        assert entries[0] == (tmp_path / "nested" / "a.wav", tmp_path / "nested" / "a.lab")
        assert str(entries[1][0]) == "/abs/b.wav"

    def test_blank_lines_skipped(self, tmp_path):
        manifest = tmp_path / "train.tsv"
        manifest.write_text("\na.wav\ta.lab\n\n")
        assert len(load_manifest(manifest)) == 1

    def test_field_count_error(self, tmp_path):
        manifest = tmp_path / "train.tsv"
        manifest.write_text("a.wav\ta.lab\nb.wav\n")
        with pytest.raises(ValueError, match="tsv:2"):
            load_manifest(manifest)


class TestTrainConfig:
    def test_lda_rank_bound(self):
        with pytest.raises(ValueError, match="labeling_ubm_size"):
            TrainConfig(entries=[("a", "b")], labeling_ubm_size=4, lda_dim=8)

    def test_pca_bound(self):
        with pytest.raises(ValueError, match="pca_dim"):
            TrainConfig(entries=[("a", "b")], lda_dim=2, pca_dim=15)

    def test_positive_sizes(self):
        with pytest.raises(ValueError, match="positive"):
            TrainConfig(entries=[("a", "b")], gmm_iters=0)
        assert TrainConfig(entries=[("a", "b")], hidden_dims=(1,)).hidden_dims == (1,)

    @pytest.mark.parametrize("hidden_dims", [(), (0,), (16, -8), (16.0,), (True,), [16, 8], 16])
    def test_hidden_dims_are_positive_ints(self, hidden_dims):
        # (0,) used to reach init_mlp and fail there with ZeroDivisionError,
        # after all the EM work
        with pytest.raises(ValueError, match="hidden_dims"):
            TrainConfig(entries=[("a", "b")], hidden_dims=hidden_dims)

    def test_seed_is_non_negative(self):
        # -1 used to fail in the labeling UBM, after the features stage
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            TrainConfig(entries=[("a", "b")], seed=-1)
        assert TrainConfig(entries=[("a", "b")], seed=0).seed == 0

    @pytest.mark.parametrize("learning_rate", [float("nan"), float("inf"), -1.0, 0.0, -0.0])
    def test_learning_rate_is_finite_and_positive(self, learning_rate):
        # nan used to fail at the first minibatch, -1.0 to overflow and 0.0 to
        # train a network that never left its initialization, all after EM and LDA
        with pytest.raises(ValueError, match="learning_rate must be finite and > 0"):
            TrainConfig(entries=[("a", "b")], learning_rate=learning_rate)

    @pytest.mark.parametrize("base_threshold", [float("nan"), float("inf"), float("-inf")])
    def test_base_threshold_is_finite(self, base_threshold):
        # it used to fail only in the assemble stage, after every other stage
        with pytest.raises(ValueError, match="base_threshold must be finite"):
            TrainConfig(entries=[("a", "b")], base_threshold=base_threshold)

    def test_finite_rates_and_thresholds_accepted(self):
        for learning_rate, base_threshold in ((1e-9, -2.0), (5.0, 0.7), (0.01, 3.0)):
            cfg = TrainConfig(entries=[("a", "b")], learning_rate=learning_rate, base_threshold=base_threshold)
            assert (cfg.learning_rate, cfg.base_threshold) == (learning_rate, base_threshold)

    def test_default_threshold_is_zero(self):
        # 0.25 missed most speech (held-out DCF 0.30-0.49); 0.0 is the
        # operating point the acceptance gate is met at
        from dataclasses import fields

        from streamsad.engine import SadModel

        assert TrainConfig(entries=[("a", "b")]).base_threshold == 0.0
        default = {f.name: f.default for f in fields(SadModel)}["base_threshold"]
        assert default == 0.0


class TestCutSegments:
    UBM = Gmm(
        weights=np.array([0.5, 0.5]),
        means=np.array([[0.0, 0.0], [1.0, 1.0]]),
        variances=np.ones((2, 2)),
    )

    def test_pure_segments_kept_with_their_label(self):
        rng = np.random.default_rng(1)
        frames = rng.standard_normal((20, 2))
        mask = np.array([True] * 10 + [False] * 10)
        svs, labels, candidates, dropped = _cut_segments(frames, mask, self.UBM)
        assert (candidates, dropped) == (2, 0)
        assert labels.tolist() == [True, False]
        assert svs.shape == (2, 4)
        # the block gives each segment the bits of its own block of S = 1
        for sv, start in zip(svs, (0, 10)):
            want = block_supervectors(frames[np.newaxis, start : start + 10], self.UBM)[0]
            np.testing.assert_array_equal(sv, want)

    def test_straddling_segment_dropped(self):
        rng = np.random.default_rng(2)
        frames = rng.standard_normal((30, 2))
        mask = np.array([True] * 10 + [True] * 5 + [False] * 5 + [False] * 10)
        svs, labels, candidates, dropped = _cut_segments(frames, mask, self.UBM)
        assert (candidates, dropped) == (3, 1)
        assert labels.tolist() == [True, False]

    def test_leftover_tail_frames_ignored(self):
        rng = np.random.default_rng(3)
        frames = rng.standard_normal((27, 2))
        mask = np.zeros(27, dtype=bool)
        _, _, candidates, _ = _cut_segments(frames, mask, self.UBM)
        assert candidates == 2

    def test_file_shorter_than_a_segment(self):
        svs, labels, candidates, dropped = _cut_segments(np.zeros((7, 2)), np.zeros(7, dtype=bool), self.UBM)
        assert svs.shape == (0, 4) and labels.shape == (0,)
        assert (candidates, dropped) == (0, 0)


class TestTrainedModel:
    def test_dimension_chain_matches_config(self, tiny_model):
        # conftest TINY: counts/class 16, supervector 8, lda 8, pca 12,
        # hidden (32, 16, 8); the labeling UBM (8) is not part of the model
        assert tiny_model.lda.matrix.shape == (8, 11 * 36)
        assert tiny_model.pca.matrix.shape == (12, 7 * 8)
        assert tiny_model.counts_ubm.n_components == 32
        assert tiny_model.counts_ubm.dim == 12
        assert tiny_model.supervector_ubm.n_components == 8
        # only the layer up to the embedding; (16, 8, 2) train it and stay out
        assert (tiny_model.embedding_weight.shape, tiny_model.embedding_bias.shape) == ((8 * 12, 32), (32,))
        assert tiny_model.speech_counts.shape == (32,)
        assert tiny_model.speech_embedding.shape == (32,)
        assert tiny_model.sample_rate == 8000
        assert tiny_model.base_threshold == 0.0

    def test_count_vectors_are_normalized_distributions(self, tiny_model):
        for vec in (tiny_model.speech_counts, tiny_model.nonspeech_counts):
            assert np.all(vec >= 0)
            assert vec.sum() == pytest.approx(1.0, abs=1e-9)

    def test_counts_ubm_is_balanced_merge(self, tiny_model):
        # each class half contributes exactly 0.5 total weight
        assert tiny_model.counts_ubm.weights[:16].sum() == pytest.approx(0.5, abs=1e-9)
        assert tiny_model.counts_ubm.weights[16:].sum() == pytest.approx(0.5, abs=1e-9)

    def test_model_detects_training_data_well(self, tiny_corpus, tiny_model):
        # sanity: on a training file the detector should beat coin flipping
        from streamsad.audio_io import read_labels, read_wav
        from streamsad.evaluation import score

        wav, lab = tiny_corpus["entries"][0]
        result = stream_detect(read_wav(wav), tiny_model)
        report = score(read_labels(lab), result.segments)
        assert report.dcf < 0.4


class TestTrainRuns:
    def test_same_seed_gives_identical_bundles(self, micro_corpus, tmp_path):
        paths = []
        for i in range(2):
            cfg = TrainConfig(entries=micro_corpus, seed=11, **MICRO)
            path = tmp_path / f"run{i}.sadb"
            train(cfg, out_path=path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_out_path_round_trips(self, micro_corpus, tmp_path):
        cfg = TrainConfig(entries=micro_corpus, seed=12, **MICRO)
        path = tmp_path / "model.sadb"
        model = train(cfg, out_path=path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.speech_counts, model.speech_counts)

    def test_monitor_entries_do_not_change_the_model(self, micro_corpus, tmp_path):
        plain_cfg = TrainConfig(entries=micro_corpus, seed=13, **MICRO)
        mon_cfg = TrainConfig(
            entries=micro_corpus, seed=13, monitor_entries=micro_corpus[:1], **MICRO
        )
        p1, p2 = tmp_path / "plain.sadb", tmp_path / "mon.sadb"
        train(plain_cfg, out_path=p1)
        train(mon_cfg, out_path=p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_stage_progress_is_logged(self, micro_corpus, caplog):
        # perfbench reads each stage's time from these names
        cfg = TrainConfig(entries=micro_corpus, seed=14, monitor_entries=micro_corpus[:1], **MICRO)
        with caplog.at_level(logging.INFO, logger="streamsad.trainer"):
            train(cfg)
        stages = [r.getMessage().split()[1] for r in caplog.records if r.getMessage().startswith("stage ")]
        assert stages == [
            "features", "labeling-ubm", "acoustic-labels", "lda", "pca", "transform", "counts-ubm",
            "count-vectors", "supervector-ubm", "segments", "monitor-set", "mlp", "class-embeddings",
            "assemble",
        ]
        assert "mlp epoch" in caplog.text

    def test_empty_entries(self):
        with pytest.raises(TrainingError, match=r"\[manifest\]"):
            train(TrainConfig(entries=[]))

    def test_missing_audio_names_file_and_stage(self, micro_corpus, tmp_path):
        bad = [(tmp_path / "ghost.wav", tmp_path / "ghost.lab")]
        cfg = TrainConfig(entries=micro_corpus + bad, seed=15, **MICRO)
        with pytest.raises(TrainingError, match=r"\[features\].*ghost\.wav"):
            train(cfg)

    def test_single_class_corpus_rejected(self, micro_corpus, tmp_path):
        # relabel a copy of the corpus as wall-to-wall speech
        entries = []
        for i, (wav, _) in enumerate(micro_corpus):
            lab = tmp_path / f"allspeech{i}.lab"
            write_labels(lab, [SegmentLabel(0.0, 6.0, SPEECH)])
            entries.append((wav, lab))
        # all-speech halves the acoustic class inventory, so shrink lda_dim
        # enough for the LDA stage to pass and expose the counts-ubm check
        cfg = TrainConfig(entries=entries, seed=16, **dict(MICRO, lda_dim=3))
        with pytest.raises(TrainingError, match="non-speech class absent"):
            train(cfg)

    def test_mixed_sample_rates_rejected(self, micro_corpus, tmp_path):
        wav16 = tmp_path / "fast.wav"
        rng = np.random.default_rng(17)
        write_wav(wav16, 16000, rng.uniform(-0.3, 0.3, 16000 * 2))
        lab16 = tmp_path / "fast.lab"
        write_labels(lab16, [SegmentLabel(0.0, 2.0, NONSPEECH)])
        cfg = TrainConfig(entries=micro_corpus + [(wav16, lab16)], seed=18, **MICRO)
        with pytest.raises(TrainingError, match="sample rate"):
            train(cfg)

    def test_short_monitor_file_names_file_and_stage(self, micro_corpus, tmp_path):
        # monitor files go through the same reader as training files
        short = tmp_path / "short.wav"
        write_wav(short, 8000, np.zeros(80))
        lab = tmp_path / "short.lab"
        write_labels(lab, [SegmentLabel(0.0, 0.01, NONSPEECH)])
        cfg = TrainConfig(entries=micro_corpus, seed=19, monitor_entries=[(short, lab)], **MICRO)
        with pytest.raises(TrainingError, match=r"\[monitor-set\].*short\.wav: audio shorter"):
            train(cfg)


class TestBoundedMemory:
    """Training keeps its corpus in a scratch directory, not in memory."""

    @pytest.fixture
    def scratch_root(self, tmp_path, monkeypatch):
        root = tmp_path / "tmp"
        root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(root))
        return root

    def spy_mlp(self, monkeypatch, root, seen, fail=False):
        """Record the name and bytes of every file under the scratch root in
        seen when the MLP stage starts and when it returns."""
        real = trainer.train_mlp

        def record():
            seen.update((p.name, p.read_bytes()) for p in root.rglob("*") if p.is_file())

        def spy(*args, **kwargs):
            record()
            if fail:
                raise RuntimeError("boom")
            result = real(*args, **kwargs)
            record()
            return result

        monkeypatch.setattr(trainer, "train_mlp", spy)

    def test_scratch_removed_after_success(self, micro_corpus, scratch_root, monkeypatch, sgd_stores):
        seen = {}
        self.spy_mlp(monkeypatch, scratch_root, seen)
        train(TrainConfig(entries=micro_corpus, seed=20, **MICRO))
        # a store added back (a spilled intermediate, say), of any suffix, or
        # the MLP's float32 store left behind, shows here
        assert sorted(seen) == [
            "features.f64", "frames.f64", "nonspeech.f64", "speech.f64", "supervectors.f64",
        ]
        # the MLP's SGD rows, beside the supervectors while it trains: the
        # supervectors cast to float32 once, entries below float32's
        # smallest normal flushed to 0
        [(path, sgd_rows)] = sgd_stores
        assert path.name.startswith("supervectors.f64.") and path.suffix == ".f32"
        supervectors = np.frombuffer(seen["supervectors.f64"])
        want = supervectors.astype(np.float32)
        want[np.abs(supervectors) < np.finfo(np.float32).tiny] = 0.0
        assert sgd_rows == want.tobytes()
        assert list(scratch_root.iterdir()) == []

    def test_stored_frames_are_the_detector_cascade_of_each_file(
        self, micro_corpus, scratch_root, monkeypatch
    ):
        # the 24-d frames every later stage trains on are, file by file, the
        # bits the detector's cascade gives that file's features; the monitor
        # set's supervectors are the pure segments cut from each monitor
        # file's whole cascade output (cut per cascade block, a 6 s file's
        # segments would start off its 0.1 s grid after the first block)
        seen = {}
        self.spy_mlp(monkeypatch, scratch_root, seen)
        monitor = micro_corpus[1:]
        model = train(TrainConfig(entries=micro_corpus, seed=23, monitor_entries=monitor, **MICRO))

        def cascade_output(wav):
            frames = extract_features(read_wav(wav), model.feature_cfg)
            for stage in StreamingDetector(model).cascade:
                frames = stage.flush(frames)
            return frames

        stored = np.frombuffer(seen["frames.f64"]).reshape(-1, model.pca.output_dim)
        want = [cascade_output(wav) for wav, _ in micro_corpus]
        assert stored.tobytes() == np.concatenate(want).tobytes()
        want = []
        for wav, lab in monitor:
            frames = cascade_output(wav)
            n = len(frames) // 10
            mask = frame_labels(read_labels(lab), len(frames), model.feature_cfg.hop,
                                model.feature_cfg.window_length)[: n * 10].reshape(n, 10)
            pure = mask.all(axis=1) | ~mask.any(axis=1)
            want.append(block_supervectors(frames[: n * 10].reshape(n, 10, -1)[pure], model.supervector_ubm))
        assert len(frames) > 500 and not pure.all()
        assert seen["monitor.f64"] == np.concatenate(want).tobytes()

    def test_scratch_removed_after_a_stage_raises(self, micro_corpus, scratch_root, monkeypatch):
        seen = {}
        self.spy_mlp(monkeypatch, scratch_root, seen, fail=True)
        with pytest.raises(TrainingError, match=r"\[mlp\] boom"):
            train(TrainConfig(entries=micro_corpus, seed=21, **MICRO))
        assert "supervectors.f64" in seen
        assert list(scratch_root.iterdir()) == []

    def test_peak_memory_does_not_grow_with_the_corpus(self, tmp_path):
        # what may grow: one mask bit, class id and k-means++ distance per
        # frame, one label per segment; the frames themselves stay on disk
        # at these sizes whole-corpus frame arrays would outweigh the fixed
        # LDA scatter work: holding them traces 12.0 MB at 1x, 25.6 MB at 4x
        small = make_corpus(tmp_path / "small", n_files=8, duration=8.0, seed=31)
        large = small + make_corpus(tmp_path / "more", n_files=24, duration=8.0, seed=32)
        train(TrainConfig(entries=small[:2], seed=22, **MICRO))  # first-call caches are not the corpus's
        peaks = []
        for entries in (small, large):
            tracemalloc.start()
            try:
                train(TrainConfig(entries=entries, seed=22, **MICRO))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], f"peak traced memory {peaks[0]} B at 1x, {peaks[1]} B at 4x"
