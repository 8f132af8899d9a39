"""End-to-end training: labeled WAV corpus in, serialized detector model out.

The pipeline runs in fixed stages: extract 36-d features for every file,
train the acoustic-labeling UBM, derive acoustic-by-class labels, fit the
LDA and PCA context transforms, re-transform the corpus to 24-d, fit the
per-class count UBMs and merge them, derive the L1-normalized class count
vectors, fit the supervector UBM, cut pure 10-frame segments into
supervectors and train the MLP, average the class embeddings, and assemble
the bundle. The labeling UBM and the MLP layers after the embedding serve
training only and stay out of the model. Any failure is reported with the
stage it happened in.

Per-stage seeds are derived from the config seed, so the pipeline is
deterministic end to end.
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .audio_io import SPEECH, SegmentLabel, read_labels, read_wav
from .context_transform import (
    LDA_CONTEXT,
    PCA_CONTEXT,
    LdaScatter,
    PcaMoments,
    acoustic_labels,
    context_window,
    stack_context_all,
)
from .embeddings import class_embeddings, make_supervector, train_mlp
from .engine import SEGMENT_FRAMES, SadModel, save_model
from .features import FeatureConfig, extract_features
from .gmm import accumulate_stats, block_stats, merge_gmms, train_gmm

logger = logging.getLogger(__name__)

# fraction of 10-frame segments dropped for straddling a label boundary
# above which the corpus labeling looks suspect
DROP_WARN_FRACTION = 0.05


class TrainingError(RuntimeError):
    """A pipeline stage failed; the stage name prefixes the message."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass
class TrainConfig:
    """Corpus entries plus every tunable of the pipeline, shipped defaults."""

    entries: list
    feature_cfg: FeatureConfig = field(default_factory=FeatureConfig)
    labeling_ubm_size: int = 32
    counts_ubm_per_class: int = 64
    supervector_ubm_size: int = 32
    lda_dim: int = 12
    pca_dim: int = 24
    gmm_iters: int = 20
    hidden_dims: tuple = (256, 128, 64)
    mlp_epochs: int = 30
    select_epoch: int | None = None
    learning_rate: float = 0.01
    batch_size: int = 256
    base_threshold: float = 0.0
    seed: int = 0
    monitor_entries: list | None = None

    def __post_init__(self):
        sizes = (
            self.labeling_ubm_size,
            self.counts_ubm_per_class,
            self.supervector_ubm_size,
            self.lda_dim,
            self.pca_dim,
            self.gmm_iters,
            self.mlp_epochs + 1,
            self.batch_size,
        )
        if any(s <= 0 for s in sizes):
            raise ValueError("sizes, iteration counts and dims must be positive")
        if self.lda_dim > 2 * self.labeling_ubm_size - 1:
            raise ValueError("lda_dim must be <= 2*labeling_ubm_size - 1 (class-count rank bound)")
        if self.pca_dim > self.lda_dim * PCA_CONTEXT.size:
            raise ValueError("pca_dim exceeds stacked LDA dimension")


def load_manifest(path) -> list:
    """Read `audio<TAB>labels` lines; relative paths resolve next to the manifest."""
    path = Path(path)
    entries = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'audio<TAB>labels', got {len(parts)} fields")
            audio, labels = (Path(p) for p in parts)
            base = path.parent
            entries.append((
                audio if audio.is_absolute() else base / audio,
                labels if labels.is_absolute() else base / labels,
            ))
    return entries


def frame_labels(labels: list[SegmentLabel], n_frames: int, hop: float, window: float) -> np.ndarray:
    """Boolean speech mask per frame, judged at each frame's center time.

    Segments are half-open, so a boundary exactly on a frame center assigns
    the frame to the segment starting there; uncovered time is non-speech.
    """
    centers = np.arange(n_frames) * hop + window / 2.0
    mask = np.zeros(n_frames, dtype=bool)
    for seg in labels:
        if seg.label == SPEECH:
            mask |= (centers >= seg.start) & (centers < seg.end)
    return mask


@contextmanager
def _stage(name: str):
    start = time.perf_counter()
    try:
        yield
    except TrainingError:
        raise
    except Exception as exc:
        raise TrainingError(name, str(exc)) from exc
    logger.info("stage %-16s %6.2f s", name, time.perf_counter() - start)


def _read_entry(audio_path, label_path, feat_cfg: FeatureConfig, sample_rate: int | None):
    """Features, frame speech mask and sample rate of one manifest entry.

    sample_rate, when given, is the corpus rate the file must have. Any
    failure is raised as a ValueError that names the audio file.
    """
    try:
        audio = read_wav(audio_path)
        if sample_rate is not None and audio.sample_rate != sample_rate:
            raise ValueError(f"sample rate {audio.sample_rate} differs from corpus rate {sample_rate}")
        frames = extract_features(audio, feat_cfg)
        mask = frame_labels(read_labels(label_path), len(frames), feat_cfg.hop, feat_cfg.window_length)
    except Exception as exc:
        raise ValueError(f"{audio_path}: {exc}") from exc
    return frames, mask, audio.sample_rate


def _cut_segments(frames24: np.ndarray, mask: np.ndarray, ubm) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Non-overlapping pure-label 10-frame segments as supervectors.

    Returns (supervectors, labels, n_candidates, n_dropped); segments whose
    frames disagree on the label are dropped, not majority-voted. The kept
    segments are scored as one block, through the kernel detection uses.
    """
    n_segments = len(frames24) // SEGMENT_FRAMES
    n_frames = n_segments * SEGMENT_FRAMES
    windows = mask[:n_frames].reshape(n_segments, SEGMENT_FRAMES)
    pure = windows.all(axis=1) | ~windows.any(axis=1)
    segments = frames24[:n_frames].reshape(n_segments, SEGMENT_FRAMES, frames24.shape[1])[pure]
    supervectors = make_supervector(block_stats(segments, ubm))
    return supervectors, windows[pure, 0], n_segments, int(n_segments - pure.sum())


def train(cfg: TrainConfig, out_path=None) -> SadModel:
    """Run the full pipeline; optionally serialize the bundle to out_path."""
    if not cfg.entries:
        raise TrainingError("manifest", "no training entries")
    feat_cfg = cfg.feature_cfg

    features: list[np.ndarray] = []
    masks: list[np.ndarray] = []
    sample_rate = None
    with _stage("features"):
        for audio_path, label_path in cfg.entries:
            frames, mask, sample_rate = _read_entry(audio_path, label_path, feat_cfg, sample_rate)
            features.append(frames)
            masks.append(mask)
        n_frames = sum(len(f) for f in features)
        n_speech = int(sum(m.sum() for m in masks))
        logger.info(
            "corpus: %d files, %d frames, %.1f%% speech",
            len(features), n_frames, 100.0 * n_speech / max(n_frames, 1),
        )

    with _stage("labeling-ubm"):
        labeling_ubm = train_gmm(
            np.concatenate(features), cfg.labeling_ubm_size, cfg.gmm_iters, seed=cfg.seed
        )

    with _stage("acoustic-labels"):
        class_ids = [acoustic_labels(f, labeling_ubm, m) for f, m in zip(features, masks)]

    with _stage("lda"):
        scatter = LdaScatter(LDA_CONTEXT.size * feat_cfg.output_dim)
        for frames, ids in zip(features, class_ids):
            scatter.add(stack_context_all(frames, LDA_CONTEXT), ids)
        lda = scatter.finalize(cfg.lda_dim)

    with _stage("pca"):
        reduced = [context_window(LDA_CONTEXT, lda).flush(f) for f in features]
        moments = PcaMoments(PCA_CONTEXT.size * cfg.lda_dim)
        for frames in reduced:
            moments.add(stack_context_all(frames, PCA_CONTEXT))
        pca = moments.finalize(cfg.pca_dim)

    with _stage("transform"):
        transformed = [context_window(PCA_CONTEXT, pca).flush(f) for f in reduced]
        del reduced

    with _stage("counts-ubm"):
        speech_frames = [f[m] for f, m in zip(transformed, masks) if m.any()]
        nonspeech_frames = [f[~m] for f, m in zip(transformed, masks) if not m.all()]
        if not speech_frames:
            raise TrainingError("counts-ubm", "speech class absent from corpus")
        if not nonspeech_frames:
            raise TrainingError("counts-ubm", "non-speech class absent from corpus")
        speech_gmm = train_gmm(
            np.concatenate(speech_frames), cfg.counts_ubm_per_class, cfg.gmm_iters, seed=cfg.seed + 1
        )
        nonspeech_gmm = train_gmm(
            np.concatenate(nonspeech_frames), cfg.counts_ubm_per_class, cfg.gmm_iters, seed=cfg.seed + 2
        )
        counts_ubm = merge_gmms(speech_gmm, nonspeech_gmm, weight_speech=0.5)

    with _stage("count-vectors"):
        speech_stats = sum(accumulate_stats(f, counts_ubm).zero_order for f in speech_frames)
        nonspeech_stats = sum(accumulate_stats(f, counts_ubm).zero_order for f in nonspeech_frames)
        speech_counts = speech_stats / speech_stats.sum()
        nonspeech_counts = nonspeech_stats / nonspeech_stats.sum()

    with _stage("supervector-ubm"):
        supervector_ubm = train_gmm(
            np.concatenate(transformed), cfg.supervector_ubm_size, cfg.gmm_iters, seed=cfg.seed + 3
        )

    with _stage("segments"):
        svs, labels, candidates, dropped = zip(
            *(_cut_segments(frames, mask, supervector_ubm) for frames, mask in zip(transformed, masks))
        )
        supervectors, seg_labels = np.concatenate(svs), np.concatenate(labels)
        candidates, dropped = sum(candidates), sum(dropped)
        fraction = dropped / max(candidates, 1)
        message = (
            f"segments: {candidates - dropped} kept, {dropped} dropped "
            f"({100.0 * fraction:.1f}%) for straddling a label boundary"
        )
        if fraction > DROP_WARN_FRACTION:
            logger.warning(message)
        else:
            logger.info(message)

    monitor = None
    if cfg.monitor_entries:
        with _stage("monitor-set"):
            mon_svs: list[np.ndarray] = []
            mon_labels: list[np.ndarray] = []
            for audio_path, label_path in cfg.monitor_entries:
                frames, mask, _ = _read_entry(audio_path, label_path, feat_cfg, sample_rate)
                reduced = context_window(LDA_CONTEXT, lda).flush(frames)
                frames24 = context_window(PCA_CONTEXT, pca).flush(reduced)
                svs, labs, _, _ = _cut_segments(frames24, mask, supervector_ubm)
                mon_svs.append(svs)
                mon_labels.append(labs)
            mon_x = np.concatenate(mon_svs)
            if len(mon_x):
                monitor = (mon_x, np.concatenate(mon_labels))

    with _stage("mlp"):
        result = train_mlp(
            supervectors,
            seg_labels,
            epochs=cfg.mlp_epochs,
            seed=cfg.seed + 4,
            hidden_dims=cfg.hidden_dims,
            learning_rate=cfg.learning_rate,
            batch_size=cfg.batch_size,
            select_epoch=cfg.select_epoch,
            monitor=monitor,
        )
        for epoch, loss in enumerate(result.train_losses):
            extra = ""
            if result.monitor_losses:
                extra = f"  monitor {result.monitor_losses[epoch]:.4f}"
            logger.info("mlp epoch %2d  train loss %.4f%s", epoch, loss, extra)
        logger.info("mlp selected epoch %d", result.model.epoch)
        embedding_layers = result.model.embedding_layers

    with _stage("class-embeddings"):
        speech_embedding, nonspeech_embedding = class_embeddings(
            supervectors, seg_labels, embedding_layers
        )

    with _stage("assemble"):
        model = SadModel(
            feature_cfg=feat_cfg,
            sample_rate=sample_rate,
            lda=lda,
            pca=pca,
            counts_ubm=counts_ubm,
            supervector_ubm=supervector_ubm,
            embedding_layers=embedding_layers,
            speech_counts=speech_counts,
            nonspeech_counts=nonspeech_counts,
            speech_embedding=speech_embedding,
            nonspeech_embedding=nonspeech_embedding,
            base_threshold=cfg.base_threshold,
        )
        if out_path is not None:
            save_model(model, out_path)
    return model
