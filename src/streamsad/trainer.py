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

Memory does not grow with the corpus. Each file's 36-d features, its
24-d frames (in file order, and split into speech and non-speech) and the
kept segments' supervectors are written as raw float64 files, about 1.3 KB
per frame, to a scratch directory (made by `tempfile` in its default
location, removed when `train` returns or raises), and every stage reads
them back in fixed-size blocks (`rowsource`): EM, the per-file passes
(`_file_blocks`: acoustic labels, LDA scatter, PCA moments, the 24-d
frames, the segments and the monitor set, each file through the
detector's own cascade and chain helpers), the count vectors and the
MLP. Only per-frame scalars (the speech mask,
the acoustic class ids, k-means++ distances), per-segment labels and the
one file being read are held whole.
"""

from __future__ import annotations

import itertools
import logging
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .audio_io import SPEECH, AudioFormatError, SegmentLabel, read_labels, read_wav
from .context_transform import LDA_CONTEXT, PCA_CONTEXT, LdaScatter, PcaMoments, acoustic_labels, cascade
from .embeddings import class_embeddings, train_mlp
from .engine import SEGMENT_FRAMES, SadModel, save_model
from .features import BLOCK_FRAMES, FeatureConfig, chain_flush, chain_push, extract_features
from .gmm import block_counts, block_supervectors, merge_gmms, train_gmm
from .rowsource import ArrayRows, SpilledRows

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
        if not (
            isinstance(self.hidden_dims, tuple)
            and self.hidden_dims
            and all(isinstance(d, int) and not isinstance(d, bool) and d > 0 for d in self.hidden_dims)
        ):
            raise ValueError(
                f"hidden_dims must be a non-empty tuple of positive ints, got {self.hidden_dims!r}"
            )
        # checked here, not after the EM and LDA stages that run before the MLP and the bundle
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        if not np.isfinite(self.base_threshold):
            raise ValueError(f"base_threshold must be finite, got {self.base_threshold!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


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
    failure is raised as a ValueError that names the audio file once.
    """
    try:
        audio = read_wav(audio_path)
        if sample_rate is not None and audio.sample_rate != sample_rate:
            raise ValueError(f"sample rate {audio.sample_rate} differs from corpus rate {sample_rate}")
        frames = extract_features(audio, feat_cfg)
        mask = frame_labels(read_labels(label_path), len(frames), feat_cfg.hop, feat_cfg.window_length)
    except AudioFormatError:
        raise  # its message starts with the path already
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
    supervectors = block_supervectors(segments, ubm)
    return supervectors, windows[pure, 0], n_segments, int(n_segments - pure.sum())


def _file_blocks(store, spans, windows=tuple):
    """Every training pass over a per-frame row source: each file's row
    span read in BLOCK_FRAMES blocks and pushed through the chain of windows
    that windows() builds fresh for that file, then each window's flush
    tail. Yields (row of the block's first frame, block) for each non-empty
    block; a window's output does not depend on where its input is cut, so
    a file's frames get the bits the detector gives them."""
    for first, stop in spans:
        chain = windows()
        pushed = (chain_push(chain, block) for block in store.blocks(BLOCK_FRAMES, first, stop))
        for block in itertools.chain(pushed, chain_flush(chain, np.empty((0, store.dim)))):
            if len(block):
                yield first, block
                first += len(block)


def train(cfg: TrainConfig, out_path=None) -> SadModel:
    """Run the full pipeline; optionally serialize the bundle to out_path.

    The corpus's frames and supervectors live in a scratch directory for
    the call, removed when it returns or raises. An out_path that cannot
    be written is refused before the first stage runs.
    """
    if not cfg.entries:
        raise TrainingError("manifest", "no training entries")
    if out_path is not None and not Path(out_path).parent.is_dir():
        raise TrainingError("output", f"{Path(out_path).parent} is not a directory")
    with tempfile.TemporaryDirectory(prefix="streamsad-train-") as scratch:
        return _train(cfg, Path(scratch), out_path)


def _train(cfg: TrainConfig, scratch: Path, out_path) -> SadModel:
    feat_cfg = cfg.feature_cfg

    features = SpilledRows(scratch / "features.f64", feat_cfg.output_dim)
    masks: list[np.ndarray] = []
    sample_rate = None
    with _stage("features"):
        for audio_path, label_path in cfg.entries:
            frames, mask, sample_rate = _read_entry(audio_path, label_path, feat_cfg, sample_rate)
            features.append(frames)
            masks.append(mask)
        # every later per-frame store keeps these per-file row ranges
        ends = np.cumsum([len(m) for m in masks]).tolist()
        spans = list(zip([0] + ends[:-1], ends))
        speech_mask = np.concatenate(masks)
        del masks, frames, mask  # the last file's frames are on disk now
        n_frames = len(speech_mask)
        logger.info(
            "corpus: %d files, %d frames, %.1f%% speech",
            len(spans), n_frames, 100.0 * np.count_nonzero(speech_mask) / max(n_frames, 1),
        )

    with _stage("labeling-ubm"):
        labeling_ubm = train_gmm(features, cfg.labeling_ubm_size, cfg.gmm_iters, seed=cfg.seed)

    with _stage("acoustic-labels"):
        class_ids = np.concatenate([
            acoustic_labels(block, labeling_ubm, speech_mask[first : first + len(block)])
            for first, block in _file_blocks(features, spans)
        ])

    with _stage("lda"):
        scatter = LdaScatter(LDA_CONTEXT.size * feat_cfg.output_dim)
        # the LDA stage of the cascade, stacking without a projection
        for first, stacked in _file_blocks(features, spans, lambda: cascade()[:1]):
            scatter.add(stacked, class_ids[first : first + len(stacked)])
        lda = scatter.finalize(cfg.lda_dim)
        del class_ids

    with _stage("pca"):
        moments = PcaMoments(PCA_CONTEXT.size * cfg.lda_dim)
        for _, stacked in _file_blocks(features, spans, lambda: cascade(lda)):
            moments.add(stacked)
        pca = moments.finalize(cfg.pca_dim)

    transformed = SpilledRows(scratch / "frames.f64", cfg.pca_dim)
    speech = SpilledRows(scratch / "speech.f64", cfg.pca_dim)
    nonspeech = SpilledRows(scratch / "nonspeech.f64", cfg.pca_dim)
    with _stage("transform"):
        for first, frames24 in _file_blocks(features, spans, lambda: cascade(lda, pca)):
            is_speech = speech_mask[first : first + len(frames24)]
            transformed.append(frames24)
            speech.append(frames24[is_speech])
            nonspeech.append(frames24[~is_speech])

    with _stage("counts-ubm"):
        if not len(speech):
            raise TrainingError("counts-ubm", "speech class absent from corpus")
        if not len(nonspeech):
            raise TrainingError("counts-ubm", "non-speech class absent from corpus")
        speech_gmm = train_gmm(speech, cfg.counts_ubm_per_class, cfg.gmm_iters, seed=cfg.seed + 1)
        nonspeech_gmm = train_gmm(nonspeech, cfg.counts_ubm_per_class, cfg.gmm_iters, seed=cfg.seed + 2)
        counts_ubm = merge_gmms(speech_gmm, nonspeech_gmm)

    with _stage("count-vectors"):
        # each block of class frames as one segment, through the detector's counts-only pass
        speech_stats, nonspeech_stats = (
            sum(block_counts(block[np.newaxis], counts_ubm)[0] for block in store.blocks(BLOCK_FRAMES))
            for store in (speech, nonspeech)
        )
        speech_counts = speech_stats / speech_stats.sum()
        nonspeech_counts = nonspeech_stats / nonspeech_stats.sum()

    with _stage("supervector-ubm"):
        supervector_ubm = train_gmm(transformed, cfg.supervector_ubm_size, cfg.gmm_iters, seed=cfg.seed + 3)

    supervectors = SpilledRows(scratch / "supervectors.f64", supervector_ubm.means.size)
    with _stage("segments"):
        labels, candidates, dropped = [], 0, 0
        # BLOCK_FRAMES is a multiple of SEGMENT_FRAMES, so every block
        # starts on a segment boundary of its file
        for first, frames24 in _file_blocks(transformed, spans):
            svs, labs, n, n_dropped = _cut_segments(
                frames24, speech_mask[first : first + len(frames24)], supervector_ubm
            )
            supervectors.append(svs)
            labels.append(labs)
            candidates, dropped = candidates + n, dropped + n_dropped
        seg_labels = np.concatenate(labels)
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
            mon_svs = SpilledRows(scratch / "monitor.f64", supervector_ubm.means.size)
            mon_labels: list[np.ndarray] = []
            for audio_path, label_path in cfg.monitor_entries:
                frames, mask, _ = _read_entry(audio_path, label_path, feat_cfg, sample_rate)
                # the file's whole cascade output, so segments start on its segment grid
                blocks = _file_blocks(ArrayRows(frames), [(0, len(frames))], lambda: cascade(lda, pca))
                frames = np.concatenate([block for _, block in blocks])
                svs, labs, _, _ = _cut_segments(frames, mask, supervector_ubm)
                mon_svs.append(svs)
                mon_labels.append(labs)
            if len(mon_svs):
                monitor = (mon_svs, np.concatenate(mon_labels))

    with _stage("mlp"):
        result = train_mlp(
            supervectors,
            seg_labels,
            epochs=cfg.mlp_epochs,
            seed=cfg.seed + 4,
            hidden_dims=cfg.hidden_dims,
            learning_rate=cfg.learning_rate,
            batch_size=cfg.batch_size,
            monitor=monitor,
        )
        for epoch, loss in enumerate(result.train_losses):
            extra = ""
            if result.monitor_losses:
                extra = f"  monitor {result.monitor_losses[epoch]:.4f}"
            logger.info("mlp epoch %2d  train loss %.4f%s", epoch, loss, extra)
        # detection embeds with the first hidden layer alone
        weight, bias = result.model.weights[0], result.model.biases[0]

    with _stage("class-embeddings"):
        speech_embedding, nonspeech_embedding = class_embeddings(
            supervectors, seg_labels, [(weight, bias)]
        )

    with _stage("assemble"):
        model = SadModel(
            feature_cfg=feat_cfg,
            sample_rate=sample_rate,
            lda=lda,
            pca=pca,
            counts_ubm=counts_ubm,
            supervector_ubm=supervector_ubm,
            embedding_weight=weight,
            embedding_bias=bias,
            speech_counts=speech_counts,
            nonspeech_counts=nonspeech_counts,
            speech_embedding=speech_embedding,
            nonspeech_embedding=nonspeech_embedding,
            base_threshold=cfg.base_threshold,
        )
        if out_path is not None:
            save_model(model, out_path)
    return model
