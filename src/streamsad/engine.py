"""The online detector: segment scoring, runtime adaptation, streaming I/O.

Every 10 feature frames (0.1 s at the 10 ms hop) the engine builds two
test vectors from the segment: L1-normalized posterior counts under the
large merged UBM, and an MLP embedding of the supervector under the small
UBM. Each is scored as cosine(test, speech model) − cosine(test, non-speech
model), the two scores are averaged, and the segment is called speech when
the fused score exceeds the current threshold (ties go to non-speech).

After every decision the engine refreshes its adapted state: the speech and
non-speech count-model vectors are pulled toward the mean of recently
detected segments of that class, and the threshold toward the mean fused
score of recent speech, each by a fixed fraction. Buffers are bounded ring
buffers, so memory stays constant; empty buffers leave the model values
untouched, which also makes a disabled-adaptation run identical to a
stateless detector. Only the count-based vectors adapt; the embedding
model vectors stay fixed.

So everything but the count-vector cosines, the threshold test and the
buffer update is independent of earlier decisions. `score_segments` takes
the segments each block of a push makes ready as one (S, n, D) block: the
count vectors, supervectors, embeddings and the embedding scores' products
come from batch-invariant kernels (one BLAS call per row or segment, as
`features.row_products`), and only the decision-dependent part runs per
segment. One segment is the block of S = 1.

Decisions depend only on frame values, never on how samples were chunked,
so feeding a file sample-by-sample or whole produces bit-identical traces.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from collections import deque
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .audio_io import MAX_SAMPLE_RATE, MIN_SAMPLE_RATE, NONSPEECH, SPEECH, AudioStream, SegmentLabel
from .context_transform import LDA_CONTEXT, PCA_CONTEXT, LinearTransform, cascade
from .embeddings import STORED_DTYPES, embed_batch, from_planes, narrowest, to_planes
from .features import FRONT_END, FeatureConfig, FeatureExtractor, chain_flush, chain_push, row_products
from .gmm import MIN_VARIANCE, Gmm, block_counts, block_supervectors

SEGMENT_FRAMES = 10
# a trailing partial segment is decided on its own if it has at least this
# many frames; shorter tails inherit the previous label
MIN_TAIL_FRAMES = 5


@dataclass(frozen=True)
class AdaptationConfig:
    """Runtime adaptation weights and buffer capacities.

    model_adaptation is the fraction of the adapted count vectors taken
    from the recent-segment buffers; threshold_adaptation likewise for the
    decision threshold. Buffer lengths are in segments (0.1 s each).
    """

    model_adaptation: float = 0.4
    threshold_adaptation: float = 0.1
    speech_buffer_len: int = 30
    nonspeech_buffer_len: int = 60
    enabled: bool = True

    def __post_init__(self):
        if not (0.0 <= self.model_adaptation <= 1.0):
            raise ValueError("model_adaptation must be in [0, 1]")
        if not (0.0 <= self.threshold_adaptation <= 1.0):
            raise ValueError("threshold_adaptation must be in [0, 1]")
        if self.speech_buffer_len < 1 or self.nonspeech_buffer_len < 1:
            raise ValueError("buffer lengths must be >= 1")


@dataclass(frozen=True)
class SmoothingConfig:
    """Label post-processing: fill short non-speech gaps, drop short speech.

    Zero durations leave merged segments as they are.
    """

    min_gap: float = 0.3
    min_speech: float = 0.2

    def __post_init__(self):
        if not (self.min_gap >= 0 and self.min_speech >= 0):  # NaN fails too
            raise ValueError("smoothing durations must be non-negative")


class ModelError(RuntimeError):
    """Detection met a value that finite samples cannot cause: the model is at fault."""


_VECTORS = ("speech_counts", "nonspeech_counts", "speech_embedding", "nonspeech_embedding")


@dataclass(frozen=True)
class SadModel:
    """What detection reads and nothing else: the sample rate, the LDA and
    PCA transforms, the counts and supervector UBMs, the MLP's first hidden
    (ReLU) layer that embeds a supervector, per-class model vectors, and the
    threshold. The front end is the build's own (`features.FRONT_END`), not a field."""

    feature_cfg: ClassVar[FeatureConfig] = FRONT_END
    sample_rate: int
    lda: LinearTransform
    pca: LinearTransform
    counts_ubm: Gmm
    supervector_ubm: Gmm
    embedding_weight: np.ndarray
    embedding_bias: np.ndarray
    speech_counts: np.ndarray
    nonspeech_counts: np.ndarray
    speech_embedding: np.ndarray
    nonspeech_embedding: np.ndarray
    base_threshold: float = 0.0

    def __post_init__(self):
        if self.lda.input_dim != LDA_CONTEXT.size * FRONT_END.output_dim:
            raise ValueError("LDA input dim does not match stacked feature dim")
        if self.pca.input_dim != PCA_CONTEXT.size * self.lda.output_dim:
            raise ValueError("PCA input dim does not match stacked LDA dim")
        gram = self.pca.matrix @ self.pca.matrix.T
        if np.max(np.abs(gram - np.eye(len(gram)))) >= 1e-6:
            raise ValueError("pca rows must be orthonormal")
        for name in ("counts_ubm", "supervector_ubm"):
            if getattr(self, name).dim != self.pca.output_dim:
                raise ValueError(f"{name} dim does not match transformed feature dim")
            if np.min(getattr(self, name).variances) < MIN_VARIANCE:
                raise ValueError(f"{name} has variances below {MIN_VARIANCE}, the floor training applies")
        width = self.supervector_ubm.n_components * self.supervector_ubm.dim
        w, b = self.embedding_weight, self.embedding_bias
        if w.ndim != 2 or w.shape[0] != width or b.shape != (w.shape[1],):
            raise ValueError(f"embedding layer does not chain from supervector width {width}")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValueError("embedding layer contains non-finite entries")
        for name in ("speech_counts", "nonspeech_counts"):
            vec = getattr(self, name)
            if vec.shape != (self.counts_ubm.n_components,):
                raise ValueError(f"{name} length does not match counts UBM size")
        for name in ("speech_embedding", "nonspeech_embedding"):
            if getattr(self, name).shape != b.shape:
                raise ValueError(f"{name} length does not match embedding width")
        for name in _VECTORS:
            vec = getattr(self, name)
            if not np.all(np.isfinite(vec)) or not np.any(vec):
                raise ValueError(f"{name} must be finite and nonzero")
        if np.array_equal(self.speech_counts, self.nonspeech_counts):
            raise ValueError("speech and non-speech count vectors are identical")
        if not (isinstance(self.sample_rate, int) and MIN_SAMPLE_RATE <= self.sample_rate <= MAX_SAMPLE_RATE):
            raise ValueError(f"sample_rate must be an integer in [{MIN_SAMPLE_RATE}, {MAX_SAMPLE_RATE}] Hz, "
                             f"got {self.sample_rate!r}")
        if not math.isfinite(self.base_threshold):
            raise ValueError("base_threshold must be finite")

    @cached_property
    def embedding_norms(self) -> tuple[float, float]:
        """Norms of the speech and non-speech embedding vectors, which never adapt."""
        return _norm(self.speech_embedding), _norm(self.nonspeech_embedding)


@dataclass(frozen=True)
class Decision:
    """One 0.1 s detector output with the scores and threshold behind it."""

    index: int
    start: float
    end: float
    label: str
    zero_score: float
    emb_score: float
    fused_score: float
    threshold: float


class RingBuffer:
    """The last `capacity` rows appended, oldest first, as one contiguous slice.

    Each row is written twice, at slot i and i + capacity of a doubled
    array, so the live rows are always one view with no copy, and summing
    it over axis 0 adds them in the order np.sum over a deque of the same
    rows does, bit for bit.
    """

    def __init__(self, capacity: int, width: int):
        self._slots = np.zeros((2 * capacity, width))
        self._capacity = capacity
        self._head = 0  # slot the next row goes to
        self._len = 0

    def append(self, row: np.ndarray) -> None:
        self._slots[self._head] = row
        self._slots[self._head + self._capacity] = row
        self._head = (self._head + 1) % self._capacity
        self._len = min(self._len + 1, self._capacity)

    def __len__(self) -> int:
        return self._len

    def rows(self) -> np.ndarray:
        """The live rows, oldest first, as a view of shape (len, width)."""
        end = self._head + self._capacity
        return self._slots[end - self._len : end]


class AdaptState:
    """Mutable per-stream adaptation state; starts equal to the model.

    The norms of the adapted count vectors are kept next to them and
    recomputed whenever the vectors change.
    """

    def __init__(self, model: SadModel, cfg: AdaptationConfig):
        width = model.counts_ubm.n_components
        self.speech_buffer = RingBuffer(cfg.speech_buffer_len, width)
        self.nonspeech_buffer = RingBuffer(cfg.nonspeech_buffer_len, width)
        self.speech_scores: deque = deque(maxlen=cfg.speech_buffer_len)
        self.adapted_speech_counts = model.speech_counts.copy()
        self.adapted_nonspeech_counts = model.nonspeech_counts.copy()
        self.speech_counts_norm = _norm(self.adapted_speech_counts)
        self.nonspeech_counts_norm = _norm(self.adapted_nonspeech_counts)
        self.adapted_threshold = model.base_threshold


def _norm(vector: np.ndarray) -> float:
    """float(np.linalg.norm(vector)) of a 1-D float vector, bit for bit: the
    square root of the vector's np.dot with itself, as numpy computes it."""
    return math.sqrt(vector.dot(vector))


def _cosine(dot: float, norm_a: float, norm_b: float) -> float:
    """Cosine similarity from a dot product and the two norms, clipped into
    [-1, 1] so rounding can never leak out; NaN passes through the clip.

    A zero-norm vector has no direction and so gives no evidence either way:
    its cosine is 0. A segment whose embedding is all zero (a dead ReLU
    layer) then scores 0 on that view and is still decided.
    """
    denominator = norm_a * norm_b
    if denominator == 0.0:
        return 0.0
    value = float(dot) / denominator
    return -1.0 if value < -1.0 else 1.0 if value > 1.0 else value


def _row_dots(rows: np.ndarray) -> np.ndarray:
    """np.dot of each row of an (S, k) block with itself.

    A stacked (1, k) @ (k, 1) product issues, per row, the BLAS dot that
    np.dot (and so np.linalg.norm) issues for one vector.
    """
    return (rows[:, np.newaxis, :] @ rows[:, :, np.newaxis])[:, 0, 0]


def _mixed(model_vector: np.ndarray, buffer: RingBuffer, alpha: float) -> np.ndarray:
    if not len(buffer):
        return model_vector.copy()
    mean = np.add.reduce(buffer.rows(), axis=0) / len(buffer)
    return (1.0 - alpha) * model_vector + alpha * mean


def _refresh(state: AdaptState, model: SadModel, cfg: AdaptationConfig, speech: bool) -> None:
    """Recompute what a decision of one class moves: its count vector, and for speech the threshold."""
    alpha = cfg.model_adaptation
    if not speech:
        state.adapted_nonspeech_counts = _mixed(model.nonspeech_counts, state.nonspeech_buffer, alpha)
        state.nonspeech_counts_norm = _norm(state.adapted_nonspeech_counts)
        return
    state.adapted_speech_counts = _mixed(model.speech_counts, state.speech_buffer, alpha)
    state.speech_counts_norm = _norm(state.adapted_speech_counts)
    if state.speech_scores:
        beta = cfg.threshold_adaptation
        mean_score = sum(state.speech_scores) / len(state.speech_scores)
        state.adapted_threshold = (1.0 - beta) * model.base_threshold + beta * mean_score
    else:
        state.adapted_threshold = model.base_threshold


def adapt(state: AdaptState, model: SadModel, cfg: AdaptationConfig) -> AdaptState:
    """Recompute adapted vectors/threshold from the current buffer contents.

    Each adapted quantity is a convex mix of its model value and the mean
    over its buffer; an empty buffer leaves it at the model value. Each is
    a function of its own buffer only, so after a decision the engine
    refreshes just the class that decision went to.
    """
    _refresh(state, model, cfg, speech=True)
    _refresh(state, model, cfg, speech=False)
    return state


def score_segments(
    segments: np.ndarray,
    model: SadModel,
    state: AdaptState,
    cfg: AdaptationConfig,
    first_index: int = 0,
    out: list | None = None,
) -> list[Decision]:
    """Score S segments of n transformed frames, one (S, n, D) block; decide and adapt in order.

    Segment s gets index first_index + s. Its decision is appended to out
    (a new list by default) as soon as it is made, so a caller that passes
    its own list keeps the decisions made before a segment raises.
    """
    segments = np.asarray(segments, dtype=np.float64)
    dim = model.pca.output_dim
    if segments.ndim != 3 or segments.shape[2] != dim:
        raise ValueError(f"expected (S, n, {dim}) transformed frames, got shape {segments.shape}")
    if segments.shape[1] == 0:
        raise ValueError("empty segment")
    out = [] if out is None else out

    # independent of earlier decisions: computed for the whole block
    counts = block_counts(segments, model.counts_ubm)
    counts_vecs = counts / np.add.reduce(counts, axis=-1, keepdims=True)
    counts_norms = np.sqrt(_row_dots(counts_vecs)).tolist()
    supervectors = block_supervectors(segments, model.supervector_ubm)
    layer = (model.embedding_weight, model.embedding_bias)
    embeddings = embed_batch(supervectors[:, np.newaxis, :], (layer,))[:, 0]
    emb_norms = np.sqrt(_row_dots(embeddings)).tolist()
    speech_dots = row_products(embeddings, model.speech_embedding).tolist()
    nonspeech_dots = row_products(embeddings, model.nonspeech_embedding).tolist()
    speech_norm, nonspeech_norm = model.embedding_norms

    # times come straight off the integer frame grid so decision i's end is
    # bit-identical to decision i+1's start
    hop = FRONT_END.hop
    n_frames = segments.shape[1]
    for s, counts_vec in enumerate(counts_vecs):
        zero_score = _cosine(
            np.dot(counts_vec, state.adapted_speech_counts), counts_norms[s], state.speech_counts_norm
        ) - _cosine(
            np.dot(counts_vec, state.adapted_nonspeech_counts), counts_norms[s], state.nonspeech_counts_norm
        )
        emb_score = _cosine(speech_dots[s], emb_norms[s], speech_norm) - _cosine(
            nonspeech_dots[s], emb_norms[s], nonspeech_norm
        )
        fused = (zero_score + emb_score) / 2.0
        # each view is a difference of clipped cosines, so only a NaN, which
        # fused then carries, can leave [-2, 2]: finite samples never make one
        if not (-2.0 <= fused <= 2.0):
            raise ModelError(f"score {fused} escaped [-2, 2]")

        threshold = state.adapted_threshold
        label = SPEECH if fused > threshold else NONSPEECH
        index = first_index + s
        start_frame = index * SEGMENT_FRAMES
        decision = Decision(
            index=index,
            start=start_frame * hop,
            end=(start_frame + n_frames) * hop,
            label=label,
            zero_score=zero_score,
            emb_score=emb_score,
            fused_score=fused,
            threshold=threshold,
        )
        if cfg.enabled:
            if label == SPEECH:
                state.speech_buffer.append(counts_vec)
                state.speech_scores.append(fused)
            else:
                state.nonspeech_buffer.append(counts_vec)
            _refresh(state, model, cfg, speech=label == SPEECH)
        out.append(decision)
    return out


class StreamingDetector:
    """Push samples in arbitrary chunks, collect Decisions as they complete.

    One instance per audio stream. Resetting between recordings is the
    caller's job (make a new instance); adaptation state deliberately
    persists across the whole stream.

    Each block the front end yields goes through the cascade, and every
    whole segment then pending goes to `score_segments`, before the next
    block is cut. When a segment raises, the decisions before it stand, it is
    consumed with its index, and the segments and samples after it stay
    pending; the next push or flush decides them.
    """

    def __init__(
        self,
        model: SadModel,
        adaptation: AdaptationConfig | None = None,
        smoothing: SmoothingConfig | None = None,
    ):
        self.model = model
        self.adaptation = adaptation or AdaptationConfig()
        self.smoothing = smoothing or SmoothingConfig()
        self.extractor = FeatureExtractor(model.sample_rate)
        self.cascade = cascade(model.lda, model.pca)
        self.state = AdaptState(model, self.adaptation)
        self.decisions: list[Decision] = []
        self.pending = np.empty((0, model.pca.output_dim))  # transformed frames not yet in a segment
        self.n_segments = 0
        self.tail_extra = 0.0

    def _consume(self, transformed: np.ndarray) -> list[Decision]:
        # nothing pending (a first push, or one starting on a segment edge): no join
        self.pending = np.concatenate([self.pending, transformed]) if len(self.pending) else transformed
        n = len(self.pending) // SEGMENT_FRAMES
        return self._decide(self.pending[: n * SEGMENT_FRAMES].reshape(n, SEGMENT_FRAMES, -1)) if n else []

    def _decide(self, segments: np.ndarray) -> list[Decision]:
        """Score a block of segments taken from the front of pending.

        If segment s raises, the decisions before it stand, it leaves
        pending together with its index (so it can neither stall the stream
        nor shift later times), and the segments after it stay pending for
        the next push or flush to decide.
        """
        first = len(self.decisions)
        try:
            score_segments(segments, self.model, self.state, self.adaptation, self.n_segments, self.decisions)
        finally:
            used = min(len(self.decisions) - first + 1, len(segments))
            self.pending = self.pending[used * segments.shape[1] :]
            self.n_segments += used
        return self.decisions[first:]

    def push(self, samples) -> list[Decision]:
        """Feed samples; returns the decisions they complete.

        Samples are a 1-D sequence of real numbers, as
        FeatureExtractor.push_blocks takes them: an array of any integer or
        float dtype and any strides, or a list. Any other shape or dtype, and
        NaN, Inf or overflowing samples, raise ValueError with the
        detector's state untouched.
        """
        new = []
        for frames in self.extractor.push_blocks(samples):
            new += self._consume(chain_push(self.cascade, frames))
        return new

    def flush(self) -> list[Decision]:
        """Finish the stream and decide the trailing partial segment."""
        if self.extractor.finished:
            return []
        new = self._consume(np.concatenate([*chain_flush(self.cascade, self.extractor.flush())]))

        if self.extractor.n_frames == 0:
            raise ValueError("audio shorter than one analysis window")
        if len(self.pending) >= MIN_TAIL_FRAMES:
            new += self._decide(self.pending[np.newaxis])
        elif len(self.pending):
            self.tail_extra = len(self.pending) * FRONT_END.hop
            self.pending = self.pending[:0]
        return new

    def segments(self) -> list[SegmentLabel]:
        """Merged, smoothed segmentation; call after flush()."""
        if not self.extractor.finished:
            raise RuntimeError("segments() before flush()")
        merged = merge_decisions(self.decisions, self.tail_extra)
        return smooth_segments(merged, self.smoothing)


def merge_decisions(decisions: list[Decision], tail_extra: float = 0.0) -> list[SegmentLabel]:
    """Run-length merge consecutive same-label decisions into segments.

    tail_extra seconds of undecided audio extend the final segment; with no
    decisions at all the whole span is called non-speech.
    """
    segments = _merge_adjacent([SegmentLabel(d.start, d.end, d.label) for d in decisions])
    if tail_extra > 0.0:
        if segments:
            last = segments[-1]
            segments[-1] = SegmentLabel(last.start, last.end + tail_extra, last.label)
        else:
            segments.append(SegmentLabel(0.0, tail_extra, NONSPEECH))
    return segments


def _merge_adjacent(segments: list[SegmentLabel]) -> list[SegmentLabel]:
    out: list[SegmentLabel] = []
    for seg in segments:
        if out and out[-1].label == seg.label:
            out[-1] = SegmentLabel(out[-1].start, seg.end, seg.label)
        else:
            out.append(seg)
    return out


def smooth_segments(segments: list[SegmentLabel], cfg: SmoothingConfig) -> list[SegmentLabel]:
    """Fill short interior non-speech gaps, then delete short speech runs."""
    filled = []
    for i, seg in enumerate(segments):
        interior = 0 < i < len(segments) - 1
        if (
            interior
            and seg.label == NONSPEECH
            and seg.duration < cfg.min_gap
            and segments[i - 1].label == SPEECH
            and segments[i + 1].label == SPEECH
        ):
            filled.append(SegmentLabel(seg.start, seg.end, SPEECH))
        else:
            filled.append(seg)
    filled = _merge_adjacent(filled)
    cleaned = [
        SegmentLabel(s.start, s.end, NONSPEECH)
        if s.label == SPEECH and s.duration < cfg.min_speech
        else s
        for s in filled
    ]
    return _merge_adjacent(cleaned)


@dataclass(frozen=True)
class DetectionResult:
    segments: list
    decisions: list


def stream_detect(
    audio: AudioStream,
    model: SadModel,
    adaptation: AdaptationConfig | None = None,
    smoothing: SmoothingConfig | None = None,
) -> DetectionResult:
    """Run the full detector over one recording."""
    if audio.sample_rate != model.sample_rate:
        raise ValueError(
            f"sample rate mismatch: model trained at {model.sample_rate} Hz, "
            f"audio is {audio.sample_rate} Hz"
        )
    detector = StreamingDetector(model, adaptation, smoothing)
    detector.push(audio.samples)
    detector.flush()
    return DetectionResult(segments=detector.segments(), decisions=detector.decisions)


TRACE_HEADER = "index,start,end,zero_score,emb_score,fused_score,theta_adapted,label"


def format_trace(decisions: list[Decision]) -> str:
    """Decision trace as CSV text, full float precision for oracle diffing."""
    lines = [TRACE_HEADER]
    for d in decisions:
        lines.append(
            f"{d.index},{d.start:.3f},{d.end:.3f},{d.zero_score:.17g},"
            f"{d.emb_score:.17g},{d.fused_score:.17g},{d.threshold:.17g},{d.label}"
        )
    return "\n".join(lines) + "\n"


def write_trace(decisions: list[Decision], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_trace(decisions))


# ---------------------------------------------------------------------------
# model bundle, version 4: magic, u32 version, u32 header length, a
# sorted-key JSON header, one zlib stream, and a u32 zlib.crc32 of every byte
# before it. The stream holds the arrays the header lists, in its order, each
# as the byte planes (`embeddings.to_planes`) of its little-endian values at
# the dtype the header tags it with: the sign-and-exponent byte of a float
# varies far less than its mantissa bytes, so planes deflate where
# interleaved values do not. The magic, the version and the CRC are checked
# before anything is parsed, so a damaged byte never reaches the parser, and
# the stream is inflated to exactly the bytes the header's shapes and tags
# imply. Each array is stored at the narrowest dtype that keeps every entry
# (`embeddings` owns that codec), so a save/load round trip is bit-exact.
# The bytes of a bundle depend on the zlib build, as its values depend on
# the BLAS build.

_MAGIC = b"SADB"
_VERSION = 4
_ZLIB_LEVEL = 1  # level 6 saves another 1% of the default bundle at 2.5 times the time
# deflate turns one stream byte into at most 1032 bytes
_MAX_INFLATION = 1032
_PREFIX = struct.Struct("<4sII")  # magic, version, header length
_CRC = struct.Struct("<I")
_TRANSFORM_PARTS, _GMM_PARTS = ("matrix", "mean_offset"), ("weights", "means", "variances")
_PARTS = {"lda": _TRANSFORM_PARTS, "pca": _TRANSFORM_PARTS,
          "counts_ubm": _GMM_PARTS, "supervector_ubm": _GMM_PARTS}
# what this build fixes and a bundle records: a load compares each with the
# header's as canonical JSON text, so 12.0 never stands in for 12
_BUILD = {
    "feature_cfg": asdict(FRONT_END),
    "lda_context": list(LDA_CONTEXT.offsets),
    "pca_context": list(PCA_CONTEXT.offsets),
}


def _bundle_arrays(model: SadModel) -> dict:
    """Every array of the model, by its bundle name, in bundle order."""
    arrays = {f"{name}.{part}": getattr(getattr(model, name), part)
              for name, parts in _PARTS.items() for part in parts}
    # the embedding layer keeps the name of the MLP layer it came from
    arrays["embedding.0.weight"], arrays["embedding.0.bias"] = model.embedding_weight, model.embedding_bias
    arrays.update((name, getattr(model, name)) for name in _VECTORS)
    return arrays


def save_model(model: SadModel, path) -> None:
    """Serialize a SadModel to one bundle file; the same model gives the same bytes."""
    stored = {name: narrowest(array) for name, array in _bundle_arrays(model).items()}
    header = {
        "arrays": [[name, list(array.shape), array.dtype.str] for name, array in stored.items()],
        "base_threshold": float(model.base_threshold),
        "sample_rate": model.sample_rate,
        **_BUILD,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    deflate = zlib.compressobj(_ZLIB_LEVEL)
    stream = [deflate.compress(to_planes(array)) for array in stored.values()] + [deflate.flush()]
    body = b"".join([_PREFIX.pack(_MAGIC, _VERSION, len(header_bytes)), header_bytes, *stream])
    with open(path, "wb") as fh:
        fh.write(body + _CRC.pack(zlib.crc32(body)))


def _inflated(stream: memoryview, total: int) -> bytes:
    """The stream's bytes, refused unless it inflates to exactly total bytes
    and ends there; a stream never inflates past total, so a small file
    cannot make the load hold more than its header declares."""
    if total > _MAX_INFLATION * len(stream):
        raise ValueError("array shapes overrun the stream")
    inflate = zlib.decompressobj()
    planes = inflate.decompress(stream, total + 1)  # one byte more shows a longer stream
    if len(planes) < total:
        raise ValueError("array shapes overrun the stream")
    if len(planes) > total:
        raise ValueError("the stream is longer than its array shapes")
    if not inflate.eof:
        raise ValueError("the stream has no end")
    if inflate.unused_data:
        raise ValueError("bytes after the end of the stream")
    return planes


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def _stored_arrays(header) -> list:
    """(name, shape, stored dtype, stored bytes) of each array the header
    lists, once the header is known to be one this build reads."""
    if not isinstance(header, dict):
        raise ValueError("header is not a JSON object")
    for key, value in _BUILD.items():
        given, built = _canonical(header[key]), _canonical(value)
        if given != built:
            raise ValueError(f"{key} is {given}, not this build's {built}")
    entries = []
    for name, shape, tag in header["arrays"]:
        if type(name) is not str or not all(type(dim) is int and dim >= 0 for dim in shape):
            raise ValueError(f"bad array entry {name!r} with shape {shape!r}")
        if tag not in STORED_DTYPES:
            raise ValueError(f"array {name} has unknown dtype tag {tag!r}")
        dtype = STORED_DTYPES[tag]
        entries.append((name, shape, dtype, dtype.itemsize * math.prod(shape)))
    return entries


def _parse_bundle(header, entries: list, planes: bytes) -> SadModel:
    view, offset, arrays = memoryview(planes), 0, {}
    for name, shape, dtype, size in entries:
        arrays[name] = from_planes(view[offset : offset + size], dtype, shape)
        offset += size
    groups = {name: [arrays[f"{name}.{part}"] for part in parts] for name, parts in _PARTS.items()}
    model = SadModel(
        sample_rate=header["sample_rate"],
        lda=LinearTransform(*groups["lda"]),
        pca=LinearTransform(*groups["pca"]),
        counts_ubm=Gmm(*groups["counts_ubm"]),
        supervector_ubm=Gmm(*groups["supervector_ubm"]),
        embedding_weight=arrays["embedding.0.weight"],
        embedding_bias=arrays["embedding.0.bias"],
        base_threshold=float(header["base_threshold"]),
        **{name: arrays[name] for name in _VECTORS},
    )
    if [entry[0] for entry in header["arrays"]] != list(_bundle_arrays(model)):
        raise ValueError("array names are not the ones this version writes")
    return model


def load_model(path) -> SadModel:
    """Read back a bundle written by save_model; any malformed bundle raises
    ValueError. Every array of the model is float64, read-only and in a
    buffer of its own that starts on a 64-byte boundary: numpy runs products
    of unaligned float64 arrays by another route, with other bits than the
    saved arrays give."""
    with open(path, "rb") as fh:
        raw = memoryview(fh.read())
    if raw[:4] != _MAGIC or len(raw) < _PREFIX.size + _CRC.size:
        raise ValueError(f"{path}: not a model bundle")
    _, version, header_len = _PREFIX.unpack_from(raw)
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported bundle version {version} (this build reads {_VERSION})")
    body = raw[: -_CRC.size]
    if zlib.crc32(body) != _CRC.unpack_from(raw, len(body))[0]:
        raise ValueError(f"{path}: checksum mismatch: the bundle is damaged or truncated")
    start = _PREFIX.size + header_len
    try:
        header = json.loads(bytes(body[_PREFIX.size : start]))
        entries = _stored_arrays(header)
        planes = _inflated(body[start:], sum(entry[3] for entry in entries))
        del raw, body  # the file's bytes go before the arrays are decoded beside the stream
        return _parse_bundle(header, entries, planes)
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError, zlib.error) as exc:
        raise ValueError(f"{path}: malformed bundle: {type(exc).__name__}: {exc}") from exc
