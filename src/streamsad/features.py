"""Acoustic front end: 36-d mean-normalized MFCC+delta frames at a 10 ms stride.

Per frame the static pipeline is pre-emphasis, Hamming window, magnitude
spectrum, mel filterbank (triangles starting at 150 Hz by default), log with
a 1e-10 floor, then an orthonormal DCT-II keeping coefficients 1..12 (C0
dropped). Statics get a causal sliding-window mean subtracted (1 s window),
then regression deltas and delta-deltas are appended.

Frame sequences are plain (T, D) float64 arrays; row t is the frame starting
at t * hop seconds. Every step after the statics is a CausalWindow: output t
reads input frames t - lookback .. t + lookahead, edges replicated. Windows
run as a chain (`chain_push`, `chain_flush`), each one's output the next
one's input. extract_features pushes a whole file through the incremental
FeatureExtractor and flushes it, and a stage used alone (cmn_window,
delta_window) does the same with flush(frames), so a stream produces the
same bits as a whole-file pass.

A stage runs every frame that is ready after a push as one block, and where
the blocks split depends on how the samples were chunked. Every kernel
therefore gives each row the same bits whatever block it is in ("batch
invariance"): every product of rows goes through `row_products` (a BLAS
matmul of a whole block changes some rows' bits with its shape), the FFT
runs row by row along axis 1, and sums run elementwise in a fixed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOG_FLOOR = 1e-10

# Most frames a caller takes through a chain of windows at once: 5 s at the
# default 10 ms hop. Bounds what a long push or file holds; the bits do not depend on it.
BLOCK_FRAMES = 500


@dataclass(frozen=True)
class FeatureConfig:
    window_length: float = 0.025
    hop: float = 0.010
    n_mfcc: int = 12
    mel_low: float = 150.0
    mel_high: float | None = None  # None means Nyquist
    n_mel_filters: int = 23
    cmn_window: float = 1.0
    delta_window: int = 2
    pre_emphasis: float = 0.97
    n_fft: int | None = None  # None means next power of two >= window samples

    def __post_init__(self):
        if not all(math.isfinite(value) for value in (self.window_length, self.hop, self.cmn_window)):
            raise ValueError("window_length, hop and cmn_window must be finite")
        if not (0.0 < self.hop <= self.window_length):
            raise ValueError("need 0 < hop <= window_length")
        if not (1 <= self.n_mfcc <= self.n_mel_filters):
            raise ValueError("need 1 <= n_mfcc <= n_mel_filters")
        if self.mel_low < 0:
            raise ValueError("mel_low must be non-negative")
        if self.cmn_window < self.hop:
            raise ValueError("cmn_window must cover at least one frame")
        if self.delta_window < 1:
            raise ValueError("delta_window must be >= 1")
        if not (0.0 <= self.pre_emphasis < 1.0):
            raise ValueError("pre_emphasis must be in [0, 1)")

    def window_samples(self, sample_rate: int) -> int:
        return int(round(self.window_length * sample_rate))

    def hop_samples(self, sample_rate: int) -> int:
        return int(round(self.hop * sample_rate))

    def cmn_frames(self) -> int:
        return int(round(self.cmn_window / self.hop))

    def fft_size(self, sample_rate: int) -> int:
        if self.n_fft is not None:
            return self.n_fft
        size = 1
        while size < self.window_samples(sample_rate):
            size *= 2
        return size

    @property
    def output_dim(self) -> int:
        return 3 * self.n_mfcc


def frame_count(n_samples: int, cfg: FeatureConfig, sample_rate: int) -> int:
    """Number of full analysis windows; pure function of length and cfg."""
    win = cfg.window_samples(sample_rate)
    hop = cfg.hop_samples(sample_rate)
    if n_samples < win:
        return 0
    return (n_samples - win) // hop + 1


def row_products(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """rows @ table for (T, k) rows and a (k, m) or (k,) table (a matrix's .T view is not copied), one
    BLAS call per C-contiguous row, so a row gets the bits it gets alone in a block of any size."""
    rows = np.ascontiguousarray(rows)
    return (rows[:, np.newaxis, :] @ table)[:, 0]


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(sample_rate: int, n_fft: int, n_filters: int, f_low: float, f_high: float) -> np.ndarray:
    """Triangular mel filters evaluated at FFT bin frequencies, (n_filters, n_fft//2 + 1)."""
    if not (0 <= f_low < f_high <= sample_rate / 2):
        raise ValueError(f"need 0 <= f_low < f_high <= Nyquist, got [{f_low}, {f_high}]")
    points = mel_to_hz(np.linspace(hz_to_mel(f_low), hz_to_mel(f_high), n_filters + 2))
    bins = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    bank = np.zeros((n_filters, len(bins)))
    for m in range(n_filters):
        left, center, right = points[m], points[m + 1], points[m + 2]
        rising = (bins - left) / (center - left)
        falling = (right - bins) / (right - center)
        bank[m] = np.maximum(0.0, np.minimum(rising, falling))
    return bank


def dct_matrix(n_mfcc: int, n_filters: int) -> np.ndarray:
    """Orthonormal DCT-II rows 1..n_mfcc (row 0, the overall level, excluded)."""
    n = np.arange(n_filters)
    rows = np.zeros((n_mfcc, n_filters))
    for k in range(1, n_mfcc + 1):
        rows[k - 1] = np.sqrt(2.0 / n_filters) * np.cos(np.pi * k * (2 * n + 1) / (2 * n_filters))
    return rows


class StaticMfcc:
    """Static MFCC computation with precomputed window/mel/DCT tables."""

    def __init__(self, cfg: FeatureConfig, sample_rate: int):
        self.cfg = cfg
        self.sample_rate = sample_rate
        self.win = cfg.window_samples(sample_rate)
        self.hop = cfg.hop_samples(sample_rate)
        self.n_fft = cfg.fft_size(sample_rate)
        if self.hop < 1:
            raise ValueError(f"hop of {cfg.hop} s is {self.hop} samples at {sample_rate} Hz; need at least 1")
        if self.n_fft < self.win:
            raise ValueError(f"n_fft {self.n_fft} smaller than window of {self.win} samples")
        f_high = cfg.mel_high if cfg.mel_high is not None else sample_rate / 2
        self.window = np.hamming(self.win)
        self.filterbank = mel_filterbank(sample_rate, self.n_fft, cfg.n_mel_filters, cfg.mel_low, f_high)
        self.dct = dct_matrix(cfg.n_mfcc, cfg.n_mel_filters)
        # largest sample magnitude with finite mel energies: pre-emphasis gains at most 1 + pre_emphasis,
        # a bin sums win windowed samples (window <= 1), an energy n_fft // 2 + 1 bins (weights <= 1)
        self.max_sample = np.finfo(float).max / ((1 + cfg.pre_emphasis) * self.win * (self.n_fft // 2 + 1))

    def windows(self, samples: np.ndarray) -> np.ndarray:
        """Every complete analysis window of 1-D samples as one (T, window_samples)
        view; row t starts at sample t * hop.

        The view is built straight on a C-contiguous float64 copy of the
        samples (no copy if they already are), with strides in that copy's
        own item size, so samples of any dtype or strides are read right.
        """
        samples = np.ascontiguousarray(samples, dtype=np.float64)
        n = max(0, (len(samples) - self.win) // self.hop + 1)
        step = samples.itemsize
        return np.ndarray((n, self.win), samples.dtype, samples, 0, (self.hop * step, step))

    def compute_block(self, frames: np.ndarray) -> np.ndarray:
        """Static MFCCs for a (T, window_samples) block of raw frames."""
        # the windowed frames fill the first window_samples columns of one (T, n_fft)
        # buffer whose pad columns are zeroed, so rfft makes no padded copy; np.empty,
        # as the fresh pages of np.zeros would fault in again on every block
        padded = np.empty((len(frames), self.n_fft))
        padded[:, self.win :] = 0.0
        emphasized = padded[:, : self.win]
        # pre-emphasis stays inside the window so a frame never depends on
        # samples outside its own analysis window
        np.multiply(frames[:, 0], 1.0 - self.cfg.pre_emphasis, out=emphasized[:, 0])
        np.multiply(frames[:, :-1], self.cfg.pre_emphasis, out=emphasized[:, 1:])
        np.subtract(frames[:, 1:], emphasized[:, 1:], out=emphasized[:, 1:])
        emphasized *= self.window
        spectrum = np.abs(np.fft.rfft(padded, axis=1))
        energies = row_products(spectrum, self.filterbank.T)
        log_energies = np.log(np.maximum(energies, LOG_FLOOR, out=energies), out=energies)
        return row_products(log_energies, self.dct.T)


class CausalWindow:
    """Streaming stage whose output frame t reads input frames t-lookback .. t+lookahead.

    kernel(context, start) maps lookback + n + lookahead consecutive input
    rows to the n outputs for frames start .. start + n - 1. Input frames
    outside the stream are edge replicas: the first frame stands in before
    the start and, at flush, the last frame after the end. Each push runs
    the kernel once over every newly ready frame (cutting long input into
    blocks is the caller's job) and holds back the last lookahead frames
    until more input or flush. The context the kernel gets is C-contiguous.
    """

    def __init__(self, lookback: int, lookahead: int, kernel):
        self.lookback = lookback
        self.lookahead = lookahead
        self.kernel = kernel
        self.context: np.ndarray | None = None  # input rows from frame start - lookback on
        self.start = 0  # index of the next output frame

    def push(self, frames: np.ndarray) -> np.ndarray:
        """Add (n, D) input frames; returns the outputs they completed."""
        frames = np.asarray(frames, dtype=np.float64)
        if self.context is None:
            if len(frames) == 0:
                return self._nothing(frames.shape[1])
            self.context = np.repeat(frames[:1], self.lookback, axis=0)
        self.context = np.concatenate([self.context, frames])
        return self._run()

    def flush(self, frames: np.ndarray) -> np.ndarray:
        """Push the last input frames and lookahead replicas of the last one:
        returns every remaining output."""
        frames = np.asarray(frames, dtype=np.float64)
        last = frames[-1:] if len(frames) or self.context is None else self.context[-1:]
        return self.push(np.concatenate([frames, np.repeat(last, self.lookahead, axis=0)]))

    def _run(self) -> np.ndarray:
        n = len(self.context) - self.lookback - self.lookahead
        if n <= 0:
            return self._nothing(self.context.shape[1])
        out = self.kernel(self.context, self.start)
        self.context = self.context[n:]
        self.start += n
        return out

    def _nothing(self, dim: int) -> np.ndarray:
        # the kernel run on no frames gives the empty block of the right width
        return self.kernel(np.zeros((self.lookback + self.lookahead, dim)), self.start)


def chain_push(windows, frames: np.ndarray) -> np.ndarray:
    """Push frames through a chain of windows, each one's output the next one's input."""
    for window in windows:
        frames = window.push(frames)
    return frames


def chain_flush(windows, frames: np.ndarray):
    """Push the chain's last input frames, then finish its windows first to
    last: yields, per window, what its flush releases, pushed through the
    windows after it."""
    for i, window in enumerate(windows):
        frames = window.flush(frames)
        yield chain_push(windows[i + 1 :], frames)
        frames = frames[:0]


def cmn_window(cfg: FeatureConfig) -> CausalWindow:
    """Causal sliding-window mean removal (the window includes the current frame).

    Each window is summed exactly, oldest frame first, so a long stream
    never drifts the way a running sum would. Near the stream start the
    window holds only the frames seen so far.
    """
    width = cfg.cmn_frames()

    def kernel(context: np.ndarray, start: int) -> np.ndarray:
        n, dim = len(context) - (width - 1), context.shape[1]
        if start < width - 1:
            context = context.copy()
            context[: width - 1 - start] = 0.0  # edge replicas from before the start
            count = np.minimum(np.arange(start + 1, start + n + 1), width)[:, None]
        else:
            count = width  # a full window: the bits of dividing by an array of width
        # (width, n, D) view whose window j holds rows j .. j + n - 1: a
        # reduction over its first axis adds frames oldest first. With one
        # output value that axis would become numpy's inner loop, which sums
        # pairwise, so that case accumulates instead.
        row = dim * context.itemsize
        windows = np.ndarray((width, n, dim), context.dtype, context, 0, (row, row, context.itemsize))
        if n * dim == 1:
            total = np.add.accumulate(windows, axis=0)[-1]
        else:
            total = np.add.reduce(windows, axis=0)
        return context[width - 1 :] - total / count

    return CausalWindow(width - 1, 0, kernel)


def delta_window(dim: int, window: int) -> CausalWindow:
    """Appends regression deltas of the last dim columns: (T, D) -> (T, D + dim)."""
    denom = 2.0 * sum(k * k for k in range(1, window + 1))

    def kernel(context: np.ndarray, start: int) -> np.ndarray:
        n, width = len(context) - 2 * window, context.shape[1]
        x = context[:, -dim:]
        delta = np.zeros((n, dim))
        for k in range(1, window + 1):
            delta += k * (x[window + k : window + k + n] - x[window - k : window - k + n])
        delta /= denom
        out = np.empty((n, width + dim))
        out[:, :width], out[:, width:] = context[window : window + n], delta
        return out

    return CausalWindow(window, window, kernel)


def extract_mfcc(audio, cfg: FeatureConfig | None = None) -> np.ndarray:
    """Static 12-d MFCCs for a whole AudioStream, (T, n_mfcc)."""
    cfg = cfg or FeatureConfig()
    static = StaticMfcc(cfg, audio.sample_rate)
    n = frame_count(len(audio.samples), cfg, audio.sample_rate)
    if n == 0:
        raise ValueError(
            f"audio shorter than one analysis window ({cfg.window_length * 1000:.0f} ms)"
        )
    return static.compute_block(static.windows(audio.samples))


def extract_features(audio, cfg: FeatureConfig | None = None) -> np.ndarray:
    """Full front end for a whole file: statics -> CMN -> +deltas, (T, 36).

    The whole file is one push and a flush of a FeatureExtractor, the path
    detection streams through.
    """
    cfg = cfg or FeatureConfig()
    extractor = FeatureExtractor(cfg, audio.sample_rate)
    frames = np.concatenate([extractor.push(audio.samples), extractor.flush()])
    if len(frames) == 0:
        raise ValueError(
            f"audio shorter than one analysis window ({cfg.window_length * 1000:.0f} ms)"
        )
    return frames


class FeatureExtractor:
    """Incremental front end: push samples in any chunking, get 36-d frames out.

    Statics pass through three stages: CMN (lookback only), deltas and
    delta-deltas (delta_window frames each way), so a push holds back the
    last 2 * delta_window frames until more audio arrives; flush() finishes
    them with the last frame replicated.
    """

    def __init__(self, cfg: FeatureConfig, sample_rate: int):
        self.cfg = cfg
        self.static = StaticMfcc(cfg, sample_rate)
        self.stages = (
            cmn_window(cfg),
            delta_window(cfg.n_mfcc, cfg.delta_window),
            delta_window(cfg.n_mfcc, cfg.delta_window),
        )
        self.pending = np.empty(0, dtype=np.float64)  # samples not yet in a frame
        self.n_frames = 0  # static frames computed so far
        self.finished = False

    def push_blocks(self, samples):
        """Feed samples; yields the newly completed (n, 36) frames, one block
        per run of at most BLOCK_FRAMES analysis windows.

        Samples are a 1-D sequence of real numbers: an array of any integer
        or float dtype and any strides, or a list. Any other shape or dtype
        (complex, bool, object, text) and NaN, Inf or overflowing samples
        (StaticMfcc.max_sample) anywhere in the push raise ValueError before
        any state changes. Each block's samples are cast and joined to
        `pending` as the block is cut, so a push holds one block's samples at
        a time. `pending` and `n_frames` move past a block's windows before it
        is yielded, and a consumer that stops early leaves the rest of the
        push pending once it closes or drops the generator.
        """
        if self.finished:
            raise RuntimeError("push after flush")
        samples = np.asarray(samples)
        if samples.ndim != 1 or samples.dtype.kind not in "iuf":
            raise ValueError(
                f"samples must be 1-D real numbers, got shape {samples.shape} of dtype {samples.dtype}"
            )
        bound = self.static.max_sample
        # the extremes, with no temporary the size of the push; NaN fails too
        if len(samples) and not (-bound <= np.minimum.reduce(samples) and np.maximum.reduce(samples) <= bound):
            raise ValueError(f"samples contain NaN or Inf, or magnitudes above {bound:.3g}")
        # each block joins pending to as many samples as its windows need, in
        # a new float64 array, so pending never aliases the caller's samples;
        # a pending longer than a block (the rest of a push stopped early) is
        # cut in place
        span = (BLOCK_FRAMES - 1) * self.static.hop + self.static.win
        taken = 0  # samples of the push moved into pending or a yielded block
        try:
            while taken < len(samples) or len(self.pending) >= self.static.win:
                need = span - len(self.pending)
                joined = self.pending if need <= 0 else np.concatenate(
                    [self.pending, samples[taken : taken + need]], dtype=np.float64)
                windows = self.static.windows(joined)[:BLOCK_FRAMES]
                if not len(windows):
                    self.pending, taken = joined, len(samples)
                    break
                statics = self.static.compute_block(windows)
                frames = chain_push(self.stages, statics)
                self.n_frames += len(statics)
                taken += len(joined) - len(self.pending)
                self.pending = joined[len(statics) * self.static.hop :]
                yield frames
        finally:  # a consumer that stops early leaves the rest of the push pending
            if taken < len(samples):
                self.pending = np.concatenate([self.pending, samples[taken:]], dtype=np.float64)

    def push(self, samples) -> np.ndarray:
        """Feed samples; returns the newly completed (n, 36) frames: the
        blocks push_blocks yields, joined."""
        return np.concatenate([np.empty((0, self.cfg.output_dim)), *self.push_blocks(samples)])

    def flush(self) -> np.ndarray:
        """Finish the stream; returns the remaining frames."""
        if self.finished:
            return np.empty((0, self.cfg.output_dim))
        self.finished = True
        return np.concatenate([*chain_flush(self.stages, np.empty((0, self.cfg.n_mfcc)))])
