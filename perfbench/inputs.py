"""Synthetic workload inputs with exact truth, made from the workload seed.

The generator lives here, not in the program, so a change to
`streamsad.synth` cannot change what the benchmark feeds the detector.
"Speech" is band-limited noise (300-2300 Hz) with a slow amplitude
modulation added to a white background at a chosen SNR; the burst
intervals are the truth. Files are written with the program's own
`write_wav`/`write_labels`, which the trainer and the CLI read back.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SAMPLE_RATE = 8000
SNR_RANGE = (5.0, 25.0)

# the detection model: a fixed corpus, so every run detects with the same model
MODEL_CORPUS_SEED = 424242
TRAIN_FILES, TRAIN_SECONDS = 6, 15.0
HELDOUT_FILES, HELDOUT_SECONDS = 6, 40.0
STREAM_PARTS, STREAM_PART_SECONDS = 10, 12.0
BATCH_FILES, BATCH_SECONDS = 10, (4.0, 30.0)


@dataclass
class Recording:
    samples: np.ndarray
    speech: list  # (start, end) seconds, sorted, disjoint

    @property
    def duration(self) -> float:
        return len(self.samples) / SAMPLE_RATE


def _rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def recording(rng: np.random.Generator, duration: float, snr_db: float) -> Recording:
    """Speech bursts of 1.5-4 s with 1-3 s gaps, 0.5 s of background at both ends."""
    n = int(round(duration * SAMPLE_RATE))
    samples = rng.standard_normal(n) * 10.0 ** (-snr_db / 20.0)
    speech = []
    t = rng.uniform(0.6, 1.5)
    while True:
        length = rng.uniform(1.5, 4.0)
        if t + length > duration - 0.5:
            break
        i0, i1 = int(round(t * SAMPLE_RATE)), int(round((t + length) * SAMPLE_RATE))
        spectrum = np.fft.rfft(rng.standard_normal(i1 - i0))
        freqs = np.fft.rfftfreq(i1 - i0, 1.0 / SAMPLE_RATE)
        spectrum[(freqs < 300.0) | (freqs > 2300.0)] = 0.0
        burst = np.fft.irfft(spectrum, i1 - i0)
        tau = np.arange(i1 - i0) / SAMPLE_RATE
        burst *= 0.6 + 0.4 * np.sin(2.0 * np.pi * rng.uniform(2.5, 6.0) * tau + rng.uniform(0, 2 * np.pi))
        samples[i0:i1] += burst / np.sqrt(np.mean(burst**2))
        speech.append((i0 / SAMPLE_RATE, i1 / SAMPLE_RATE))
        t += length + rng.uniform(1.0, 3.0)
    samples *= min(1.0, 0.9 / np.max(np.abs(samples)))
    return Recording(samples, speech)


def live_stream(seed: int) -> Recording:
    """One stream joined from recordings whose SNR follows a cosine over 5-25 dB."""
    phase = _rng(seed, 0).uniform(0.0, 2.0 * np.pi)
    parts, speech, offset = [], [], 0.0
    for k in range(STREAM_PARTS):
        snr = 15.0 + 10.0 * np.cos(phase + 2.0 * np.pi * k / STREAM_PARTS)
        rec = recording(_rng(seed, 1, k), STREAM_PART_SECONDS, snr)
        parts.append(rec.samples)
        speech += [(a + offset, b + offset) for a, b in rec.speech]
        offset += rec.duration
    return Recording(np.concatenate(parts), speech)


def write_recording(path: Path, rec: Recording) -> None:
    from streamsad.audio_io import NONSPEECH, SPEECH, SegmentLabel, write_labels, write_wav

    write_wav(path.with_suffix(".wav"), SAMPLE_RATE, rec.samples)
    segments, cursor = [], 0.0
    for a, b in rec.speech:
        segments += [SegmentLabel(cursor, a, NONSPEECH), SegmentLabel(a, b, SPEECH)]
        cursor = b
    segments.append(SegmentLabel(cursor, rec.duration, NONSPEECH))
    write_labels(path.with_suffix(".lab"), segments)


def read_pcm(path: Path) -> np.ndarray:
    """16-bit mono WAV samples scaled to [-1, 1), read with the standard library."""
    with wave.open(str(path), "rb") as fh:
        frames = fh.readframes(fh.getnframes())
    return np.frombuffer(frames, dtype="<i2").astype(np.float64) / 32768.0


def write_files(root: Path, seed: int, stream: int, count: int, durations, snrs) -> list:
    """Write count recordings; returns (wav path, truth) pairs."""
    root.mkdir(parents=True, exist_ok=True)
    out = []
    for i in range(count):
        rec = recording(_rng(seed, stream, i), float(durations[i]), float(snrs[i]))
        path = root / f"{stream}_{i:03d}"
        write_recording(path, rec)
        out.append((path.with_suffix(".wav"), rec))
    return out


def batch_files(root: Path, seed: int) -> list:
    """file_detect: files of different lengths and SNRs."""
    rng = _rng(seed, 2)
    durations = np.round(rng.uniform(*BATCH_SECONDS, BATCH_FILES), 2)
    snrs = rng.uniform(*SNR_RANGE, BATCH_FILES)
    return write_files(root, seed, 3, BATCH_FILES, durations, snrs)


def train_corpus(root: Path, seed: int) -> list:
    """Training files whose SNRs sweep 5-25 dB evenly; returns (wav, lab) entries."""
    snrs = np.linspace(*SNR_RANGE, TRAIN_FILES)
    files = write_files(root, seed, 4, TRAIN_FILES, [TRAIN_SECONDS] * TRAIN_FILES, snrs)
    return [(wav, wav.with_suffix(".lab")) for wav, _ in files]


def heldout_files(root: Path, seed: int) -> list:
    """train_default: held-out files for the trained model's DCF check."""
    snrs = np.linspace(*SNR_RANGE, HELDOUT_FILES)
    return write_files(root, seed, 5, HELDOUT_FILES, [HELDOUT_SECONDS] * HELDOUT_FILES, snrs)
