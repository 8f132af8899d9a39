"""WAV decoding and tab-separated segment label files.

Audio input is deliberately restricted to mono 16-bit PCM WAV so that a
damaged or mislabeled file fails loudly with a message naming the actual
problem (format code, channel count, bit depth, truncation) instead of
producing garbage samples.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPEECH = "speech"
NONSPEECH = "non-speech"
LABEL_NAMES = (SPEECH, NONSPEECH)

# the rates a WAV file or a bundle may give; the rate sizes the front end's
# window and FFT, and a header may claim up to 4.29 GHz
MIN_SAMPLE_RATE = 8000
MAX_SAMPLE_RATE = 192000

# int16 full scale; decoded samples live in [-1, 1)
_SCALE = 32768.0


class AudioFormatError(ValueError):
    """A WAV file could not be decoded as mono 16-bit PCM."""


class LabelFileError(ValueError):
    """A segment label file is malformed."""


@dataclass(frozen=True)
class AudioStream:
    """Decoded audio: float64 samples in [-1, 1] plus the sample rate."""

    sample_rate: int
    samples: np.ndarray

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True, order=True)
class SegmentLabel:
    """Half-open labeled time interval [start, end) in seconds."""

    start: float
    end: float
    label: str

    def __post_init__(self):
        if not (0.0 <= self.start < self.end < math.inf):
            raise ValueError(
                f"segment must satisfy 0 <= start < end with finite times, got [{self.start}, {self.end})"
            )
        if self.label not in LABEL_NAMES:
            raise ValueError(f"unknown label {self.label!r}, expected one of {LABEL_NAMES}")

    @property
    def duration(self) -> float:
        return self.end - self.start


def validate_segments(segments) -> None:
    """Raise if segments are not sorted by start and non-overlapping."""
    prev = None
    for seg in segments:
        if prev is not None:
            if seg.start < prev.start:
                raise ValueError(f"segments out of order at [{seg.start}, {seg.end})")
            if seg.start < prev.end:
                raise ValueError(
                    f"segments overlap: [{prev.start}, {prev.end}) and [{seg.start}, {seg.end})"
                )
        prev = seg


def read_wav(path) -> AudioStream:
    """Decode a mono 16-bit PCM WAV file.

    Raises AudioFormatError naming the offending property for anything
    this engine does not accept: non-PCM encodings, multi-channel audio,
    bit depths other than 16, sample rates outside 8-192 kHz, or a data chunk
    shorter than its declared size.
    """
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise AudioFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        tag, size = struct.unpack_from("<4sI", raw, pos)
        pos += 8
        body = raw[pos : pos + size]
        if tag == b"fmt ":
            if len(body) < 16:
                raise AudioFormatError(f"{path}: fmt chunk truncated")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif tag == b"data":
            data = (size, body)
            # size is the declared length; body may be shorter if the
            # file was cut off mid-write
        # chunks are word-aligned
        pos += size + (size & 1)

    if fmt is None:
        raise AudioFormatError(f"{path}: missing fmt chunk")
    if data is None:
        raise AudioFormatError(f"{path}: missing data chunk")

    audio_format, channels, sample_rate, _byte_rate, _block_align, bits = fmt
    if audio_format != 1:
        raise AudioFormatError(
            f"{path}: unsupported encoding (format code {audio_format}, want PCM=1)"
        )
    if channels != 1:
        raise AudioFormatError(f"{path}: {channels} channels, want mono")
    if bits != 16:
        raise AudioFormatError(f"{path}: {bits}-bit samples, want 16-bit")
    if not MIN_SAMPLE_RATE <= sample_rate <= MAX_SAMPLE_RATE:
        raise AudioFormatError(
            f"{path}: sample rate {sample_rate} Hz outside [{MIN_SAMPLE_RATE}, {MAX_SAMPLE_RATE}] Hz"
        )

    declared, body = data
    if len(body) < declared:
        raise AudioFormatError(
            f"{path}: data chunk truncated, header declares {declared // 2} samples "
            f"but file holds {len(body) // 2}"
        )
    if declared < 2:
        raise AudioFormatError(f"{path}: empty data chunk")

    ints = np.frombuffer(body[: declared - (declared & 1)], dtype="<i2")
    samples = ints.astype(np.float64) / _SCALE
    return AudioStream(sample_rate=sample_rate, samples=samples)


def write_wav(path, sample_rate: int, samples) -> None:
    """Write float samples in [-1, 1] as a mono 16-bit PCM WAV file."""
    samples = np.asarray(samples, dtype=np.float64)
    ints = np.clip(np.rint(samples * _SCALE), -32768, 32767).astype("<i2")
    body = ints.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(body),
        b"WAVE",
        b"fmt ",
        16,
        1,  # PCM
        1,  # mono
        sample_rate,
        sample_rate * 2,
        2,
        16,
        b"data",
        len(body),
    )
    Path(path).write_bytes(header + body)


def read_labels(path) -> list[SegmentLabel]:
    """Parse a segment label file: one "start<TAB>end<TAB>label" line per segment.

    Blank lines are ignored. Returns segments sorted by start time.
    Raises LabelFileError with a line number for malformed lines,
    unknown labels, inverted intervals, or overlapping segments.
    """
    path = Path(path)
    segments = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip("\n").strip("\r")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise LabelFileError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}"
                )
            try:
                start = float(parts[0])
                end = float(parts[1])
            except ValueError:
                raise LabelFileError(f"{path}:{lineno}: non-numeric segment time") from None
            label = parts[2].strip()
            if label not in LABEL_NAMES:
                raise LabelFileError(
                    f"{path}:{lineno}: unknown label {label!r}, expected one of {LABEL_NAMES}"
                )
            try:
                segments.append(SegmentLabel(start, end, label))
            except ValueError as exc:
                raise LabelFileError(f"{path}:{lineno}: {exc}") from None

    segments.sort()
    try:
        validate_segments(segments)
    except ValueError as exc:
        raise LabelFileError(f"{path}: {exc}") from None
    return segments


def write_labels(path, segments) -> None:
    """Write segments as "start<TAB>end<TAB>label" lines, millisecond precision.

    Times are formatted with %.3f and lines end with a single newline, so
    equal segment lists always produce byte-identical files.
    """
    segments = sorted(segments)
    validate_segments(segments)
    lines = [f"{seg.start:.3f}\t{seg.end:.3f}\t{seg.label}\n" for seg in segments]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)
