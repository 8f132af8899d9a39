"""Correctness checks written apart from the program.

The scorer is a brute-force 1 ms grid, not `streamsad.evaluation`; the
tiling and range checks recompute the frame grid from the sample count.
Each check returns a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

from inputs import SAMPLE_RATE

COLLAR = 0.25
DCF_BOUND = 0.05
SEGMENT_FRAMES = 10
WINDOW, HOP = round(0.025 * SAMPLE_RATE), round(0.010 * SAMPLE_RATE)


def grid_errors(ref: list, hyp: list, duration: float, collar: float = COLLAR, step: float = 0.001):
    """(missed, false alarm, scored speech, scored non-speech) seconds.

    ref and hyp are (start, end) speech intervals; cells within `collar` of a
    reference speech boundary are not scored.
    """
    mid = (np.arange(int(round(duration / step))) + 0.5) * step

    def cover(intervals, pad=0.0):
        mask = np.zeros(len(mid), dtype=bool)
        for a, b in intervals:
            mask |= (mid >= a - pad) & (mid < b + pad)
        return mask

    in_ref, in_hyp = cover(ref), cover(hyp)
    boundaries = [(t, t) for a, b in ref for t in (a, b)]
    scored = ~cover(boundaries, collar)
    return (
        np.sum(scored & in_ref & ~in_hyp) * step,
        np.sum(scored & ~in_ref & in_hyp) * step,
        np.sum(scored & in_ref) * step,
        np.sum(scored & ~in_ref) * step,
    )


def pooled_dcf(errors: list) -> float:
    """0.75 P_miss + 0.25 P_fa over the time-weighted sums of several files."""
    missed, false_alarm, speech, nonspeech = (sum(col) for col in zip(*errors))
    p_miss = missed / speech if speech else 0.0
    p_fa = false_alarm / nonspeech if nonspeech else 0.0
    return 0.75 * p_miss + 0.25 * p_fa


def check_dcf(name: str, errors: list) -> list:
    dcf = pooled_dcf(errors)
    return [] if dcf < DCF_BOUND else [f"{name}: DCF {dcf:.4f} not below {DCF_BOUND}"]


def check_decisions(name: str, rows: list, n_samples: int, time_tol: float) -> list:
    """Decisions tile the frame grid at one per 10 frames; scores lie in [-2, 2].

    rows are (index, start, end, zero, emb, fused, threshold, label) tuples.
    """
    n_frames = (n_samples - WINDOW) // HOP + 1 if n_samples >= WINDOW else 0
    tail = n_frames % SEGMENT_FRAMES
    expected = n_frames // SEGMENT_FRAMES + (tail >= SEGMENT_FRAMES // 2)
    if len(rows) != expected:
        return [f"{name}: {len(rows)} decisions for {n_frames} frames, expected {expected}"]
    seg = SEGMENT_FRAMES * HOP / SAMPLE_RATE
    for i, (index, start, end, zero, emb, fused, threshold, label) in enumerate(rows):
        width = seg if i < expected - 1 or tail < SEGMENT_FRAMES // 2 else tail * HOP / SAMPLE_RATE
        if index != i or abs(start - i * seg) > time_tol or abs(end - start - width) > time_tol:
            return [f"{name}: decision {i} covers [{start}, {end}), off the 0.1 s grid"]
        scores = (zero, emb, fused)
        if not all(math.isfinite(s) and -2.0 <= s <= 2.0 for s in scores):
            return [f"{name}: decision {i} has scores {scores} outside [-2, 2]"]
        if (label == "speech") != (fused > threshold):
            return [f"{name}: decision {i} label {label} disagrees with score {fused} vs {threshold}"]
    return []


def decision_rows(decisions) -> list:
    return [
        (d.index, d.start, d.end, d.zero_score, d.emb_score, d.fused_score, d.threshold, d.label)
        for d in decisions
    ]


def read_trace_csv(path) -> list:
    """Rows of a CLI `--trace` file, in the tuple order of decision_rows."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            index, start, end, zero, emb, fused, theta, label = line.rstrip("\n").split(",")
            rows.append((int(index), float(start), float(end), float(zero), float(emb),
                         float(fused), float(theta), label))
    return rows


def read_speech_labels(path) -> list:
    """Speech intervals of a `start<TAB>end<TAB>label` file."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            start, end, label = line.rstrip("\n").split("\t")
            if label == "speech":
                out.append((float(start), float(end)))
    return out


def bits(value):
    """value with every float as its exact hex form, for bit-for-bit comparison."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    if isinstance(value, dict):
        return {k: bits(v) for k, v in value.items()}
    return value
