"""Detection cost scoring with collar exclusion, on exact intervals.

The metric is a weighted sum of two error rates: the fraction of scored
speech time the hypothesis missed (weight 0.75) and the fraction of scored
non-speech time it falsely called speech (weight 0.25). The weights are the
Fearless Steps challenge's and are fixed, so every report, file or pooled,
is on one scale. A collar around every reference speech boundary (0.25 s by
default) is excluded from scoring entirely, absorbing annotation jitter.

All time accounting is exact interval arithmetic on floats; nothing is
quantized to a grid. Corpus results pool the error and scored times across
files before dividing, so long files weigh more than short ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .audio_io import SPEECH, SegmentLabel, validate_segments

MISS_WEIGHT = 0.75
FALSE_ALARM_WEIGHT = 0.25


class EvaluationError(ValueError):
    """Scoring is undefined for this input (e.g. no scored speech time)."""


@dataclass(frozen=True)
class EvalConfig:
    collar: float = 0.25

    def __post_init__(self):
        if not (self.collar >= 0):  # NaN fails too
            raise ValueError("collar must be non-negative")


def normalize_intervals(intervals) -> list[tuple[float, float]]:
    """Sort, merge overlapping or touching, and drop empty intervals."""
    pending = sorted((a, b) for a, b in intervals if b > a)
    merged: list[tuple[float, float]] = []
    for a, b in pending:
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def intersect_intervals(a, b) -> list[tuple[float, float]]:
    """Intersection of two normalized interval lists."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            out.append((lo, hi))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return out


def subtract_intervals(a, b) -> list[tuple[float, float]]:
    """Time in a but not in b, both normalized."""
    out = []
    j = 0
    for lo, hi in a:
        cursor = lo
        while j < len(b) and b[j][1] <= cursor:
            j += 1
        k = j
        while k < len(b) and b[k][0] < hi:
            if b[k][0] > cursor:
                out.append((cursor, b[k][0]))
            cursor = max(cursor, b[k][1])
            if cursor >= hi:
                break
            k += 1
        if cursor < hi:
            out.append((cursor, hi))
    return out


def total_time(intervals) -> float:
    return sum(b - a for a, b in intervals)


def _clip(intervals, duration: float) -> list[tuple[float, float]]:
    return [(max(a, 0.0), min(b, duration)) for a, b in intervals if min(b, duration) > max(a, 0.0)]


@dataclass(frozen=True)
class ScoringMask:
    """Scored time partitioned by reference label, collars removed."""

    speech: list
    nonspeech: list


def _speech_intervals(segments: list[SegmentLabel]) -> list[tuple[float, float]]:
    return normalize_intervals((s.start, s.end) for s in segments if s.label == SPEECH)


def apply_collar(ref: list[SegmentLabel], collar: float, file_duration: float) -> ScoringMask:
    """Drop a collar around every reference speech boundary from scoring.

    Touching reference speech segments count as one (their shared boundary
    is interior, not a collar site).
    """
    validate_segments(ref)
    ref_speech = _clip(_speech_intervals(ref), file_duration)
    collars = []
    for start, end in ref_speech:
        collars.append((start - collar, start + collar))
        collars.append((end - collar, end + collar))
    exclusion = _clip(normalize_intervals(collars), file_duration)
    ref_nonspeech = subtract_intervals([(0.0, file_duration)], ref_speech)
    return ScoringMask(
        speech=subtract_intervals(ref_speech, exclusion),
        nonspeech=subtract_intervals(ref_nonspeech, exclusion),
    )


@dataclass(frozen=True)
class EvalReport:
    """Error time and scored time; rates and cost are derived, never stored."""

    scored_speech: float
    scored_nonspeech: float
    missed: float
    false_alarm: float
    per_file: dict = field(default_factory=dict)

    @property
    def p_fn(self) -> float:
        return self.missed / self.scored_speech

    @property
    def p_fp(self) -> float:
        return self.false_alarm / self.scored_nonspeech

    @property
    def dcf(self) -> float:
        # grouped as (weight * time) / time so the textbook worked example
        # comes out exact; equals MISS_WEIGHT*p_fn + FALSE_ALARM_WEIGHT*p_fp to 1e-12
        return (
            MISS_WEIGHT * self.missed / self.scored_speech
            + FALSE_ALARM_WEIGHT * self.false_alarm / self.scored_nonspeech
        )


def score(
    ref: list[SegmentLabel],
    hyp: list[SegmentLabel],
    cfg: EvalConfig | None = None,
    file_duration: float | None = None,
) -> EvalReport:
    """Score one hypothesis segmentation against its reference."""
    cfg = cfg or EvalConfig()
    validate_segments(ref)
    validate_segments(hyp)
    if file_duration is None:
        ends = [s.end for s in ref] + [s.end for s in hyp]
        file_duration = max(ends, default=0.0)

    mask = apply_collar(ref, cfg.collar, file_duration)
    scored_speech = total_time(mask.speech)
    scored_nonspeech = total_time(mask.nonspeech)
    if scored_speech <= 0.0:
        raise EvaluationError("no scored speech time: miss rate undefined")
    if scored_nonspeech <= 0.0:
        raise EvaluationError("no scored non-speech time: false-alarm rate undefined")

    hyp_speech = _clip(_speech_intervals(hyp), file_duration)
    missed = total_time(subtract_intervals(mask.speech, hyp_speech))
    false_alarm = total_time(intersect_intervals(mask.nonspeech, hyp_speech))
    return EvalReport(
        scored_speech=scored_speech,
        scored_nonspeech=scored_nonspeech,
        missed=missed,
        false_alarm=false_alarm,
    )


def aggregate(reports: dict) -> EvalReport:
    """Pool per-file reports, keyed by file name, into a corpus report
    (time-weighted); the names key its per_file breakdown."""
    named = dict(reports)
    items = list(named.values())
    if not items:
        raise EvaluationError("nothing to aggregate")
    return EvalReport(
        scored_speech=sum(r.scored_speech for r in items),
        scored_nonspeech=sum(r.scored_nonspeech for r in items),
        missed=sum(r.missed for r in items),
        false_alarm=sum(r.false_alarm for r in items),
        per_file=named,
    )


def format_table(report: EvalReport) -> str:
    """Human-readable per-file and pooled summary."""
    lines = [f"{'file':<28} {'dcf':>8} {'p_fn':>8} {'p_fp':>8} {'miss_s':>8} {'fa_s':>8}"]
    for name, r in sorted(report.per_file.items()):
        lines.append(
            f"{name:<28} {r.dcf:>8.4f} {r.p_fn:>8.4f} {r.p_fp:>8.4f} "
            f"{r.missed:>8.3f} {r.false_alarm:>8.3f}"
        )
    lines.append(
        f"{'POOLED':<28} {report.dcf:>8.4f} {report.p_fn:>8.4f} {report.p_fp:>8.4f} "
        f"{report.missed:>8.3f} {report.false_alarm:>8.3f}"
    )
    return "\n".join(lines)


def format_keyvalues(report: EvalReport) -> str:
    """Machine-readable summary: pooled dcf/p_fn/p_fp plus one line per file."""
    lines = [f"dcf={report.dcf:.6f}", f"p_fn={report.p_fn:.6f}", f"p_fp={report.p_fp:.6f}"]
    for name, r in sorted(report.per_file.items()):
        lines.append(f"file={name} dcf={r.dcf:.6f} p_fn={r.p_fn:.6f} p_fp={r.p_fp:.6f}")
    return "\n".join(lines)
