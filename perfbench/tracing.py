"""Per-layer spans and counters, recorded from outside the program.

Tracer.install() replaces each target below, in every loaded streamsad
module that binds it, with a wrapper that records a span (name, start, end,
parent) in memory; uninstall() puts the originals back. A layer's time is
the self time of its spans: each span's duration minus that of its child
spans. The trainer's per-stage times come from its own stage log.

Spans carry a phase: "loop" for the timed rounds, whose figures are
divided by the number of rounds, and "once" for one-off work (training the
detection model, loading a bundle, the checks).
"""

from __future__ import annotations

import importlib
import logging
import os
import re
import time
from collections import defaultdict
from contextlib import contextmanager


def _frames_out(args, result):
    return len(result)


def _pca_frames_out(args, result):
    return len(result) if args[0].transform.kind == "pca" else 0


def _one(args, result):
    return 1


def _file_bytes(args, result):
    return os.path.getsize(args[0])


# (module, attribute, span name, counter, count function)
TARGETS = [
    ("features", "FeatureExtractor.push", "features.push", "features.frames", _frames_out),
    ("features", "FeatureExtractor.flush", "features.push", "features.frames", _frames_out),
    ("features", "extract_features", "features.batch", None, None),
    ("engine", "_ContextStage.push", "context_transform.cascade", "context_transform.frames", _pca_frames_out),
    ("engine", "_ContextStage.flush", "context_transform.cascade", "context_transform.frames", _pca_frames_out),
    ("context_transform", "apply_transform", "context_transform.cascade", None, None),
    ("gmm", "accumulate_stats", "gmm.stats", "gmm.stats_calls", _one),
    ("gmm", "train_gmm", "gmm.em", "gmm.em_calls", _one),
    ("embeddings", "make_supervector", "embeddings.embed", None, None),
    ("embeddings", "extract_embedding", "embeddings.embed", None, None),
    ("embeddings", "train_mlp", "embeddings.mlp_train", None, None),
    ("engine", "process_segment", "engine.score", "engine.decisions", _one),
    ("engine", "adapt", "engine.adapt", None, None),
    ("engine", "StreamingDetector.__init__", "engine.self", None, None),
    ("engine", "StreamingDetector.push", "engine.self", None, None),
    ("engine", "StreamingDetector.flush", "engine.self", None, None),
    ("engine", "StreamingDetector.segments", "engine.self", None, None),
    ("engine", "stream_detect", "engine.self", None, None),
    ("engine", "merge_decisions", "engine.smooth", None, None),
    ("engine", "smooth_segments", "engine.smooth", None, None),
    ("engine", "load_model", "engine.load", None, None),
    ("audio_io", "read_wav", "audio_io.read", "audio_io.bytes_read", _file_bytes),
    ("audio_io", "write_wav", "audio_io.write", None, None),
    ("audio_io", "write_labels", "audio_io.write", None, None),
    ("trainer", "train", "trainer.train", None, None),
]

_SEGMENTS_LINE = re.compile(r"segments: (\d+) kept, (\d+) dropped")


class _StageLog(logging.Handler):
    """Reads the trainer's stage, corpus and segment log lines at full precision."""

    def __init__(self, tracer: "Tracer"):
        super().__init__(logging.INFO)
        self.tracer = tracer

    def emit(self, record):
        add = self.tracer.add
        if record.msg.startswith("stage "):
            name, seconds = record.args
            add(f"trainer.{name.replace('-', '_')}_s", seconds)
        elif record.msg.startswith("corpus: "):
            add("trainer.frames", record.args[1])
        else:
            match = _SEGMENTS_LINE.match(record.getMessage())
            if match:
                kept, dropped = int(match[1]), int(match[2])
                add("trainer.segments_kept", kept)
                add("trainer.segment_candidates", kept + dropped)


class Tracer:
    """Spans and counters of one process, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list = []  # [name, start_ns, end_ns, parent index, phase]
        self.totals = defaultdict(float)  # (phase, metric) -> value
        self.phase = "once"
        self._stack: list = []
        self._restore: list = []
        self._log = _StageLog(self)

    def add(self, metric: str, value: float) -> None:
        self.totals[(self.phase, metric)] += value

    def _wrap(self, fn, name, counter, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1, self.phase])
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index][1:3] = [start, end]
            if counter:
                self.add(counter, count(args, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; a target the program no longer has is skipped."""
        modules = [m for m in map(_loaded, ("audio_io", "features", "context_transform", "gmm",
                                            "embeddings", "engine", "trainer", "cli", "synth")) if m]
        for module_name, attribute, name, counter, count in TARGETS:
            owner = _loaded(module_name)
            if owner is None:
                continue
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(owner, cls_name, None)
                original = cls.__dict__.get(method) if cls is not None else None
                if original is None:
                    continue
                setattr(cls, method, self._wrap(original, name, counter, count))
                self._restore.append((cls, method, original))
                continue
            original = getattr(owner, attribute, None)
            if original is None:
                continue
            wrapper = self._wrap(original, name, counter, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))
        log = logging.getLogger("streamsad.trainer")
        log.setLevel(logging.INFO)
        log.propagate = False
        log.addHandler(self._log)

    @contextmanager
    def active(self, phase: str):
        """Record spans, attributed to phase, while the block runs."""
        self.phase = phase
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    @contextmanager
    def paused(self):
        """Record nothing while the block runs."""
        installed = bool(self._restore)
        self.uninstall()
        try:
            yield
        finally:
            if installed:
                self.install()

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()
        log = logging.getLogger("streamsad.trainer")
        log.removeHandler(self._log)
        log.setLevel(logging.NOTSET)
        log.propagate = True

    def fold_spans(self) -> None:
        """Add each span's self time to its layer's total."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, phase in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (name, start, end, parent, phase), inner in zip(self.spans, child_ns):
            self.totals[(phase, name + "_s")] += (end - start - inner) * 1e-9

    def merge(self, totals: list) -> None:
        """Fold in totals recorded by another process, as [phase, metric, value] lists."""
        for phase, metric, value in totals:
            self.totals[(phase, metric)] += value

    def export(self) -> list:
        return [[phase, metric, value] for (phase, metric), value in self.totals.items()]

    def per_layer(self, rounds: int, names: list) -> dict:
        """Each metric as its one-off total plus its per-round share of the loop."""
        values = {name: self.totals[("once", name)] + self.totals[("loop", name)] / rounds
                  for name in names}
        candidates = values["trainer.segment_candidates"]
        values["trainer.segments_kept_ratio"] = values["trainer.segments_kept"] / candidates if candidates else 0.0
        return values


def _loaded(name: str):
    try:
        return importlib.import_module(f"streamsad.{name}")
    except ImportError:
        return None

