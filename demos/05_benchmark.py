#!/usr/bin/env python3
"""Measure the real-time factor of the streaming pipeline on one core.

Feeds a synthetic recording to the detector in 0.1 s chunks, the cadence a
live audio callback would use, and reports what it costs. RTF is
processing time divided by audio time; anything under 1.0 keeps up with a
live stream, and the engine typically lands well under 0.1. Pass a duration
in seconds to try longer files (default 120).
"""

import os
import sys
import tempfile
import time
from pathlib import Path

# pin the math libraries to one thread before numpy loads
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402

from streamsad.engine import StreamingDetector  # noqa: E402
from streamsad.synth import make_corpus, make_recording  # noqa: E402
from streamsad.trainer import TrainConfig, train  # noqa: E402

COMPACT = dict(
    labeling_ubm_size=8,
    counts_ubm_per_class=16,
    supervector_ubm_size=8,
    lda_dim=8,
    pca_dim=12,
    gmm_iters=8,
    hidden_dims=(64, 32, 16),
    mlp_epochs=10,
    base_threshold=0.0,
)


def main():
    duration = float(sys.argv[1]) if len(sys.argv) > 1 else 120.0
    workdir = Path(tempfile.mkdtemp(prefix="streamsad_bench_"))
    entries = make_corpus(workdir / "corpus", n_files=4, duration=10.0, seed=3)
    model = train(TrainConfig(entries=entries, seed=0, **COMPACT))

    samples, _ = make_recording(np.random.default_rng(30), duration=duration)
    chunk = model.sample_rate // 10
    print(f"{duration:.0f} s of audio, pushed in {chunk}-sample (0.1 s) chunks\n")

    started = time.perf_counter()
    detector = StreamingDetector(model)
    peak = 0.0
    for i in range(0, len(samples), chunk):
        t0 = time.perf_counter()
        detector.push(samples[i:i + chunk])
        peak = max(peak, time.perf_counter() - t0)
    detector.flush()
    total = time.perf_counter() - started

    print(f"full pipeline       {total:7.3f} s  (rtf {total / duration:.4f})")
    print(f"frames computed     {detector.extractor.n_frames}")
    print(f"worst single chunk  {1000 * peak:7.2f} ms against a 100 ms budget")
    print(f"decisions emitted   {len(detector.decisions)}")


if __name__ == "__main__":
    main()
