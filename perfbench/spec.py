"""What the benchmark measures: workloads, metrics, units and bounds.

BENCHMARK.json at the root of the repository is generated from this module
by `python3 perfbench/run.py --all`, so the two never disagree.
"""

RUN_SECONDS = 20

WORKLOADS = [
    ("live_push",
     "closed-loop 0.1 s pushes of a 120 s stream drifting over 5-25 dB SNR: "
     "per-frame front end and cascade plus per-segment scoring on the latency path"),
    ("file_detect",
     "the batch CLI labels WAV files of 4-30 s at 5-25 dB SNR, each pushed whole: "
     "block work in features, cascade and gmm, plus audio_io and bundle loading"),
    ("train_default",
     "train() with the default TrainConfig (threshold 0.0, as in the acceptance gate) on a "
     "synthetic corpus: the only workload running EM, LDA/PCA fitting and MLP backprop"),
]

# (name, unit, bound); every metric here is better when lower. The bounds on
# times are the widest allowed because the host's speed drifts by 10-30%
# over minutes (README.md, "Noise"); peak memory follows the seeded file
# lengths on file_detect.
END_TO_END = [
    ("setup_s", "s", 0.25),
    ("rtf", "s/s", 0.25),
    ("push_p50_ms", "ms", 0.25),
    ("push_p99_ms", "ms", 0.25),
    ("train_s", "s", 0.25),
    ("bundle_kb", "KB", 0.05),
    ("peak_rss_mb", "MB", 0.15),
]

TRAINER_STAGES = [
    "features", "labeling_ubm", "acoustic_labels", "lda", "pca", "transform",
    "counts_ubm", "count_vectors", "supervector_ubm", "segments", "mlp",
    "class_embeddings", "assemble",
]

# (name, unit, better)
PER_LAYER = [
    ("features.push_s", "s", "lower"),
    ("features.frames", "count", "higher"),
    ("features.batch_s", "s", "lower"),
    ("context_transform.cascade_s", "s", "lower"),
    ("context_transform.frames", "count", "higher"),
    ("gmm.stats_s", "s", "lower"),
    ("gmm.stats_calls", "count", "lower"),
    ("gmm.em_s", "s", "lower"),
    ("gmm.em_calls", "count", "lower"),
    ("embeddings.embed_s", "s", "lower"),
    ("embeddings.mlp_train_s", "s", "lower"),
    ("engine.score_s", "s", "lower"),
    ("engine.adapt_s", "s", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.decisions", "count", "higher"),
    ("engine.smooth_s", "s", "lower"),
    ("engine.load_s", "s", "lower"),
    ("audio_io.read_s", "s", "lower"),
    ("audio_io.write_s", "s", "lower"),
    ("audio_io.bytes_read", "count", "higher"),
    *[(f"trainer.{stage}_s", "s", "lower") for stage in TRAINER_STAGES],
    ("trainer.frames", "count", "higher"),
    ("trainer.segment_candidates", "count", "higher"),
    ("trainer.segments_kept", "count", "higher"),
    ("trainer.segments_kept_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

UNITS = {name: unit for name, unit, _ in END_TO_END}
UNITS.update({name: unit for name, unit, _ in PER_LAYER})


def manifest() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": "lower", "bound": bound}
            for name, unit, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER
        ],
    }
