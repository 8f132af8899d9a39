"""Trainable streaming speech activity detection.

A GMM/embedding hybrid detector that labels audio speech or non-speech
every 0.1 s at runtime, adapting its model vectors and decision threshold
to the channel as it goes, plus the training pipeline that builds its
model bundle and a collar-aware detection-cost scorer.

The package itself exports nothing; import from its modules. Detection
lives in `streamsad.engine` (`StreamingDetector`, `stream_detect`,
`load_model`), training in `streamsad.trainer` (`TrainConfig`, `train`),
scoring in `streamsad.evaluation` (`score`, `aggregate`), audio and label
files in `streamsad.audio_io`, and the command line in `streamsad.cli`.
Importing one module loads only what it needs, so a detector starts
without the training and scoring code.
"""

__version__ = "0.1.0"
