"""One cold start: import what a workload uses, get ready, say so, exit.

Usage: python3 perfbench/coldstart.py <workload> <bundle>

The parent times the interval from spawning this interpreter to reading
its "ready" line. For detection that covers the imports, loading the bundle
and building the detector; for training, the imports and the config.
"""

import sys
from pathlib import Path


def main(workload: str, bundle: str) -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    if workload == "train_default":
        from streamsad.trainer import TrainConfig

        TrainConfig(entries=[(bundle, bundle)], base_threshold=0.0)
    else:
        if workload == "file_detect":
            import streamsad.cli  # noqa: F401  the batch path enters through the CLI
        from streamsad.engine import StreamingDetector, load_model

        StreamingDetector(load_model(bundle))
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
