"""Command line front door: train, detect, score, bench.

Exit codes: 0 success, 1 usage problem, 2 data problem (unreadable or
inconsistent inputs, or a model that faults at run time), 3 internal error.
Hyperparameters live in a flat `key = value` config file; command-line
flags override it.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
import time
from collections import Counter
from dataclasses import fields
from pathlib import Path

from .audio_io import AudioFormatError, LabelFileError, read_labels, read_wav, write_labels
from .engine import (
    AdaptationConfig,
    ModelError,
    SmoothingConfig,
    StreamingDetector,
    load_model,
    stream_detect,
    write_trace,
)
from .evaluation import EvalConfig, EvaluationError, aggregate, format_keyvalues, format_table, score
from .trainer import TrainConfig, TrainingError, load_manifest, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

logger = logging.getLogger(__name__)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; this tool reserves 2 for
    # data errors, so route usage problems through our own exception
    def error(self, message):
        raise UsageError(message)


def _int_tuple(text: str):
    return tuple(int(part) for part in text.split(",") if part.strip())


def _positive_seconds(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number of seconds > 0, got {text!r}")
    return value


# the parser of each field type a config key may have; fields of other types
# (the corpus lists and the adaptation `enabled` switch that --no-adapt
# sets) get no key
_PARSERS = {"float": float, "int": int, "tuple": _int_tuple}

# the dataclasses whose fields each command's config file may set; the
# front end is the build's own and has no key
_SECTIONS = {"train": (TrainConfig,), "detect": (AdaptationConfig, SmoothingConfig)}

# the config file's keys, each with its parser: the fields of these three
# dataclasses, in declaration order; a key the file leaves out keeps its
# dataclass default
CONFIG_KEYS = {
    f.name: _PARSERS[f.type]
    for classes in _SECTIONS.values()
    for cls in classes
    for f in fields(cls)
    if f.type in _PARSERS
}


def parse_config_file(path, command: str) -> dict:
    """The command's config values from flat `key = value` lines; # starts
    a comment; unknown keys and keys of the other command rejected."""
    used = {f.name for cls in _SECTIONS[command] for f in fields(cls)}
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if key not in used:
                raise ValueError(f"{path}:{lineno}: config key {key!r} is not used by {command}")
            try:
                values[key] = CONFIG_KEYS[key](raw)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {raw!r}") from None
    return values


def _require_paths(paths) -> None:
    missing = [str(p) for p in paths if not Path(p).exists()]
    if missing:
        raise FileNotFoundError("missing input file(s): " + ", ".join(missing))


def _section(cls, config: dict) -> dict:
    """The config values that set fields of the dataclass cls."""
    return {f.name: config[f.name] for f in fields(cls) if f.name in config}


def cmd_train(args) -> int:
    _require_paths([args.manifest] + ([args.config] if args.config else []))
    entries = load_manifest(args.manifest)
    if not entries:
        raise ValueError(f"{args.manifest}: manifest is empty")
    flat = [p for pair in entries for p in pair]
    monitor_entries = None
    if args.monitor:
        _require_paths([args.monitor])
        monitor_entries = load_manifest(args.monitor)
        flat += [p for pair in monitor_entries for p in pair]
    _require_paths(flat)

    config = parse_config_file(args.config, "train") if args.config else {}
    if args.seed is not None:
        config["seed"] = args.seed
    train_cfg = TrainConfig(entries=entries, monitor_entries=monitor_entries, **config)

    if args.log_file:
        handler = logging.FileHandler(args.log_file, encoding="utf-8")
        handler.setFormatter(logging.Formatter("%(message)s"))
        logging.getLogger().addHandler(handler)

    started = time.perf_counter()
    train(train_cfg, out_path=args.out)
    print(f"wrote {args.out} in {time.perf_counter() - started:.1f} s")
    return EXIT_OK


def cmd_detect(args) -> int:
    _require_paths([args.model] + ([args.config] if args.config else []) + list(args.audio))
    # each input writes <stem>.lab (and <stem>.trace.csv): one stem, one input
    shared = sorted(stem for stem, n in Counter(Path(p).stem for p in args.audio).items() if n > 1)
    if shared:
        raise ValueError("inputs share an output name: " + ", ".join(shared))
    model = load_model(args.model)
    config = parse_config_file(args.config, "detect") if args.config else {}
    adaptation = AdaptationConfig(enabled=not args.no_adapt, **_section(AdaptationConfig, config))
    smoothing = SmoothingConfig(**_section(SmoothingConfig, config))
    if args.no_smoothing:
        smoothing = SmoothingConfig(min_gap=0.0, min_speech=0.0)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    failures = 0
    for audio_path in args.audio:
        audio_path = Path(audio_path)
        try:
            audio = read_wav(audio_path)
            result = stream_detect(audio, model, adaptation, smoothing)
        except (AudioFormatError, ValueError) as exc:
            # an AudioFormatError's message starts with the path already
            where = "" if isinstance(exc, AudioFormatError) else f"{audio_path}: "
            print(f"error: {where}{exc}", file=sys.stderr)
            failures += 1
            continue
        write_labels(out_dir / (audio_path.stem + ".lab"), result.segments)
        if args.trace:
            write_trace(result.decisions, out_dir / (audio_path.stem + ".trace.csv"))
        speech_time = sum(s.duration for s in result.segments if s.label == "speech")
        print(
            f"{audio_path.name}: {len(result.decisions)} decisions, "
            f"{speech_time:.2f} s speech of {audio.duration:.2f} s"
        )
    return EXIT_DATA if failures else EXIT_OK


def cmd_score(args) -> int:
    ref_dir, hyp_dir = Path(args.ref_dir), Path(args.hyp_dir)
    _require_paths([ref_dir, hyp_dir])
    ref_files = {p.stem: p for p in sorted(ref_dir.glob("*.lab"))}
    hyp_files = {p.stem: p for p in sorted(hyp_dir.glob("*.lab"))}
    if not ref_files:
        raise ValueError(f"no .lab files in {ref_dir}")
    unmatched = sorted(set(ref_files) ^ set(hyp_files))
    if unmatched:
        raise ValueError("unmatched file stems (scoring is all-or-nothing): " + ", ".join(unmatched))

    cfg = EvalConfig(collar=args.collar)
    reports = {}
    for stem in sorted(ref_files):
        ref = read_labels(ref_files[stem])
        hyp = read_labels(hyp_files[stem])
        reports[stem] = score(ref, hyp, cfg)
    pooled = aggregate(reports)
    print(format_table(pooled))
    print()
    print(format_keyvalues(pooled))
    return EXIT_OK


def cmd_bench(args) -> int:
    _require_paths([args.model] + list(args.audio))
    model = load_model(args.model)
    for audio_path in args.audio:
        audio = read_wav(Path(audio_path))
        chunk = max(1, int(round(args.chunk * audio.sample_rate)))

        start = time.perf_counter()
        detector = StreamingDetector(model)
        peak_push = 0.0
        try:
            for i in range(0, len(audio.samples), chunk):
                push_start = time.perf_counter()
                detector.push(audio.samples[i : i + chunk])
                peak_push = max(peak_push, time.perf_counter() - push_start)
            push_start = time.perf_counter()
            detector.flush()
        except ValueError as exc:  # named as detect names it
            raise ValueError(f"{audio_path}: {exc}") from exc
        peak_push = max(peak_push, time.perf_counter() - push_start)
        total_time = time.perf_counter() - start

        rtf = total_time / audio.duration
        print(f"{audio_path}: duration={audio.duration:.2f}s frames={detector.extractor.n_frames}")
        print(f"  full pipeline      {total_time:8.3f} s")
        print(
            f"  rtf={rtf:.4f} peak_chunk_latency={1000.0 * peak_push:.2f}ms "
            f"decisions={len(detector.decisions)}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="streamsad", description="Trainable streaming speech activity detection")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", parents=[], help="train a model bundle from a labeled corpus")
    p.add_argument("--manifest", required=True, help="audio<TAB>labels lines")
    p.add_argument("--out", required=True, help="output bundle path")
    p.add_argument("--config", help="key = value hyperparameter file")
    p.add_argument("--seed", type=int, help="overrides the config file seed")
    p.add_argument("--monitor", help="manifest of held-out files for per-epoch loss logging")
    p.add_argument("--log-file", help="also append the training log here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="label audio files with a trained bundle")
    p.add_argument("--model", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", help="runtime overrides (adaptation, smoothing)")
    p.add_argument("--no-adapt", action="store_true", help="freeze models and threshold")
    p.add_argument("--no-smoothing", action="store_true", help="0.1 s decisions, merged but not smoothed")
    p.add_argument("--trace", action="store_true", help="also write per-segment score CSVs")
    p.add_argument("audio", nargs="+", help="WAV files to label")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("score", help="score hypothesis label files against references")
    p.add_argument("--ref-dir", required=True)
    p.add_argument("--hyp-dir", required=True)
    p.add_argument("--collar", type=float, default=0.25, help="no-score zone around reference speech boundaries")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("bench", help="measure detector speed on audio files")
    p.add_argument("--model", required=True)
    p.add_argument("--chunk", type=_positive_seconds, default=0.1, help="push chunk size in seconds")
    p.add_argument("audio", nargs="+")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    logging.basicConfig(
        stream=sys.stdout,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(message)s",
    )
    try:
        return args.func(args)
    except (
        AudioFormatError,
        LabelFileError,
        TrainingError,
        EvaluationError,
        FileNotFoundError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ModelError as exc:  # only detect and bench run a model
        print(f"error: {args.model}: model fault: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - last-resort boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
