#!/usr/bin/env python3
"""Benchmark for streamsad: live pushes, batch file detection, default training.

    python3 perfbench/run.py --workload live_push --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all

One run builds its inputs from --seed, repeats whole rounds of its workload
until --seconds have passed, checks every output against computations
made apart from the program, and prints one JSON line last: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. --all runs
every workload once, prints a table and rewrites BENCHMARK.json from
spec.py. The process pins itself to one core and BLAS to one thread;
programs it starts inherit both. See README.md for what each number means.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import spec  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
MIN_COLD_STARTS = 7
PUSH_BLOCK = 1200  # pushes per p99 sample: twelve beyond it
CHUNK = inputs.SAMPLE_RATE // 10


def load_program() -> None:
    if not (SRC / "streamsad" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'streamsad'} not found; run from the root of a streamsad checkout")
    sys.path.insert(0, str(SRC))


def train_config(entries):
    """The shipped defaults, except base_threshold = 0.0 as in the acceptance gate."""
    from streamsad import trainer

    return trainer.TrainConfig(entries=entries, base_threshold=0.0)


class Run:
    """State of one benchmark run: counts, problems, timings and the tracer if any."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.tracer = Tracer() if trace else None
        self.work = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.attempted = self.failed = 0
        self.problems: list = []
        self.metrics: dict = {}
        self.walls: list = []
        self.push_passes: list = []  # one list of push latencies (ns) per pass
        self.setup_times: list = []
        self.untraced_walls: list = []
        self.prepare_spans: list = []

    def traced(self, phase: str):
        return self.tracer.active(phase) if self.tracer else contextlib.nullcontext()

    def paused(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        if not ok:
            self.problems.append(f"{name}{': ' + detail if detail else ''}")

    def rounds(self, one_round, cold_start: tuple):
        """Repeat one_round() -> (timed wall seconds, output) until time is up
        and return the first output; every later output must match it bit for
        bit.

        Untraced, a cold start (see cold_start_seconds) follows each round, so
        setup_s samples the same stretch of time as the rounds do. Traced, an
        untraced twin precedes each traced round: its output is the one the
        traced rounds must match, and the two walls give the tracing overhead
        measured side by side.
        """
        first = []

        def check(output):
            first[:] = first or [output]
            self.expect("rounds agree", checks.bits(output) == checks.bits(first[0]),
                        "a round's output differs from the first, untraced round's")

        if not self.tracer:
            cold_start_seconds(*cold_start)  # fills the bytecode and file caches
        started = time.perf_counter()
        with self.traced("loop"):
            while not self.walls or time.perf_counter() - started < self.seconds:
                if self.tracer:
                    with self.paused():
                        wall, output = one_round()
                    self.untraced_walls.append(wall)
                    check(output)
                wall, output = one_round()
                self.walls.append(wall)
                check(output)
                if not self.tracer:
                    self.setup_times.append(cold_start_seconds(*cold_start))
        while not self.tracer and len(self.setup_times) < MIN_COLD_STARTS:
            self.setup_times.append(cold_start_seconds(*cold_start))
        return first[0]

    def timing_metrics(self, audio_seconds: float) -> None:
        """setup_s, rtf and the push percentiles from what the rounds recorded."""
        if self.tracer:
            return
        self.metrics["setup_s"] = statistics.median(self.setup_times)
        self.metrics["rtf"] = statistics.median(self.walls) / audio_seconds
        pushes = np.concatenate(self.push_passes) * 1e-6
        self.expect("push count", len(pushes) >= PUSH_BLOCK, f"{len(pushes)} pushes leave fewer than ten beyond p99")
        self.metrics["push_p50_ms"] = float(np.percentile(pushes, 50))
        # p99 per block of consecutive pushes, then the median over blocks:
        # a stall of the host lasting a second moves one block, not the run
        blocks = np.array_split(pushes, max(1, len(pushes) // PUSH_BLOCK))
        self.metrics["push_p99_ms"] = statistics.median(float(np.percentile(b, 99)) for b in blocks)


def cold_start_seconds(workload: str, path) -> float:
    """Time from spawning a fresh interpreter to its readiness (coldstart.py)."""
    cmd = [sys.executable, str(HERE / "coldstart.py"), workload, str(path)]
    started = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"cold start of {workload} failed with exit code {proc.returncode}")
    return ready - started


def prepare_model(run: Run) -> dict:
    """Train the detection model in a child process, so this process's peak
    memory is the detector's alone; returns the child's report."""
    run.work.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "run.py"), "--prepare", str(run.work),
           "--trace", "1" if run.tracer else "0"]
    subprocess.run(cmd, check=True, timeout=600)
    report = json.loads((run.work / "prepare.json").read_text())
    if run.tracer:
        run.tracer.merge(report["totals"])
        run.prepare_spans = report["spans"]
    run.metrics["train_s"] = report["train_s"]
    run.metrics["bundle_kb"] = report["bundle_bytes"] / 1024.0
    return report


def prepare(work: Path, trace: bool) -> None:
    """Child side of prepare_model: fixed corpus, default training, bundle."""
    from streamsad import trainer

    tracer = Tracer() if trace else None
    bundle = work / "model.sadb"
    with tracer.active("once") if tracer else contextlib.nullcontext():
        entries = inputs.train_corpus(work / "model_corpus", inputs.MODEL_CORPUS_SEED)
        started = time.perf_counter()
        trainer.train(train_config(entries), out_path=bundle)
        train_s = time.perf_counter() - started
    report = {"bundle": str(bundle), "train_s": train_s, "bundle_bytes": bundle.stat().st_size,
              "totals": [], "spans": []}
    if tracer:
        tracer.fold_spans()
        report.update(totals=tracer.export(), spans=tracer.spans)
    (work / "prepare.json").write_text(json.dumps(report))


def stream_pushes(model, samples, latencies=None, sizes=None):
    """Push samples to a fresh detector in 0.1 s chunks (or the given sizes),
    flush, and return (decision rows, speech intervals, pushes, failed pushes)."""
    from streamsad import engine

    detector = engine.StreamingDetector(model)
    pushes = failures = pos = 0
    for size in sizes if sizes is not None else itertools.repeat(CHUNK):
        if pos >= len(samples):
            break
        pushed = time.perf_counter_ns()
        try:
            detector.push(samples[pos:pos + size])
        except (ValueError, RuntimeError):
            failures += 1
        if latencies is not None:
            latencies.append(time.perf_counter_ns() - pushed)
        pushes += 1
        pos += size
    detector.flush()
    speech = [(s.start, s.end) for s in detector.segments() if s.label == "speech"]
    return checks.decision_rows(detector.decisions), speech, pushes, failures


def live_push(run: Run) -> None:
    from streamsad import engine

    prep = prepare_model(run)
    stream = inputs.live_stream(run.seed)
    with run.traced("once"):
        model = engine.load_model(prep["bundle"])

    def one_round():
        latencies = []
        started = time.perf_counter()
        rows, speech, pushes, failures = stream_pushes(model, stream.samples, latencies)
        wall = time.perf_counter() - started
        run.count(pushes, failures)
        run.push_passes.append(latencies)
        return wall, (rows, speech)

    rows, speech = run.rounds(one_round, ("live_push", prep["bundle"]))
    run.problems += checks.check_decisions("live_push", rows, len(stream.samples), 1e-9)
    run.problems += checks.check_dcf("live_push", [checks.grid_errors(stream.speech, speech, stream.duration)])
    sizes = np.random.default_rng([run.seed, 7]).integers(1, 4001, size=len(stream.samples) // 100)
    rechunked = stream_pushes(model, stream.samples, sizes=sizes.tolist())[:2]
    run.expect("chunk invariance", checks.bits(rechunked) == checks.bits((rows, speech)),
               "random chunk sizes gave other decisions")
    run.timing_metrics(stream.duration)


def file_detect(run: Run) -> None:
    from streamsad import cli, engine

    prep = prepare_model(run)
    with run.traced("once"):
        files = inputs.batch_files(run.work / "batch", run.seed)
    model = engine.load_model(prep["bundle"])
    out = run.work / "labels"
    wavs = [str(wav) for wav, _ in files]
    argv = ["detect", "--model", prep["bundle"], "--out-dir", str(out), "--trace", *wavs]

    def one_round():
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            started = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - started
        written = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        missing = [w for w in wavs if Path(w).stem + ".lab" not in written]
        run.count(len(wavs), len(missing))
        run.expect("detect exit code", (code == 0) == (not missing), f"exit {code}, {len(missing)} unlabelled")
        # the same files in 0.1 s pushes must give the CLI's decisions bit for bit
        latencies = []
        with run.paused():
            for wav, _ in files:
                trace = out / (wav.stem + ".trace.csv")
                streamed = stream_pushes(model, inputs.read_pcm(wav), latencies)[0]
                streamed = [(i, float(f"{a:.3f}"), float(f"{b:.3f}"), *rest) for i, a, b, *rest in streamed]
                run.expect("whole file equals 0.1 s pushes", trace.exists()
                           and checks.bits(streamed) == checks.bits(checks.read_trace_csv(trace)), wav.name)
        run.push_passes.append(latencies)
        return wall, written

    run.rounds(one_round, ("file_detect", prep["bundle"]))
    errors = []
    for wav, rec in files:
        if (out / (wav.stem + ".lab")).exists():
            rows = checks.read_trace_csv(out / (wav.stem + ".trace.csv"))
            run.problems += checks.check_decisions(wav.name, rows, len(rec.samples), 5e-4)
            hyp = checks.read_speech_labels(out / (wav.stem + ".lab"))
            errors.append(checks.grid_errors(rec.speech, hyp, rec.duration))
    run.problems += checks.check_dcf("file_detect", errors)
    run.timing_metrics(sum(rec.duration for _, rec in files))


def same_model(a, b) -> bool:
    """Field-by-field bit equality of two SadModel values."""
    if hasattr(a, "__dataclass_fields__"):
        return type(a) is type(b) and all(
            same_model(getattr(a, f), getattr(b, f)) for f in a.__dataclass_fields__)
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape \
            and a.tobytes() == b.tobytes()
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same_model(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def train_default(run: Run) -> None:
    from streamsad import engine, trainer

    with run.traced("once"):
        entries = inputs.train_corpus(run.work / "corpus", run.seed)
        heldout = inputs.heldout_files(run.work / "heldout", run.seed)
    cfg = train_config(entries)
    bundle = run.work / "model.sadb"

    def one_round():
        started = time.perf_counter()
        model = trainer.train(cfg, out_path=bundle)
        wall = time.perf_counter() - started
        run.count(1, 0)
        loaded = engine.load_model(bundle)
        run.expect("bundle reloads bit-exact", same_model(model, loaded))
        latencies = []
        detected = [stream_pushes(loaded, rec.samples, latencies)[:2] for _, rec in heldout]
        run.push_passes.append(latencies)
        return wall, (bundle.read_bytes(), detected)

    _, detected = run.rounds(one_round, ("train_default", entries[0][0]))
    errors = []
    for (wav, rec), (rows, speech) in zip(heldout, detected):
        run.problems += checks.check_decisions(wav.name, rows, len(rec.samples), 1e-9)
        errors.append(checks.grid_errors(rec.speech, speech, rec.duration))
    run.problems += checks.check_dcf("train_default held-out", errors)
    run.metrics["train_s"] = statistics.median(run.walls)
    run.metrics["bundle_kb"] = bundle.stat().st_size / 1024.0
    run.timing_metrics(inputs.TRAIN_FILES * inputs.TRAIN_SECONDS)


WORKLOADS = {"live_push": live_push, "file_detect": file_detect, "train_default": train_default}


def run_workload(args) -> int:
    run = Run(args.workload, args.seed, args.seconds, args.trace == 1)
    try:
        WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    if run.tracer:
        run.tracer.fold_spans()
        names = [name for name, _, _ in spec.PER_LAYER]
        values = run.tracer.per_layer(len(run.walls), names)
        values["trace.overhead_ratio"] = statistics.median(run.walls) / statistics.median(run.untraced_walls)
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        (traces / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "rounds": len(run.walls),
             "per_layer": values, "spans": run.tracer.spans, "prepare_spans": run.prepare_spans}))
    else:
        values = dict(run.metrics)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        names = [name for name, _, _ in spec.END_TO_END]
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name in names:
        print(f"{args.workload:14s} {name:32s} {values[name]:14.6g} {spec.UNITS[name]}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": spec.UNITS[name]} for name in names},
    }))
    return 0 if not run.problems else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload once, in a fresh process each; then BENCHMARK.json."""
    status = 0
    for workload, _ in spec.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines else {}
        print(f"{workload:14s} correct={result.get('correct')} attempted={result.get('attempted')} "
              f"failed={result.get('failed')}")
        status = status or proc.returncode
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.manifest(), indent=2) + "\n")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload once")
    parser.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args()
    load_program()
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.prepare:
        prepare(Path(args.prepare), args.trace == 1)
        return 0
    if args.all:
        return run_all(args.seed, args.seconds)
    if not args.workload:
        parser.error("give --workload or --all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
