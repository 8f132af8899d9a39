#!/usr/bin/env python3
"""Walk through the acoustic front end one stage at a time.

Makes a two-second test signal (tone burst in noise), then shows what each
stage contributes: static MFCCs, the causal mean normalization, and the
delta/delta-delta context. Ends by checking that the streaming extractor
gives the same frames no matter how the samples are chopped into chunks.
"""

import numpy as np

from streamsad.audio_io import AudioStream
from streamsad.features import (
    FeatureConfig,
    FeatureExtractor,
    cmn_window,
    delta_window,
    extract_mfcc,
)


def main():
    rate = 8000
    t = np.arange(2 * rate) / rate
    samples = 0.05 * np.random.default_rng(1).standard_normal(len(t))
    burst = slice(int(0.6 * rate), int(1.4 * rate))
    samples[burst] += 0.4 * np.sin(2 * np.pi * 700.0 * t[burst])
    audio = AudioStream(rate, samples)

    cfg = FeatureConfig()
    print(f"signal: {audio.duration:.1f} s at {rate} Hz, "
          f"{cfg.window_samples(rate)}-sample windows every {cfg.hop_samples(rate)}")

    static = extract_mfcc(audio, cfg)
    print(f"\nstatic MFCC: {static.shape[0]} frames x {static.shape[1]} coefficients")
    print("c1 energy tracks the burst (frame means over thirds):")
    third = len(static) // 3
    for name, block in [("first", static[:third]),
                        ("middle", static[third:2 * third]),
                        ("last", static[2 * third:])]:
        print(f"  {name:6s} |c1..c3| = {np.abs(block[:, :3]).mean(axis=0).round(2)}")

    # each stage alone is one flush of the causal window the extractor streams through
    normalized = cmn_window(cfg).flush(static)
    print(f"\nafter causal mean normalization (trailing {cfg.cmn_frames()}-frame window):")
    print(f"  global mean per coefficient shrinks from "
          f"{np.abs(static.mean(axis=0)).max():.2f} to "
          f"{np.abs(normalized.mean(axis=0)).max():.2f}")

    with_deltas = delta_window(cfg.n_mfcc, cfg.delta_window).flush(normalized)
    full = delta_window(cfg.n_mfcc, cfg.delta_window).flush(with_deltas)
    print(f"\nwith deltas appended: {full.shape[1]} dims "
          f"(12 static + 12 delta + 12 delta-delta)")
    print(f"  delta magnitudes peak near the burst edges: "
          f"frame {int(np.argmax(np.abs(full[:, 12])))} of {len(full)}")

    # chunk boundaries must not matter: two random choppings and the batch
    # computation all agree bit for bit
    def run_chunked(seed):
        extractor = FeatureExtractor(cfg, rate)
        frames = []
        rng = np.random.default_rng(seed)
        pos = 0
        while pos < len(samples):
            step = int(rng.integers(1, 1000))
            frames.extend(extractor.push(samples[pos:pos + step]))
            pos += step
        frames.extend(extractor.flush())
        return np.array(frames)

    a, b = run_chunked(2), run_chunked(3)
    print(f"\ntwo random chunkings bit-identical: {np.array_equal(a, b)}")
    print(f"streaming bit-identical to batch: {np.array_equal(a, full)}")


if __name__ == "__main__":
    main()
