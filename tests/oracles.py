"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written from the definitions (direct DFT
matrices, linear-domain Gaussian formulas, grid-based time accounting,
finite differences) rather than by calling into the package, so agreement
is evidence, not tautology.
"""

import math

import numpy as np


def mfcc_oracle(samples, sample_rate, *, window_length=0.025, hop=0.010, n_mfcc=12,
                mel_low=150.0, mel_high=None, n_mel_filters=23, pre_emphasis=0.97,
                n_fft=None):
    """Static MFCCs via an explicit DFT matrix and hand-built mel/DCT tables."""
    if mel_high is None:
        mel_high = sample_rate / 2.0
    win = int(round(window_length * sample_rate))
    hop_n = int(round(hop * sample_rate))
    if n_fft is None:
        n_fft = 1
        while n_fft < win:
            n_fft *= 2
    n_bins = n_fft // 2 + 1

    # direct DFT as an explicit complex matrix (no FFT)
    n = np.arange(n_fft)
    dft = np.exp(-2j * math.pi * np.outer(np.arange(n_bins), n) / n_fft)

    hamming = np.array([0.54 - 0.46 * math.cos(2 * math.pi * i / (win - 1)) for i in range(win)])

    def mel(f):
        return 2595.0 * math.log10(1.0 + f / 700.0)

    def imel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    edges = [imel(mel(mel_low) + (mel(mel_high) - mel(mel_low)) * i / (n_mel_filters + 1))
             for i in range(n_mel_filters + 2)]
    bin_freqs = [k * sample_rate / n_fft for k in range(n_bins)]
    filters = np.zeros((n_mel_filters, n_bins))
    for m in range(n_mel_filters):
        lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
        for k, f in enumerate(bin_freqs):
            if lo < f < mid:
                filters[m, k] = (f - lo) / (mid - lo)
            elif mid <= f < hi:
                filters[m, k] = (hi - f) / (hi - mid)
            elif f == mid:
                filters[m, k] = 1.0

    dct = np.zeros((n_mfcc, n_mel_filters))
    for k in range(1, n_mfcc + 1):
        for j in range(n_mel_filters):
            dct[k - 1, j] = math.sqrt(2.0 / n_mel_filters) * math.cos(
                math.pi * k * (2 * j + 1) / (2 * n_mel_filters)
            )

    n_frames = (len(samples) - win) // hop_n + 1
    out = np.zeros((n_frames, n_mfcc))
    for t in range(n_frames):
        frame = np.array(samples[t * hop_n : t * hop_n + win], dtype=float)
        emphasized = np.empty_like(frame)
        emphasized[0] = frame[0] * (1.0 - pre_emphasis)
        for i in range(1, win):
            emphasized[i] = frame[i] - pre_emphasis * frame[i - 1]
        padded = np.zeros(n_fft)
        padded[:win] = emphasized * hamming
        magnitude = np.abs(dft @ padded)
        energies = filters @ magnitude
        logs = np.log(np.maximum(energies, 1e-10))
        out[t] = dct @ logs
    return out


def delta_oracle(frames, window=2):
    """Regression deltas straight from the formula, one frame at a time."""
    frames = np.asarray(frames, dtype=float)
    n = len(frames)
    denom = 2.0 * sum(k * k for k in range(1, window + 1))
    out = np.zeros_like(frames)
    for t in range(n):
        acc = np.zeros(frames.shape[1])
        for k in range(1, window + 1):
            acc = acc + k * (frames[min(t + k, n - 1)] - frames[max(t - k, 0)])
        out[t] = acc / denom
    return out


def trailing_mean_oracle(frames, window=100):
    """Expected causal CMN output computed directly from the definition."""
    frames = np.asarray(frames, dtype=float)
    out = np.zeros_like(frames)
    for t in range(len(frames)):
        lo = max(0, t - window + 1)
        out[t] = frames[t] - frames[lo : t + 1].mean(axis=0)
    return out


def naive_posteriors(x, weights, means, variances):
    """Linear-domain responsibility formula; underflows for large dims."""
    x = np.asarray(x, dtype=float)
    likes = []
    for w, m, v in zip(weights, means, variances):
        quad = float(np.sum((x - m) ** 2 / v))
        norm = math.exp(-0.5 * quad) / math.sqrt((2 * math.pi) ** len(x) * float(np.prod(v)))
        likes.append(w * norm)
    total = sum(likes)
    return np.array([p / total for p in likes])


def supervector_oracle(frames, weights, means, variances, count_floor=1e-3):
    """Two-pass supervector: responsibilities, then weighted centered means."""
    frames = np.asarray(frames, dtype=float)
    c, d = means.shape
    counts = np.zeros(c)
    sums = np.zeros((c, d))
    for x in frames:
        gamma = naive_posteriors(x, weights, means, variances)
        counts += gamma
        for i in range(c):
            sums[i] += gamma[i] * (x - means[i])
    blocks = [sums[i] / max(counts[i], count_floor) for i in range(c)]
    return np.concatenate(blocks)


def grid_dcf(ref_speech, hyp_speech, collar, duration, step=0.001):
    """Brute-force DCF on a time grid; intervals are (start, end) pairs.

    Returns (missed_seconds, false_alarm_seconds, scored_speech_seconds,
    scored_nonspeech_seconds) judged at grid cell midpoints.
    """
    n_cells = int(round(duration / step))
    mid = (np.arange(n_cells) + 0.5) * step

    def member(points, intervals):
        mask = np.zeros(len(points), dtype=bool)
        for a, b in intervals:
            mask |= (points >= a) & (points < b)
        return mask

    in_ref = member(mid, ref_speech)
    in_hyp = member(mid, hyp_speech)
    in_collar = np.zeros(n_cells, dtype=bool)
    merged = merge_intervals_oracle(ref_speech)
    for a, b in merged:
        for boundary in (a, b):
            in_collar |= (mid >= boundary - collar) & (mid < boundary + collar)

    scored_speech = in_ref & ~in_collar
    scored_nonspeech = ~in_ref & ~in_collar
    missed = float(np.sum(scored_speech & ~in_hyp)) * step
    false_alarm = float(np.sum(scored_nonspeech & in_hyp)) * step
    return missed, false_alarm, float(scored_speech.sum()) * step, float(scored_nonspeech.sum()) * step


def merge_intervals_oracle(intervals):
    """Sort and merge touching/overlapping (start, end) pairs."""
    out = []
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def finite_difference_grads(loss_fn, arrays, step=1e-5):
    """Central-difference gradients of loss_fn() w.r.t. each array in place."""
    grads = []
    for array in arrays:
        grad = np.zeros_like(array)
        flat = array.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            hi = loss_fn()
            flat[i] = original - step
            lo = loss_fn()
            flat[i] = original
            gflat[i] = (hi - lo) / (2.0 * step)
        grads.append(grad)
    return grads


def lda_two_class_direction(class_a, class_b):
    """Closed-form two-class LDA direction: Sw^-1 (mean_a - mean_b)."""
    class_a = np.asarray(class_a, dtype=float)
    class_b = np.asarray(class_b, dtype=float)
    mean_a, mean_b = class_a.mean(axis=0), class_b.mean(axis=0)
    centered_a = class_a - mean_a
    centered_b = class_b - mean_b
    sw = centered_a.T @ centered_a + centered_b.T @ centered_b
    direction = np.linalg.solve(sw, mean_a - mean_b)
    return direction / np.linalg.norm(direction)


def em_oracle(data, n_components, n_iters, seed, block_frames):
    """Block EM as a plain loop of one numpy operation per step, every
    temporary its own array: k-means++ from the seed, the global variance
    and its floor, then per iteration the log-likelihoods, a max-shifted
    log-sum-exp, the responsibilities and the count and moment sums of each
    block_frames block of the (n, D) array in turn. It makes the same
    floating-point operations in the same order as the library's EM, so the
    two agree bit for bit. Returns (weights, means, variances, the total
    log-likelihood entering each iteration)."""
    data = np.asarray(data, dtype=float)
    n, dim = data.shape
    blocks = [data[i : i + block_frames] for i in range(0, n, block_frames)]

    mean = sum(np.add.reduce(block, axis=0) for block in blocks) / n
    variance = sum(np.add.reduce((block - mean) ** 2, axis=0) for block in blocks) / n
    floor = np.maximum(1e-3 * variance, 1e-10)

    rng = np.random.default_rng(seed)

    def distances(center):
        return np.concatenate([np.sum((block - center) ** 2, axis=1) for block in blocks])

    means = np.empty((n_components, dim))
    means[0] = data[rng.integers(n)]
    dist2 = distances(means[0])
    for i in range(1, n_components):
        total = dist2.sum()
        if total <= 0.0:
            means[i:] = data[rng.integers(n, size=n_components - i)]
            break
        means[i] = data[rng.choice(n, p=dist2 / total)]
        dist2 = np.minimum(dist2, distances(means[i]))
    weights = np.full(n_components, 1.0 / n_components)
    variances = np.tile(np.maximum(variance, floor), (n_components, 1))

    history = []
    for _ in range(n_iters):
        precision = 1.0 / variances
        constant = (
            np.log(np.maximum(weights, 1e-300))
            - 0.5 * (dim * np.log(2.0 * np.pi) + np.sum(np.log(variances), axis=1))
            - 0.5 * np.sum(means**2 * precision, axis=1)
        )
        scaled_means = np.ascontiguousarray((means * precision).T)
        precision_t = np.ascontiguousarray(precision.T)
        total = 0.0
        counts = np.zeros(n_components)
        first = np.zeros((n_components, dim))
        second = np.zeros((n_components, dim))
        for block in blocks:
            ll = constant + block @ scaled_means - 0.5 * (block**2) @ precision_t
            peak = np.maximum.reduce(ll, axis=-1, keepdims=True)
            norm = np.log(np.add.reduce(np.exp(ll - peak), axis=-1, keepdims=True)) + peak
            resp = np.exp(ll - norm)
            total += float(np.add.reduce(norm, axis=None))
            counts += np.add.reduce(resp, axis=0)
            first += resp.T @ block
            second += resp.T @ block**2
        history.append(total)

        means, variances = means.copy(), variances.copy()
        alive = counts > 1e-10
        means[alive] = first[alive] / counts[alive, None]
        variances[alive] = second[alive] / counts[alive, None] - means[alive] ** 2
        variances[alive] = np.maximum(variances[alive], floor)
        weights = counts / n
        weights = weights / weights.sum()
    return weights, means, variances, history
