"""Diagonal-covariance Gaussian mixtures: EM training, merging, segment statistics.

Three mixtures drive the detector. A small one clusters raw features into
acoustic classes for LDA supervision, a large merged speech/non-speech one
produces per-segment posterior count vectors (`block_counts`), and another
small one gives each segment its supervector (`block_supervectors`). Both
take a block of S segments as one (S, n, D) array; training and detection
call them alike. All posterior math runs in the log domain; 24-d Gaussian
likelihoods underflow hopelessly in linear space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

VARIANCE_FLOOR_FRACTION = 1e-3
_LOG_2PI = np.log(2.0 * np.pi)

# components whose summed responsibility falls below this keep their old
# parameters for the iteration instead of dividing by almost-zero
_DEAD_COMPONENT = 1e-10

# zero-order counts are floored here before dividing the first-order stats
COUNT_FLOOR = 1e-3


@dataclass(frozen=True)
class Gmm:
    """Mixture weights plus per-component means and diagonal variances."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        if self.means.ndim != 2 or self.means.shape != self.variances.shape:
            raise ValueError("means and variances must both be (C, D)")
        if self.weights.shape != (len(self.means),):
            raise ValueError("weights length must match component count")
        if not (
            np.all(np.isfinite(self.weights))
            and np.all(np.isfinite(self.means))
            and np.all(np.isfinite(self.variances))
        ):
            raise ValueError("GMM parameters contain non-finite values")
        if np.any(self.weights < 0) or abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be non-negative and sum to 1")
        if np.any(self.variances <= 0):
            raise ValueError("variances must be positive")

    @property
    def n_components(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @cached_property
    def scoring_tables(self) -> tuple:
        """(constant, (means * precision).T, precision.T) of the log-likelihood.

        They depend on the parameters alone, so they are built once per
        mixture, the first time it scores anything.
        """
        precision = 1.0 / self.variances
        constant = (
            np.log(np.maximum(self.weights, 1e-300))
            - 0.5 * (self.dim * _LOG_2PI + np.sum(np.log(self.variances), axis=1))
            - 0.5 * np.sum(self.means**2 * precision, axis=1)
        )
        return constant, (self.means * precision).T, precision.T


def log_likelihoods(frames: np.ndarray, gmm: Gmm) -> np.ndarray:
    """log(w_c * N(x_t; m_c, v_c)) for every frame/component pair of (T, D) frames, (T, C)."""
    x = np.asarray(frames, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != gmm.dim:
        raise ValueError(f"expected (T, {gmm.dim}) frames, got shape {x.shape}")
    return _component_logliks(x, gmm)


def _component_logliks(x: np.ndarray, gmm: Gmm) -> np.ndarray:
    """log_likelihoods of (..., T, D) frames, one matrix product per (T, D) slice."""
    constant, scaled_means, precision = gmm.scoring_tables
    # quadratic term expanded so the whole thing is two matrix products
    return constant + x @ scaled_means - 0.5 * (x**2) @ precision


def logsumexp(a: np.ndarray, axis: int = -1, keepdims: bool = False) -> np.ndarray:
    """log(sum(exp(a))) along axis, shifted by the maximum so exp never overflows."""
    peak = np.maximum.reduce(a, axis=axis, keepdims=True)
    finite = np.isfinite(peak)
    if np.logical_and.reduce(finite, axis=None):
        # the largest term is exp(0) = 1, so the sum is at least 1
        return _shifted_logsumexp(a, peak, axis, keepdims)
    peak[~finite] = 0.0  # all -inf stays -inf; +inf or nan propagate
    with np.errstate(divide="ignore"):
        return _shifted_logsumexp(a, peak, axis, keepdims)


def _shifted_logsumexp(a: np.ndarray, peak: np.ndarray, axis: int, keepdims: bool) -> np.ndarray:
    out = np.log(np.add.reduce(np.exp(a - peak), axis=axis, keepdims=True)) + peak
    return out if keepdims else np.squeeze(out, axis=axis)


def posterior_matrix(frames: np.ndarray, gmm: Gmm) -> np.ndarray:
    """Component responsibilities per frame, rows summing to 1, (T, C)."""
    return _responsibilities(log_likelihoods(frames, gmm))


def _responsibilities(ll: np.ndarray) -> np.ndarray:
    return np.exp(ll - logsumexp(ll, axis=-1, keepdims=True))


def _kmeans_plus_plus(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Spread-out initial means: each next center drawn ∝ squared distance."""
    centers = np.empty((k, data.shape[1]))
    centers[0] = data[rng.integers(len(data))]
    dist2 = np.sum((data - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = dist2.sum()
        if total <= 0.0:
            centers[i:] = data[rng.integers(len(data), size=k - i)]
            break
        centers[i] = data[rng.choice(len(data), p=dist2 / total)]
        dist2 = np.minimum(dist2, np.sum((data - centers[i]) ** 2, axis=1))
    return centers


def train_gmm(
    data: np.ndarray,
    n_components: int,
    n_iters: int = 20,
    seed: int = 0,
    callback=None,
) -> Gmm:
    """Fit a diagonal GMM by EM from a k-means++ style initialization.

    Deterministic given (data, seed). callback, when given, receives
    (iteration, total_log_likelihood) with the likelihood of the parameters
    entering that iteration; the sequence is non-decreasing.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or len(data) == 0:
        raise ValueError("data must be a non-empty (n, D) array")
    if len(data) < n_components:
        raise ValueError(f"{len(data)} samples cannot support {n_components} components")

    global_variance = data.var(axis=0)
    if np.all(global_variance <= 0.0):
        raise ValueError("zero global variance: all samples identical")
    floor = np.maximum(VARIANCE_FLOOR_FRACTION * global_variance, 1e-10)

    rng = np.random.default_rng(seed)
    means = _kmeans_plus_plus(data, n_components, rng)
    weights = np.full(n_components, 1.0 / n_components)
    variances = np.tile(np.maximum(global_variance, floor), (n_components, 1))
    gmm = Gmm(weights=weights, means=means, variances=variances)

    for iteration in range(n_iters):
        ll = log_likelihoods(data, gmm)
        norm = logsumexp(ll, axis=1, keepdims=True)
        if callback is not None:
            callback(iteration, float(norm.sum()))
        resp = np.exp(ll - norm)

        counts = resp.sum(axis=0)
        weights = counts / len(data)
        means = gmm.means.copy()
        variances = gmm.variances.copy()
        alive = counts > _DEAD_COMPONENT
        if np.any(alive):
            means[alive] = (resp.T[alive] @ data) / counts[alive, None]
            variances[alive] = (resp.T[alive] @ data**2) / counts[alive, None] - means[alive] ** 2
            variances[alive] = np.maximum(variances[alive], floor)
        gmm = Gmm(weights=weights / weights.sum(), means=means, variances=variances)

    return gmm


def merge_gmms(speech: Gmm, nonspeech: Gmm) -> Gmm:
    """Concatenate two mixtures, speech components first, each class weighing 0.5."""
    if speech.dim != nonspeech.dim:
        raise ValueError(f"dimension mismatch: {speech.dim} vs {nonspeech.dim}")
    return Gmm(
        weights=np.concatenate([0.5 * speech.weights, 0.5 * nonspeech.weights]),
        means=np.vstack([speech.means, nonspeech.means]),
        variances=np.vstack([speech.variances, nonspeech.variances]),
    )


def _check_counts(counts: np.ndarray, frame_count: int) -> None:
    """Zero-order counts are non-negative and each segment's sum to its
    frame count: one vectorized test each for a whole block. fmin and fmax
    skip NaN, so NaN counts pass both tests, as under an elementwise np.any;
    the score-range check downstream catches them."""
    if np.fmin.reduce(counts, axis=None, initial=0.0) < -1e-12:
        raise ValueError("zero-order stats must be non-negative")
    error = np.abs(np.add.reduce(counts, axis=-1) - frame_count)
    if np.fmax.reduce(error, axis=None, initial=0.0) > 1e-6:
        raise ValueError("zero-order stats must sum to the frame count")


def _block_posteriors(segments: np.ndarray, ubm: Gmm) -> tuple:
    """(frames, responsibilities, zero-order counts) of S segments of n frames,
    (S, n, D), (S, n, C) and (S, C), the counts checked once for the block.

    np.matmul on the stacked arrays issues, per segment, the BLAS call that
    the segment's own 2-D product issues, so each segment's bits are the
    same in a block of any size.
    """
    x = np.asarray(segments, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != ubm.dim:
        raise ValueError(f"expected (S, n, {ubm.dim}) segments, got shape {x.shape}")
    if x.shape[1] == 0:
        raise ValueError("empty frame sequence")
    resp = _responsibilities(_component_logliks(x, ubm))
    counts = np.add.reduce(resp, axis=1)
    _check_counts(counts, x.shape[1])
    return x, resp, counts


def block_counts(segments: np.ndarray, ubm: Gmm) -> np.ndarray:
    """Zero-order counts of S segments given as one (S, n, D) array, (S, C)."""
    return _block_posteriors(segments, ubm)[2]


def block_supervectors(segments: np.ndarray, ubm: Gmm) -> np.ndarray:
    """Supervectors of S segments given as one (S, n, D) array, (S, C*D).

    A segment's supervector is its centered first-order statistics
    sum_t gamma_c(t) (x_t - m_c), divided per component by the zero-order
    count (floored at COUNT_FLOOR) and flattened component-major.
    """
    x, resp, counts = _block_posteriors(segments, ubm)
    first = resp.transpose(0, 2, 1) @ x - counts[:, :, np.newaxis] * ubm.means
    normalized = first / np.maximum(counts, COUNT_FLOOR)[:, :, np.newaxis]
    return normalized.reshape(len(x), ubm.means.size)
