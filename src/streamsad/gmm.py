"""Diagonal-covariance Gaussian mixtures: EM training, merging, statistics.

Three mixtures drive the detector. A small one clusters raw features into
acoustic classes for LDA supervision, a large merged speech/non-speech one
produces per-segment posterior count vectors, and another small one feeds
the supervector stage. All posterior math runs in the log domain; 24-d
Gaussian likelihoods underflow hopelessly in linear space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VARIANCE_FLOOR_FRACTION = 1e-3
_LOG_2PI = np.log(2.0 * np.pi)

# components whose summed responsibility falls below this keep their old
# parameters for the iteration instead of dividing by almost-zero
_DEAD_COMPONENT = 1e-10


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


def _as_frames(x: np.ndarray, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[np.newaxis, :]
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(f"expected vectors of dim {dim}, got shape {x.shape}")
    return x


def log_likelihoods(frames: np.ndarray, gmm: Gmm) -> np.ndarray:
    """log(w_c * N(x_t; m_c, v_c)) for every frame/component pair, (T, C)."""
    return _component_logliks(_as_frames(frames, gmm.dim), gmm)


def _component_logliks(x: np.ndarray, gmm: Gmm) -> np.ndarray:
    """log_likelihoods of (..., T, D) frames, one matrix product per (T, D) slice."""
    precision = 1.0 / gmm.variances
    constant = (
        np.log(np.maximum(gmm.weights, 1e-300))
        - 0.5 * (gmm.dim * _LOG_2PI + np.sum(np.log(gmm.variances), axis=1))
        - 0.5 * np.sum(gmm.means**2 * precision, axis=1)
    )
    # quadratic term expanded so the whole thing is three matrix products
    return constant + x @ (gmm.means * precision).T - 0.5 * (x**2) @ precision.T


def logsumexp(a: np.ndarray, axis: int = -1, keepdims: bool = False) -> np.ndarray:
    """log(sum(exp(a))) along axis, shifted by the maximum so exp never overflows."""
    peak = np.max(a, axis=axis, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0  # all -inf stays -inf; +inf or nan propagate
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - peak), axis=axis, keepdims=True)) + peak
    return out if keepdims else np.squeeze(out, axis=axis)


def loglik(frames: np.ndarray, gmm: Gmm) -> float:
    """Total log-likelihood of the frames under the mixture."""
    return float(logsumexp(log_likelihoods(frames, gmm), axis=1).sum())


def posterior_matrix(frames: np.ndarray, gmm: Gmm) -> np.ndarray:
    """Component responsibilities per frame, rows summing to 1, (T, C)."""
    return _responsibilities(log_likelihoods(frames, gmm))


def _responsibilities(ll: np.ndarray) -> np.ndarray:
    return np.exp(ll - logsumexp(ll, axis=-1, keepdims=True))


def posteriors(x: np.ndarray, gmm: Gmm) -> np.ndarray:
    """Responsibility vector for a single frame."""
    return posterior_matrix(np.asarray(x)[np.newaxis, :], gmm)[0]


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


@dataclass(frozen=True)
class BaumWelchStats:
    """Zero-order counts and centered first-order sums under a UBM.

    One segment holds (C,) counts and (C, D) sums; a block of S segments
    holds (S, C) and (S, C, D), each segment frame_count frames long.
    """

    zero_order: np.ndarray
    first_order_centered: np.ndarray
    frame_count: int

    def __post_init__(self):
        if self.zero_order.shape != self.first_order_centered.shape[:-1]:
            raise ValueError("zero/first order component counts differ")
        if np.any(self.zero_order < -1e-12):
            raise ValueError("zero-order stats must be non-negative")
        if np.any(np.abs(self.zero_order.sum(axis=-1) - self.frame_count) > 1e-6):
            raise ValueError("zero-order stats must sum to the frame count")


def block_stats(segments: np.ndarray, ubm: Gmm) -> BaumWelchStats:
    """Statistics of S segments of n frames each, given as one (S, n, D) array.

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
    counts = resp.sum(axis=1)
    first = resp.transpose(0, 2, 1) @ x - counts[:, :, np.newaxis] * ubm.means
    return BaumWelchStats(zero_order=counts, first_order_centered=first, frame_count=x.shape[1])


def accumulate_stats(frames: np.ndarray, ubm: Gmm) -> BaumWelchStats:
    """Sufficient statistics of a frame sequence; additive over concatenation."""
    x = _as_frames(frames, ubm.dim)
    stats = block_stats(x[np.newaxis], ubm)
    return BaumWelchStats(stats.zero_order[0], stats.first_order_centered[0], stats.frame_count)
