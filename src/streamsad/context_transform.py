"""Two-stage temporal context transform: supervised LDA, then PCA.

Frames are stacked with their neighbors (offsets −10..+10 step 2 for the
LDA stage, −9..+9 step 3 for the PCA stage), the stack is projected down,
and the second stage repeats the trick on the first stage's outputs. LDA
classes are acoustic clusters split by speech/non-speech, so the projection
keeps directions that tell those apart.

Stacking, with or without the projection, is a features.CausalWindow
stage, so training (push a whole file, then flush) and detection (push as
audio arrives) share one implementation and give the same bits. The
projection is `features.row_products`, the one batch-invariant product.

Both trainers accumulate scatter/moment statistics incrementally, so a
corpus never has to be stacked in memory at once: training feeds them one
CausalWindow block at a time. LDA's generalized symmetric eigenproblem is
solved with numpy alone (Cholesky whitening, then `eigh`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import CausalWindow, row_products
from .gmm import Gmm, posterior_matrix

# within-class scatter gets this fraction of trace/dim added to its diagonal;
# high-dimensional scatter from limited audio is close to singular
LDA_RIDGE = 1e-4


@dataclass(frozen=True)
class ContextSpec:
    """Frame offsets stacked around the current frame, in concatenation order."""

    offsets: tuple[int, ...]

    def __post_init__(self):
        if 0 not in self.offsets:
            raise ValueError("context offsets must include 0")
        if any(b <= a for a, b in zip(self.offsets, self.offsets[1:])):
            raise ValueError("context offsets must be strictly increasing")

    @property
    def size(self) -> int:
        return len(self.offsets)

    @property
    def lookahead(self) -> int:
        return max(self.offsets)

    @property
    def lookback(self) -> int:
        return -min(self.offsets)


LDA_CONTEXT = ContextSpec(tuple(range(-10, 11, 2)))
PCA_CONTEXT = ContextSpec(tuple(range(-9, 10, 3)))


@dataclass(frozen=True)
class LinearTransform:
    """Affine projection y = matrix @ (x - mean_offset); rows are components."""

    matrix: np.ndarray
    mean_offset: np.ndarray

    def __post_init__(self):
        if self.matrix.ndim != 2 or self.mean_offset.shape != (self.matrix.shape[1],):
            raise ValueError("matrix must be (out_dim, in_dim) with matching mean_offset")
        if self.matrix.shape[0] > self.matrix.shape[1]:
            raise ValueError("output dim cannot exceed input dim")
        if not (np.all(np.isfinite(self.matrix)) and np.all(np.isfinite(self.mean_offset))):
            raise ValueError("transform contains non-finite entries")

    @property
    def input_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def output_dim(self) -> int:
        return self.matrix.shape[0]


def context_window(spec: ContextSpec, transform: LinearTransform | None = None) -> CausalWindow:
    """Stage stacking the frames at spec's offsets around each frame, edges
    replicated: (T, D) -> (T, |offsets|*D), projected by transform if given."""
    span, size = spec.lookback + spec.lookahead, spec.size
    rows = np.asarray(spec.offsets) + spec.lookback  # the context rows output 0 stacks

    def kernel(context: np.ndarray, start: int) -> np.ndarray:
        n = len(context) - span
        stacked = context[np.arange(n)[:, None] + rows].reshape(n, size * context.shape[1])
        if transform is None:
            return stacked
        stacked -= transform.mean_offset  # the gathered stack is this call's own: centered in place
        return row_products(stacked, transform.matrix.T)

    return CausalWindow(spec.lookback, spec.lookahead, kernel)


def cascade(lda: LinearTransform | None = None, pca: LinearTransform | None = None) -> tuple:
    """The detector's two stages, LDA context then PCA context, as fresh
    windows; a stage without its transform stacks without projecting."""
    return context_window(LDA_CONTEXT, lda), context_window(PCA_CONTEXT, pca)


def acoustic_labels(frames: np.ndarray, ubm: Gmm, speech_mask: np.ndarray) -> np.ndarray:
    """Class ids for LDA: winning UBM component x 2, plus 1 for non-speech."""
    frames = np.asarray(frames, dtype=np.float64)
    speech_mask = np.asarray(speech_mask, dtype=bool)
    if len(frames) != len(speech_mask):
        raise ValueError("frames and speech_mask lengths differ")
    component = np.argmax(posterior_matrix(frames, ubm)[0], axis=1)
    return component * 2 + np.where(speech_mask, 0, 1)


def _fix_signs(rows: np.ndarray) -> np.ndarray:
    """Make each row's largest-magnitude entry positive (deterministic models)."""
    for row in rows:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    return rows


class LdaScatter:
    """Streaming scatter accumulation for LDA over many add() calls."""

    def __init__(self, dim: int):
        self.dim = dim
        self.second_moment = np.zeros((dim, dim))
        self.class_counts: dict[int, int] = {}
        self.class_sums: dict[int, np.ndarray] = {}

    def add(self, vectors: np.ndarray, class_ids: np.ndarray) -> None:
        vectors = np.asarray(vectors, dtype=np.float64)
        class_ids = np.asarray(class_ids)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(f"expected (n, {self.dim}) vectors")
        if len(vectors) != len(class_ids):
            raise ValueError("vectors and class_ids lengths differ")
        self.second_moment += vectors.T @ vectors
        for cid in np.unique(class_ids):
            chunk = vectors[class_ids == cid]
            key = int(cid)
            self.class_counts[key] = self.class_counts.get(key, 0) + len(chunk)
            if key in self.class_sums:
                self.class_sums[key] = self.class_sums[key] + chunk.sum(axis=0)
            else:
                self.class_sums[key] = chunk.sum(axis=0)

    def finalize(self, out_dim: int) -> LinearTransform:
        # classes with a single frame carry no within-class information;
        # remove them (a 1-frame class's second moment is just its outer square)
        second = self.second_moment.copy()
        counts, sums = {}, {}
        for cid, n in self.class_counts.items():
            if n >= 2:
                counts[cid] = n
                sums[cid] = self.class_sums[cid]
            elif n == 1:
                lone = self.class_sums[cid]
                second -= np.outer(lone, lone)

        if len(counts) < 2:
            raise ValueError("LDA needs at least 2 classes with at least 2 samples each")
        max_dim = min(self.dim, len(counts) - 1)
        if not (1 <= out_dim <= max_dim):
            raise ValueError(f"out_dim must be in [1, {max_dim}] for {len(counts)} classes")

        total_n = sum(counts.values())
        total_sum = np.sum(list(sums.values()), axis=0)
        mean = total_sum / total_n

        within = second.copy()
        between = np.zeros_like(second)
        for cid, n in counts.items():
            class_mean = sums[cid] / n
            within -= n * np.outer(class_mean, class_mean)
            diff = class_mean - mean
            between += n * np.outer(diff, diff)
        within = (within + within.T) / 2.0
        between = (between + between.T) / 2.0
        within[np.diag_indices_from(within)] += LDA_RIDGE * np.trace(within) / self.dim

        # between v = lambda within v, whitened by within = L L^T: the
        # eigenvectors y of L^-1 between L^-T give v = L^-T y, with
        # v^T within v = I
        inverse = np.linalg.inv(np.linalg.cholesky(within))
        whitened = inverse @ between @ inverse.T
        values, vectors = np.linalg.eigh((whitened + whitened.T) / 2.0)
        vectors = inverse.T @ vectors
        order = np.argsort(-values, kind="stable")[:out_dim]
        rows = _fix_signs(np.ascontiguousarray(vectors[:, order].T))
        return LinearTransform(matrix=rows, mean_offset=mean)


class PcaMoments:
    """Streaming mean/covariance accumulation for PCA."""

    def __init__(self, dim: int):
        self.dim = dim
        self.count = 0
        self.total = np.zeros(dim)
        self.second_moment = np.zeros((dim, dim))

    def add(self, vectors: np.ndarray) -> None:
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(f"expected (n, {self.dim}) vectors")
        self.count += len(vectors)
        self.total += vectors.sum(axis=0)
        self.second_moment += vectors.T @ vectors

    def finalize(self, out_dim: int) -> LinearTransform:
        if self.count < 2:
            raise ValueError("PCA needs at least 2 samples")
        if not (1 <= out_dim <= self.dim):
            raise ValueError(f"out_dim must be in [1, {self.dim}]")
        mean = self.total / self.count
        cov = (self.second_moment - self.count * np.outer(mean, mean)) / (self.count - 1)
        cov = (cov + cov.T) / 2.0
        values, vectors = np.linalg.eigh(cov)
        order = np.argsort(-values, kind="stable")[:out_dim]
        rows = _fix_signs(np.ascontiguousarray(vectors[:, order].T))
        return LinearTransform(matrix=rows, mean_offset=mean)
