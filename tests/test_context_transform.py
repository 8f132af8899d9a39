import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamsad.context_transform import (
    LDA_CONTEXT,
    PCA_CONTEXT,
    ContextSpec,
    LdaScatter,
    LinearTransform,
    PcaMoments,
    acoustic_labels,
    apply_transform,
    context_window,
)
from streamsad.gmm import Gmm
from oracles import lda_two_class_direction, naive_posteriors


def fit_lda(vectors, class_ids, out_dim):
    """LDA of an in-memory dataset: one LdaScatter.add, then finalize."""
    scatter = LdaScatter(vectors.shape[1])
    scatter.add(vectors, class_ids)
    return scatter.finalize(out_dim)


def fit_pca(vectors, out_dim):
    """PCA of an in-memory dataset: one PcaMoments.add, then finalize."""
    moments = PcaMoments(vectors.shape[1])
    moments.add(vectors)
    return moments.finalize(out_dim)


class TestContextStacking:
    def test_standard_specs(self):
        assert LDA_CONTEXT.size == 11
        assert LDA_CONTEXT.lookahead == 10 and LDA_CONTEXT.lookback == 10
        assert PCA_CONTEXT.size == 7
        assert PCA_CONTEXT.lookahead == 9 and PCA_CONTEXT.lookback == 9

    def test_stacked_dims(self):
        frames36 = np.zeros((60, 36))
        assert context_window(LDA_CONTEXT).flush(frames36).shape == (60, 396)
        frames12 = np.zeros((60, 12))
        assert context_window(PCA_CONTEXT).flush(frames12).shape == (60, 84)

    def test_interior_frame_uses_exact_offsets(self):
        frames = np.arange(50.0).reshape(-1, 1)
        got = context_window(LDA_CONTEXT).flush(frames)[25]
        np.testing.assert_array_equal(got, 25.0 + np.arange(-10, 11, 2))

    def test_edges_replicate(self):
        frames = np.arange(50.0).reshape(-1, 1)
        stacked = context_window(LDA_CONTEXT).flush(frames)
        # offsets -10..0 all clip to frame 0
        np.testing.assert_array_equal(stacked[0, :6], 0.0)
        last = stacked[49]
        np.testing.assert_array_equal(last[5:], 49.0)

    def test_single_frame_sequence(self):
        frames = np.array([[7.0, 8.0]])
        got = context_window(PCA_CONTEXT).flush(frames)
        np.testing.assert_array_equal(got, np.tile([7.0, 8.0], (1, 7)))

    def test_batch_matches_per_frame(self):
        # each row straight from the definition: frames[clip(t + offset)]
        rng = np.random.default_rng(0)
        frames = rng.standard_normal((40, 5))
        batch = context_window(LDA_CONTEXT).flush(frames)
        for t in range(40):
            idx = np.clip(t + np.asarray(LDA_CONTEXT.offsets), 0, 39)
            np.testing.assert_array_equal(batch[t], frames[idx].ravel())

    def test_bad_index_and_empty(self):
        frames = np.zeros((5, 2))
        with pytest.raises(IndexError):
            context_window(PCA_CONTEXT).flush(frames)[5]
        # no frames in, an empty block of the stacked width out
        assert context_window(PCA_CONTEXT).flush(np.zeros((0, 2))).shape == (0, 14)

    def test_spec_must_include_zero_and_increase(self):
        with pytest.raises(ValueError):
            ContextSpec((-2, 2))
        with pytest.raises(ValueError):
            ContextSpec((0, 2, 1))


class TestAcousticLabels:
    def test_single_component_labels_are_parity(self):
        ubm = Gmm(
            weights=np.array([1.0]),
            means=np.zeros((1, 3)),
            variances=np.ones((1, 3)),
        )
        frames = np.random.default_rng(1).standard_normal((10, 3))
        mask = np.array([True, False] * 5)
        got = acoustic_labels(frames, ubm, mask)
        np.testing.assert_array_equal(got, np.where(mask, 0, 1))

    def test_matches_posterior_argmax_oracle(self):
        rng = np.random.default_rng(2)
        ubm = Gmm(
            weights=np.array([0.5, 0.3, 0.2]),
            means=rng.standard_normal((3, 4)) * 3,
            variances=np.full((3, 4), 0.5),
        )
        frames = rng.standard_normal((20, 4)) * 2
        mask = rng.random(20) < 0.5
        got = acoustic_labels(frames, ubm, mask)
        for t in range(20):
            gamma = naive_posteriors(frames[t], ubm.weights, ubm.means, ubm.variances)
            want = int(np.argmax(gamma)) * 2 + (0 if mask[t] else 1)
            assert got[t] == want

    def test_frame_at_component_mean_wins_that_component(self):
        ubm = Gmm(
            weights=np.array([0.5, 0.5]),
            means=np.array([[0.0, 0.0], [5.0, 5.0]]),
            variances=np.ones((2, 2)),
        )
        got = acoustic_labels(np.array([[5.0, 5.0]]), ubm, np.array([True]))
        assert got[0] == 2  # component 1, speech parity

    def test_length_mismatch(self):
        ubm = Gmm(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
        with pytest.raises(ValueError, match="lengths differ"):
            acoustic_labels(np.zeros((3, 2)), ubm, np.array([True]))


class TestLda:
    def two_gaussians(self, seed=0, n=400):
        rng = np.random.default_rng(seed)
        cov = np.array([[2.0, 0.8], [0.8, 1.0]])
        chol = np.linalg.cholesky(cov)
        a = rng.standard_normal((n, 2)) @ chol.T + [0.0, 0.0]
        b = rng.standard_normal((n, 2)) @ chol.T + [3.0, 1.0]
        return a, b

    def test_two_class_direction_matches_closed_form(self):
        a, b = self.two_gaussians()
        vectors = np.vstack([a, b])
        ids = np.array([0] * len(a) + [1] * len(b))
        lda = fit_lda(vectors, ids, 1)
        want = lda_two_class_direction(a, b)
        got = lda.matrix[0] / np.linalg.norm(lda.matrix[0])
        # same line, up to sign and the small ridge term
        cos = abs(float(got @ want))
        assert cos > 1.0 - 1e-3

    def test_projection_separates_classes(self):
        a, b = self.two_gaussians(seed=3)
        vectors = np.vstack([a, b])
        ids = np.array([0] * len(a) + [1] * len(b))
        lda = fit_lda(vectors, ids, 1)
        pa = apply_transform(a, lda).ravel()
        pb = apply_transform(b, lda).ravel()
        gap = abs(pa.mean() - pb.mean())
        spread = np.sqrt((pa.var() + pb.var()) / 2)
        assert gap / spread > 2.0

    def test_sample_order_invariance(self):
        a, b = self.two_gaussians(seed=4, n=100)
        vectors = np.vstack([a, b])
        ids = np.array([0] * 100 + [1] * 100)
        lda1 = fit_lda(vectors, ids, 1)
        perm = np.random.default_rng(5).permutation(len(vectors))
        lda2 = fit_lda(vectors[perm], ids[perm], 1)
        np.testing.assert_allclose(lda2.matrix, lda1.matrix, atol=1e-8)
        np.testing.assert_allclose(lda2.mean_offset, lda1.mean_offset, atol=1e-12)

    def test_singleton_classes_are_dropped(self):
        a, b = self.two_gaussians(seed=6, n=50)
        vectors = np.vstack([a, b])
        ids = np.array([0] * 50 + [1] * 50)
        base = fit_lda(vectors, ids, 1)
        lone = np.array([[100.0, -40.0]])
        with_lone = fit_lda(
            np.vstack([vectors, lone]), np.concatenate([ids, [7]]), 1
        )
        np.testing.assert_allclose(with_lone.matrix, base.matrix, atol=1e-12)
        np.testing.assert_allclose(with_lone.mean_offset, base.mean_offset, atol=1e-12)

    def test_needs_two_usable_classes(self):
        vectors = np.random.default_rng(7).standard_normal((10, 3))
        with pytest.raises(ValueError, match="2 classes"):
            fit_lda(vectors, np.zeros(10, dtype=int), 1)
        # second class present but only as a singleton
        ids = np.array([0] * 9 + [1])
        with pytest.raises(ValueError, match="2 classes"):
            fit_lda(vectors, ids, 1)

    def test_out_dim_bounded_by_classes(self):
        rng = np.random.default_rng(8)
        vectors = rng.standard_normal((60, 5))
        ids = np.repeat([0, 1, 2], 20)
        with pytest.raises(ValueError, match="out_dim"):
            fit_lda(vectors, ids, 3)  # 3 classes allow at most 2 dims
        assert fit_lda(vectors, ids, 2).output_dim == 2

    def test_chunked_accumulation_equals_one_shot(self):
        rng = np.random.default_rng(9)
        vectors = rng.standard_normal((90, 4))
        ids = rng.integers(0, 3, 90)
        one = fit_lda(vectors, ids, 2)
        scatter = LdaScatter(4)
        for lo in range(0, 90, 13):
            scatter.add(vectors[lo : lo + 13], ids[lo : lo + 13])
        chunked = scatter.finalize(2)
        np.testing.assert_allclose(chunked.matrix, one.matrix, atol=1e-8)

    def test_beats_random_projections(self):
        # Fisher ratio of the learned axis should beat almost any random axis
        rng = np.random.default_rng(10)
        means = rng.standard_normal((6, 8)) * 2.5
        vectors = np.vstack([m + rng.standard_normal((40, 8)) for m in means])
        ids = np.repeat(np.arange(6), 40)
        lda = fit_lda(vectors, ids, 1)

        def fisher(direction):
            proj = vectors @ direction
            class_means = np.array([proj[ids == c].mean() for c in range(6)])
            within = np.mean([proj[ids == c].var() for c in range(6)])
            return class_means.var() / within

        learned = fisher(lda.matrix[0] / np.linalg.norm(lda.matrix[0]))
        wins = 0
        for _ in range(100):
            d = rng.standard_normal(8)
            wins += learned >= fisher(d / np.linalg.norm(d))
        assert wins >= 95


class TestPca:
    def test_recovers_dominant_line(self):
        rng = np.random.default_rng(11)
        direction = np.array([3.0, 4.0]) / 5.0
        data = np.outer(rng.standard_normal(300) * 5, direction)
        data += rng.standard_normal((300, 2)) * 0.01
        pca = fit_pca(data, 1)
        assert abs(float(pca.matrix[0] @ direction)) > 0.999

    def test_matches_direct_eigendecomposition(self):
        rng = np.random.default_rng(12)
        data = rng.standard_normal((200, 6)) @ rng.standard_normal((6, 6))
        pca = fit_pca(data, 3)
        cov = np.cov(data, rowvar=False)
        values, vectors = np.linalg.eigh(cov)
        want = vectors[:, np.argsort(-values)[:3]].T
        for row_got, row_want in zip(pca.matrix, want):
            cos = abs(float(row_got @ row_want))
            assert cos > 1.0 - 1e-9

    def test_mean_projects_to_zero(self):
        rng = np.random.default_rng(13)
        data = rng.standard_normal((50, 4)) + 10.0
        pca = fit_pca(data, 2)
        np.testing.assert_allclose(
            apply_transform(data.mean(axis=0), pca), 0.0, atol=1e-9
        )

    def test_rows_orthonormal(self):
        rng = np.random.default_rng(14)
        pca = fit_pca(rng.standard_normal((100, 5)), 4)
        np.testing.assert_allclose(pca.matrix @ pca.matrix.T, np.eye(4), atol=1e-10)

    def test_projection_variances_sorted(self):
        rng = np.random.default_rng(15)
        data = rng.standard_normal((500, 5)) * np.array([5.0, 3.0, 2.0, 1.0, 0.5])
        pca = fit_pca(data, 5)
        variances = apply_transform(data, pca).var(axis=0)
        assert np.all(np.diff(variances) <= 1e-9)

    def test_chunked_accumulation_equals_one_shot(self):
        rng = np.random.default_rng(16)
        data = rng.standard_normal((120, 4))
        one = fit_pca(data, 2)
        moments = PcaMoments(4)
        for lo in range(0, 120, 17):
            moments.add(data[lo : lo + 17])
        chunked = moments.finalize(2)
        np.testing.assert_allclose(chunked.matrix, one.matrix, atol=1e-8)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="2 samples"):
            fit_pca(np.ones((1, 3)), 1)


class TestStreamingCascade:
    """The detector's LDA -> PCA stages, pushed in any chunking, equal the
    stacking alone followed by apply_transform, one flush each, bit for bit."""

    def test_chunked_stages_equal_batch_bits(self):
        rng = np.random.default_rng(40)
        frames = rng.standard_normal((1300, 36))
        lda = LinearTransform(
            matrix=rng.standard_normal((12, 396)), mean_offset=rng.standard_normal(396)
        )
        pca = fit_pca(rng.standard_normal((200, 84)), 24)
        reduced = apply_transform(context_window(LDA_CONTEXT).flush(frames), lda)
        want = apply_transform(context_window(PCA_CONTEXT).flush(reduced), pca)
        for sizes in ([1300], [1] * 30 + [1270], list(rng.integers(1, 120, 40))):
            stages = (context_window(LDA_CONTEXT, lda), context_window(PCA_CONTEXT, pca))
            cuts = np.cumsum(sizes)[:-1]
            out = []
            for piece in np.split(frames, cuts[cuts < len(frames)]):
                for stage in stages:
                    piece = stage.push(piece)
                out.append(piece)
            tail = frames[:0]
            for stage in stages:
                tail = stage.flush(tail)
            out.append(tail)
            np.testing.assert_array_equal(np.concatenate(out), want)

    def test_fewer_frames_than_lookahead(self):
        rng = np.random.default_rng(41)
        frames = rng.standard_normal((3, 4))
        stage = context_window(LDA_CONTEXT)
        assert stage.push(frames).shape == (0, 44)
        np.testing.assert_array_equal(stage.flush(frames[:0]), context_window(LDA_CONTEXT).flush(frames))


class TestApplyTransform:
    def test_matches_manual_projection(self):
        rng = np.random.default_rng(17)
        matrix = rng.standard_normal((3, 5))
        mean = rng.standard_normal(5)
        transform = LinearTransform(matrix=matrix, mean_offset=mean)
        x = rng.standard_normal((4, 5))
        want = np.array([[row @ (xi - mean) for row in matrix] for xi in x])
        np.testing.assert_allclose(apply_transform(x, transform), want, atol=1e-12)

    def test_single_vector_and_batch_agree(self):
        rng = np.random.default_rng(18)
        transform = fit_pca(rng.standard_normal((50, 4)), 2)
        x = rng.standard_normal((6, 4))
        batch = apply_transform(x, transform)
        for i in range(6):
            np.testing.assert_allclose(
                apply_transform(x[i], transform), batch[i], atol=1e-12
            )

    def test_dim_mismatch(self):
        transform = LinearTransform(
            matrix=np.eye(2), mean_offset=np.zeros(2)
        )
        with pytest.raises(ValueError, match="dim"):
            apply_transform(np.zeros(3), transform)

    def test_validation(self):
        with pytest.raises(ValueError, match="exceed input"):
            LinearTransform(np.zeros((3, 2)), np.zeros(2))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_projection_is_affine(self, seed):
        rng = np.random.default_rng(seed)
        transform = fit_pca(rng.standard_normal((30, 3)), 2)
        x, y = rng.standard_normal((2, 3))
        lhs = apply_transform(x + y, transform)
        rhs = apply_transform(x, transform) + apply_transform(y, transform) \
            + apply_transform(np.zeros(3), transform) * -1.0
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)
