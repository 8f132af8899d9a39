import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamsad.gmm import (
    COUNT_FLOOR,
    EM_BLOCK_FRAMES,
    Gmm,
    _check_counts,
    block_counts,
    block_supervectors,
    log_likelihoods,
    logsumexp,
    merge_gmms,
    posterior_matrix,
    train_gmm,
)
from streamsad.rowsource import SpilledRows
from oracles import em_oracle, naive_posteriors


def total_loglik(frames, gmm):
    """Total log-likelihood of the frames under the mixture."""
    return float(logsumexp(log_likelihoods(frames, gmm), axis=1).sum())


def whole_array_em(data, n_components, n_iters, seed, callback=None):
    """EM with every pass over the whole (n, D) array at once: the same
    k-means++ draws, np.var, one (n, C) responsibility matrix per pass."""
    rng = np.random.default_rng(seed)
    centers = np.empty((n_components, data.shape[1]))
    centers[0] = data[rng.integers(len(data))]
    dist2 = np.sum((data - centers[0]) ** 2, axis=1)
    for i in range(1, n_components):
        centers[i] = data[rng.choice(len(data), p=dist2 / dist2.sum())]
        dist2 = np.minimum(dist2, np.sum((data - centers[i]) ** 2, axis=1))
    floor = np.maximum(1e-3 * data.var(axis=0), 1e-10)
    gmm = Gmm(np.full(n_components, 1.0 / n_components), centers,
              np.tile(np.maximum(data.var(axis=0), floor), (n_components, 1)))
    for iteration in range(n_iters):
        ll = log_likelihoods(data, gmm)
        norm = logsumexp(ll, axis=1, keepdims=True)
        if callback is not None:
            callback(iteration, float(norm.sum()))
        resp = np.exp(ll - norm)
        counts = resp.sum(axis=0)
        means = (resp.T @ data) / counts[:, None]
        variances = np.maximum((resp.T @ data**2) / counts[:, None] - means**2, floor)
        gmm = Gmm(counts / counts.sum(), means, variances)
    return gmm


def random_gmm(rng, n_components, dim, spread=3.0):
    return Gmm(
        weights=rng.dirichlet(np.ones(n_components)),
        means=rng.standard_normal((n_components, dim)) * spread,
        variances=rng.uniform(0.2, 2.0, (n_components, dim)),
    )


class TestGmmModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            Gmm(np.array([0.5, 0.6]), np.zeros((2, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError):
            Gmm(np.array([1.0]), np.zeros((1, 3)), np.zeros((1, 3)))
        with pytest.raises(ValueError):
            Gmm(np.array([1.0]), np.zeros((2, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError):
            Gmm(np.array([1.0]), np.full((1, 3), np.nan), np.ones((1, 3)))

    def test_shape_properties(self):
        gmm = random_gmm(np.random.default_rng(0), 4, 6)
        assert gmm.n_components == 4
        assert gmm.dim == 6


class TestLikelihoodsAndPosteriors:
    def test_single_gaussian_closed_form(self):
        # log N(x; m, v) straight from the density formula
        gmm = Gmm(np.array([1.0]), np.array([[1.0, -2.0]]), np.array([[0.5, 2.0]]))
        x = np.array([0.3, 0.7])
        want = -0.5 * (
            np.log(2 * np.pi * 0.5) + np.log(2 * np.pi * 2.0)
            + (0.3 - 1.0) ** 2 / 0.5 + (0.7 + 2.0) ** 2 / 2.0
        )
        got = log_likelihoods(x[np.newaxis], gmm)[0, 0]
        assert got == pytest.approx(want, abs=1e-12)

    def test_posteriors_match_linear_domain_oracle(self):
        rng = np.random.default_rng(1)
        gmm = random_gmm(rng, 4, 3)
        frames = rng.standard_normal((15, 3)) * 2
        got, norm = posterior_matrix(frames, gmm)
        for t in range(15):
            want = naive_posteriors(frames[t], gmm.weights, gmm.means, gmm.variances)
            np.testing.assert_allclose(got[t], want, atol=1e-10)
        # the log-normalizer is the frame's total log-likelihood
        np.testing.assert_array_equal(norm, logsumexp(log_likelihoods(frames, gmm), axis=1, keepdims=True))

    def test_single_component_posterior_is_one(self):
        gmm = Gmm(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
        np.testing.assert_array_equal(posterior_matrix(np.array([[9.0, -9.0]]), gmm)[0], [[1.0]])

    def test_frame_at_isolated_mean_dominates(self):
        gmm = Gmm(
            np.array([0.5, 0.5]),
            np.array([[0.0, 0.0], [8.0, 8.0]]),
            np.ones((2, 2)),
        )
        gamma = posterior_matrix(np.array([[8.0, 8.0]]), gmm)[0][0]
        assert gamma[1] > 0.99

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_posterior_rows_form_a_distribution(self, seed):
        rng = np.random.default_rng(seed)
        gmm = random_gmm(rng, int(rng.integers(1, 6)), 3)
        frames = rng.standard_normal((8, 3)) * rng.uniform(0.1, 30)
        resp = posterior_matrix(frames, gmm)[0]
        assert np.all(resp >= 0)
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-12)

    def test_extreme_frames_stay_finite(self):
        # far-out frames underflow every component in linear domain
        gmm = random_gmm(np.random.default_rng(2), 3, 4)
        frames = np.full((2, 4), 300.0)
        resp = posterior_matrix(frames, gmm)[0]
        assert np.all(np.isfinite(resp))
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-12)
        assert np.isfinite(total_loglik(frames, gmm))

    def test_dim_mismatch(self):
        gmm = random_gmm(np.random.default_rng(3), 2, 3)
        with pytest.raises(ValueError, match=r"expected \(T, 3\) frames, got shape \(1, 4\)"):
            posterior_matrix(np.zeros((1, 4)), gmm)
        # a single frame is a (1, D) block; a bare vector is refused
        with pytest.raises(ValueError, match=r"got shape \(3,\)"):
            posterior_matrix(np.zeros(3), gmm)


class TestTraining:
    def test_single_component_recovers_moments(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((500, 3)) * [1.0, 2.0, 0.5] + [3.0, -1.0, 0.0]
        gmm = train_gmm(data, 1, n_iters=3, seed=0)
        np.testing.assert_allclose(gmm.weights, [1.0], atol=1e-12)
        np.testing.assert_allclose(gmm.means[0], data.mean(axis=0), atol=1e-9)
        np.testing.assert_allclose(gmm.variances[0], data.var(axis=0), rtol=1e-6)

    def test_two_clusters_recovered(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((300, 2)) * 0.3 + [0.0, 0.0]
        b = rng.standard_normal((300, 2)) * 0.3 + [5.0, 5.0]
        gmm = train_gmm(np.vstack([a, b]), 2, n_iters=20, seed=1)
        order = np.argsort(gmm.means[:, 0])
        np.testing.assert_allclose(gmm.means[order[0]], [0.0, 0.0], atol=0.1)
        np.testing.assert_allclose(gmm.means[order[1]], [5.0, 5.0], atol=0.1)
        np.testing.assert_allclose(gmm.weights, [0.5, 0.5], atol=0.05)

    def test_zero_iters_returns_initialization(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((50, 2))
        gmm = train_gmm(data, 4, n_iters=0, seed=2)
        np.testing.assert_allclose(gmm.weights, 0.25, atol=1e-12)
        # k-means++ seeds are actual data points
        for mean in gmm.means:
            assert np.min(np.sum((data - mean) ** 2, axis=1)) < 1e-20
        assert np.all(gmm.variances == gmm.variances[0])

    def test_loglik_never_decreases(self):
        rng = np.random.default_rng(7)
        data = np.vstack([
            rng.standard_normal((200, 5)) + 2,
            rng.standard_normal((200, 5)) * 2 - 1,
        ])
        history = []
        gmm = train_gmm(data, 6, n_iters=15, seed=3,
                        callback=lambda i, ll: history.append(ll))
        history.append(total_loglik(data, gmm))
        assert len(history) == 16
        diffs = np.diff(history)
        floor = -1e-8 * np.abs(history[:-1])
        assert np.all(diffs >= floor)

    def test_block_em_matches_whole_array_em(self, tmp_path):
        # several EM blocks and a short last one; a file source reads the
        # same blocks as the array, so it gives the same bits
        rng = np.random.default_rng(12)
        data = np.vstack([
            rng.standard_normal((3000, 4)) * 0.5 + 2.0,
            rng.standard_normal((2500, 4)) * [1.0, 2.0, 0.5, 1.5] - 1.0,
        ])[rng.permutation(5500)]
        assert len(data) > 2 * EM_BLOCK_FRAMES
        spilled = SpilledRows(tmp_path / "frames.f64", 4)
        for piece in np.array_split(data, 7):
            spilled.append(piece)
        history, want_history = [], []
        got = train_gmm(data, 5, n_iters=12, seed=6, callback=lambda i, ll: history.append(ll))
        want = whole_array_em(data, 5, 12, seed=6, callback=lambda i, ll: want_history.append(ll))
        for field in ("weights", "means", "variances"):
            np.testing.assert_allclose(getattr(got, field), getattr(want, field), rtol=1e-9, atol=0)
        np.testing.assert_allclose(history, want_history, rtol=1e-9)
        from_file = train_gmm(spilled, 5, n_iters=12, seed=6)
        for field in ("weights", "means", "variances"):
            np.testing.assert_array_equal(getattr(from_file, field), getattr(got, field))

    @pytest.mark.parametrize("n", [700, EM_BLOCK_FRAMES, 2 * EM_BLOCK_FRAMES + 301])
    def test_em_gives_the_per_op_loop_bits(self, tmp_path, n):
        # shorter than one block, exactly one, and several with a short last
        # one: block EM gives the bits of a plain loop of one numpy operation
        # per step, from an array and from a file alike
        rng = np.random.default_rng(n)
        data = np.vstack([
            rng.standard_normal((n // 2, 5)) * 0.5 + 2.0,
            rng.standard_normal((n - n // 2, 5)) * [1.0, 2.0, 0.5, 1.5, 3.0] - 1.0,
        ])[rng.permutation(n)]
        spilled = SpilledRows(tmp_path / "frames.f64", 5)
        for piece in np.array_split(data, 3):
            spilled.append(piece)
        weights, means, variances, want_history = em_oracle(data, 6, 8, seed=n, block_frames=EM_BLOCK_FRAMES)
        for source in (data, spilled):
            history = []
            got = train_gmm(source, 6, n_iters=8, seed=n, callback=lambda i, ll: history.append(ll))
            assert history == want_history
            for field, want in (("weights", weights), ("means", means), ("variances", variances)):
                np.testing.assert_array_equal(getattr(got, field), want)

    def test_block_loglik_never_decreases(self, tmp_path):
        rng = np.random.default_rng(13)
        data = np.vstack([
            rng.standard_normal((2500, 3)) + 2,
            rng.standard_normal((2500, 3)) * 2 - 1,
        ])
        spilled = SpilledRows(tmp_path / "frames.f64", 3)
        spilled.append(data)
        history = []
        gmm = train_gmm(spilled, 6, n_iters=15, seed=4, callback=lambda i, ll: history.append(ll))
        history.append(total_loglik(data, gmm))
        diffs = np.diff(history)
        assert np.all(diffs >= -1e-8 * np.abs(history[:-1]))

    def test_same_seed_is_bit_identical(self):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((120, 3))
        g1 = train_gmm(data, 4, n_iters=10, seed=42)
        g2 = train_gmm(data, 4, n_iters=10, seed=42)
        np.testing.assert_array_equal(g1.weights, g2.weights)
        np.testing.assert_array_equal(g1.means, g2.means)
        np.testing.assert_array_equal(g1.variances, g2.variances)

    def test_different_seeds_usually_differ(self):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((120, 3))
        g1 = train_gmm(data, 4, n_iters=0, seed=0)
        g2 = train_gmm(data, 4, n_iters=0, seed=1)
        assert not np.array_equal(g1.means, g2.means)

    def test_variance_floor_applies(self):
        rng = np.random.default_rng(10)
        data = rng.standard_normal((200, 2))
        data[:, 1] *= 1e-6  # nearly degenerate dimension
        gmm = train_gmm(data, 3, n_iters=10, seed=4)
        floor = np.maximum(1e-3 * data.var(axis=0), 1e-10)
        assert np.all(gmm.variances >= floor - 1e-18)

    def test_error_cases(self):
        with pytest.raises(ValueError, match="non-empty"):
            train_gmm(np.zeros((0, 3)), 1)
        with pytest.raises(ValueError, match="cannot support"):
            train_gmm(np.zeros((3, 2)) + np.arange(3)[:, None], 4)
        with pytest.raises(ValueError, match="identical"):
            train_gmm(np.ones((50, 3)), 2)

    def test_weights_always_normalized(self):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((80, 2))
        gmm = train_gmm(data, 8, n_iters=12, seed=5)
        assert gmm.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(gmm.weights >= 0)


class TestMerge:
    def test_speech_components_come_first(self):
        rng = np.random.default_rng(12)
        sp = random_gmm(rng, 3, 2)
        nsp = random_gmm(rng, 2, 2)
        merged = merge_gmms(sp, nsp)
        assert merged.n_components == 5
        np.testing.assert_array_equal(merged.means[:3], sp.means)
        np.testing.assert_array_equal(merged.means[3:], nsp.means)
        np.testing.assert_array_equal(merged.variances[:3], sp.variances)

    def test_weights_are_convex_combination(self):
        rng = np.random.default_rng(13)
        sp = random_gmm(rng, 4, 3)
        nsp = random_gmm(rng, 4, 3)
        merged = merge_gmms(sp, nsp)
        np.testing.assert_allclose(merged.weights[:4], 0.5 * sp.weights, atol=1e-15)
        assert merged.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_merged_density_is_average(self):
        rng = np.random.default_rng(14)
        sp = random_gmm(rng, 2, 2)
        nsp = random_gmm(rng, 3, 2)
        merged = merge_gmms(sp, nsp)
        x = rng.standard_normal((5, 2))
        want = np.log(
            0.5 * np.exp(loglik_rows(x, sp)) + 0.5 * np.exp(loglik_rows(x, nsp))
        )
        got = loglik_rows(x, merged)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_errors(self):
        rng = np.random.default_rng(15)
        with pytest.raises(ValueError, match="mismatch"):
            merge_gmms(random_gmm(rng, 2, 2), random_gmm(rng, 2, 3))


def loglik_rows(frames, gmm):
    from scipy.special import logsumexp

    return logsumexp(log_likelihoods(frames, gmm), axis=1)


class TestLogsumexp:
    def test_matches_scipy_oracle(self):
        from scipy.special import logsumexp as oracle

        rng = np.random.default_rng(30)
        a = rng.standard_normal((40, 9)) * 400.0  # exp alone would overflow
        a[3] = -np.inf
        a[5, 2] = -np.inf
        for axis in (0, 1, -1):
            for keepdims in (False, True):
                want = oracle(a, axis=axis, keepdims=keepdims)
                got = logsumexp(a, axis=axis, keepdims=keepdims)
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_loglik_rows_match_scipy(self):
        rng = np.random.default_rng(31)
        gmm = random_gmm(rng, 5, 3)
        x = rng.standard_normal((30, 3)) * 4.0
        np.testing.assert_allclose(
            logsumexp(log_likelihoods(x, gmm), axis=1), loglik_rows(x, gmm), rtol=1e-13
        )


class TestBaumWelchStats:
    """Zero-order counts and supervectors (count-normalized centered
    first-order sums) of one segment, given as a block of S = 1."""

    def test_single_frame_counts_sum_to_one(self):
        rng = np.random.default_rng(16)
        ubm = random_gmm(rng, 3, 2)
        counts = block_counts(rng.standard_normal((1, 1, 2)), ubm)
        assert counts.shape == (1, 3)
        assert counts.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(17)
        ubm = random_gmm(rng, 3, 2)
        frames = rng.standard_normal((12, 2))
        want_n = np.zeros(3)
        want_f = np.zeros((3, 2))
        for x in frames:
            gamma = naive_posteriors(x, ubm.weights, ubm.means, ubm.variances)
            want_n += gamma
            want_f += gamma[:, None] * (x - ubm.means)
        np.testing.assert_allclose(block_counts(frames[np.newaxis], ubm)[0], want_n, atol=1e-10)
        want_sv = (want_f / np.maximum(want_n, COUNT_FLOOR)[:, None]).ravel()
        np.testing.assert_allclose(block_supervectors(frames[np.newaxis], ubm)[0], want_sv, atol=1e-10)

    def test_additive_over_concatenation(self):
        # the trainer sums per-file counts into one class count vector
        rng = np.random.default_rng(18)
        ubm = random_gmm(rng, 4, 3)
        a = rng.standard_normal((20, 3))
        b = rng.standard_normal((30, 3))
        whole = block_counts(np.vstack([a, b])[np.newaxis], ubm)[0]
        sa, sb = block_counts(a[np.newaxis], ubm)[0], block_counts(b[np.newaxis], ubm)[0]
        np.testing.assert_allclose(sa + sb, whole, atol=1e-9)

    def test_frames_at_a_mean_center_to_zero(self):
        ubm = Gmm(
            np.array([0.5, 0.5]),
            np.array([[0.0, 0.0], [9.0, 9.0]]),
            np.ones((2, 2)),
        )
        frames = np.tile([9.0, 9.0], (1, 5, 1))
        np.testing.assert_allclose(block_supervectors(frames, ubm)[0, 2:], 0.0, atol=1e-8)
        assert block_counts(frames, ubm)[0, 1] == pytest.approx(5.0, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError, match="sum to the frame count"):
            _check_counts(np.array([[0.5, 0.4]]), 1)
        with pytest.raises(ValueError, match="non-negative"):
            _check_counts(np.array([[-0.5, 1.5]]), 1)
        rng = np.random.default_rng(19)
        for kernel in (block_counts, block_supervectors):
            with pytest.raises(ValueError, match="empty"):
                kernel(np.zeros((1, 0, 2)), random_gmm(rng, 2, 2))
            with pytest.raises(ValueError, match=r"expected \(S, n, 2\) segments"):
                kernel(np.zeros((5, 2)), random_gmm(rng, 2, 2))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 40))
    def test_counts_always_sum_to_frame_count(self, seed, n):
        rng = np.random.default_rng(seed)
        ubm = random_gmm(rng, 3, 2)
        counts = block_counts(rng.standard_normal((1, n, 2)) * 5, ubm)
        assert counts.sum() == pytest.approx(n, abs=1e-6)
