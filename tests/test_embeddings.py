import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamsad.embeddings import (
    MlpModel,
    MlpTrainingError,
    class_embeddings,
    cross_entropy,
    embed_batch,
    forward,
    init_mlp,
    loss_and_grads,
    softmax,
    train_mlp,
)
from streamsad.gmm import Gmm, block_supervectors
from oracles import finite_difference_grads, naive_posteriors, supervector_oracle


def blobs(rng, n_per_class=120, dim=10, gap=2.0):
    """Two linearly separable clouds; speech is the positive-shifted one."""
    speech = rng.standard_normal((n_per_class, dim)) + gap
    nonspeech = rng.standard_normal((n_per_class, dim)) - gap
    x = np.vstack([speech, nonspeech])
    mask = np.array([True] * n_per_class + [False] * n_per_class)
    perm = rng.permutation(len(x))
    return x[perm], mask[perm]


class TestSupervector:
    """gmm.block_supervectors, the supervector stage that feeds the MLP, on blocks of S = 1."""

    def test_single_component_is_centered_mean(self):
        ubm = Gmm(np.array([1.0]), np.array([[1.0, -1.0]]), np.ones((1, 2)))
        frames = np.array([[2.0, 3.0], [4.0, 1.0]])
        got = block_supervectors(frames[np.newaxis], ubm)[0]
        np.testing.assert_allclose(got, frames.mean(axis=0) - ubm.means[0], atol=1e-12)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(0)
        ubm = Gmm(
            weights=rng.dirichlet(np.ones(3)),
            means=rng.standard_normal((3, 2)) * 2,
            variances=rng.uniform(0.3, 1.5, (3, 2)),
        )
        frames = rng.standard_normal((10, 2))
        got = block_supervectors(frames[np.newaxis], ubm)[0]
        want = supervector_oracle(frames, ubm.weights, ubm.means, ubm.variances)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_empty_components_stay_small(self):
        # the count floor keeps unvisited components from blowing up: frames
        # at component 0 leave component 1 a count far below the floor, so
        # its centered sum, about -6 times that count, is divided by the
        # floor and stays near 0 instead of becoming a mean offset of -6
        ubm = Gmm(np.array([0.5, 0.5]), np.array([[0.0, 0.0], [6.0, 6.0]]), np.ones((2, 2)))
        frames = np.array([[0.0, 0.0], [0.1, -0.1], [-0.1, 0.1]])
        vec = block_supervectors(frames[np.newaxis], ubm)[0]
        want = supervector_oracle(frames, ubm.weights, ubm.means, ubm.variances)
        np.testing.assert_allclose(vec, want, rtol=1e-9, atol=1e-300)
        np.testing.assert_allclose(vec[:2], frames.mean(axis=0), atol=1e-12)
        assert 0.0 < np.max(np.abs(vec[2:])) < 1e-9

    def test_layout_is_component_major(self):
        # component c's normalized sums fill columns c*D .. (c+1)*D - 1
        rng = np.random.default_rng(1)
        ubm = Gmm(np.full(3, 1.0 / 3.0), rng.standard_normal((3, 2)), np.full((3, 2), 0.7))
        frames = rng.standard_normal((10, 2))
        vec = block_supervectors(frames[np.newaxis], ubm)[0]
        assert vec.shape == (6,)
        for c in range(3):
            gammas = [naive_posteriors(x, ubm.weights, ubm.means, ubm.variances)[c] for x in frames]
            want = sum(g * (x - ubm.means[c]) for g, x in zip(gammas, frames)) / max(sum(gammas), 1e-3)
            np.testing.assert_allclose(vec[2 * c : 2 * c + 2], want, atol=1e-10)


class TestModelBasics:
    def test_init_shapes_and_determinism(self):
        m = init_mlp([10, 8, 6, 2], seed=3)
        assert [w.shape for w in m.weights] == [(10, 8), (8, 6), (6, 2)]
        assert all(np.all(b == 0) for b in m.biases)
        m2 = init_mlp([10, 8, 6, 2], seed=3)
        for w1, w2 in zip(m.weights, m2.weights):
            np.testing.assert_array_equal(w1, w2)
        m3 = init_mlp([10, 8, 6, 2], seed=4)
        assert not np.array_equal(m.weights[0], m3.weights[0])

    def test_validation(self):
        with pytest.raises(ValueError, match="chain"):
            MlpModel(
                weights=[np.zeros((4, 3)), np.zeros((5, 2))],
                biases=[np.zeros(3), np.zeros(2)],
            )
        with pytest.raises(ValueError, match="hidden layer"):
            MlpModel(
                weights=[np.zeros((4, 2))],
                biases=[np.zeros(2)],
            )

    def test_forward_single_and_batch_agree(self):
        # one input is a (1, in_dim) batch of its own
        m = init_mlp([6, 4, 2], seed=0)
        x = np.random.default_rng(1).standard_normal((5, 6))
        batch = forward(m, x)
        for i in range(5):
            np.testing.assert_allclose(forward(m, x[i : i + 1])[0], batch[i], atol=1e-12)

    def test_forward_matches_manual_composition(self):
        m = init_mlp([3, 4, 2], seed=5)
        x = np.array([[0.5, -1.0, 2.0]])
        h = np.maximum(x @ m.weights[0] + m.biases[0], 0.0)
        want = h @ m.weights[1] + m.biases[1]
        np.testing.assert_allclose(forward(m, x), want, atol=1e-12)

    def test_forward_is_embed_batch_then_output_layer(self):
        m = init_mlp([6, 5, 4, 2], seed=6)
        x = np.random.default_rng(6).standard_normal((9, 6))
        hidden = embed_batch(x, list(zip(m.weights[:-1], m.biases[:-1])))
        assert np.array_equal(forward(m, x), hidden @ m.weights[-1] + m.biases[-1])

    def test_input_dim_check(self):
        m = init_mlp([6, 4, 2])
        with pytest.raises(ValueError, match=r"expected \(n, 6\)"):
            forward(m, np.zeros((1, 5)))
        # one input is a (1, in_dim) batch; a bare vector is refused
        with pytest.raises(ValueError, match=r"expected \(n, 6\)"):
            forward(m, np.zeros(6))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), scale=st.floats(0.1, 500))
    def test_softmax_rows_are_distributions(self, seed, scale):
        rng = np.random.default_rng(seed)
        probs = softmax(rng.standard_normal((4, 3)) * scale)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_softmax_shift_invariance(self):
        logits = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(softmax(logits), softmax(logits + 100.0), atol=1e-12)


class TestEmbeddings:
    def test_embedding_is_first_hidden_layer(self):
        m = init_mlp([6, 5, 4, 2], seed=7)
        rng = np.random.default_rng(8)
        x = rng.standard_normal(6)
        want = np.maximum(x @ m.weights[0] + m.biases[0], 0.0)
        np.testing.assert_array_equal(embed_batch(x[np.newaxis], m.hidden_layers[:1])[0], want)

    def test_embedding_width(self):
        m = init_mlp([10, 7, 4, 2], seed=9)
        assert embed_batch(np.zeros((1, 10)), m.hidden_layers[:1]).shape == (1, 7)
        assert embed_batch(np.zeros((3, 10)), m.hidden_layers[:1]).shape == (3, 7)

    def test_deeper_embedding_layer(self):
        # embed_batch runs any stack of layers, the way training runs the hidden ones
        m = init_mlp([6, 5, 4, 2], seed=10)
        x = np.random.default_rng(11).standard_normal((1, 6))
        h1 = np.maximum(x @ m.weights[0] + m.biases[0], 0.0)
        h2 = np.maximum(h1 @ m.weights[1] + m.biases[1], 0.0)
        np.testing.assert_allclose(embed_batch(x, m.hidden_layers), h2, atol=1e-12)

    def test_embeddings_are_nonnegative(self):
        m = init_mlp([6, 5, 2], seed=12)
        x = np.random.default_rng(13).standard_normal((20, 6)) * 3
        assert np.all(embed_batch(x, m.hidden_layers[:1]) >= 0.0)

    def test_class_embeddings_are_class_means(self):
        rng = np.random.default_rng(14)
        m = init_mlp([4, 3, 2], seed=14)
        x, mask = blobs(rng, n_per_class=10, dim=4)
        sp, nsp = class_embeddings(x, mask, m.hidden_layers[:1])
        embedded = embed_batch(x, m.hidden_layers[:1])
        np.testing.assert_allclose(sp, embedded[mask].mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(nsp, embedded[~mask].mean(axis=0), atol=1e-12)

    def test_class_embeddings_need_both_classes(self):
        m = init_mlp([4, 3, 2], seed=15)
        with pytest.raises(ValueError, match="both classes"):
            class_embeddings(np.zeros((3, 4)), np.array([True, True, True]), m.hidden_layers[:1])


class TestGradients:
    def test_analytic_matches_finite_differences(self):
        rng = np.random.default_rng(16)
        m = init_mlp([5, 4, 3, 2], seed=16)
        x = rng.standard_normal((6, 5))
        labels = rng.integers(0, 2, 6)
        _, grad_w, grad_b = loss_and_grads(m, x, labels)

        arrays = list(m.weights) + list(m.biases)
        fd = finite_difference_grads(lambda: cross_entropy(m, x, labels), arrays)
        analytic = list(grad_w) + list(grad_b)
        for got, want in zip(analytic, fd):
            denom = np.maximum(np.abs(want), 1e-8)
            rel = np.abs(got - want) / denom
            # ignore entries where both sides are essentially zero
            mask = np.abs(want) > 1e-10
            assert rel[mask].max() < 1e-4

    def test_loss_agrees_with_cross_entropy(self):
        rng = np.random.default_rng(17)
        m = init_mlp([4, 3, 2], seed=17)
        x = rng.standard_normal((5, 4))
        labels = rng.integers(0, 2, 5)
        loss, _, _ = loss_and_grads(m, x, labels)
        assert loss == cross_entropy(m, x, labels)

    def test_gradient_step_reduces_loss(self):
        rng = np.random.default_rng(18)
        m = init_mlp([5, 4, 2], seed=18)
        x = rng.standard_normal((30, 5))
        labels = rng.integers(0, 2, 30)
        loss0, grad_w, grad_b = loss_and_grads(m, x, labels)
        for w, gw in zip(m.weights, grad_w):
            w -= 0.05 * gw
        for b, gb in zip(m.biases, grad_b):
            b -= 0.05 * gb
        assert cross_entropy(m, x, labels) < loss0


class TestTraining:
    def test_initial_loss_near_chance(self):
        rng = np.random.default_rng(19)
        x, mask = blobs(rng)
        result = train_mlp(x, mask, epochs=0, seed=19, hidden_dims=(8, 4))
        assert result.train_losses[0] == pytest.approx(math.log(2), abs=0.1)
        assert result.model.epoch == 0

    def test_learns_separable_blobs(self):
        rng = np.random.default_rng(20)
        x, mask = blobs(rng)
        result = train_mlp(
            x, mask, epochs=30, seed=20, hidden_dims=(16, 8), batch_size=32
        )
        logits = forward(result.model, x)
        accuracy = np.mean((logits[:, 1] > logits[:, 0]) == mask)
        assert accuracy > 0.95
        assert result.train_losses[-1] < result.train_losses[0]

    def test_checkpoint_history_aligns(self):
        # train_losses[e] is the loss of the network after e epochs, which is
        # what select_epoch=e returns
        rng = np.random.default_rng(21)
        x, mask = blobs(rng, n_per_class=40, dim=6)
        result = train_mlp(x, mask, epochs=5, seed=21, hidden_dims=(8,))
        assert len(result.train_losses) == 6
        for e in range(6):
            selected = train_mlp(x, mask, epochs=5, seed=21, hidden_dims=(8,), select_epoch=e)
            assert selected.model.epoch == e
            assert selected.train_losses == result.train_losses
            assert result.train_losses[e] == pytest.approx(
                cross_entropy(selected.model, x, mask.astype(int)), abs=1e-12
            )

    def test_select_epoch_returns_that_checkpoint(self):
        # the network after 3 of 6 epochs is the one a 3-epoch run ends with
        rng = np.random.default_rng(22)
        x, mask = blobs(rng, n_per_class=40, dim=6)
        result = train_mlp(x, mask, epochs=6, seed=22, hidden_dims=(8,), select_epoch=3)
        short = train_mlp(x, mask, epochs=3, seed=22, hidden_dims=(8,))
        assert result.model.epoch == short.model.epoch == 3
        for got, want in zip(result.model.weights + result.model.biases,
                             short.model.weights + short.model.biases):
            np.testing.assert_array_equal(got, want)

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(23)
        x, mask = blobs(rng, n_per_class=50, dim=6)
        r1 = train_mlp(x, mask, epochs=4, seed=23, hidden_dims=(8, 4))
        r2 = train_mlp(x, mask, epochs=4, seed=23, hidden_dims=(8, 4))
        for w1, w2 in zip(r1.model.weights, r2.model.weights):
            np.testing.assert_array_equal(w1, w2)

    def test_monitor_is_logged_but_inert(self):
        rng = np.random.default_rng(24)
        x, mask = blobs(rng, n_per_class=50, dim=6)
        mon_x, mon_mask = blobs(rng, n_per_class=20, dim=6)
        plain = train_mlp(x, mask, epochs=3, seed=24, hidden_dims=(8,))
        monitored = train_mlp(
            x, mask, epochs=3, seed=24, hidden_dims=(8,), monitor=(mon_x, mon_mask)
        )
        assert len(monitored.monitor_losses) == 4
        assert plain.monitor_losses == []
        for w1, w2 in zip(plain.model.weights, monitored.model.weights):
            np.testing.assert_array_equal(w1, w2)

    def test_single_class_rejected(self):
        x = np.random.default_rng(25).standard_normal((10, 4))
        with pytest.raises(MlpTrainingError, match="single class"):
            train_mlp(x, np.ones(10, dtype=bool), epochs=1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_position(self):
        rng = np.random.default_rng(26)
        x, mask = blobs(rng, n_per_class=30, dim=4, gap=1.0)
        with pytest.raises(MlpTrainingError, match="non-finite loss at epoch"):
            train_mlp(x * 1e150, mask, epochs=3, seed=26, hidden_dims=(8,),
                      learning_rate=1e160)

    def test_select_epoch_out_of_range(self):
        rng = np.random.default_rng(27)
        x, mask = blobs(rng, n_per_class=10, dim=4)
        with pytest.raises(MlpTrainingError, match="select_epoch"):
            train_mlp(x, mask, epochs=2, select_epoch=5)
