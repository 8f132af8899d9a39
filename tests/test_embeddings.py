import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamsad import embeddings
from streamsad.embeddings import (
    CHUNK_ROWS,
    MlpModel,
    MlpTrainingError,
    class_embeddings,
    cross_entropy,
    embed_batch,
    forward,
    from_planes,
    init_mlp,
    loss_and_grads,
    narrowest,
    softmax,
    to_planes,
    train_mlp,
)
from streamsad.gmm import Gmm, block_supervectors
from streamsad.rowsource import ArrayRows, SpilledRows
from oracles import finite_difference_grads, naive_posteriors, supervector_oracle


def with_dtype(model, dtype):
    """The network with every weight and bias cast to dtype."""
    return MlpModel([w.astype(dtype) for w in model.weights], [b.astype(dtype) for b in model.biases])


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

    def test_chunked_loss_and_class_embeddings_match_whole_array(self, tmp_path):
        # more rows than one chunk holds; a file source reads the same chunks
        rng = np.random.default_rng(27)
        m = init_mlp([6, 5, 3, 2], seed=27)
        x, mask = blobs(rng, n_per_class=CHUNK_ROWS + 150, dim=6)
        labels = mask.astype(int)
        probs = softmax(forward(m, x))
        want_loss = -np.mean(np.log(probs[np.arange(len(x)), labels]))
        embedded = embed_batch(x, m.hidden_layers[:1])
        spilled = SpilledRows(tmp_path / "sv.f64", 6)
        spilled.append(x)
        for source in (x, spilled):
            assert cross_entropy(m, source, labels) == pytest.approx(want_loss, rel=1e-12)
            sp, nsp = class_embeddings(source, mask, m.hidden_layers[:1])
            np.testing.assert_allclose(sp, embedded[mask].mean(axis=0), rtol=1e-12)
            np.testing.assert_allclose(nsp, embedded[~mask].mean(axis=0), rtol=1e-12)
        assert cross_entropy(m, spilled, labels) == cross_entropy(m, x, labels)

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

    def test_float32_analytic_matches_finite_differences(self):
        # float32 gradients of a network against float64 central differences
        # of the same network: the error is float32 rounding, so the bound is
        # set from float32's epsilon, relative to each layer's largest gradient
        rng = np.random.default_rng(16)
        m32 = with_dtype(init_mlp([5, 4, 3, 2], seed=16), np.float32)
        m = with_dtype(m32, np.float64)
        x = rng.standard_normal((6, 5))
        labels = rng.integers(0, 2, 6)
        _, grad_w, grad_b = loss_and_grads(m32, x, labels)
        assert all(g.dtype == np.float32 for g in grad_w + grad_b)

        fd = finite_difference_grads(lambda: cross_entropy(m, x, labels), list(m.weights) + list(m.biases))
        for got, want in zip(list(grad_w) + list(grad_b), fd):
            scale = np.abs(want).max()
            assert np.abs(got - want).max() <= 64 * np.finfo(np.float32).eps * scale

    def test_float32_loss_stays_finite_past_underflow(self):
        # a logit gap of 4e4 against the label underflows the label's float32
        # probability to 0; the loss still meets the floor instead of log(0)
        m32 = MlpModel(
            weights=[np.eye(2, dtype=np.float32), np.array([[1e4, -1e4], [1e4, -1e4]], dtype=np.float32)],
            biases=[np.zeros(2, dtype=np.float32), np.zeros(2, dtype=np.float32)],
        )
        x = np.array([[1.0, 1.0], [2.0, 3.0]])
        loss, grad_w, grad_b = loss_and_grads(m32, x, np.array([1, 1]))
        assert loss == pytest.approx(-math.log(1e-300))
        assert all(g.dtype == np.float32 and np.isfinite(g).all() for g in grad_w + grad_b)

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
        # with no epochs the returned network is the initial one
        assert result.train_losses == [cross_entropy(result.model, x, mask.astype(int))]

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
        # train_losses[0] is the loss of the initial network, which is what
        # an epochs=0 run returns; train_losses[e] for e >= 1 is epoch e's
        # running loss, the size-weighted mean of its minibatch losses, each
        # at the weights that batch saw (batches of 24, 24, 24 and 8 rows)
        rng = np.random.default_rng(21)
        x, mask = blobs(rng, n_per_class=40, dim=6)
        config = dict(seed=21, hidden_dims=(8,), batch_size=24)
        result = train_mlp(x, mask, epochs=5, **config)
        assert len(result.train_losses) == 6
        for e in range(6):
            assert train_mlp(x, mask, epochs=e, **config).train_losses == result.train_losses[: e + 1]
        initial = train_mlp(x, mask, epochs=0, **config).model
        assert result.train_losses[0] == cross_entropy(initial, x, mask.astype(int))

        # the SGD runs in float32 from the float32 cast of the seeded network;
        # blobs hold no entry below float32's smallest normal, so a minibatch
        # is its rows cast to float32
        assert np.abs(x).min() > np.finfo(np.float32).tiny
        labels, order_rng = mask.astype(int), np.random.default_rng(21)
        model = with_dtype(init_mlp([6, 8, 2], seed=21), np.float32)
        replay = [cross_entropy(with_dtype(model, np.float64), x, labels)]
        for _ in range(5):
            order, total = order_rng.permutation(len(x)), 0.0
            for start in range(0, len(x), 24):
                batch = order[start : start + 24]
                loss, grad_w, grad_b = loss_and_grads(model, x[batch].astype(np.float32), labels[batch])
                total += len(batch) * loss
                for w, b, gw, gb in zip(model.weights, model.biases, grad_w, grad_b):
                    w -= 0.01 * gw
                    b -= 0.01 * gb
            replay.append(total / len(x))
        assert result.train_losses == replay

    def test_training_rows_are_read_in_full_once(self):
        # the initial loss is the one full pass over the training rows; the
        # epochs read them only as minibatches, and the monitor's full
        # passes, one per checkpoint, read the monitor rows alone
        class CountingRows(ArrayRows):
            def __init__(self, data):
                super().__init__(data)
                self.block_rows = self.batch_rows = 0

            def blocks(self, size, start=0, stop=None):
                for block in super().blocks(size, start, stop):
                    self.block_rows += len(block)
                    yield block

            def rows(self, index):
                self.batch_rows += len(index)
                return super().rows(index)

        rng = np.random.default_rng(29)
        x, mask = blobs(rng, n_per_class=400, dim=6)  # 800 rows: two CHUNK_ROWS chunks
        mon_x, mon_mask = blobs(rng, n_per_class=20, dim=6)
        source, mon_source = CountingRows(x), CountingRows(mon_x)
        train_mlp(source, mask, epochs=4, seed=29, hidden_dims=(8,), monitor=(mon_source, mon_mask))
        assert (source.block_rows, source.batch_rows) == (800, 4 * 800)
        assert (mon_source.block_rows, mon_source.batch_rows) == (5 * 40, 0)

    def test_returned_network_is_the_float32_one_in_float64(self):
        rng = np.random.default_rng(30)
        x, mask = blobs(rng, n_per_class=40, dim=6)
        for epochs in (0, 3):
            model = train_mlp(x, mask, epochs=epochs, seed=30, hidden_dims=(8, 4)).model
            for array in model.weights + model.biases:
                assert array.dtype == np.float64
                np.testing.assert_array_equal(array.astype(np.float32).astype(np.float64), array)
        initial = train_mlp(x, mask, epochs=0, seed=30, hidden_dims=(8, 4)).model
        for got, want in zip(initial.weights, init_mlp([6, 8, 4, 2], seed=30).weights):
            np.testing.assert_array_equal(got, want.astype(np.float32))

    def test_entries_below_float32_tiny_train_as_zeros(self):
        # all-zero rows make a tiny entry the whole pre-activation of a unit,
        # so a float32 subnormal would pass its ReLU where a 0 does not; one
        # minibatch per epoch puts every such row in the first step, while
        # the biases are still 0
        rng = np.random.default_rng(31)
        x, mask = blobs(rng, n_per_class=40, dim=6)
        x[:8] = 0.0
        tiny = np.finfo(np.float32).tiny
        values = [1e-39, -3e-40, 1e-44, -2e-45, 0.999 * tiny, -0.5 * tiny, 1e-300, 5e-324]
        spots = [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 0), (7, 1), (20, 3), (30, 5)]
        flushed = x.copy()
        for (row, col), value in zip(spots, values + values[:2]):
            x[row, col], flushed[row, col] = value, 0.0
        config = dict(epochs=4, seed=31, hidden_dims=(8,), batch_size=len(x))
        got, want = train_mlp(x, mask, **config), train_mlp(flushed, mask, **config)
        assert got.train_losses[1:] == want.train_losses[1:]
        for a, b in zip(got.model.weights + got.model.biases, want.model.weights + want.model.biases):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf])
    def test_learning_rate_must_be_finite_and_positive(self, rate):
        class UnreadRows(ArrayRows):
            def refuse(self, *args, **kwargs):
                raise AssertionError("rows read before the learning rate was checked")

            blocks = rows = refuse

        x, mask = blobs(np.random.default_rng(32), n_per_class=10, dim=4)
        with pytest.raises(MlpTrainingError, match="learning_rate"):
            train_mlp(UnreadRows(x), mask, epochs=2, learning_rate=rate)

    def test_a_longer_run_extends_a_shorter_one(self, monkeypatch):
        # SGD never looks ahead, so mlp_epochs alone picks the network: a
        # 6-epoch run's losses start with a 3-epoch run's, and the network it
        # holds after 3 epochs (as the monitor pass sees it) is the one the
        # 3-epoch run returns, bit for bit
        rng = np.random.default_rng(22)
        x, mask = blobs(rng, n_per_class=40, dim=6)
        mon_x, mon_mask = blobs(rng, n_per_class=20, dim=6)
        monitored = []

        def spy(model, rows, labels):
            if rows is mon_x:
                monitored.append(model)
            return cross_entropy(model, rows, labels)

        monkeypatch.setattr(embeddings, "cross_entropy", spy)
        config = dict(seed=22, hidden_dims=(8,), monitor=(mon_x, mon_mask))
        long = train_mlp(x, mask, epochs=6, **config)
        short = train_mlp(x, mask, epochs=3, **config)
        assert long.train_losses[:4] == short.train_losses
        assert long.monitor_losses[:4] == short.monitor_losses
        assert len(monitored) == 7 + 4
        for got, want in zip(monitored[3].weights + monitored[3].biases,
                             short.model.weights + short.model.biases):
            np.testing.assert_array_equal(got, want)

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(23)
        x, mask = blobs(rng, n_per_class=50, dim=6)
        r1 = train_mlp(x, mask, epochs=4, seed=23, hidden_dims=(8, 4))
        r2 = train_mlp(x, mask, epochs=4, seed=23, hidden_dims=(8, 4))
        for w1, w2 in zip(r1.model.weights, r2.model.weights):
            np.testing.assert_array_equal(w1, w2)

    def test_spilled_rows_train_the_same_network(self, tmp_path):
        # minibatches read from a file in the seeded order give the bits of
        # the in-memory rows
        rng = np.random.default_rng(28)
        x, mask = blobs(rng, n_per_class=50, dim=6)
        mon_x, mon_mask = blobs(rng, n_per_class=20, dim=6)
        spilled, mon_spilled = SpilledRows(tmp_path / "x.f64", 6), SpilledRows(tmp_path / "m.f64", 6)
        spilled.append(x)
        mon_spilled.append(mon_x)
        config = dict(epochs=3, seed=28, hidden_dims=(8, 4), batch_size=16)
        r1 = train_mlp(x, mask, monitor=(mon_x, mon_mask), **config)
        r2 = train_mlp(spilled, mask, monitor=(mon_spilled, mon_mask), **config)
        assert (r1.train_losses, r1.monitor_losses) == (r2.train_losses, r2.monitor_losses)
        for w1, w2 in zip(r1.model.weights + r1.model.biases, r2.model.weights + r2.model.biases):
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


class TestBundleCodec:
    @pytest.mark.parametrize(
        "values, tag",
        [
            ([0.5, -0.0, 0.0, 3.0, np.inf, -np.inf], "<f4"),
            ([2.0**-140, 2.0**-149], "<f4"),  # float32 subnormals are exact too
            ([0.5, 0.1], "<f8"),
            ([0.5, 1e300], "<f8"),  # beyond float32's range: no warning, kept wide
            ([0.5, 2.0**-150], "<f8"),  # below float32's smallest subnormal
            ([0.5, np.nan], "<f8"),
        ],
        ids=["exact", "subnormal", "inexact", "overflow", "underflow", "nan"],
    )
    def test_narrowest_gives_back_every_bit(self, values, tag):
        array = np.array(values).reshape(2, -1)
        stored = narrowest(array[:, ::-1])  # strided input: a C-contiguous result
        assert stored.dtype.str == tag and stored.flags.c_contiguous
        assert tag in embeddings.STORED_DTYPES
        loaded = from_planes(to_planes(stored), embeddings.STORED_DTYPES[tag], stored.shape)
        assert loaded.dtype == np.float64 and not loaded.flags.writeable
        assert loaded.ctypes.data % 64 == 0  # every loaded array starts on a cache line
        assert loaded.tobytes() == np.ascontiguousarray(array[:, ::-1]).tobytes()

    @pytest.mark.parametrize("tag", ["<f4", "<f8"])
    @pytest.mark.parametrize("count", [0, 1, 5, embeddings.PLANE_CHUNK, 2 * embeddings.PLANE_CHUNK + 3])
    def test_planes_hold_each_byte_of_every_value_in_turn(self, tag, count):
        # counts around PLANE_CHUNK cover a partial last chunk and an empty array
        dtype = embeddings.STORED_DTYPES[tag]
        stored = np.random.default_rng(count).standard_normal(count).astype(dtype).reshape(-1, 1)
        planes = to_planes(stored)
        bytewise = np.frombuffer(stored.tobytes(), np.uint8).reshape(count, dtype.itemsize)
        assert planes == b"".join(bytewise[:, byte].tobytes() for byte in range(dtype.itemsize))
        loaded = from_planes(planes, dtype, stored.shape)
        assert loaded.shape == stored.shape and (loaded.ctypes.data % 64 == 0 or not count)  # no bytes to align
        assert loaded.tobytes() == stored.astype(np.float64).tobytes()

    def test_trained_network_is_stored_narrow(self):
        rng = np.random.default_rng(27)
        x, mask = blobs(rng, n_per_class=40, dim=6)
        model = train_mlp(x, mask, epochs=2, seed=27, hidden_dims=(8,)).model
        for array in model.weights + model.biases:
            assert narrowest(array).dtype.itemsize == 4
