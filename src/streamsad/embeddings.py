"""The MLP that embeds segment supervectors.

A segment's supervector (`gmm.block_supervectors`) flattens its centered
first-order statistics, normalized by the posterior counts. A small
feed-forward network is trained to call the segment speech or non-speech;
its first hidden layer, not its output, is the representation used for
scoring, compared by cosine against per-class mean embeddings.

The network is plain numpy on purpose: a few dense layers, ReLU, softmax
cross-entropy, minibatch SGD. Determinism given a seed is a contract here,
the loss is logged per epoch, and the selected epoch is a config value.
Training and detection run the same ReLU layer pass (`layer_outputs`).
Detection keeps only the first hidden layer's (weight, bias) pair; the
layers after it exist to train it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MlpTrainingError(RuntimeError):
    """Training could not proceed (bad data or diverged loss)."""


@dataclass(frozen=True)
class MlpModel:
    """Dense feed-forward classifier; weights[i] maps layer i to layer i+1.

    Every layer but the last is a ReLU hidden layer; the last gives the
    class logits.
    """

    weights: list
    biases: list
    epoch: int = 0

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights and biases must pair up")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValueError(f"layer {i}: weight/bias shapes inconsistent")
            if i > 0 and w.shape[0] != self.weights[i - 1].shape[1]:
                raise ValueError(f"layer {i}: dims do not chain")
        if len(self.weights) < 2:
            raise ValueError("the network needs a hidden layer to embed with")

    @property
    def hidden_layers(self) -> tuple:
        """The (weight, bias) pairs of the ReLU layers, input first."""
        return tuple(zip(self.weights[:-1], self.biases[:-1]))


def init_mlp(layer_dims, seed: int = 0) -> MlpModel:
    """He-initialized network with zero biases; deterministic per seed."""
    if len(layer_dims) < 2:
        raise ValueError("need at least input and output dims")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims, layer_dims[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights=weights, biases=biases)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def layer_outputs(x: np.ndarray, layers) -> list:
    """Each (weight, bias) ReLU layer's output for input x, in layer order."""
    outputs = []
    for w, b in layers:
        x = np.maximum(x @ w + b, 0.0)
        outputs.append(x)
    return outputs


def embed_batch(supervectors: np.ndarray, layers) -> np.ndarray:
    """Run (n, in_dim) supervectors through (weight, bias) ReLU layers.

    An (S, 1, in_dim) stack runs each row as its own (1, in_dim) product,
    the call a single supervector gets, so a row's bits do not depend on S.
    """
    h = np.asarray(supervectors, dtype=np.float64)
    in_dim = layers[0][0].shape[0]
    if h.ndim not in (2, 3) or h.shape[-1] != in_dim:
        raise ValueError(f"expected (n, {in_dim}) supervectors, got {h.shape}")
    return layer_outputs(h, layers)[-1]


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Class logits for (n, in_dim) inputs."""
    return embed_batch(x, model.hidden_layers) @ model.weights[-1] + model.biases[-1]


def _mean_nll(probs: np.ndarray, labels: np.ndarray) -> float:
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.mean(np.log(np.maximum(picked, 1e-300))))


def cross_entropy(model: MlpModel, x: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy; labels are class indices."""
    return _mean_nll(softmax(forward(model, x)), labels)


def loss_and_grads(model: MlpModel, x: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy plus gradients for every weight and bias."""
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)

    # inputs[i] feeds weights[i]; the ReLU derivative of a hidden output h is
    # h > 0, which equals z > 0 for its pre-activation z since h = max(z, 0)
    inputs = [x] + layer_outputs(x, model.hidden_layers)
    probs = softmax(inputs[-1] @ model.weights[-1] + model.biases[-1])
    loss = _mean_nll(probs, labels)

    delta = probs.copy()
    delta[np.arange(len(labels)), labels] -= 1.0
    delta /= len(labels)

    grad_w = [None] * len(model.weights)
    grad_b = [None] * len(model.biases)
    for layer in range(len(model.weights) - 1, -1, -1):
        grad_w[layer] = inputs[layer].T @ delta
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.weights[layer].T) * (inputs[layer] > 0.0)
    return loss, grad_w, grad_b


def _copy_model(model: MlpModel, epoch: int) -> MlpModel:
    return MlpModel(
        weights=[w.copy() for w in model.weights],
        biases=[b.copy() for b in model.biases],
        epoch=epoch,
    )


@dataclass
class MlpTrainResult:
    """Selected model plus the per-epoch losses.

    train_losses[e] (and monitor_losses[e], when monitored) is the loss
    after e epochs; index 0 is the initialization.
    """

    model: MlpModel
    train_losses: list
    monitor_losses: list


def train_mlp(
    supervectors: np.ndarray,
    speech_mask: np.ndarray,
    epochs: int = 30,
    seed: int = 0,
    hidden_dims=(256, 128, 64),
    learning_rate: float = 0.01,
    batch_size: int = 256,
    select_epoch: int | None = None,
    monitor=None,
) -> MlpTrainResult:
    """Minibatch SGD on softmax cross-entropy; deterministic per seed.

    monitor, when given, is a (supervectors, speech_mask) pair evaluated
    after every epoch purely for logging; it never changes the result.
    select_epoch picks the epoch whose network is returned (default: the last).
    """
    x = np.asarray(supervectors, dtype=np.float64)
    mask = np.asarray(speech_mask, dtype=bool)
    if x.ndim != 2 or len(x) != len(mask):
        raise MlpTrainingError("supervectors and labels do not align")
    if mask.all() or not mask.any():
        raise MlpTrainingError("training data contains a single class")
    labels = mask.astype(int)  # speech = class 1

    if select_epoch is None:
        select_epoch = epochs
    if not (0 <= select_epoch <= epochs):
        raise MlpTrainingError(f"select_epoch {select_epoch} outside 0..{epochs}")

    rng = np.random.default_rng(seed)
    model = init_mlp([x.shape[1], *hidden_dims, 2], seed=seed)
    if monitor is not None:
        mon_x, mon_labels = np.asarray(monitor[0]), np.asarray(monitor[1], dtype=bool).astype(int)

    train_losses, monitor_losses = [], []
    for epoch in range(epochs + 1):
        if epoch:
            order = rng.permutation(len(x))
            for batch_start in range(0, len(x), batch_size):
                batch = order[batch_start : batch_start + batch_size]
                loss, grad_w, grad_b = loss_and_grads(model, x[batch], labels[batch])
                if not np.isfinite(loss):
                    raise MlpTrainingError(
                        f"non-finite loss at epoch {epoch}, batch {batch_start // batch_size}"
                    )
                for w, b, gw, gb in zip(model.weights, model.biases, grad_w, grad_b):
                    w -= learning_rate * gw
                    b -= learning_rate * gb
        train_losses.append(cross_entropy(model, x, labels))
        if monitor is not None:
            monitor_losses.append(cross_entropy(model, mon_x, mon_labels))
        if epoch == select_epoch:
            selected = _copy_model(model, epoch)
    return MlpTrainResult(model=selected, train_losses=train_losses, monitor_losses=monitor_losses)


def class_embeddings(supervectors: np.ndarray, speech_mask: np.ndarray, layers):
    """Mean embedding per class under the given layers: (speech_mean, nonspeech_mean)."""
    mask = np.asarray(speech_mask, dtype=bool)
    if not mask.any() or mask.all():
        raise ValueError("both classes must be present to form class embeddings")
    embedded = embed_batch(supervectors, layers)
    return embedded[mask].mean(axis=0), embedded[~mask].mean(axis=0)
