"""The MLP that embeds segment supervectors.

A segment's supervector (`gmm.block_supervectors`) flattens its centered
first-order statistics, normalized by the posterior counts. A small
feed-forward network is trained to call the segment speech or non-speech;
its first hidden layer, not its output, is the representation used for
scoring, compared by cosine against per-class mean embeddings.

The network is plain numpy on purpose: a few dense layers, ReLU, softmax
cross-entropy, minibatch SGD. Determinism given a seed is a contract here,
and the loss is logged per epoch. SGD never looks ahead, so the network
after e epochs of a longer run is the one an e-epoch run returns, and
`mlp_epochs` alone picks the network.
Training reads its supervectors from a row source, so a corpus's
supervectors can stay on disk: minibatches read their rows, each epoch's
training loss comes from those minibatches, and the full-pass losses (the
initial network's, the monitor set's) and the class embeddings run in
fixed-size chunks. The rows SGD reads are cast once, before the first
epoch, into a store of their own: a new file beside a spilled source's,
removed when training returns or raises, or memory beside an in-memory
array.
Training and detection run the same ReLU layer pass (`layer_outputs`).
Detection keeps only the first hidden layer's (weight, bias) pair; the
layers after it exist to train it.

Precision: minibatch SGD runs in float32, which halves the bytes each
product moves. The network starts as the seeded float64 He initialization
cast to float32, and the training rows are cast to float32 once, after
every entry below float32's smallest normal (1.18e-38) is set to 0: supervector
components with almost no posterior count leave entries as small as 1e-179,
and a float32 subnormal makes every product that touches it take a slow
microcode path. Everything else is float64: the returned network (an exact
upcast of the float32 one), the initial and monitor losses, the class
embeddings and all of detection.

So the trained embedding layer's float64 values each fit in float32, and
this module also owns the model bundle's element codec: `narrowest` gives
an array at the narrowest stored dtype that keeps every entry exactly,
`STORED_DTYPES` names the dtypes a bundle may hold, `to_planes` splits a
stored array into byte planes (byte 0 of every value, then byte 1, ...),
and `from_planes` turns planes back into a float64 array of its own. The
bundle (`engine.save_model`) deflates the planes, holding the embedding
layer at 4 bytes per value and everything else at 8 before compression,
and a loaded model is float64 throughout.
"""

from __future__ import annotations

import math
import os
import tempfile
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from .rowsource import ArrayRows, SpilledRows, as_rows

# rows per chunk of the full-pass losses and the class embeddings: the
# chunk's activations, not the corpus's, are held at once
CHUNK_ROWS = 512

# float32's smallest normal: a minibatch entry below it in magnitude trains as 0
_TINY32 = float(np.finfo(np.float32).tiny)

# the bundle's element dtypes, by the tag its header gives each array
_NARROW, _WIDE = np.dtype("<f4"), np.dtype("<f8")
STORED_DTYPES = {dtype.str: dtype for dtype in (_NARROW, _WIDE)}
# values per step of `from_planes`: 64 KB of float32 at a time
PLANE_CHUNK = 16384


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

    An (S, 1, in_dim) stack runs each row as its own (1, in_dim) product, the call a single
    supervector gets, so a row's bits do not depend on S (the rule of `features.row_products`).
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
    # taken in float64: a float32 probability that underflows to 0 still
    # meets a floor above 0, where float32 would round 1e-300 to 0 itself
    picked = probs[np.arange(len(labels)), labels].astype(np.float64)
    return float(-np.mean(np.log(np.maximum(picked, 1e-300))))


def cross_entropy(model: MlpModel, x, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy of an (n, in_dim) array or row source,
    CHUNK_ROWS rows at a time; labels are class indices."""
    source, labels = as_rows(x), np.asarray(labels)
    total = 0.0
    for k, block in enumerate(source.blocks(CHUNK_ROWS)):
        probs = softmax(forward(model, block))
        picked = probs[np.arange(len(block)), labels[k * CHUNK_ROWS : k * CHUNK_ROWS + len(block)]]
        total += float(np.add.reduce(np.log(np.maximum(picked, 1e-300))))
    return -total / len(source)


def loss_and_grads(model: MlpModel, x: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy (a float64 number) plus gradients for every weight
    and bias, computed in the model's dtype: float32 for training SGD,
    float64 for an exact check."""
    x = np.asarray(x, dtype=model.weights[0].dtype)
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


def _as_dtype(model: MlpModel, dtype) -> MlpModel:
    """A copy of the network with every weight and bias cast to dtype."""
    return MlpModel(
        weights=[w.astype(dtype) for w in model.weights],
        biases=[b.astype(dtype) for b in model.biases],
    )


def _sgd_rows(rows: np.ndarray) -> np.ndarray:
    """float64 rows as float32 SGD rows: entries below _TINY32 in magnitude become 0."""
    small = np.abs(rows) < _TINY32
    batch = rows.astype(np.float32)
    batch[small] = 0.0
    return batch


@contextmanager
def _sgd_store(source):
    """source's rows as `_sgd_rows`, in a store of their own for the with
    block: an in-memory source's in memory; a spilled source's cast
    CHUNK_ROWS rows at a time into a new file beside its own (a fresh name
    from `tempfile`, so no existing file is touched), removed when the
    block ends, by return or raise."""
    if isinstance(source, ArrayRows):
        yield ArrayRows(_sgd_rows(source.data), np.float32)
        return
    fd, path = tempfile.mkstemp(prefix=source.path.name + ".", suffix=".f32", dir=source.path.parent)
    os.close(fd)
    try:
        store = SpilledRows(path, source.dim, np.float32)
        for block in source.blocks(CHUNK_ROWS):
            store.append(_sgd_rows(block))
        yield store
    finally:
        os.unlink(path)


@dataclass
class MlpTrainResult:
    """The trained network plus the per-epoch losses, epochs + 1 of each.

    train_losses[0] is the initial network's loss over the training set.
    For e >= 1, train_losses[e] is epoch e's running loss: the size-weighted
    mean of its minibatch losses, each taken at the weights that batch saw,
    so it trails the network after epoch e by that epoch's updates.
    monitor_losses[e] (when monitored) is the loss of the network after e
    epochs on the monitor set.
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
    monitor=None,
) -> MlpTrainResult:
    """Minibatch SGD on softmax cross-entropy, in float32; deterministic per seed.

    The network is trained in float32 (see the module docstring), and the
    one the last epoch ends with is returned as float64. supervectors (and
    the monitor's) are an (n, in_dim) array or a row source (`rowsource`).
    The training rows are read in full twice, CHUNK_ROWS rows at a time:
    for the initial loss, and, when epochs > 0, to cast them once into
    flushed float32 rows (`_sgd_store`: beside a spilled source's file for
    the length of the call), from which each minibatch reads its rows in
    the seeded order. Each later epoch's loss is the mean of the losses its
    minibatches already computed (see `MlpTrainResult`).
    monitor, when given, is a (supervectors, speech_mask) pair evaluated
    in full after every epoch purely for logging; it never changes the result.
    learning_rate must be finite and > 0.
    """
    try:
        x = as_rows(supervectors)
    except ValueError:
        raise MlpTrainingError("supervectors and labels do not align") from None
    mask = np.asarray(speech_mask, dtype=bool)
    if len(x) != len(mask):
        raise MlpTrainingError("supervectors and labels do not align")
    if mask.all() or not mask.any():
        raise MlpTrainingError("training data contains a single class")
    labels = mask.astype(int)  # speech = class 1

    if not (math.isfinite(learning_rate) and learning_rate > 0):
        raise MlpTrainingError(f"learning_rate must be finite and > 0, got {learning_rate}")
    rate = float(learning_rate)  # a Python float keeps each update in float32

    rng = np.random.default_rng(seed)
    model = _as_dtype(init_mlp([x.dim, *hidden_dims, 2], seed=seed), np.float32)
    if monitor is not None:
        mon_x, mon_labels = monitor[0], np.asarray(monitor[1], dtype=bool).astype(int)

    train_losses, monitor_losses = [cross_entropy(_as_dtype(model, np.float64), x, labels)], []
    with _sgd_store(x) if epochs else nullcontext() as sgd_rows:
        for epoch in range(epochs + 1):
            if epoch:
                order = rng.permutation(len(x))
                total = 0.0
                for batch_start in range(0, len(x), batch_size):
                    batch = order[batch_start : batch_start + batch_size]
                    loss, grad_w, grad_b = loss_and_grads(model, sgd_rows.rows(batch), labels[batch])
                    if not np.isfinite(loss):
                        raise MlpTrainingError(
                            f"non-finite loss at epoch {epoch}, batch {batch_start // batch_size}"
                        )
                    total += len(batch) * loss
                    # each step scaled in its gradient's own buffer, the bits of w -= rate * gw
                    for w, b, gw, gb in zip(model.weights, model.biases, grad_w, grad_b):
                        w -= np.multiply(gw, rate, out=gw)
                        b -= np.multiply(gb, rate, out=gb)
                train_losses.append(total / len(x))
            if monitor is not None:
                monitor_losses.append(cross_entropy(_as_dtype(model, np.float64), mon_x, mon_labels))
    return MlpTrainResult(
        model=_as_dtype(model, np.float64), train_losses=train_losses, monitor_losses=monitor_losses
    )


def class_embeddings(supervectors, speech_mask: np.ndarray, layers):
    """Mean embedding per class under the given layers: (speech_mean, nonspeech_mean).

    supervectors are an (n, in_dim) array or a row source, embedded
    CHUNK_ROWS rows at a time.
    """
    source, mask = as_rows(supervectors), np.asarray(speech_mask, dtype=bool)
    if not mask.any() or mask.all():
        raise ValueError("both classes must be present to form class embeddings")
    speech = nonspeech = 0.0
    for k, block in enumerate(source.blocks(CHUNK_ROWS)):
        embedded = embed_batch(block, layers)
        chunk = mask[k * CHUNK_ROWS : k * CHUNK_ROWS + len(block)]
        speech = speech + np.add.reduce(embedded[chunk], axis=0)
        nonspeech = nonspeech + np.add.reduce(embedded[~chunk], axis=0)
    return speech / np.count_nonzero(mask), nonspeech / np.count_nonzero(~mask)


def narrowest(array: np.ndarray) -> np.ndarray:
    """The float64 array at the narrowest of STORED_DTYPES that gives back
    every entry bit for bit, C-contiguous: float32 when each value survives
    the round trip (a cast keeps the sign of zero, and NaN never compares
    equal), else float64."""
    with np.errstate(over="ignore"):  # a value beyond float32's range becomes inf and fails the test
        narrow = np.ascontiguousarray(array, dtype=_NARROW)
    return narrow if np.array_equal(narrow, array) else np.ascontiguousarray(array, dtype=_WIDE)


def to_planes(stored: np.ndarray) -> bytes:
    """A C-contiguous stored array's little-endian bytes as byte planes:
    byte 0 of every element, then byte 1, and so on."""
    return stored.reshape(-1).view(np.uint8).reshape(-1, stored.itemsize).T.tobytes()


def from_planes(planes, dtype: np.dtype, shape) -> np.ndarray:
    """The read-only float64 array of the given shape whose values,
    stored at dtype, `to_planes` split into planes. It is in a buffer of its
    own that starts on a 64-byte (cache-line) boundary: a large array's own
    allocation starts 16 bytes past one, and a one-segment product with the
    default 768 x 256 embedding weight placed so takes 30 us against 24 (one
    Xeon core, one OpenBLAS thread). The values are gathered PLANE_CHUNK at
    a time, so a narrow array needs no stored copy beside its float64 one."""
    count = math.prod(shape)
    raw = np.empty(8 * count + 63, dtype=np.uint8)
    lead = -raw.ctypes.data % 64
    wide = raw[lead : lead + 8 * count].view(np.float64)
    bytewise = np.frombuffer(planes, np.uint8).reshape(dtype.itemsize, count)
    chunk = np.empty((min(count, PLANE_CHUNK), dtype.itemsize), dtype=np.uint8)
    for start in range(0, count, PLANE_CHUNK):
        part = chunk[: min(PLANE_CHUNK, count - start)]
        for byte, plane in enumerate(bytewise[:, start : start + len(part)]):
            part[:, byte] = plane  # one plane at a time: 3x faster than copying a transpose
        with np.errstate(invalid="ignore"):  # a signaling NaN widens quietly; the model refuses it
            wide[start : start + len(part)] = part.view(dtype)[:, 0]
    wide.flags.writeable = False
    return wide.reshape(shape)
