import os
from contextlib import contextmanager

# Pin BLAS threading before numpy loads so timing tests measure one core
# and results do not depend on the host's thread count.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import pytest

from streamsad import embeddings
from streamsad.rowsource import SpilledRows
from streamsad.synth import make_corpus, write_manifest
from streamsad.trainer import TrainConfig, train


TINY = dict(
    labeling_ubm_size=8,
    counts_ubm_per_class=16,
    supervector_ubm_size=8,
    lda_dim=8,
    pca_dim=12,
    gmm_iters=6,
    hidden_dims=(32, 16, 8),
    mlp_epochs=6,
    base_threshold=0.0,
)


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """Six short labelled recordings; first four for training, rest held out."""
    root = tmp_path_factory.mktemp("tiny_corpus")
    entries = make_corpus(root, n_files=6, duration=8.0, seed=1234)
    manifest = root / "train.tsv"
    write_manifest(manifest, entries[:4])
    return {"root": root, "entries": entries, "manifest": manifest}


@pytest.fixture(scope="session")
def tiny_model(tiny_corpus):
    cfg = TrainConfig(entries=tiny_corpus["entries"][:4], seed=99, **TINY)
    return train(cfg)


@pytest.fixture
def sgd_stores(monkeypatch):
    """(path, bytes) of each float32 SGD store `embeddings.train_mlp` makes,
    recorded once it is written; path is None for a store held in memory."""
    seen = []
    real = embeddings._sgd_store

    @contextmanager
    def spy(source):
        with real(source) as store:
            if isinstance(store, SpilledRows):
                seen.append((store.path, store.path.read_bytes()))
            else:
                seen.append((None, store.data.tobytes()))
            yield store

    monkeypatch.setattr(embeddings, "_sgd_store", spy)
    return seen
