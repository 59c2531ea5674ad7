"""Tests for the MCBound model store."""

import numpy as np
import pytest

from repro.core.classification_model import ClassificationModel
from repro.core.registry import ModelStore
from repro.nlp.embedder import SentenceEmbedder


def trained_model(algorithm="KNN", **params):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 6)).astype(np.float32)
    y = (X[:, 0] > 0).astype(int)
    defaults = {"n_neighbors": 3} if algorithm == "KNN" else {"n_estimators": 3}
    defaults.update(params)
    return ClassificationModel(algorithm, **defaults).training(X, y), X


class TestPublishLoad:
    def test_roundtrip_predictions(self, tmp_path):
        store = ModelStore(tmp_path)
        model, X = trained_model()
        v = store.publish(model)
        assert v == 1
        loaded, meta = store.load()
        assert np.array_equal(loaded.inference(X), model.inference(X))
        assert meta["algorithm"] == "KNN"

    def test_versions_increment(self, tmp_path):
        store = ModelStore(tmp_path)
        model, _ = trained_model()
        assert store.publish(model) == 1
        assert store.publish(model) == 2
        assert store.latest_version == 2

    def test_metadata_fields(self, tmp_path):
        store = ModelStore(tmp_path)
        model, _ = trained_model()
        emb = SentenceEmbedder(dim=32)
        store.publish(
            model, embedder=emb, trained_at=123.0, window=(0.0, 100.0),
            extra={"alpha": 30},
        )
        _, meta = store.load()
        assert meta["trained_at"] == 123.0
        assert meta["window"] == [0.0, 100.0]
        assert meta["extra"] == {"alpha": 30}
        assert meta["embedder"]["dim"] == 32

    def test_empty_store_raises(self, tmp_path):
        store = ModelStore(tmp_path)
        with pytest.raises(FileNotFoundError):
            store.load()

    def test_loaded_model_is_trained(self, tmp_path):
        store = ModelStore(tmp_path)
        model, X = trained_model("RF", random_state=0)
        store.publish(model)
        loaded, _ = store.load()
        assert loaded.is_trained
        assert loaded.algorithm == "RF"
