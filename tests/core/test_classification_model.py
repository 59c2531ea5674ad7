"""Tests for the Classification Model component (§III-D)."""

import numpy as np
import pytest

from repro.core.classification_model import ClassificationModel
from repro.mlcore.base import NotFittedError


def data(n=120, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 8)).astype(np.float32)
    y = (X[:, 0] > 0).astype(int)
    return X, y


class TestConstruction:
    def test_knn_and_rf_registered(self):
        names = ClassificationModel.registered_algorithms()
        assert "KNN" in names and "RF" in names

    def test_case_insensitive(self):
        m = ClassificationModel("rf", n_estimators=2)
        assert m.algorithm == "RF"

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            ClassificationModel("SVM")

    def test_params_forwarded(self):
        m = ClassificationModel("KNN", n_neighbors=7)
        assert m.model.n_neighbors == 7


class TestTrainInfer:
    def test_paper_contract_inference_requires_training(self):
        m = ClassificationModel("RF", n_estimators=2)
        with pytest.raises(NotFittedError):
            m.inference(np.zeros((1, 8), dtype=np.float32))

    def test_training_then_inference(self):
        X, y = data()
        m = ClassificationModel("RF", n_estimators=5, random_state=0)
        assert not m.is_trained
        m.training(X, y)
        assert m.is_trained
        pred = m.inference(X)
        assert pred.shape == (len(X),)
        assert float(np.mean(pred == y)) > 0.9

    def test_knn_pipeline(self):
        X, y = data()
        m = ClassificationModel("KNN", n_neighbors=3).training(X, y)
        assert float(np.mean(m.inference(X) == y)) > 0.9

    def test_proba(self):
        X, y = data()
        m = ClassificationModel("RF", n_estimators=5, random_state=0).training(X, y)
        p = m.inference_proba(X[:10])
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_proba_requires_training(self):
        with pytest.raises(NotFittedError):
            ClassificationModel("KNN").inference_proba(np.zeros((1, 2)))


class TestRegistration:
    def test_register_custom_algorithm(self):
        class Majority:
            def fit(self, X, y):
                vals, counts = np.unique(y, return_counts=True)
                self.winner = vals[np.argmax(counts)]
                return self

            def predict(self, X):
                return np.full(len(X), self.winner)

        name = "MAJORITY_TEST"
        if name not in ClassificationModel.registered_algorithms():
            ClassificationModel.register(name, lambda **kw: Majority())
        X, y = data()
        m = ClassificationModel(name).training(X, y)
        assert set(m.inference(X)) == {int(np.bincount(y).argmax())}

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            ClassificationModel.register("RF", lambda **kw: None)
