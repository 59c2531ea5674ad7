"""Tests for the Gaussian naive Bayes classifier."""

import numpy as np
import pytest

from repro.mlcore.base import NotFittedError
from repro.mlcore.naive_bayes import GaussianNBClassifier


def blobs(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X0 = rng.normal(-2.0, 1.0, size=(n // 2, 3))
    X1 = rng.normal(+2.0, 1.0, size=(n // 2, 3))
    return np.vstack([X0, X1]), np.array([0] * (n // 2) + [1] * (n // 2))


class TestFitPredict:
    def test_separable_blobs(self):
        X, y = blobs()
        nb = GaussianNBClassifier().fit(X, y)
        assert nb.score(X, y) > 0.98

    def test_generalizes(self):
        X, y = blobs()
        Xt, yt = blobs(seed=1)
        nb = GaussianNBClassifier().fit(X, y)
        assert nb.score(Xt, yt) > 0.95

    def test_proba_valid(self):
        X, y = blobs(100)
        nb = GaussianNBClassifier().fit(X, y)
        p = nb.predict_proba(X)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert p.min() >= 0

    def test_priors_reflect_imbalance(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(100, 2))
        y = np.array([0] * 90 + [1] * 10)
        nb = GaussianNBClassifier().fit(X, y)
        assert nb.class_prior_[0] == pytest.approx(0.9)

    def test_string_labels(self):
        X, y = blobs(60)
        nb = GaussianNBClassifier().fit(X, np.array(["m", "c"])[y])
        assert set(nb.predict(X)) <= {"m", "c"}

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            GaussianNBClassifier().predict(np.zeros((1, 2)))

    def test_shape_mismatch(self):
        X, y = blobs(40)
        nb = GaussianNBClassifier().fit(X, y)
        with pytest.raises(ValueError):
            nb.predict(np.zeros((2, 99)))

    def test_constant_feature_stable(self):
        X, y = blobs(60)
        X[:, 1] = 5.0  # zero variance; smoothing must keep densities finite
        nb = GaussianNBClassifier().fit(X, y)
        assert np.isfinite(nb._joint_log_likelihood(X)).all()

    def test_invalid_smoothing(self):
        with pytest.raises(ValueError):
            GaussianNBClassifier(var_smoothing=-1.0)


class TestIntegration:
    def test_registered_in_classification_model(self):
        from repro.core.classification_model import ClassificationModel

        X, y = blobs(120)
        m = ClassificationModel("NB").training(X.astype(np.float32), y)
        assert float(np.mean(m.inference(X.astype(np.float32)) == y)) > 0.9

    def test_persistence_roundtrip(self, tmp_path):
        from repro.mlcore.persistence import load_model, save_model

        X, y = blobs(80)
        nb = GaussianNBClassifier().fit(X, y)
        save_model(nb, tmp_path / "nb")
        nb2 = load_model(tmp_path / "nb")
        assert np.array_equal(nb.predict(X), nb2.predict(X))
        assert np.allclose(nb.predict_proba(X), nb2.predict_proba(X))
