"""Tests for k-NN regression (the §VI feature-prediction extension)."""

import numpy as np
import pytest

from repro.mlcore.base import NotFittedError
from repro.mlcore.knn import KNeighborsRegressor


def smooth_data(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3, 3, size=(n, 2))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1]
    return X, y


class TestFitPredict:
    def test_learns_smooth_function(self):
        X, y = smooth_data()
        Xt, yt = smooth_data(seed=1)
        reg = KNeighborsRegressor(5).fit(X, y)
        assert reg.score(Xt, yt) > 0.9

    def test_k1_memorizes(self):
        X, y = smooth_data(50)
        reg = KNeighborsRegressor(1).fit(X, y)
        assert np.allclose(reg.predict(X), y, atol=1e-8)

    def test_uniform_is_neighbor_mean(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0]])
        y = np.array([1.0, 2.0, 3.0, 100.0])
        reg = KNeighborsRegressor(3, weights="uniform").fit(X, y)
        assert reg.predict(np.array([[1.0]]))[0] == pytest.approx(2.0)

    def test_distance_weights_favor_close(self):
        X = np.array([[0.0], [1.0], [10.0]])
        y = np.array([0.0, 1.0, 100.0])
        uni = KNeighborsRegressor(3, weights="uniform").fit(X, y)
        dist = KNeighborsRegressor(3, weights="distance").fit(X, y)
        q = np.array([[0.1]])
        assert dist.predict(q)[0] < uni.predict(q)[0]

    def test_distance_weights_exact_match_dominates(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([7.0, 1.0, 9.0])
        reg = KNeighborsRegressor(3, weights="distance").fit(X, y)
        assert reg.predict(np.array([[0.0]]))[0] == pytest.approx(7.0)

    def test_distance_weights_self_query_is_an_exact_match(self):
        # embedding-like rows: a query equal to a training row must be at
        # distance 0, not at the ~1e-8 a |q|² + |x|² - 2q·x identity leaves
        rng = np.random.default_rng(5)
        X = rng.normal(size=(500, 384))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        y = rng.uniform(0.0, 100.0, size=500)
        reg = KNeighborsRegressor(5, weights="distance").fit(X, y)
        assert np.array_equal(reg.predict(X[:50]), y[:50])
        dist, _ = reg.kneighbors(X[:50])
        assert np.array_equal(dist[:, 0], np.zeros(50))

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            KNeighborsRegressor().predict(np.zeros((1, 2)))

    def test_nan_target_rejected(self):
        with pytest.raises(ValueError):
            KNeighborsRegressor(1).fit([[0.0], [1.0]], [np.nan, 1.0])

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            KNeighborsRegressor(weights="gaussian")


class TestScore:
    def test_perfect_r2(self):
        X, y = smooth_data(80)
        reg = KNeighborsRegressor(1).fit(X, y)
        assert reg.score(X, y) == pytest.approx(1.0)

    def test_constant_prediction_zero_r2(self):
        X = np.arange(20, dtype=float).reshape(-1, 1)
        y = X[:, 0].copy()
        reg = KNeighborsRegressor(20).fit(X, y)  # always the global mean
        assert reg.score(X, y) == pytest.approx(0.0, abs=1e-9)


class TestBackends:
    def test_kdtree_matches_brute(self):
        X, y = smooth_data(150)
        q = np.random.default_rng(3).uniform(-3, 3, size=(20, 2))
        b = KNeighborsRegressor(4, algorithm="brute").fit(X, y).predict(q)
        t = KNeighborsRegressor(4, algorithm="kd_tree").fit(X, y).predict(q)
        assert np.allclose(b, t, atol=1e-10)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        from repro.mlcore.persistence import load_model, save_model

        X, y = smooth_data(60)
        reg = KNeighborsRegressor(3, weights="distance").fit(X, y)
        save_model(reg, tmp_path / "r")
        reg2 = load_model(tmp_path / "r")
        q = X + 0.05
        assert np.allclose(reg.predict(q), reg2.predict(q))
