"""Tests for the k-NN classifier (brute and KD-tree backends)."""

import numpy as np
import pytest

from repro.mlcore.base import NotFittedError
from repro.mlcore.knn import KNeighborsClassifier


def blobs(n=200, seed=0, d=4):
    rng = np.random.default_rng(seed)
    X0 = rng.normal(loc=-2.0, size=(n // 2, d))
    X1 = rng.normal(loc=+2.0, size=(n // 2, d))
    X = np.vstack([X0, X1])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return X, y


class TestFitPredict:
    def test_separable_blobs(self):
        X, y = blobs()
        knn = KNeighborsClassifier(5).fit(X, y)
        assert knn.score(X, y) > 0.98

    def test_k1_memorizes_training_data(self):
        X, y = blobs(60)
        knn = KNeighborsClassifier(1).fit(X, y)
        assert knn.score(X, y) == 1.0

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            KNeighborsClassifier().predict(np.zeros((1, 2)))

    def test_k_larger_than_n_rejected(self):
        X, y = blobs(8)
        with pytest.raises(ValueError):
            KNeighborsClassifier(9).fit(X, y)

    def test_dim_mismatch_rejected(self):
        X, y = blobs()
        knn = KNeighborsClassifier(3).fit(X, y)
        with pytest.raises(ValueError):
            knn.predict(np.zeros((2, 99)))

    def test_string_labels(self):
        X, y = blobs(40)
        knn = KNeighborsClassifier(3).fit(X, np.array(["m", "c"])[y])
        assert set(knn.predict(X)) <= {"m", "c"}


class TestKneighbors:
    def test_self_is_nearest_in_training(self):
        X, y = blobs(50)
        knn = KNeighborsClassifier(3, algorithm="brute").fit(X, y)
        dist, idx = knn.kneighbors(X)
        assert np.array_equal(dist[:, 0], np.zeros(50))  # rescored exactly
        assert np.array_equal(idx[:, 0], np.arange(50))

    def test_distances_sorted(self):
        X, y = blobs()
        knn = KNeighborsClassifier(5, algorithm="brute").fit(X, y)
        dist, _ = knn.kneighbors(X[:10])
        assert np.all(np.diff(dist, axis=1) >= -1e-12)

    def test_k_equals_n(self):
        X, y = blobs(10)
        knn = KNeighborsClassifier(3, algorithm="brute").fit(X, y)
        dist, idx = knn.kneighbors(X[:2], n_neighbors=10)
        assert dist.shape == (2, 10)
        assert set(idx[0].tolist()) == set(range(10))

    def test_brute_matches_exact_euclidean(self):
        X, y = blobs(80)
        q = np.random.default_rng(1).normal(size=(5, X.shape[1]))
        knn = KNeighborsClassifier(4, algorithm="brute").fit(X, y)
        dist, idx = knn.kneighbors(q)
        full = np.sqrt(((q[:, None, :] - X[None]) ** 2).sum(-1))
        expected = np.sort(full, axis=1)[:, :4]
        assert np.allclose(dist, expected, atol=1e-8)


class TestBackends:
    def test_kdtree_matches_brute(self):
        X, y = blobs(150, d=3)
        q = np.random.default_rng(2).normal(size=(20, 3))
        b = KNeighborsClassifier(5, algorithm="brute").fit(X, y)
        k = KNeighborsClassifier(5, algorithm="kd_tree").fit(X, y)
        db, _ = b.kneighbors(q)
        dk, _ = k.kneighbors(q)
        assert np.allclose(db, dk, atol=1e-10)

    def test_auto_picks_kdtree_low_dim(self):
        X, y = blobs(50, d=3)
        knn = KNeighborsClassifier(3, algorithm="auto").fit(X, y)
        assert knn._backend == "kd_tree"

    def test_auto_picks_brute_high_dim(self):
        X, y = blobs(50, d=32)
        knn = KNeighborsClassifier(3, algorithm="auto").fit(X, y)
        assert knn._backend == "brute"

    def test_chunking_consistent(self):
        X, y = blobs(300)
        big = KNeighborsClassifier(5, chunk_size=1000).fit(X, y)
        small = KNeighborsClassifier(5, chunk_size=7).fit(X, y)
        q = X[:40] + 0.01
        assert np.array_equal(big.predict(q), small.predict(q))


class TestMinkowski:
    def test_p1_manhattan(self):
        X = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 2.0]])
        y = np.array([0, 1, 1])
        knn = KNeighborsClassifier(1, p=1.0, algorithm="brute").fit(X, y)
        dist, idx = knn.kneighbors(np.array([[1.0, 1.0]]), n_neighbors=3)
        assert dist[0, 0] == pytest.approx(2.0)  # to the origin

    def test_p3_matches_definition(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 5))
        y = (X[:, 0] > 0).astype(int)
        q = rng.normal(size=(3, 5))
        knn = KNeighborsClassifier(4, p=3.0, algorithm="brute").fit(X, y)
        dist, idx = knn.kneighbors(q)
        ref = ((np.abs(q[:, None, :] - X[None]) ** 3).sum(-1)) ** (1 / 3)
        assert np.allclose(dist, np.sort(ref, axis=1)[:, :4], atol=1e-10)

    def test_kdtree_p1_matches_brute(self):
        X, y = blobs(100, d=3)
        b = KNeighborsClassifier(3, p=1.0, algorithm="brute").fit(X, y)
        k = KNeighborsClassifier(3, p=1.0, algorithm="kd_tree").fit(X, y)
        q = X[:15] + 0.05
        db, _ = b.kneighbors(q)
        dk, _ = k.kneighbors(q)
        assert np.allclose(db, dk, atol=1e-10)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            KNeighborsClassifier(p=0.5)
        with pytest.raises(ValueError):
            KNeighborsClassifier(p=float("inf"))


class TestVoting:
    def test_majority_wins(self):
        X = np.array([[0.0], [0.1], [0.2], [10.0], [10.1]])
        y = np.array([0, 0, 0, 1, 1])
        knn = KNeighborsClassifier(5, algorithm="brute").fit(X, y)
        assert knn.predict(np.array([[0.05]]))[0] == 0

    def test_proba_is_vote_fraction(self):
        X = np.array([[0.0], [0.1], [10.0], [10.1], [10.2]])
        y = np.array([0, 0, 1, 1, 1])
        knn = KNeighborsClassifier(5, algorithm="brute").fit(X, y)
        p = knn.predict_proba(np.array([[5.0]]))
        assert p[0, 0] == pytest.approx(0.4)
        assert p[0, 1] == pytest.approx(0.6)

    def test_tie_breaks_to_smaller_class(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        knn = KNeighborsClassifier(2, algorithm="brute").fit(X, y)
        assert knn.predict(np.array([[0.5]]))[0] == 0


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        from repro.mlcore.persistence import load_model, save_model

        X, y = blobs(60)
        knn = KNeighborsClassifier(3).fit(X, y)
        save_model(knn, tmp_path / "knn")
        knn2 = load_model(tmp_path / "knn")
        q = X + 0.1
        assert np.array_equal(knn.predict(q), knn2.predict(q))
