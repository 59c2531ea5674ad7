"""Tests for the online evaluation loop (§V-B)."""

import numpy as np
import pytest

from repro.evaluation.online import OnlineEvaluator
from repro.fugaku.workload import DAY_SECONDS


@pytest.fixture(scope="module")
def evaluator(small_trace):
    # short test window keeps the loop fast; training pool is days < 40
    return OnlineEvaluator(small_trace, test_start_day=40, test_end_day=46)


KNN = ("KNN", {"n_neighbors": 3, "algorithm": "brute"})
RF = ("RF", {"n_estimators": 5, "max_depth": 8, "splitter": "hist", "random_state": 0})


class TestSetup:
    def test_precomputed_state(self, evaluator, small_trace):
        assert evaluator.row_index.shape == (len(small_trace),)
        assert evaluator.rows.shape == (evaluator.row_index.max() + 1, 384)
        assert evaluator.y.shape == (len(small_trace),)
        assert evaluator.encode_time_per_job > 0

    def test_empty_test_window_rejected(self, small_trace):
        with pytest.raises(ValueError):
            OnlineEvaluator(small_trace, test_start_day=40, test_end_day=40)


class TestEvaluate:
    def test_result_fields(self, evaluator):
        r = evaluator.evaluate(*KNN, alpha=20, beta=1)
        assert 0.0 <= r.f1 <= 1.0
        assert 0.0 <= r.accuracy <= 1.0
        assert r.n_test_jobs > 0
        assert r.n_retrainings == 6  # beta=1 over 6 test days
        assert len(r.train_times) == 6
        assert r.mean_train_time > 0
        assert r.mean_inference_time_per_job > 0

    def test_beta_reduces_retrainings(self, evaluator):
        r = evaluator.evaluate(*KNN, alpha=20, beta=3)
        assert r.n_retrainings == 2  # days 40 and 43

    def test_alpha_window_size(self, evaluator):
        r_small = evaluator.evaluate(*KNN, alpha=5, beta=6)
        r_big = evaluator.evaluate(*KNN, alpha=30, beta=6)
        assert r_big.train_sizes[0] > r_small.train_sizes[0]

    def test_alpha_plus_growing_window(self, evaluator):
        r = evaluator.evaluate(*KNN, alpha=("plus", 20), beta=1)
        sizes = r.train_sizes
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))

    def test_sliding_window_sizes_stable(self, evaluator):
        r = evaluator.evaluate(*KNN, alpha=20, beta=1)
        sizes = np.array(r.train_sizes)
        assert sizes.max() < 2.5 * sizes.min()

    def test_models_predict_better_than_chance(self, evaluator):
        for spec in (KNN, RF):
            r = evaluator.evaluate(*spec, alpha=30, beta=1)
            assert r.f1 > 0.6

    def test_invalid_beta(self, evaluator):
        with pytest.raises(ValueError):
            evaluator.evaluate(*KNN, alpha=20, beta=0.5)

    def test_rf_deterministic(self, evaluator):
        a = evaluator.evaluate(*RF, alpha=20, beta=2)
        b = evaluator.evaluate(*RF, alpha=20, beta=2)
        assert a.f1 == b.f1


class TestTheta:
    def test_theta_caps_train_size(self, evaluator):
        r = evaluator.evaluate(*KNN, alpha=30, beta=1, theta=50, sampling="random", seed=0)
        assert max(r.train_sizes) <= 50

    def test_theta_larger_than_window_is_noop(self, evaluator):
        full = evaluator.evaluate(*KNN, alpha=10, beta=3)
        capped = evaluator.evaluate(*KNN, alpha=10, beta=3, theta=10**9, sampling="random", seed=0)
        assert capped.f1 == full.f1

    def test_random_sampling_seeded(self, evaluator):
        a = evaluator.evaluate(*KNN, alpha=30, beta=2, theta=60, sampling="random", seed=520)
        b = evaluator.evaluate(*KNN, alpha=30, beta=2, theta=60, sampling="random", seed=520)
        c = evaluator.evaluate(*KNN, alpha=30, beta=2, theta=60, sampling="random", seed=90)
        assert a.f1 == b.f1
        assert a.f1 != c.f1 or a.train_sizes == c.train_sizes

    def test_latest_sampling_takes_most_recent(self, evaluator, small_trace):
        idx = evaluator._training_indices(40, 30)
        sub = evaluator._subsample(idx, 40, "latest", np.random.default_rng(0))
        chosen_end = evaluator.end_time[sub]
        others = np.setdiff1d(idx, sub)
        assert chosen_end.min() >= np.partition(evaluator.end_time[others], -1)[-1] - 1e9
        # strictly: the chosen are the max-end_time jobs
        assert chosen_end.min() >= np.sort(evaluator.end_time[idx])[-40]

    def test_unknown_sampling_rejected(self, evaluator):
        with pytest.raises(ValueError):
            evaluator.evaluate(*KNN, alpha=20, beta=1, theta=10, sampling="bogus")


class TestBaseline:
    def test_baseline_runs(self, evaluator):
        r = evaluator.evaluate_baseline(alpha=20, beta=1)
        assert r.model_name == "baseline"
        assert 0.0 <= r.f1 <= 1.0
        assert r.n_retrainings == 6
        assert r.encode_time_per_job == 0.0

    def test_baseline_not_better_than_knn(self, evaluator):
        """§V-C.a: the lookup baseline underperforms the NLP-augmented models."""
        knn = evaluator.evaluate(*KNN, alpha=20, beta=1)
        base = evaluator.evaluate_baseline(alpha=20, beta=1)
        assert base.f1 <= knn.f1 + 0.05
