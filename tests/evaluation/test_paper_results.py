"""Paper-configuration results, pinned bit for bit.

Each run below replays one experiment of §V-B/C on ``small_trace`` and
must reproduce the numbers recorded in ``paper_results.json`` with exact
float equality: the Fig. 6 α/β points, the Figs. 9/10 θ random and
latest subsamples, the §V-C.b growing window, the drift-adaptive
schedule and the §V-C.a lookup baseline.
Any change to the online loop, its feature/label pipeline or the models
that moves one of them is a behaviour change, not a refactor.
"""

import json
import math
from pathlib import Path

import pytest

from repro.core import FeatureEncoder, JobCharacterizer
from repro.evaluation import AdaptiveRetrainingPolicy, OnlineEvaluator

PINNED = json.loads(Path(__file__).with_name("paper_results.json").read_text())

KNN = ("KNN", {"n_neighbors": 3})
RF = ("RF", {"n_estimators": 5, "max_depth": 8, "splitter": "hist", "random_state": 0})

FIXED_SCHEDULE_RUNS = {
    "knn_a30_b1": (KNN, dict(alpha=30, beta=1)),
    "knn_a30_b3": (KNN, dict(alpha=30, beta=3)),
    "rf_a15_b1": (RF, dict(alpha=15, beta=1)),
    "knn_theta60_random_520": (
        KNN, dict(alpha=30, beta=1, theta=60, sampling="random", seed=520)
    ),
    "knn_theta60_latest": (KNN, dict(alpha=30, beta=1, theta=60, sampling="latest")),
    "rf_theta60_random_90_b2": (
        RF, dict(alpha=15, beta=2, theta=60, sampling="random", seed=90)
    ),
    "knn_plus20": (KNN, dict(alpha=("plus", 20), beta=1)),
}


@pytest.fixture(scope="module")
def evaluator(small_trace):
    return OnlineEvaluator(small_trace, test_start_day=40, test_end_day=46)


def assert_matches(result, pinned):
    assert result.f1 == pinned["f1"]
    assert result.accuracy == pinned["accuracy"]
    assert result.n_test_jobs == pinned["n_test_jobs"]
    assert result.n_retrainings == pinned["n_retrainings"]
    assert list(result.train_sizes) == pinned["train_sizes"]
    if "per_day_f1" in pinned:
        assert list(result.per_day_f1) == pinned["per_day_f1"]


@pytest.mark.parametrize("name", sorted(FIXED_SCHEDULE_RUNS))
def test_fixed_schedule_run(evaluator, name):
    (algorithm, params), kwargs = FIXED_SCHEDULE_RUNS[name]
    assert_matches(evaluator.evaluate(algorithm, params, **kwargs), PINNED[name])


def test_lookup_baseline(evaluator):
    assert_matches(evaluator.evaluate_baseline(alpha=20, beta=1), PINNED["baseline_a20_b1"])


def test_adaptive_schedule(small_trace):
    evaluator = OnlineEvaluator(small_trace, test_start_day=40, test_end_day=50)
    result, scores = evaluator.evaluate_adaptive(
        *KNN, alpha=20, policy=AdaptiveRetrainingPolicy(max_days_between=5)
    )
    pinned = PINNED["adaptive_knn_a20"]
    assert_matches(result, pinned)
    assert [None if math.isnan(s) else s for s in scores] == pinned["drift_scores"]


def test_features_and_labels_match_the_trace_pipeline(evaluator, small_trace):
    """The evaluator's expanded encodings and y equal the
    paper-configuration encoder and characterizer applied to the whole
    trace, byte for byte."""
    X = FeatureEncoder().encode_trace(small_trace)
    y = JobCharacterizer().labels_from_trace(small_trace)
    expanded = evaluator.rows[evaluator.row_index]
    assert expanded.dtype == X.dtype and expanded.shape == X.shape
    assert expanded.tobytes() == X.tobytes()
    assert evaluator.y.dtype == y.dtype and evaluator.y.tobytes() == y.tobytes()
