"""F10 — Figure 10: RF F1 with θ-subsampled retraining (latest vs random).

Paper reading: same as Fig. 9 — random sampling wins at every θ because
the latest-θ subsample is dominated by replicated batch jobs, and the gap
closes as θ grows toward the full window.
"""

import numpy as np

from benchmarks.test_fig9_theta_knn import _theta_table


def test_fig10_theta_rf(benchmark, evaluator, theta_rf, theta_grid_values, rf_spec, strict):
    _theta_table("10 (RF, alpha=15)", theta_rf, theta_grid_values)

    f1_random = [theta_rf[(t, "random")]["f1_mean"] for t in theta_grid_values]
    f1_latest = [theta_rf[(t, "latest")]["f1_mean"] for t in theta_grid_values]

    # more data helps
    assert f1_random == sorted(f1_random)
    assert f1_latest[-1] > f1_latest[0]

    if strict and len(theta_grid_values) >= 3:
        # random beats latest where the batch-duplication effect dominates
        mid = theta_grid_values[-2]
        gap_mid = theta_rf[(mid, "random")]["f1_mean"] - theta_rf[(mid, "latest")]["f1_mean"]
        assert gap_mid > 0
        # and the gap shrinks as theta approaches the window (paper: 0.26 -> 0.02)
        top = theta_grid_values[-1]
        gap_top = theta_rf[(top, "random")]["f1_mean"] - theta_rf[(top, "latest")]["f1_mean"]
        assert abs(gap_top) < gap_mid

    # benchmark the retraining unit at the middle theta (subsample + fit)
    from repro.core.classification_model import ClassificationModel

    rng = np.random.default_rng(520)
    idx = evaluator._training_indices(evaluator.test_start_day, 15)
    mid = theta_grid_values[len(theta_grid_values) // 2]

    def retrain():
        sub = evaluator._subsample(idx, mid, "random", rng)
        return ClassificationModel("RF", **rf_spec.params).training(
            evaluator.rows, evaluator.y[sub], row_index=evaluator.row_index[sub]
        )

    benchmark.pedantic(retrain, rounds=1, iterations=1)
