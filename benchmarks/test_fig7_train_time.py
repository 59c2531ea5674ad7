"""F7 — Figure 7: average daily training time vs α (β=1).

Paper reading: KNN training is near zero at every α (it only stores the
data); RF training grows with the window size, but its best prediction is
already reached at α=15 where training is cheapest.
"""

from repro.core.classification_model import ClassificationModel
from repro.evaluation.experiments import PAPER_ALPHAS
from repro.evaluation.reporting import format_table


def test_fig7_training_time(benchmark, evaluator, knn_grid, rf_grid, knn_spec, strict):
    rows = []
    for a in PAPER_ALPHAS:
        rows.append([
            a,
            f"{knn_grid[(a, 1)].mean_train_time * 1e3:.1f} ms",
            f"{rf_grid[(a, 1)].mean_train_time:.2f} s",
        ])
    print()
    print(format_table(
        ["alpha", "KNN train/trigger", "RF train/trigger"],
        rows,
        title="Fig 7 - average model training time (beta=1)",
    ))
    print("paper: KNN <= 0.32 s at alpha=60; RF 26 s (alpha=15) to ~3 min (alpha=60)")

    knn_t = [knn_grid[(a, 1)].mean_train_time for a in PAPER_ALPHAS]
    rf_t = [rf_grid[(a, 1)].mean_train_time for a in PAPER_ALPHAS]

    # KNN training is (almost) free: storing the data
    assert max(knn_t) < 1.0
    # RF training dominates KNN by a wide margin at every alpha
    assert all(r > 5 * k for r, k in zip(rf_t, knn_t))
    if strict:
        # RF training time grows with the window
        assert rf_t[-1] > 1.5 * rf_t[0]
        assert rf_t == sorted(rf_t) or rf_t[-1] > rf_t[0]

    # measure a single KNN "training" (the near-zero bar of the figure)
    idx = evaluator._training_indices(evaluator.test_start_day, 60)
    rows, y, row_index = evaluator.rows, evaluator.y[idx], evaluator.row_index[idx]
    benchmark(
        lambda: ClassificationModel("KNN", **knn_spec.params).training(
            rows, y, row_index=row_index
        )
    )
