"""X2 — §V-C.b: sliding α window vs the growing α+ window.

Paper: with the best α and β=1, never forgetting old data does not help —
RF's F1 stays at 0.90 while KNN's drops from 0.89 to 0.86 (old jobs
pollute the nearest-neighbour votes) — and the growing window inflates RF
training time (26 s → >200 s) and KNN inference time.  A sliding window
is better on both accuracy and overhead.
"""

from repro.core.classification_model import ClassificationModel
from repro.evaluation.reporting import format_table


def test_alpha_plus(benchmark, evaluator, alpha_plus_runs, knn_grid, rf_grid, knn_spec, strict):
    knn_sliding = knn_grid[(30, 1)]
    rf_sliding = rf_grid[(15, 1)]
    knn_plus = alpha_plus_runs[("KNN", "plus")]
    rf_plus = alpha_plus_runs[("RF", "plus")]

    print()
    print(format_table(
        ["model", "sliding F1", "alpha+ F1", "sliding train", "alpha+ train"],
        [
            ["KNN (alpha=30)", round(knn_sliding.f1, 4), round(knn_plus.f1, 4),
             f"{knn_sliding.mean_train_time * 1e3:.1f} ms",
             f"{knn_plus.mean_train_time * 1e3:.1f} ms"],
            ["RF (alpha=15)", round(rf_sliding.f1, 4), round(rf_plus.f1, 4),
             f"{rf_sliding.mean_train_time:.2f} s",
             f"{rf_plus.mean_train_time:.2f} s"],
        ],
        title="alpha+ growing window vs sliding window (paper: KNN 0.89->0.86, RF 0.90->0.90)",
    ))

    # the growing window trains on strictly more data
    assert max(rf_plus.train_sizes) > max(rf_sliding.train_sizes)

    if strict:
        # RF: no accuracy change; KNN: the growing window does not help
        assert abs(rf_plus.f1 - rf_sliding.f1) < 0.02
        assert knn_plus.f1 <= knn_sliding.f1 + 0.005
        # overhead: the growing window costs more RF training time
        assert rf_plus.mean_train_time > rf_sliding.mean_train_time

    # benchmark one KNN retraining on the full grown window
    idx = evaluator._training_indices(evaluator.test_end_day - 1, ("plus", 30))
    rows, y, row_index = evaluator.rows, evaluator.y[idx], evaluator.row_index[idx]
    benchmark(
        lambda: ClassificationModel("KNN", **knn_spec.params).training(
            rows, y, row_index=row_index
        )
    )
