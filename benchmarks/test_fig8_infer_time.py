"""F8 — Figure 8: average per-job inference time vs α (β=1).

Paper reading: RF inference is constant in α and dominated by the
encoding cost; KNN inference grows (mildly) with the training-set size.
Both stay in the milliseconds — negligible against the ~3 min average
scheduling wait.
"""

from repro.evaluation.experiments import PAPER_ALPHAS
from repro.evaluation.reporting import format_table


def test_fig8_inference_time(benchmark, evaluator, knn_grid, rf_grid, knn_spec, strict):
    rows = []
    for a in PAPER_ALPHAS:
        rows.append([
            a,
            f"{knn_grid[(a, 1)].mean_inference_time_per_job * 1e6:.1f} us",
            f"{rf_grid[(a, 1)].mean_inference_time_per_job * 1e6:.1f} us",
        ])
    print()
    print(format_table(
        ["alpha", "KNN infer/job", "RF infer/job"],
        rows,
        title="Fig 8 - average per-job inference time incl. encoding (beta=1)",
    ))
    print(f"encoding cost alone: {evaluator.encode_time_per_job * 1e6:.1f} us/job "
          "(paper: ~2 ms/job with SBERT)")

    knn_t = [knn_grid[(a, 1)].mean_inference_time_per_job for a in PAPER_ALPHAS]
    rf_t = [rf_grid[(a, 1)].mean_inference_time_per_job for a in PAPER_ALPHAS]

    # milliseconds at most: negligible against the ~3 min scheduling wait
    assert max(knn_t + rf_t) < 0.05

    if strict:
        # KNN inference grows with the window, RF stays roughly flat
        assert knn_t[-1] > 1.5 * knn_t[0]
        assert max(rf_t) < 5 * min(rf_t)
        # KNN pays more per prediction than RF (it scans the training set)
        assert knn_t[1] > rf_t[1]

    # measure one day of inference with the trained KNN at alpha=30
    from repro.core.classification_model import ClassificationModel

    idx = evaluator._training_indices(evaluator.test_start_day, 30)
    model = ClassificationModel("KNN", **knn_spec.params)
    model.training(evaluator.rows, evaluator.y[idx], row_index=evaluator.row_index[idx])
    day_idx = evaluator._day_indices[evaluator.test_start_day]
    X_day = evaluator.rows[evaluator.row_index[day_idx]]
    benchmark(model.inference, X_day)
