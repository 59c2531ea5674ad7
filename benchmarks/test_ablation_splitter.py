"""Ablation — exact vs histogram tree splitter.

The reproduction adds a quantized-histogram splitter for the heavy
retraining loads; this ablation verifies it is a faithful substitute:
comparable F1 on the real encoded workload at (much) lower or equal cost.
"""

from repro.core.classification_model import ClassificationModel
from repro.evaluation.reporting import format_table
from repro.evaluation.timing import time_call
from repro.mlcore.metrics import f1_macro


def _fit_score(evaluator, splitter, n_estimators=15):
    idx = evaluator._training_indices(evaluator.test_start_day, 15)
    day = evaluator._day_indices[evaluator.test_start_day]
    model = ClassificationModel(
        "RF", n_estimators=n_estimators, max_depth=14,
        splitter=splitter, random_state=0,
    )
    _, fit_s = time_call(
        model.training, evaluator.rows, evaluator.y[idx], row_index=evaluator.row_index[idx]
    )
    pred = model.inference(evaluator.rows[evaluator.row_index[day]])
    return f1_macro(evaluator.y[day], pred), fit_s


def test_ablation_splitter(benchmark, evaluator):
    f1_exact, t_exact = _fit_score(evaluator, "exact")
    f1_hist, t_hist = _fit_score(evaluator, "hist")

    print()
    print(format_table(
        ["splitter", "day-1 F1", "fit time"],
        [["exact", round(f1_exact, 4), f"{t_exact:.2f} s"],
         ["hist", round(f1_hist, 4), f"{t_hist:.2f} s"]],
        title="Ablation: RF split finder (alpha=15 window)",
    ))

    # the histogram splitter must not lose meaningful accuracy
    assert abs(f1_exact - f1_hist) < 0.05
    assert f1_hist > 0.7

    # benchmark the hist fit (the configuration the sweeps use)
    idx = evaluator._training_indices(evaluator.test_start_day, 15)
    rows, y, row_index = evaluator.rows, evaluator.y[idx], evaluator.row_index[idx]
    benchmark.pedantic(
        lambda: ClassificationModel(
            "RF", n_estimators=15, max_depth=14, splitter="hist", random_state=0
        ).training(rows, y, row_index=row_index),
        rounds=1, iterations=1,
    )
