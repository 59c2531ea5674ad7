"""F6 — Figure 6: F1 of KNN and RF across the (α, β) grid.

Paper reading: F1 decreases as β grows (staler models); RF gains nothing
from α > 15 at β=1; KNN peaks at α=30 and declines for larger windows.
Best settings: α=15 β=1 (RF), α=30 β=1 (KNN), both with F1 ≥ 0.89.

The benchmark measures one retraining trigger at the model's best α (the
unit of work the online algorithm repeats daily).
"""

import numpy as np

from repro.core.classification_model import ClassificationModel
from repro.evaluation.experiments import PAPER_ALPHAS, PAPER_BETAS
from repro.evaluation.reporting import format_table


def _print_grid(name, grid):
    rows = []
    for a in PAPER_ALPHAS:
        rows.append([a] + [round(grid[(a, b)].f1, 4) for b in PAPER_BETAS])
    print()
    print(format_table(
        ["alpha \\ beta"] + [str(b) for b in PAPER_BETAS],
        rows,
        title=f"Fig 6 - F1 of {name} over (alpha, beta)",
    ))


def _beta_monotone_at_ends(grid, alpha):
    return grid[(alpha, 1)].f1 >= grid[(alpha, 10)].f1


def test_fig6_knn(benchmark, evaluator, knn_grid, knn_spec, strict):
    _print_grid("KNN", knn_grid)

    best = max(knn_grid.values(), key=lambda r: r.f1)
    print(f"best: alpha={best.alpha} beta={best.beta} F1={best.f1:.4f} "
          "(paper: alpha=30 beta=1, F1=0.89)")

    # benchmark one daily retraining trigger at the best setting
    idx = evaluator._training_indices(evaluator.test_start_day, 30)
    rows, y, row_index = evaluator.rows, evaluator.y[idx], evaluator.row_index[idx]
    benchmark(
        lambda: ClassificationModel("KNN", **knn_spec.params).training(
            rows, y, row_index=row_index
        )
    )

    if strict:
        # quality level of the paper's headline
        assert best.f1 >= 0.86
        # fresher models win: beta=1 beats beta=10 at every alpha
        for a in PAPER_ALPHAS:
            assert _beta_monotone_at_ends(knn_grid, a)
        # KNN's optimum window is 30 days; larger windows do not help at beta=1
        f1_b1 = {a: knn_grid[(a, 1)].f1 for a in PAPER_ALPHAS}
        assert f1_b1[30] >= f1_b1[45]
        assert f1_b1[30] >= f1_b1[15]
        assert max(f1_b1[15], f1_b1[30]) >= max(f1_b1[45], f1_b1[60]) - 0.005


def test_fig6_rf(benchmark, evaluator, rf_grid, rf_spec, strict):
    _print_grid("RF", rf_grid)

    best = max(rf_grid.values(), key=lambda r: r.f1)
    print(f"best: alpha={best.alpha} beta={best.beta} F1={best.f1:.4f} "
          "(paper: alpha=15 beta=1, F1=0.90)")

    idx = evaluator._training_indices(evaluator.test_start_day, 15)
    rows, y, row_index = evaluator.rows, evaluator.y[idx], evaluator.row_index[idx]
    benchmark.pedantic(
        lambda: ClassificationModel("RF", **rf_spec.params).training(
            rows, y, row_index=row_index
        ),
        rounds=1, iterations=1,
    )

    if strict:
        assert best.f1 >= 0.87
        for a in PAPER_ALPHAS:
            assert _beta_monotone_at_ends(rf_grid, a)
        # no gains beyond alpha=15 at beta=1
        f1_b1 = {a: rf_grid[(a, 1)].f1 for a in PAPER_ALPHAS}
        assert f1_b1[15] >= max(f1_b1.values()) - 0.003
        # RF at its best matches or beats KNN (paper: 0.90 vs 0.89)
