"""Ablation — brute-force vs KD-tree k-NN backends.

In the 384-dimensional embedding space brute force with BLAS is the right
choice (the curse of dimensionality empties KD-tree pruning); in low
dimension the KD-tree wins.  This ablation documents both regimes and
checks the two backends agree exactly.
"""

import numpy as np

from repro.evaluation.reporting import format_table
from repro.evaluation.timing import time_call
from repro.mlcore.knn import KNeighborsClassifier


def test_ablation_knn_backend(benchmark, evaluator):
    idx = evaluator._training_indices(evaluator.test_start_day, 15)
    day = evaluator._day_indices[evaluator.test_start_day]
    X, y = evaluator.rows[evaluator.row_index[idx]], evaluator.y[idx]
    Q = evaluator.rows[evaluator.row_index[day][:128]]

    # full 384-d embeddings: brute force is the practical backend
    brute = KNeighborsClassifier(5, algorithm="brute").fit(X, y)
    _, t_brute = time_call(brute.predict, Q)

    # low-dimensional regime: first 8 embedding dims
    Xl, Ql = X[:, :8].astype(np.float64), Q[:, :8].astype(np.float64)
    brute_low = KNeighborsClassifier(5, algorithm="brute").fit(Xl, y)
    tree_low = KNeighborsClassifier(5, algorithm="kd_tree").fit(Xl, y)
    pb, t_brute_low = time_call(brute_low.predict, Ql)
    pt, t_tree_low = time_call(tree_low.predict, Ql)

    print()
    print(format_table(
        ["backend", "dim", "predict 128 queries"],
        [
            ["brute (BLAS)", 384, f"{t_brute * 1e3:.1f} ms"],
            ["brute (BLAS)", 8, f"{t_brute_low * 1e3:.1f} ms"],
            ["kd_tree", 8, f"{t_tree_low * 1e3:.1f} ms"],
        ],
        title="Ablation: k-NN backend",
    ))

    # exactness: identical neighbour DISTANCES in the shared regime.
    # (Predicted labels may differ: embeddings of identical feature strings
    # are exact duplicates, so neighbour sets at tied distances are not
    # unique and the two backends may break ties differently.)
    db_low, _ = brute_low.kneighbors(Ql)
    dt_low, _ = tree_low.kneighbors(Ql)
    assert np.allclose(db_low, dt_low, atol=1e-9)

    # 'auto' picks sensibly
    assert KNeighborsClassifier(5, algorithm="auto").fit(X, y)._backend == "brute"
    assert KNeighborsClassifier(5, algorithm="auto").fit(Xl, y)._backend == "kd_tree"

    benchmark(brute.predict, Q)
