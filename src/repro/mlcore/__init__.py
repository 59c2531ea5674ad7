"""From-scratch ML substrate (scikit-learn substitute).

The paper's Classification Model relies on scikit-learn's default Random
Forest and k-Nearest Neighbors.  This package implements those algorithms
(and the metric and persistence machinery around them) on plain numpy,
with vectorized hot paths:

- :mod:`repro.mlcore.tree` — CART decision trees with an exact sort-based
  splitter; :mod:`repro.mlcore.histogram` adds a quantized 256-bin splitter.
- :mod:`repro.mlcore.forest` — bagged random forest with per-node feature
  subsampling and out-of-bag scoring (Breiman 2001).
- :mod:`repro.mlcore.knn` — exact Euclidean k-NN: chunked brute force
  over the distinct training rows.
- :mod:`repro.mlcore.metrics` — confusion matrix, precision/recall/F1 and
  the F1-macro average the paper reports.
- :mod:`repro.mlcore.persistence` — pickle-free model serialization and a
  versioned on-disk registry (the role skops.io plays in the paper).
- :mod:`repro.mlcore.baseline` — the (job name, #cores) lookup baseline of
  §V-C.a.
"""

from repro.mlcore.base import NotFittedError, check_is_fitted, check_random_state
from repro.mlcore.tree import DecisionTreeClassifier
from repro.mlcore.forest import RandomForestClassifier
from repro.mlcore.knn import KNeighborsClassifier
from repro.mlcore.baseline import LookupTableBaseline
from repro.mlcore.metrics import (
    accuracy_score,
    confusion_matrix,
    precision_recall_f1,
    f1_score,
    f1_macro,
    classification_report,
)
from repro.mlcore.persistence import save_model, load_model, ModelRegistry

__all__ = [
    "NotFittedError",
    "check_is_fitted",
    "check_random_state",
    "DecisionTreeClassifier",
    "RandomForestClassifier",
    "KNeighborsClassifier",
    "LookupTableBaseline",
    "accuracy_score",
    "confusion_matrix",
    "precision_recall_f1",
    "f1_score",
    "f1_macro",
    "classification_report",
    "save_model",
    "load_model",
    "ModelRegistry",
]
