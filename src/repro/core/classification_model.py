"""Classification Model component (paper §III-D).

A thin polymorphic wrapper: the object is created with the *name* of the
prediction algorithm to employ ("KNN" or "RF", the two the paper
evaluates) and exposes the paper's two methods, ``training`` and
``inference``.  ``inference`` refuses to run before ``training`` — exactly
the contract described in §III-D.
"""

from __future__ import annotations

import numpy as np

from repro.mlcore.base import NotFittedError
from repro.mlcore.forest import RandomForestClassifier
from repro.mlcore.knn import KNeighborsClassifier

__all__ = ["ClassificationModel"]


#: Algorithm name -> estimator class.
_ALGORITHMS = {
    "KNN": KNeighborsClassifier,
    "RF": RandomForestClassifier,
}


class ClassificationModel:
    """Data-driven prediction algorithm behind a uniform train/infer API.

    Parameters
    ----------
    algorithm:
        Algorithm name (case-insensitive): "KNN" or "RF".
    **params:
        Forwarded to the estimator's constructor (e.g. ``n_estimators=25``).
    """

    def __init__(self, algorithm: str, /, **params) -> None:
        key = algorithm.upper()
        if key not in _ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; known: {sorted(_ALGORITHMS)}"
            )
        self.algorithm = key
        self.params = dict(params)
        self.model = _ALGORITHMS[key](**params)
        self._trained = False

    # -- the paper's two methods --------------------------------------------------

    def training(self, encoded_jobs, labels, *, row_index=None) -> "ClassificationModel":
        """Train on encoded job data and memory/compute-bound labels.

        With ``row_index``, ``encoded_jobs`` holds distinct encodings and
        job ``i`` is ``encoded_jobs[row_index[i]]``, as
        :meth:`repro.core.MCBound.train` and the online evaluator pass
        them.  An estimator with ``fit_rows`` (KNN) fits on that pair
        directly; any other is fitted on the expanded rows.
        """
        X = np.asarray(encoded_jobs)
        y = np.asarray(labels)
        if row_index is None:
            self.model.fit(X, y)
        elif hasattr(self.model, "fit_rows"):
            self.model.fit_rows(X, row_index, y)
        else:
            self.model.fit(X[row_index], y)
        self._trained = True
        return self

    def inference(self, encoded_jobs) -> np.ndarray:
        """Predict labels for encoded jobs; only valid after training."""
        if not self._trained:
            raise NotFittedError(
                "ClassificationModel.inference called before training"
            )
        return self.model.predict(np.asarray(encoded_jobs))

    @property
    def is_trained(self) -> bool:
        return self._trained

    # Persistence of the wrapped estimator goes through
    # :class:`repro.core.registry.ModelStore`, which saves ``self.model``
    # with :func:`repro.mlcore.persistence.save_model` plus the algorithm
    # name and params as metadata.
