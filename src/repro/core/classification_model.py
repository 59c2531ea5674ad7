"""Classification Model component (paper §III-D).

A thin polymorphic wrapper: the object is created with the *name* of the
prediction algorithm to employ ("KNN" or "RF" in the paper; any registered
algorithm here) and exposes the paper's two methods, ``training`` and
``inference``.  ``inference`` refuses to run before ``training`` — exactly
the contract described in §III-D.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.mlcore.base import NotFittedError
from repro.mlcore.forest import RandomForestClassifier
from repro.mlcore.knn import KNeighborsClassifier
from repro.mlcore.naive_bayes import GaussianNBClassifier

__all__ = ["ClassificationModel"]


def _make_knn(**params) -> KNeighborsClassifier:
    return KNeighborsClassifier(**params)


def _make_rf(**params) -> RandomForestClassifier:
    return RandomForestClassifier(**params)


#: Registered algorithm factories.  New algorithms (neural networks,
#: heuristics, ...) plug in via :meth:`ClassificationModel.register`.
def _make_nb(**params) -> GaussianNBClassifier:
    return GaussianNBClassifier(**params)


_ALGORITHMS: dict[str, Callable] = {
    "KNN": _make_knn,
    "RF": _make_rf,
    "NB": _make_nb,
}


class ClassificationModel:
    """Data-driven prediction algorithm behind a uniform train/infer API.

    Parameters
    ----------
    algorithm:
        Registered algorithm name (case-insensitive): "KNN" or "RF" out of
        the box.
    **params:
        Forwarded to the algorithm factory (e.g. ``n_estimators=25``).
    """

    def __init__(self, algorithm: str, /, **params) -> None:
        key = algorithm.upper()
        if key not in _ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; registered: {sorted(_ALGORITHMS)}"
            )
        self.algorithm = key
        self.params = dict(params)
        self.model = _ALGORITHMS[key](**params)
        self._trained = False

    @classmethod
    def register(cls, name: str, factory: Callable) -> None:
        """Register a new algorithm factory under ``name``."""
        key = name.upper()
        if key in _ALGORITHMS:
            raise ValueError(f"algorithm {name!r} already registered")
        _ALGORITHMS[key] = factory

    @classmethod
    def registered_algorithms(cls) -> tuple[str, ...]:
        return tuple(sorted(_ALGORITHMS))

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

    def inference(self, encoded_jobs) -> np.ndarray:  # hotpath: model predict behind every /predict batch
        """Predict labels for encoded jobs; only valid after training."""
        if not self._trained:
            raise NotFittedError(
                "ClassificationModel.inference called before training"
            )
        return self.model.predict(np.asarray(encoded_jobs))

    def inference_proba(self, encoded_jobs) -> np.ndarray:
        """Class probabilities (vote shares / tree-vote averages)."""
        if not self._trained:
            raise NotFittedError(
                "ClassificationModel.inference called before training"
            )
        return self.model.predict_proba(np.asarray(encoded_jobs))

    @property
    def is_trained(self) -> bool:
        return self._trained

    # Persistence of the wrapped estimator goes through
    # :class:`repro.core.registry.ModelStore`, which saves ``self.model``
    # with :func:`repro.mlcore.persistence.save_model` plus the algorithm
    # name and params as metadata.
