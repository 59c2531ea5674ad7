"""Pre-execution prediction of continuous job features (§VI future work).

The paper plans to "predict other job features (such as duration, power
consumption or failure) with the KNN predictive model", reusing the same
similar-jobs search regardless of target.  This module implements that
extension on top of the existing pipeline: the encoder produces the same
384-d submission embedding; a :class:`repro.mlcore.knn.KNeighborsRegressor`
maps it to any numeric column of the jobs data storage.

Targets with heavy-tailed distributions (duration, power) are modelled in
log space by default, which is the standard trick for runtimes.
"""

from __future__ import annotations

import numpy as np

from repro.core.data_fetcher import DataFetcher
from repro.core.feature_encoder import FeatureEncoder
from repro.mlcore.base import NotFittedError
from repro.mlcore.knn import KNeighborsRegressor

__all__ = ["JobFeaturePredictor"]

#: Numeric job columns the predictor may target.
SUPPORTED_TARGETS = ("duration", "power_avg_w", "nodes_alloc")


class JobFeaturePredictor:
    """Predict a numeric job feature at submission time.

    Parameters
    ----------
    target:
        Column of the jobs data storage to predict (e.g. ``"duration"``).
    encoder:
        The feature encoder shared with (or configured like) the MCBound
        instance; a default one is built if omitted.
    n_neighbors / weights:
        Forwarded to the KNN regressor.
    log_target:
        Fit/predict in log1p space (recommended for duration and power).
    """

    def __init__(
        self,
        target: str = "duration",
        *,
        encoder: FeatureEncoder | None = None,
        n_neighbors: int = 5,
        weights: str = "distance",
        log_target: bool = True,
    ) -> None:
        if target not in SUPPORTED_TARGETS:
            raise ValueError(
                f"unsupported target {target!r}; choose from {SUPPORTED_TARGETS}"
            )
        self.target = target
        self.encoder = encoder or FeatureEncoder()
        self.log_target = bool(log_target)
        self.model = KNeighborsRegressor(n_neighbors, weights=weights)
        self._trained = False

    # -- training -----------------------------------------------------------------

    def training(self, records: list[dict]) -> "JobFeaturePredictor":
        """Train on completed jobs (records carrying the target column)."""
        if not records:
            raise ValueError("cannot train on an empty record set")
        y = np.array([float(r[self.target]) for r in records])
        if np.any(y < 0):
            raise ValueError(f"target {self.target!r} has negative values")
        X = self.encoder.encode(records)
        self.model.fit(X, np.log1p(y) if self.log_target else y)
        self._trained = True
        return self

    def train_window(self, fetcher: DataFetcher, start_time: float, end_time: float):
        """Convenience: fetch a window from the storage and train on it."""
        records = fetcher.fetch(start_time=start_time, end_time=end_time)
        return self.training(records)

    # -- inference ------------------------------------------------------------------

    def inference(self, records: list[dict]) -> np.ndarray:
        """Predict the target for new (not yet executed) jobs."""
        if not self._trained:
            raise NotFittedError("JobFeaturePredictor.inference before training")
        if not records:
            return np.empty(0)
        X = self.encoder.encode(records)
        pred = self.model.predict(X)
        return np.expm1(pred) if self.log_target else pred

    @property
    def is_trained(self) -> bool:
        return self._trained

    # -- evaluation helpers -----------------------------------------------------------

    @staticmethod
    def mape(y_true, y_pred) -> float:
        """Mean absolute percentage error (guarded against zero targets)."""
        y_true = np.asarray(y_true, dtype=np.float64)
        y_pred = np.asarray(y_pred, dtype=np.float64)
        if y_true.shape != y_pred.shape:
            raise ValueError("shape mismatch")
        denom = np.maximum(np.abs(y_true), 1e-9)
        return float(np.mean(np.abs(y_true - y_pred) / denom))

    @staticmethod
    def median_relative_error(y_true, y_pred) -> float:
        """Median of |err| / true — robust to the heavy runtime tail."""
        y_true = np.asarray(y_true, dtype=np.float64)
        y_pred = np.asarray(y_pred, dtype=np.float64)
        denom = np.maximum(np.abs(y_true), 1e-9)
        return float(np.median(np.abs(y_true - y_pred) / denom))
