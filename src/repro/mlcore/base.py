"""Shared estimator plumbing: validation, rng handling, fitted-state checks."""

from __future__ import annotations

import numpy as np

__all__ = [
    "NotFittedError",
    "check_random_state",
    "check_array",
    "check_X_y",
    "check_is_fitted",
    "encode_labels",
]


class NotFittedError(RuntimeError):
    """Raised when predict/transform is called before fit."""


def check_random_state(seed) -> np.random.Generator:
    """Coerce ``None | int | Generator`` into a :class:`numpy.random.Generator`."""
    if seed is None:
        # sklearn-compatible escape hatch: random_state=None explicitly asks
        # for OS entropy; every repro pipeline passes a concrete seed.
        return np.random.default_rng()  # staticcheck: ignore[unseeded-rng] - None means caller opted out of replayability
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise TypeError(f"cannot seed an rng from {type(seed).__name__}")


def check_array(X, *, dtype=np.float64, name: str = "X") -> np.ndarray:
    """Validate a 2-D finite numeric array."""
    X = np.asarray(X, dtype=dtype)
    if X.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {X.shape}")
    if X.shape[0] == 0:
        raise ValueError(f"{name} has no samples")
    if not np.all(np.isfinite(X)):
        raise ValueError(f"{name} contains NaN or infinity")
    return X


def check_X_y(X, y, *, dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    """Validate a feature matrix / label vector pair."""
    X = check_array(X, dtype=dtype)
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"y must be 1-D, got shape {y.shape}")
    if y.shape[0] != X.shape[0]:
        raise ValueError(f"X has {X.shape[0]} samples but y has {y.shape[0]}")
    return X, y


def check_is_fitted(estimator, attribute: str) -> None:
    """Raise :class:`NotFittedError` unless the estimator carries ``attribute``."""
    if getattr(estimator, attribute, None) is None:
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted yet; call fit() first"
        )


def encode_labels(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map arbitrary labels to contiguous ints.

    Returns ``(classes, y_encoded)`` where ``classes[y_encoded] == y``.
    """
    classes, y_enc = np.unique(y, return_inverse=True)
    if classes.shape[0] < 2:
        raise ValueError("need at least two classes to train a classifier")
    return classes, y_enc.astype(np.int64)
