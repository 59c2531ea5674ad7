"""Versioned store of trained Classification Model instances (§III-E).

Wraps :class:`repro.mlcore.persistence.ModelRegistry` with MCBound-level
metadata: algorithm name and params, the training window, and the
embedder configuration that produced the training matrix, which
:class:`repro.core.MCBound` checks against its own embedder before it
serves a reloaded model.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.classification_model import ClassificationModel
from repro.mlcore.persistence import ModelRegistry
from repro.nlp.embedder import SentenceEmbedder

__all__ = ["ModelStore"]


class ModelStore:
    """Publish/load (ClassificationModel, metadata) pairs."""

    def __init__(self, root: str | Path) -> None:
        self.registry = ModelRegistry(root)

    @property
    def latest_version(self) -> int | None:
        return self.registry.latest_version

    def publish(
        self,
        model: ClassificationModel,
        *,
        embedder: SentenceEmbedder | None = None,
        trained_at: float | None = None,
        window: tuple[float, float] | None = None,
        extra: dict | None = None,
    ) -> int:
        """Persist a trained model; returns the new version number."""
        metadata = {
            "algorithm": model.algorithm,
            "params": {k: repr(v) for k, v in sorted(model.params.items())},
        }
        if embedder is not None:
            metadata["embedder"] = embedder.config_dict()
        if trained_at is not None:
            metadata["trained_at"] = trained_at
        if window is not None:
            metadata["window"] = list(window)
        if extra:
            metadata["extra"] = extra
        return self.registry.publish(model.model, metadata=metadata)

    def load(self, version: int | None = None) -> tuple[ClassificationModel, dict]:
        """Load a version (default: latest) back into a ClassificationModel."""
        v = self.registry.latest_version if version is None else version
        if v is None:
            raise FileNotFoundError("model store is empty")
        estimator = self.registry.load(v)
        metadata = self.registry.metadata(v)
        model = ClassificationModel.__new__(ClassificationModel)
        model.algorithm = metadata.get("algorithm", type(estimator).__name__)
        model.params = {}
        model.model = estimator
        model._trained = True
        return model, metadata
