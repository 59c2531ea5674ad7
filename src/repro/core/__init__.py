"""The MCBound framework — the paper's primary contribution (§III).

Components mirror Figure 1 of the paper:

- :class:`repro.core.DataFetcher` — queries the jobs data storage by job id
  or time window (§III-A).
- :class:`repro.core.FeatureEncoder` — turns submission features into a
  fixed-width float vector via the sentence embedder (§III-B).
- :class:`repro.core.JobCharacterizer` — Roofline labelling from execution
  metrics (§III-C, Equations 1-3).
- :class:`repro.core.ClassificationModel` — pluggable prediction algorithm
  ("RF" / "KNN" / custom) with ``training`` and ``inference`` methods
  (§III-D).
- :class:`repro.core.MCBound` — the facade wiring the four components with
  caching of characterizations and encodings (§V-A).
- :class:`repro.core.TrainingWorkflow` / :class:`repro.core.InferenceWorkflow`
  — the two CI/CD workflows of Figure 1 (§III-E).
- :func:`repro.core.build_app` — the HTTP backend (§III-E).
"""

from repro.core.config import MCBoundConfig, DEFAULT_FEATURE_SET
from repro.core.data_fetcher import DataFetcher, load_trace_into_db, JOBS_TABLE_SQL
from repro.core.feature_encoder import FeatureEncoder
from repro.core.job_characterizer import JobCharacterizer, FugakuCounterTransform
from repro.core.classification_model import ClassificationModel
from repro.core.framework import MCBound
from repro.core.workflows import TrainingWorkflow, InferenceWorkflow, WorkflowResult
from repro.core.registry import ModelStore
from repro.core.server import build_app

__all__ = [
    "MCBoundConfig",
    "DEFAULT_FEATURE_SET",
    "DataFetcher",
    "load_trace_into_db",
    "JOBS_TABLE_SQL",
    "FeatureEncoder",
    "JobCharacterizer",
    "FugakuCounterTransform",
    "ClassificationModel",
    "MCBound",
    "TrainingWorkflow",
    "InferenceWorkflow",
    "WorkflowResult",
    "ModelStore",
    "build_app",
]
