"""Framework configuration.

The paper stresses that MCBound "can be seamlessly configured and deployed
in other HPC systems": the machine ceilings, feature set, embedding model
and classification algorithm are all configuration, not code.  This module
is that configuration surface, and the one source of the machine model:
a node's peak performance and memory bandwidth (§III-C).  The other
system-specific part, the counter mapping of Eqs. 4-5, is the
``counter_transform`` of :class:`repro.core.JobCharacterizer`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from repro.fugaku.system import FUGAKU

__all__ = ["DEFAULT_FEATURE_SET", "MCBoundConfig"]

#: Submission features fed to the encoder (§V-A): the feature set of
#: Antici et al. [4] — user name, job name, #cores requested, #nodes
#: requested, environment — plus the frequency requested, which the paper
#: found to improve prediction.
DEFAULT_FEATURE_SET: tuple[str, ...] = (
    "user_name",
    "job_name",
    "cores_req",
    "nodes_req",
    "environment",
    "freq_req_ghz",
)


@dataclass(frozen=True)
class MCBoundConfig:
    """Everything needed to instantiate the framework for one system.

    Attributes
    ----------
    peak_gflops_node / peak_membw_gbs:
        Node-level Roofline ceilings (defaults: Fugaku boost mode).
    feature_set:
        Submission features the encoder concatenates.
    embedding_dim:
        Sentence embedding width (384 matches the paper's SBERT model).
    algorithm:
        Classification algorithm name ("RF" or "KNN").
    model_params:
        Keyword arguments forwarded to the algorithm's constructor.
    alpha_days / beta_days:
        Online schedule: retrain on the last α days, once every β days.
        Paper's best: α=15 β=1 for RF, α=30 β=1 for KNN.
    embedder_seed:
        Seed of the hashed embedding projection.
    predict_memo:
        Capacity of the serve-path prediction memo (submission string →
        label); 0 disables it.  Users submit batches of identical jobs
        (§V-C.c), so repeats skip the encoder and the forest entirely.
    train_reservoir:
        Bound on training rows held in memory at once: windows larger
        than this are uniformly reservoir-sampled while streaming.
    """

    peak_gflops_node: float = FUGAKU.peak_gflops_node
    peak_membw_gbs: float = FUGAKU.peak_membw_gbs
    feature_set: tuple[str, ...] = DEFAULT_FEATURE_SET
    embedding_dim: int = 384
    algorithm: str = "RF"
    model_params: dict = field(default_factory=dict)
    alpha_days: float = 15.0
    beta_days: float = 1.0
    embedder_seed: int = 17
    predict_memo: int = 4096
    train_reservoir: int = 50_000

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.peak_gflops_node <= 0 or self.peak_membw_gbs <= 0:
            raise ValueError("machine ceilings must be positive")
        if not self.feature_set:
            raise ValueError("feature_set must not be empty")
        if self.alpha_days <= 0:
            raise ValueError("alpha_days must be positive")
        if not math.isfinite(self.alpha_days * 86_400.0):
            raise ValueError("alpha_days must leave a finite window length in seconds")
        if self.beta_days <= 0:
            raise ValueError("beta_days must be positive")
        if self.predict_memo < 0:
            raise ValueError("predict_memo must be non-negative")
        if self.train_reservoir <= 0:
            raise ValueError("train_reservoir must be positive")

    def to_dict(self) -> dict:
        """JSON-friendly dump (used by the /config endpoint and ModelStore)."""
        return {
            "peak_gflops_node": self.peak_gflops_node,
            "peak_membw_gbs": self.peak_membw_gbs,
            "feature_set": list(self.feature_set),
            "embedding_dim": self.embedding_dim,
            "algorithm": self.algorithm,
            "model_params": dict(self.model_params),
            "alpha_days": self.alpha_days,
            "beta_days": self.beta_days,
            "embedder_seed": self.embedder_seed,
            "predict_memo": self.predict_memo,
            "train_reservoir": self.train_reservoir,
        }
