"""Repository-wide experiment scaling knobs.

The paper's trace has 2.2 M jobs and its evaluation ran for ~500 minutes
on a 64-core machine; this reproduction runs the same experiments on a
down-scaled synthetic trace so the full benchmark suite finishes on a
laptop-class single core.  ``REPRO_BENCH_SCALE`` (a float, fraction of the
paper's job volume) and ``REPRO_BENCH_SEED`` override the defaults from
the environment; EXPERIMENTS.md records the scale every number was
produced at.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = ["BenchSettings", "bench_settings"]


@dataclass(frozen=True)
class BenchSettings:
    """Scale and model sizes used by the benchmark harness."""

    scale: float
    seed: int
    #: forest size for the online-evaluation sweeps (the paper uses the
    #: sklearn default of 100 on a 64-core box; 25 hist-splitter trees give
    #: indistinguishable macro-F1 at our scale in a single-core budget)
    rf_n_estimators: int = 25
    rf_max_depth: int = 16
    rf_splitter: str = "hist"
    knn_k: int = 5

    @property
    def rf_params(self) -> dict:
        return {
            "n_estimators": self.rf_n_estimators,
            "max_depth": self.rf_max_depth,
            "splitter": self.rf_splitter,
            "random_state": self.seed,
        }

    @property
    def knn_params(self) -> dict:
        return {"n_neighbors": self.knn_k}

    def scaled_theta(self, theta_paper: float) -> int:
        """Map a paper θ (data-point cap) to this scale, min 10."""
        return max(10, int(round(theta_paper * self.scale)))


def bench_settings() -> BenchSettings:
    """Benchmark settings, honouring the environment overrides."""
    scale = float(os.environ.get("REPRO_BENCH_SCALE", 1.0 / 60.0))
    seed = int(os.environ.get("REPRO_BENCH_SEED", 2024))
    if not 0 < scale <= 1:
        raise ValueError("REPRO_BENCH_SCALE must be in (0, 1]")
    return BenchSettings(scale=scale, seed=seed)
