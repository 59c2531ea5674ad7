"""Experiment harness for the paper's §V evaluation.

- :mod:`repro.evaluation.online` — the one day-by-day online loop, over
  labels and encodings from one pass of the ``MCBound`` batch path: a
  retrain policy (every β days or drift-adaptive) and a model
  factory (classifier or lookup baseline) predict each day's submissions;
  macro-F1 is scored over the whole test period.
- :mod:`repro.evaluation.experiments` — the three experiments of §V-B/C:
  the α×β sweep (Fig. 6 + Figs. 7-8 timings), the α+ growing-window
  comparison, and the θ subsampling study (Figs. 9-10), plus the lookup
  baseline comparison.
- :mod:`repro.evaluation.drift` — adaptive retraining.
- :mod:`repro.evaluation.timing` — wall-clock measurement helpers.
- :mod:`repro.evaluation.reporting` — text tables, ASCII series plots and
  CSV dumps for the benchmark harness.
"""

from repro.evaluation.online import OnlineEvaluator, OnlineRunResult
from repro.evaluation.experiments import (
    ModelSpec,
    PAPER_THETA_SEEDS,
    sweep_alpha_beta,
    alpha_plus_experiment,
    sweep_theta,
    baseline_comparison,
)
from repro.evaluation.drift import (
    AdaptiveRetrainingPolicy,
    EmbeddingDriftDetector,
    population_stability_index,
)
from repro.evaluation.timing import Timer, time_call
from repro.evaluation.reporting import format_table, ascii_series, ascii_heatmap, results_to_csv

__all__ = [
    "OnlineEvaluator",
    "OnlineRunResult",
    "ModelSpec",
    "PAPER_THETA_SEEDS",
    "sweep_alpha_beta",
    "alpha_plus_experiment",
    "sweep_theta",
    "baseline_comparison",
    "AdaptiveRetrainingPolicy",
    "EmbeddingDriftDetector",
    "population_stability_index",
    "Timer",
    "time_call",
    "format_table",
    "ascii_series",
    "ascii_heatmap",
    "results_to_csv",
]
