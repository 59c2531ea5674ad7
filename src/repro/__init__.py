"""repro — a full reproduction of *MCBound: An Online Framework to
Characterize and Classify Memory/Compute-bound HPC Jobs* (SC 2024).

Layers (see README.md and DESIGN.md):

- :mod:`repro.core` — the MCBound framework (Data Fetcher, Feature
  Encoder, Job Characterizer, Classification Model, workflows, HTTP app).
- :mod:`repro.fugaku` — the Fugaku machine model and the calibrated
  synthetic workload standing in for the F-DATA trace.
- :mod:`repro.roofline` — the Roofline model library.
- :mod:`repro.mlcore` — from-scratch RF / KNN / metrics / persistence.
- :mod:`repro.nlp` — the deterministic sentence-embedding substitute.
- :mod:`repro.storage` — the relational jobs data storage.
- :mod:`repro.web` — the micro web framework behind the deployment.
- :mod:`repro.parallel` — chunking and the ordered parallel-map executor.
- :mod:`repro.evaluation` — the §V online-evaluation experiment harness.
- :mod:`repro.analysis` — the §IV characterization analyses and the
  §V-C.d impact estimator.
"""

from repro._version import __version__
from repro.config import BenchSettings, bench_settings

__all__ = ["__version__", "BenchSettings", "bench_settings"]
