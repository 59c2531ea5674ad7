"""Roofline model library (Williams et al., CACM 2009).

Provides the node-level Roofline used by the paper's Job Characterizer
(:mod:`repro.roofline.model`, :mod:`repro.roofline.characterize`) and
log-binned 2-D summaries of job scatter used to regenerate Figures 3 and 5
(:mod:`repro.roofline.binning`).
"""

from repro.roofline.model import Roofline
from repro.roofline.characterize import (
    MEMORY_BOUND,
    COMPUTE_BOUND,
    job_performance,
    job_memory_bandwidth,
    job_operational_intensity,
    characterize_jobs,
)
from repro.roofline.binning import log_bin_2d, RooflineScatterSummary

__all__ = [
    "Roofline",
    "MEMORY_BOUND",
    "COMPUTE_BOUND",
    "job_performance",
    "job_memory_bandwidth",
    "job_operational_intensity",
    "characterize_jobs",
    "log_bin_2d",
    "RooflineScatterSummary",
]
