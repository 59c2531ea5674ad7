"""§IV workload analysis: the characterization figures, Table II and the
§V-C.d system-impact estimate."""

from repro.analysis.distributions import (
    jobs_per_day,
    class_share_per_day,
    detect_maintenance_gap,
)
from repro.analysis.roofline_plots import (
    fig3_scatter_summary,
    fig5_frequency_split,
    frequency_position_association,
)
from repro.analysis.tables import table2_distribution, Table2
from repro.analysis.impact import ImpactEstimate, estimate_impact

__all__ = [
    "jobs_per_day",
    "class_share_per_day",
    "detect_maintenance_gap",
    "fig3_scatter_summary",
    "fig5_frequency_split",
    "frequency_position_association",
    "table2_distribution",
    "Table2",
    "ImpactEstimate",
    "estimate_impact",
]
