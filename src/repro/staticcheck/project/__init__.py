"""Whole-program analysis layer: graphs, summaries and project rules.

Importing this package registers every built-in project rule, mirroring
how :mod:`repro.staticcheck.rules` registers the single-file rules.  The
layer is summary-driven: each module contributes a
:class:`~repro.staticcheck.project.summary.ModuleSummary`, and the rules
reason over the assembled
:class:`~repro.staticcheck.project.graph.ProjectContext` — import graph,
approximate call graph, and every summary at once.
"""

from repro.staticcheck.project.contracts import ContractDriftRule
from repro.staticcheck.project.cycles import ImportCycleRule
from repro.staticcheck.project.dead_exports import DeadExportRule
from repro.staticcheck.project.graph import CallGraph, ImportGraph, ProjectContext
from repro.staticcheck.project.summary import ModuleSummary, build_summary, module_name_for_path
from repro.staticcheck.project.taint import TaintedPersistenceRule

__all__ = [
    "CallGraph",
    "ContractDriftRule",
    "DeadExportRule",
    "ImportCycleRule",
    "ImportGraph",
    "ModuleSummary",
    "ProjectContext",
    "TaintedPersistenceRule",
    "build_summary",
    "module_name_for_path",
]
