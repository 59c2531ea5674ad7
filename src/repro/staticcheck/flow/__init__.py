"""Flow-sensitive tier: CFG construction, fixpoint engine, resource rules.

The flow-insensitive layers (single-file AST visitors, whole-program
summaries) cannot see *order*: a socket acquired and then leaked on an
exception path, or a file closed on one path and again on another.  This
package adds the missing tier:

* :mod:`repro.staticcheck.flow.cfg` — a control-flow-graph builder over
  function ASTs (branches, loops, ``try/except/finally``, ``with``,
  ``return/raise/break/continue`` edges);
* :mod:`repro.staticcheck.flow.fixpoint` — a generic forward-dataflow
  fixpoint engine (lattice join, worklist iteration, per-element
  transfer functions) that any rule can instantiate;
* :mod:`repro.staticcheck.flow.resources` — the ``resource-leak`` /
  ``double-release`` rules: a must-release path analysis for executor
  pools, files, sockets, connections and bare lock acquisitions.

Both rules are ordinary single-file rules that read only the file they
check, so they run under the incremental cache.

Work counters: :data:`COUNTERS` accumulates CFG/fixpoint effort for the
CLI's ``--statistics`` (snapshot-and-diff around each file analysis).
"""

from __future__ import annotations

from repro.staticcheck.flow.cfg import CFG, Block, FunctionGraph, build_cfgs
from repro.staticcheck.flow.fixpoint import ForwardAnalysis, FlowResult, run_forward

__all__ = [
    "CFG",
    "Block",
    "COUNTERS",
    "ForwardAnalysis",
    "FlowResult",
    "FunctionGraph",
    "build_cfgs",
    "cfgs_for",
    "run_forward",
    "snapshot_counters",
]

#: Process-wide effort counters, surfaced by ``--statistics``.
COUNTERS = {"cfgs": 0, "blocks": 0, "iterations": 0}


def snapshot_counters() -> dict:
    """Copy of the current counter values (diff against a later snapshot)."""
    return dict(COUNTERS)


def cfgs_for(module) -> list[FunctionGraph]:
    """CFGs for every function in ``module``, built once per ModuleContext.

    Both flow rules walk the same graphs; memoizing on the context object
    keeps the per-file cost at one CFG construction pass however many
    flow rules run.
    """
    cached = getattr(module, "_flow_cfgs", None)
    if cached is None:
        cached = build_cfgs(module.tree)
        module._flow_cfgs = cached
    return cached
