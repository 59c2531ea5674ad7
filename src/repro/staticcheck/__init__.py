"""repro.staticcheck — AST-based project linter with MCBound-specific rules.

A self-contained static-analysis engine (stdlib only) for what the test
suite cannot see.  It runs two tiers:

* single-file rules, each module alone: replayable randomness, monotonic
  timing, tolerance-based float comparisons at the roofline boundary, no
  swallowed exceptions in the serving loop, honest ``__all__`` surfaces,
  and order-stable iteration into feature encoding;
* project rules, every module at once through the import and call
  graphs: no circular runtime imports, call sites that match their
  intra-package callee's signature (``contract-drift``), no
  unseeded-RNG/wall-clock values flowing into persisted models or
  reports (``tainted-persistence``) and no ``__all__`` exports nothing
  imports (``dead-export``).

What tier-1 tests already hold is not linted.  The work-budget tests
(``tests/budgets``) count how much work the served hot calls do.  A
handle left open on an error path fails tier-1, which turns
``ResourceWarning`` into an error, and the fault-injection tests raise
inside the writers.  A train that blocks ``/predict`` fails
``tests/core/test_train_serve.py``, and a write to ``MCBound``'s shared
state without its lock is a sanitizer event (:mod:`repro.sanitizers`).

Programmatic use::

    from repro.staticcheck import check_paths
    result = check_paths(["src/repro"], reference_paths=["tests"])
    assert result.clean, [str(f) for f in result.findings]

Command line::

    python -m repro.staticcheck --format json --statistics

Suppress a single finding inline, with a justification::

    rng = np.random.default_rng()  # staticcheck: ignore[unseeded-rng] - fallback path
"""

from repro.staticcheck.baseline import apply_baseline, load_baseline, write_baseline
from repro.staticcheck.engine import (
    CheckResult,
    CheckStats,
    ModuleContext,
    UsageError,
    check_paths,
    check_source,
)
from repro.staticcheck.findings import Finding
from repro.staticcheck.registry import (
    ProjectRule,
    Rule,
    all_project_rules,
    all_rules,
    register,
    register_project,
    resolve_all_rules,
    resolve_project_rules,
    resolve_rules,
)
from repro.staticcheck.reporting import render, render_json, render_statistics, render_text
from repro.staticcheck.sarif import render_sarif

__all__ = [
    "CheckResult",
    "CheckStats",
    "Finding",
    "ModuleContext",
    "ProjectRule",
    "Rule",
    "UsageError",
    "all_project_rules",
    "all_rules",
    "apply_baseline",
    "check_paths",
    "check_source",
    "load_baseline",
    "register",
    "register_project",
    "render",
    "render_json",
    "render_sarif",
    "render_statistics",
    "render_text",
    "resolve_all_rules",
    "resolve_project_rules",
    "resolve_rules",
    "write_baseline",
]
