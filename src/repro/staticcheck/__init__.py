"""repro.staticcheck — AST-based single-file linter with MCBound-specific rules.

A self-contained static-analysis engine (stdlib only).  Its seven rules
each see one module alone: replayable randomness, monotonic timing,
tolerance-based float comparisons at the roofline boundary, no mutable
default arguments, no swallowed exceptions in the serving loop, honest
``__all__`` surfaces, and order-stable iteration into feature encoding.
``tests/staticcheck/test_repo_is_clean.py`` runs them over ``src/repro``
in tier-1.

Every guarantee the rules hold is also held by a tier-1 test of what the
program does (DESIGN.md §7 maps each rule to its test), so the package is
due for deletion (ROADMAP item 9).

Programmatic use::

    from repro.staticcheck import check_paths
    result = check_paths(["src/repro"])
    assert result.clean, [str(f) for f in result.findings]

Suppress a single finding inline, with a justification::

    rng = np.random.default_rng()  # staticcheck: ignore[unseeded-rng] - fallback path
"""

from repro.staticcheck.engine import (
    CheckResult,
    ModuleContext,
    UsageError,
    check_paths,
    check_source,
)
from repro.staticcheck.findings import Finding
from repro.staticcheck.registry import Rule, all_rules, register, resolve_rules

__all__ = [
    "CheckResult",
    "Finding",
    "ModuleContext",
    "Rule",
    "UsageError",
    "all_rules",
    "check_paths",
    "check_source",
    "register",
    "resolve_rules",
]
