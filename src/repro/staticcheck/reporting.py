"""Render a :class:`CheckResult` as human text, machine JSON or SARIF."""

from __future__ import annotations

import json

from repro.staticcheck.engine import CheckResult, CheckStats

__all__ = ["render", "render_json", "render_statistics", "render_text"]


def render_text(result: CheckResult) -> str:
    """``path:line:col: rule: message`` per finding plus a summary line."""
    lines = [str(f) for f in result.findings]
    summary = (
        f"{len(result.findings)} finding{'s' if len(result.findings) != 1 else ''}"
        f" ({len(result.suppressed)} suppressed)"
        f" in {result.files_checked} file{'s' if result.files_checked != 1 else ''}"
    )
    if result.baselined:
        summary += f"; {len(result.baselined)} baselined"
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: CheckResult) -> str:
    """Stable, versioned JSON document (see ``CheckResult.to_dict``)."""
    return json.dumps(result.to_dict(), indent=2, sort_keys=True)


def render_statistics(stats: CheckStats) -> str:
    """Human-readable run statistics, one ``key: value`` per line.

    Printed to stderr by the CLI so machine-readable stdout stays
    byte-identical between cold and warm runs.
    """
    lines = [
        "statistics:",
        f"  files checked:    {stats.files_checked}",
        f"  reference files:  {stats.reference_files}",
        f"  cache hits:       {stats.cache_hits}",
        f"  cache misses:     {stats.cache_misses}",
        f"  parallel jobs:    {stats.jobs}",
        f"  wall time:        {stats.wall_seconds:.3f}s",
        f"  flow CFGs built:  {stats.flow_cfgs}",
        f"  flow blocks:      {stats.flow_blocks}",
        f"  flow iterations:  {stats.flow_iterations}",
    ]
    if stats.findings_per_rule:
        lines.append("  findings by rule:")
        width = max(len(rule) for rule in stats.findings_per_rule)
        for rule in sorted(stats.findings_per_rule):
            lines.append(f"    {rule:<{width}}  {stats.findings_per_rule[rule]}")
    return "\n".join(lines)


def render(result: CheckResult, fmt: str) -> str:
    if fmt == "text":
        return render_text(result)
    if fmt == "json":
        return render_json(result)
    if fmt == "sarif":
        from repro.staticcheck.sarif import render_sarif

        return render_sarif(result)
    raise ValueError(f"unknown format {fmt!r}")
