"""File discovery, parsing, rule execution and suppression filtering.

The engine is the only component that touches the filesystem; single-file
rules see a :class:`ModuleContext` with the parsed tree, the raw source,
and shared helpers (import-alias resolution, dotted-name rendering) so
each rule stays a pure AST visitor.  Project rules see a
:class:`~repro.staticcheck.project.graph.ProjectContext` assembled from
per-module summaries.  Every run parses every file, in process: a cold
lint of the whole repository takes well under two seconds.
"""

from __future__ import annotations

import ast
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.staticcheck.findings import Finding
from repro.staticcheck.project.graph import ProjectContext
from repro.staticcheck.project.summary import (
    ModuleSummary,
    build_import_table,
    build_summary,
    dotted_name,
    module_name_for_path,
    resolve_relative,
)
from repro.staticcheck.registry import (
    ProjectRule,
    Rule,
    all_project_rules,
    all_rules,
    resolve_project_rules,
    resolve_rules,
)
from repro.staticcheck.suppressions import WILDCARD, Directive, SuppressionIndex

__all__ = [
    "CheckResult",
    "CheckStats",
    "ModuleContext",
    "UsageError",
    "check_paths",
    "check_source",
    "iter_python_files",
]

#: Rule id used for files that do not parse; not suppressible.
SYNTAX_ERROR_ID = "syntax-error"

#: Rule id for ``ignore[...]`` directives naming a rule that does not exist.
UNKNOWN_SUPPRESSION_ID = "unknown-suppression"

#: Rule id for ``ignore[...]`` directives that no longer silence anything.
UNUSED_SUPPRESSION_ID = "unused-suppression"

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache", "build", "dist"}


class UsageError(ValueError):
    """A caller mistake (bad path arguments), reported as exit code 2."""


@dataclass
class ModuleContext:
    """Everything a single-file rule may inspect about one module."""

    path: str
    source: str
    tree: ast.Module
    module_name: str = ""
    is_package: bool = False
    _imports: dict[str, str] | None = field(default=None, repr=False)

    # -- shared helpers ----------------------------------------------------

    @property
    def imports(self) -> dict[str, str]:
        """Local name -> fully qualified origin, for every import.

        ``import numpy as np`` maps ``np -> numpy``; ``from numpy.random
        import default_rng as rng`` maps ``rng -> numpy.random.default_rng``.
        Relative imports resolve to absolute names when ``module_name`` is
        known (``from .encoder import enc`` inside ``repro.core.server``
        maps ``enc -> repro.core.encoder.enc``).
        """
        if self._imports is None:
            self._imports = build_import_table(self.tree, self.module_name, self.is_package)
        return self._imports

    def dotted_name(self, node: ast.AST) -> str | None:
        """Render ``a.b.c`` attribute/name chains, resolving import aliases.

        Returns ``None`` for anything that is not a pure name chain (calls,
        subscripts, ...), so callers can simply compare against canonical
        module paths like ``numpy.random.default_rng``.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.imports.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))


@dataclass
class CheckStats:
    """What a run actually did — surfaced by the CLI's ``--statistics``."""

    files_checked: int = 0
    reference_files: int = 0
    wall_seconds: float = 0.0
    findings_per_rule: dict[str, int] = field(default_factory=dict)


@dataclass
class CheckResult:
    """Outcome of a run: active, suppressed and baselined findings."""

    findings: list[Finding]
    suppressed: list[Finding]
    files_checked: int
    baselined: list[Finding] = field(default_factory=list)
    stats: CheckStats | None = None

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        # Deliberately excludes ``stats``: wall time is never
        # reproducible, and two runs over one tree must report the same
        # bytes.
        return {
            "version": 2,
            "files_checked": self.files_checked,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "baselined": [f.to_dict() for f in self.baselined],
        }


def _known_rule_ids(extra: Iterable[str] = ()) -> set[str]:
    known = set(all_rules()) | set(all_project_rules())
    known.update(extra)
    known.update((SYNTAX_ERROR_ID, UNKNOWN_SUPPRESSION_ID, UNUSED_SUPPRESSION_ID, WILDCARD))
    return known


def _directive_findings(path: str, directives: list[Directive], known_ids: set[str]) -> list[Finding]:
    """Flag ignore[...] directives naming rules that do not exist."""
    findings = []
    for directive in directives:
        for rule_id in sorted(directive.rule_ids - known_ids):
            findings.append(
                Finding(
                    path=path,
                    line=directive.line,
                    col=0,
                    rule_id=UNKNOWN_SUPPRESSION_ID,
                    message=(
                        f"ignore[{rule_id}] names a rule that does not exist; "
                        "the directive silences nothing (see --list-rules)"
                    ),
                )
            )
    return findings


def _partition(
    raw: list[Finding], index: SuppressionIndex
) -> tuple[list[Finding], list[Finding]]:
    active: list[Finding] = []
    suppressed: list[Finding] = []
    for finding in raw:
        if finding.rule_id != SYNTAX_ERROR_ID and index.covers(finding.line, finding.rule_id):
            suppressed.append(
                Finding(
                    path=finding.path,
                    line=finding.line,
                    col=finding.col,
                    rule_id=finding.rule_id,
                    message=finding.message,
                    suppressed=True,
                )
            )
        else:
            active.append(finding)
    return active, suppressed


def check_source(
    source: str,
    path: str = "<string>",
    rules: Sequence[Rule] | None = None,
) -> CheckResult:
    """Run the single-file rule set over one source string."""
    rules = list(rules) if rules is not None else resolve_rules()
    active, suppressed, _ = _analyze(source, path, rules)
    return CheckResult(findings=sorted(active), suppressed=sorted(suppressed), files_checked=1)


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list.

    Directories are walked recursively; explicit file arguments must be
    existing ``.py`` files — a missing path raises ``FileNotFoundError``
    and an existing non-Python file raises :class:`UsageError` instead of
    being silently dropped (``repro.staticcheck README.md`` must not
    exit 0 "clean").
    """
    seen: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            for child in sorted(p.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in child.parts):
                    seen.add(child)
        elif not p.exists():
            raise FileNotFoundError(f"no such file or directory: {p}")
        elif p.suffix != ".py":
            raise UsageError(f"not a python file: {p} (only .py files can be checked)")
        else:
            seen.add(p)
    return sorted(seen)


# ---------------------------------------------------------------------------
# per-file analysis


def _analyze(
    source: str,
    path: str,
    rules: Sequence[Rule],
    module_name: str = "",
    is_package: bool = False,
) -> tuple[list[Finding], list[Finding], ModuleSummary | None]:
    """Parse one module, run the single-file rules and build its summary.

    Returns the active and suppressed findings and the summary, which is
    None when the source does not parse.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        finding = Finding(
            path=path,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            rule_id=SYNTAX_ERROR_ID,
            message=f"file does not parse: {exc.msg}",
        )
        return [finding], [], None

    module = ModuleContext(
        path=path, source=source, tree=tree, module_name=module_name, is_package=is_package
    )
    summary = build_summary(path, source, tree, module_name, is_package)
    raw = [finding for rule in rules for finding in rule.check(module)]
    raw.extend(_directive_findings(path, summary.directives, _known_rule_ids(r.id for r in rules)))
    active, suppressed = _partition(raw, SuppressionIndex.from_directives(summary.directives))
    return active, suppressed, summary


def _harvest_reference(path: Path) -> dict:
    """Usage facts (imports, star imports, dotted refs) of one reference file."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError:
        return {"uses": [], "stars": []}
    module_name, is_package = module_name_for_path(path)
    imports = build_import_table(tree, module_name, is_package)
    uses = {origin for origin in imports.values() if "." in origin}
    stars: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = dotted_name(node, imports)
            if name and "." in name:
                uses.add(name)
        elif isinstance(node, ast.ImportFrom) and any(a.name == "*" for a in node.names):
            origin = (
                node.module
                if node.level == 0
                else resolve_relative(module_name, is_package, node.level, node.module)
            )
            if origin:
                stars.add(origin)
    return {"uses": sorted(uses), "stars": sorted(stars)}


def _run_project_rules(
    project_rules: Sequence[ProjectRule],
    summaries: dict[str, ModuleSummary],
    reference_usage: list[dict],
    indexes: dict[str, SuppressionIndex],
) -> tuple[list[Finding], list[Finding]]:
    project = ProjectContext(summaries=summaries, reference_usage=reference_usage)
    active: list[Finding] = []
    suppressed: list[Finding] = []
    for rule in project_rules:
        for finding in rule.check(project):
            index = indexes.get(finding.path)
            file_active, file_suppressed = _partition([finding], index or SuppressionIndex({}))
            active.extend(file_active)
            suppressed.extend(file_suppressed)
    return active, suppressed


def _unused_suppression_findings(
    directives_by_path: dict[str, list[Directive]],
    suppressed: list[Finding],
    ran_ids: set[str],
    full_run: bool,
) -> list[Finding]:
    """Flag ignore[...] directives that silenced nothing this run.

    A directive is *used* when some finding on a line it covers was
    suppressed under one of its rule ids.  Per-rule checks only apply to
    rules that actually ran (an ``ignore[unseeded-rng]`` is not stale
    just because ``--select`` skipped that rule), and the ``ignore[*]``
    wildcard is only judged on full-registry runs for the same reason.
    Unknown rule ids are already reported as ``unknown-suppression`` and
    are skipped here.
    """
    hits: dict[str, set[tuple[str, int]]] = {}
    lines_hit: dict[str, set[int]] = {}
    for finding in suppressed:
        hits.setdefault(finding.path, set()).add((finding.rule_id, finding.line))
        lines_hit.setdefault(finding.path, set()).add(finding.line)
    findings: list[Finding] = []
    for path in sorted(directives_by_path):
        path_hits = hits.get(path, set())
        path_lines = lines_hit.get(path, set())
        for directive in directives_by_path[path]:
            if WILDCARD in directive.rule_ids:
                if full_run and not any(line in path_lines for line in directive.all_lines):
                    findings.append(
                        Finding(
                            path=path,
                            line=directive.line,
                            col=0,
                            rule_id=UNUSED_SUPPRESSION_ID,
                            message=(
                                "ignore[*] suppresses nothing on this line; "
                                "remove the stale directive"
                            ),
                        )
                    )
                continue
            for rule_id in sorted(directive.rule_ids):
                if rule_id not in ran_ids:
                    continue
                if not any((rule_id, line) in path_hits for line in directive.all_lines):
                    findings.append(
                        Finding(
                            path=path,
                            line=directive.line,
                            col=0,
                            rule_id=UNUSED_SUPPRESSION_ID,
                            message=(
                                f"ignore[{rule_id}] suppresses nothing on this "
                                "line; the finding it silenced is gone — remove "
                                "the stale directive"
                            ),
                        )
                    )
    return findings


def check_paths(
    paths: Iterable[str | Path],
    rules: Sequence[Rule] | None = None,
    project_rules: Sequence[ProjectRule] | None = None,
    *,
    reference_paths: Iterable[str | Path] = (),
) -> CheckResult:
    """Run single-file and project rules over every ``.py`` under ``paths``.

    ``reference_paths`` are parsed for import-usage facts only (they feed
    the ``dead-export`` rule) and are never linted.
    """
    started = time.perf_counter()
    rules = list(rules) if rules is not None else resolve_rules()
    project_rules = (
        list(project_rules) if project_rules is not None else resolve_project_rules()
    )
    files = iter_python_files(paths)
    file_keys = {str(f) for f in files}
    reference_files = [f for f in iter_python_files(reference_paths) if str(f) not in file_keys]

    findings: list[Finding] = []
    suppressed: list[Finding] = []
    summaries: dict[str, ModuleSummary] = {}
    indexes: dict[str, SuppressionIndex] = {}
    directives_by_path: dict[str, list[Directive]] = {}
    for path in files:
        module_name, is_package = module_name_for_path(path)
        file_active, file_suppressed, summary = _analyze(
            path.read_text(encoding="utf-8"), str(path), rules, module_name, is_package
        )
        findings.extend(file_active)
        suppressed.extend(file_suppressed)
        if summary is None:
            continue
        summaries[summary.module] = summary
        directives_by_path[summary.path] = summary.directives
        indexes[summary.path] = SuppressionIndex.from_directives(summary.directives)

    if project_rules:
        reference_usage = [_harvest_reference(f) for f in reference_files]
        project_active, project_suppressed = _run_project_rules(
            project_rules, summaries, reference_usage, indexes
        )
        findings.extend(project_active)
        suppressed.extend(project_suppressed)

    # -- stale-suppression audit (after every layer has had its say) ---------
    rule_ids = {r.id for r in rules}
    project_rule_ids = {r.id for r in project_rules}
    ran_ids = rule_ids | project_rule_ids | {UNKNOWN_SUPPRESSION_ID}
    full_run = rule_ids == set(all_rules()) and project_rule_ids == set(all_project_rules())
    for unused in _unused_suppression_findings(directives_by_path, suppressed, ran_ids, full_run):
        # Only an *explicit* ignore[unused-suppression] silences the audit:
        # letting ignore[*] swallow its own staleness report would make
        # stale wildcards impossible to surface.
        explicit = any(
            UNUSED_SUPPRESSION_ID in directive.rule_ids and unused.line in directive.all_lines
            for directive in directives_by_path.get(unused.path, [])
        )
        if explicit:
            suppressed.append(
                Finding(
                    path=unused.path,
                    line=unused.line,
                    col=unused.col,
                    rule_id=unused.rule_id,
                    message=unused.message,
                    suppressed=True,
                )
            )
        else:
            findings.append(unused)

    result = CheckResult(
        findings=sorted(findings),
        suppressed=sorted(suppressed),
        files_checked=len(files),
    )
    counts: dict[str, int] = {}
    for finding in result.findings:
        counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
    result.stats = CheckStats(
        files_checked=len(files),
        reference_files=len(reference_files),
        wall_seconds=time.perf_counter() - started,
        findings_per_rule=counts,
    )
    return result
