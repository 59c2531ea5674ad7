"""File discovery, parsing, rule execution and suppression filtering.

The engine is the only component that touches the filesystem; rules see
a :class:`ModuleContext` with the parsed tree, the raw source, and shared
helpers (import-alias resolution, dotted-name rendering) so each rule
stays a pure AST visitor.  Every run parses every file, in process: a
cold lint of the whole repository takes well under a second.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.staticcheck.findings import Finding
from repro.staticcheck.registry import Rule, all_rules, resolve_rules
from repro.staticcheck.suppressions import (
    WILDCARD,
    Directive,
    SuppressionIndex,
    parse_directives,
)

__all__ = [
    "CheckResult",
    "ModuleContext",
    "UsageError",
    "build_import_table",
    "check_paths",
    "check_source",
    "iter_python_files",
    "module_name_for_path",
    "resolve_relative",
]

#: Rule id used for files that do not parse; not suppressible.
SYNTAX_ERROR_ID = "syntax-error"

#: Rule id for ``ignore[...]`` directives naming a rule that does not exist.
UNKNOWN_SUPPRESSION_ID = "unknown-suppression"

#: Rule id for ``ignore[...]`` directives that no longer silence anything.
UNUSED_SUPPRESSION_ID = "unused-suppression"

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache", "build", "dist"}


def module_name_for_path(path: Path) -> tuple[str, bool]:
    """Dotted module name for a file, plus whether it is a package init.

    The package root is found by walking up while ``__init__.py`` exists,
    so ``src/repro/core/server.py`` maps to ``repro.core.server`` without
    any configuration.  Files outside any package map to their bare stem.
    """
    path = Path(path).resolve()
    is_package = path.name == "__init__.py"
    parts: list[str] = [] if is_package else [path.stem]
    current = path.parent
    while (current / "__init__.py").is_file():
        parts.insert(0, current.name)
        parent = current.parent
        if parent == current:  # filesystem root
            break
        current = parent
    return ".".join(parts), is_package


def resolve_relative(module_name: str, is_package: bool, level: int, target: str | None) -> str | None:
    """Absolute dotted name for a ``from ...x import`` statement.

    Returns ``None`` when the relative import climbs above the package
    root (a real ImportError at runtime, and nothing we can resolve).
    """
    if not module_name:
        return None
    base = module_name.split(".")
    if not is_package:
        base = base[:-1]
    drop = level - 1
    if drop > len(base):
        return None
    if drop:
        base = base[:-drop]
    if target:
        base = base + target.split(".")
    return ".".join(base) if base else None


def build_import_table(tree: ast.Module, module_name: str = "", is_package: bool = False) -> dict[str, str]:
    """Local name -> fully qualified origin, for every import in the tree.

    ``import numpy as np`` maps ``np -> numpy``; ``from numpy.random
    import default_rng as rng`` maps ``rng -> numpy.random.default_rng``.
    Relative imports (``from .encoder import FeatureEncoder``) resolve to
    absolute names when the module's own dotted name is known.
    """
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                origin = node.module
            else:
                origin = resolve_relative(module_name, is_package, node.level, node.module)
            if not origin:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                table[alias.asname or alias.name] = f"{origin}.{alias.name}"
    return table


class UsageError(ValueError):
    """A caller mistake: a path argument that is not a Python file."""


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
class CheckResult:
    """Outcome of a run: active and suppressed findings."""

    findings: list[Finding]
    suppressed: list[Finding]
    files_checked: int

    @property
    def clean(self) -> bool:
        return not self.findings


def _known_rule_ids(extra: Iterable[str] = ()) -> set[str]:
    known = set(all_rules())
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
                        "the directive silences nothing"
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
    """Run the rule set over one source string."""
    rules = list(rules) if rules is not None else resolve_rules()
    active, suppressed, _ = _analyze(source, path, rules)
    return CheckResult(findings=sorted(active), suppressed=sorted(suppressed), files_checked=1)


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list.

    Directories are walked recursively; explicit file arguments must be
    existing ``.py`` files — a missing path raises ``FileNotFoundError``
    and an existing non-Python file raises :class:`UsageError` instead of
    being silently dropped (``check_paths(["README.md"])`` must not come
    back "clean").
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
) -> tuple[list[Finding], list[Finding], list[Directive] | None]:
    """Parse one module, run the rules and collect its directives.

    Returns the active and suppressed findings and the module's
    ``ignore[...]`` directives, which are None when the source does not
    parse.
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
    directives = parse_directives(source)
    raw = [finding for rule in rules for finding in rule.check(module)]
    raw.extend(_directive_findings(path, directives, _known_rule_ids(r.id for r in rules)))
    active, suppressed = _partition(raw, SuppressionIndex.from_directives(directives))
    return active, suppressed, directives


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
    just because a ``rules=`` subset left that rule out), and the ``ignore[*]``
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
) -> CheckResult:
    """Run the rules over every ``.py`` under ``paths``."""
    rules = list(rules) if rules is not None else resolve_rules()
    files = iter_python_files(paths)

    findings: list[Finding] = []
    suppressed: list[Finding] = []
    directives_by_path: dict[str, list[Directive]] = {}
    for path in files:
        module_name, is_package = module_name_for_path(path)
        file_active, file_suppressed, directives = _analyze(
            path.read_text(encoding="utf-8"), str(path), rules, module_name, is_package
        )
        findings.extend(file_active)
        suppressed.extend(file_suppressed)
        if directives is not None:
            directives_by_path[str(path)] = directives

    # -- stale-suppression audit (after every rule has had its say) ----------
    rule_ids = {r.id for r in rules}
    ran_ids = rule_ids | {UNKNOWN_SUPPRESSION_ID}
    full_run = rule_ids == set(all_rules())
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

    return CheckResult(
        findings=sorted(findings),
        suppressed=sorted(suppressed),
        files_checked=len(files),
    )
