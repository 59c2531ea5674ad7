"""Rule base classes and the global rule registries.

Rules are plain classes with an ``id``, a ``description`` and a check
generator; the :func:`register` / :func:`register_project` decorators add
them to the process-wide registries that the engine and CLI read.
Importing :mod:`repro.staticcheck.rules` populates the single-file
registry, importing :mod:`repro.staticcheck.project` the project one —
both as a side effect.

Single-file :class:`Rule` subclasses see one
:class:`~repro.staticcheck.engine.ModuleContext` at a time;
:class:`ProjectRule` subclasses see the whole
:class:`~repro.staticcheck.project.graph.ProjectContext` (import graph,
call graph, every module summary).
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Iterator, Type

from repro.staticcheck.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.staticcheck.engine import ModuleContext
    from repro.staticcheck.project.graph import ProjectContext

__all__ = [
    "ProjectRule",
    "Rule",
    "all_project_rules",
    "all_rules",
    "register",
    "register_project",
    "resolve_all_rules",
    "resolve_project_rules",
    "resolve_rules",
]

_RULE_ID_RE = re.compile(r"^[a-z][a-z0-9]*(-[a-z0-9]+)*$")

_REGISTRY: dict[str, Type["Rule"]] = {}


class Rule:
    """Base class for staticcheck rules.

    Subclasses set ``id`` (kebab-case, used in reports and suppression
    comments) and ``description`` (one line, shown by ``--list-rules``),
    then implement :meth:`check` as a generator of findings for one parsed
    module.
    """

    id: str = ""
    description: str = ""

    def check(self, module: "ModuleContext") -> Iterator[Finding]:
        raise NotImplementedError  # pragma: no cover - abstract

    def finding(self, module: "ModuleContext", node, message: str) -> Finding:
        """Build a finding for ``node`` (an AST node or an int line)."""
        if isinstance(node, int):
            line, col = node, 0
        else:
            line, col = node.lineno, node.col_offset
        return Finding(path=module.path, line=line, col=col, rule_id=self.id, message=message)


class ProjectRule:
    """Base class for whole-program rules.

    Same contract as :class:`Rule`, but :meth:`check` receives the
    :class:`~repro.staticcheck.project.graph.ProjectContext` — every
    module summary plus the import and call graphs — and may yield
    findings against any file in the project.
    """

    id: str = ""
    description: str = ""

    def check(self, project: "ProjectContext") -> Iterator[Finding]:
        raise NotImplementedError  # pragma: no cover - abstract

    def finding(self, path: str, line: int, message: str, col: int = 0) -> Finding:
        return Finding(path=path, line=line, col=col, rule_id=self.id, message=message)


_PROJECT_REGISTRY: dict[str, Type[ProjectRule]] = {}


def _validated(cls, registry: dict) -> None:
    if not cls.id or not _RULE_ID_RE.match(cls.id):
        raise ValueError(f"rule {cls.__name__} needs a kebab-case id, got {cls.id!r}")
    if not cls.description:
        raise ValueError(f"rule {cls.id!r} needs a one-line description")
    if cls.id in registry and registry[cls.id] is not cls:
        raise ValueError(f"duplicate rule id {cls.id!r}")


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a single-file rule to the global registry."""
    _validated(cls, _REGISTRY)
    _REGISTRY[cls.id] = cls
    return cls


def register_project(cls: Type[ProjectRule]) -> Type[ProjectRule]:
    """Class decorator adding a project rule to the global registry."""
    _validated(cls, _PROJECT_REGISTRY)
    if cls.id in _REGISTRY:
        raise ValueError(f"rule id {cls.id!r} already taken by a single-file rule")
    _PROJECT_REGISTRY[cls.id] = cls
    return cls


def all_rules() -> dict[str, Type[Rule]]:
    """id -> rule class for every registered rule (import-populated)."""
    # Importing the rules package registers every built-in rule; done here
    # so callers of the API never have to know about the side effect.
    import repro.staticcheck.rules  # noqa: F401

    return dict(_REGISTRY)


def all_project_rules() -> dict[str, Type[ProjectRule]]:
    """id -> rule class for every registered project rule."""
    import repro.staticcheck.project  # noqa: F401

    return dict(_PROJECT_REGISTRY)


def resolve_rules(
    select: list[str] | None = None,
    ignore: list[str] | None = None,
) -> list[Rule]:
    """Instantiate the rule set after applying --select / --ignore filters."""
    registry = all_rules()
    unknown = [r for r in (select or []) + (ignore or []) if r not in registry]
    if unknown:
        raise KeyError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    chosen = select if select else list(registry)
    chosen = [r for r in chosen if r not in set(ignore or [])]
    return [registry[r]() for r in sorted(chosen)]


def resolve_project_rules(
    select: list[str] | None = None,
    ignore: list[str] | None = None,
) -> list[ProjectRule]:
    """Instantiate the project rule set under --select / --ignore filters."""
    registry = all_project_rules()
    unknown = [r for r in (select or []) + (ignore or []) if r not in registry]
    if unknown:
        raise KeyError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    chosen = select if select else list(registry)
    chosen = [r for r in chosen if r not in set(ignore or [])]
    return [registry[r]() for r in sorted(chosen)]


def resolve_all_rules(
    select: list[str] | None = None,
    ignore: list[str] | None = None,
) -> tuple[list[Rule], list[ProjectRule]]:
    """Resolve --select / --ignore across both registries at once.

    A rule id is valid if either registry knows it; unknown ids raise
    ``KeyError`` naming all of them, exactly like the per-registry
    resolvers do.
    """
    known = set(all_rules()) | set(all_project_rules())
    unknown = [r for r in (select or []) + (ignore or []) if r not in known]
    if unknown:
        raise KeyError(f"unknown rule id(s): {', '.join(sorted(unknown))}")

    def narrow(ids: list[str] | None, registry_ids: set[str]) -> list[str] | None:
        if ids is None:
            return None
        return [r for r in ids if r in registry_ids]

    file_ids = set(all_rules())
    project_ids = set(all_project_rules())
    file_select = narrow(select, file_ids)
    project_select = narrow(select, project_ids)
    # A --select naming only project rules must not enable every file rule
    # (and vice versa): an explicit selection that excludes one registry
    # selects nothing from it.
    file_rules = (
        []
        if select is not None and not file_select
        else resolve_rules(file_select, narrow(ignore, file_ids))
    )
    project_rules = (
        []
        if select is not None and not project_select
        else resolve_project_rules(project_select, narrow(ignore, project_ids))
    )
    return file_rules, project_rules
