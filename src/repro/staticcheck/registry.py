"""Rule base class and the global rule registry.

Rules are plain classes with an ``id``, a ``description`` and a check
generator; the :func:`register` decorator adds them to the process-wide
registry that the engine reads.  Importing :mod:`repro.staticcheck.rules`
populates the registry as a side effect.  Each :class:`Rule` sees one
:class:`~repro.staticcheck.engine.ModuleContext` at a time.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Iterator, Type

from repro.staticcheck.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.staticcheck.engine import ModuleContext

__all__ = ["Rule", "all_rules", "register", "resolve_rules"]

_RULE_ID_RE = re.compile(r"^[a-z][a-z0-9]*(-[a-z0-9]+)*$")

_REGISTRY: dict[str, Type["Rule"]] = {}


class Rule:
    """Base class for staticcheck rules.

    Subclasses set ``id`` (kebab-case, used in findings and suppression
    comments) and ``description`` (one line), then implement :meth:`check`
    as a generator of findings for one parsed module.
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


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.id or not _RULE_ID_RE.match(cls.id):
        raise ValueError(f"rule {cls.__name__} needs a kebab-case id, got {cls.id!r}")
    if not cls.description:
        raise ValueError(f"rule {cls.id!r} needs a one-line description")
    if cls.id in _REGISTRY and _REGISTRY[cls.id] is not cls:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> dict[str, Type[Rule]]:
    """id -> rule class for every registered rule (import-populated)."""
    # Importing the rules package registers every built-in rule; done here
    # so callers of the API never have to know about the side effect.
    import repro.staticcheck.rules  # noqa: F401

    return dict(_REGISTRY)


def resolve_rules(
    select: list[str] | None = None,
    ignore: list[str] | None = None,
) -> list[Rule]:
    """Instantiate the rule set after applying ``select`` / ``ignore`` filters."""
    registry = all_rules()
    unknown = [r for r in (select or []) + (ignore or []) if r not in registry]
    if unknown:
        raise KeyError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    chosen = select if select else list(registry)
    chosen = [r for r in chosen if r not in set(ignore or [])]
    return [registry[r]() for r in sorted(chosen)]
