"""The unit of output of every rule: a :class:`Finding`.

A finding pins a rule violation to a ``path:line:col`` location.  Findings
sort by location so reports are stable across rule-execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    ``suppressed`` is set by the engine (never by rules) when an inline
    ``# staticcheck: ignore[...]`` comment covers the finding's line; the
    location fields come first so tuple ordering groups findings by file.
    """

    path: str
    line: int
    col: int
    rule_id: str = field(compare=False)
    message: str = field(compare=False)
    suppressed: bool = field(default=False, compare=False)

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id}: {self.message}"
