"""SARIF 2.1.0 reporter.

SARIF (Static Analysis Results Interchange Format) is the exchange
format code-scanning UIs ingest (GitHub code scanning, VS Code SARIF
viewer, ...).  One run, one tool driver, one result per active finding;
suppressed and baselined findings are emitted with a ``suppressions``
entry so viewers show them struck through rather than losing them.
Output is deterministic (sorted keys, sorted rules), so two runs over
one tree give the same bytes.
"""

from __future__ import annotations

import json

from repro.staticcheck.engine import CheckResult
from repro.staticcheck.findings import Finding
from repro.staticcheck.registry import all_project_rules, all_rules

__all__ = ["render_sarif"]

_SARIF_SCHEMA = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"


def _rule_descriptors() -> list[dict]:
    merged = {**all_rules(), **all_project_rules()}
    return [
        {
            "id": rule_id,
            "shortDescription": {"text": cls.description},
        }
        for rule_id, cls in sorted(merged.items())
    ]


def _result(finding: Finding, kind: str) -> dict:
    doc = {
        "ruleId": finding.rule_id,
        "level": "error" if kind == "active" else "note",
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path.replace("\\", "/")},
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.col + 1,
                    },
                }
            }
        ],
    }
    if kind == "suppressed":
        doc["suppressions"] = [{"kind": "inSource"}]
    elif kind == "baselined":
        doc["suppressions"] = [{"kind": "external"}]
    return doc


def render_sarif(result: CheckResult) -> str:
    results = (
        [_result(f, "active") for f in result.findings]
        + [_result(f, "baselined") for f in result.baselined]
        + [_result(f, "suppressed") for f in result.suppressed]
    )
    doc = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.staticcheck",
                        "informationUri": "https://example.invalid/repro-staticcheck",
                        "rules": _rule_descriptors(),
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
