"""Tier-1 gate: the repo's own sources must pass the project linter.

This is the enforcement point for the correctness-tooling layer, and it
runs every tier, exactly as ``python -m repro.staticcheck`` would in CI:

* the single-file rules: any new unseeded RNG, wall-clock duration,
  float-equality boundary, silent handler, export drift or unordered
  iteration in ``src/repro`` fails the build here;
* the flow tier: a resource leaked on some path, or released twice;
* the project rules: circular runtime imports, call sites drifting from
  intra-package signatures, tainted values flowing into persistence,
  ``__all__`` exports nothing imports, unguarded shared writes, and
  blocking calls under a lock.

How much work the served hot calls do is the work-budget tests' job
(``tests/budgets``), not the linter's.
"""

from pathlib import Path

from repro.staticcheck import check_paths, resolve_project_rules, resolve_rules

REPO_ROOT = Path(__file__).resolve().parents[2]
REPO_SRC = REPO_ROOT / "src" / "repro"

#: Usage in these trees keeps a public symbol alive for ``dead-export``.
REFERENCE_DIRS = [
    d for d in (REPO_ROOT / "tests", REPO_ROOT / "benchmarks", REPO_ROOT / "examples") if d.is_dir()
]


def test_repo_src_exists():
    assert REPO_SRC.is_dir(), f"expected package sources at {REPO_SRC}"


def test_repo_is_clean():
    result = check_paths([REPO_SRC], reference_paths=REFERENCE_DIRS)
    assert result.files_checked > 50  # the walk really saw the code base
    details = "\n".join(str(f) for f in result.findings)
    assert result.clean, (
        f"staticcheck found {len(result.findings)} unsuppressed finding(s); "
        f"fix them or add a justified '# staticcheck: ignore[rule]' comment:\n{details}"
    )


def test_project_rules_were_active():
    """The gate runs the whole-program layer, not just single-file rules:
    the concurrency rules too."""
    assert {r.id for r in resolve_project_rules()} >= {
        "import-cycle",
        "contract-drift",
        "tainted-persistence",
        "dead-export",
        "unguarded-shared-write",
        "blocking-under-lock",
    }


def test_flow_rules_were_active():
    """The gate runs the flow-sensitive tier: the resource lifecycles in
    ``src/repro`` are being checked, not just the single-statement rules."""
    assert {r.id for r in resolve_rules()} >= {
        "resource-leak",
        "double-release",
    }


def test_seeded_flow_violation_is_caught(tmp_path):
    """End-to-end: the gate bites on a flow-tier violation too."""
    bad = tmp_path / "leaky.py"
    bad.write_text(
        "import socket\n"
        "def _f(address, xs):\n"
        "    conn = socket.socket()\n"
        "    send_all(conn, address, xs)\n"
        "    conn.close()\n"
    )
    result = check_paths([tmp_path])
    assert [f.rule_id for f in result.findings] == ["resource-leak"]
    assert result.findings[0].line == 3


def test_seeded_violation_is_caught(tmp_path):
    """End-to-end: the gate actually bites on a real violation."""
    bad = tmp_path / "regression.py"
    bad.write_text("import time\nelapsed_t0 = time.time()\n")
    result = check_paths([tmp_path])
    assert not result.clean
    assert [f.rule_id for f in result.findings] == ["wallclock-timing"]
