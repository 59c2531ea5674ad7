"""Tier-1 gate: the repo's own sources must pass the project linter.

Any new unseeded RNG, wall-clock duration, float-equality boundary,
mutable default, silent handler, export drift or unordered iteration in
``src/repro`` fails the build here.
"""

from pathlib import Path

from repro.staticcheck import check_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
REPO_SRC = REPO_ROOT / "src" / "repro"


def test_repo_src_exists():
    assert REPO_SRC.is_dir(), f"expected package sources at {REPO_SRC}"


def test_repo_is_clean():
    result = check_paths([REPO_SRC])
    assert result.files_checked > 50  # the walk really saw the code base
    details = "\n".join(str(f) for f in result.findings)
    assert result.clean, (
        f"staticcheck found {len(result.findings)} unsuppressed finding(s); "
        f"fix them or add a justified '# staticcheck: ignore[rule]' comment:\n{details}"
    )


def test_seeded_violation_is_caught(tmp_path):
    """End-to-end: the gate actually bites on a real violation."""
    bad = tmp_path / "regression.py"
    bad.write_text("import time\nelapsed_t0 = time.time()\n")
    result = check_paths([tmp_path])
    assert not result.clean
    assert [f.rule_id for f in result.findings] == ["wallclock-timing"]
