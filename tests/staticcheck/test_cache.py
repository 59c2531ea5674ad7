"""Baselines and SARIF output."""

import json

import pytest

from repro.staticcheck import (
    apply_baseline,
    check_paths,
    check_source,
    load_baseline,
    render_json,
    render_sarif,
    write_baseline,
)

TRIGGER = "import time\nt0 = time.time()\n"


class TestBaseline:
    def test_write_then_check_hides_tracked_findings(self, tmp_path):
        dirty = tmp_path / "legacy.py"
        dirty.write_text(TRIGGER)
        baseline_file = tmp_path / "baseline.json"
        result = check_paths([tmp_path])
        assert write_baseline(result, baseline_file) == 1
        rechecked, resolved = apply_baseline(
            check_paths([tmp_path]), load_baseline(baseline_file)
        )
        assert resolved == 0
        assert rechecked.clean
        assert [f.rule_id for f in rechecked.baselined] == ["wallclock-timing"]

    def test_new_findings_still_fail_under_a_baseline(self, tmp_path):
        dirty = tmp_path / "legacy.py"
        dirty.write_text(TRIGGER)
        baseline_file = tmp_path / "baseline.json"
        write_baseline(check_paths([tmp_path]), baseline_file)
        (tmp_path / "fresh.py").write_text("def _f(x, acc=[]):\n    return acc\n")
        rechecked, _ = apply_baseline(check_paths([tmp_path]), load_baseline(baseline_file))
        assert [f.rule_id for f in rechecked.findings] == ["mutable-default"]

    def test_ratchet_reports_resolved_findings(self, tmp_path):
        dirty = tmp_path / "legacy.py"
        dirty.write_text(TRIGGER)
        baseline_file = tmp_path / "baseline.json"
        write_baseline(check_paths([tmp_path]), baseline_file)
        dirty.write_text("import time\nt0 = time.perf_counter()\n")  # fixed!
        rechecked, resolved = apply_baseline(
            check_paths([tmp_path]), load_baseline(baseline_file)
        )
        assert resolved == 1 and rechecked.clean

    def test_baselined_findings_survive_json_round_trip(self, tmp_path):
        dirty = tmp_path / "legacy.py"
        dirty.write_text(TRIGGER)
        baseline_file = tmp_path / "baseline.json"
        write_baseline(check_paths([tmp_path]), baseline_file)
        rechecked, _ = apply_baseline(check_paths([tmp_path]), load_baseline(baseline_file))
        doc = json.loads(render_json(rechecked))
        assert doc["findings"] == []
        (entry,) = doc["baselined"]
        assert entry["rule"] == "wallclock-timing"

    def test_missing_baseline_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            load_baseline(tmp_path / "absent.json")


class TestSarif:
    def test_sarif_document_structure(self):
        result = check_source(TRIGGER, path="mod.py")
        doc = json.loads(render_sarif(result))
        assert doc["version"] == "2.1.0"
        (run,) = doc["runs"]
        assert run["tool"]["driver"]["name"] == "repro.staticcheck"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"wallclock-timing", "dead-export"} <= rule_ids
        (res,) = run["results"]
        assert res["ruleId"] == "wallclock-timing"
        assert res["level"] == "error"
        loc = res["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "mod.py"
        assert loc["region"]["startLine"] == 2

    def test_suppressed_findings_are_notes_with_suppressions(self):
        src = "import time\nt0 = time.time()  # staticcheck: ignore[wallclock-timing]\n"
        doc = json.loads(render_sarif(check_source(src, path="mod.py")))
        (res,) = doc["runs"][0]["results"]
        assert res["level"] == "note"
        assert res["suppressions"][0]["kind"] == "inSource"

    def test_sarif_is_deterministic(self):
        a = render_sarif(check_source(TRIGGER, path="mod.py"))
        b = render_sarif(check_source(TRIGGER, path="mod.py"))
        assert a == b
