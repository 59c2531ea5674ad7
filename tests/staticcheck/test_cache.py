"""Incremental engine: warm reuse, dependency invalidation, baselines,
SARIF output and parallel cold parsing."""

import dataclasses
import json

import pytest

from repro.staticcheck import (
    CheckStats,
    apply_baseline,
    check_paths,
    check_source,
    load_baseline,
    render_json,
    render_sarif,
    write_baseline,
)
from repro.staticcheck.cache import AnalysisCache, file_digest, rule_fingerprint

TRIGGER = "import time\nt0 = time.time()\n"


def make_project(tmp_path):
    """pkg.a -> pkg.b (import edge); pkg.c standalone."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text("from pkg.b import helper\nX = helper()\n")
    (pkg / "b.py").write_text("__all__ = ['helper']\ndef helper():\n    return 1\n")
    (pkg / "c.py").write_text("Y = 2\n")
    return pkg


class TestIncrementalCache:
    def test_warm_run_hits_every_file_and_reproduces_output(self, tmp_path):
        pkg = make_project(tmp_path)
        cache = tmp_path / "cache.json"
        cold = check_paths([pkg], cache_path=cache)
        assert cache.is_file()
        assert cold.stats.cache_misses == 4 and cold.stats.cache_hits == 0
        warm = check_paths([pkg], cache_path=cache)
        assert warm.stats.cache_hits == 4 and warm.stats.cache_misses == 0
        assert render_json(warm) == render_json(cold)

    def test_mutating_one_module_reparses_only_it(self, tmp_path):
        """After a warm run, mutate one module and verify the other files,
        its importer included, are served from the cache."""
        pkg = make_project(tmp_path)
        cache = tmp_path / "cache.json"
        check_paths([pkg], cache_path=cache)
        (pkg / "b.py").write_text(
            "import time\n__all__ = ['helper']\ndef helper():\n    return time.time()\n"
        )
        result = check_paths([pkg], cache_path=cache)
        # only b goes cold: analyzing a reads no other file, so b's new
        # content cannot change a's entry
        assert result.stats.cache_misses == 1
        assert result.stats.cache_hits == 3
        assert [f.rule_id for f in result.findings] == ["wallclock-timing"]
        assert result.findings[0].path.endswith("b.py")

    def test_rule_set_change_invalidates_the_fingerprint(self, tmp_path):
        pkg = make_project(tmp_path)
        cache = tmp_path / "cache.json"
        check_paths([pkg], cache_path=cache)
        from repro.staticcheck import resolve_rules

        narrowed = check_paths(
            [pkg], rules=resolve_rules(select=["wallclock-timing"]), cache_path=cache
        )
        assert narrowed.stats.cache_misses == 4  # different fingerprint: no reuse
        assert rule_fingerprint(["a"], []) != rule_fingerprint(["a"], ["b"])

    def test_corrupt_cache_file_is_discarded_not_fatal(self, tmp_path):
        pkg = make_project(tmp_path)
        cache = tmp_path / "cache.json"
        cache.write_text("{not json")
        result = check_paths([pkg], cache_path=cache)
        assert result.stats.cache_misses == 4
        doc = json.loads(cache.read_text())  # rewritten as a valid document
        assert len(doc["files"]) == 4

    def test_deleted_files_are_pruned_on_save(self, tmp_path):
        pkg = make_project(tmp_path)
        cache = tmp_path / "cache.json"
        check_paths([pkg], cache_path=cache)
        (pkg / "c.py").unlink()
        check_paths([pkg], cache_path=cache)
        doc = json.loads(cache.read_text())
        assert not any(key.endswith("c.py") for key in doc["files"])

    def test_reference_files_are_cached_too(self, tmp_path):
        pkg = make_project(tmp_path)
        tests_dir = tmp_path / "tests"
        tests_dir.mkdir()
        (tests_dir / "test_a.py").write_text("from pkg.a import X\n")
        cache = tmp_path / "cache.json"
        cold = check_paths([pkg], reference_paths=[tests_dir], cache_path=cache)
        assert cold.stats.reference_files == 1
        doc = json.loads(cache.read_text())
        assert len(doc["references"]) == 1
        warm = check_paths([pkg], reference_paths=[tests_dir], cache_path=cache)
        assert render_json(warm) == render_json(cold)

    def test_parallel_cold_parse_matches_serial(self, tmp_path):
        """Spawned workers must hand back everything the serial run sees:
        findings, and the flow work counters they accumulate in their
        own module globals."""
        pkg = make_project(tmp_path)
        (pkg / "dirty.py").write_text(TRIGGER)
        (pkg / "hot.py").write_text(
            "from pkg.b import helper\n"
            "\n"
            "def load(path):\n"
            "    with open(path) as fh:\n"
            "        return fh.read()\n"
            "\n"
            "def score(X, w):\n"
            "    return X @ w + helper()\n"
        )
        serial = check_paths([pkg])
        parallel = check_paths([pkg], jobs=2)
        assert parallel.stats.jobs == 2
        assert render_json(parallel) == render_json(serial)
        for counter in ("flow_cfgs", "flow_blocks", "flow_iterations"):
            assert getattr(serial.stats, counter) > 0, counter
        unshared = {"jobs", "wall_seconds"}
        for stat in dataclasses.fields(CheckStats):
            if stat.name not in unshared:
                assert getattr(parallel.stats, stat.name) == getattr(
                    serial.stats, stat.name
                ), stat.name

    def test_file_digest_is_content_addressed(self):
        assert file_digest(b"x") == file_digest(b"x")
        assert file_digest(b"x") != file_digest(b"y")


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


class TestCacheObject:
    def test_fingerprint_mismatch_starts_empty(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = AnalysisCache.load(path, "fp-one")
        cache.store("a.py", {"hash": "h", "findings": [], "suppressed": [], "summary": None})
        cache.save()
        again = AnalysisCache.load(path, "fp-two")
        assert again.files == {}
