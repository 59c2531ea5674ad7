"""Engine mechanics: suppressions, discovery, registry, reporters."""

import json
import textwrap

import pytest

from repro.staticcheck import (
    Finding,
    all_rules,
    check_paths,
    check_source,
    render_json,
    render_text,
    resolve_rules,
)
from repro.staticcheck.engine import (
    SYNTAX_ERROR_ID,
    UNKNOWN_SUPPRESSION_ID,
    UsageError,
    iter_python_files,
)
from repro.staticcheck.suppressions import parse_directives, parse_suppressions

TRIGGER = "import time\nt0 = time.time()\n"


class TestSuppressions:
    def test_same_line_directive(self):
        index = parse_suppressions("x = 1  # staticcheck: ignore[some-rule]\n")
        assert index.covers(1, "some-rule")
        assert not index.covers(1, "other-rule")
        assert not index.covers(2, "some-rule")

    def test_standalone_comment_covers_next_line(self):
        index = parse_suppressions("# staticcheck: ignore[some-rule]\nx = 1\n")
        assert index.covers(1, "some-rule")
        assert index.covers(2, "some-rule")

    def test_wildcard_covers_every_rule(self):
        index = parse_suppressions("x = 1  # staticcheck: ignore[*]\n")
        assert index.covers(1, "anything")

    def test_multiple_rules_and_trailing_prose(self):
        index = parse_suppressions("x = 1  # staticcheck: ignore[rule-a, rule-b] - because\n")
        assert index.covers(1, "rule-a") and index.covers(1, "rule-b")

    def test_directive_inside_string_literal_ignored(self):
        index = parse_suppressions('x = "# staticcheck: ignore[some-rule]"\n')
        assert not index.covers(1, "some-rule")

    def test_trailing_comment_does_not_leak_to_next_line(self):
        index = parse_suppressions("x = 1  # staticcheck: ignore[some-rule]\ny = 2\n")
        assert not index.covers(2, "some-rule")

    def test_continuation_line_directive_covers_statement_start(self):
        # The closing line of a multi-line statement is often the only
        # place with room for a comment; the directive must still cover
        # findings reported at the statement head.
        src = "t0 = time.time(\n)  # staticcheck: ignore[wallclock-timing]\n"
        index = parse_suppressions(src)
        assert index.covers(1, "wallclock-timing")
        assert index.covers(2, "wallclock-timing")

    def test_continuation_directive_does_not_cover_unrelated_lines(self):
        src = "a = 1\nt0 = f(\n    2)  # staticcheck: ignore[some-rule]\nb = 3\n"
        index = parse_suppressions(src)
        assert index.covers(2, "some-rule") and index.covers(3, "some-rule")
        assert not index.covers(1, "some-rule")
        assert not index.covers(4, "some-rule")

    def test_multiple_rule_ids_with_odd_whitespace(self):
        index = parse_suppressions("x = 1  # staticcheck: ignore[ rule-a ,rule-b,  rule-c ]\n")
        for rule in ("rule-a", "rule-b", "rule-c"):
            assert index.covers(1, rule)

    def test_parse_directives_reports_locations(self):
        (directive,) = parse_directives("x = 1  # staticcheck: ignore[rule-a, rule-b]\n")
        assert directive.line == 1
        assert directive.rule_ids == frozenset({"rule-a", "rule-b"})


class TestUnknownSuppression:
    def test_unknown_rule_id_in_directive_is_reported(self):
        src = "x = 1  # staticcheck: ignore[no-such-rule]\n"
        result = check_source(src)
        (finding,) = result.findings
        assert finding.rule_id == UNKNOWN_SUPPRESSION_ID
        assert "no-such-rule" in finding.message
        assert finding.line == 1

    def test_known_rule_id_is_not_reported(self):
        src = "import time\nt0 = time.time()  # staticcheck: ignore[wallclock-timing]\n"
        result = check_source(src)
        assert result.clean

    def test_wildcard_is_not_reported(self):
        assert check_source("x = 1  # staticcheck: ignore[*]\n").clean

    def test_project_rule_ids_are_known(self):
        assert check_source("x = 1  # staticcheck: ignore[dead-export]\n").clean

    def test_mixed_known_and_unknown_ids(self):
        src = "import time\nt0 = time.time()  # staticcheck: ignore[wallclock-timing, bogus-rule]\n"
        result = check_source(src)
        assert [f.rule_id for f in result.findings] == [UNKNOWN_SUPPRESSION_ID]
        # the known id still suppresses its finding
        assert [f.rule_id for f in result.suppressed] == ["wallclock-timing"]


class TestCheckSource:
    def test_clean_source(self):
        result = check_source("import time\nt0 = time.perf_counter()\n")
        assert result.clean and result.files_checked == 1

    def test_finding_location_and_str(self):
        result = check_source(TRIGGER, path="mod.py")
        (finding,) = result.findings
        assert (finding.path, finding.line) == ("mod.py", 2)
        assert str(finding).startswith("mod.py:2:")

    def test_syntax_error_reported_not_raised(self):
        result = check_source("def broken(:\n", path="bad.py")
        (finding,) = result.findings
        assert finding.rule_id == SYNTAX_ERROR_ID
        assert not result.clean

    def test_suppressed_findings_are_kept_separately(self):
        src = "import time\nt0 = time.time()  # staticcheck: ignore[wallclock-timing] - stamp\n"
        result = check_source(src)
        assert result.clean
        assert [f.rule_id for f in result.suppressed] == ["wallclock-timing"]

    def test_findings_sorted_by_location(self):
        src = textwrap.dedent(
            """
            import time
            def _f(x, acc=[]):
                return x == 0.5
            t0 = time.time()
            """
        )
        result = check_source(src)
        assert [f.line for f in result.findings] == sorted(f.line for f in result.findings)
        assert len(result.findings) == 3


class TestCheckPaths:
    def test_directory_walk_and_counts(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "dirty.py").write_text(TRIGGER)
        (tmp_path / "pkg" / "clean.py").write_text("X = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "junk.py").write_text(TRIGGER)
        result = check_paths([tmp_path])
        assert result.files_checked == 2
        assert [f.rule_id for f in result.findings] == ["wallclock-timing"]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            check_paths([tmp_path / "nope"])

    def test_iter_python_files_dedupes(self, tmp_path):
        f = tmp_path / "a.py"
        f.write_text("X = 1\n")
        assert iter_python_files([f, tmp_path]) == [f]

    def test_existing_non_python_file_raises_usage_error(self, tmp_path):
        readme = tmp_path / "README.md"
        readme.write_text("# not python\n")
        with pytest.raises(UsageError):
            iter_python_files([readme])

    def test_non_python_file_inside_directory_is_still_skipped(self, tmp_path):
        (tmp_path / "README.md").write_text("# not python\n")
        (tmp_path / "ok.py").write_text("X = 1\n")
        assert [p.name for p in iter_python_files([tmp_path])] == ["ok.py"]


class TestRelativeImports:
    def test_relative_import_resolves_to_absolute_name(self, tmp_path):
        pkg = tmp_path / "pkg"
        sub = pkg / "sub"
        sub.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (sub / "__init__.py").write_text("")
        (sub / "mod.py").write_text(
            "from . import sibling\n"
            "from .sibling import helper\n"
            "from ..other import thing as t\n"
        )
        from repro.staticcheck.project.summary import build_import_table, module_name_for_path
        import ast

        name, is_pkg = module_name_for_path(sub / "mod.py")
        assert (name, is_pkg) == ("pkg.sub.mod", False)
        table = build_import_table(ast.parse((sub / "mod.py").read_text()), name, is_pkg)
        assert table["sibling"] == "pkg.sub.sibling"
        assert table["helper"] == "pkg.sub.sibling.helper"
        assert table["t"] == "pkg.other.thing"

    def test_relative_import_above_package_root_is_skipped(self):
        from repro.staticcheck.project.summary import resolve_relative

        assert resolve_relative("pkg.mod", False, 3, "x") is None


class TestRegistry:
    def test_all_seven_rules_registered(self):
        expected = {
            "unseeded-rng",
            "wallclock-timing",
            "float-equality",
            "mutable-default",
            "silent-except",
            "export-drift",
            "unordered-iteration",
        }
        assert expected <= set(all_rules())

    def test_select_and_ignore(self):
        only = resolve_rules(select=["float-equality"])
        assert [r.id for r in only] == ["float-equality"]
        rest = resolve_rules(ignore=["float-equality"])
        assert "float-equality" not in [r.id for r in rest]

    def test_unknown_rule_id(self):
        with pytest.raises(KeyError):
            resolve_rules(select=["no-such-rule"])

    def test_every_rule_has_description(self):
        for cls in all_rules().values():
            assert cls.description


class TestReporters:
    def test_text_report_has_summary(self):
        result = check_source(TRIGGER, path="mod.py")
        text = render_text(result)
        assert "mod.py:2:" in text
        assert "1 finding (0 suppressed) in 1 file" in text

    def test_json_report_round_trips(self):
        result = check_source(TRIGGER, path="mod.py")
        doc = json.loads(render_json(result))
        assert doc["version"] == 2
        assert doc["files_checked"] == 1
        assert doc["baselined"] == []
        (finding,) = doc["findings"]
        assert finding["rule"] == "wallclock-timing"
        assert finding["suppressed"] is False

    def test_finding_to_dict(self):
        f = Finding(path="a.py", line=3, col=1, rule_id="x-y", message="m")
        assert f.to_dict() == {
            "path": "a.py",
            "line": 3,
            "col": 1,
            "rule": "x-y",
            "message": "m",
            "suppressed": False,
        }
