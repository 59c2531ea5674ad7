"""CLI contract: exit codes, formats, rule listing, filtering."""

import json
import subprocess
import sys
from pathlib import Path

from repro.staticcheck.cli import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS, build_parser, main

TRIGGER = "import time\nt0 = time.time()\n"
CLEAN = "import time\nt0 = time.perf_counter()\n"


def write(tmp_path, name, content):
    p = tmp_path / name
    p.write_text(content)
    return str(p)


class TestExitCodes:
    def test_clean_exits_zero(self, tmp_path, capsys):
        assert main([write(tmp_path, "ok.py", CLEAN)]) == EXIT_CLEAN

    def test_findings_exit_one(self, tmp_path, capsys):
        assert main([write(tmp_path, "bad.py", TRIGGER)]) == EXIT_FINDINGS

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.py")]) == EXIT_ERROR

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, "ok.py", CLEAN)
        assert main([path, "--select", "bogus-rule"]) == EXIT_ERROR

    def test_explicit_non_python_file_exits_two(self, tmp_path, capsys):
        readme = tmp_path / "README.md"
        readme.write_text("# not python\n")
        assert main([str(readme)]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err


class TestOutput:
    def test_text_format(self, tmp_path, capsys):
        main([write(tmp_path, "bad.py", TRIGGER)])
        out = capsys.readouterr().out
        assert "bad.py:2:" in out and "wallclock-timing" in out

    def test_json_format(self, tmp_path, capsys):
        main([write(tmp_path, "bad.py", TRIGGER), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["findings"][0]["rule"] == "wallclock-timing"

    def test_sarif_format(self, tmp_path, capsys):
        main([write(tmp_path, "bad.py", TRIGGER), "--format", "sarif"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"][0]["ruleId"] == "wallclock-timing"

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule_id in ("unseeded-rng", "export-drift", "unordered-iteration"):
            assert rule_id in out
        assert "[project] " in out and "contract-drift" in out

    def test_ignore_filters_rule(self, tmp_path, capsys):
        path = write(tmp_path, "bad.py", TRIGGER)
        assert main([path, "--ignore", "wallclock-timing"]) == EXIT_CLEAN

    def test_statistics_go_to_stderr_not_stdout(self, tmp_path, capsys):
        main([write(tmp_path, "bad.py", TRIGGER), "--format", "json", "--statistics"])
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout stays machine-parseable
        assert "files checked" in captured.err
        assert "wallclock-timing" in captured.err  # per-rule counter


class TestCacheAndBaselineFlags:
    def test_baseline_write_then_check_ratchets(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.py", TRIGGER)
        baseline = str(tmp_path / "baseline.json")
        assert main([bad, "--baseline", "write", "--baseline-file", baseline]) == EXIT_CLEAN
        assert "wrote 1 finding(s)" in capsys.readouterr().out
        assert main([bad, "--baseline", "check", "--baseline-file", baseline]) == EXIT_CLEAN
        capsys.readouterr()
        # fixing the tracked finding is announced on the next check
        write(tmp_path, "bad.py", CLEAN)
        assert main([bad, "--baseline", "check", "--baseline-file", baseline]) == EXIT_CLEAN
        assert "1 tracked finding(s) resolved" in capsys.readouterr().err

    def test_baseline_check_without_file_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, "ok.py", CLEAN)
        missing = str(tmp_path / "absent-baseline.json")
        assert main([path, "--baseline", "check", "--baseline-file", missing]) == EXIT_ERROR


class TestParser:
    def test_build_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.format == "text"
        assert args.baseline is None and args.statistics is False


class TestModuleEntryPoint:
    def test_python_dash_m_runs(self, tmp_path):
        """The documented invocation works end to end as a subprocess."""
        bad = write(tmp_path, "bad.py", TRIGGER)
        repo_src = Path(__file__).resolve().parents[2] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.staticcheck", bad],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(repo_src), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == EXIT_FINDINGS
        assert "wallclock-timing" in proc.stdout
