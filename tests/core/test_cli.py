"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "trace"
    assert main(["generate", str(path), "--scale", "0.002", "--seed", "9"]) == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "out"])
        assert args.scale == pytest.approx(1 / 200)
        assert args.seed == 2024


class TestGenerate:
    def test_writes_trace_files(self, trace_path):
        assert trace_path.with_suffix(".npz").exists()
        assert trace_path.with_suffix(".strings.json").exists()

    def test_trace_loadable(self, trace_path):
        from repro.fugaku.trace import JobTrace

        trace = JobTrace.load(trace_path)
        assert len(trace) > 1000


class TestCharacterize:
    def test_prints_table(self, trace_path, capsys):
        assert main(["characterize", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "memory-bound" in out
        assert "ridge point" in out
        assert "ratio" in out

    def test_report_is_replayable(self, trace_path, capsys, clock_steps_back):
        # with the clock stepping, a timestamp would differ between runs
        reports = []
        for _ in range(2):
            assert main(["characterize", str(trace_path)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]


class TestEvaluate:
    def test_knn_run(self, trace_path, capsys):
        code = main([
            "evaluate", str(trace_path), "--algorithm", "KNN",
            "--alpha", "20", "--beta", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "F1=" in out
        assert "KNN alpha=20 beta=5" in out

    def test_rf_run_with_trees(self, trace_path, capsys):
        code = main([
            "evaluate", str(trace_path), "--algorithm", "RF",
            "--trees", "4", "--beta", "10",
        ])
        assert code == 0
        assert "RF alpha=15" in capsys.readouterr().out


class TestServe:
    def test_smoke_deployment(self, trace_path, capsys):
        code = main([
            "serve", "--trace", str(trace_path), "--smoke", "--train-at-day", "40",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "listening on" in out
        assert "trained on" in out
        assert '"status": "ok"' in out
