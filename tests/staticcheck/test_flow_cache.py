"""Warm-cache behaviour of the flow tier.

A warm run must reproduce the cold run's report byte for byte, and the
flow work counters must cover cold files only: a cache hit rebuilds no
CFG and runs no fixpoint.
"""

import textwrap

from repro.staticcheck import check_paths, render_json, resolve_rules

FLOW_RULES = ["resource-leak", "double-release"]


def make_project(tmp_path):
    """pkg.use -> pkg.files (import edge); pkg.other standalone.

    ``load`` leaks its file handle when ``read_all`` raises, so the
    report carries one finding.
    """
    pkg = tmp_path / "pkg"
    pkg.mkdir(exist_ok=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "files.py").write_text(
        textwrap.dedent(
            """
            def read_all(path):
                with open(path) as fh:
                    return fh.read()
            """
        )
    )
    (pkg / "use.py").write_text(
        textwrap.dedent(
            """
            from pkg.files import read_all


            def load(path, other):
                fh = open(path)
                data = read_all(other)
                fh.close()
                return data
            """
        )
    )
    (pkg / "other.py").write_text("OTHER = 1\n")
    return pkg


def check(pkg, cache):
    return check_paths([pkg], cache_path=cache, rules=resolve_rules(select=FLOW_RULES))


class TestWarmReplay:
    def test_untouched_warm_run_reproduces_cold_output(self, tmp_path):
        pkg = make_project(tmp_path)
        cache = tmp_path / "cache.json"
        cold = check(pkg, cache)
        assert [f.rule_id for f in cold.findings] == ["resource-leak"]
        warm = check(pkg, cache)
        assert warm.stats.cache_hits == 4 and warm.stats.cache_misses == 0
        assert render_json(warm) == render_json(cold)


class TestFlowStatistics:
    def test_cold_run_counts_flow_work(self, tmp_path):
        pkg = make_project(tmp_path)
        cold = check(pkg, tmp_path / "cache.json")
        # 4 files, each with a module graph; two also have a function.
        assert cold.stats.flow_cfgs >= 6
        assert cold.stats.flow_blocks >= cold.stats.flow_cfgs
        assert cold.stats.flow_iterations > 0

    def test_warm_run_counts_no_flow_work(self, tmp_path):
        """Flow counters cover cold files only: a fully-warm run rebuilds
        no CFGs and runs no fixpoints."""
        pkg = make_project(tmp_path)
        cache = tmp_path / "cache.json"
        check(pkg, cache)
        warm = check(pkg, cache)
        assert warm.stats.flow_cfgs == 0
        assert warm.stats.flow_blocks == 0
        assert warm.stats.flow_iterations == 0
