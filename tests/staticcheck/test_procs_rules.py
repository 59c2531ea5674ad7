"""Procs-tier rules: fork-safety, boundary escapes, worker-side effects.

Each of the four process-boundary rules has a *seeded trigger* fixture
(exactly one finding, at the right line, in the findings list and in both
the JSON and SARIF renders) and a *clean sibling* that differs only in
the property the rule checks — most importantly the start-method pair:
the identical inherited-lock module is flagged under (possible) fork and
clean once ``set_start_method("spawn")`` pins the boundary.
"""

import json
import textwrap

import pytest

from repro.staticcheck import check_paths, render_json, render_sarif
from repro.staticcheck.procs.facts import HANDLE_FACTORIES, PROCESS_FANOUT_BASENAMES
from repro.staticcheck.procs.rules import (
    BlockingInWorkerRule,
    BoundaryEscapeRule,
    ChildGlobalDivergenceRule,
    ForkUnsafeInheritanceRule,
)
from repro.staticcheck.registry import all_project_rules

PROCS_RULE_IDS = [
    "blocking-in-worker",
    "boundary-escape",
    "child-global-divergence",
    "fork-unsafe-inheritance",
]


def procs_rules():
    return [
        BlockingInWorkerRule(),
        BoundaryEscapeRule(),
        ChildGlobalDivergenceRule(),
        ForkUnsafeInheritanceRule(),
    ]


def check_pkg(tmp_path, source):
    """Analyze ``pkg/mod.py`` with every procs rule (and only those)."""
    pkg = tmp_path / "pkg"
    pkg.mkdir(exist_ok=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(textwrap.dedent(source))
    return check_paths([pkg], rules=[], project_rules=procs_rules())


def rows(result):
    return [(f.rule_id, f.line) for f in result.findings]


#: Trigger — a module-level tracked lock acquired by the Process target,
#: with no start method pinned (fork-possible): flagged at the spawn.
FORK_UNSAFE_BUG = """\
import multiprocessing

from repro.sanitizers import new_lock

_model_lock = new_lock("pkg.mod._model_lock")


def refresh():
    with _model_lock:
        return 1


def launch():
    worker = multiprocessing.Process(target=refresh)
    worker.start()
    return worker
"""

#: Clean sibling — identical module, but the 'spawn' start method is
#: pinned, so the child imports fresh and inherits nothing.
FORK_UNSAFE_PINNED = FORK_UNSAFE_BUG.replace(
    'from repro.sanitizers import new_lock\n',
    'from repro.sanitizers import new_lock\n\nmultiprocessing.set_start_method("spawn")\n',
)

#: Trigger — a lambda handed to a process-backend ``parallel_map``.
ESCAPE_BUG = """\
from repro.parallel.executor import ExecutorConfig, parallel_map


def fanout(items):
    config = ExecutorConfig(backend="process", n_workers=2)
    return parallel_map(lambda x: x + 1, items, config=config)
"""

#: Clean sibling — the task is a module-level function.
ESCAPE_CLEAN = """\
from repro.parallel.executor import ExecutorConfig, parallel_map


def add_one(x):
    return x + 1


def fanout(items):
    config = ExecutorConfig(backend="process", n_workers=2)
    return parallel_map(add_one, items, config=config)
"""

#: Trigger — the worker target mutates a module-level dict; the update
#: lands in the child process and the parent never sees it.
DIVERGENCE_BUG = """\
import multiprocessing

COUNTS = {}


def tally(path):
    COUNTS[path] = COUNTS.get(path, 0) + 1


def launch(path):
    worker = multiprocessing.Process(target=tally, args=(path,))
    worker.start()
"""

#: Clean sibling — the worker returns its result instead.
DIVERGENCE_CLEAN = """\
import multiprocessing


def tally(path):
    return {path: 1}


def launch(path):
    worker = multiprocessing.Process(target=tally, args=(path,))
    worker.start()
"""

#: Trigger — ``predict`` (hot by entry-point name) runs on the worker
#: side of a process-backend ``parallel_map`` and blocks on the clock.
BLOCKING_BUG = """\
import time

from repro.parallel.executor import ExecutorConfig, parallel_map


def predict(row):
    time.sleep(0.01)
    return row


def serve(rows):
    config = ExecutorConfig(backend="process", n_workers=4)
    return parallel_map(predict, rows, config=config)
"""

#: Clean sibling — same body, but the worker function is not hot.
BLOCKING_COLD = BLOCKING_BUG.replace("predict", "transform")

RULE_FIXTURES = {
    "fork-unsafe-inheritance": (FORK_UNSAFE_BUG, FORK_UNSAFE_PINNED, 14),
    "boundary-escape": (ESCAPE_BUG, ESCAPE_CLEAN, 6),
    "child-global-divergence": (DIVERGENCE_BUG, DIVERGENCE_CLEAN, 7),
    "blocking-in-worker": (BLOCKING_BUG, BLOCKING_COLD, 7),
}


class TestRegistry:
    def test_every_procs_rule_is_registered(self):
        assert set(PROCS_RULE_IDS) <= set(all_project_rules())

    def test_fact_registries_are_sane(self):
        assert HANDLE_FACTORIES["open"] == "open file handle"
        assert "parallel_map" in PROCESS_FANOUT_BASENAMES


class TestEveryRuleFiresExactlyOnce:
    @pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
    def test_trigger_yields_exactly_one_finding(self, rule, tmp_path):
        source, _clean, line = RULE_FIXTURES[rule]
        assert rows(check_pkg(tmp_path, source)) == [(rule, line)]

    @pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
    def test_clean_sibling_is_silent(self, rule, tmp_path):
        _source, clean, _line = RULE_FIXTURES[rule]
        assert rows(check_pkg(tmp_path, clean)) == []

    @pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
    def test_json_render_carries_the_same_single_finding(self, rule, tmp_path):
        source, _clean, line = RULE_FIXTURES[rule]
        doc = json.loads(render_json(check_pkg(tmp_path, source)))
        assert [(f["rule"], f["line"]) for f in doc["findings"]] == [(rule, line)]

    @pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
    def test_sarif_render_carries_the_same_single_finding(self, rule, tmp_path):
        source, _clean, line = RULE_FIXTURES[rule]
        doc = json.loads(render_sarif(check_pkg(tmp_path, source)))
        results = doc["runs"][0]["results"]
        assert len(results) == 1
        assert results[0]["ruleId"] == rule
        region = results[0]["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == line


class TestStartMethodSensitivity:
    """The satellite pair: same module, flagged under fork, clean under spawn."""

    def test_unpinned_boundary_counts_as_fork_and_is_flagged(self, tmp_path):
        result = check_pkg(tmp_path, FORK_UNSAFE_BUG)
        assert rows(result) == [("fork-unsafe-inheritance", 14)]
        message = result.findings[0].message
        assert "mod._model_lock" in message
        assert "unpinned" in message and "fork" in message

    def test_spawn_pin_clears_the_same_module(self, tmp_path):
        assert rows(check_pkg(tmp_path, FORK_UNSAFE_PINNED)) == []

    def test_site_level_spawn_context_also_clears_it(self, tmp_path):
        pinned_at_site = FORK_UNSAFE_BUG.replace(
            "    worker = multiprocessing.Process(target=refresh)",
            '    ctx = multiprocessing.get_context("spawn")\n'
            "    worker = ctx.Process(target=refresh)",
        )
        assert rows(check_pkg(tmp_path, pinned_at_site)) == []

    def test_fork_pin_is_still_flagged(self, tmp_path):
        pinned_fork = FORK_UNSAFE_PINNED.replace('"spawn"', '"fork"')
        result = check_pkg(tmp_path, pinned_fork)
        assert [f.rule_id for f in result.findings] == ["fork-unsafe-inheritance"]
        assert "'fork' start method" in result.findings[0].message


class TestBoundaryEscapeVariants:
    def test_lambda_finding_names_the_object_path(self, tmp_path):
        result = check_pkg(tmp_path, ESCAPE_BUG)
        assert "lambda" in result.findings[0].message

    def test_module_level_lock_passed_as_argument(self, tmp_path):
        source = """\
        import multiprocessing

        from repro.sanitizers import new_lock

        _lock = new_lock("pkg.mod._lock")


        def worker(lock):
            return lock


        def launch():
            proc = multiprocessing.Process(target=worker, args=(_lock,))
            proc.start()
        """
        result = check_pkg(tmp_path, source)
        assert rows(result) == [("boundary-escape", 13)]
        assert "cannot synchronize across" in result.findings[0].message

    def test_nested_closure_target_is_flagged(self, tmp_path):
        source = """\
        from repro.parallel.executor import ExecutorConfig, parallel_map


        def fanout(items, scale):
            def task(x):
                return x * scale

            config = ExecutorConfig(backend="process", n_workers=2)
            return parallel_map(task, items, config=config)
        """
        result = check_pkg(tmp_path, source)
        assert rows(result) == [("boundary-escape", 9)]
        assert "fanout.<locals>.task" in result.findings[0].message


class TestSuppression:
    def test_inline_ignore_is_honoured(self, tmp_path):
        suppressed = ESCAPE_BUG.replace(
            "    return parallel_map(lambda x: x + 1, items, config=config)",
            "    return parallel_map(lambda x: x + 1, items, config=config)"
            "  # staticcheck: ignore[boundary-escape] - thread backend in tests",
        )
        result = check_pkg(tmp_path, suppressed)
        assert result.findings == []
        assert [f.rule_id for f in result.suppressed] == ["boundary-escape"]
