"""Perf-tier rules: hot-path vectorization.

The *seeded-bug* fixture is a scalar per-row loop introduced into a
fixture copy of ``_PackedForest.predict``.  It must produce exactly one
finding at the right line — in the findings list, in the JSON render and
in the SARIF render — and so must a minimal fixture for every other perf
rule.
"""

import json
import textwrap

import pytest

from repro.staticcheck import (
    check_paths,
    check_source,
    render_json,
    render_sarif,
    resolve_rules,
)
from repro.staticcheck.perf.hotpath import (
    BATCH_CONTRACTS,
    ENTRY_POINTS,
    hot_functions,
    hotpath_lines,
)

PERF_RULES = [
    "scalar-loop",
    "per-item-call",
    "loop-alloc",
    "quadratic-growth",
    "hidden-copy",
]


def run(source, *, select=PERF_RULES, path="snippet.py"):
    return check_source(
        textwrap.dedent(source), path=path, rules=resolve_rules(select=select)
    )


def findings_of(source, **kwargs):
    return [(f.rule_id, f.line, f.message) for f in run(source, **kwargs).findings]


#: The seeded-bug fixture — a fixture copy of ``_PackedForest.predict``
#: devectorized into a per-row Python loop (line 6).  ``predict`` is hot
#: by entry-point name alone, no annotation needed.
FOREST_BUG = """\
import numpy as np


class _PackedForest:
    def predict(self, X, out):
        for i in range(X.shape[0]):
            out[i] = self._route(X[i])
        return out
"""

#: Minimal exactly-one-finding fixture per remaining perf rule.
RULE_FIXTURES = {
    "per-item-call": (
        """\
        import numpy as np


        def predict_records(model, batch):
            out = []
            for row in batch:
                out.append(model.predict(row))
            return out
        """,
        7,
    ),
    "loop-alloc": (
        """\
        import numpy as np


        def encode(batch):
            total = np.zeros(8)
            for row in batch:
                buf = np.zeros(8)
                total += buf + row
            return total
        """,
        7,
    ),
    "quadratic-growth": (
        """\
        import numpy as np


        def query(chunks):
            acc = np.zeros(0)
            for part in chunks:
                acc = np.concatenate([acc, part])
            return acc
        """,
        7,
    ),
    "hidden-copy": (
        """\
        import numpy as np


        def kneighbors(pairs):
            merged = []
            for a, b in pairs:
                merged.append(np.vstack([a, b]))
            return merged
        """,
        7,
    ),
}
RULE_FIXTURES["scalar-loop"] = (FOREST_BUG, 6)


class TestSeededForestBug:
    def test_exactly_one_finding_at_the_loop(self):
        result = run(FOREST_BUG)
        assert [(f.rule_id, f.line) for f in result.findings] == [("scalar-loop", 6)]
        assert "row by row" in result.findings[0].message
        assert "vectorized" in result.findings[0].message

    def test_cold_copy_of_the_same_loop_is_silent(self):
        # identical body, but the method is not an entry point and carries
        # no # hotpath: annotation — the vectorization tier must not fire
        assert findings_of(FOREST_BUG.replace("def predict", "def route_all")) == []


class TestEveryRuleInBothRenders:
    @pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
    def test_exactly_one_finding(self, rule):
        source, line = RULE_FIXTURES[rule]
        result = run(source)
        assert [(f.rule_id, f.line) for f in result.findings] == [(rule, line)]

    @pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
    def test_json_render_carries_the_same_single_finding(self, rule):
        source, line = RULE_FIXTURES[rule]
        doc = json.loads(render_json(run(source)))
        assert [(f["rule"], f["line"]) for f in doc["findings"]] == [(rule, line)]

    @pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
    def test_sarif_render_carries_the_same_single_finding(self, rule):
        source, line = RULE_FIXTURES[rule]
        doc = json.loads(render_sarif(run(source)))
        results = doc["runs"][0]["results"]
        assert len(results) == 1
        assert results[0]["ruleId"] == rule
        region = results[0]["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == line


class TestHotPathDerivation:
    def test_registries_are_sane(self):
        # the batch-contract registry is a subset of the entry points: an
        # API with a batched calling convention is itself serve-path hot
        assert BATCH_CONTRACTS <= ENTRY_POINTS
        assert "predict" in BATCH_CONTRACTS and "encode" in BATCH_CONTRACTS

    def test_hotpath_lines_parses_comments_only(self):
        src = 'msg = "# hotpath: not a comment"\nx = 1  # hotpath: real one\n'
        assert hotpath_lines(src) == {2: "real one"}

    def test_annotation_makes_a_helper_hot(self):
        src = """\
        import numpy as np


        def scale_rows(X, w):  # hotpath: called per serve batch
            for i in range(X.shape[0]):
                X[i] *= w
        """
        assert [(r, l) for r, l, _ in findings_of(src)] == [("scalar-loop", 5)]
        # without the annotation the same body is cold and silent
        assert findings_of(src.replace("  # hotpath: called per serve batch", "")) == []

    def test_intra_module_closure_reaches_helpers(self):
        src = """\
        import numpy as np


        def _accumulate(X):
            for i in range(X.shape[0]):
                X[i] += 1.0
            return X


        def predict(X):
            return _accumulate(X)
        """
        result = run(src)
        assert [(f.rule_id, f.line) for f in result.findings] == [("scalar-loop", 5)]
        hot = hot_functions(result_module(src))
        assert set(hot) == {"predict", "_accumulate"}

    def test_batched_call_in_iterator_position_is_not_per_item(self):
        src = """\
        def serve(model, X):
            out = []
            for row in model.predict(X):
                out.append(row)
            return out
        """
        assert findings_of(src) == []


def result_module(source):
    """A ModuleContext for white-box hot-set assertions."""
    import ast

    from repro.staticcheck.engine import ModuleContext

    text = textwrap.dedent(source)
    return ModuleContext(path="snippet.py", source=text, tree=ast.parse(text))


class TestSuppression:
    def test_inline_ignore_is_honoured(self):
        src = """\
        import numpy as np


        def predict(self, X, out):
            for i in range(X.shape[0]):  # staticcheck: ignore[scalar-loop] - tiny fixed batch
                out[i] = X[i] + 1.0
            return out
        """
        result = run(src)
        assert result.findings == []
        assert [f.rule_id for f in result.suppressed] == ["scalar-loop"]

    def test_stale_perf_suppression_is_audited(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text(
            textwrap.dedent(
                """\
                import numpy as np

                __all__ = ["predict"]


                def predict(X):
                    return X + 1.0  # staticcheck: ignore[loop-alloc]
                """
            )
        )
        result = check_paths([target])
        rows = [f for f in result.findings if f.rule_id == "unused-suppression"]
        assert len(rows) == 1
        assert "ignore[loop-alloc]" in rows[0].message


class TestHotPathGap:
    def write_project(self, tmp_path, *, annotated):
        pkg = tmp_path / "pkg"
        pkg.mkdir(exist_ok=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "serve.py").write_text(
            textwrap.dedent(
                """\
                from pkg.helpers import scale


                def predict(X):
                    return scale(X)
                """
            )
        )
        tag = "  # hotpath: scaled per predict request" if annotated else ""
        (pkg / "helpers.py").write_text(
            textwrap.dedent(
                f"""\
                def scale(X):{tag}
                    return X * 2.0
                """
            )
        )
        return pkg

    def check_gap(self, pkg):
        from repro.staticcheck.perf.hotpath import HotPathGapRule

        result = check_paths([pkg], rules=[], project_rules=[HotPathGapRule()])
        return [f for f in result.findings if f.rule_id == "hot-path-gap"]

    def test_cross_module_hot_callee_demands_annotation(self, tmp_path):
        pkg = self.write_project(tmp_path, annotated=False)
        rows = self.check_gap(pkg)
        assert [(f.path, f.line) for f in rows] == [(str(pkg / "helpers.py"), 1)]
        assert "pkg.serve.predict" in rows[0].message
        assert "# hotpath:" in rows[0].message

    def test_annotated_callee_closes_the_gap(self, tmp_path):
        pkg = self.write_project(tmp_path, annotated=True)
        assert self.check_gap(pkg) == []


class TestHiddenCopyVariants:
    def test_fancy_index_with_literal_list(self):
        src = """\
        import numpy as np


        def encode(X):
            return X[[0, 2, 5]]
        """
        assert [(r, l) for r, l, _ in findings_of(src)] == [("hidden-copy", 5)]

    def test_reshape_of_transpose(self):
        src = """\
        import numpy as np


        def predict(X):
            return X.T.reshape(-1)
        """
        assert [(r, l) for r, l, _ in findings_of(src)] == [("hidden-copy", 5)]

