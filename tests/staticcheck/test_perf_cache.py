"""Warm-cache behaviour of the perf tier.

The acceptance criterion for the perf tier's cache integration: editing
*only* a ``# hotpath:`` comment must invalidate the file on the next
warm run — the annotation is analysis input (it decides which functions
the vectorization rules even look at) even though it is dead weight to
the Python runtime.
"""

import textwrap

from repro.staticcheck import check_paths, render_json, resolve_rules

PERF_RULES = [
    "scalar-loop",
    "per-item-call",
    "loop-alloc",
    "quadratic-growth",
    "hidden-copy",
]


def make_project(tmp_path, *, annotated):
    """One module whose only hot-path evidence is a ``# hotpath:`` comment."""
    pkg = tmp_path / "pkg"
    pkg.mkdir(exist_ok=True)
    (pkg / "__init__.py").write_text("")
    tag = "  # hotpath: drains the serve queue" if annotated else ""
    (pkg / "drain.py").write_text(
        textwrap.dedent(
            f"""\
            import numpy as np


            def drain(X, out):{tag}
                for i in range(X.shape[0]):
                    out[i] = X[i] + 1.0
                return out
            """
        )
    )
    (pkg / "other.py").write_text("OTHER = 1\n")
    return pkg


def check(pkg, cache):
    return check_paths([pkg], cache_path=cache, rules=resolve_rules(select=PERF_RULES))


class TestHotpathCommentInvalidation:
    def test_comment_only_edit_reanalyzes_the_file(self, tmp_path):
        pkg = make_project(tmp_path, annotated=False)
        cache = tmp_path / "cache.json"

        cold = check(pkg, cache)
        assert cold.findings == []  # drain() is cold: no annotation, no entry name

        # Edit ONLY the comment: same runtime bytecode, different analysis
        # input.  The file's content hash changes, the entry is discarded,
        # and the loop is now on a hot path.
        make_project(tmp_path, annotated=True)
        warm = check(pkg, cache)
        assert [(f.rule_id, f.line) for f in warm.findings] == [("scalar-loop", 5)]
        assert warm.stats.cache_misses == 1
        assert warm.stats.cache_hits == 2

    def test_untouched_warm_run_reproduces_cold_output(self, tmp_path):
        pkg = make_project(tmp_path, annotated=True)
        cache = tmp_path / "cache.json"
        cold = check(pkg, cache)
        warm = check(pkg, cache)
        assert warm.stats.cache_hits == 3 and warm.stats.cache_misses == 0
        assert render_json(warm) == render_json(cold)


class TestPerfStatistics:
    def test_cold_run_counts_perf_work_and_warm_run_skips_it(self, tmp_path):
        pkg = make_project(tmp_path, annotated=True)
        cache = tmp_path / "cache.json"
        cold = check(pkg, cache)
        # drain() is hot (annotation); the empty __init__/other
        # contribute nothing
        assert cold.stats.perf_hot_functions >= 1
        warm = check(pkg, cache)
        assert warm.stats.perf_hot_functions == 0
