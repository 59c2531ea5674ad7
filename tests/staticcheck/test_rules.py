"""Per-rule coverage: a triggering snippet, a clean one, a suppressed one."""

import textwrap

from repro.staticcheck import check_source, resolve_rules


def run_rule(rule_id, source):
    """Findings + suppressed lists for one rule over one snippet."""
    result = check_source(
        textwrap.dedent(source), path="snippet.py", rules=resolve_rules(select=[rule_id])
    )
    return result


def fires(rule_id, source):
    return [f.rule_id for f in run_rule(rule_id, source).findings]


class TestUnseededRng:
    def test_default_rng_without_seed_fires(self):
        src = """
        import numpy as np
        rng = np.random.default_rng()
        """
        assert fires("unseeded-rng", src) == ["unseeded-rng"]

    def test_legacy_global_numpy_fires(self):
        src = """
        import numpy as np
        x = np.random.rand(3)
        """
        assert fires("unseeded-rng", src) == ["unseeded-rng"]

    def test_stdlib_global_fires(self):
        src = """
        import random
        x = random.random()
        """
        assert fires("unseeded-rng", src) == ["unseeded-rng"]

    def test_from_import_alias_resolved(self):
        src = """
        from numpy.random import default_rng
        rng = default_rng()
        """
        assert fires("unseeded-rng", src) == ["unseeded-rng"]

    def test_seeded_is_clean(self):
        src = """
        import numpy as np
        import random
        a = np.random.default_rng(42)
        b = np.random.default_rng(seed=7)
        c = random.Random(0)
        """
        assert fires("unseeded-rng", src) == []

    def test_generator_methods_are_clean(self):
        src = """
        import numpy as np
        rng = np.random.default_rng(0)
        x = rng.random(10)
        y = rng.choice([1, 2, 3])
        """
        assert fires("unseeded-rng", src) == []

    def test_suppression(self):
        src = """
        import numpy as np
        rng = np.random.default_rng()  # staticcheck: ignore[unseeded-rng] - fallback entropy
        """
        result = run_rule("unseeded-rng", src)
        assert result.findings == []
        assert [f.rule_id for f in result.suppressed] == ["unseeded-rng"]
        assert result.suppressed[0].suppressed is True


class TestWallclockTiming:
    def test_time_time_fires(self):
        src = """
        import time
        t0 = time.time()
        """
        assert fires("wallclock-timing", src) == ["wallclock-timing"]

    def test_from_import_fires(self):
        src = """
        from time import time
        t0 = time()
        """
        assert fires("wallclock-timing", src) == ["wallclock-timing"]

    def test_perf_counter_is_clean(self):
        src = """
        import time
        t0 = time.perf_counter()
        dt = time.monotonic()
        """
        assert fires("wallclock-timing", src) == []

    def test_suppression(self):
        src = """
        import time
        stamp = time.time()  # staticcheck: ignore[wallclock-timing] - row timestamp, not a duration
        """
        result = run_rule("wallclock-timing", src)
        assert result.findings == []
        assert len(result.suppressed) == 1


class TestFloatEquality:
    def test_float_literal_comparison_fires(self):
        src = """
        def at_ridge(op):
            return op == 3.3
        """
        assert fires("float-equality", src) == ["float-equality"]

    def test_float_call_comparison_fires(self):
        src = """
        def f(a, b):
            return float(a) != b
        """
        assert fires("float-equality", src) == ["float-equality"]

    def test_integer_and_shape_comparisons_clean(self):
        src = """
        def f(a, b, n):
            if a.shape != b.shape:
                raise ValueError
            return n == 0
        """
        assert fires("float-equality", src) == []

    def test_ordering_comparisons_clean(self):
        src = """
        def classify(op):
            return op > 3.3
        """
        assert fires("float-equality", src) == []

    def test_suppression(self):
        src = """
        def dispatch(p):
            return p == 2.0  # staticcheck: ignore[float-equality] - exact parameter dispatch
        """
        result = run_rule("float-equality", src)
        assert result.findings == []
        assert len(result.suppressed) == 1


class TestMutableDefault:
    def test_list_default_fires(self):
        src = """
        def f(x, acc=[]):
            return acc
        """
        assert fires("mutable-default", src) == ["mutable-default"]

    def test_kwonly_dict_default_fires(self):
        src = """
        def f(*, cache={}):
            return cache
        """
        assert fires("mutable-default", src) == ["mutable-default"]

    def test_factory_call_default_fires(self):
        src = """
        def f(x, seen=set()):
            return seen
        """
        assert fires("mutable-default", src) == ["mutable-default"]

    def test_none_default_clean(self):
        src = """
        def f(x, acc=None, name="x", k=3, scale=1.0, opts=()):
            return acc
        """
        assert fires("mutable-default", src) == []

    def test_suppression(self):
        src = """
        def f(x, acc=[]):  # staticcheck: ignore[mutable-default] - intentional memo shared across calls
            return acc
        """
        result = run_rule("mutable-default", src)
        assert result.findings == []
        assert len(result.suppressed) == 1


class TestSilentExcept:
    def test_bare_except_pass_fires(self):
        src = """
        try:
            work()
        except:
            pass
        """
        assert fires("silent-except", src) == ["silent-except"]

    def test_broad_except_pass_fires(self):
        src = """
        try:
            work()
        except Exception:
            pass
        """
        assert fires("silent-except", src) == ["silent-except"]

    def test_narrow_except_is_trusted(self):
        src = """
        try:
            work()
        except ValueError:
            pass
        """
        assert fires("silent-except", src) == []

    def test_broad_but_reraised_clean(self):
        src = """
        try:
            work()
        except Exception as exc:
            raise RuntimeError("wrapped") from exc
        """
        assert fires("silent-except", src) == []

    def test_broad_but_logged_clean(self):
        src = """
        try:
            work()
        except Exception:
            log.exception("training step failed")
        """
        assert fires("silent-except", src) == []

    def test_broad_using_bound_error_clean(self):
        src = """
        try:
            work()
        except Exception as exc:
            failures.append(exc)
        """
        assert fires("silent-except", src) == []

    def test_suppression(self):
        src = """
        try:
            work()
        except Exception:  # staticcheck: ignore[silent-except] - best-effort cache warm, failure is benign
            pass
        """
        result = run_rule("silent-except", src)
        assert result.findings == []
        assert len(result.suppressed) == 1


class TestExportDrift:
    def test_missing_all_fires_at_line_one(self):
        src = """\
        def public_api():
            pass
        """
        result = run_rule("export-drift", src)
        assert [(f.rule_id, f.line) for f in result.findings] == [("export-drift", 1)]

    def test_drifted_name_fires(self):
        src = """
        __all__ = ["renamed_away"]

        def current_name():
            pass
        """
        assert fires("export-drift", src) == ["export-drift"]

    def test_honest_all_clean(self):
        src = """
        import os

        __all__ = ["helper", "CONST", "os"]

        CONST = 1

        def helper():
            pass
        """
        assert fires("export-drift", src) == []

    def test_private_only_module_clean(self):
        src = """
        def _internal():
            pass
        """
        assert fires("export-drift", src) == []

    def test_suppression_via_standalone_comment(self):
        src = """\
        # staticcheck: ignore[export-drift] - script, not a library module
        def public_api():
            pass
        """
        result = run_rule("export-drift", src)
        assert result.findings == []
        assert len(result.suppressed) == 1


class TestUnorderedIteration:
    def test_for_over_set_call_fires(self):
        src = """
        for name in set(feature_names):
            encode(name)
        """
        assert fires("unordered-iteration", src) == ["unordered-iteration"]

    def test_comprehension_over_set_literal_fires(self):
        src = """
        cols = [encode(x) for x in {"user", "name", "cores"}]
        """
        assert fires("unordered-iteration", src) == ["unordered-iteration"]

    def test_set_algebra_fires(self):
        src = """
        for k in seen | set(new):
            fit(k)
        """
        assert fires("unordered-iteration", src) == ["unordered-iteration"]

    def test_sorted_set_is_clean(self):
        src = """
        for name in sorted(set(feature_names)):
            encode(name)
        """
        assert fires("unordered-iteration", src) == []

    def test_list_iteration_clean(self):
        src = """
        for name in feature_names:
            encode(name)
        """
        assert fires("unordered-iteration", src) == []

    def test_suppression(self):
        src = """
        for name in set(feature_names):  # staticcheck: ignore[unordered-iteration] - feeds a counter, order-free
            count(name)
        """
        result = run_rule("unordered-iteration", src)
        assert result.findings == []
        assert len(result.suppressed) == 1
