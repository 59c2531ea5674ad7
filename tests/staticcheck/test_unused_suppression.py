"""The stale-suppression audit: ``ignore[rule]`` directives that silence
nothing are themselves findings, gated on the rules that actually ran."""

import textwrap

from repro.staticcheck import check_paths
from repro.staticcheck.registry import all_rules


def write_module(tmp_path, source, name="m.py"):
    target = tmp_path / name
    target.write_text(textwrap.dedent(source))
    return target


def unused_findings(result):
    return [f for f in result.findings if f.rule_id == "unused-suppression"]


class TestUnusedSuppression:
    def test_stale_directive_is_flagged(self, tmp_path):
        target = write_module(
            tmp_path,
            """
            import numpy as np

            __all__ = ["seeded"]

            def seeded():
                return np.random.default_rng(0)  # staticcheck: ignore[unseeded-rng]
            """,
        )
        (finding,) = unused_findings(check_paths([target]))
        assert "ignore[unseeded-rng]" in finding.message
        assert finding.line == 7

    def test_used_directive_is_not_flagged(self, tmp_path):
        target = write_module(
            tmp_path,
            """
            import numpy as np

            __all__ = ["unseeded"]

            def unseeded():
                return np.random.default_rng()  # staticcheck: ignore[unseeded-rng]
            """,
        )
        result = check_paths([target])
        assert unused_findings(result) == []
        assert [f.rule_id for f in result.suppressed] == ["unseeded-rng"]

    def test_standalone_directive_covering_next_line_counts_as_used(self, tmp_path):
        target = write_module(
            tmp_path,
            """
            import numpy as np

            __all__ = ["unseeded"]

            def unseeded():
                # staticcheck: ignore[unseeded-rng]
                return np.random.default_rng()
            """,
        )
        assert unused_findings(check_paths([target])) == []

    def test_rule_that_did_not_run_is_not_audited(self, tmp_path):
        target = write_module(
            tmp_path,
            """
            import numpy as np

            __all__ = ["seeded"]

            def seeded():
                return np.random.default_rng(0)  # staticcheck: ignore[unseeded-rng]
            """,
        )
        registry = all_rules()
        only_float = [registry["float-equality"]()]
        result = check_paths([target], rules=only_float)
        assert unused_findings(result) == []

    def test_wildcard_audited_only_on_full_runs(self, tmp_path):
        target = write_module(
            tmp_path,
            """
            __all__ = ["nothing"]

            def nothing():
                return 1  # staticcheck: ignore[*]
            """,
        )
        (finding,) = unused_findings(check_paths([target]))
        assert "ignore[*]" in finding.message

        registry = all_rules()
        partial = check_paths([target], rules=[registry["float-equality"]()])
        assert unused_findings(partial) == []

    def test_unknown_rule_id_reports_unknown_not_unused(self, tmp_path):
        target = write_module(
            tmp_path,
            """
            __all__ = ["nothing"]

            def nothing():
                return 1  # staticcheck: ignore[no-such-rule]
            """,
        )
        result = check_paths([target])
        assert unused_findings(result) == []
        assert "unknown-suppression" in [f.rule_id for f in result.findings]

    def test_unused_suppression_is_itself_suppressible(self, tmp_path):
        target = write_module(
            tmp_path,
            """
            import numpy as np

            __all__ = ["seeded"]

            def seeded():
                return np.random.default_rng(0)  # staticcheck: ignore[unseeded-rng, unused-suppression] - kept while flipping seeds
            """,
        )
        result = check_paths([target])
        assert unused_findings(result) == []
        assert "unused-suppression" in [f.rule_id for f in result.suppressed]
