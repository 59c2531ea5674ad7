"""Flow-sensitive rules: unit-mismatch, resource-leak, double-release.

The two *seeded-bug* fixtures mirror the acceptance criteria: a
roofline-like function that adds Flops to Bytes, and a socket leaked
on an exception path.  Each must produce exactly one finding at the
right line — in the findings list, in the JSON render and in the SARIF
render.
"""

import json
import textwrap

from repro.staticcheck import (
    check_paths,
    check_source,
    render_json,
    render_sarif,
    resolve_rules,
)

FLOW_RULES = ["unit-mismatch", "resource-leak", "double-release"]


def run(source, *, select=FLOW_RULES, path="snippet.py"):
    return check_source(
        textwrap.dedent(source), path=path, rules=resolve_rules(select=select)
    )


def findings_of(source, **kwargs):
    return [(f.rule_id, f.line, f.message) for f in run(source, **kwargs).findings]


#: Acceptance fixture 1 — roofline math adding Flops to Bytes (line 3).
UNITS_BUG = """\
def operational_intensity(flops, moved_bytes):  # unit: flops=flops, moved_bytes=bytes -> flops/byte
    # A plausible-looking slip: "total work" mixing both axes.
    total = flops + moved_bytes
    return total / moved_bytes
"""

#: Acceptance fixture 2 — socket leaked on the exception path:
#: ``send_all`` may raise after ``socket.socket()`` (line 5) but before
#: ``close``, and nothing releases the socket on that path.
LEAK_BUG = """\
import socket


def broadcast(address, payload):
    conn = socket.socket()
    send_all(conn, address, payload)
    conn.close()
"""


class TestSeededUnitBug:
    def test_exactly_one_finding_at_the_add(self):
        result = run(UNITS_BUG)
        assert [(f.rule_id, f.line) for f in result.findings] == [("unit-mismatch", 3)]
        assert "adds flops and bytes" in result.findings[0].message

    def test_json_render_carries_the_same_single_finding(self):
        doc = json.loads(render_json(run(UNITS_BUG)))
        assert [(f["rule"], f["line"]) for f in doc["findings"]] == [
            ("unit-mismatch", 3)
        ]

    def test_sarif_render_carries_the_same_single_finding(self):
        doc = json.loads(render_sarif(run(UNITS_BUG)))
        results = doc["runs"][0]["results"]
        assert len(results) == 1
        assert results[0]["ruleId"] == "unit-mismatch"
        region = results[0]["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 3


class TestSeededResourceLeak:
    def test_exactly_one_finding_at_the_acquisition(self):
        result = run(LEAK_BUG)
        assert [(f.rule_id, f.line) for f in result.findings] == [("resource-leak", 5)]
        assert "socket" in result.findings[0].message
        assert "close()" in result.findings[0].message

    def test_json_render_carries_the_same_single_finding(self):
        doc = json.loads(render_json(run(LEAK_BUG)))
        assert [(f["rule"], f["line"]) for f in doc["findings"]] == [
            ("resource-leak", 5)
        ]

    def test_sarif_render_carries_the_same_single_finding(self):
        doc = json.loads(render_sarif(run(LEAK_BUG)))
        results = doc["runs"][0]["results"]
        assert len(results) == 1
        assert results[0]["ruleId"] == "resource-leak"
        region = results[0]["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 5


class TestUnitMismatch:
    def test_dimensionless_scaling_is_clean(self):
        """Numeric literals are polymorphic, not dimensionless-typed."""
        src = """
        def perf(flops, duration):  # unit: flops=flops, duration=s -> gflops/s
            scaled = flops / 1e9
            return scaled / duration
        """
        assert findings_of(src) == []

    def test_compare_across_dimensions_fires(self):
        src = """
        def check(flops, duration):  # unit: flops=flops, duration=s
            return flops > duration
        """
        assert [(r, l) for r, l, _ in findings_of(src)] == [("unit-mismatch", 3)]

    def test_declared_return_is_checked(self):
        src = """
        def ridge(flops, moved_bytes):  # unit: flops=flops, moved_bytes=bytes -> flops/byte
            return moved_bytes / flops
        """
        rows = findings_of(src)
        assert [(r, l) for r, l, _ in rows] == [("unit-mismatch", 3)]
        assert "declared" in rows[0][2]

    def test_clock_calls_seed_seconds(self):
        src = """
        import time

        def timed(flops):  # unit: flops=flops
            t0 = time.perf_counter()
            return flops + t0
        """
        rows = findings_of(src)
        assert [(r, l) for r, l, _ in rows] == [("unit-mismatch", 6)]
        assert "adds flops and seconds" in rows[0][2]

    def test_flow_sensitivity_joins_to_unknown(self):
        """A variable holding flops on one branch and bytes on the other
        joins to unknown — no report on later use (may-analysis would
        drown the tier in noise)."""
        src = """
        def pick(flag, flops, moved_bytes):  # unit: flops=flops, moved_bytes=bytes
            if flag:
                x = flops
            else:
                x = moved_bytes
            return x + flops
        """
        assert findings_of(src) == []

    def test_tuple_unpack_annotation(self):
        src = """
        def split(pair, duration):  # unit: duration=s
            flops, moved = pair  # unit: flops, bytes
            return flops + moved
        """
        assert [(r, l) for r, l, _ in findings_of(src)] == [("unit-mismatch", 4)]

    def test_division_tracks_derived_units(self):
        """flops / s / (flops/byte) -> bytes/s: compatible with gb/s."""
        src = """
        def bandwidth(flops, duration, op):  # unit: flops=flops, duration=s, op=flops/byte -> bytes/s
            return flops / duration / op
        """
        assert findings_of(src) == []

    def test_suppression_is_honoured(self):
        src = """
        def hack(flops, moved_bytes):  # unit: flops=flops, moved_bytes=bytes
            return flops + moved_bytes  # staticcheck: ignore[unit-mismatch] - heuristic score
        """
        result = run(src)
        assert result.findings == []
        assert [f.rule_id for f in result.suppressed] == ["unit-mismatch"]


class TestResourceLifecycle:
    def test_with_managed_acquisition_is_clean(self):
        src = """
        def read(path):
            with open(path) as fh:
                return fh.read()
        """
        assert findings_of(src) == []

    def test_try_finally_release_is_clean(self):
        src = """
        import socket

        def broadcast(address, payload):
            conn = socket.socket()
            try:
                send_all(conn, address, payload)
            finally:
                conn.close()
        """
        assert findings_of(src) == []

    def test_returned_resource_is_the_callers_problem(self):
        src = """
        def make(path):
            fh = open(path)
            return fh
        """
        assert findings_of(src) == []

    def test_registered_resource_escapes(self):
        src = """
        def pool_up(names, pools):
            for name in names:
                conn = sqlite3.connect(name)
                pools.append(conn)
        """
        assert findings_of(src) == []

    def test_conditional_close_leaks_on_the_other_path(self):
        src = """
        def flaky(path, keep):
            fh = open(path)
            if keep:
                fh.close()
        """
        rows = findings_of(src)
        assert [(r, l) for r, l, _ in rows] == [("resource-leak", 3)]

    def test_double_close_fires_once_at_the_second_close(self):
        src = """
        def twice(path):
            fh = open(path)
            try:
                fh.close()
            finally:
                fh.close()
        """
        rows = findings_of(src)
        assert [r for r, _, _ in rows] == ["double-release"]
        assert rows[0][1] == 7

    def test_bare_lock_acquire_without_release_fires(self):
        src = """
        def locked(lock):
            lock.acquire()
            work()
        """
        rows = findings_of(src)
        assert [r for r, _, _ in rows] == ["resource-leak"]
        assert "release()" in rows[0][2]

    def test_lock_acquire_release_pair_is_clean(self):
        src = """
        def locked(lock):
            lock.acquire()
            try:
                work()
            finally:
                lock.release()
        """
        assert findings_of(src) == []

    def test_suppression_is_honoured(self):
        src = """
        def intentional(path):
            fh = open(path)  # staticcheck: ignore[resource-leak] - lives for the process
            serve(fh)
        """
        result = run(src)
        assert result.findings == []
        assert [f.rule_id for f in result.suppressed] == ["resource-leak"]


class TestCrossModuleSeeds:
    def make_pkg(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "units.py").write_text(
            textwrap.dedent(
                """
                def node_flops(raw):  # unit: raw=flops -> flops
                    return raw


                class Machine:
                    ridge_point: float  # unit: flops/byte
                """
            )
        )
        return pkg

    def test_imported_function_return_unit_is_seeded(self, tmp_path):
        pkg = self.make_pkg(tmp_path)
        (pkg / "use.py").write_text(
            textwrap.dedent(
                """
                from pkg.units import node_flops


                def mix(raw, duration):  # unit: duration=s
                    return node_flops(raw) + duration
                """
            )
        )
        result = check_paths([pkg], rules=resolve_rules(select=FLOW_RULES))
        rows = [(f.rule_id, f.path.endswith("use.py"), f.message) for f in result.findings]
        assert [(r, p) for r, p, _ in rows] == [("unit-mismatch", True)]
        assert "adds flops and seconds" in rows[0][2]

    def test_imported_attribute_unit_is_seeded(self, tmp_path):
        pkg = self.make_pkg(tmp_path)
        (pkg / "use.py").write_text(
            textwrap.dedent(
                """
                from pkg.units import Machine


                def label(machine, duration):  # unit: duration=s
                    return machine.ridge_point > duration
                """
            )
        )
        result = check_paths([pkg], rules=resolve_rules(select=FLOW_RULES))
        rows = [(f.rule_id, f.message) for f in result.findings]
        assert len(rows) == 1 and rows[0][0] == "unit-mismatch"
        assert "compares flops/bytes against seconds" in rows[0][1]
