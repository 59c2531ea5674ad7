"""Flow-sensitive rules: resource-leak, double-release.

The *seeded-bug* fixture is a socket leaked on an exception path.  It
must produce exactly one finding at the right line — in the findings
list, in the JSON render and in the SARIF render.
"""

import json
import textwrap

from repro.staticcheck import (
    check_source,
    render_json,
    render_sarif,
    resolve_rules,
)

FLOW_RULES = ["resource-leak", "double-release"]


def run(source, *, select=FLOW_RULES, path="snippet.py"):
    return check_source(
        textwrap.dedent(source), path=path, rules=resolve_rules(select=select)
    )


def findings_of(source, **kwargs):
    return [(f.rule_id, f.line, f.message) for f in run(source, **kwargs).findings]


#: The seeded-bug fixture — socket leaked on the exception path:
#: ``send_all`` may raise after ``socket.socket()`` (line 5) but before
#: ``close``, and nothing releases the socket on that path.
LEAK_BUG = """\
import socket


def broadcast(address, payload):
    conn = socket.socket()
    send_all(conn, address, payload)
    conn.close()
"""


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

