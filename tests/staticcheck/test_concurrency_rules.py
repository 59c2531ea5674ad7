"""Concurrency project rules: unguarded-shared-write, blocking-under-lock
— trigger and clean fixtures for each."""

from repro.staticcheck.project import BlockingUnderLockRule, UnguardedSharedWriteRule
from repro.staticcheck.project.summary import LOCK_FACTORIES

from tests.staticcheck.test_project_rules import make_package, project_findings


def test_sanitizer_factory_is_a_recognized_lock_source():
    assert "repro.sanitizers.new_lock" in LOCK_FACTORIES


class TestUnguardedSharedWrite:
    def test_handler_and_thread_write_without_lock(self, tmp_path):
        root = make_package(
            tmp_path,
            {
                "m.py": """
                    import threading

                    __all__ = ["build", "start_refresher", "refresher"]

                    STATE = {}

                    def refresher():
                        global STATE
                        STATE = {"fresh": True}

                    def start_refresher():
                        threading.Thread(target=refresher).start()

                    def build(app):
                        @app.route("/reset")
                        def reset_handler():
                            global STATE
                            STATE = {}
                """,
            },
        )
        result = project_findings(root, UnguardedSharedWriteRule())
        (finding,) = result.findings
        assert finding.rule_id == "unguarded-shared-write"
        assert "STATE" in finding.message
        assert "handler:reset_handler" in finding.message
        assert "thread:refresher" in finding.message

    def test_method_writes_reached_from_two_handlers(self, tmp_path):
        root = make_package(
            tmp_path,
            {
                "m.py": """
                    __all__ = ["Svc", "build"]

                    class Svc:
                        def __init__(self):
                            self.model = None

                        def retrain_model(self):
                            self.model = object()

                        def refresh_model(self):
                            self.model = object()

                    def build(app, svc):
                        @app.route("/train")
                        def train_handler():
                            svc.retrain_model()

                        @app.route("/refresh")
                        def refresh_handler():
                            svc.refresh_model()
                """,
            },
        )
        result = project_findings(root, UnguardedSharedWriteRule())
        (finding,) = result.findings
        assert "Svc.model" in finding.message

    def test_common_lock_makes_it_clean(self, tmp_path):
        root = make_package(
            tmp_path,
            {
                "m.py": """
                    import threading

                    __all__ = ["build", "start_refresher", "refresher"]

                    STATE = {}
                    GUARD = threading.Lock()

                    def refresher():
                        global STATE
                        with GUARD:
                            STATE = {"fresh": True}

                    def start_refresher():
                        threading.Thread(target=refresher).start()

                    def build(app):
                        @app.route("/reset")
                        def reset_handler():
                            global STATE
                            with GUARD:
                                STATE = {}
                """,
            },
        )
        assert project_findings(root, UnguardedSharedWriteRule()).findings == []

    def test_single_entry_point_is_clean(self, tmp_path):
        root = make_package(
            tmp_path,
            {
                "m.py": """
                    __all__ = ["build"]

                    STATE = {}

                    def build(app):
                        @app.route("/reset")
                        def reset_handler():
                            global STATE
                            STATE = {}
                """,
            },
        )
        assert project_findings(root, UnguardedSharedWriteRule()).findings == []


class TestBlockingUnderLock:
    def test_file_io_under_lock(self, tmp_path):
        root = make_package(
            tmp_path,
            {
                "m.py": """
                    import threading

                    __all__ = ["save"]

                    GUARD = threading.Lock()

                    def save(payload):
                        with GUARD:
                            with open("state.json", "w") as fh:
                                fh.write(payload)
                """,
            },
        )
        result = project_findings(root, BlockingUnderLockRule())
        assert result.findings
        assert all(f.rule_id == "blocking-under-lock" for f in result.findings)
        assert "'open'" in result.findings[0].message

    def test_sleep_and_fanout_under_lock(self, tmp_path):
        root = make_package(
            tmp_path,
            {
                "m.py": """
                    import threading
                    import time

                    from repro.parallel.executor import parallel_map

                    __all__ = ["wait_then_fan"]

                    GUARD = threading.Lock()

                    def wait_then_fan(fn, items):
                        with GUARD:
                            time.sleep(0.5)
                            return parallel_map(fn, items)
                """,
            },
        )
        result = project_findings(root, BlockingUnderLockRule())
        messages = " | ".join(f.message for f in result.findings)
        assert "time.sleep" in messages
        assert "parallel_map" in messages

    def test_retraining_under_lock(self, tmp_path):
        root = make_package(
            tmp_path,
            {
                "m.py": """
                    import threading

                    __all__ = ["Svc", "retrain"]

                    GUARD = threading.Lock()

                    class Svc:
                        def train(self, X, y):
                            self.model = (X, y)

                    def retrain(svc, X, y):
                        with GUARD:
                            svc.train(X, y)
                """,
            },
        )
        result = project_findings(root, BlockingUnderLockRule())
        (finding,) = result.findings
        assert "(re)trains a model" in finding.message

    def test_io_outside_lock_is_clean(self, tmp_path):
        root = make_package(
            tmp_path,
            {
                "m.py": """
                    import threading

                    __all__ = ["save"]

                    GUARD = threading.Lock()

                    def save(payload):
                        with open("state.json", "w") as fh:
                            fh.write(payload)
                        with GUARD:
                            return len(payload)
                """,
            },
        )
        assert project_findings(root, BlockingUnderLockRule()).findings == []
