"""Event log: ordering, filtering, pid tagging, and the JSONL exit flush
(including the per-pid logs spawned worker processes write)."""

import glob
import json
import multiprocessing
import os

from repro.sanitizers import SanitizerEvent, clear_events, events, record
from repro.sanitizers.events import flush_log


class TestEventLog:
    def test_record_orders_and_stamps_events(self):
        first = record("kind-a", detail=1)
        second = record("kind-b", detail=2)
        assert isinstance(first, SanitizerEvent)
        assert second.seq > first.seq
        assert first.thread
        assert [e.kind for e in events()] == ["kind-a", "kind-b"]

    def test_filter_by_kind(self):
        record("kind-a")
        record("kind-b")
        assert [e.kind for e in events("kind-b")] == ["kind-b"]

    def test_clear(self):
        record("kind-a")
        clear_events()
        assert events() == []

    def test_to_dict_flattens_details(self):
        event = record("torn-read", guard="model")
        doc = event.to_dict()
        assert doc["kind"] == "torn-read"
        assert doc["guard"] == "model"

    def test_flush_writes_jsonl(self, tmp_path, monkeypatch):
        log_path = tmp_path / "sanitizer-events.jsonl"
        monkeypatch.setenv("REPRO_SANITIZE_LOG", str(log_path))
        record("kind-a", n=1)
        record("kind-b", n=2)
        flush_log()
        lines = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert [doc["kind"] for doc in lines] == ["kind-a", "kind-b"]
        assert lines[0]["n"] == 1

    def test_flush_without_target_is_a_no_op(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_SANITIZE_LOG", raising=False)
        record("kind-a")
        flush_log()
        assert list(tmp_path.iterdir()) == []


class TestPidTagging:
    def test_record_stamps_current_pid(self):
        event = record("probe", detail="x")
        assert event.pid == os.getpid()

    def test_to_dict_includes_pid(self):
        event = record("probe")
        assert event.to_dict()["pid"] == os.getpid()


def _child_records_hazard():
    record("child-hazard", where="worker")


def _noop():
    pass


class TestChildFlush:
    def test_child_flushes_to_per_pid_log(self, monkeypatch, tmp_path):
        log = tmp_path / "sanitize.jsonl"
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        monkeypatch.setenv("REPRO_SANITIZE_LOG", str(log))
        ctx = multiprocessing.get_context("spawn")
        record("parent-event")
        child = ctx.Process(target=_child_records_hazard)
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 0
        side_logs = glob.glob(f"{log}.*")
        assert side_logs == [f"{log}.{child.pid}"]
        lines = [
            json.loads(line)
            for line in open(side_logs[0], encoding="utf-8").read().splitlines()
        ]
        assert [(row["kind"], row["pid"]) for row in lines] == [
            ("child-hazard", child.pid)
        ]
        # The child must not have clobbered the parent's log path, and the
        # parent's in-memory events must not have leaked into the child's.
        assert not log.exists()
        assert [e.kind for e in events()] == ["parent-event"]

    def test_clean_child_writes_no_log(self, monkeypatch, tmp_path):
        log = tmp_path / "sanitize.jsonl"
        monkeypatch.setenv("REPRO_SANITIZE_LOG", str(log))
        ctx = multiprocessing.get_context("spawn")
        child = ctx.Process(target=_noop)
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 0
        assert glob.glob(f"{log}.*") == []
