"""Event log: ordering, filtering, pid tagging, and the JSONL exit flush."""

import gc
import json
import os

import pytest

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

    def test_flush_failing_mid_write_leaves_no_open_handle(
        self, monkeypatch, tmp_path, open_files_under
    ):
        log_path = tmp_path / "sanitizer-events.jsonl"
        monkeypatch.setenv("REPRO_SANITIZE_LOG", str(log_path))
        record("kind-a")
        record("kind-b", detail=object())  # json.dumps cannot encode it
        with pytest.raises(TypeError) as failure:
            flush_log()
        # the traceback keeps the failed call's locals alive, so a handle
        # only its frame held would still be open here
        assert open_files_under(tmp_path) == []
        assert [json.loads(line)["kind"] for line in log_path.read_text().splitlines()] == [
            "kind-a"
        ]
        del failure
        gc.collect()  # a leaked file warns when it is collected


class TestPidTagging:
    def test_record_stamps_current_pid(self):
        event = record("probe", detail="x")
        assert event.pid == os.getpid()

    def test_to_dict_includes_pid(self):
        event = record("probe")
        assert event.to_dict()["pid"] == os.getpid()
