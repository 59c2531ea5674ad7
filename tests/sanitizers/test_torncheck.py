"""Seqlock-style torn-read detection across an explicit thread handoff,
and the lock a guard's writers must hold."""

import threading

from repro.sanitizers import StateGuard, events, new_lock, sanitize


class TestStateGuard:
    def test_read_overlapping_write_is_flagged(self):
        guard = StateGuard("model")
        with sanitize():
            with guard.writing():
                with guard.reading():
                    pass
        (event,) = events("torn-read")
        assert event.details["guard"] == "model"
        assert "in-progress write" in event.details["reason"]

    def test_write_landing_mid_read_is_flagged(self):
        guard = StateGuard("model")
        read_started = threading.Event()
        write_done = threading.Event()

        def writer():
            with sanitize():
                read_started.wait(timeout=5)
                with guard.writing():
                    pass
                write_done.set()

        worker = threading.Thread(target=writer)
        worker.start()
        with sanitize():
            with guard.reading():
                read_started.set()
                assert write_done.wait(timeout=5)
        worker.join()
        (event,) = events("torn-read")
        assert "changed underneath" in event.details["reason"]

    def test_serialized_accesses_are_clean(self):
        guard = StateGuard("model")
        with sanitize():
            with guard.writing():
                pass
            with guard.reading():
                pass
        assert events("torn-read") == []

    def test_disabled_guard_records_nothing(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        guard = StateGuard("model")
        with guard.writing():
            with guard.reading():
                pass
        assert events() == []


class TestUnguardedWrite:
    def test_write_holding_the_guards_lock_is_clean(self):
        guard, lock = StateGuard("state"), new_lock("state")
        with sanitize():
            with lock, guard.writing():
                pass
        assert events() == []

    def test_write_without_the_lock_is_flagged(self):
        guard = StateGuard("state")
        with sanitize():
            with guard.writing():
                pass
        (event,) = events("unguarded-write")
        assert event.details["guard"] == "state"

    def test_a_lock_of_another_name_does_not_count(self):
        guard, other = StateGuard("state"), new_lock("other")
        with sanitize():
            with other, guard.writing():
                pass
        assert len(events("unguarded-write")) == 1

    def test_the_lock_must_be_held_by_the_writing_thread(self):
        guard, lock = StateGuard("state"), new_lock("state")
        held, done = threading.Event(), threading.Event()

        def holder():
            with sanitize(), lock:
                held.set()
                done.wait(timeout=5)

        worker = threading.Thread(target=holder)
        worker.start()
        assert held.wait(timeout=5)
        with sanitize():
            with guard.writing():
                pass
        done.set()
        worker.join(timeout=5)
        assert not worker.is_alive()
        assert len(events("unguarded-write")) == 1

    def test_disabled_guard_checks_no_lock(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        with StateGuard("state").writing():
            pass
        assert events() == []
