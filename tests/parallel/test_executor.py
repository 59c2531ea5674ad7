"""Tests for the ordered parallel map."""

import os
import threading

import pytest

from repro.parallel.executor import (
    ExecutorConfig,
    effective_workers,
    ensure_picklable,
    parallel_map,
)


def square(x):
    return x * x


class TestSerial:
    def test_order_preserved(self):
        out = parallel_map(square, range(10))
        assert out == [x * x for x in range(10)]

    def test_empty(self):
        assert parallel_map(square, []) == []

    def test_exception_propagates(self):
        def boom(x):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            parallel_map(boom, [1])


class TestThreads:
    def test_order_preserved(self):
        cfg = ExecutorConfig(backend="thread", n_workers=4)
        out = parallel_map(square, range(50), config=cfg)
        assert out == [x * x for x in range(50)]

    def test_exception_propagates(self):
        def boom(x):
            if x == 3:
                raise ValueError("x3")
            return x

        cfg = ExecutorConfig(backend="thread", n_workers=2)
        with pytest.raises(ValueError):
            parallel_map(boom, range(6), config=cfg)


class TestProcesses:
    def test_order_preserved(self):
        cfg = ExecutorConfig(backend="process", n_workers=2)
        out = parallel_map(square, range(8), config=cfg)
        assert out == [x * x for x in range(8)]


class TestPicklabilityPreflight:
    def test_lambda_rejected_before_pool_spawn(self):
        cfg = ExecutorConfig(backend="process", n_workers=2)
        with pytest.raises(ValueError, match="not picklable"):
            parallel_map(lambda x: x, range(4), config=cfg)

    def test_closure_rejected_with_callable_name(self):
        def local_task(x):
            return x + 1

        cfg = ExecutorConfig(backend="process", n_workers=2)
        with pytest.raises(ValueError, match="local_task"):
            parallel_map(local_task, range(4), config=cfg)

    def test_error_suggests_the_fix(self):
        with pytest.raises(ValueError, match="module top level"):
            ensure_picklable(lambda x: x)

    def test_module_level_function_passes(self):
        ensure_picklable(square)  # no raise

    def test_closure_error_names_the_offending_cell(self):
        lock = threading.Lock()

        def guarded(x):
            with lock:
                return x

        with pytest.raises(ValueError, match=r"__closure__\['lock'\]"):
            ensure_picklable(guarded)

    def test_bound_method_error_names_the_instance_attribute(self):
        class Holder:
            def __init__(self):
                self.guard = threading.Lock()

            def work(self, x):
                return x

        with pytest.raises(ValueError, match=r"__self__\.guard"):
            ensure_picklable(Holder().work)

    def test_partial_error_names_the_argument(self):
        import functools

        task = functools.partial(square, threading.Lock())
        with pytest.raises(ValueError, match=r"\.args\[0\]"):
            ensure_picklable(task)

    def test_thread_backend_accepts_closures(self):
        def local_task(x):
            return x + 1

        cfg = ExecutorConfig(backend="thread", n_workers=2)
        assert parallel_map(local_task, range(4), config=cfg) == [1, 2, 3, 4]

    def test_serial_path_skips_preflight(self):
        # one item -> serial fallback, lambda is fine there
        cfg = ExecutorConfig(backend="process", n_workers=2)
        assert parallel_map(lambda x: x * 2, [21], config=cfg) == [42]


class TestConfig:
    def test_defaults(self):
        assert ExecutorConfig().backend == "serial"
        assert effective_workers(ExecutorConfig()) == 1

    def test_thread_default_workers(self):
        w = effective_workers(ExecutorConfig(backend="thread"))
        assert w == (os.cpu_count() or 1)

    def test_invalid_backend(self):
        with pytest.raises(ValueError):
            ExecutorConfig(backend="gpu")

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            ExecutorConfig(n_workers=0)

    def test_single_worker_thread_runs_serial_path(self):
        # still correct (and avoids pool overhead)
        cfg = ExecutorConfig(backend="thread", n_workers=1)
        assert parallel_map(square, [1, 2, 3], config=cfg) == [1, 4, 9]
