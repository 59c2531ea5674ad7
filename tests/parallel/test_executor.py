"""Tests for the ordered, sharded parallel map."""

import os

import pytest

from repro.parallel.executor import (
    ExecutorConfig,
    effective_workers,
    parallel_map_sharded,
)


def square(x):
    return x * x


class TestSerial:
    def test_order_preserved(self):
        out = parallel_map_sharded(square, range(10))
        assert out == [x * x for x in range(10)]

    def test_empty(self):
        assert parallel_map_sharded(square, []) == []

    def test_exception_propagates(self):
        def boom(x):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            parallel_map_sharded(boom, [1])


class TestThreads:
    def test_order_preserved(self):
        cfg = ExecutorConfig(backend="thread", n_workers=4)
        out = parallel_map_sharded(square, range(50), config=cfg)
        assert out == [x * x for x in range(50)]

    def test_exception_propagates(self):
        def boom(x):
            if x == 3:
                raise ValueError("x3")
            return x

        cfg = ExecutorConfig(backend="thread", n_workers=2)
        with pytest.raises(ValueError):
            parallel_map_sharded(boom, range(6), config=cfg)


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
        with pytest.raises(ValueError):
            ExecutorConfig(backend="process")

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            ExecutorConfig(n_workers=0)

    def test_single_worker_thread_runs_serial_path(self):
        # still correct (and avoids pool overhead)
        cfg = ExecutorConfig(backend="thread", n_workers=1)
        assert parallel_map_sharded(square, [1, 2, 3], config=cfg) == [1, 4, 9]
