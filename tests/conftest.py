"""Shared fixtures: small deterministic traces and pipeline objects.

Traces are generated once per session at tiny scale; tests that need
different generator parameters build their own.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import JobCharacterizer, load_trace_into_db
from repro.fugaku import WorkloadConfig, WorkloadGenerator


@pytest.fixture(scope="session")
def tiny_trace():
    """≈2750 jobs over the full 122-day span; fast to generate."""
    return WorkloadGenerator(WorkloadConfig(scale=1 / 800, seed=123)).generate()


@pytest.fixture(scope="session")
def small_trace():
    """≈11k jobs; used by the evaluation/integration tests."""
    return WorkloadGenerator(WorkloadConfig(scale=1 / 200, seed=321)).generate()


@pytest.fixture(scope="session")
def characterizer():
    return JobCharacterizer()


@pytest.fixture(scope="session")
def tiny_labels(tiny_trace, characterizer):
    return characterizer.labels_from_trace(tiny_trace)


@pytest.fixture()
def jobs_db(tiny_trace):
    """A fresh Database loaded with the tiny trace."""
    return load_trace_into_db(tiny_trace)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(99)


@pytest.fixture()
def clock_steps_back(monkeypatch):
    """Patch ``time.time`` to read one hour earlier on each call, as a
    wall clock stepped back mid-run does; durations measured with it go
    negative, and a timestamp differs between any two reads."""
    wall = time.time
    reads = 0

    def stepped() -> float:
        nonlocal reads
        reads += 1
        return wall() - reads * 3600.0

    monkeypatch.setattr(time, "time", stepped)
    assert time.time() > time.time()


@pytest.fixture()
def open_files_under():
    """``open_files_under(root)``: the files under ``root`` this process
    holds open, read from ``/proc/self/fd`` (a test using it runs on
    Linux only)."""
    fd_dir = Path("/proc/self/fd")
    if not fd_dir.is_dir():
        pytest.skip("needs /proc/self/fd")

    def under(root) -> list[str]:
        prefix = str(Path(root).resolve())
        targets = []
        for fd in os.listdir(fd_dir):
            try:
                target = os.readlink(fd_dir / fd)
            except OSError:  # closed since the listing
                continue
            if target.startswith(prefix):
                targets.append(target)
        return sorted(targets)

    return under
