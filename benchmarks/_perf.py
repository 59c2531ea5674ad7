"""Shared wall-time and trajectory-file helpers for the throughput benches.

All durations use :func:`time.perf_counter` (monotonic, high resolution);
reported times are best-of-N to damp scheduler noise, which is the right
statistic for a ratchet (the best observed run is the least contaminated
estimate of the code's cost).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable


def best_time(fn: Callable[[], object], repeats: int = 5, warmup: int = 1) -> float:  # unit: repeats=1, warmup=1 -> s
    """Best-of-``repeats`` wall time of ``fn()`` in seconds."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()  # unit: s
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def best_times_alternating(
    fast: Callable[[], object],
    slow: Callable[[], object],
    rounds: int = 3,
    fast_per_round: int = 3,
) -> tuple[float, float]:
    """Best wall times of ``fast()`` and ``slow()`` in seconds, their runs
    alternated: after one warm-up call of each, every one of ``rounds``
    rounds times ``slow`` once and then ``fast`` ``fast_per_round`` times.

    A burst of background load then lands on both sides of the ratio
    ``slow / fast`` instead of on whichever side happened to be running.
    """
    fast()
    slow()
    best_fast = best_slow = float("inf")
    for _ in range(rounds):
        best_slow = min(best_slow, best_time(slow, repeats=1, warmup=0))
        best_fast = min(best_fast, best_time(fast, repeats=fast_per_round, warmup=0))
    return best_fast, best_slow


def throughput(n_items: int, seconds: float) -> float:  # unit: n_items=1, seconds=s -> 1/s
    """Items per second; guards against a clock tick of zero."""
    return n_items / max(seconds, 1e-12)


def write_bench_json(
    path: Path, results: dict, ratchet_failures: Callable[[dict | None], list[str]]
) -> None:
    """Write a bench's trajectory file, ratcheting it when asked to.

    With ``REPRO_PERF_RATCHET`` set, ``ratchet_failures(baseline)`` lists
    what ``results`` fails against the committed file (``None`` if there
    is none), and the file is written only if that list is empty: a failed
    run keeps the baseline the next run is ratcheted against, and its
    figures go into the failure message instead.  Without it the file is
    written and nothing is checked.
    """
    text = json.dumps(results, indent=2, sort_keys=True) + "\n"
    if os.environ.get("REPRO_PERF_RATCHET"):
        baseline = json.loads(path.read_text()) if path.exists() else None
        failures = ratchet_failures(baseline)
        assert not failures, (
            "; ".join(failures) + f"\n{path.name} left unchanged; this run measured:\n{text}"
        )
    path.write_text(text)
