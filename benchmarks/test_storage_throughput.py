"""Storage streaming throughput: the BENCH_storage.json perf trajectory.

Streaming code must never materialize jobs-scale results; this
benchmark measures what that buys, and is the third committed
trajectory next to ``BENCH_mlcore.json`` and ``BENCH_staticcheck.json``.
Three sections:

* **fetch+characterize at 10^5 jobs** — the windowed Data Fetcher path,
  streaming (``fetch_batches`` + ``labels_from_result``, no row dicts)
  against materializing (``fetch`` + ``labels_from_records``).  The
  speedup of the columnar streaming path is the ratcheted ratio.
* **peak-memory independence** — the same streaming pipeline run over a
  30-day and a 120-day trace at identical daily volume; 4x the jobs must
  not move the tracemalloc peak, because nothing in the pipeline is
  allowed to scale with the job count.
* **10^6-job streaming smoke** — generate a million-job trace one day at
  a time, ingest it into the column store batch by batch, then fetch and
  characterize the full window through ``fetch_batches``; also sweeps
  the same trace through a week-partitioned :class:`SegmentedTable`.

Ratcheting: absolute wall times vary across machines, so with
``REPRO_PERF_RATCHET=1`` (the CI benchmark job) the gates are the
*within-run* streaming speedup against its hard floor and the committed
baseline, and the peak-memory ratio against its hard cap.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from benchmarks._perf import best_time, throughput
from repro.core.data_fetcher import DataFetcher, load_trace_into_db
from repro.core.job_characterizer import JobCharacterizer
from repro.fugaku.trace import NUMERIC_COLUMNS, STRING_COLUMNS
from repro.fugaku.workload import WorkloadConfig, WorkloadGenerator
from repro.evaluation.timing import peak_memory_bytes
from repro.storage.schema import ColumnDef, ColumnType, TableSchema
from repro.storage.partition import SegmentedTable

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_storage.json"

DAY_SECONDS = 86_400.0
FULL_SCALE_JOBS = 2_200_000

#: batch size for every streaming scan below; small enough that the peak
#: sections measure transients, large enough to amortize per-batch cost
BATCH_ROWS = 8_192

#: hard floor: the columnar streaming fetch+characterize path must beat
#: the row-dict materializing path by at least this factor
STREAM_SPEEDUP_FLOOR = 2.0
#: hard cap: 4x the jobs at constant daily volume may move the streaming
#: pipeline's tracemalloc peak by at most this factor
PEAK_RATIO_CAP = 2.0
#: the streaming speedup may regress at most 40% vs the committed baseline
RATCHET_TOLERANCE = 0.60


def _characterize_stream(fetcher, characterizer, lo, hi):
    """Drain the streaming path; returns (n_jobs, per-class counts)."""
    total = 0
    counts = np.zeros(2, dtype=np.int64)
    for batch in fetcher.fetch_batches(lo, hi, batch_rows=BATCH_ROWS):
        labels = characterizer.labels_from_result(batch)
        total += len(labels)
        counts += np.bincount(labels, minlength=2)
    return total, counts


@pytest.fixture(scope="module")
def results():
    return {"meta": {"batch_rows": BATCH_ROWS, "full_scale_jobs": FULL_SCALE_JOBS}}


@pytest.fixture(scope="module")
def ratchet_db():
    """A ~10^5-job trace loaded submit-sorted into the column store."""
    cfg = WorkloadConfig(scale=100_000 / FULL_SCALE_JOBS, n_days=122, seed=2024)
    trace = WorkloadGenerator(cfg).generate()
    db = load_trace_into_db(trace)
    lo = float(trace["submit_time"][0])
    hi = float(trace["submit_time"][-1]) + 1.0
    return db, len(trace), lo, hi


def test_fetch_characterize_100k(results, ratchet_db):
    """The ratcheted section: streaming vs materializing at 10^5 jobs."""
    db, n_jobs, lo, hi = ratchet_db
    fetcher = DataFetcher(db)
    characterizer = JobCharacterizer()

    total, counts = _characterize_stream(fetcher, characterizer, lo, hi)
    assert total == n_jobs
    assert counts.min() > 0  # both classes show up at this scale

    def run_stream():
        _characterize_stream(fetcher, characterizer, lo, hi)

    def run_rows():
        records = fetcher.fetch(start_time=lo, end_time=hi)
        characterizer.labels_from_records(records)

    stream_s = best_time(run_stream, repeats=3, warmup=1)
    rows_s = best_time(run_rows, repeats=3, warmup=1)
    results["fetch_characterize_100k"] = {
        "n_jobs": n_jobs,
        "stream_s": stream_s,
        "rows_s": rows_s,
        "stream_jobs_per_s": throughput(n_jobs, stream_s),
        "streaming_speedup": rows_s / stream_s,
    }


def test_peak_memory_independent_of_job_count(results):
    """4x the jobs at constant daily volume: the streaming peak stays put."""
    jobs_per_day = 2_000
    characterizer = JobCharacterizer()
    peaks, totals = {}, {}
    for n_days in (30, 120):
        cfg = WorkloadConfig(
            scale=n_days * jobs_per_day / FULL_SCALE_JOBS, n_days=n_days, seed=7
        )
        gen = WorkloadGenerator(cfg)
        gen.templates  # build the workload model outside the traced region

        def drain():
            total = 0
            for day in gen.generate_stream():
                total += int(np.sum(characterizer.labels_from_trace(day) >= 0))
            return total

        totals[n_days], peaks[n_days] = peak_memory_bytes(drain)
    assert totals[120] > 3 * totals[30]  # 4x the days really is ~4x the jobs
    ratio = peaks[120] / peaks[30]
    results["peak_independence"] = {
        "jobs_short": totals[30],
        "jobs_long": totals[120],
        "peak_short_bytes": peaks[30],
        "peak_long_bytes": peaks[120],
        "peak_ratio": ratio,
    }
    # hard bound regardless of ratcheting: the pipeline peaks at O(day),
    # so the job count must not show up in the peak at all
    assert ratio < PEAK_RATIO_CAP


def test_million_job_streaming_smoke(results):
    """10^6 jobs end to end without ever holding the trace in one piece."""
    cfg = WorkloadConfig(scale=1_000_000 / FULL_SCALE_JOBS, n_days=122, seed=2024)
    gen = WorkloadGenerator(cfg)
    characterizer = JobCharacterizer()

    import time

    t0 = time.perf_counter()
    db = None
    generated = 0
    for day in gen.generate_stream():
        db = load_trace_into_db(day, db)
        generated += len(day)
    ingest_s = time.perf_counter() - t0

    fetcher = DataFetcher(db)
    st = db.table("jobs").column("submit_time")
    lo, hi = float(st[0]), float(st[-1]) + 1.0
    t0 = time.perf_counter()
    total, counts = _characterize_stream(fetcher, characterizer, lo, hi)
    characterize_s = time.perf_counter() - t0
    assert total == generated >= 1_000_000
    assert counts.min() > 0

    results["million_job_smoke"] = {
        "n_jobs": total,
        "ingest_s": ingest_s,
        "fetch_characterize_s": characterize_s,
        "jobs_per_s": throughput(total, characterize_s),
        "class_counts": [int(c) for c in counts],
    }


def test_partitioned_sweep(results, ratchet_db):
    """SegmentedTable: week-wide submit-time segments, full-range scan."""
    db, n_jobs, lo, hi = ratchet_db
    numeric = [
        ColumnDef(n, ColumnType.INTEGER if n.endswith("_id") else ColumnType.REAL)
        for n in NUMERIC_COLUMNS
    ]
    strings = [ColumnDef(n, ColumnType.TEXT) for n in STRING_COLUMNS]
    st = SegmentedTable(
        TableSchema("jobs_by_week", numeric + strings), "submit_time", 7 * DAY_SECONDS
    )
    source = db.table("jobs")

    import time

    t0 = time.perf_counter()
    for batch in source.scan_batches("submit_time", batch_rows=BATCH_ROWS):
        st.insert_columns({n: batch.column(n) for n in batch.column_names})
    ingest_s = time.perf_counter() - t0
    assert len(st) == n_jobs

    characterizer = JobCharacterizer()
    t0 = time.perf_counter()
    total = 0
    for batch in st.scan_batches(lo, hi, batch_rows=BATCH_ROWS):
        total += len(characterizer.labels_from_result(batch))
    scan_s = time.perf_counter() - t0
    assert total == n_jobs

    results["partitioned_100k"] = {
        "n_jobs": n_jobs,
        "n_segments": len(st.segment_ids),
        "ingest_s": ingest_s,
        "scan_characterize_s": scan_s,
        "jobs_per_s": throughput(n_jobs, scan_s),
    }


def test_write_bench_json(results):
    """Write the trajectory file; ratchet the ratios when asked to.

    Runs last (pytest executes this module top to bottom), after every
    section above has filled in its measurements.
    """
    for section in (
        "fetch_characterize_100k",
        "peak_independence",
        "million_job_smoke",
        "partitioned_100k",
    ):
        assert section in results, f"bench section {section!r} did not run"

    baseline = None
    if BENCH_PATH.exists():
        baseline = json.loads(BENCH_PATH.read_text())
    BENCH_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")

    if not os.environ.get("REPRO_PERF_RATCHET"):
        return
    speedup = results["fetch_characterize_100k"]["streaming_speedup"]
    peak_ratio = results["peak_independence"]["peak_ratio"]
    failures = []
    if speedup < STREAM_SPEEDUP_FLOOR:
        failures.append(
            f"streaming fetch+characterize speedup {speedup:.2f}x < "
            f"floor {STREAM_SPEEDUP_FLOOR}x"
        )
    if peak_ratio > PEAK_RATIO_CAP:
        failures.append(
            f"peak-memory ratio {peak_ratio:.2f}x > cap {PEAK_RATIO_CAP}x: "
            "the streaming pipeline's peak scales with the job count"
        )
    if baseline and "fetch_characterize_100k" in baseline:
        old = baseline["fetch_characterize_100k"].get("streaming_speedup")
        if old and speedup < RATCHET_TOLERANCE * old:
            failures.append(
                f"streaming speedup regressed {speedup:.2f}x < "
                f"{RATCHET_TOLERANCE:.0%} of baseline {old:.2f}x"
            )
    assert not failures, "; ".join(failures)
