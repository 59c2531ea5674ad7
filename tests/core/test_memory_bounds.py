"""Peak memory of the streaming paths is bounded by the batch, not the window.

A 28-day window holds about four times the jobs of a 7-day one.  Draining
either window through ``characterize_window_batches`` or ``train`` must
peak within ``PEAK_RATIO_BOUND`` of the other, because both consume the
window one ``BATCH_ROWS`` batch at a time.  Materializing the scan, the
fetched batches or row dicts anywhere on either path makes the long
window's peak grow with its job count, and these tests fail.

One untimed pass over the long window runs first.  It fills the
embedder cache, which grows by one entry per string never seen before;
that growth is by design and is not what these tests bound.
Characterizing keeps nothing per job: after a pass over a whole trace
the framework retains a few kilobytes.

A fitted KNN, and publishing it, are bounded by a fraction of its
training matrix: the model keeps the distinct rows only, found one row
at a time, and publish writes them as they are.

Training and the online evaluator hold one encoding per distinct
submission and one row id per job.  So a full reservoir's training pass
peaks below the float64 ``cap x d`` matrix a dense fit would convert its
reservoir to, and building the evaluator for a scale-0.05 trace peaks
below half its dense ``n x d`` float32 encodings.
"""

import functools
import tracemalloc

import numpy as np
import pytest

from repro.core.config import MCBoundConfig
from repro.core.data_fetcher import load_trace_into_db
from repro.core.framework import MCBound
from repro.core.registry import ModelStore
from repro.evaluation.online import OnlineEvaluator
from repro.evaluation.timing import peak_memory_bytes
from repro.fugaku.workload import generate_trace

DAY_SECONDS = 86_400.0
BATCH_ROWS = 1_000
SHORT_DAYS, LONG_DAYS = 7, 28
#: the long window may peak at most this much above the short one
PEAK_RATIO_BOUND = 1.25
#: publish may peak at most this fraction of the KNN training matrix
#: (compressing the whole matrix peaks at 0.7-1.1x, sorting a copy at ~2x)
PUBLISH_PEAK_FRACTION = 0.25
#: a fitted KNN's arrays may total at most this fraction of the n x d
#: training matrix (it keeps distinct rows, not the matrix)
MODEL_FRACTION = 0.1
#: reservoir cap of the full-reservoir training bound: the 28-day window
#: holds about five times as many jobs
FULL_RESERVOIR = 5_000
#: building the evaluator may peak at most this fraction of the trace's
#: dense n x d float32 encodings
EVALUATOR_FRACTION = 0.5
#: what characterizing a whole 1/60-scale trace may leave allocated; a
#: label kept per job (~67 B each) would leave 2.4 MB
RETAINED_BYTES = 64 * 1024


@pytest.fixture(scope="module")
def warm():
    """A framework over a scale-0.05 trace, its caches filled; returns
    ``(framework, start)`` with ``start`` the first submit time."""
    trace = generate_trace(scale=0.05)
    # KNN: fitting 500 rows is instant, so the windows dominate the time
    config = MCBoundConfig(algorithm="KNN", train_reservoir=500)
    fw = MCBound(config, load_trace_into_db(trace))
    # train() fetches with the default batch size; cut it to BATCH_ROWS
    fw.fetcher.fetch_batches = functools.partial(
        fw.fetcher.fetch_batches, batch_rows=BATCH_ROWS
    )
    start = float(trace["submit_time"].min())
    _drain_characterize(fw, start, LONG_DAYS)
    _train(fw, start, LONG_DAYS)
    return fw, start


def _drain_characterize(fw, start, days):
    n_jobs = 0
    end = start + days * DAY_SECONDS
    for job_ids, _labels in fw.characterize_window_batches(start, end, batch_rows=BATCH_ROWS):
        n_jobs += len(job_ids)
    return n_jobs


def _train(fw, start, days):
    return fw.train(start + days * DAY_SECONDS, alpha_days=days)["n_jobs"]


def _peaks(fn, fw, start):
    """``{days: (n_jobs, peak_bytes)}`` for the short and the long window."""
    return {days: peak_memory_bytes(fn, fw, start, days) for days in (SHORT_DAYS, LONG_DAYS)}


def _assert_window_independent(peaks):
    (n_short, short), (n_long, long) = peaks[SHORT_DAYS], peaks[LONG_DAYS]
    assert n_long >= 3 * n_short, "the long window must hold several times the jobs"
    assert long <= PEAK_RATIO_BOUND * short, (
        f"{n_long} jobs peaked at {long / 1e6:.3f} MB vs {short / 1e6:.3f} MB "
        f"for {n_short} jobs ({long / short:.2f}x > {PEAK_RATIO_BOUND}x)"
    )


def test_characterize_window_batches_peak_is_window_independent(warm):
    _assert_window_independent(_peaks(_drain_characterize, *warm))


def test_characterize_window_retains_nothing_per_job():
    trace = generate_trace(scale=1 / 60)
    fw = MCBound(MCBoundConfig(), load_trace_into_db(trace))
    submit = trace["submit_time"]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        job_ids, _labels = fw.characterize_window(
            float(submit.min()), float(submit.max()) + 1.0
        )
        n_jobs = len(job_ids)
        del job_ids, _labels
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert n_jobs == len(trace)
    assert retained < RETAINED_BYTES, (
        f"characterizing {n_jobs} jobs left {retained / 1e3:.1f} KB allocated"
    )


def test_train_peak_is_window_independent(warm):
    _assert_window_independent(_peaks(_train, *warm))


@pytest.fixture(scope="module")
def knn_window():
    """The KNN of a whole alpha=30 window: its rows repeat as users'
    identical batches make them repeat."""
    trace = generate_trace(scale=0.01)
    config = MCBoundConfig(
        algorithm="KNN", model_params={"n_neighbors": 5, "algorithm": "brute"},
        alpha_days=30.0,
    )
    fw = MCBound(config, load_trace_into_db(trace))
    fw.train(float(trace["submit_time"].min()) + 61 * DAY_SECONDS)
    knn = fw.model.model
    return fw, knn._rows[knn._row_index]


def test_knn_publish_peak_is_a_fraction_of_the_training_matrix(knn_window, tmp_path):
    fw, X = knn_window
    assert len({row.tobytes() for row in X}) < X.shape[0] // 10
    _, peak = peak_memory_bytes(ModelStore(tmp_path).publish, fw.model)
    assert peak <= PUBLISH_PEAK_FRACTION * X.nbytes, (
        f"publishing a {X.shape[0]}-row KNN peaked at {peak / 1e6:.2f} MB, "
        f"{peak / X.nbytes:.2f}x its {X.nbytes / 1e6:.2f} MB training matrix"
    )


def test_fitted_knn_holds_a_fraction_of_the_training_matrix(knn_window):
    fw, X = knn_window
    held = sum(
        v.nbytes for v in vars(fw.model.model).values() if isinstance(v, np.ndarray)
    )
    assert held < MODEL_FRACTION * X.nbytes, (
        f"a {X.shape[0]}-row KNN holds {held / 1e6:.2f} MB of arrays, "
        f"{held / X.nbytes:.2f}x its {X.nbytes / 1e6:.2f} MB training matrix"
    )


@pytest.fixture(scope="module")
def trace_005():
    return generate_trace(scale=0.05)


def test_full_reservoir_train_peaks_below_the_dense_training_matrix(trace_005):
    config = MCBoundConfig(algorithm="KNN", train_reservoir=FULL_RESERVOIR)
    fw = MCBound(config, load_trace_into_db(trace_005))
    fw.fetcher.fetch_batches = functools.partial(
        fw.fetcher.fetch_batches, batch_rows=BATCH_ROWS
    )
    start = float(trace_005["submit_time"].min())
    _train(fw, start, LONG_DAYS)  # fill the embedder cache
    n_jobs, peak = peak_memory_bytes(_train, fw, start, LONG_DAYS)
    assert n_jobs >= 4 * FULL_RESERVOIR, "the reservoir must fill and turn over"
    dense = FULL_RESERVOIR * fw.encoder.dim * np.dtype(np.float64).itemsize
    assert peak < dense, (
        f"training on {n_jobs} jobs at cap {FULL_RESERVOIR} peaked at "
        f"{peak / 1e6:.2f} MB, {peak / dense:.2f}x the {dense / 1e6:.2f} MB "
        "float64 reservoir matrix"
    )


def test_evaluator_peaks_below_half_its_dense_encodings(trace_005):
    evaluator, peak = peak_memory_bytes(OnlineEvaluator, trace_005)
    dense = len(trace_005) * evaluator.rows.shape[1] * np.dtype(np.float32).itemsize
    assert peak < EVALUATOR_FRACTION * dense, (
        f"building the evaluator of {len(trace_005)} jobs peaked at "
        f"{peak / 1e6:.1f} MB, {peak / dense:.2f}x their {dense / 1e6:.1f} MB "
        "dense encodings"
    )
