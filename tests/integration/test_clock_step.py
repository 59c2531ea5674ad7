"""Reported durations survive a wall-clock step.

Figs. 7 and 8 report training and inference times.  The wall clock can
step back while a workflow runs (an NTP correction, an operator resetting
it); here ``time.time`` reads an hour earlier on every call, and every
duration the workflows, the online evaluator and the timing helpers
report must still be non-negative.
"""

import time

from repro.core import (
    InferenceWorkflow,
    MCBound,
    MCBoundConfig,
    TrainingWorkflow,
    load_trace_into_db,
)
from repro.evaluation import OnlineEvaluator
from repro.evaluation.timing import Timer, time_call
from repro.fugaku.workload import DAY_SECONDS

NOW = 40 * DAY_SECONDS


def test_workflow_runtimes(tiny_trace, clock_steps_back):
    framework = MCBound(
        MCBoundConfig(algorithm="KNN", model_params={"n_neighbors": 3}, alpha_days=20.0),
        load_trace_into_db(tiny_trace),
    )
    training = TrainingWorkflow(framework)
    inference = InferenceWorkflow(framework)
    runs = [
        training.run(NOW),
        inference.run_window(NOW, NOW + DAY_SECONDS),
        inference.run_job(int(tiny_trace.between(NOW, NOW + DAY_SECONDS)["job_id"][0])),
    ]
    assert all(r.runtime_seconds >= 0 for r in runs)
    assert training.mean_runtime >= 0
    assert inference.mean_runtime_per_job >= 0


def test_online_evaluator_times(tiny_trace, clock_steps_back):
    evaluator = OnlineEvaluator(tiny_trace, test_start_day=40, test_end_day=42)
    result = evaluator.evaluate("KNN", {"n_neighbors": 5}, alpha=10, beta=1)
    assert result.train_times and result.predict_times
    assert min(result.train_times + result.predict_times) >= 0
    assert result.mean_train_time >= 0
    assert result.mean_inference_time_per_job >= 0


def test_timing_helpers(clock_steps_back):
    with Timer() as timer:
        time.time()
    _, elapsed = time_call(time.time)
    assert timer.elapsed >= 0
    assert elapsed >= 0
