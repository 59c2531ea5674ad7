"""Tests for the Training and Inference Workflows (Fig. 1)."""

import pytest

from repro.core import InferenceWorkflow, MCBound, MCBoundConfig, TrainingWorkflow, load_trace_into_db
from repro.fugaku.workload import DAY_SECONDS


@pytest.fixture()
def framework(tiny_trace):
    cfg = MCBoundConfig(
        algorithm="KNN",
        model_params={"n_neighbors": 3},
        alpha_days=20.0,
    )
    return MCBound(cfg, load_trace_into_db(tiny_trace))


NOW = 40 * DAY_SECONDS


class TestTrainingWorkflow:
    def test_run_records_history(self, framework):
        tw = TrainingWorkflow(framework)
        r = tw.run(NOW)
        assert r.kind == "training"
        assert r.n_jobs > 0
        assert r.runtime_seconds >= 0
        assert len(tw.history) == 1

    def test_alpha_override(self, framework):
        tw = TrainingWorkflow(framework, alpha_days=5)
        r = tw.run(NOW)
        assert r.payload["window"][0] == NOW - 5 * DAY_SECONDS

    def test_mean_runtime(self, framework):
        tw = TrainingWorkflow(framework)
        assert tw.mean_runtime == 0.0
        tw.run(NOW)
        tw.run(NOW + DAY_SECONDS)
        assert tw.mean_runtime > 0


class TestInferenceWorkflow:
    def test_window_mode(self, framework):
        TrainingWorkflow(framework).run(NOW)
        iw = InferenceWorkflow(framework)
        r = iw.run_window(NOW, NOW + DAY_SECONDS)
        assert r.kind == "inference"
        assert r.n_jobs == len(iw.predictions)
        assert r.n_jobs > 0

    def test_per_job_mode(self, framework):
        TrainingWorkflow(framework).run(NOW)
        iw = InferenceWorkflow(framework)
        ids, _ = framework.predict_window(NOW, NOW + DAY_SECONDS)
        r = iw.run_job(int(ids[0]), now=NOW)
        assert r.n_jobs == 1
        assert int(ids[0]) in iw.predictions

    def test_predictions_accumulate_across_triggers(self, framework):
        TrainingWorkflow(framework).run(NOW)
        iw = InferenceWorkflow(framework)
        iw.run_window(NOW, NOW + DAY_SECONDS)
        n1 = len(iw.predictions)
        iw.run_window(NOW + DAY_SECONDS, NOW + 2 * DAY_SECONDS)
        assert len(iw.predictions) > n1

    def test_mean_runtime_per_job(self, framework):
        TrainingWorkflow(framework).run(NOW)
        iw = InferenceWorkflow(framework)
        assert iw.mean_runtime_per_job == 0.0
        iw.run_window(NOW, NOW + DAY_SECONDS)
        assert iw.mean_runtime_per_job > 0

    def test_runtime_per_job_property(self, framework):
        TrainingWorkflow(framework).run(NOW)
        iw = InferenceWorkflow(framework)
        r = iw.run_window(NOW, NOW + DAY_SECONDS)
        assert r.runtime_per_job == pytest.approx(r.runtime_seconds / r.n_jobs)
