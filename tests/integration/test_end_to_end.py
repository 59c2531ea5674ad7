"""Integration tests: the full MCBound pipeline over its real components.

These mirror the paper's deployment story end-to-end: generate a trace,
load it into the relational store, run the Training Workflow through a
cron schedule over several simulated days, run the Inference Workflow on
each day's submissions, and score predictions against the Roofline ground
truth.
"""

import numpy as np
import pytest

from repro.core import (
    InferenceWorkflow,
    MCBound,
    MCBoundConfig,
    Scheduler,
    SimClock,
    TrainingWorkflow,
    load_trace_into_db,
)
from repro.fugaku.workload import DAY_SECONDS
from repro.mlcore.metrics import f1_macro


@pytest.fixture(scope="module", params=["KNN", "RF"])
def deployed(request, small_trace, tmp_path_factory):
    algo = request.param
    params = (
        {"n_neighbors": 5}
        if algo == "KNN"
        else {"n_estimators": 8, "max_depth": 10, "splitter": "hist", "random_state": 0}
    )
    cfg = MCBoundConfig(algorithm=algo, model_params=params, alpha_days=25.0, beta_days=2.0)
    fw = MCBound(
        cfg,
        load_trace_into_db(small_trace),
        model_store_root=tmp_path_factory.mktemp(f"store_{algo}"),
    )
    return fw


class TestScheduledDeployment:
    def test_online_period_with_cron(self, deployed):
        fw = deployed
        start = 40 * DAY_SECONDS
        clock = SimClock(start)
        sched = Scheduler(clock)
        tw = TrainingWorkflow(fw)
        iw = InferenceWorkflow(fw)
        sched.every(fw.config.beta_days, tw.run)
        sched.every(1.0, lambda t: iw.run_window(t - DAY_SECONDS, t), offset_days=1.0)
        # run_until excludes the end instant, so the day-6 inference (which
        # would cover day 5) fires on a horizon of 6 days + epsilon
        sched.run_until(start + 6 * DAY_SECONDS + 1.0)

        # beta=2: retrains at days 0, 2, 4 and at the 6d+eps horizon
        assert len(tw.history) == 4
        assert len(iw.history) == 6
        assert len(iw.predictions) > 50

        # score against ground truth
        ids = np.array(sorted(iw.predictions))
        preds = np.array([iw.predictions[j] for j in ids])
        truth_ids, truth = fw.characterize_window(start, start + 6 * DAY_SECONDS)
        order = np.argsort(truth_ids)
        aligned = dict(zip(truth_ids[order].tolist(), truth[order].tolist()))
        y_true = np.array([aligned[j] for j in ids])
        score = f1_macro(y_true, preds)
        assert score > 0.6

    def test_model_versions_published(self, deployed):
        assert deployed.store.latest_version >= 3
