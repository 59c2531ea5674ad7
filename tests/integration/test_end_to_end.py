"""Integration tests: the full MCBound pipeline over its real components.

These mirror the paper's deployment story end-to-end: generate a trace,
load it into the relational store, run the Training Workflow every β days
over several simulated days, run the Inference Workflow on each day's
submissions, and score predictions against the Roofline ground truth.
"""

import numpy as np
import pytest

from repro.core import (
    InferenceWorkflow,
    MCBound,
    MCBoundConfig,
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
        tw = TrainingWorkflow(fw)
        iw = InferenceWorkflow(fw)
        # the cron of Fig. 1: retrain at the start of every β-th day on the
        # α days before it, then predict that day's submissions, so no day
        # is predicted by a model trained on it
        for day in range(6):
            now = start + day * DAY_SECONDS
            if day % int(fw.config.beta_days) == 0:
                tw.run(now)
            iw.run_window(now, now + DAY_SECONDS)

        # beta=2: retrains at days 0, 2 and 4
        assert len(tw.history) == 3
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
