"""Integration test: MCBound deployed behind a real HTTP socket.

Reproduces artifact A1 of the paper's AD appendix: deploy the backend,
hit its endpoints, train, and predict — all over HTTP.
"""

import json
import urllib.request

import pytest

from repro.core import MCBound, MCBoundConfig, build_app, load_trace_into_db
from repro.fugaku.workload import DAY_SECONDS
from repro.web import serve


def _post(url, payload):
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


class TestLiveDeployment:
    def test_full_cycle_over_http(self, tiny_trace, tmp_path):
        # n_neighbors=5 (the sklearn default): the tiny trace is dominated by
        # duplicate submission strings, so identical embeddings produce exact
        # k-th-distance ties and the vote at k=3 is decided purely by the
        # neighbor tie-break order — not something an HTTP smoke test should
        # be sensitive to.  Ties resolve canonically to the smallest training
        # index (see repro.mlcore.knn), and k=5 votes past the tie noise.
        cfg = MCBoundConfig(
            algorithm="KNN",
            model_params={"n_neighbors": 5},
            alpha_days=25.0,
        )
        fw = MCBound(cfg, load_trace_into_db(tiny_trace), model_store_root=tmp_path / "m")
        with serve(build_app(fw)) as handle:
            base = handle.url

            status, health = _get(f"{base}/health")
            assert status == 200 and health["model_trained"] is False

            now = 40 * DAY_SECONDS
            status, summary = _post(f"{base}/train", {"now": now})
            assert status == 201 and summary["n_jobs"] > 0

            status, pred = _post(
                f"{base}/predict",
                {"start_time": now, "end_time": now + DAY_SECONDS},
            )
            assert status == 200
            assert len(pred["labels"]) > 0
            assert set(pred["label_names"]) <= {"memory-bound", "compute-bound"}

            status, models = _get(f"{base}/models")
            assert models["latest"] == 1

            status, truth = _post(
                f"{base}/characterize",
                {"start_time": now, "end_time": now + DAY_SECONDS},
            )
            assert truth["job_ids"] == pred["job_ids"]
            agree = sum(
                a == b for a, b in zip(truth["labels"], pred["labels"])
            ) / len(truth["labels"])
            assert agree > 0.5
