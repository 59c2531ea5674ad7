"""Tests for the MCBound HTTP API (§III-E)."""

import json
import random
import string
import tracemalloc

import pytest

from repro.core import MCBound, MCBoundConfig, build_app, load_trace_into_db
from repro.fugaku.workload import DAY_SECONDS
from repro.web import TestClient


@pytest.fixture()
def client(tiny_trace, tmp_path):
    cfg = MCBoundConfig(
        algorithm="KNN",
        model_params={"n_neighbors": 3},
        alpha_days=20.0,
    )
    fw = MCBound(cfg, load_trace_into_db(tiny_trace), model_store_root=tmp_path / "m")
    return TestClient(build_app(fw))


NOW = 40 * DAY_SECONDS


class TestHealthAndConfig:
    def test_health(self, client):
        body = client.get("/health").json()
        assert body["status"] == "ok"
        assert body["model_trained"] is False
        assert body["algorithm"] == "KNN"

    def test_config(self, client):
        body = client.get("/config").json()
        assert body["algorithm"] == "KNN"
        assert body["feature_set"][0] == "user_name"

    def test_ridge(self, client):
        body = client.get("/ridge").json()
        assert body["ridge_point_flops_per_byte"] == pytest.approx(3.30, abs=0.01)


class TestTrainEndpoint:
    def test_train_then_health(self, client):
        r = client.post("/train", json_body={"now": NOW})
        assert r.status == 201
        body = r.json()
        assert body["n_jobs"] > 0
        assert body["version"] == 1
        assert client.get("/health").json()["model_trained"] is True

    def test_train_missing_now(self, client):
        assert client.post("/train", json_body={}).status == 400

    def test_train_empty_window_conflict(self, client):
        r = client.post("/train", json_body={"now": -999 * DAY_SECONDS, "alpha_days": 1})
        assert r.status == 409

    def test_alpha_override(self, client):
        r = client.post("/train", json_body={"now": NOW, "alpha_days": 5})
        assert r.json()["window"][0] == NOW - 5 * DAY_SECONDS

    def test_boolean_alpha_is_a_400(self, client):
        # Python reads JSON true as 1, which would train a 1-day window
        r = client.post("/train", json_body={"now": NOW, "alpha_days": True})
        assert r.status == 400
        assert "alpha_days" in r.json()["error"]

    def test_negative_alpha_is_a_400(self, client):
        # it was a 409: the window ended before it started
        r = client.post("/train", json_body={"now": NOW, "alpha_days": -5})
        assert r.status == 400
        assert "alpha_days" in r.json()["error"]

    def test_zero_alpha_is_a_400(self, client):
        # it was a 409: an empty window holds no jobs
        r = client.post("/train", json_body={"now": NOW, "alpha_days": 0})
        assert r.status == 400
        assert "alpha_days" in r.json()["error"]

    def test_alpha_overflowing_the_window_start_is_a_400(self, client):
        # 1e308 days is finite, but the window would start at -inf
        r = client.post("/train", json_body={"now": NOW, "alpha_days": 1e308})
        assert r.status == 400
        assert "alpha_days" in r.json()["error"]
        assert client.get("/models").json()["latest"] is None

    def test_configs_alpha_starting_the_window_at_minus_infinity_is_a_409(
        self, tiny_trace, tmp_path
    ):
        # the request names no alpha_days, and now - 1e303 days overflows
        cfg = MCBoundConfig(algorithm="KNN", model_params={"n_neighbors": 3}, alpha_days=1e303)
        fw = MCBound(cfg, load_trace_into_db(tiny_trace), model_store_root=tmp_path / "m")
        client = TestClient(build_app(fw))
        r = client.post("/train", json_body={"now": -1e308})
        assert r.status == 409
        assert "not finite" in r.json()["error"]
        assert client.get("/models").json()["latest"] is None


class TestPredictEndpoint:
    def test_predict_before_training_503(self, client):
        r = client.post("/predict", json_body={"job_id": 1})
        assert r.status == 503

    def test_predict_by_job_id(self, client):
        client.post("/train", json_body={"now": NOW})
        r = client.post("/predict", json_body={"job_id": 1})
        assert r.status == 200
        body = r.json()
        assert body["labels"][0] in (0, 1)
        assert body["label_names"][0] in ("memory-bound", "compute-bound")

    def test_predict_window(self, client):
        client.post("/train", json_body={"now": NOW})
        r = client.post(
            "/predict", json_body={"start_time": NOW, "end_time": NOW + DAY_SECONDS}
        )
        body = r.json()
        assert len(body["job_ids"]) == len(body["labels"]) > 0

    def test_predict_raw_records(self, client):
        client.post("/train", json_body={"now": NOW})
        job = {
            "user_name": "riken-ra0001", "job_name": "run.sh", "cores_req": 48,
            "nodes_req": 1, "environment": "gcc", "freq_req_ghz": 2.0,
        }
        r = client.post("/predict", json_body={"jobs": [job]})
        assert r.status == 200
        assert len(r.json()["labels"]) == 1

    def test_fractional_job_id_is_a_400(self, client):
        client.post("/train", json_body={"now": NOW})
        r = client.post("/predict", json_body={"job_id": 1.5})
        assert r.status == 400
        assert "job_id" in r.json()["error"]

    def test_boolean_job_id_is_a_400(self, client):
        client.post("/train", json_body={"now": NOW})
        assert client.post("/predict", json_body={"job_id": True}).status == 400

    def test_integral_float_job_id_names_that_job(self, client):
        client.post("/train", json_body={"now": NOW})
        as_float = client.post("/predict", json_body={"job_id": 1.0})
        assert as_float.status == 200
        assert as_float.json() == client.post("/predict", json_body={"job_id": 1}).json()

    def test_predict_unknown_job_404(self, client):
        client.post("/train", json_body={"now": NOW})
        assert client.post("/predict", json_body={"job_id": 99999999}).status == 404

    def test_predict_bad_body(self, client):
        client.post("/train", json_body={"now": NOW})
        assert client.post("/predict", json_body={"bogus": 1}).status == 400
        assert client.post("/predict", json_body={"jobs": "notalist"}).status == 400

    def test_lone_surrogate_in_a_job_is_a_400(self, client):
        client.post("/train", json_body={"now": NOW})
        job = {
            "user_name": "riken-ra0001", "job_name": "x\ud800y", "cores_req": 48,
            "nodes_req": 1, "environment": "gcc", "freq_req_ghz": 2.0,
        }
        # json.dumps escapes the surrogate, so the body is valid JSON text
        r = client.post("/predict", json_body={"jobs": [job]})
        assert r.status == 400
        assert "Unicode" in r.json()["error"]
        assert "Traceback" not in r.json()["error"]

    def test_a_50k_letter_job_name_is_answered_in_bounded_memory(self, client):
        client.post("/train", json_body={"now": NOW})
        name = "".join(random.Random(0).choices(string.ascii_lowercase, k=50_000))
        job = {
            "user_name": "riken-ra0001", "job_name": name, "cores_req": 48,
            "nodes_req": 1, "environment": "gcc", "freq_req_ghz": 2.0,
        }
        # one 50,002-byte word token and ~64K distinct n-grams: hashing that
        # pads every token to the longest would need gigabytes
        tracemalloc.start()
        try:
            r = client.post("/predict", json_body={"jobs": [job]})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.status == 200
        assert peak < 64 * 2**20

    def test_internal_key_error_is_not_the_clients_fault(self, tiny_trace, monkeypatch):
        cfg = MCBoundConfig(algorithm="KNN", model_params={"n_neighbors": 3}, alpha_days=20.0)
        fw = MCBound(cfg, load_trace_into_db(tiny_trace))
        client = TestClient(build_app(fw))
        assert client.post("/train", json_body={"now": NOW}).status == 201

        def broken(texts):
            raise KeyError("internal")

        monkeypatch.setattr(fw.encoder.embedder, "encode", broken)
        job = {
            "user_name": "riken-ra0001", "job_name": "run.sh", "cores_req": 48,
            "nodes_req": 1, "environment": "gcc", "freq_req_ghz": 2.0,
        }
        assert client.post("/predict", json_body={"jobs": [job]}).status == 500
        assert client.post("/predict", json_body={"job_id": 1}).status == 500
        del job["job_name"]
        assert client.post("/predict", json_body={"jobs": [job]}).status == 400


class TestCharacterizeEndpoint:
    def test_window(self, client):
        r = client.post(
            "/characterize", json_body={"start_time": 0.0, "end_time": 5 * DAY_SECONDS}
        )
        body = r.json()
        assert len(body["labels"]) > 0
        assert set(body["labels"]) <= {0, 1}

    def test_records_with_counters(self, client):
        job = {"perf2": 1e15, "perf3": 1e15, "perf4": 1e10, "perf5": 1e10,
               "duration": 100.0, "nodes_alloc": 1}
        r = client.post("/characterize", json_body={"jobs": [job]})
        assert r.status == 200

    def test_bad_body(self, client):
        assert client.post("/characterize", json_body={}).status == 400

    def test_boolean_counter_is_a_400(self, client):
        job = {"perf2": 1e15, "perf3": 1e15, "perf4": 1e10, "perf5": 1e10,
               "duration": 100.0, "nodes_alloc": True}
        r = client.post("/characterize", json_body={"jobs": [job]})
        assert r.status == 400
        assert "nodes_alloc" in r.json()["error"]


class TestRestartCheck:
    """A restarted service serves the store's latest version only if its
    own embedder reproduces the encodings the version was trained on."""

    @staticmethod
    def deploy(tiny_trace, root, **config):
        cfg = MCBoundConfig(
            algorithm="KNN", model_params={"n_neighbors": 3}, alpha_days=20.0, **config
        )
        fw = MCBound(cfg, load_trace_into_db(tiny_trace), model_store_root=root)
        return TestClient(build_app(fw))

    @staticmethod
    def rewrite_metadata(root, edit):
        path = root / "v00000001" / "metadata.json"
        metadata = json.loads(path.read_text())
        edit(metadata)
        path.write_text(json.dumps(metadata))

    WINDOW = {"start_time": NOW, "end_time": NOW + 3 * DAY_SECONDS}

    def test_a_version_trained_with_idf_is_a_503(self, tiny_trace, tmp_path):
        root = tmp_path / "m"
        assert self.deploy(tiny_trace, root).post("/train", json_body={"now": NOW}).status == 201
        self.rewrite_metadata(root, lambda m: m["embedder"].update(use_idf=True))
        restarted = self.deploy(tiny_trace, root)
        r = restarted.post("/predict", json_body={"job_id": 1})
        assert r.status == 503
        assert "use_idf" in r.json()["error"]
        health = restarted.get("/health")
        assert health.status == 200
        assert health.json()["model_trained"] is False

    def test_a_version_from_another_embedding_dim_is_a_503(self, tiny_trace, tmp_path):
        root = tmp_path / "m"
        first = self.deploy(tiny_trace, root, embedding_dim=64)
        assert first.post("/train", json_body={"now": NOW}).status == 201
        r = self.deploy(tiny_trace, root).post("/predict", json_body=self.WINDOW)
        assert r.status == 503
        error = r.json()["error"]
        assert "dim=64" in error and "dim=384" in error

    @pytest.mark.parametrize(
        "edit",
        [
            # the cache size changes no vector
            lambda m: m["embedder"].update(cache_size=10),
            # a version published without an embedder record loads as it is
            lambda m: m.pop("embedder"),
            # versions published while the embedder had an online IDF
            # recorded its (unused) flag and table beside the arguments
            lambda m: m.update(
                embedder=json.loads(
                    '{"dim": 384, "n_hashes": 2, "seed": 17, "use_idf": false,'
                    ' "ngram_range": [3, 4], "cache_size": 200000,'
                    ' "idf_state": {"n_docs": 0, "df": {}}}'
                )
            ),
        ],
        ids=["another-cache-size", "no-embedder-record", "older-metadata-shape"],
    )
    def test_a_compatible_version_serves_the_same_labels(self, tiny_trace, tmp_path, edit):
        root = tmp_path / "m"
        first = self.deploy(tiny_trace, root)
        assert first.post("/train", json_body={"now": NOW}).status == 201
        before = first.post("/predict", json_body=self.WINDOW).json()
        assert len(before["labels"]) > 0
        self.rewrite_metadata(root, edit)
        restarted = self.deploy(tiny_trace, root)
        r = restarted.post("/predict", json_body=self.WINDOW)
        assert r.status == 200
        assert r.json() == before
        assert restarted.get("/health").json()["model_trained"] is True


class TestModelsEndpoint:
    def test_lists_versions(self, client):
        assert client.get("/models").json() == {
            "versions": [], "latest": None, "persistent": True,
        }
        client.post("/train", json_body={"now": NOW})
        client.post("/train", json_body={"now": NOW + DAY_SECONDS})
        body = client.get("/models").json()
        assert body["versions"] == [1, 2]
        assert body["latest"] == 2
