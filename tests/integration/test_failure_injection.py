"""Failure-injection tests: the system degrades loudly, not silently."""

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import (
    MCBound,
    MCBoundConfig,
    ModelStore,
    build_app,
    load_trace_into_db,
)
from repro.core.classification_model import ClassificationModel
from repro.fugaku.workload import DAY_SECONDS
from repro.mlcore import persistence
from repro.storage.engine import Database
from repro.web import TestClient


def make_fw(trace, tmp_path=None, **over):
    cfg = MCBoundConfig(
        algorithm="KNN",
        model_params={"n_neighbors": 3, "algorithm": "brute"},
        alpha_days=over.pop("alpha_days", 20.0),
    )
    root = tmp_path / "m" if tmp_path else None
    return MCBound(cfg, load_trace_into_db(trace), model_store_root=root)


class TestHTTPBoundary:
    def test_handler_crash_is_500_not_connection_drop(self, tiny_trace, monkeypatch):
        fw = make_fw(tiny_trace)
        client = TestClient(build_app(fw))

        def boom(*a, **k):
            raise RuntimeError("backend exploded")

        monkeypatch.setattr(fw, "characterize_window", boom)
        r = client.post(
            "/characterize", json_body={"start_time": 0.0, "end_time": 1.0}
        )
        assert r.status == 500
        assert "backend exploded" in r.json()["error"]

    def test_malformed_json_is_400(self, tiny_trace):
        fw = make_fw(tiny_trace)
        client = TestClient(build_app(fw))
        r = client.post("/train", body=b"\x00\xff not json")
        assert r.status == 400

    def test_single_class_window_is_409(self, tiny_trace, monkeypatch):
        fw = make_fw(tiny_trace)
        # force every label to memory-bound for this window (training
        # streams through _characterize_batch)
        monkeypatch.setattr(
            fw, "_characterize_batch",
            lambda batch: (
                batch.column("job_id").astype(np.int64),
                np.zeros(len(batch.column("job_id")), dtype=np.int64),
            ),
        )
        client = TestClient(build_app(fw))
        r = client.post("/train", json_body={"now": 40 * DAY_SECONDS})
        assert r.status == 409
        assert "single class" in r.json()["error"]


class TestStorageFailures:
    def test_missing_jobs_table_surfaces(self, tiny_trace):
        cfg = MCBoundConfig(algorithm="KNN", model_params={"n_neighbors": 3})
        fw = MCBound(cfg, Database())  # empty database, no jobs table
        with pytest.raises(KeyError, match="jobs"):
            fw.characterize_window(0.0, 1.0)

    def test_http_missing_table_is_500(self, tiny_trace):
        cfg = MCBoundConfig(algorithm="KNN", model_params={"n_neighbors": 3})
        fw = MCBound(cfg, Database())
        client = TestClient(build_app(fw))
        r = client.post("/characterize", json_body={"start_time": 0, "end_time": 1})
        assert r.status == 500


class TestModelStoreCorruption:
    def _published_store(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 4)).astype(np.float32)
        y = (X[:, 0] > 0).astype(int)
        model = ClassificationModel("KNN", n_neighbors=3).training(X, y)
        store = ModelStore(tmp_path / "store")
        version = store.publish(model)
        return store, version

    def test_tampered_manifest_class_rejected(self, tmp_path):
        store, version = self._published_store(tmp_path)
        vdir = store.registry.root / f"v{version:08d}"
        manifest = json.loads((vdir / "manifest.json").read_text())
        manifest["model_class"] = "os.system"  # pickle-style gadget attempt
        (vdir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(TypeError, match="unknown model class"):
            store.load(version)

    def test_deleted_arrays_fail_loudly(self, tmp_path):
        store, version = self._published_store(tmp_path)
        vdir = store.registry.root / f"v{version:08d}"
        (vdir / "arrays.npz").unlink()
        with pytest.raises(FileNotFoundError):
            store.load(version)

    def test_framework_survives_empty_store_dir(self, tiny_trace, tmp_path):
        fw = make_fw(tiny_trace, tmp_path)
        # store exists but is empty: predict must raise NotFitted, not crash
        from repro.mlcore.base import NotFittedError

        with pytest.raises(NotFittedError):
            fw.predict_job(1)


def _knn_model(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(40, 4))
    return ClassificationModel("KNN", n_neighbors=3).training(X, (X[:, 0] > 0).astype(int)), X


def _torn_archive(file, arrays):
    """An archive writer that leaves half an archive, then fails."""
    with open(file, "wb") as f:
        f.write(b"PK\x03\x04 torn archive")
    raise OSError("no space left on device")


def _version_dirs(store):
    return sorted(p.name for p in store.registry.root.iterdir() if p.name.startswith("v"))


#: publishes a model into the store at argv[1] and is SIGKILLed while the
#: archive is half written
_KILLED_PUBLISHER = textwrap.dedent(
    """
    import os, signal, sys
    import numpy as np
    from repro.core import ModelStore
    from repro.core.classification_model import ClassificationModel
    from repro.mlcore import persistence

    def killed(file, arrays):
        with open(file, "wb") as f:
            f.write(b"PK\\x03\\x04 torn archive")
        os.kill(os.getpid(), signal.SIGKILL)

    X = np.random.default_rng(1).normal(size=(40, 4))
    model = ClassificationModel("KNN", n_neighbors=3).training(X, (X[:, 0] > 0).astype(int))
    persistence._write_archive = killed
    ModelStore(sys.argv[1]).publish(model)
    """
)


class TestPublishCrashAndRace:
    """A publish that dies half-way leaves the previous version serving,
    and concurrent publishers never share a version number."""

    def _assert_previous_version_serves(self, store, model, X):
        assert store.latest_version == 1
        loaded, _ = store.load()
        assert np.array_equal(loaded.inference(X), model.inference(X))
        assert _version_dirs(store) == ["v00000001"]

    def test_exception_inside_save_model(self, tmp_path, monkeypatch):
        store = ModelStore(tmp_path / "store")
        model, X = _knn_model(0)
        store.publish(model)

        monkeypatch.setattr(persistence, "_write_archive", _torn_archive)
        with pytest.raises(OSError, match="no space"):
            store.publish(_knn_model(1)[0])
        self._assert_previous_version_serves(store, model, X)
        monkeypatch.undo()
        assert store.publish(_knn_model(1)[0]) == 2

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
    def test_process_killed_inside_save_model(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        model, X = _knn_model(0)
        store.publish(model)
        proc = subprocess.run(
            [sys.executable, "-c", _KILLED_PUBLISHER, str(store.registry.root)],
            env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
            capture_output=True, timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        self._assert_previous_version_serves(store, model, X)
        assert store.publish(_knn_model(1)[0]) == 2

    def test_concurrent_publishers_get_distinct_versions(self, tmp_path):
        n = 8
        store = ModelStore(tmp_path / "store")
        models = [_knn_model(seed) for seed in range(n)]
        start = threading.Barrier(n)
        versions: list = [None] * n
        errors: list = []

        def publish(i):
            try:
                start.wait(timeout=30)
                versions[i] = store.publish(models[i][0], extra={"publisher": i})
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=publish, args=(i,)) for i in range(n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert sorted(versions) == list(range(1, n + 1))
        for i, version in enumerate(versions):
            loaded, metadata = store.load(version)
            assert metadata["extra"] == {"publisher": i}
            model, X = models[i]
            assert np.array_equal(loaded.inference(X), model.inference(X))
        assert store.latest_version == n


class TestFailedPublishKeepsTheLiveModel:
    """A /train whose publish raises leaves the previous model serving:
    the one ``LATEST`` names, so a restart labels jobs as the live
    service does."""

    def test_framework(self, tiny_trace, tmp_path, monkeypatch):
        fw = make_fw(tiny_trace, tmp_path)
        fw.train(40 * DAY_SECONDS)
        live, version = fw.model, fw.store.latest_version
        monkeypatch.setattr(persistence, "_write_archive", _torn_archive)
        with pytest.raises(OSError, match="no space"):
            fw.train(41 * DAY_SECONDS)
        assert fw.model is live
        assert fw.store.latest_version == version

    def test_http(self, tiny_trace, tmp_path, monkeypatch):
        fw = make_fw(tiny_trace, tmp_path)
        client = TestClient(build_app(fw))
        assert client.post("/train", json_body={"now": 40 * DAY_SECONDS}).status == 201
        window = {"start_time": 41 * DAY_SECONDS, "end_time": 48 * DAY_SECONDS}
        before = client.post("/predict", json_body=window).json()["labels"]
        monkeypatch.setattr(persistence, "_write_archive", _torn_archive)
        assert client.post("/train", json_body={"now": 41 * DAY_SECONDS}).status == 500
        assert client.post("/predict", json_body=window).json()["labels"] == before


class TestEvaluationEdges:
    def test_no_training_possible_skips_days(self, small_trace):
        """With alpha so small some windows are empty, the loop still runs."""
        from repro.evaluation.online import OnlineEvaluator

        ev = OnlineEvaluator(small_trace, test_start_day=66, test_end_day=69)
        # days 66-68 are the maintenance window: almost no jobs submitted,
        # but training windows reach back before the shutdown
        r = ev.evaluate("KNN", {"n_neighbors": 3}, alpha=10, beta=1)
        assert r.n_test_jobs >= 0
