"""Tests for pickle-free persistence and the model registry."""

import gc
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.mlcore.forest import RandomForestClassifier
from repro.mlcore.knn import KNeighborsClassifier
from repro.mlcore.persistence import (
    ModelRegistry,
    load_model,
    registered_model_classes,
    save_model,
)
from repro.mlcore.tree import DecisionTreeClassifier


def fitted_tree():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(100, 3))
    y = (X[:, 0] > 0).astype(int)
    return DecisionTreeClassifier(max_depth=4, random_state=0).fit(X, y), X


class TestSaveLoad:
    def test_files_on_disk(self, tmp_path):
        t, _ = fitted_tree()
        out = save_model(t, tmp_path / "m")
        assert (out / "manifest.json").exists()
        assert (out / "arrays.npz").exists()

    def test_no_pickle_in_archive(self, tmp_path):
        t, _ = fitted_tree()
        save_model(t, tmp_path / "m")
        # loading with allow_pickle=False must work: nothing is pickled
        with np.load(tmp_path / "m" / "arrays.npz", allow_pickle=False) as z:
            assert len(z.files) > 0

    def test_roundtrip_tree(self, tmp_path):
        t, X = fitted_tree()
        save_model(t, tmp_path / "m")
        t2 = load_model(tmp_path / "m")
        assert np.array_equal(t.predict(X), t2.predict(X))

    def test_overwrite_existing(self, tmp_path):
        t, _ = fitted_tree()
        save_model(t, tmp_path / "m")
        save_model(t, tmp_path / "m")  # no error
        assert load_model(tmp_path / "m") is not None

    def test_unregistered_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            save_model(object(), tmp_path / "m")

    def test_unknown_class_in_manifest_rejected(self, tmp_path):
        t, _ = fitted_tree()
        save_model(t, tmp_path / "m")
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        manifest["model_class"] = "EvilModel"
        (tmp_path / "m" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(TypeError):
            load_model(tmp_path / "m")

    def test_registry_lists_all_models(self):
        names = registered_model_classes()
        assert "RandomForestClassifier" in names
        assert "KNeighborsClassifier" in names
        assert "LookupTableBaseline" in names

    def test_nested_forest_children(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(80, 3))
        y = (X[:, 1] > 0).astype(int)
        f = RandomForestClassifier(4, max_depth=3, random_state=0).fit(X, y)
        save_model(f, tmp_path / "f")
        f2 = load_model(tmp_path / "f")
        assert len(f2.estimators_) == 4
        assert np.allclose(f.predict_proba(X), f2.predict_proba(X))


class TestSaveFailure:
    def test_archive_write_failing_mid_archive_leaves_no_open_handle(
        self, tmp_path, monkeypatch, open_files_under
    ):
        t, _ = fitted_tree()
        write_array = np.lib.format.write_array
        written = []

        def fail_on_second_array(fp, array, *args, **kwargs):
            written.append(array.shape)
            if len(written) == 2:
                fp.write(b"\x93NUMPY")
                raise OSError("disk full")
            return write_array(fp, array, *args, **kwargs)

        monkeypatch.setattr(np.lib.format, "write_array", fail_on_second_array)
        with pytest.raises(OSError, match="disk full") as failure:
            save_model(t, tmp_path / "m")
        assert len(written) == 2  # it failed inside the archive
        # the traceback keeps the failed call's locals alive, so a handle
        # only its frame held would still be open here
        assert open_files_under(tmp_path) == []
        del failure
        gc.collect()  # a leaked file warns when it is collected


def repeated_rows():
    """A training set shaped like a KNN window: a few distinct rows, each
    repeated, on an integer lattice (so neighbour distances tie exactly),
    plus a row that differs from another only by the sign of a zero."""
    rng = np.random.default_rng(11)
    distinct = rng.integers(-2, 3, size=(10, 4)).astype(np.float64)
    distinct[1] = distinct[0]
    distinct[0, 2] = 0.0
    distinct[1, 2] = -0.0  # equal to row 0 as numbers, not as bytes
    X = distinct[rng.permutation(np.arange(90) % 10)]
    Q = np.vstack([distinct, rng.integers(-2, 3, size=(30, 4)).astype(np.float64)])
    return X, Q


def _distinct_byte_rows(X):
    return len({row.tobytes() for row in X})


def _training_matrix(model):
    """The matrix a fitted KNN searches, rebuilt from its distinct rows."""
    return model._rows[model._row_index]


@pytest.fixture(params=["classifier"])
def fitted():
    """A KNN classifier fitted on :func:`repeated_rows`, and its queries."""
    X, Q = repeated_rows()
    y = (X.sum(axis=1) > 0).astype(int)
    return KNeighborsClassifier(5).fit(X, y), Q


class TestKNNRoundTrip:
    """A KNN archive holds the training matrix as its distinct rows plus a
    row index, and the reload is byte-identical."""

    def test_data_has_repeats_ties_and_signed_zeros(self):
        X, _ = repeated_rows()
        zeros = X[:, 2] == 0.0
        assert np.signbit(X[zeros, 2]).any() and not np.signbit(X[zeros, 2]).all()
        assert _distinct_byte_rows(X) == 10 < len(X)

    def test_training_matrix_survives_byte_for_byte(self, fitted, tmp_path):
        model, _ = fitted
        X, _ = repeated_rows()
        rebuilt = _training_matrix(load_model(save_model(model, tmp_path / "m")))
        assert rebuilt.dtype == X.dtype
        assert rebuilt.shape == X.shape
        assert rebuilt.tobytes() == X.tobytes()

    def test_neighbours_and_predictions_are_equal(self, fitted, tmp_path):
        model, Q = fitted
        loaded = load_model(save_model(model, tmp_path / "m"))
        dist, idx = model.kneighbors(Q)
        dist2, idx2 = loaded.kneighbors(Q)
        assert np.array_equal(idx, idx2) and np.array_equal(dist, dist2)
        assert np.array_equal(model.predict(Q), loaded.predict(Q))

    @pytest.mark.parametrize("nudge, dtype", [(0.0, "float32"), (2.0**-40, "float64")])
    def test_rows_archive_as_float32_when_the_round_trip_is_exact(
        self, nudge, dtype, tmp_path
    ):
        # lattice rows survive float64 -> float32 -> float64, so they are
        # written as float32; a nudge below float32 precision keeps float64
        X, _ = repeated_rows()
        X[0, 0] = 1.0 + nudge
        model = KNeighborsClassifier(5).fit(X, np.arange(len(X)) % 2)
        path = save_model(model, tmp_path / "m")
        with np.load(path / "arrays.npz", allow_pickle=False) as z:
            assert z["rows"].dtype == dtype
        assert _training_matrix(load_model(path)).tobytes() == X.tobytes()

    def test_archive_stores_one_row_per_distinct_byte_pattern(self, fitted, tmp_path):
        model, _ = fitted
        X, _ = repeated_rows()
        save_model(model, tmp_path / "m")
        with np.load(tmp_path / "m" / "arrays.npz", allow_pickle=False) as z:
            assert "X" not in z.files
            assert z["rows"].shape == (_distinct_byte_rows(X), X.shape[1])
            assert z["row_index"].shape == (X.shape[0],)


class TestKNNArchiveWrittenBeforeDistinctRows:
    """A store published before the distinct-rows layout has the whole
    training matrix as ``X``; a restarted process must keep loading it."""

    META = {"n_neighbors": 5, "p": 2.0, "algorithm": "brute", "leaf_size": 32, "chunk_size": 512}

    def _write(self, path, cls_name, meta, arrays):
        path.mkdir()
        manifest = {
            "model_class": cls_name,
            "format_version": 1,
            "meta": meta,
            "arrays": list(arrays),
            "children": {},
        }
        (path / "manifest.json").write_text(json.dumps(manifest))
        np.savez_compressed(path / "arrays.npz", **arrays)

    def test_classifier(self, tmp_path):
        X, Q = repeated_rows()
        knn = KNeighborsClassifier(5).fit(X, (X[:, 0] > 0).astype(int))
        self._write(
            tmp_path / "m", "KNeighborsClassifier", self.META,
            {"classes": knn.classes_, "X": X, "y": knn._y},
        )
        loaded = load_model(tmp_path / "m")
        assert _training_matrix(loaded).tobytes() == X.tobytes()
        assert np.array_equal(loaded.predict(Q), knn.predict(Q))

    def test_regressor(self, tmp_path):
        """The k-NN regressor is gone, so its archives no longer load."""
        X, _ = repeated_rows()
        self._write(
            tmp_path / "m", "KNeighborsRegressor", {**self.META, "weights": "uniform"},
            {"X": X, "targets": X[:, 0] * 2.0},
        )
        with pytest.raises(TypeError, match="unknown model class 'KNeighborsRegressor'"):
            load_model(tmp_path / "m")


class TestKNNArchiveWithSearchOptions:
    """Archives written while the estimators took ``algorithm``,
    ``leaf_size`` and ``p`` carry them in their meta.  Every backend was
    exact under one tie rule, so a KD-tree archive must answer as a fresh
    fit does; a search under p != 2 gave other answers and is refused."""

    def _archive(self, model, path, **meta):
        save_model(model, path)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["meta"].update(meta)
        (path / "manifest.json").write_text(json.dumps(manifest))
        return path

    def test_kd_tree_archive_answers_as_a_fresh_fit(self, fitted, tmp_path):
        fresh, Q = fitted
        path = self._archive(
            fresh, tmp_path / "m", p=2.0, algorithm="kd_tree", leaf_size=32
        )
        loaded = load_model(path)
        dist, idx = fresh.kneighbors(Q)
        dist2, idx2 = loaded.kneighbors(Q)
        assert dist.tobytes() == dist2.tobytes()
        assert idx.tobytes() == idx2.tobytes()
        assert np.array_equal(fresh.predict(Q), loaded.predict(Q))

    @pytest.mark.parametrize("p", [1.0, 3.0])
    def test_archive_searched_with_another_p_is_refused(self, fitted, p, tmp_path):
        fresh, _ = fitted
        path = self._archive(fresh, tmp_path / "m", p=p, algorithm="brute", leaf_size=32)
        with pytest.raises(ValueError, match=f"p={p}"):
            load_model(path)


class TestModelRegistry:
    def test_publish_increments_versions(self, tmp_path):
        t, _ = fitted_tree()
        reg = ModelRegistry(tmp_path / "reg")
        assert reg.latest_version is None
        assert reg.publish(t) == 1
        assert reg.publish(t) == 2
        assert reg.latest_version == 2

    def test_load_specific_version(self, tmp_path):
        reg = ModelRegistry(tmp_path / "reg")
        t, X = fitted_tree()
        reg.publish(t)
        rng = np.random.default_rng(5)
        knn = KNeighborsClassifier(3).fit(X, (X[:, 0] > 0).astype(int))
        reg.publish(knn)
        assert isinstance(reg.load(1), DecisionTreeClassifier)
        assert isinstance(reg.load(2), KNeighborsClassifier)
        assert isinstance(reg.load_latest(), KNeighborsClassifier)

    def test_metadata_roundtrip(self, tmp_path):
        reg = ModelRegistry(tmp_path / "reg")
        t, _ = fitted_tree()
        v = reg.publish(t, metadata={"alpha": 15, "beta": 1})
        assert reg.metadata(v) == {"alpha": 15, "beta": 1}
        assert reg.metadata(v) is not None

    def test_metadata_missing_is_empty(self, tmp_path):
        reg = ModelRegistry(tmp_path / "reg")
        t, _ = fitted_tree()
        v = reg.publish(t)
        assert reg.metadata(v) == {}

    def test_load_missing_version(self, tmp_path):
        reg = ModelRegistry(tmp_path / "reg")
        with pytest.raises(FileNotFoundError):
            reg.load(3)

    def test_empty_registry_load_latest(self, tmp_path):
        reg = ModelRegistry(tmp_path / "reg")
        with pytest.raises(FileNotFoundError):
            reg.load_latest()

    def test_latest_pointer_file(self, tmp_path):
        reg = ModelRegistry(tmp_path / "reg")
        t, _ = fitted_tree()
        reg.publish(t)
        assert (tmp_path / "reg" / "LATEST").read_text() == "1"

    def test_publish_lists_no_directory(self, tmp_path, monkeypatch):
        # numbering is O(1): one past LATEST, then a probe of v<N+1>, so a
        # store's growth never reaches the cost of a publish
        reg = ModelRegistry(tmp_path / "reg")
        t, X = fitted_tree()
        for version in range(1, 301):
            (tmp_path / "reg" / f"v{version:08d}").mkdir()
        (tmp_path / "reg" / "LATEST").write_text("300")

        def listed(*args, **kwargs):
            raise AssertionError("publish listed a directory")

        monkeypatch.setattr(Path, "iterdir", listed)
        monkeypatch.setattr(os, "scandir", listed)
        monkeypatch.setattr(os, "listdir", listed)
        assert reg.publish(t) == 301
        assert reg.latest_version == 301
        monkeypatch.undo()
        assert np.array_equal(reg.load_latest().predict(X), t.predict(X))

    @pytest.mark.parametrize("cut", ["v00000001", "LATEST"])
    def test_latest_settles_on_the_newest_of_two_publishers(
        self, tmp_path, monkeypatch, cut
    ):
        # publisher B runs whole while A is cut right after renaming its
        # version into place, or right before its LATEST write lands
        reg = ModelRegistry(tmp_path / "reg")
        t, _ = fitted_tree()
        real_replace = os.replace

        def replace(src, dst):
            if Path(dst).name != cut:
                return real_replace(src, dst)
            monkeypatch.setattr(os, "replace", real_replace)
            if cut == "LATEST":
                assert reg.publish(t) == 2
                real_replace(src, dst)
            else:
                real_replace(src, dst)
                assert reg.publish(t) == 2

        monkeypatch.setattr(os, "replace", replace)
        assert reg.publish(t) == 1
        assert reg.latest_version == 2

    def test_publisher_killed_between_rename_and_latest(self, tmp_path):
        reg = ModelRegistry(tmp_path / "reg")
        t, _ = fitted_tree()
        for _ in range(3):
            reg.publish(t)
        (tmp_path / "reg" / "LATEST").write_text("2")  # v3 renamed, LATEST not
        assert reg.publish(t) == 4
        assert reg.latest_version == 4
