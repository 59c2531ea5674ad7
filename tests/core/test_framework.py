"""Tests for the MCBound facade."""

import numpy as np
import pytest

from repro.core import MCBound, MCBoundConfig, load_trace_into_db
from repro.fugaku.workload import DAY_SECONDS
from repro.mlcore.base import NotFittedError


def make_framework(trace, tmp_path=None, **cfg_over):
    cfg = MCBoundConfig(
        algorithm=cfg_over.pop("algorithm", "RF"),
        model_params=cfg_over.pop(
            "model_params",
            {"n_estimators": 5, "max_depth": 8, "splitter": "hist", "random_state": 0},
        ),
        **cfg_over,
    )
    db = load_trace_into_db(trace)
    root = str(tmp_path / "models") if tmp_path is not None else None
    return MCBound(cfg, db, model_store_root=root)


@pytest.fixture(scope="module")
def now():
    return 40 * DAY_SECONDS


class TestTraining:
    def test_train_summary(self, tiny_trace, now):
        fw = make_framework(tiny_trace)
        summary = fw.train(now, alpha_days=20)
        assert summary["n_jobs"] > 0
        assert set(summary["class_counts"]) <= {0, 1}
        assert summary["window"] == (now - 20 * DAY_SECONDS, now)
        assert fw.model is not None

    def test_default_alpha_from_config(self, tiny_trace, now):
        fw = make_framework(tiny_trace, alpha_days=10.0)
        summary = fw.train(now)
        assert summary["window"][0] == now - 10 * DAY_SECONDS

    def test_empty_window_rejected(self, tiny_trace):
        fw = make_framework(tiny_trace)
        with pytest.raises(ValueError, match="no jobs"):
            fw.train(-100 * DAY_SECONDS, alpha_days=1)

    def test_publishes_to_store(self, tiny_trace, now, tmp_path):
        fw = make_framework(tiny_trace, tmp_path)
        s1 = fw.train(now, alpha_days=15)
        s2 = fw.train(now + DAY_SECONDS, alpha_days=15)
        assert (s1["version"], s2["version"]) == (1, 2)

    def test_reloaded_knn_is_byte_identical_to_the_live_one(self, tiny_trace, now, tmp_path):
        # train encodes into float32, so the archive holds float32 rows,
        # and the reload widens them back to the live float64 bit for bit
        fw = make_framework(
            tiny_trace, tmp_path, algorithm="KNN", model_params={"n_neighbors": 5}
        )
        for day in range(3):
            version = fw.train(now + day * DAY_SECONDS, alpha_days=15)["version"]
            live, loaded = fw.model.model, fw.store.load(version)[0].model
            for name in ("_rows", "_row_index", "_y", "classes_"):
                a, b = getattr(live, name), getattr(loaded, name)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            archive = fw.store.registry.root / f"v{version:08d}" / "arrays.npz"
            with np.load(archive, allow_pickle=False) as z:
                assert z["rows"].dtype == np.float32


class TestInference:
    def test_predict_before_training_raises(self, tiny_trace):
        fw = make_framework(tiny_trace)
        with pytest.raises(NotFittedError):
            fw.predict_job(1)

    def test_predict_window(self, tiny_trace, now):
        fw = make_framework(tiny_trace)
        fw.train(now, alpha_days=20)
        ids, labels = fw.predict_window(now, now + DAY_SECONDS)
        assert ids.shape == labels.shape
        assert set(labels.tolist()) <= {0, 1}

    def test_predict_single_job(self, tiny_trace, now):
        fw = make_framework(tiny_trace)
        fw.train(now, alpha_days=20)
        ids, _ = fw.predict_window(now, now + DAY_SECONDS)
        assert fw.predict_job(int(ids[0])) in (0, 1)

    def test_predict_unknown_job(self, tiny_trace, now):
        fw = make_framework(tiny_trace)
        fw.train(now, alpha_days=20)
        with pytest.raises(KeyError):
            fw.predict_job(99_999_999)

    def test_predictions_reasonably_accurate(self, tiny_trace, now):
        fw = make_framework(tiny_trace)
        fw.train(now, alpha_days=30)
        ids, pred = fw.predict_window(now, now + 3 * DAY_SECONDS)
        _, truth = fw.characterize_window(now, now + 3 * DAY_SECONDS)
        assert float(np.mean(pred == truth)) > 0.6

    def test_model_reloaded_from_store(self, tiny_trace, now, tmp_path):
        fw = make_framework(tiny_trace, tmp_path)
        fw.train(now, alpha_days=20)
        # a fresh framework instance finds the persisted model
        fw2 = make_framework(tiny_trace, tmp_path)
        assert fw2.model is None
        label = fw2.predict_job(1)
        assert label in (0, 1)
        assert fw2.model is not None


class TestRestart:
    """A fresh framework on the same store serves what the old one did."""

    @pytest.mark.parametrize("use_idf", [False, True])
    def test_restart_reproduces_encodings_and_labels(
        self, tiny_trace, now, tmp_path, use_idf
    ):
        cfg = dict(algorithm="KNN", model_params={"n_neighbors": 5}, use_idf=use_idf)
        fw = make_framework(tiny_trace, tmp_path, **cfg)
        fw.train(now, alpha_days=20)
        records = fw.fetcher.fetch(start_time=now, end_time=now + 3 * DAY_SECONDS)
        assert len(records) == 64

        def served(framework):
            labels = framework.predict_records(records)
            strings = [framework.encoder.feature_string(r) for r in records]
            return framework.encoder.embedder.encode(strings), labels

        X_before, labels_before = served(fw)
        restarted = make_framework(tiny_trace, tmp_path, **cfg)
        X_after, labels_after = served(restarted)
        assert X_after.tobytes() == X_before.tobytes()
        assert np.array_equal(labels_after, labels_before)


class TestCharacterization:
    def test_characterize_window(self, tiny_trace, characterizer):
        fw = make_framework(tiny_trace)
        ids, labels = fw.characterize_window(0.0, 10 * DAY_SECONDS)
        sub = tiny_trace.between(0.0, 10 * DAY_SECONDS)
        expected = characterizer.labels_from_trace(sub)
        # DB returns jobs ordered by submit time, same as the trace slice
        assert np.array_equal(np.sort(ids), np.sort(sub["job_id"]))
        assert np.array_equal(labels, expected)


class TestPredictMemo:
    """The §V-C.c serve-path memo: batches of identical jobs hit the LRU."""

    def test_memo_matches_the_unmemoized_path(self, tiny_trace, now):
        memo_fw = make_framework(tiny_trace)
        plain_fw = make_framework(tiny_trace, predict_memo=0)
        memo_fw.train(now, alpha_days=20)
        plain_fw.train(now, alpha_days=20)
        records = memo_fw.fetcher.fetch(start_time=now, end_time=now + DAY_SECONDS)
        expected = plain_fw.predict_records(records)
        # twice: the second call is served from the memo
        first = memo_fw.predict_records(records)
        second = memo_fw.predict_records(records)
        assert np.array_equal(first, expected)
        assert np.array_equal(second, expected)
        assert len(memo_fw._predict_memo) > 0

    def test_repeats_within_a_call_encode_once(self, tiny_trace, now):
        fw = make_framework(tiny_trace)
        fw.train(now, alpha_days=20)
        records = fw.fetcher.fetch(start_time=now, end_time=now + DAY_SECONDS)
        batch = [records[0]] * 5 + [records[1]] * 3
        labels = fw.predict_records(batch)
        assert np.unique(labels[:5]).size == 1
        assert np.unique(labels[5:]).size == 1
        # only the distinct submissions were memoized
        distinct = {fw.encoder.feature_string(r) for r in batch}
        assert set(fw._predict_memo) == distinct

    def test_memo_is_bounded(self, tiny_trace, now):
        fw = make_framework(tiny_trace, predict_memo=2)
        fw.train(now, alpha_days=20)
        records = fw.fetcher.fetch(start_time=now, end_time=now + 2 * DAY_SECONDS)
        assert len({fw.encoder.feature_string(r) for r in records}) > 2
        fw.predict_records(records)
        assert len(fw._predict_memo) <= 2

    def test_new_model_invalidates_the_memo(self, tiny_trace, now):
        fw = make_framework(tiny_trace)
        fw.train(now, alpha_days=20)
        records = fw.fetcher.fetch(start_time=now, end_time=now + DAY_SECONDS)
        fw.predict_records(records)
        assert fw._memo_model is fw.model
        stale = fw.model
        fw.train(now + DAY_SECONDS, alpha_days=20)
        assert fw.model is not stale
        labels = fw.predict_records(records)
        assert fw._memo_model is fw.model
        plain = make_framework(tiny_trace, predict_memo=0)
        plain.train(now + DAY_SECONDS, alpha_days=20)
        assert np.array_equal(labels, plain.predict_records(records))

    def test_cap_zero_disables_the_memo(self, tiny_trace, now):
        fw = make_framework(tiny_trace, predict_memo=0)
        fw.train(now, alpha_days=20)
        records = fw.fetcher.fetch(start_time=now, end_time=now + DAY_SECONDS)
        fw.predict_records(records)
        assert len(fw._predict_memo) == 0


class TestStreamingTrain:
    """train() folds batches into a bounded reservoir."""

    def test_small_window_matches_materialized_fit(self, tiny_trace, now):
        """Windows under the reservoir use every row in submit order, so
        the streamed fit equals a manual fit on the materialized window."""
        from repro.core.classification_model import ClassificationModel

        fw = make_framework(tiny_trace)
        summary = fw.train(now, alpha_days=20)
        start = now - 20 * DAY_SECONDS
        records = fw.fetcher.fetch(start_time=start, end_time=now)
        assert summary["n_jobs"] == len(records) <= fw.config.train_reservoir
        ref = make_framework(tiny_trace, predict_memo=0)
        strings = [ref.encoder.feature_string(r) for r in records]
        X = ref.encoder.embedder.encode(strings)
        y = ref.characterizer.labels_from_records(records)
        manual = ClassificationModel(
            fw.config.algorithm, **fw.config.model_params
        )
        manual.training(X, y)
        test = fw.fetcher.fetch(start_time=now, end_time=now + DAY_SECONDS)
        Xt = ref.encoder.embedder.encode(
            [ref.encoder.feature_string(r) for r in test]
        )
        assert np.array_equal(
            fw.predict_records(test), np.asarray(manual.inference(Xt))
        )

    def test_reservoir_bounds_the_fit(self, tiny_trace, now):
        fw = make_framework(tiny_trace, train_reservoir=50)
        summary = fw.train(now, alpha_days=30)
        assert summary["n_jobs"] > 50  # the window really exceeded the cap
        assert fw.model is not None
        records = fw.fetcher.fetch(start_time=now, end_time=now + DAY_SECONDS)
        labels = fw.predict_records(records)
        assert set(labels.tolist()) <= {0, 1}

    def test_class_counts_cover_the_whole_window(self, tiny_trace, now):
        fw = make_framework(tiny_trace, train_reservoir=50)
        summary = fw.train(now, alpha_days=30)
        assert sum(summary["class_counts"].values()) == summary["n_jobs"]

    @pytest.mark.parametrize(
        "use_idf, unique_names, cap",
        [(False, False, 120), (True, False, 120), (False, True, 120), (False, False, 8)],
    )
    def test_large_window_matches_the_dense_reservoir_fold(
        self, tiny_trace, now, use_idf, unique_names, cap
    ):
        """Above the cap, in many small batches, the fitted KNN holds the
        matrix and labels of a reservoir folded over every job's encoding,
        byte for byte: the id reservoir admits the same jobs, and each
        held submission's encoding is the one its batch gave it.  With
        every job name unique, every job is its own submission, so the
        reservoir's evictions keep freeing and reusing store slots; at a
        tiny cap, submissions leave the reservoir and come back."""
        import functools

        from repro.fugaku.trace import JobTrace
        from repro.mlcore.knn import KNeighborsClassifier

        if unique_names:
            cols = {c: tiny_trace[c] for c in tiny_trace.column_names}
            cols["job_name"] = np.array(
                [f"{name}-{job}" for name, job in zip(
                    tiny_trace["job_name"].tolist(), tiny_trace["job_id"].tolist()
                )],
                dtype=object,
            )
            tiny_trace = JobTrace(cols)
        batch_rows = 40
        cfg = dict(
            algorithm="KNN", model_params={"n_neighbors": 3},
            train_reservoir=cap, use_idf=use_idf,
        )
        fw = make_framework(tiny_trace, **cfg)
        fw.fetcher.fetch_batches = functools.partial(
            fw.fetcher.fetch_batches, batch_rows=batch_rows
        )
        summary = fw.train(now, alpha_days=30)
        assert summary["n_jobs"] > 4 * cap
        assert summary["n_jobs"] > 10 * batch_rows

        # the dense fold: every job's string, encoding and reservoir row
        ref = make_framework(tiny_trace, **cfg)
        X_res = np.empty((cap, ref.encoder.dim), dtype=np.float32)
        y_res = np.empty(cap, dtype=np.int64)
        rng = np.random.default_rng(ref.config.embedder_seed)
        n_seen = 0
        for batch in ref.fetcher.fetch_batches(
            now - 30 * DAY_SECONDS, now, batch_rows=batch_rows
        ):
            labels = ref.characterizer.labels_from_result(batch).astype(np.int64)
            strings = ref.encoder.feature_strings_from_result(batch)
            if use_idf:
                ref.encoder.embedder.partial_fit_idf(strings)
            Xb = ref.encoder.embedder.encode(strings)
            positions = n_seen + np.arange(len(labels))
            fill = positions < cap
            X_res[positions[fill]] = Xb[fill]
            y_res[positions[fill]] = labels[fill]
            rest = ~fill
            if np.any(rest):
                slots = rng.integers(0, positions[rest] + 1)
                hits = slots < cap
                X_res[slots[hits]] = Xb[rest][hits]
                y_res[slots[hits]] = labels[rest][hits]
            n_seen += len(labels)
        assert n_seen == summary["n_jobs"]
        dense = KNeighborsClassifier(**cfg["model_params"]).fit(X_res, y_res)

        knn = fw.model.model
        assert knn._rows[knn._row_index].tobytes() == dense._rows[dense._row_index].tobytes()
        assert knn._y.tobytes() == dense._y.tobytes()
        assert np.array_equal(knn.classes_, dense.classes_)
        # the fit received one row per held submission, not per job
        assert knn._rows.shape[0] == dense._rows.shape[0] <= cap
