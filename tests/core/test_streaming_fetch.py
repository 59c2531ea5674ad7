"""Streaming fetch + characterize: batched paths equal the materializing ones."""

import numpy as np
import pytest

from repro.core.config import MCBoundConfig
from repro.core.data_fetcher import DataFetcher, load_trace_into_db
from repro.core.framework import MCBound
from repro.fugaku.workload import WorkloadConfig, WorkloadGenerator


@pytest.fixture(scope="module")
def trace():
    return WorkloadGenerator(WorkloadConfig(scale=1.0 / 400.0, n_days=20, seed=11)).generate()


@pytest.fixture(scope="module")
def db(trace):
    return load_trace_into_db(trace)


def window(trace):
    st = trace["submit_time"]
    return float(st[len(st) // 4]), float(st[3 * len(st) // 4])


class TestFetchBatches:
    def test_same_rows_as_windowed_fetch(self, trace, db):
        fetcher = DataFetcher(db)
        lo, hi = window(trace)
        rows = fetcher.fetch(start_time=lo, end_time=hi)
        ids = np.concatenate(
            [b.column("job_id") for b in fetcher.fetch_batches(lo, hi, batch_rows=512)]
        )
        assert np.array_equal(ids, np.array([r["job_id"] for r in rows]))

    def test_batches_are_bounded(self, trace, db):
        fetcher = DataFetcher(db)
        lo, hi = window(trace)
        sizes = [len(b) for b in fetcher.fetch_batches(lo, hi, batch_rows=256)]
        assert sizes and max(sizes) <= 256

    def test_empty_window_yields_nothing(self, db):
        fetcher = DataFetcher(db)
        assert list(fetcher.fetch_batches(-2.0, -1.0)) == []

    def test_rejects_inverted_window(self, db):
        fetcher = DataFetcher(db)
        with pytest.raises(ValueError):
            list(fetcher.fetch_batches(10.0, 5.0))


class TestCharacterizeWindowBatches:
    def test_labels_match_the_materializing_path(self, trace, db):
        lo, hi = window(trace)
        streamed = MCBound(MCBoundConfig(), db)
        records = streamed.fetcher.fetch(start_time=lo, end_time=hi)
        ref_ids = np.array([r["job_id"] for r in records], dtype=np.int64)
        ref_labels = streamed.characterizer.labels_from_records(records)

        got_ids, got_labels = [], []
        for ids, labels in streamed.characterize_window_batches(lo, hi, batch_rows=512):
            got_ids.append(ids)
            got_labels.append(labels)
        assert np.array_equal(np.concatenate(got_ids), ref_ids)
        assert np.array_equal(np.concatenate(got_labels), ref_labels)
        whole_ids, whole_labels = streamed.characterize_window(lo, hi)
        assert np.array_equal(whole_ids, ref_ids)
        assert np.array_equal(whole_labels, ref_labels)

    def test_labels_from_result_matches_records(self, trace, db):
        from repro.core.job_characterizer import JobCharacterizer

        fetcher = DataFetcher(db)
        lo, hi = window(trace)
        characterizer = JobCharacterizer()
        batch = next(fetcher.fetch_batches(lo, hi, batch_rows=512))
        via_result = characterizer.labels_from_result(batch)
        via_records = characterizer.labels_from_records(batch.iter_rows())
        assert np.array_equal(via_result, via_records)
