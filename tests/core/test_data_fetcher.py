"""Tests for the Data Fetcher component (§III-A)."""

import numpy as np
import pytest

from repro.core.data_fetcher import DataFetcher, load_trace_into_db
from repro.fugaku.workload import DAY_SECONDS
from repro.storage.engine import Database


@pytest.fixture()
def fetcher(jobs_db):
    return DataFetcher(jobs_db)


class TestLoadTrace:
    def test_creates_table_and_rows(self, tiny_trace):
        db = load_trace_into_db(tiny_trace)
        assert "jobs" in db.table_names
        assert len(db.table("jobs")) == len(tiny_trace)

    def test_appends_to_existing_db(self, tiny_trace):
        db = load_trace_into_db(tiny_trace)
        load_trace_into_db(tiny_trace, db)
        assert len(db.table("jobs")) == 2 * len(tiny_trace)


class TestFetchByJobId:
    def test_single_job(self, fetcher, tiny_trace):
        records = fetcher.fetch(job_id=1)
        assert len(records) == 1
        assert records[0]["job_id"] == 1
        assert records[0]["user_name"] == tiny_trace["user_name"][0]

    def test_missing_job_empty(self, fetcher):
        assert fetcher.fetch(job_id=10_000_000) == []

    def test_all_features_present(self, fetcher):
        record = fetcher.fetch(job_id=1)[0]
        for field in ("user_name", "job_name", "cores_req", "nodes_req",
                      "environment", "freq_req_ghz", "perf2", "perf5", "duration"):
            assert field in record


class TestFetchByWindow:
    def test_window_matches_trace_slice(self, fetcher, tiny_trace):
        start, end = 10 * DAY_SECONDS, 12 * DAY_SECONDS
        records = fetcher.fetch(start_time=start, end_time=end)
        expected = tiny_trace.between(start, end)
        assert len(records) == len(expected)

    def test_ordered_by_submit_time(self, fetcher):
        records = fetcher.fetch(start_time=0.0, end_time=5 * DAY_SECONDS)
        times = [r["submit_time"] for r in records]
        assert times == sorted(times)

    def test_half_open_interval(self, fetcher, tiny_trace):
        t0 = float(tiny_trace["submit_time"][0])
        records = fetcher.fetch(start_time=t0, end_time=t0)
        assert records == []

    def test_empty_window(self, fetcher):
        assert fetcher.fetch(start_time=1e12, end_time=2e12) == []


class TestArgumentValidation:
    def test_both_modes_rejected(self, fetcher):
        with pytest.raises(ValueError):
            fetcher.fetch(job_id=1, start_time=0.0, end_time=1.0)

    def test_neither_mode_rejected(self, fetcher):
        with pytest.raises(ValueError):
            fetcher.fetch()

    def test_partial_window_rejected(self, fetcher):
        with pytest.raises(ValueError):
            fetcher.fetch(start_time=0.0)

    def test_inverted_window_rejected(self, fetcher):
        with pytest.raises(ValueError):
            fetcher.fetch(start_time=10.0, end_time=1.0)

    def test_bad_table_name_rejected(self):
        with pytest.raises(ValueError):
            DataFetcher(Database(), table="jobs; DROP")
