"""A job's KNN label is a function of the job, not of the batch it arrives in.

The predict memo serves the label a submission string got in the call
that missed, and the server batches submissions 16 at a time, so both
assume that predicting a job alone, in its 16-job batch and in one
whole-day call give the same answer.  Each case below trains the
deployed KNN (brute force, α=30) and predicts every job of one day all
three ways.  Seed 202 at day 90 has jobs near a distance tie, where a
BLAS-identity distance ‖q‖² + ‖x‖² − 2q·x (whose rounding depends on
the number of query rows) flips labels; seed 2024 at day 62 is the
perfbench window.
"""

import numpy as np
import pytest

from repro.core.config import MCBoundConfig
from repro.core.data_fetcher import load_trace_into_db
from repro.core.framework import MCBound
from repro.fugaku.workload import generate_trace

DAY_SECONDS = 86_400.0
SUBMIT_BATCH = 16


def _day_encodings(seed: int, day: int):
    """The KNN trained at the start of ``day`` (days count from the trace
    epoch, as perfbench's do) and the encodings of that day's jobs, in
    submit order."""
    trace = generate_trace(scale=1 / 60, seed=seed)
    config = MCBoundConfig(
        algorithm="KNN", model_params={"n_neighbors": 5, "algorithm": "brute"},
        alpha_days=30.0,
    )
    fw = MCBound(config, load_trace_into_db(trace))
    start = day * DAY_SECONDS
    fw.train(start)
    strings = []
    for batch in fw.fetcher.fetch_batches(start, start + DAY_SECONDS):
        strings += fw.encoder.feature_strings_from_result(batch)
    return fw.model.model, fw.encoder.embedder.encode(strings)


def _predict(knn, X, size):
    """Labels and neighbour indices with ``X`` cut into calls of ``size`` rows."""
    parts = [slice(lo, lo + size) for lo in range(0, len(X), size)]
    labels = np.concatenate([knn.predict(X[s]) for s in parts])
    idx = np.concatenate([knn.kneighbors(X[s])[1] for s in parts])
    return labels, idx


@pytest.mark.parametrize("seed, day", [(202, 90), (2024, 62)])
def test_label_and_neighbours_do_not_depend_on_the_batch(seed, day):
    knn, X = _day_encodings(seed, day)
    assert len(X) > SUBMIT_BATCH
    whole_labels, whole_idx = _predict(knn, X, len(X))
    for size in (1, SUBMIT_BATCH):
        labels, idx = _predict(knn, X, size)
        flipped = np.flatnonzero(labels != whole_labels)
        assert flipped.size == 0, (
            f"{flipped.size} of {len(X)} jobs get another label in calls of "
            f"{size} than in the whole day's call"
        )
        assert np.array_equal(idx, whole_idx)
