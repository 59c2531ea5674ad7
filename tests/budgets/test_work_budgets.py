"""Work budgets of the served hot calls.

A regression that devectorizes a hot call returns the same bits, only
slower, and a timing test cannot pin that on a shared machine.  These
tests count the Python-level work instead: the ``call`` and ``c_call``
events :func:`sys.setprofile` sees during one call, after one warm-up
call.  Where the code is vectorized the count does not depend on the
input size.  Where it still loops per item (encode's per-string
lowering and cache upkeep, the predict memo, ``submission_ids``' per-job
keying), the count may grow by a small constant per item.

Every budget relates two input sizes and never pins an absolute count,
which differs across Python and numpy versions.  A copy costs bytes
rather than calls, so the KNN search's working memory has a tracemalloc
bound too.  Every budget runs with the runtime sanitizers off and on:
they add calls, but none per row, and they must record nothing.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repro.core import MCBound, MCBoundConfig, load_trace_into_db
from repro.core.feature_encoder import FeatureEncoder
from repro.fugaku.workload import DAY_SECONDS
from repro.mlcore.forest import RandomForestClassifier
from repro.mlcore.knn import KNeighborsClassifier
from repro.nlp.embedder import CHUNK_STRINGS, SentenceEmbedder
from repro.roofline.characterize import characterize_jobs
from repro.roofline.model import Roofline
from repro.sanitizers import events
from repro.storage.engine import ResultSet

DIM = 384


def work(run, warm=None) -> tuple[int, int]:
    """``(Python calls, C calls)`` made by one ``run()``, counted after
    one warm-up call of ``warm`` (default: ``run`` itself) with the
    garbage collector held off, so no finalizer lands in the count."""
    (warm or run)()
    counts: Counter = Counter()

    def profile(frame, event, arg):
        counts[event] += 1

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        gc.enable()
    return counts["call"], counts["c_call"]


def per_item(small: tuple[int, int], large: tuple[int, int], n_small: int, n_large: int):
    """Extra ``(Python, C)`` calls per item from ``n_small`` to ``n_large`` items."""
    return tuple((b - a) / (n_large - n_small) for a, b in zip(small, large))


def distinct_strings(tag: str, n: int) -> list[str]:
    """``n`` distinct submission-like feature strings."""
    return [f"{tag}app{i},user{i % 97},small,{i % 13 + 1},{0.5 * i:g}" for i in range(n)]


@pytest.fixture(params=["plain", "sanitized"])
def sanitize(request, monkeypatch):
    """Run the budget with the runtime sanitizers off, then on; a
    sanitized run must record no hazard."""
    if request.param == "sanitized":
        monkeypatch.setenv("REPRO_SANITIZE", "1")
    else:
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    before = len(events())
    yield request.param
    assert len(events()) == before


@pytest.fixture(scope="module")
def knn():
    """A KNN fitted as the served window is: 4,000 jobs over 130
    distinct 384-d rows, and 256 fresh query rows."""
    rng = np.random.default_rng(2024)
    rows = rng.normal(size=(130, DIM))
    row_index = np.concatenate([np.arange(130), rng.integers(0, 130, 4000 - 130)])
    model = KNeighborsClassifier().fit_rows(rows, row_index, rng.integers(0, 2, 4000))
    return model, rng.normal(size=(256, DIM))


def test_knn_predict_work_is_flat_in_query_rows(knn, sanitize):
    model, queries = knn
    assert work(lambda: model.predict(queries[:16])) == work(
        lambda: model.predict(queries[:256])
    )


def test_knn_predict_holds_at_most_two_pair_blocks(knn, sanitize):
    """The exact rescore gathers the query and training rows of every
    (query, candidate row) pair, one (pairs, d) float64 block each, and
    subtracts into the first; a third block is a copy the search does
    not need.  A block here is the (256 * k, d) array of k pairs per
    query."""
    model, queries = knn
    block = queries.shape[0] * model.n_neighbors * DIM * 8
    model.predict(queries)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        model.predict(queries)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * block, f"peak {peak / block:.2f} blocks"


def test_knn_fit_rows_work_is_flat_in_jobs(sanitize):
    def fit(n_jobs: int):
        rng = np.random.default_rng(n_jobs)
        n_rows = n_jobs // 20
        rows = rng.normal(size=(n_rows, DIM))
        row_index = np.concatenate(
            [np.arange(n_rows), rng.integers(0, n_rows, n_jobs - n_rows)]
        )
        y = rng.integers(0, 2, n_jobs)
        return lambda: KNeighborsClassifier().fit_rows(rows, row_index, y)

    assert work(fit(2_000)) == work(fit(8_000))


def test_forest_predict_work_is_flat_in_rows_at_fixed_depth(sanitize):
    """The fused sweep takes one step per tree level reached, so the
    depth is held fixed: random labels keep every node impure, and every
    path runs to ``max_depth``."""
    rng = np.random.default_rng(7)
    X = rng.normal(size=(2_000, 16)).astype(np.float32)
    forest = RandomForestClassifier(20, max_depth=4, random_state=0)
    forest.fit(X, rng.integers(0, 2, len(X)))
    queries = rng.normal(size=(4_096, 16)).astype(np.float32)
    counts = {work(lambda: forest.predict(queries[:n])) for n in (16, 256, 4_096)}
    assert len(counts) == 1, counts


def test_characterize_work_is_flat_in_jobs(sanitize):
    roofline = Roofline(3380.0, 1024.0)

    def characterize(n_jobs: int):
        rng = np.random.default_rng(n_jobs)
        flops = rng.uniform(1e12, 1e16, n_jobs)
        moved = rng.uniform(1e12, 1e16, n_jobs)
        duration = rng.uniform(60.0, 86_400.0, n_jobs)
        nodes = rng.integers(1, 64, n_jobs)
        return lambda: characterize_jobs(flops, moved, duration, nodes, roofline)

    assert work(characterize(100)) == work(characterize(10_000))


def miss_work(n: int) -> tuple[int, int]:
    """Work of encoding ``n`` distinct misses on a warm embedder."""
    embedder = SentenceEmbedder(DIM)
    texts, warm = distinct_strings("m", n), distinct_strings("w", n)
    return work(lambda: embedder.encode(texts), warm=lambda: embedder.encode(warm))


def test_encode_python_work_is_flat_within_a_chunk(sanitize):
    assert miss_work(64)[0] == miss_work(CHUNK_STRINGS)[0]


def test_encode_c_calls_per_miss_are_bounded(sanitize):
    _, c_calls = per_item(miss_work(64), miss_work(CHUNK_STRINGS), 64, CHUNK_STRINGS)
    assert c_calls <= 7, c_calls


def test_encode_c_calls_per_hit_are_bounded(sanitize):
    def hit_work(n: int):
        embedder = SentenceEmbedder(DIM)
        texts = distinct_strings("h", n)
        return work(lambda: embedder.encode(texts))  # the warm-up caches them

    python, c_calls = per_item(hit_work(64), hit_work(1_024), 64, 1_024)
    assert python == 0 and c_calls <= 5, (python, c_calls)


@pytest.fixture(scope="module")
def served(tiny_trace):
    """A KNN deployment trained on the tiny trace, and its model."""
    config = MCBoundConfig(algorithm="KNN", model_params={"n_neighbors": 5})
    framework = MCBound(config, load_trace_into_db(tiny_trace))
    framework.train(40 * DAY_SECONDS, alpha_days=30)
    return framework, framework.model


def test_predict_strings_work_per_distinct_miss_is_bounded(served, sanitize):
    """Each distinct string a /predict batch misses in the memo costs a
    few calls of memo upkeep beside encode's own; the batch is encoded
    and inferred once."""
    framework, model = served

    def predict_work(n: int):
        tag = f"{sanitize}{n}"
        texts, warm = distinct_strings(f"p{tag}", n), distinct_strings(f"q{tag}", n)
        return work(
            lambda: framework._predict_strings(model, texts),
            warm=lambda: framework._predict_strings(model, warm),
        )

    python, c_calls = per_item(predict_work(16), predict_work(128), 16, 128)
    assert python <= 4 and c_calls <= 10, (python, c_calls)


def test_submission_ids_work_per_job_is_bounded(tiny_trace, sanitize):
    """Keying rows by submission still costs one dict lookup per job."""
    encoder = FeatureEncoder()

    def key_work(n: int):
        result = ResultSet({f: np.asarray(tiny_trace[f][:n]) for f in encoder.feature_set})
        known: dict = {}
        return work(lambda: encoder.submission_ids(result, known))

    n_large = len(tiny_trace)
    python, c_calls = per_item(key_work(256), key_work(n_large), 256, n_large)
    assert python <= 1 and c_calls <= 2, (python, c_calls)
