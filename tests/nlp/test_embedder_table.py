"""The embedder's token table under the serve path's load: memory, bounds
and concurrent callers.

The strings are shaped like the ``serve_cold`` benchmark's: the feature
strings of generated jobs with every job name made unique
(``<name>-<job_id>``), so no vector or row cache entry is ever reused and
every batch interns new tokens.
"""

import sys
import threading
import tracemalloc

import numpy as np

from repro.core import FeatureEncoder
from repro.nlp.embedder import SentenceEmbedder
from repro.nlp.reference import encode_scalar
from repro.nlp.tokenizer import feature_tokens

BATCH = 16
#: memory an encoded string may keep alive: its cached vector, its cached
#: table rows and its share of the token table
RETAINED_BYTES_PER_STRING = 6 * 1024


def _cold_strings(trace, n):
    """Feature strings of the first ``n`` jobs, each job name made unique."""
    enc = FeatureEncoder()
    cols = {f: trace[f].tolist() for f in enc.feature_set}
    job_ids = trace["job_id"].tolist()
    out = []
    for i in range(n):
        record = {f: cols[f][i] for f in enc.feature_set}
        record["job_name"] = f"{record['job_name']}-{job_ids[i]}"
        out.append(enc.feature_string(record))
    assert len(set(out)) == n
    return out


def _batches(strings):
    return [strings[i : i + BATCH] for i in range(0, len(strings), BATCH)]


def test_retained_memory_per_unique_string(small_trace):
    strings = _cold_strings(small_trace, 5_000)
    emb = SentenceEmbedder()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for batch in _batches(strings):
            emb.encode(batch)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert emb.cache_len == len(strings)
    assert retained / len(strings) < RETAINED_BYTES_PER_STRING


def test_table_stays_bounded_and_resets_to_the_oracle(small_trace):
    strings = _cold_strings(small_trace, 2_000)
    emb = SentenceEmbedder(cache_size=10)
    bound = 4 * 10 + 1024
    resets, previous = 0, 0
    for batch in _batches(strings):
        out = emb.encode(batch)
        # the batch's own tokens always fit, so a reset leaves exactly them
        batch_tokens = len({tok for t in batch for tok in feature_tokens(t)})
        assert emb._n_tokens <= max(bound, batch_tokens)
        assert len(emb._words) + len(emb._grams) == emb._n_tokens
        assert len(emb._rows) <= 10 and emb.cache_len <= 10
        resets += emb._n_tokens < previous
        previous = emb._n_tokens
        assert np.array_equal(out, encode_scalar(emb, batch))
    assert resets > 0

    # one batch with more distinct tokens than the bound is interned whole
    big = strings[:200]
    emb = SentenceEmbedder(cache_size=0)
    out = emb.encode(big)
    assert emb._n_tokens == len({tok for t in big for tok in feature_tokens(t)}) > 1024
    assert np.array_equal(out, encode_scalar(emb, big))


def test_concurrent_encode_matches_a_serial_encode(small_trace):
    batches = _batches(_cold_strings(small_trace, 4_000))
    serial = SentenceEmbedder(128, cache_size=500)
    expected = [serial.encode(b) for b in batches]
    shared = SentenceEmbedder(128, cache_size=500)
    results = [None] * len(batches)
    errors = []
    n_threads = 8

    def work(first):
        try:
            for j in range(first, len(batches), n_threads):
                results[j] = shared.encode(batches[j])
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert all(r.tobytes() == e.tobytes() for r, e in zip(results, expected))
