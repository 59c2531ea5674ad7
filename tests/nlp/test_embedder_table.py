"""The embedder under the serve path's load: memory, chunking and
concurrent callers.

The strings are shaped like the ``serve_cold`` benchmark's: the feature
strings of generated jobs with every job name made unique
(``<name>-<job_id>``), so no vector cache entry is ever reused and every
batch is embedded from scratch.
"""

import sys
import threading
import tracemalloc

import numpy as np

from repro.core import FeatureEncoder
from repro.nlp.embedder import CHUNK_STRINGS, SentenceEmbedder
from repro.nlp.reference import encode_scalar

BATCH = 16
#: memory an encoded string may keep alive: its cached vector (1.5 KiB of
#: float32 at 384 dimensions) and its cache entry
RETAINED_BYTES_PER_STRING = 2 * 1024
#: one encode of this many unique strings, with no cache, peaks below
#: PEAK_BYTES: its output plus the working memory of one chunk
PEAK_STRINGS, PEAK_BYTES = 8_000, 36_000_000


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


def test_one_encode_peaks_at_one_chunk(small_trace):
    strings = _cold_strings(small_trace, PEAK_STRINGS)
    emb = SentenceEmbedder(cache_size=0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        emb.encode(strings)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BYTES


def test_serve_batches_and_a_batch_of_several_chunks_are_the_oracle(small_trace):
    strings = _cold_strings(small_trace, 3_000)
    emb = SentenceEmbedder(cache_size=10)
    for batch in _batches(strings[:1_000]):
        assert np.array_equal(emb.encode(batch), encode_scalar(emb, batch))

    big = strings[1_000:]
    assert len(big) > CHUNK_STRINGS
    emb = SentenceEmbedder(cache_size=0)
    assert np.array_equal(emb.encode(big), encode_scalar(emb, big))


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
