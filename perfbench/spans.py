"""In-memory spans, and the wrappers that time each layer from outside.

A span records its name, start, end, parent and request id, plus a count
of the work it did (rows, strings, records) and the time its children
took.  Spans stay in memory; the program process sends them to the
benchmark when it finishes.  Self time is a span's duration minus its
children's.

``FeatureEncoder.feature_string`` runs once per submitted record, so it
is tallied (time and calls, charged to the enclosing span) rather than
recorded as one span per call.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time

#: Layer that owns the self time of each span name; ``client.loop`` is
#: absent because its self time is the benchmark's own.
LAYER_OF = {
    "client.predict": "web",
    "client.train": "web",
    "web.json": "web",
    "web.handle": "server",
    "framework.predict": "framework",
    "framework.train": "framework",
    "encoder.feature_string": "encoder",
    "encoder.strings_from_result": "encoder",
    "embed.encode": "nlp",
    "model.inference": "mlcore",
    "model.training": "mlcore",
    "fetch.batches": "storage",
    "characterize.labels": "characterizer",
    "store.publish": "registry",
}


class Recorder:
    """Collects spans from any thread; each thread keeps its own stack."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.tallies: dict[str, list[float]] = {}  # name -> [seconds, calls]
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, rid: str | None = None) -> dict:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent["rid"]
        span = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "rid": rid,
            "count": 0,
            "child_s": 0.0,
            "start": time.perf_counter(),
        }
        stack.append(span)
        return span

    def end(self, span: dict, count: int = 0) -> None:
        span["end"] = time.perf_counter()
        span["count"] = int(count)
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1]["child_s"] += span["end"] - span["start"]
        self.spans.append(span)

    def tally(self, name: str, seconds: float) -> None:
        stack = self._stack()
        if stack:
            stack[-1]["child_s"] += seconds
        with self._lock:
            entry = self.tallies.setdefault(name, [0.0, 0])
            entry[0] += seconds
            entry[1] += 1

    def clear(self) -> None:
        self.spans = []
        self.tallies = {}


def _wrap_call(rec, owner, attr, name, count=None, rid=None):
    raw = owner.__dict__[attr]
    static = isinstance(raw, staticmethod)
    fn = raw.__func__ if static else raw

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.begin(name, rid(args) if rid else None)
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            rec.end(span, count(args, out) if count and out is not None else 0)

    setattr(owner, attr, staticmethod(wrapper) if static else wrapper)


def _wrap_generator(rec, owner, attr, name, count):
    fn = owner.__dict__[attr]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            span = rec.begin(name)
            try:
                item = next(inner)
            except StopIteration:
                rec.end(span)
                return
            except BaseException:
                rec.end(span)
                raise
            rec.end(span, count(item))
            yield item

    setattr(owner, attr, wrapper)


def _wrap_tally(rec, owner, attr, name):
    fn = owner.__dict__[attr]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.tally(name, time.perf_counter() - t0)

    setattr(owner, attr, wrapper)


def _request_id(args) -> str | None:
    headers = args[1].headers
    for key, value in headers.items():
        if key.lower() == "x-request-id":
            return value
    return None


def instrument(rec: Recorder) -> None:
    """Wrap the public entry points of every layer; call once per process."""
    from repro.core.classification_model import ClassificationModel
    from repro.core.data_fetcher import DataFetcher
    from repro.core.feature_encoder import FeatureEncoder
    from repro.core.framework import MCBound
    from repro.core.job_characterizer import JobCharacterizer
    from repro.core.registry import ModelStore
    from repro.nlp.embedder import SentenceEmbedder
    from repro.web.app import App, Request, Response

    first_len = lambda args, out: len(args[1])  # noqa: E731
    out_len = lambda args, out: len(out)  # noqa: E731
    _wrap_call(rec, App, "handle", "web.handle", rid=_request_id)
    _wrap_call(rec, Request, "json", "web.json")
    _wrap_call(rec, Response, "from_handler_result", "web.json")
    _wrap_call(rec, MCBound, "predict_records", "framework.predict", first_len)
    _wrap_call(rec, MCBound, "train", "framework.train")
    _wrap_tally(rec, FeatureEncoder, "feature_string", "encoder.feature_string")
    _wrap_call(
        rec, FeatureEncoder, "feature_strings_from_result",
        "encoder.strings_from_result", out_len,
    )
    _wrap_call(rec, SentenceEmbedder, "encode", "embed.encode", out_len)
    _wrap_call(rec, ClassificationModel, "inference", "model.inference", out_len)
    _wrap_call(rec, ClassificationModel, "training", "model.training", first_len)
    _wrap_generator(rec, DataFetcher, "fetch_batches", "fetch.batches", len)
    _wrap_call(
        rec, JobCharacterizer, "labels_from_result", "characterize.labels", out_len
    )
    _wrap_call(rec, ModelStore, "publish", "store.publish", lambda args, out: 1)
