"""The MCBound facade: the four components wired together (paper Fig. 1).

Owns the Data Fetcher, Feature Encoder, Job Characterizer and the current
Classification Model instance.  The paper's Fugaku implementation also
reuses characterizations and encodings across workflow triggers (§V-A):
here the embedder caches encodings, and characterizations are recomputed,
one vectorized pass per batch, which costs less than keeping them.

The machine model and the embedder both come from the one
:class:`MCBoundConfig`.  The embedder is built once and learns nothing,
so an encoding depends only on its string and the configuration; a
stored model version made with another embedder is refused on load, not
served with encodings it was not trained on.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro.core.classification_model import ClassificationModel
from repro.core.config import MCBoundConfig
from repro.core.data_fetcher import DataFetcher
from repro.core.feature_encoder import FeatureEncoder
from repro.core.job_characterizer import JobCharacterizer
from repro.core.registry import ModelStore
from repro.mlcore.base import NotFittedError
from repro.nlp.embedder import SentenceEmbedder
from repro.sanitizers import StateGuard, check_finite, new_lock
from repro.storage.engine import SCAN_BATCH_ROWS, Database

__all__ = ["MCBound", "UnknownJob"]


class UnknownJob(KeyError):
    """No job with the requested id is stored."""


def _concat(arrays) -> np.ndarray:
    """Concatenate int64 arrays; an empty sequence gives an empty array."""
    return np.concatenate([np.empty(0, dtype=np.int64), *arrays])


#: the embedder settings a vector depends on; ``cache_size`` only bounds memory
_VECTOR_FIELDS = ("dim", "n_hashes", "seed", "ngram_range")


def _check_embedder(version: int, stored: dict | None, live: dict) -> None:
    """Refuse a stored version whose encodings ``live`` would not reproduce.

    ``stored`` is the embedder config published beside the version (None
    for a version published without one, which loads as it is).  A
    version whose embedder weighted tokens by an online IDF
    (``use_idf``) is refused too: this embedder has no such weights.
    """
    if not stored:
        return
    if stored.get("use_idf"):
        raise NotFittedError(
            f"model version {version} was trained with use_idf=True, "
            "which this embedder does not support"
        )
    for name in _VECTOR_FIELDS:
        if stored.get(name) != live[name]:
            raise NotFittedError(
                f"model version {version} was trained with embedder "
                f"{name}={stored.get(name)!r}, this framework embeds with "
                f"{name}={live[name]!r}"
            )


class MCBound:
    """Online memory/compute-bound classification framework.

    Parameters
    ----------
    config:
        Framework configuration (machine ceilings, feature set, algorithm,
        α/β schedule).
    db:
        Jobs data storage with a loaded ``jobs`` table
        (see :func:`repro.core.data_fetcher.load_trace_into_db`).
    model_store_root:
        Directory for the versioned model store; None keeps models only in
        memory.
    """

    def __init__(
        self,
        config: MCBoundConfig,
        db: Database,
        *,
        model_store_root: str | Path | None = None,
    ) -> None:
        # Build the estimator once so that an unknown algorithm or a bad
        # model_params fails here, not at every /train.
        ClassificationModel(config.algorithm, **config.model_params)
        self.config = config
        self.fetcher = DataFetcher(db)
        self.encoder = FeatureEncoder(
            config.feature_set,
            SentenceEmbedder(config.embedding_dim, seed=config.embedder_seed),
        )
        self.characterizer = JobCharacterizer(
            config.peak_gflops_node, config.peak_membw_gbs
        )
        self.store = ModelStore(model_store_root) if model_store_root else None
        self.model: ClassificationModel | None = None
        #: submission string -> predicted label; users submit batches of
        #: identical jobs (§V-C.c), so the serve path memoizes on the raw
        #: string and skips encoder+forest for repeats.  Guarded by
        #: _state_lock; invalidated whenever a new model is published.
        self._predict_memo: OrderedDict[str, int] = OrderedDict()
        self._memo_model: ClassificationModel | None = None
        # One lock serializes every cross-thread write to model and the
        # memo: the serving path (handler threads) races the Training
        # Workflow over both.
        self._state_lock = new_lock("repro.core.MCBound.state")
        self._state_guard = StateGuard("repro.core.MCBound.state")

    # -- characterization ---------------------------------------------------------

    def characterize_window(self, start_time: float, end_time: float):
        """Label all jobs of a window; returns (job_ids, labels).

        The concatenation of :meth:`characterize_window_batches`.
        """
        parts = list(self.characterize_window_batches(start_time, end_time))
        return _concat(ids for ids, _ in parts), _concat(labels for _, labels in parts)

    def characterize_window_batches(
        self, start_time: float, end_time: float, *, batch_rows: int = SCAN_BATCH_ROWS
    ):
        """Label a window one bounded columnar batch at a time.

        Each batch is fetched and characterized straight off the column
        store — no row dicts — so the working set of a month-scale window
        is O(``batch_rows``); :meth:`characterize_window` concatenates them.
        Nothing is kept once a batch is yielded.
        """
        for batch in self.fetcher.fetch_batches(
            start_time, end_time, batch_rows=batch_rows
        ):
            yield self._characterize_batch(batch)

    def _characterize_batch(self, batch):
        """Label one columnar batch; returns (job_ids, labels)."""
        job_ids = batch.column("job_id").astype(np.int64, copy=False)
        return job_ids, self.characterizer.labels_from_result(batch)

    # -- training -----------------------------------------------------------------------

    def train(self, now: float, *, alpha_days: float | None = None) -> dict:
        """Run one training pass on the last α days before ``now``.

        Returns a summary dict (window, sample count, class balance,
        published version).

        The window is consumed batch by batch off the column store: each
        batch is characterized and keyed by submission
        (:meth:`FeatureEncoder.submission_ids`), and the jobs' submission
        ids and labels fold into a uniform reservoir of at most
        ``config.train_reservoir`` jobs, so training memory is bounded by
        the reservoir, never the window.  Only the submissions the
        reservoir holds are encoded, each once, into a fixed store of
        ``train_reservoir`` rows whose slots are reused as submissions
        leave the reservoir; the fit gets the distinct rows and one row
        index per job, never an n x d matrix.  Windows smaller than the
        reservoir are used whole, in submit order, exactly as the
        pre-streaming path did.  A window whose start is not finite is
        refused with a ``ValueError``.
        """
        alpha = alpha_days if alpha_days is not None else self.config.alpha_days
        start = now - alpha * 86_400.0
        if not math.isfinite(start):
            raise ValueError(
                f"training window start {start} is not finite "
                f"(now={now}, alpha_days={alpha})"
            )
        cap = self.config.train_reservoir
        ids_res = np.empty(cap, dtype=np.int64)
        y_res = np.empty(cap, dtype=np.int64)
        # store[slot_of[i]] is the encoding of held submission id i
        store = np.empty((cap, self.encoder.dim), dtype=np.float32)
        slot_of: dict[int, int] = {}
        free: list[int] = []
        known: dict = {}  # submission key -> id, for the ids slot_of holds
        next_id = 0
        rng = np.random.default_rng(self.config.embedder_seed)
        n_seen = 0
        class_counts: dict[int, int] = {}
        for batch in self.fetcher.fetch_batches(start, now):
            _job_ids, labels = self._characterize_batch(batch)
            labels = np.asarray(labels, dtype=np.int64)
            ids, strings = self.encoder.submission_ids(batch, known, first_id=next_id)
            unique, counts = np.unique(labels, return_counts=True)
            for u, c in zip(unique.tolist(), counts.tolist()):
                class_counts[int(u)] = class_counts.get(int(u), 0) + int(c)
            # Vectorized reservoir fold (Algorithm R shape): absolute
            # stream positions decide admission, so early batches are
            # not privileged over late ones.
            positions = n_seen + np.arange(len(labels))
            fill = positions < cap
            if np.any(fill):
                dest = positions[fill]
                ids_res[dest] = ids[fill]
                y_res[dest] = labels[fill]
            rest = ~fill
            if np.any(rest):
                slots = rng.integers(0, positions[rest] + 1)
                hits = slots < cap
                ids_res[slots[hits]] = ids[rest][hits]
                y_res[slots[hits]] = labels[rest][hits]
            n_seen += len(labels)
            # free the slots of ids the fold dropped, encode the new ones
            held = np.unique(ids_res[: min(n_seen, cap)])
            kept = set(held.tolist())
            for i in [i for i in slot_of if i not in kept]:
                free.append(slot_of.pop(i))
            fresh = held[held >= next_id].tolist()
            if fresh:
                X = self.encoder.embedder.encode([strings[i - next_id] for i in fresh])
                check_finite("MCBound.train.encodings", X)
                for i in fresh:
                    slot_of[i] = free.pop() if free else len(slot_of)
                store[[slot_of[i] for i in fresh]] = X
            known = {key: i for key, i in known.items() if i in slot_of}
            next_id += len(strings)
        if n_seen == 0:
            raise ValueError(f"no jobs in training window [{start}, {now})")
        n_fit = min(n_seen, cap)
        labels = y_res[:n_fit]
        if np.unique(labels).size < 2:
            raise ValueError("training window contains a single class")
        held, row_index = np.unique(ids_res[:n_fit], return_inverse=True)
        rows = store[[slot_of[i] for i in held.tolist()]]
        del store  # the fit's float64 copy of the rows may reuse its memory
        model = ClassificationModel(self.config.algorithm, **self.config.model_params)
        model.training(rows, labels, row_index=row_index)
        # Store first: a publish that raises leaves the previous model
        # serving, so the live model is always one a restart reloads.
        version = None
        if self.store is not None:
            version = self.store.publish(
                model,
                embedder=self.encoder.embedder,
                trained_at=now,
                window=(start, now),
            )
        # Fit and publish happened outside the critical section; only the
        # swap of the model instance happens under the lock.
        with self._state_lock, self._state_guard.writing():
            self.model = model
        return {
            "window": (start, now),
            "n_jobs": n_seen,
            "class_counts": dict(sorted(class_counts.items())),
            "version": version,
            "algorithm": self.config.algorithm,
        }

    def _require_model(self) -> ClassificationModel:
        """The live model, else the store's latest, if this framework's
        embedder reproduces the encodings it was trained on."""
        with self._state_lock, self._state_guard.reading():
            model = self.model
        if model is not None:
            return model
        version = self.store.latest_version if self.store is not None else None
        if version is None:
            raise NotFittedError(
                "MCBound has no trained model; run the Training Workflow first"
            )
        # disk I/O stays outside the lock
        loaded, metadata = self.store.load(version)
        _check_embedder(
            version, metadata.get("embedder"), self.encoder.embedder.config_dict()
        )
        with self._state_lock, self._state_guard.writing():
            if self.model is None:
                self.model = loaded
            return self.model

    # -- inference ------------------------------------------------------------------------

    def predict_records(self, records: list[dict]) -> np.ndarray:
        """Labels for raw submission records (the pre-execution path).

        Keyed on the raw submission string: users submit batches of
        identical jobs (§V-C.c), so repeats — within one call and across
        calls — are served from a bounded LRU memo and only distinct
        misses of a call reach the encoder and the model, together.  The
        memo empties whenever a new model is published.  It is
        bit-identical to unmemoized serving: a model labels a job the
        same alone, in any batch and in a whole day's call (KNN rescores
        its distances exactly per pair, so the rounding of a batched
        BLAS product never reaches a label).
        """
        model = self._require_model()
        strings = [self.encoder.feature_string(r) for r in records]
        return self._predict_strings(model, strings)

    def _predict_strings(self, model, strings: list[str]) -> np.ndarray:
        """The memoized core behind every prediction path."""
        if not strings:
            return np.empty(0, dtype=np.int64)
        cap = self.config.predict_memo
        if cap == 0:
            X = self.encoder.embedder.encode(strings)
            check_finite("MCBound.predict_records.encodings", X)
            return np.asarray(model.inference(X), dtype=np.int64)
        with self._state_lock:
            if model is not self._memo_model:
                self._predict_memo.clear()
                self._memo_model = model
            memo = self._predict_memo
            hits = []
            for s in strings:
                label = memo.get(s)
                if label is not None:
                    memo.move_to_end(s)
                hits.append(label)
        misses = list(dict.fromkeys(s for s, h in zip(strings, hits) if h is None))
        fresh: dict[str, int] = {}
        if misses:
            X = self.encoder.embedder.encode(misses)
            check_finite("MCBound.predict_records.encodings", X)
            predicted = np.asarray(model.inference(X), dtype=np.int64)
            fresh = dict(zip(misses, (int(v) for v in predicted)))
            with self._state_lock, self._state_guard.writing():
                if model is self._memo_model:
                    self._predict_memo.update(fresh)
                    while len(self._predict_memo) > cap:
                        self._predict_memo.popitem(last=False)
        return np.asarray(
            [h if h is not None else fresh[s] for s, h in zip(strings, hits)],
            dtype=np.int64,
        )

    def predict_window(self, start_time: float, end_time: float):
        """Predict every job submitted in a window; returns (job_ids, labels).

        The window streams in as columnar batches, as in :meth:`train`;
        its feature strings then go through the memo in one call.
        """
        model = self._require_model()
        ids, strings = [], []
        for batch in self.fetcher.fetch_batches(start_time, end_time):
            ids.append(batch.column("job_id").astype(np.int64, copy=False))
            strings += self.encoder.feature_strings_from_result(batch)
        return _concat(ids), self._predict_strings(model, strings)

    def predict_job(self, job_id: int) -> int:
        """Predict a single newly submitted job by id."""
        records = self.fetcher.fetch(job_id=job_id)
        if not records:
            raise UnknownJob(f"no job with id {job_id}")
        return int(self.predict_records(records)[0])
