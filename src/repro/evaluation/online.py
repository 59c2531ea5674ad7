"""The online prediction algorithm evaluation loop (§V-B).

Models are trained on sliding windows of the recent past and tested
day-by-day on the following month, by one day loop: on each test day ``d``

- a retrain policy picks the training rows, if any: the last α days'
  jobs every β days (optionally a θ-subsample, at random or by most
  recent completion — §V-C.c), or the same window when an
  :class:`~repro.evaluation.drift.AdaptiveRetrainingPolicy` fires;
- a model factory fits a fresh model on them: a ``ClassificationModel``
  on the encodings, or the §V-C.a lookup baseline on ``(job_name,
  cores_req)`` keys;
- the jobs submitted on day ``d`` are predicted with the current model.

Macro-F1 is computed once, at the end of the test period, over all
predictions — matching the paper's ``evaluate`` script.

Labels and encodings come from one pass over the trace through an
:class:`~repro.core.MCBound` facade, with the batch calls its ``train``
makes (``fetch_batches`` → ``labels_from_result`` → ``submission_ids`` →
``embedder.encode`` of the new submissions), and every trigger reuses
them, as the paper's Fugaku implementation caches them across workflow
triggers (§V-A) — which is also why encoding time is excluded from
training time but included in inference time (its §V-B accounting).
The evaluator keeps one encoding per distinct submission (``rows``) and
one row id per job (``row_index``), never an n x d matrix; models fit on
that pair, and job ``i``'s encoding is ``rows[row_index[i]]``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.classification_model import ClassificationModel
from repro.core.config import MCBoundConfig
from repro.core.data_fetcher import load_trace_into_db
from repro.core.framework import MCBound
from repro.evaluation.drift import EmbeddingDriftDetector
from repro.fugaku.trace import JobTrace
from repro.fugaku.workload import DAY_SECONDS, FEB_1, MAR_1
from repro.mlcore.baseline import LookupTableBaseline
from repro.mlcore.metrics import accuracy_score, f1_macro

__all__ = ["OnlineRunResult", "OnlineEvaluator"]


@dataclass(frozen=True)
class OnlineRunResult:
    """Outcome of one online evaluation run."""

    model_name: str
    alpha: object  # days, or ("plus", alpha_init)
    beta: float
    theta: int | None
    sampling: str
    seed: int | None
    f1: float
    accuracy: float
    n_test_jobs: int
    n_retrainings: int
    train_times: tuple[float, ...]
    predict_times: tuple[float, ...]
    encode_time_per_job: float
    train_sizes: tuple[int, ...]
    per_day_f1: tuple[float, ...] = field(default=())

    @property
    def mean_train_time(self) -> float:
        """Average per-trigger training time (Fig. 7)."""
        return float(np.mean(self.train_times)) if self.train_times else 0.0

    @property
    def mean_inference_time_per_job(self) -> float:
        """Average per-job inference time including encoding (Fig. 8)."""
        n = self.n_test_jobs
        predict = sum(self.predict_times) / n if n else 0.0
        return predict + self.encode_time_per_job


# -- retrain policies: which rows, if any, to retrain on today ------------------


class _EveryBeta:
    """Every β days, the α-window (θ-subsampled when ``theta`` is set)."""

    def __init__(self, evaluator, alpha, beta, theta, sampling, seed) -> None:
        if beta < 1:
            raise ValueError("beta must be >= 1 day (the paper avoids beta=0)")
        self.ev, self.alpha, self.beta = evaluator, alpha, beta
        self.theta, self.sampling, self.rng = theta, sampling, np.random.default_rng(seed)

    def window(self, day: int, test_idx: np.ndarray) -> np.ndarray | None:
        if (day - self.ev.test_start_day) % self.beta:
            return None
        idx = self.ev._training_indices(day, self.alpha)
        return self.ev._subsample(idx, self.theta, self.sampling, self.rng)

    def fitted(self, idx: np.ndarray) -> None:
        pass


class _OnDrift:
    """The α-window whenever the drift policy fires; each day's jobs are
    scored against the last training window first (``scores``, NaN while
    there is no window or no job)."""

    def __init__(self, evaluator, alpha, policy) -> None:
        self.ev, self.alpha, self.policy = evaluator, alpha, policy
        self.detector: EmbeddingDriftDetector | None = None
        self.days_since = math.inf  # as of today; inf before the first fit
        self.scores: list[float] = []

    def window(self, day: int, test_idx: np.ndarray) -> np.ndarray | None:
        self.days_since += 1.0
        score = None
        if self.detector is not None and test_idx.size:
            score = self.detector.score(self.ev.rows[self.ev.row_index[test_idx]])
        self.scores.append(math.nan if score is None else score)
        if self.policy.should_retrain(score, self.days_since, int(test_idx.size)):
            return self.ev._training_indices(day, self.alpha)
        return None

    def fitted(self, idx: np.ndarray) -> None:
        self.detector = EmbeddingDriftDetector(self.ev.rows[self.ev.row_index[idx]])
        self.days_since = 0.0


# -- model factories: how a model is built, fitted and applied to trace rows -------


class _Classifier:
    """A ClassificationModel on the job encodings (fits two classes)."""

    min_classes = 2

    def __init__(self, evaluator, algorithm: str, params: dict | None) -> None:
        self.rows, self.row_index = evaluator.rows, evaluator.row_index
        self.algorithm, self.params = algorithm, dict(params or {})

    def new(self) -> ClassificationModel:
        return ClassificationModel(self.algorithm, **self.params)

    def fit(self, model, idx: np.ndarray, y: np.ndarray) -> None:
        model.training(self.rows, y, row_index=self.row_index[idx])

    def predict(self, model, idx: np.ndarray) -> np.ndarray:
        return model.inference(self.rows[self.row_index[idx]])


class _LookupTable:
    """The §V-C.a baseline on ``(job_name, cores_req)`` keys (fits one row)."""

    min_classes = 1

    def __init__(self, trace: JobTrace) -> None:
        self.keys = list(zip(trace["job_name"].tolist(), trace["cores_req"].tolist()))

    def new(self) -> LookupTableBaseline:
        return LookupTableBaseline()

    def fit(self, model, idx: np.ndarray, y: np.ndarray) -> None:
        model.fit([self.keys[i] for i in idx.tolist()], y)

    def predict(self, model, idx: np.ndarray) -> np.ndarray:
        return model.predict([self.keys[i] for i in idx.tolist()])


class OnlineEvaluator:
    """Facade-labelled trace state + the day-by-day evaluation loop.

    Parameters
    ----------
    trace:
        The full job trace (training history + test period), sorted by
        submit time.  The paper's (Fugaku) configuration labels and
        encodes it.
    test_start_day / test_end_day:
        Test window in day indices; defaults to February 2024 (days 62-91
        of the trace), the paper's test month.
    """

    def __init__(
        self,
        trace: JobTrace,
        *,
        test_start_day: int = FEB_1,
        test_end_day: int = MAR_1,
    ) -> None:
        if test_end_day <= test_start_day:
            raise ValueError("empty test window")
        self.trace = trace
        self.test_start_day = int(test_start_day)
        self.test_end_day = int(test_end_day)
        self.submit_day = trace["submit_time"] / DAY_SECONDS
        self.end_time = trace["end_time"]
        order = np.argsort(self.submit_day, kind="stable")
        if not np.array_equal(order, np.arange(len(trace))):
            raise ValueError("trace must be sorted by submit_time")

        # one pass of the facade's batch path labels every job and encodes
        # every distinct submission once
        framework = MCBound(MCBoundConfig(), load_trace_into_db(trace))
        characterizer, encoder = framework.characterizer, framework.encoder
        #: job i's encoding is rows[row_index[i]]
        self.row_index = np.empty(len(trace), dtype=np.int64)
        self.y = np.empty(len(trace), dtype=np.int64)
        known: dict = {}
        blocks = [np.empty((0, encoder.dim), dtype=np.float32)]
        encode_wall, n = 0.0, 0
        for batch in framework.fetcher.fetch_batches(-math.inf, math.inf):
            jobs = slice(n, n + len(batch))
            if not np.array_equal(batch.column("job_id"), trace["job_id"][jobs]):
                raise RuntimeError(f"facade batch at row {n} leaves the trace's job order")
            self.y[jobs] = characterizer.labels_from_result(batch)
            t0 = time.perf_counter()
            self.row_index[jobs], strings = encoder.submission_ids(batch, known)
            blocks.append(encoder.embedder.encode(strings))
            encode_wall += time.perf_counter() - t0
            n = jobs.stop
        if n != len(trace):
            raise RuntimeError(f"facade batches cover {n} of {len(trace)} trace jobs")
        #: one float32 encoding per distinct submission, in first-seen order
        self.rows = np.concatenate(blocks)
        #: mean per-job encoding cost over the whole trace: keying each job
        #: by submission plus encoding each distinct submission once (cache
        #: included), the component dominating Fig. 8's inference time.
        self.encode_time_per_job = encode_wall / max(1, len(trace))

        # per-test-day index slices
        self._day_indices: dict[int, np.ndarray] = {}
        for d in range(self.test_start_day, self.test_end_day):
            self._day_indices[d] = np.flatnonzero(
                (self.submit_day >= d) & (self.submit_day < d + 1)
            )

    # -- window selection -------------------------------------------------------

    def _training_indices(self, day: int, alpha) -> np.ndarray:
        """Indices of the α-window (or α+ growing window) ending at ``day``."""
        if isinstance(alpha, tuple) and alpha[0] == "plus":
            start = self.test_start_day - float(alpha[1])
        else:
            start = day - float(alpha)
        return np.flatnonzero((self.submit_day >= start) & (self.submit_day < day))

    def _subsample(
        self, idx: np.ndarray, theta: int | None, sampling: str, rng: np.random.Generator
    ) -> np.ndarray:
        """θ-subsample a training window at random or by most recent end time."""
        if theta is None or idx.size <= theta:
            return idx
        if sampling == "random":
            return rng.choice(idx, size=theta, replace=False)
        if sampling == "latest":
            order = np.argsort(self.end_time[idx], kind="stable")
            return idx[order[-theta:]]
        raise ValueError(f"unknown sampling {sampling!r}")

    # -- the loop -------------------------------------------------------------------

    def _replay(self, factory, policy, **fields) -> OnlineRunResult:
        """The day loop of the module docstring; ``fields`` describe the
        run in its result."""
        model = None
        train_times: list[float] = []
        train_sizes: list[int] = []
        predict_times: list[float] = []
        preds: list[np.ndarray] = []
        trues: list[np.ndarray] = []
        per_day_f1: list[float] = []

        for day in range(self.test_start_day, self.test_end_day):
            test_idx = self._day_indices[day]
            idx = policy.window(day, test_idx)
            if idx is not None and np.unique(self.y[idx]).size >= factory.min_classes:
                candidate = factory.new()
                t0 = time.perf_counter()
                factory.fit(candidate, idx, self.y[idx])
                train_times.append(time.perf_counter() - t0)
                train_sizes.append(int(idx.size))
                model = candidate
                policy.fitted(idx)
            if test_idx.size == 0 or model is None:
                continue
            t0 = time.perf_counter()
            p = factory.predict(model, test_idx)
            predict_times.append(time.perf_counter() - t0)
            preds.append(p)
            trues.append(self.y[test_idx])
            if np.unique(self.y[test_idx]).size >= 2:
                per_day_f1.append(f1_macro(self.y[test_idx], p))

        if not preds:
            raise RuntimeError("no predictions were produced (empty test period?)")
        y_pred = np.concatenate(preds)
        y_true = np.concatenate(trues)
        return OnlineRunResult(
            **{"encode_time_per_job": self.encode_time_per_job, **fields},
            f1=f1_macro(y_true, y_pred),
            accuracy=accuracy_score(y_true, y_pred),
            n_test_jobs=int(y_true.size),
            n_retrainings=len(train_times),
            train_times=tuple(train_times),
            predict_times=tuple(predict_times),
            train_sizes=tuple(train_sizes),
            per_day_f1=tuple(per_day_f1),
        )

    def evaluate(
        self,
        algorithm: str,
        model_params: dict | None = None,
        *,
        alpha,
        beta: float,
        theta: int | None = None,
        sampling: str = "random",
        seed: int | None = None,
        model_name: str | None = None,
    ) -> OnlineRunResult:
        """Run the online loop for one configuration.

        ``alpha`` is a window length in days or ``("plus", alpha_init)``
        for the growing window of §V-C.b.  ``theta`` caps the training set
        size by subsampling (§V-C.c).
        """
        return self._replay(
            _Classifier(self, algorithm, model_params),
            _EveryBeta(self, alpha, beta, theta, sampling, seed),
            model_name=model_name or algorithm, alpha=alpha, beta=beta,
            theta=theta, sampling=sampling, seed=seed,
        )

    def evaluate_adaptive(
        self,
        algorithm: str,
        model_params: dict | None = None,
        *,
        alpha,
        policy,
        model_name: str | None = None,
    ):
        """Online loop with drift-triggered retraining.

        Replaces the fixed β cadence with an
        :class:`~repro.evaluation.drift.AdaptiveRetrainingPolicy`: each
        day's incoming submissions are scored against the current training
        window by the embedding drift detector, and the model is retrained
        only when the policy fires (or its staleness deadline passes).

        Returns ``(OnlineRunResult, per_day_drift_scores)``; the result's
        ``sampling`` field is ``"adaptive"`` and ``beta`` is NaN.
        """
        schedule = _OnDrift(self, alpha, policy)
        result = self._replay(
            _Classifier(self, algorithm, model_params),
            schedule,
            model_name=model_name or algorithm, alpha=alpha, beta=math.nan,
            theta=None, sampling="adaptive", seed=None,
        )
        return result, schedule.scores

    def evaluate_baseline(
        self, *, alpha: float = 30.0, beta: float = 1.0
    ) -> OnlineRunResult:
        """Online loop for the (job name, #cores) lookup baseline."""
        return self._replay(
            _LookupTable(self.trace),
            _EveryBeta(self, alpha, beta, None, "none", None),
            model_name="baseline", alpha=alpha, beta=beta,
            theta=None, sampling="none", seed=None, encode_time_per_job=0.0,
        )
