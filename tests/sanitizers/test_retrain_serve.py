"""The retrain/serve loop runs clean under full instrumentation.

Training and inference race over :class:`repro.core.framework.MCBound`'s
model and predict memo.  Here the runtime sanitizers check that they
produce no lock-order inversion, no write to that state without
``MCBound._state_lock`` and no torn read.  The test arms the sanitizers
itself, so plain tier-1 runs it instrumented.
"""

import threading

from repro.core import MCBound, MCBoundConfig, load_trace_into_db
from repro.fugaku.workload import DAY_SECONDS
from repro.sanitizers import events


def make_framework(trace):
    cfg = MCBoundConfig(
        algorithm="RF",
        model_params={"n_estimators": 3, "max_depth": 6, "splitter": "hist", "random_state": 0},
    )
    return MCBound(cfg, load_trace_into_db(trace))


class TestRetrainServeRace:
    def test_concurrent_train_and_predict_run_clean(self, tiny_trace, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        fw = make_framework(tiny_trace)
        now = 40 * DAY_SECONDS
        fw.train(now, alpha_days=20)

        errors = []

        def retrain():
            try:
                for _ in range(3):
                    fw.train(now, alpha_days=20)
            except Exception as exc:  # pragma: no cover - surfaced via assert
                errors.append(exc)

        def serve():
            try:
                for _ in range(5):
                    fw.predict_window(now - 5 * DAY_SECONDS, now)
            except Exception as exc:  # pragma: no cover - surfaced via assert
                errors.append(exc)

        workers = [threading.Thread(target=retrain), threading.Thread(target=serve)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()

        assert errors == []
        assert events("lock-order-cycle") == []
        assert events("unguarded-write") == []
        assert events("torn-read") == []
