"""A /train never makes /predict wait (the retrain/serve loop, paper Fig. 1).

MCBound retrains while it serves.  Its slow training stages, the fit and
the model publish, run outside ``MCBound._state_lock``; only the swap of
the model instance takes it.  Each case parks a /train on an Event inside
one of those stages and requires a /predict from another thread to answer
within ``PREDICT_DEADLINE_S``.  Then it releases the park.
"""

import threading

import pytest

from repro.core import MCBound, MCBoundConfig, build_app, load_trace_into_db
from repro.core.classification_model import ClassificationModel
from repro.core.registry import ModelStore
from repro.fugaku.workload import DAY_SECONDS
from repro.web import TestClient

NOW = 40 * DAY_SECONDS
WINDOW = {"start_time": NOW - 5 * DAY_SECONDS, "end_time": NOW}
PREDICT_DEADLINE_S = 5.0
#: bounds every other wait, so a failing run cannot hang the suite
PARK_TIMEOUT_S = 60.0


@pytest.mark.parametrize(
    "owner, stage",
    [(ModelStore, "publish"), (ClassificationModel, "training")],
    ids=["publish", "training"],
)
def test_predict_answers_while_a_train_is_parked(tiny_trace, tmp_path, monkeypatch, owner, stage):
    cfg = MCBoundConfig(algorithm="KNN", model_params={"n_neighbors": 3}, alpha_days=20.0)
    fw = MCBound(cfg, load_trace_into_db(tiny_trace), model_store_root=tmp_path / "models")
    client = TestClient(build_app(fw))
    assert client.post("/train", json_body={"now": NOW}).status == 201
    served = client.post("/predict", json_body=WINDOW).json()

    parked, release = threading.Event(), threading.Event()
    slow_stage = getattr(owner, stage)

    def park(self, *args, **kwargs):
        parked.set()
        release.wait(PARK_TIMEOUT_S)
        return slow_stage(self, *args, **kwargs)

    monkeypatch.setattr(owner, stage, park)
    replies = {}

    def train():
        replies["train"] = client.post("/train", json_body={"now": NOW})

    def predict():
        replies["predict"] = client.post("/predict", json_body=WINDOW)

    trainer = threading.Thread(target=train, name="train")
    predictor = threading.Thread(target=predict, name="predict")
    trainer.start()
    try:
        assert parked.wait(PARK_TIMEOUT_S), f"/train never reached {stage}"
        predictor.start()
        predictor.join(PREDICT_DEADLINE_S)
        answered_in_time = not predictor.is_alive()
    finally:
        release.set()
        trainer.join(PARK_TIMEOUT_S)
        predictor.join(PARK_TIMEOUT_S)
    assert answered_in_time, (
        f"/predict waited on a /train parked in {owner.__name__}.{stage}"
    )
    assert not trainer.is_alive() and not predictor.is_alive()
    assert replies["predict"].status == 200
    # the parked train had not swapped its model in: the old one answered
    assert replies["predict"].json() == served
    assert replies["train"].status == 201
