"""HTTP backend exposing the framework's operations (§III-E).

The paper implements MCBound as a flask backend "providing APIs to perform
the operations of the framework"; here the same API runs on
:mod:`repro.web`.  Endpoints:

- ``GET  /health``          liveness + whether a trained model is loaded
- ``GET  /config``          the active :class:`MCBoundConfig`
- ``POST /train``           body ``{"now": t, "alpha_days": α?}`` → training summary
- ``POST /predict``         body ``{"jobs": [raw records]}`` or
  ``{"start_time": t0, "end_time": t1}`` or ``{"job_id": id}`` → labels
- ``POST /characterize``    body ``{"start_time": t0, "end_time": t1}`` or
  ``{"jobs": [records with counters]}`` → ground-truth labels
- ``GET  /models``          published model versions + latest

Malformed input — a body that is not a JSON object, a non-numeric time,
window or counter, an ``alpha_days`` that is not positive or puts the
window start out of range, a job id that is not an integer, a job that
is not an object, lacks a feature or counter, or holds text that is not
valid Unicode — gets a 400, and an unknown job id a 404; only a fault of the
service itself is a 5xx.  JSON ``true`` and ``false`` are not numbers,
although Python counts them as the ints 1 and 0.
"""

from __future__ import annotations

import math

from repro.core.feature_encoder import InvalidRecord, MissingFeature
from repro.core.framework import MCBound, UnknownJob
from repro.core.job_characterizer import RECORD_COUNTERS
from repro.mlcore.base import NotFittedError
from repro.roofline.characterize import LABEL_NAMES
from repro.web.app import App, HTTPError

__all__ = ["build_app"]


def _label_payload(job_ids, labels) -> dict:
    return {
        "job_ids": [int(j) for j in job_ids],
        "labels": [int(l) for l in labels],
        "label_names": [LABEL_NAMES[int(l)] for l in labels],
    }


def _json_object(request) -> dict:
    body = request.json()
    if not isinstance(body, dict):
        raise HTTPError(400, "body must be a JSON object")
    return body


def _finite(value, name: str) -> float:
    """``value`` as a finite float, or a 400 naming the field."""
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise HTTPError(400, f"{name!r} must be a finite number")
    return number


def _job_id(value) -> int:
    """``value`` as an integral job id, or a 400: ``1`` and ``1.0`` are
    job 1, but ``1.5`` or ``true`` name no job."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise HTTPError(400, "'job_id' must be an integer")


def _window(body: dict) -> tuple[float, float]:
    start = _finite(body["start_time"], "start_time")
    end = _finite(body["end_time"], "end_time")
    if end < start:
        raise HTTPError(400, "'end_time' must be >= 'start_time'")
    return start, end


def _job_records(body: dict) -> list[dict]:
    records = body["jobs"]
    if not isinstance(records, list) or not all(isinstance(r, dict) for r in records):
        raise HTTPError(400, "'jobs' must be a list of JSON objects")
    return records


def build_app(framework: MCBound) -> App:
    """Construct the HTTP application around one framework instance."""
    app = App("mcbound")

    @app.route("/health")
    def health(request):
        return {
            "status": "ok",
            "model_trained": framework.model is not None,
            "algorithm": framework.config.algorithm,
        }

    @app.route("/config")
    def config(request):
        return framework.config.to_dict()

    @app.route("/train", methods=("POST",))
    def train(request):
        body = _json_object(request)
        if "now" not in body:
            raise HTTPError(400, "body must contain 'now' (trace seconds)")
        now = _finite(body["now"], "now")
        alpha = body.get("alpha_days")
        if alpha is not None:
            alpha = _finite(alpha, "alpha_days")
            # the window is [now - α days, now): α must give it a start
            if not (alpha > 0 and math.isfinite(now - alpha * 86_400.0)):
                raise HTTPError(
                    400, "'alpha_days' must be > 0 and leave a finite window start"
                )
        try:
            summary = framework.train(now, alpha_days=alpha)
        except ValueError as exc:
            raise HTTPError(409, str(exc)) from exc
        summary = dict(summary)
        summary["window"] = list(summary["window"])
        return summary, 201

    @app.route("/predict", methods=("POST",))
    def predict(request):
        body = _json_object(request)
        try:
            if "jobs" in body:
                records = _job_records(body)
                try:
                    labels = framework.predict_records(records)
                except (MissingFeature, InvalidRecord) as exc:
                    raise HTTPError(400, str(exc.args[0])) from exc
                return _label_payload(range(len(records)), labels)
            if "job_id" in body:
                job_id = _job_id(body["job_id"])
                return _label_payload([job_id], [framework.predict_job(job_id)])
            if "start_time" in body and "end_time" in body:
                job_ids, labels = framework.predict_window(*_window(body))
                return _label_payload(job_ids, labels)
        except NotFittedError as exc:
            raise HTTPError(503, str(exc)) from exc
        except UnknownJob as exc:
            raise HTTPError(404, str(exc.args[0])) from exc
        raise HTTPError(400, "body must contain 'jobs', 'job_id' or a time window")

    @app.route("/characterize", methods=("POST",))
    def characterize(request):
        body = _json_object(request)
        if "start_time" in body and "end_time" in body:
            job_ids, labels = framework.characterize_window(*_window(body))
            return _label_payload(job_ids, labels)
        if "jobs" in body:
            records = _job_records(body)
            for record in records:
                for name in RECORD_COUNTERS:
                    if name not in record:
                        raise HTTPError(400, f"job record is missing counter {name!r}")
                    _finite(record[name], name)
            try:
                labels = framework.characterizer.labels_from_records(records)
            except ValueError as exc:  # e.g. a non-positive duration
                raise HTTPError(400, str(exc)) from exc
            return _label_payload(range(len(records)), labels)
        raise HTTPError(400, "body must contain 'jobs' or a time window")

    @app.route("/models")
    def models(request):
        if framework.store is None:
            return {"versions": [], "latest": None, "persistent": False}
        latest = framework.store.latest_version
        versions = list(range(1, (latest or 0) + 1))
        return {"versions": versions, "latest": latest, "persistent": True}

    @app.route("/ridge")
    def ridge(request):
        return {
            "ridge_point_flops_per_byte": framework.characterizer.ridge_point,
            "peak_gflops_node": framework.config.peak_gflops_node,
            "peak_membw_gbs": framework.config.peak_membw_gbs,
        }

    return app
