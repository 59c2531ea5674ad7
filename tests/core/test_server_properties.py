"""HTTP boundary property: no JSON body earns a 5xx.

After one successful ``/train``, any JSON document posted to ``/train``,
``/predict`` or ``/characterize`` — wrong shapes, wrong types, missing
fields, NaN, huge numbers, lone surrogates — gets a 2xx or a 4xx.  Malformed input is the
client's error, never the service's.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MCBound, MCBoundConfig, build_app, load_trace_into_db
from repro.fugaku.workload import DAY_SECONDS
from repro.web import TestClient

NOW = 40 * DAY_SECONDS

#: A well-formed job: the six submission features plus the counters
#: ``/characterize`` needs.  Strategies below break it piece by piece.
TEMPLATE_JOB = {
    "user_name": "u0001",
    "job_name": "lammps_md",
    "cores_req": 48,
    "nodes_req": 1,
    "environment": "spack",
    "freq_req_ghz": 2.0,
    "perf2": 4.0e12,
    "perf3": 1.0e12,
    "perf4": 2.0e9,
    "perf5": 1.0e9,
    "duration": 3600.0,
    "nodes_alloc": 1,
}

#: text may hold lone surrogates, which JSON can escape but UTF-8 cannot encode
_text = st.text(st.characters() | st.characters(categories=["Cs"]), max_size=6)
_scalars = st.none() | st.booleans() | st.integers() | st.floats() | _text
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
#: values for numeric fields: mostly plausible trace times, sometimes junk
_field = st.integers(-5, 130).map(lambda d: d * DAY_SECONDS) | _json


@st.composite
def _job(draw):
    job = dict(TEMPLATE_JOB)
    for key in draw(st.lists(st.sampled_from(sorted(TEMPLATE_JOB)), max_size=3, unique=True)):
        if draw(st.booleans()):
            del job[key]
        else:
            job[key] = draw(_json)
    return job


_jobs = st.lists(_job() | _json, max_size=4) | _json
_window = st.fixed_dictionaries({"start_time": _field, "end_time": _field})

BODIES = {
    "/train": st.fixed_dictionaries({"now": _field}, optional={"alpha_days": _field}) | _json,
    "/predict": (
        st.fixed_dictionaries({"jobs": _jobs})
        | st.fixed_dictionaries({"job_id": st.integers(-5, 5_000) | _json})
        | _window
        | _json
    ),
    "/characterize": st.fixed_dictionaries({"jobs": _jobs}) | _window | _json,
}


@pytest.fixture(scope="module")
def client(tiny_trace):
    config = MCBoundConfig(algorithm="KNN", model_params={"n_neighbors": 3}, alpha_days=20.0)
    client = TestClient(build_app(MCBound(config, load_trace_into_db(tiny_trace))))
    assert client.post("/train", json_body={"now": NOW}).status == 201
    return client


@pytest.mark.parametrize("path", sorted(BODIES))
def test_no_json_body_gets_a_5xx(client, path):
    @given(body=BODIES[path])
    @settings(max_examples=120, deadline=None)
    def check(body):
        response = client.post(path, json_body=body)
        assert response.status < 500, (path, body, response.json())
        if response.status >= 400:
            assert "Traceback" not in response.json()["error"]

    check()
