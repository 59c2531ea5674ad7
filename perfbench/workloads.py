"""Workload definitions shared by the benchmark and the program process.

Every workload replays the test month, February (days 62-90), of a trace
generated from the seed, after an untimed warm-up on the last January day.

- ``serve_dup``: the deployed service's traffic.  Each day one ``/train``
  (KNN, alpha=30) and then the day's submissions, in submit order, as
  ``/predict`` batches; identical jobs submitted together hit the predict
  memo.
- ``serve_cold``: the same batches and retraining, but every job name is
  made unique (``<name>-<job_id>``, as parameter sweeps do), so no memo or
  embedder-cache entry is ever reused and embedding plus KNN inference do
  the work.
"""

from __future__ import annotations

DAY = 86_400.0
WARM_DAY = 61  # January 31
TEST_DAYS = tuple(range(62, 91))  # February
DEFAULT_SCALE = 1.0 / 60.0
WORKLOADS = ("serve_dup", "serve_cold")
#: Jobs per ``/predict``.  Identical jobs arrive together (§V-C.c), so
#: consecutive submissions keep them in the same or adjacent requests.  A
#: fixed size keeps a request's work from depending on the seed (grouping
#: by identical job made the requests per month vary by 17% between
#: seeds), and at 16 about 80% of ``serve_dup`` requests hold a memo miss,
#: so the median request is never on the edge between hit-only requests
#: and requests that encode (at 8 it was 60%).
BATCH_JOBS = 16
SUBMISSION_FIELDS = (
    "user_name",
    "job_name",
    "environment",
    "nodes_req",
    "cores_req",
    "freq_req_ghz",
)


def deployed_config():
    """The deployment both workloads serve: KNN, alpha=30 days, beta=1."""
    from repro.config import BenchSettings
    from repro.core import MCBoundConfig

    settings = BenchSettings(scale=DEFAULT_SCALE, seed=2024)
    return MCBoundConfig(
        algorithm="KNN", model_params=settings.knn_params, alpha_days=30.0
    )


def make_trace(seed: int, scale: float):
    """The synthetic Fugaku trace both processes build from the seed."""
    from repro.fugaku import generate_trace

    return generate_trace(scale=scale, seed=seed)


def day_batches(trace, day: int, *, unique: bool) -> list[tuple[list[int], list[dict]]]:
    """One day's submissions, in submit order, as ``/predict`` batches.

    Returns ``(row indices, submission records)`` per batch of
    ``BATCH_JOBS`` consecutive submissions (the day's last batch may be
    smaller).  With ``unique`` every job name gets its job id appended,
    so no two records are alike.
    """
    import numpy as np

    submit = trace["submit_time"]
    rows = np.flatnonzero((submit >= day * DAY) & (submit < (day + 1) * DAY)).tolist()
    cols = {f: trace[f] for f in SUBMISSION_FIELDS}
    job_ids = trace["job_id"]
    records = []
    for i in rows:
        name = str(cols["job_name"][i])
        records.append(
            {
                "user_name": str(cols["user_name"][i]),
                "job_name": f"{name}-{int(job_ids[i])}" if unique else name,
                "environment": str(cols["environment"][i]),
                "nodes_req": int(cols["nodes_req"][i]),
                "cores_req": int(cols["cores_req"][i]),
                "freq_req_ghz": float(cols["freq_req_ghz"][i]),
            }
        )
    return [
        (rows[k : k + BATCH_JOBS], records[k : k + BATCH_JOBS])
        for k in range(0, len(rows), BATCH_JOBS)
    ]
