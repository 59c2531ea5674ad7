"""A process restart reproduces the model archive and the labels bit for bit.

Two interpreters with different ``PYTHONHASHSEED`` values each train a
KNN and a seeded hist RF on the ``tiny_trace`` fixture's workload with
the model store on.  A third reloads one of the stores and serves the
same jobs through ``predict_records`` and ``predict_window``.  The two
published ``v00000001`` directories must be byte-identical, and every
process must label the jobs alike.  A wall-clock value, a set order or
an unseeded draw that reaches an archive or a label fails here.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = Path(repro.__file__).parents[1]
VERSION_FILES = ["arrays.npz", "manifest.json", "metadata.json"]

#: argv: mode ("train" or "serve"), model store root.  Prints the labels
#: of the jobs submitted in the three days after the training trigger.
_PROCESS = textwrap.dedent(
    """
    import json
    import sys

    from repro.core import MCBound, MCBoundConfig, load_trace_into_db
    from repro.fugaku import WorkloadConfig, WorkloadGenerator
    from repro.fugaku.workload import DAY_SECONDS

    mode, root = sys.argv[1], sys.argv[2]
    now, end = 40 * DAY_SECONDS, 43 * DAY_SECONDS
    trace = WorkloadGenerator(WorkloadConfig(scale=1 / 800, seed=123)).generate()
    models = {
        "knn": ("KNN", {"n_neighbors": 5}),
        "rf": ("RF", {"n_estimators": 5, "max_depth": 8, "splitter": "hist",
                      "random_state": 0}),
    }
    out = {}
    for name, (algorithm, params) in models.items():
        fw = MCBound(
            MCBoundConfig(algorithm=algorithm, model_params=params, alpha_days=20.0),
            load_trace_into_db(trace),
            model_store_root=f"{root}/{name}",
        )
        if mode == "train":
            fw.train(now)
        records = fw.fetcher.fetch(start_time=now, end_time=end)
        job_ids, window_labels = fw.predict_window(now, end)
        out[name] = {
            "job_ids": [r["job_id"] for r in records],
            "records": fw.predict_records(records).tolist(),
            "window_job_ids": job_ids.tolist(),
            "window": window_labels.tolist(),
        }
    print(json.dumps(out))
    """
)


def _run(mode: str, root: Path, hash_seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _PROCESS, mode, str(root)],
        env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": str(hash_seed)},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_restart_reproduces_archives_and_labels(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    trained = [_run("train", first, 1), _run("train", second, 2)]
    served = _run("serve", first, 3)

    for name in ("knn", "rf"):
        a, b = first / name / "v00000001", second / name / "v00000001"
        assert sorted(p.name for p in a.iterdir()) == VERSION_FILES
        for file in VERSION_FILES:
            assert (a / file).read_bytes() == (b / file).read_bytes(), f"{name}/{file}"
        labels = served[name]
        assert len(labels["records"]) == 64
        assert labels["window_job_ids"] == labels["job_ids"]
        assert labels["window"] == labels["records"]
    assert trained[0] == trained[1] == served
