"""Self-test of the benchmark at a tiny scale.

    python -m pytest perfbench -q

Runs every workload end to end (traced, so span nesting and self times
are checked by the run itself), checks that the exact counts repeat for
a seed and change with it, and that the benchmark refuses to run without
the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "0.005"
COUNTS = (
    "framework.memo_hit_frac",
    "embed.strings",
    "model.inference_rows",
    "model.training_rows",
    "fetch.rows",
    "store.publishes",
)


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--scale", SCALE,
        ],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def result(workload: str, seed: int, trace: int) -> dict:
    proc = bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced():
    return {w: result(w, 7, 1) for w in ("serve_dup", "serve_cold")}


@pytest.mark.parametrize("workload", ["serve_dup", "serve_cold"])
def test_every_workload_completes_with_nested_spans(traced, spec, workload):
    out = traced[workload]
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert set(out["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert out["metrics"]["trace.spans"]["value"] > 0
    assert out["metrics"]["trace.coverage_frac"]["value"] >= 0.9


def test_memo_splits_the_serve_workloads(traced):
    dup = traced["serve_dup"]["metrics"]["framework.memo_hit_frac"]["value"]
    cold = traced["serve_cold"]["metrics"]["framework.memo_hit_frac"]["value"]
    assert dup >= 0.8
    assert cold == 0.0


def test_counts_repeat_for_a_seed_and_change_with_it(traced):
    again = result("serve_dup", 7, 1)["metrics"]
    first = traced["serve_dup"]["metrics"]
    assert {k: again[k] for k in COUNTS} == {k: first[k] for k in COUNTS}
    other = result("serve_dup", 8, 1)["metrics"]
    assert other["fetch.rows"] != first["fetch.rows"]


def test_end_to_end_metrics_match_the_spec(spec):
    out = result("serve_cold", 7, 0)
    assert out["correct"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("serve_dup", 7, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
