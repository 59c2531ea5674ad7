"""Staticcheck engine throughput: the BENCH_staticcheck.json perf trajectory.

Not a paper figure — operational context for the correctness tooling:
the linter runs on every CI push and inside the tier-1 gate, so its
cold-parse cost, its warm-cache speedup, and the marginal price of the
flow tier (CFGs + fixpoints) and the perf tier (hot-path derivation +
array fixpoints) are worth tracking release over release.
The project is synthetic so the numbers measure the engine, not the
repo's current line count; every run rewrites ``BENCH_staticcheck.json``
at the repo root as the second committed trajectory next to
``BENCH_mlcore.json``, except a run that fails the ratchet below.

Ratcheting: absolute wall times vary across machines, so the committed
baseline is ratcheted on *ratios measured within one run* — the
warm-cache speedup, and the cold/warm overhead of each analysis tier
relative to the same engine with that tier's rules ignored.  With
``REPRO_PERF_RATCHET=1`` (the CI benchmark job) the final test fails if
the warm-cache speedup drops below its hard floor, if a warm-run tier
overhead leaves its hard band (the cache stores findings, so a warm run
must get the perf tier for ~free), or if the warm speedup regresses more
than 40% relative to the committed baseline.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import pytest

from benchmarks._perf import best_time, throughput, write_bench_json
from repro.staticcheck import check_paths, resolve_rules

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_staticcheck.json"

#: The flow-sensitive tier; ignoring these skips CFG + fixpoint work.
FLOW_RULES = ("unit-mismatch", "resource-leak", "double-release")
#: The perf tier; ignoring these skips hot-path derivation and
#: the shape/dtype array fixpoints.
PERF_RULES = (
    "dtype-upcast",
    "dtype-narrowing",
    "broadcast-mismatch",
    "scalar-loop",
    "per-item-call",
    "loop-alloc",
    "quadratic-growth",
    "hidden-copy",
)
NUM_FILES = 24

#: hard floor: a fully-warm cache must be at least this much faster than
#: a cold run of the same rule set
WARM_SPEEDUP_FLOOR = 3.0
#: hard band: a warm run with a tier's rules enabled may cost at most
#: this factor over a warm run with them ignored — cached entries hold
#: the findings, so re-enabling a tier must not redo its analysis
WARM_TIER_OVERHEAD_CAP = 1.25
#: the warm speedup may regress at most 40% vs the committed baseline
#: (ratio-of-wall-times wobbles more than the mlcore speedup ratios)
RATCHET_TOLERANCE = 0.60

MODULE = '''\
"""Synthetic module {i}: roofline math, resource churn, numpy hot path."""

import numpy as np


def _perf_{i}(flops, duration, nodes):  # unit: flops=flops, duration=s, nodes=1 -> gflops/s
    total = flops / 1e9
    for _ in range(4):
        total = total + flops / 1e9
    if total > flops / 1e9:
        total = total / 2
    return total / (duration * nodes)


def _churn_{i}(path):
    fh = open(path)
    try:
        data = fh.read()
    finally:
        fh.close()
    with open(path) as again:
        data += again.read()
    return data


def _predict_{i}(X, w):  # hotpath: synthetic serve path, keeps the perf tier busy
    scores = X @ w
    probs = 1.0 / (1.0 + np.exp(-scores))
    labels = probs > 0.5
    return np.where(labels, probs, 1.0 - probs)


def _scale_{i}(n):
    base = np.zeros((n, 4), dtype=np.float32)
    return base * np.float32(0.5)
'''


@pytest.fixture(scope="module")
def project(tmp_path_factory):
    pkg = tmp_path_factory.mktemp("staticcheck_bench") / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    for i in range(NUM_FILES):
        (pkg / f"mod_{i}.py").write_text(MODULE.format(i=i))
    return pkg


@pytest.fixture(scope="module")
def results():
    return {
        "meta": {
            "num_files": NUM_FILES + 1,
            "flow_rules": list(FLOW_RULES),
            "perf_rules": list(PERF_RULES),
        }
    }


def _check(project, cache, rules):
    result = check_paths([project], cache_path=cache, rules=rules)
    assert result.files_checked == NUM_FILES + 1
    assert result.findings == []
    return result


def _cold_time(project, tmp_path, rules, tag):
    """Best-of-N cold runs, each against a never-seen cache path."""
    counter = itertools.count()

    def run():
        _check(project, tmp_path / f"{tag}-{next(counter)}.json", rules)

    return best_time(run, repeats=5, warmup=1)


def test_cold_runs(results, project, tmp_path):
    all_rules = resolve_rules()
    results["cold"] = {
        "all_s": _cold_time(project, tmp_path, all_rules, "all"),
        "no_flow_s": _cold_time(
            project, tmp_path, resolve_rules(ignore=list(FLOW_RULES)), "noflow"
        ),
        "no_perf_s": _cold_time(
            project, tmp_path, resolve_rules(ignore=list(PERF_RULES)), "noperf"
        ),
    }
    results["cold"]["files_per_s"] = throughput(
        NUM_FILES + 1, results["cold"]["all_s"]
    )


def test_warm_runs(results, project, tmp_path):
    """Fully-warm cache: every file served without re-analysis, so both
    tiers cost ~nothing (their findings live in the cached entries)."""
    caches = {
        "all": (tmp_path / "warm-all.json", resolve_rules()),
        "no_perf": (tmp_path / "warm-noperf.json", resolve_rules(ignore=list(PERF_RULES))),
    }
    warm = {}
    for tag, (cache, rules) in caches.items():
        _check(project, cache, rules)  # prime
        warm[tag] = best_time(lambda: _check(project, cache, rules))
        result = _check(project, cache, rules)
        assert result.stats.cache_hits == NUM_FILES + 1
        assert result.stats.flow_cfgs == 0
        assert result.stats.perf_hot_functions == 0
        assert result.stats.perf_array_fixpoints == 0
    results["warm"] = {
        "all_s": warm["all"],
        "no_perf_s": warm["no_perf"],
        "files_per_s": throughput(NUM_FILES + 1, warm["all"]),
    }


def test_one_dirty_file(results, project, tmp_path):
    """Steady-state developer loop: one edited file, the rest cached."""
    cache = tmp_path / "dirty.json"
    rules = resolve_rules()
    _check(project, cache, rules)  # prime
    dirty = project / "mod_0.py"
    text = dirty.read_text()
    edits = itertools.count()

    def edit_then_check():
        dirty.write_text(f"{text}\n# edit {next(edits)}\n")
        result = _check(project, cache, rules)
        assert result.stats.cache_misses == 1

    try:
        results["dirty_one_file_s"] = best_time(edit_then_check)
    finally:
        dirty.write_text(text)


def test_write_bench_json(results):
    """Write the trajectory file; ratchet the ratios when asked to.

    Runs last (pytest executes this module top to bottom), after every
    section above has filled in its measurements.
    """
    for section in ("cold", "warm", "dirty_one_file_s"):
        assert section in results, f"bench section {section!r} did not run"

    cold, warm = results["cold"], results["warm"]
    ratios = {
        "warm_speedup": cold["all_s"] / warm["all_s"],
        "flow_cold_overhead": cold["all_s"] / cold["no_flow_s"],
        "perf_cold_overhead": cold["all_s"] / cold["no_perf_s"],
        "perf_warm_overhead": warm["all_s"] / warm["no_perf_s"],
    }
    results["ratios"] = ratios

    def ratchet_failures(baseline):
        failures = []
        if ratios["warm_speedup"] < WARM_SPEEDUP_FLOOR:
            failures.append(
                f"warm-cache speedup {ratios['warm_speedup']:.2f}x < "
                f"floor {WARM_SPEEDUP_FLOOR}x"
            )
        if ratios["perf_warm_overhead"] > WARM_TIER_OVERHEAD_CAP:
            failures.append(
                f"perf tier costs {ratios['perf_warm_overhead']:.2f}x on a warm "
                f"cache (cap {WARM_TIER_OVERHEAD_CAP}x): cached entries are "
                "being recomputed"
            )
        if baseline and "ratios" in baseline:
            old = baseline["ratios"].get("warm_speedup")
            if old and ratios["warm_speedup"] < RATCHET_TOLERANCE * old:
                failures.append(
                    f"warm speedup regressed {ratios['warm_speedup']:.2f}x < "
                    f"{RATCHET_TOLERANCE:.0%} of baseline {old:.2f}x"
                )
        return failures

    write_bench_json(BENCH_PATH, results, ratchet_failures)
