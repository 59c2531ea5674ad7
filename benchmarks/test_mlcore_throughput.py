"""ML-core throughput: the BENCH_mlcore.json perf trajectory.

Not a paper figure — the per-PR performance record for the from-scratch
ML substrate (ROADMAP item 4).  Every run measures train + infer
throughput for the KNN and random-forest classifiers and the sentence
embedder at fixed sizes and seeds, computes speedups against the
preserved scalar references in :mod:`repro.mlcore.reference` /
:mod:`repro.nlp.reference`, and rewrites ``BENCH_mlcore.json`` at the
repo root.

Ratcheting: absolute throughputs vary across machines, so the committed
baseline is ratcheted on *speedup ratios* (vectorized vs scalar reference
on the same machine, same run).  With ``REPRO_PERF_RATCHET=1`` (the CI
benchmark job) the final test fails if a tracked speedup falls below the
hard floor (2x for forest predict and embedder batch encode) or regresses
more than 30% relative to the committed baseline, and then leaves
``BENCH_mlcore.json`` as it was.  The hard floors are the load-bearing
gate; the relative band is wide because even same-machine speedup ratios
wobble ~20-25% run to run (the scalar and vectorized sides respond
differently to background load), and CI runners differ again.
``embedder_cold`` alternates its two sides (best of 9 batched encodes, 3
scalar ones) so that background load hits both.

``knn_publish`` times ``save_model`` of a KNN against
``np.savez_compressed`` of its whole training matrix, once with rows that
repeat a small distinct set in reservoir (shuffled) order, once with
every row distinct, and once in the served shape: the embedder's float32
encodings, widened to float64 as ``MCBound.train`` fits them (so the
archive holds them as float32), repeated in reservoir order; the ratchet
requires >= 5x, >= 0.85x and >= 40x.

``knn_query`` times a 16-row brute ``kneighbors`` (the serve loop's
``/predict`` batch) at the embedding width against an inline full-matrix
BLAS search (distances to every training row, then top-k), on the same
two shapes of training matrix; the ratchet requires >= 5x with repeated
rows and >= 0.8x with every row distinct.  It records fit seconds too,
since fit is where the distinct rows are found.

``train_window`` times a warm ``MCBound.train`` (KNN, no model store) on
a 1/60-scale alpha=30 window against an inline reference of the dense
path it replaced: every job's feature string formatted and encoded,
folded into a ``train_reservoir x d`` float32 reservoir, and a fit that
finds the distinct rows by hashing every row.  It runs on the generated
trace, whose submissions repeat, and with every job name made unique
(``<name>-<job_id>``), so that no submission repeats and keying by
submission saves nothing; the ratchet requires >= 2x and >= 0.8x.

``embedder_unique`` times a warm embedder on ``/predict``-sized batches
of strings it has never seen, each a known template plus a unique
``-<pass>x<i>`` suffix (the shape of the serve loop with unique job
names, where neither the vector nor the row cache hits), against
:func:`repro.nlp.reference.encode_scalar` over the same strings in one
call, so that the oracle's token projections are memoized across the
pass too; the ratchet requires >= 2.5x.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest

from benchmarks._perf import best_time, best_times_alternating, throughput, write_bench_json
from repro.config import BenchSettings
from repro.core import MCBound, MCBoundConfig, load_trace_into_db
from repro.core.classification_model import ClassificationModel
from repro.core.feature_encoder import _format_value
from repro.fugaku import generate_trace
from repro.fugaku.trace import JobTrace
from repro.mlcore.forest import RandomForestClassifier
from repro.mlcore.knn import KNeighborsClassifier
from repro.mlcore.persistence import save_model
from repro.mlcore.reference import forest_predict_proba_scalar
from repro.nlp.embedder import SentenceEmbedder
from repro.nlp.reference import encode_scalar

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_mlcore.json"

SEED = 2024
KNN_TRAIN, KNN_QUERIES, KNN_K = 4000, 1000, 5
BRUTE_DIM = 64
FOREST_TREES, FOREST_DEPTH = 40, 12
FOREST_TRAIN, FOREST_DIM = 3000, 24
#: online scoring batch — the serve loop classifies jobs in micro-batches
FOREST_PREDICT_BATCH = 256
EMBED_STRINGS, EMBED_DISTINCT = 2000, 100
#: unique strings per embedder_unique pass, encoded in /predict-sized batches
UNIQUE_STRINGS, UNIQUE_BATCH = 800, 16
#: (training rows, distinct rows) per publish case, at the embedding width
PUBLISH_CASES = {"repeated": (4000, 100), "distinct": (2000, 2000), "served": (4000, 100)}
PUBLISH_DIM = 384
#: (training rows, distinct rows) per query case, at the embedding width
QUERY_CASES = {"repeated": (9000, 120), "distinct": (9000, 9000)}
QUERY_BATCH = 16

#: trace scale, window and last day of the train_window cases
TRAIN_SCALE, TRAIN_ALPHA_DAYS, TRAIN_DAY = 1.0 / 60.0, 30.0, 61
DAY_SECONDS = 86_400.0

#: ISSUE acceptance floors: measured speedup over the pre-PR scalar paths
HARD_FLOORS = {"forest_predict": 2.0, "embedder_cold": 2.0, "embedder_unique": 2.5}
#: save_model vs compressing the whole training matrix, per publish case
PUBLISH_FLOORS = {"repeated": 5.0, "distinct": 0.85, "served": 40.0}
#: kneighbors vs a full-matrix BLAS search, per query case
QUERY_FLOORS = {"repeated": 5.0, "distinct": 0.8}
#: MCBound.train vs the dense training path, per trace
TRAIN_FLOORS = {"generated": 2.0, "unique_names": 0.8}
#: ratcheted speedups may regress at most 30% vs the committed baseline —
#: wide enough to absorb run-to-run ratio noise, tight enough that losing a
#: vectorized path (speedup -> ~1x) still fails loudly above the hard floors
RATCHET_TOLERANCE = 0.70


@pytest.fixture(scope="module")
def results():
    return {
        "meta": {
            "seed": SEED,
            "knn": {
                "n_train": KNN_TRAIN,
                "n_queries": KNN_QUERIES,
                "k": KNN_K,
                "brute_dim": BRUTE_DIM,
            },
            "forest": {
                "n_trees": FOREST_TREES,
                "max_depth": FOREST_DEPTH,
                "n_train": FOREST_TRAIN,
                "dim": FOREST_DIM,
                "predict_batch": FOREST_PREDICT_BATCH,
            },
            "embedder": {
                "n_strings": EMBED_STRINGS,
                "n_distinct": EMBED_DISTINCT,
            },
            "embedder_unique": {
                "n_strings": UNIQUE_STRINGS,
                "batch": UNIQUE_BATCH,
                "n_templates": EMBED_DISTINCT,
            },
            "knn_publish": {
                "dim": PUBLISH_DIM,
                "cases": {
                    name: {"n_train": n, "n_distinct": d}
                    for name, (n, d) in PUBLISH_CASES.items()
                },
            },
            "knn_query": {
                "dim": PUBLISH_DIM,
                "k": KNN_K,
                "batch": QUERY_BATCH,
                "cases": {
                    name: {"n_train": n, "n_distinct": d}
                    for name, (n, d) in QUERY_CASES.items()
                },
            },
            "train_window": {
                "scale": TRAIN_SCALE,
                "alpha_days": TRAIN_ALPHA_DAYS,
                "day": TRAIN_DAY,
            },
        }
    }


def _job_strings(rng, n, n_distinct):
    """Synthetic submission feature strings, heavy repetition (real batches
    of cluster jobs repeat the same submission template many times)."""
    words = [
        "srun", "mpirun", "gemm", "stream", "lbm", "fft", "cg", "bfs",
        "gromacs", "vasp", "nodes=4", "ntasks=128", "mem=64G", "gpu",
        "--exclusive", "ib0", "avx512", "omp=12",
    ]
    distinct = [
        " ".join(rng.choice(words, size=rng.integers(3, 9))) + f" job{i}"
        for i in range(n_distinct)
    ]
    return [distinct[int(j)] for j in rng.integers(0, n_distinct, size=n)]


def test_knn_brute_throughput(results):
    rng = np.random.default_rng(SEED)
    X = rng.normal(size=(KNN_TRAIN, BRUTE_DIM))
    y = (X[:, 0] > 0).astype(int)
    Q = rng.normal(size=(KNN_QUERIES, BRUTE_DIM))

    fit_s = best_time(
        lambda: KNeighborsClassifier(KNN_K).fit(X, y), repeats=3
    )
    knn = KNeighborsClassifier(KNN_K).fit(X, y)
    query_s = best_time(lambda: knn.kneighbors(Q))

    results["knn_brute"] = {
        "fit_s": fit_s,
        "query_s": query_s,
        "queries_per_s": throughput(KNN_QUERIES, query_s),
    }


def test_forest_throughput(results):
    rng = np.random.default_rng(SEED)
    X = rng.normal(size=(FOREST_TRAIN, FOREST_DIM)).astype(np.float32)
    y = (X[:, 0] + X[:, 1] * X[:, 2] + rng.normal(scale=0.5, size=FOREST_TRAIN) > 0)

    def make():
        return RandomForestClassifier(
            FOREST_TREES,
            max_depth=FOREST_DEPTH,
            splitter="hist",
            random_state=SEED,
        )

    fit_s = best_time(lambda: make().fit(X, y.astype(int)), repeats=3, warmup=1)
    forest = make().fit(X, y.astype(int))
    Q = rng.normal(size=(FOREST_PREDICT_BATCH, FOREST_DIM)).astype(np.float32)

    predict_s = best_time(lambda: forest.predict_proba(Q), repeats=10)
    scalar_s = best_time(lambda: forest_predict_proba_scalar(forest, Q), repeats=5)
    assert np.array_equal(forest.predict_proba(Q), forest_predict_proba_scalar(forest, Q))

    results["forest"] = {
        "fit_s": fit_s,
        "fit_samples_per_s": throughput(FOREST_TRAIN, fit_s),
        "predict_s": predict_s,
        "predict_jobs_per_s": throughput(FOREST_PREDICT_BATCH, predict_s),
        "speedup_vs_scalar": scalar_s / predict_s,
    }


def test_embedder_throughput(results):
    rng = np.random.default_rng(SEED)
    texts = _job_strings(rng, EMBED_STRINGS, EMBED_DISTINCT)

    def cold_encode():
        return SentenceEmbedder().encode(texts)

    def cold_scalar():
        return encode_scalar(SentenceEmbedder(), texts)

    cold_s, scalar_s = best_times_alternating(cold_encode, cold_scalar)
    assert np.array_equal(cold_encode(), cold_scalar())

    warm = SentenceEmbedder()
    warm.encode(texts)  # prime the string cache
    warm_s = best_time(lambda: warm.encode(texts))

    results["embedder"] = {
        "cold_s": cold_s,
        "cold_strings_per_s": throughput(EMBED_STRINGS, cold_s),
        "warm_s": warm_s,
        "warm_strings_per_s": throughput(EMBED_STRINGS, warm_s),
        "speedup_vs_scalar": scalar_s / cold_s,
    }


def test_embedder_unique_throughput(results):
    rng = np.random.default_rng(SEED)
    templates = _job_strings(rng, EMBED_DISTINCT, EMBED_DISTINCT)
    warm = SentenceEmbedder()
    warm.encode(templates)

    def unique(p):
        return [f"{templates[i % EMBED_DISTINCT]}-{p}x{i}" for i in range(UNIQUE_STRINGS)]

    def batched(strings):
        return np.concatenate([
            warm.encode(strings[i : i + UNIQUE_BATCH])
            for i in range(0, len(strings), UNIQUE_BATCH)
        ])

    passes = iter([unique(p) for p in range(6)])  # best_time: 1 warm-up + 5
    encode_s = best_time(lambda: batched(next(passes)), repeats=5)
    scalar_strings = unique("s")
    scalar_s = best_time(lambda: encode_scalar(warm, scalar_strings), repeats=2)
    check = unique("c")
    assert np.array_equal(batched(check), encode_scalar(warm, check))

    results["embedder_unique"] = {
        "encode_s": encode_s,
        "strings_per_s": throughput(UNIQUE_STRINGS, encode_s),
        "scalar_s": scalar_s,
        "speedup_vs_scalar": scalar_s / encode_s,
    }


def _publish_rows(rng, name, n_distinct):
    """The distinct rows of a publish case: the embedder's float32
    encodings of distinct job strings, widened, for ``served``."""
    if name != "served":
        return rng.normal(size=(n_distinct, PUBLISH_DIM))
    strings = [f"{s} r{i}" for i, s in enumerate(_job_strings(rng, n_distinct, n_distinct))]
    return SentenceEmbedder(PUBLISH_DIM).encode(strings).astype(np.float64)


def test_knn_publish_throughput(results):
    rng = np.random.default_rng(SEED)
    section = {}
    for name, (n_train, n_distinct) in PUBLISH_CASES.items():
        distinct = _publish_rows(rng, name, n_distinct)
        X = distinct[rng.permutation(np.arange(n_train) % n_distinct)]
        knn = KNeighborsClassifier(KNN_K).fit(X, (X[:, 0] > 0).astype(int))
        with tempfile.TemporaryDirectory() as tmp:
            save_s = best_time(lambda: save_model(knn, Path(tmp) / "model"), repeats=3)
            full_s = best_time(
                lambda: np.savez_compressed(Path(tmp) / "full.npz", X=X), repeats=3
            )
        section[name] = {
            "save_model_s": save_s,
            "full_compress_s": full_s,
            "speedup_vs_full_compress": full_s / save_s,
        }
    results["knn_publish"] = section


def _unit_rows(rng, n):
    rows = rng.normal(size=(n, PUBLISH_DIM))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _full_matrix_kneighbors(X, sq_norms, Q, k):
    """The full-matrix baseline: BLAS distances from every query to every
    training row, then the k smallest per query."""
    d = np.einsum("ij,ij->i", Q, Q)[:, None] + sq_norms[None, :] - 2.0 * (Q @ X.T)
    np.maximum(d, 0.0, out=d)
    part = np.argpartition(d, k - 1, axis=1)[:, :k]
    dk = np.take_along_axis(d, part, axis=1)
    order = np.argsort(dk, axis=1, kind="stable")
    return np.sqrt(np.take_along_axis(dk, order, axis=1)), np.take_along_axis(part, order, axis=1)


def test_knn_query_throughput(results):
    rng = np.random.default_rng(SEED)
    section = {}
    for name, (n_train, n_distinct) in QUERY_CASES.items():
        X = _unit_rows(rng, n_distinct)[rng.permutation(np.arange(n_train) % n_distinct)]
        y = (X[:, 0] > 0).astype(int)
        Q = _unit_rows(rng, QUERY_BATCH)
        fit_s = best_time(
            lambda: KNeighborsClassifier(KNN_K).fit(X, y), repeats=3
        )
        knn = KNeighborsClassifier(KNN_K).fit(X, y)
        query_s = best_time(lambda: knn.kneighbors(Q), repeats=20)
        sq_norms = np.einsum("ij,ij->i", X, X)
        full_s = best_time(lambda: _full_matrix_kneighbors(X, sq_norms, Q, KNN_K), repeats=20)
        section[name] = {
            "fit_s": fit_s,
            "query_s": query_s,
            "full_matrix_query_s": full_s,
            "speedup_vs_full_matrix": full_s / query_s,
        }
    results["knn_query"] = section


def _dense_train(fw, now):
    """The dense training path ``MCBound.train`` replaced: every job's
    string formatted and encoded, folded into a float32 reservoir of
    ``train_reservoir`` rows, and a fit that hashes every row."""
    cfg, encoder = fw.config, fw.encoder
    cap = cfg.train_reservoir
    X_res = np.empty((cap, encoder.dim), dtype=np.float32)
    y_res = np.empty(cap, dtype=np.int64)
    rng = np.random.default_rng(cfg.embedder_seed)
    n_seen = 0
    for batch in fw.fetcher.fetch_batches(now - TRAIN_ALPHA_DAYS * DAY_SECONDS, now):
        _, labels = fw._characterize_batch(batch)
        labels = np.asarray(labels, dtype=np.int64)
        cols = [[_format_value(v) for v in batch.column(f).tolist()] for f in encoder.feature_set]
        Xb = encoder.embedder.encode([",".join(vals) for vals in zip(*cols)])
        positions = n_seen + np.arange(len(labels))
        fill = positions < cap
        X_res[positions[fill]] = Xb[fill]
        y_res[positions[fill]] = labels[fill]
        rest = ~fill
        if np.any(rest):
            slots = rng.integers(0, positions[rest] + 1)
            hits = slots < cap
            X_res[slots[hits]] = Xb[rest][hits]
            y_res[slots[hits]] = labels[rest][hits]
        n_seen += len(labels)
    n_fit = min(n_seen, cap)
    model = ClassificationModel(cfg.algorithm, **cfg.model_params)
    return model.training(X_res[:n_fit], y_res[:n_fit])


def _unique_names(trace):
    cols = {c: trace[c] for c in trace.column_names}
    cols["job_name"] = np.array(
        [f"{n}-{j}" for n, j in zip(trace["job_name"].tolist(), trace["job_id"].tolist())],
        dtype=object,
    )
    return JobTrace(cols)


def test_train_window_throughput(results):
    trace = generate_trace(scale=TRAIN_SCALE, seed=SEED)
    config = MCBoundConfig(
        algorithm="KNN",
        model_params=BenchSettings(scale=TRAIN_SCALE, seed=SEED).knn_params,
        alpha_days=TRAIN_ALPHA_DAYS,
    )
    now = TRAIN_DAY * DAY_SECONDS
    section = {}
    for name, case in (("generated", trace), ("unique_names", _unique_names(trace))):
        served = MCBound(config, load_trace_into_db(case))
        dense = MCBound(config, load_trace_into_db(case))
        # best_time's warm-up pass fills the label and embedder caches
        train_s = best_time(lambda: served.train(now), repeats=5)
        dense_s = best_time(lambda: _dense_train(dense, now), repeats=5)
        fitted, reference = served.model.model, _dense_train(dense, now).model
        assert fitted._rows[fitted._row_index].tobytes() == (
            reference._rows[reference._row_index].tobytes()
        )
        assert fitted._y.tobytes() == reference._y.tobytes()
        section[name] = {
            "n_jobs": int(fitted._row_index.size),
            "n_distinct": int(fitted._rows.shape[0]),
            "train_s": train_s,
            "dense_train_s": dense_s,
            "speedup_vs_dense": dense_s / train_s,
        }
    results["train_window"] = section


def test_write_bench_json(results):
    """Write the trajectory file; ratchet speedups when asked to.

    Runs last (pytest executes this module top to bottom), after every
    section above has filled in its measurements.
    """
    for section in (
        "knn_brute", "forest", "embedder", "embedder_unique",
        "knn_publish", "knn_query", "train_window",
    ):
        assert section in results, f"bench section {section!r} did not run"

    speedups = {
        "forest_predict": results["forest"]["speedup_vs_scalar"],
        "embedder_cold": results["embedder"]["speedup_vs_scalar"],
        "embedder_unique": results["embedder_unique"]["speedup_vs_scalar"],
    }
    results["speedups_vs_scalar"] = speedups

    def ratchet_failures(baseline):
        failures = []
        for name, floor in HARD_FLOORS.items():
            if speedups[name] < floor:
                failures.append(f"{name} speedup {speedups[name]:.2f}x < floor {floor}x")
        for name, floor in PUBLISH_FLOORS.items():
            ratio = results["knn_publish"][name]["speedup_vs_full_compress"]
            if ratio < floor:
                failures.append(f"knn_publish {name} {ratio:.2f}x < floor {floor}x")
        for name, floor in QUERY_FLOORS.items():
            ratio = results["knn_query"][name]["speedup_vs_full_matrix"]
            if ratio < floor:
                failures.append(f"knn_query {name} {ratio:.2f}x < floor {floor}x")
        for name, floor in TRAIN_FLOORS.items():
            ratio = results["train_window"][name]["speedup_vs_dense"]
            if ratio < floor:
                failures.append(f"train_window {name} {ratio:.2f}x < floor {floor}x")
        if baseline and "speedups_vs_scalar" in baseline:
            for name, new in speedups.items():
                old = baseline["speedups_vs_scalar"].get(name)
                if old and new < RATCHET_TOLERANCE * old:
                    failures.append(
                        f"{name} speedup regressed {new:.2f}x < "
                        f"{RATCHET_TOLERANCE:.0%} of baseline {old:.2f}x"
                    )
        return failures

    write_bench_json(BENCH_PATH, results, ratchet_failures)
