"""MCBound benchmark: the served prediction path, retraining included.

    python3 perfbench/run.py --workload serve_dup --seed 2024 --seconds 40 --trace 0

Generates a trace from the seed, starts the program in its own process
(``program.py``), replays February against it, checks every answer and
prints the metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
pass, preceded by a per-layer table with coverage and tracing overhead.
See README.md for the workloads, the metrics and why they are steady.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Program processes run single-threaded BLAS (2 OpenBLAS threads on the
#: 2 shared vCPUs were slower and noisier), a fixed hash seed and two
#: malloc arenas (the server's thread per request otherwise spreads the
#: heap over up to 16 arenas and the peak RSS wanders).
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "MALLOC_ARENA_MAX": "2",
}
SETUPS = 7  # fresh set-ups timed per run; setup_s is their median
DEADLINE_S = 170  # abort (non-zero exit) before the 180 s limit

END_TO_END = {
    "setup_s": "s",
    "predict_p50_ms": "ms",
    "train_p50_s": "s",
    "f1": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "web.transport_ms_p50": "ms",
    "web.handle_ms_p50": "ms",
    "web.json_ms_p50": "ms",
    "server.handler_self_ms_p50": "ms",
    "framework.predict_ms_p50": "ms",
    "framework.predict_self_ms_p50": "ms",
    "framework.memo_hit_frac": "ratio",
    "framework.infer_us_per_job": "us",
    "framework.train_self_s_p50": "s",
    "encoder.feature_string_us": "us",
    "encoder.strings_from_result_ms": "ms",
    "embed.encode_ms": "ms",
    "embed.strings": "count",
    "model.inference_ms_p50": "ms",
    "model.inference_rows": "count",
    "model.training_s_p50": "s",
    "model.training_rows": "count",
    "fetch.batches_ms": "ms",
    "fetch.rows": "count",
    "characterize.labels_ms": "ms",
    "store.publish_s_p50": "s",
    "store.bytes_per_publish": "bytes",
    "store.publishes": "count",
    "trace.coverage_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}


class BenchError(Exception):
    """The benchmark could not run (as opposed to a wrong answer)."""


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; failures enter as ``inf`` and sort last."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _abort(signum, frame):
    raise BenchError(f"stopped by signal {signum} (deadline {DEADLINE_S} s)")


class Pass:
    """What one measured replay of February produced."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.predict_ms: list[float] = []  # per /predict, in order
        self.predict_busy_s = 0.0  # wall time of the /predict traffic
        self.train_s: list[float] = []
        self.labels: dict[int, int] = {}  # trace row -> label received
        self.attempted = 0
        self.failed = 0
        self.client_spans: list[dict] = []
        self.rss_mb = 0.0  # program peak RSS when this pass ended
        self.last_day: list[tuple[list[int], list[dict]]] = []


class Bench:
    def __init__(self, workload: str, seed: int, scale: float, tmp: Path) -> None:
        """Generate the inputs and start the program process."""
        from repro.core import JobCharacterizer
        from workloads import TEST_DAYS, WARM_DAY, day_batches, make_trace

        self.trace = make_trace(seed, scale)
        self.truth = JobCharacterizer().labels_from_trace(self.trace)
        self.batches = {}
        for day in (WARM_DAY, *TEST_DAYS):
            batches = day_batches(self.trace, day, unique=workload == "serve_cold")
            bodies = [json.dumps({"jobs": recs}).encode() for _, recs in batches]
            self.batches[day] = list(zip(batches, bodies))
        env = {**os.environ, **PINNED_ENV}
        self.proc = subprocess.Popen(
            [
                sys.executable,
                str(HERE / "program.py"),
                "--seed", str(seed),
                "--scale", repr(scale),
                "--store-root", str(tmp),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("program process exited")
        return json.loads(line)

    def call(self, cmd: str, **kwargs) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd, **kwargs}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)

    # -- the serve workloads ------------------------------------------------

    @staticmethod
    def _post(port: int, path: str, body: bytes, rid: str):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            conn.request(
                "POST",
                path,
                body=body,
                headers={"Content-Type": "application/json", "X-Request-Id": rid},
            )
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def _serve_day(self, port: int, day: int, out: Pass, rec) -> None:
        """One day of traffic: a ``/train``, then every ``/predict`` batch.

        The client is a closed loop with one request in flight, as the
        submission hook, which waits for the label before queueing a job.
        """
        from workloads import DAY

        rid = f"t{day}-{len(out.train_s)}"
        body = json.dumps({"now": day * DAY}).encode()
        span = rec.begin("client.train", rid) if rec else None
        t0 = time.perf_counter()
        status, _ = self._post(port, "/train", body, rid)
        train_s = time.perf_counter() - t0
        if span:
            rec.end(span)
        out.attempted += 1
        if status != 201:
            out.failed += 1
            train_s = math.inf
        out.train_s.append(train_s)

        batches = self.batches[day]
        replies = []
        loop = rec.begin("client.loop") if rec else None
        t0 = time.perf_counter()
        for k, (_, body) in enumerate(batches):
            rid = f"p{day}-{k}"
            span = rec.begin("client.predict", rid) if rec else None
            t1 = time.perf_counter()
            status, payload = self._post(port, "/predict", body, rid)
            replies.append((status, payload, time.perf_counter() - t1))
            if span:
                rec.end(span)
        out.predict_busy_s += time.perf_counter() - t0
        if loop:
            rec.end(loop)

        for ((rows, records), _), (status, payload, latency) in zip(batches, replies):
            out.attempted += 1
            labels = json.loads(payload).get("labels") if status == 200 else None
            if labels is None or len(labels) != len(records):
                out.failed += 1
                out.predict_ms.append(math.inf)
                continue
            out.predict_ms.append(latency * 1e3)
            out.labels.update(zip(rows, labels))

    def serve_pass(self, port: int, traced: bool) -> Pass:
        from workloads import TEST_DAYS, WARM_DAY

        self._serve_day(port, WARM_DAY, Pass(), None)
        out = Pass()
        rec = None
        if traced:
            import spans

            self.call("record")
            rec = spans.Recorder()
        t0 = time.perf_counter()
        for day in TEST_DAYS:
            self._serve_day(port, day, out, rec)
        out.wall_s = time.perf_counter() - t0
        out.last_day = [batch for batch, _ in self.batches[TEST_DAYS[-1]]]
        if rec:
            out.client_spans = rec.spans
        return out

    # -- checks -------------------------------------------------------------

    def inprocess_mismatches(self, result: Pass) -> int:
        """Replay the last test day in-process on the same model.

        A fresh framework trained at the same instant on the same window
        holds the same model.  Fed the same batches in the same order, its
        predict memo and the shape of every call into the model match the
        server's, so ``predict_records`` must return the labels that came
        back over HTTP.  (One call over the whole day did not: for some
        seeds a few jobs got another label, most likely because the KNN's
        distance products round differently for another batch shape.)
        """
        from repro.core import MCBound, load_trace_into_db
        from workloads import DAY, TEST_DAYS, deployed_config

        framework = MCBound(deployed_config(), load_trace_into_db(self.trace))
        framework.train(TEST_DAYS[-1] * DAY)
        mismatches = 0
        for rows, records in result.last_day:
            expected = framework.predict_records(records).tolist()
            mismatches += sum(result.labels.get(r) != e for r, e in zip(rows, expected))
        return mismatches


def f1_of(bench: Bench, labels: dict[int, int]) -> float:
    from repro.mlcore.metrics import f1_macro

    rows = sorted(labels)
    return f1_macro([int(bench.truth[r]) for r in rows], [labels[r] for r in rows])


def run_passes(bench: Bench, seconds: float, traced: bool):
    """Set up, warm up and replay February until ``seconds`` are measured.

    Every pass starts from a fresh set-up, so passes are identical and
    their labels must match exactly.  The first pass is preceded by extra
    set-ups so that ``setup_s`` is a median over at least ``SETUPS``.
    Peak RSS is taken when the first pass ends, so it does not depend on
    how many passes fit.  In trace mode there are exactly two passes:
    untraced, then traced.
    """
    setups: list[float] = []
    passes: list[Pass] = []
    for _ in range(SETUPS - 1):
        setups.append(bench.call("setup")["setup_s"])
    measured = 0.0
    while True:
        setup = bench.call("setup")
        setups.append(setup["setup_s"])
        result = bench.serve_pass(setup["port"], traced and len(passes) == 1)
        if not passes:
            result.rss_mb = bench.call("rss")["rss_mb"]
        passes.append(result)
        measured += result.wall_s
        if traced:
            if len(passes) == 2:
                break
        elif measured + result.wall_s > seconds:
            break
    return setups, passes, bench.call("finish")


def end_to_end(bench: Bench, setups, passes) -> dict:
    predict_ms = [v for p in passes for v in p.predict_ms]
    train_s = [v for p in passes for v in p.train_s]
    return {
        "setup_s": statistics.median(setups),
        "predict_p50_ms": percentile(predict_ms, 0.50),
        "train_p50_s": percentile(train_s, 0.50),
        "f1": f1_of(bench, passes[0].labels),
        "peak_rss_mb": passes[0].rss_mb,
    }


def per_layer(passes, finish) -> tuple[dict, dict, int, float]:
    """Per-layer metrics of the traced pass, with each layer's self time,
    the number of badly nested spans and the measured time they cover.

    The measured time is the client's: its request loops plus every
    ``/train``."""
    from spans import LAYER_OF

    traced = passes[-1]
    server = finish["spans"]
    spans_all = traced.client_spans + server
    by_id = {(s["id"], "c"): s for s in traced.client_spans}
    by_id.update({(s["id"], "s"): s for s in server})
    handle = {s["rid"]: s for s in server if s["name"] == "web.handle"}

    def dur(s):
        return s["end"] - s["start"]

    def self_s(s):
        if s["name"] in ("client.predict", "client.train"):
            inner = handle.get(s["rid"])
            return dur(s) - (dur(inner) if inner else 0.0)
        return dur(s) - s["child_s"]

    eps = 1e-6
    bad = 0
    for side, group in (("c", traced.client_spans), ("s", server)):
        for s in group:
            parent = by_id.get((s["parent"], side)) if s["parent"] is not None else None
            if parent and not (parent["start"] - eps <= s["start"] <= s["end"] <= parent["end"] + eps):
                bad += 1
            if self_s(s) < -eps:
                bad += 1
    for s in traced.client_spans:
        inner = handle.get(s["rid"])
        if inner and not (s["start"] - eps <= inner["start"] <= inner["end"] <= s["end"] + eps):
            bad += 1

    def named(name):
        return [s for s in spans_all if s["name"] == name]

    def p50(name, scale=1.0):
        return percentile([dur(s) * scale for s in named(name)], 0.50)

    def total(name, scale=1.0):
        return sum(dur(s) for s in named(name)) * scale

    def count(name):
        return sum(s["count"] for s in named(name))

    predicts = [s for s in traced.client_spans if s["name"] == "client.predict"]
    per_request_json: dict[str, float] = {}
    for s in named("web.json"):
        per_request_json[s["rid"]] = per_request_json.get(s["rid"], 0.0) + dur(s)
    framework_ids = {s["id"] for s in server if s["name"] == "framework.predict"}
    encoded_in_predict = sum(
        s["count"] for s in named("embed.encode") if s["parent"] in framework_ids
    )
    predicted = count("framework.predict")
    tally_s, tally_n = finish["tallies"].get("encoder.feature_string", [0.0, 0])

    layers: dict[str, float] = {}
    for s in spans_all:
        layer = LAYER_OF.get(s["name"])
        if layer:
            layers[layer] = layers.get(layer, 0.0) + self_s(s)
    layers["encoder"] = layers.get("encoder", 0.0) + tally_s
    measured = sum(
        dur(s) for s in traced.client_spans if s["name"] in ("client.loop", "client.train")
    )
    versions = finish["store_versions"]
    metrics = {
        "web.transport_ms_p50": percentile(
            [self_s(s) * 1e3 for s in predicts], 0.50
        ),
        "web.handle_ms_p50": percentile(
            [dur(handle[s["rid"]]) * 1e3 for s in predicts if s["rid"] in handle], 0.50
        ),
        "web.json_ms_p50": percentile(
            [per_request_json.get(s["rid"], 0.0) * 1e3 for s in predicts], 0.50
        ),
        "server.handler_self_ms_p50": percentile(
            [self_s(handle[s["rid"]]) * 1e3 for s in predicts if s["rid"] in handle], 0.50
        ),
        "framework.predict_ms_p50": p50("framework.predict", 1e3),
        "framework.predict_self_ms_p50": percentile(
            [self_s(s) * 1e3 for s in named("framework.predict")], 0.50
        ),
        "framework.memo_hit_frac": 1.0 - encoded_in_predict / predicted if predicted else 0.0,
        "framework.infer_us_per_job": total("framework.predict", 1e6) / predicted if predicted else 0.0,
        "framework.train_self_s_p50": percentile(
            [self_s(s) for s in named("framework.train")], 0.50
        ),
        "encoder.feature_string_us": tally_s / tally_n * 1e6 if tally_n else 0.0,
        "encoder.strings_from_result_ms": total("encoder.strings_from_result", 1e3),
        "embed.encode_ms": total("embed.encode", 1e3),
        "embed.strings": count("embed.encode"),
        "model.inference_ms_p50": p50("model.inference", 1e3),
        "model.inference_rows": count("model.inference"),
        "model.training_s_p50": p50("model.training"),
        "model.training_rows": count("model.training"),
        "fetch.batches_ms": total("fetch.batches", 1e3),
        "fetch.rows": count("fetch.batches"),
        "characterize.labels_ms": total("characterize.labels", 1e3),
        "store.publish_s_p50": p50("store.publish"),
        "store.bytes_per_publish": finish["store_bytes"] / versions if versions else 0.0,
        "store.publishes": count("store.publish"),
        "trace.coverage_frac": sum(layers.values()) / measured if measured else 0.0,
        "trace.overhead_frac": passes[-1].wall_s / passes[0].wall_s - 1.0,
        "trace.spans": len(spans_all),
    }
    return metrics, layers, bad, measured


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="fraction of the paper's trace (default 1/60)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: the program's sources (src/repro) are missing", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import DEFAULT_SCALE, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _abort)
    signal.signal(signal.SIGTERM, _abort)
    signal.alarm(DEADLINE_S)
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    bench = None
    try:
        bench = Bench(args.workload, args.seed, args.scale or DEFAULT_SCALE, tmp)
        setups, passes, finish = run_passes(bench, args.seconds, bool(args.trace))
        failed = sum(p.failed for p in passes)
        attempted = sum(p.attempted for p in passes)
        first = passes[0].labels
        failed += sum(p.labels != first for p in passes[1:])
        failed += bench.inprocess_mismatches(passes[-1])
        if args.trace:
            metrics, layers, bad, measured = per_layer(passes, finish)
            failed += bad
            print(f"{'layer':<14}{'self s':>10}{'share':>8}")
            for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
                print(f"{layer:<14}{seconds:>10.3f}{seconds / measured:>8.1%}")
            print(f"measured {measured:.3f} s  "
                  f"coverage {metrics['trace.coverage_frac']:.1%}  "
                  f"overhead {metrics['trace.overhead_frac']:+.1%}  "
                  f"spans {metrics['trace.spans']}")
            units = PER_LAYER
        else:
            metrics = end_to_end(bench, setups, passes)
            predict_ms = [v for p in passes for v in p.predict_ms]
            jobs_per_s = sum(len(p.labels) for p in passes) / sum(
                p.predict_busy_s for p in passes
            )
            print(f"{args.workload}: {len(passes)} pass(es), {len(setups)} set-ups, "
                  f"{sum(len(p.train_s) for p in passes)} trains, {len(predict_ms)} "
                  f"predicts (p99 {percentile(predict_ms, 0.99):.2f} ms, "
                  f"{jobs_per_s:.0f} jobs/s)")
            units = END_TO_END
    finally:
        signal.alarm(0)
        if bench is not None:
            bench.close()
        shutil.rmtree(tmp, ignore_errors=True)
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
