"""Command-line interface for the reproduction.

Four subcommands mirror the repository's workflows:

- ``generate``      build a synthetic Fugaku trace and save it to disk;
- ``characterize``  label a saved trace and print the §IV analysis summary;
- ``evaluate``      run the online prediction algorithm on a saved trace;
- ``serve``         deploy the HTTP backend on a saved (or fresh) trace.

Entry point: ``python -m repro.cli <subcommand> ...`` (or call
:func:`main` with an argv list).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MCBound reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic Fugaku trace")
    g.add_argument("output", help="output path prefix (writes <p>.npz + <p>.strings.json)")
    g.add_argument("--scale", type=float, default=1 / 200,
                   help="fraction of the paper's 2.2M jobs (default 1/200)")
    g.add_argument("--seed", type=int, default=2024)

    c = sub.add_parser("characterize", help="label a trace and summarize it")
    c.add_argument("trace", help="trace path prefix from 'generate'")

    e = sub.add_parser("evaluate", help="run the online prediction algorithm")
    e.add_argument("trace", help="trace path prefix from 'generate'")
    e.add_argument("--algorithm", choices=("KNN", "RF"), default="RF")
    e.add_argument("--alpha", type=float, default=None,
                   help="training window in days (default: the model's best)")
    e.add_argument("--beta", type=float, default=1.0, help="retraining period in days")
    e.add_argument("--trees", type=int, default=15, help="RF size")

    s = sub.add_parser("serve", help="deploy the HTTP backend")
    s.add_argument("--trace", default=None, help="trace path prefix (default: generate fresh)")
    s.add_argument("--scale", type=float, default=1 / 400)
    s.add_argument("--port", type=int, default=8080)
    s.add_argument("--train-at-day", type=float, default=62.0,
                   help="day index of the initial Training Workflow trigger")
    s.add_argument("--smoke", action="store_true",
                   help="train, probe the API once, then exit (used by tests)")
    return parser


def _load_trace(path: str):
    from repro.fugaku.trace import JobTrace

    return JobTrace.load(path)


def _cmd_generate(args) -> int:
    from repro.fugaku import generate_trace

    trace = generate_trace(scale=args.scale, seed=args.seed)
    trace.save(args.output)
    print(f"wrote {len(trace):,} jobs to {args.output}.npz")
    return 0


def _cmd_characterize(args) -> int:
    from repro.analysis import table2_distribution
    from repro.core import JobCharacterizer
    from repro.evaluation.reporting import format_table

    trace = _load_trace(args.trace)
    characterizer = JobCharacterizer()
    labels = characterizer.labels_from_trace(trace)
    t2 = table2_distribution(trace, labels)
    print(f"{len(trace):,} jobs, ridge point {characterizer.ridge_point:.2f} Flops/Byte")
    print(format_table(
        ["Frequency", "memory-bound", "compute-bound", "Total"],
        t2.rows(), title="Distribution of job types",
    ))
    print(f"memory:compute ratio = {t2.memory_to_compute_ratio:.2f}")
    return 0


def _cmd_evaluate(args) -> int:
    from repro.evaluation import ModelSpec, OnlineEvaluator

    trace = _load_trace(args.trace)
    evaluator = OnlineEvaluator(trace)
    if args.algorithm == "KNN":
        spec = ModelSpec("KNN", "KNN", {"n_neighbors": 5})
    else:
        spec = ModelSpec("RF", "RF", {
            "n_estimators": args.trees, "max_depth": 16,
            "splitter": "hist", "random_state": 0,
        })
    alpha = args.alpha if args.alpha is not None else spec.best_alpha
    result = evaluator.evaluate(
        spec.algorithm, spec.params, alpha=alpha, beta=args.beta, model_name=spec.name,
    )
    print(f"{spec.name} alpha={alpha:g} beta={args.beta:g}: "
          f"F1={result.f1:.4f} accuracy={result.accuracy:.4f} "
          f"({result.n_test_jobs:,} test jobs, {result.n_retrainings} retrainings)")
    print(f"mean training time : {result.mean_train_time:.3f} s/trigger")
    print(f"mean inference time: {result.mean_inference_time_per_job * 1e3:.3f} ms/job")
    return 0


def _cmd_serve(args) -> int:
    import json
    import urllib.request

    from repro.core import MCBound, MCBoundConfig, build_app, load_trace_into_db
    from repro.fugaku import generate_trace
    from repro.fugaku.workload import DAY_SECONDS
    from repro.web import serve

    trace = _load_trace(args.trace) if args.trace else generate_trace(scale=args.scale)
    framework = MCBound(
        MCBoundConfig(
            algorithm="KNN",
            model_params={"n_neighbors": 5},
            alpha_days=30.0,
        ),
        load_trace_into_db(trace),
    )
    handle = serve(build_app(framework), port=args.port if not args.smoke else 0)
    print(f"listening on {handle.url}")

    now = args.train_at_day * DAY_SECONDS
    req = urllib.request.Request(
        f"{handle.url}/train",
        data=json.dumps({"now": now}).encode(),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=60) as resp:
        summary = json.loads(resp.read())
    print(f"trained on {summary['n_jobs']:,} jobs")

    if args.smoke:
        with urllib.request.urlopen(f"{handle.url}/health", timeout=10) as resp:
            print(resp.read().decode())
        handle.stop()
        return 0

    try:  # pragma: no cover - interactive path
        import time

        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        handle.stop()
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "generate": _cmd_generate,
        "characterize": _cmd_characterize,
        "evaluate": _cmd_evaluate,
        "serve": _cmd_serve,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
