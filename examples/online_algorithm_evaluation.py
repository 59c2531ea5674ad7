"""Evaluate the online prediction algorithm (paper artifact A3, compact).

Runs a reduced version of the §V experiments: trains KNN and RF online
over February with a couple of (α, β) settings, compares them to the
(job name, #cores) lookup baseline, and reports macro-F1 plus the
training/inference runtimes of Figs. 7-8.

The full-grid reproduction of every figure lives in benchmarks/; this
example finishes in about a minute.

Run:  python examples/online_algorithm_evaluation.py
"""

from repro.evaluation import ModelSpec, OnlineEvaluator, format_table
from repro.fugaku import generate_trace


def main() -> None:
    trace = generate_trace(scale=1 / 200, seed=42)
    print(f"trace: {len(trace):,} jobs; test period: February (days 62-91)")
    evaluator = OnlineEvaluator(trace)
    print(f"encoding cost: {1e3 * evaluator.encode_time_per_job:.3f} ms/job "
          "(cached across retraining triggers, as in §V-A)\n")

    specs = [
        ModelSpec("KNN", "KNN", {"n_neighbors": 5}),
        ModelSpec("RF", "RF", {"n_estimators": 15, "max_depth": 12,
                               "splitter": "hist", "random_state": 0}),
    ]

    rows = []
    for spec in specs:
        for alpha, beta in ((spec.best_alpha, 1), (spec.best_alpha, 5)):
            r = evaluator.evaluate(
                spec.algorithm, spec.params, alpha=alpha, beta=beta,
                model_name=spec.name,
            )
            rows.append([
                spec.name, alpha, beta, round(r.f1, 3),
                f"{r.mean_train_time:.3f}s",
                f"{1e3 * r.mean_inference_time_per_job:.2f}ms",
                r.n_retrainings,
            ])

    base = evaluator.evaluate_baseline(alpha=30, beta=1)
    rows.append(["baseline", 30, 1, round(base.f1, 3),
                 f"{base.mean_train_time:.3f}s", "-", base.n_retrainings])

    print(format_table(
        ["model", "alpha", "beta", "F1", "train/trigger", "infer/job", "retrains"],
        rows,
        title="Online prediction algorithm (February test month)",
    ))
    print("\npaper reference: F1=0.90 (RF, a=15), 0.89 (KNN, a=30), 0.83 (baseline)")


if __name__ == "__main__":
    main()
