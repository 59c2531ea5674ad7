"""Ablation — the encoder feature set (§V-A).

The paper starts from the feature set of Antici et al. [4] (user name,
job name, #cores, #nodes, environment) and finds that adding *frequency
requested* improves the prediction.  This ablation reproduces that
comparison, plus a minimal (job name only) variant.
"""

import numpy as np

from repro.core.config import DEFAULT_FEATURE_SET
from repro.core.feature_encoder import FeatureEncoder
from repro.evaluation.reporting import format_table
from repro.fugaku.workload import DAY_SECONDS
from repro.mlcore.knn import KNeighborsClassifier
from repro.mlcore.metrics import f1_macro
from repro.nlp.embedder import SentenceEmbedder

FEATURE_SETS = {
    "job name only": ("job_name",),
    "Antici et al. [4]": ("user_name", "job_name", "cores_req", "nodes_req", "environment"),
    "[4] + frequency (paper)": DEFAULT_FEATURE_SET,
}


def test_ablation_feature_sets(benchmark, trace, labels):
    train_mask = (trace["submit_time"] >= 32 * DAY_SECONDS) & (
        trace["submit_time"] < 62 * DAY_SECONDS
    )
    test_mask = (trace["submit_time"] >= 62 * DAY_SECONDS) & (
        trace["submit_time"] < 65 * DAY_SECONDS
    )
    train, test = trace.select(train_mask), trace.select(test_mask)
    y_train, y_test = labels[train_mask], labels[test_mask]

    rows, scores = [], {}
    for name, features in FEATURE_SETS.items():
        encoder = FeatureEncoder(
            feature_set=features, embedder=SentenceEmbedder(dim=384)
        )
        Xtr = encoder.encode_trace(train)
        Xte = encoder.encode_trace(test)
        knn = KNeighborsClassifier(5).fit(Xtr, y_train)
        f1 = f1_macro(y_test, knn.predict(Xte))
        scores[name] = f1
        rows.append([name, len(features), round(f1, 4)])

    print()
    print(format_table(
        ["feature set", "#features", "3-day F1 (KNN)"],
        rows,
        title="Ablation: encoder feature set",
    ))

    # richer submission metadata helps: the full set beats job-name-only
    assert scores["[4] + frequency (paper)"] > scores["job name only"]
    # and the paper's augmented set is at least as good as [4]'s
    assert scores["[4] + frequency (paper)"] >= scores["Antici et al. [4]"] - 0.01

    encoder = FeatureEncoder(embedder=SentenceEmbedder(dim=384, cache_size=0))
    sample = trace.select(np.arange(min(300, len(trace))))
    benchmark(encoder.encode_trace, sample)
