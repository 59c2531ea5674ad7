"""Ablation — embedding dimensionality (96 / 192 / 384).

The paper uses the 384-d SBERT model; this ablation checks how much of
the prediction quality survives with narrower hashed embeddings (and what
encoding costs).
"""

import numpy as np

from repro.core.feature_encoder import FeatureEncoder
from repro.evaluation.reporting import format_table
from repro.evaluation.timing import time_call
from repro.fugaku.workload import DAY_SECONDS
from repro.mlcore.knn import KNeighborsClassifier
from repro.mlcore.metrics import f1_macro
from repro.nlp.embedder import SentenceEmbedder


def test_ablation_embedding_dim(benchmark, trace, labels, evaluator):
    # one train window + one test day, re-encoded at each width
    train_mask = (trace["submit_time"] >= 32 * DAY_SECONDS) & (
        trace["submit_time"] < 62 * DAY_SECONDS
    )
    test_mask = (trace["submit_time"] >= 62 * DAY_SECONDS) & (
        trace["submit_time"] < 63 * DAY_SECONDS
    )
    train = trace.select(train_mask)
    test = trace.select(test_mask)
    y_train = labels[train_mask]
    y_test = labels[test_mask]

    rows = []
    scores = {}
    for dim in (96, 192, 384):
        encoder = FeatureEncoder(embedder=SentenceEmbedder(dim=dim, cache_size=0))
        Xtr, t_enc = time_call(encoder.encode_trace, train)
        Xte = encoder.encode_trace(test)
        knn = KNeighborsClassifier(5).fit(Xtr, y_train)
        f1 = f1_macro(y_test, knn.predict(Xte))
        scores[dim] = f1
        rows.append([dim, round(f1, 4), f"{t_enc / len(train) * 1e6:.0f} us/job"])

    print()
    print(format_table(
        ["dim", "day-1 F1 (KNN)", "encode cost"],
        rows,
        title="Ablation: embedding dimensionality",
    ))

    # the paper's 384-d width should not trail far behind any narrower one
    assert scores[384] >= max(scores.values()) - 0.03
    # narrower widths lose accuracy to hash collisions, but degrade
    # gracefully rather than collapsing
    assert scores[192] > scores[384] - 0.12
    assert scores[96] > 0.55
    assert scores[96] <= scores[192] + 0.02 <= scores[384] + 0.04

    encoder = FeatureEncoder(embedder=SentenceEmbedder(dim=384, cache_size=0))
    sample = trace.select(np.arange(min(500, len(trace))))
    benchmark(encoder.encode_trace, sample)
