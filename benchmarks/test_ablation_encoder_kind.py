"""Ablation — NLP sentence embedding vs classical categorical mapping.

The paper's Feature Encoder section (§III-B) names "classical categorical
mapping of feature values to integers" as the alternative its design
rejects in favour of SBERT.  This ablation quantifies why on a drifting
workload: the categorical encoder cannot place *unseen* feature values
(new job templates appear daily), while the hashed n-gram embedding
generalizes through string similarity.
"""

import numpy as np

from repro.core.categorical_encoder import CategoricalEncoder
from repro.core.feature_encoder import FeatureEncoder
from repro.evaluation.reporting import format_table
from repro.fugaku.workload import DAY_SECONDS
from repro.mlcore.knn import KNeighborsClassifier
from repro.mlcore.metrics import f1_macro
from repro.nlp.embedder import SentenceEmbedder


def test_ablation_encoder_kind(benchmark, trace, labels):
    train_mask = (trace["submit_time"] >= 32 * DAY_SECONDS) & (
        trace["submit_time"] < 62 * DAY_SECONDS
    )
    test_mask = (trace["submit_time"] >= 62 * DAY_SECONDS) & (
        trace["submit_time"] < 66 * DAY_SECONDS
    )
    train, test = trace.select(train_mask), trace.select(test_mask)
    y_train, y_test = labels[train_mask], labels[test_mask]
    train_records = [r.as_dict() for r in train.iter_rows()]
    test_records = [r.as_dict() for r in test.iter_rows()]

    results = {}

    nlp = FeatureEncoder(embedder=SentenceEmbedder(dim=384))
    Xtr, Xte = nlp.encode_trace(train), nlp.encode_trace(test)
    knn = KNeighborsClassifier(5).fit(Xtr, y_train)
    results["NLP embedding (paper)"] = f1_macro(y_test, knn.predict(Xte))

    for mode in ("ordinal", "onehot"):
        cat = CategoricalEncoder(mode=mode).fit(train_records)
        Xtr_c = cat.encode(train_records).astype(np.float64)
        Xte_c = cat.encode(test_records).astype(np.float64)
        knn_c = KNeighborsClassifier(5).fit(Xtr_c, y_train)
        results[f"categorical {mode}"] = f1_macro(y_test, knn_c.predict(Xte_c))

    unknown = CategoricalEncoder().fit(train_records).unknown_rate(test_records)

    print()
    print(format_table(
        ["encoder", "4-day F1 (KNN)"],
        [[k, round(v, 4)] for k, v in results.items()],
        title="Ablation: encoder kind (SBERT role vs categorical mapping)",
    ))
    print(f"unseen feature values in the test window: {unknown:.1%}")

    # new templates do appear in the test window...
    assert unknown > 0.0
    # ...and the NLP encoding handles them at least as well as categorical
    assert results["NLP embedding (paper)"] >= max(
        results["categorical ordinal"], results["categorical onehot"]
    ) - 0.01

    benchmark(nlp.encode_trace, test)
