"""Tests for the Feature Encoder component (§III-B)."""

import numpy as np
import pytest

from repro.core.config import DEFAULT_FEATURE_SET
from repro.core.feature_encoder import FeatureEncoder
from repro.nlp.embedder import SentenceEmbedder


RECORD = {
    "user_name": "riken-ra0042",
    "job_name": "run_cavity.sh",
    "cores_req": 192,
    "nodes_req": 4,
    "environment": "gcc-12.2/openmpi",
    "freq_req_ghz": 2.0,
    "duration": 99.0,  # extra fields are ignored
}


class TestFeatureString:
    def test_selected_and_ordered(self):
        enc = FeatureEncoder()
        s = enc.feature_string(RECORD)
        assert s == "riken-ra0042,run_cavity.sh,192,4,gcc-12.2/openmpi,2"

    def test_frequency_distinguishes_modes(self):
        enc = FeatureEncoder()
        a = enc.feature_string({**RECORD, "freq_req_ghz": 2.0})
        b = enc.feature_string({**RECORD, "freq_req_ghz": 2.2})
        assert a != b

    def test_custom_feature_set(self):
        enc = FeatureEncoder(feature_set=("job_name", "cores_req"))
        assert enc.feature_string(RECORD) == "run_cavity.sh,192"

    def test_missing_feature_raises(self):
        enc = FeatureEncoder()
        with pytest.raises(KeyError, match="job_name"):
            enc.feature_string({"user_name": "x"})

    def test_empty_feature_set_rejected(self):
        with pytest.raises(ValueError):
            FeatureEncoder(feature_set=())

    def test_default_feature_set_is_papers(self):
        # §V-A: the feature set of [4] + frequency requested
        assert DEFAULT_FEATURE_SET == (
            "user_name", "job_name", "cores_req", "nodes_req",
            "environment", "freq_req_ghz",
        )


class TestEncode:
    def test_shape_and_dtype(self):
        enc = FeatureEncoder()
        X = enc.encode([RECORD, RECORD])
        assert X.shape == (2, 384)
        assert X.dtype == np.float32

    def test_identical_records_identical_rows(self):
        enc = FeatureEncoder()
        X = enc.encode([RECORD, dict(RECORD)])
        assert np.array_equal(X[0], X[1])

    def test_empty_input(self):
        enc = FeatureEncoder()
        assert enc.encode([]).shape == (0, 384)

    def test_custom_embedder_dim(self):
        enc = FeatureEncoder(embedder=SentenceEmbedder(dim=64))
        assert enc.dim == 64
        assert enc.encode([RECORD]).shape == (1, 64)


class TestEncodeTrace:
    def test_matches_record_path(self, tiny_trace):
        enc = FeatureEncoder()
        sub = tiny_trace.select(np.arange(20))
        X_trace = enc.encode_trace(sub)
        X_records = enc.encode([r.as_dict() for r in sub.iter_rows()])
        assert np.allclose(X_trace, X_records)

    def test_strings_match_row_construction(self, tiny_trace):
        enc = FeatureEncoder()
        sub = tiny_trace.select(np.arange(10))
        strings = enc.feature_strings_from_trace(sub)
        for i, r in enumerate(sub.iter_rows()):
            assert strings[i] == enc.feature_string(r.as_dict())

    def test_missing_column_raises(self, tiny_trace):
        enc = FeatureEncoder(feature_set=("no_such_column",))
        with pytest.raises(KeyError):
            enc.encode_trace(tiny_trace)


class TestIDFIntegration:
    def test_partial_fit_changes_encodings(self):
        enc = FeatureEncoder(embedder=SentenceEmbedder(dim=64, use_idf=True))
        before = enc.encode([RECORD]).copy()
        batch = [RECORD] * 30 + [{**RECORD, "job_name": "rare.sh"}]
        enc.embedder.partial_fit_idf([enc.feature_string(r) for r in batch])
        after = enc.encode([RECORD])
        assert not np.allclose(before, after)
