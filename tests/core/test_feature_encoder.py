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


def _batch(rows):
    """A columnar ``ResultSet`` of default-feature rows, typed as the jobs
    table stores them."""
    from repro.storage.engine import ResultSet

    dtypes = {"cores_req": np.int64, "nodes_req": np.int64, "freq_req_ghz": np.float64}
    return ResultSet(
        {
            f: np.array([r[f] for r in rows], dtype=dtypes.get(f, object))
            for f in DEFAULT_FEATURE_SET
        }
    )


class TestSubmissionIds:
    ROWS = [
        RECORD,
        {**RECORD, "freq_req_ghz": 2.2},
        RECORD,
        {**RECORD, "freq_req_ghz": 0.0},
        {**RECORD, "freq_req_ghz": -0.0},
        {**RECORD, "freq_req_ghz": float("nan")},
        {**RECORD, "freq_req_ghz": 2.2},
        {**RECORD, "freq_req_ghz": -0.0},
        {**RECORD, "freq_req_ghz": float("nan")},
        {**RECORD, "cores_req": 48},
        RECORD,
    ]

    def test_expansion_is_the_feature_string_of_every_row(self):
        enc = FeatureEncoder()
        batch = _batch(self.ROWS)
        ids, strings = enc.submission_ids(batch, {})
        expanded = [strings[i] for i in ids.tolist()]
        assert expanded == enc.feature_strings_from_result(batch)
        assert expanded == [enc.feature_string(r) for r in self.ROWS]
        # the keys are exact: 0.0 and -0.0 print differently, so they are
        # two submissions although they compare equal as numbers
        assert expanded[3].endswith(",0") and expanded[4].endswith(",-0")
        assert ids[3] != ids[4] and ids[4] == ids[7]
        assert ids[0] == ids[2] == ids[10] and ids[1] == ids[6]

    def test_ids_are_numbered_in_first_seen_order(self):
        enc = FeatureEncoder()
        known = {}
        ids, strings = enc.submission_ids(_batch(self.ROWS), known)
        seen = []
        for i in ids.tolist():
            if i not in seen:
                assert i == len(seen)
                seen.append(i)
        assert len(strings) == len(seen) == len(known)
        assert sorted(known.values()) == seen

    def test_ids_of_an_earlier_batch_are_reused(self):
        enc = FeatureEncoder()
        known = {}
        first, first_strings = enc.submission_ids(_batch(self.ROWS[:5]), known)
        held = dict(known)
        later = [self.ROWS[4], {**RECORD, "job_name": "new.sh"}, self.ROWS[1], self.ROWS[5]]
        ids, strings = enc.submission_ids(_batch(later), known)
        assert ids[0] == first[4] and ids[2] == first[1]
        # only the new submissions are formatted, numbered on from the map
        assert ids[1] == len(held) and ids[3] == len(held) + 1
        assert strings == [enc.feature_string(later[1]), enc.feature_string(later[3])]
        assert {k: known[k] for k in held} == held
        # a caller that forgot some ids numbers the new ones past them
        ids, strings = enc.submission_ids(_batch(later[1:2]), {}, first_id=40)
        assert ids.tolist() == [40] and strings == [enc.feature_string(later[1])]

    def test_missing_column_raises(self):
        enc = FeatureEncoder(feature_set=("job_name", "no_such_column"))
        with pytest.raises(KeyError, match="no_such_column"):
            enc.submission_ids(_batch([RECORD]), {})
