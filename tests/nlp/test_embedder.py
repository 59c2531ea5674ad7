"""Tests for the hashed sentence embedder (SBERT substitute)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlp.embedder import SentenceEmbedder

_safe_text = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd", "Po"), max_codepoint=0x7F),
    min_size=0,
    max_size=40,
)


class TestShapeAndNorm:
    def test_default_dim_matches_sbert(self):
        e = SentenceEmbedder()
        assert e.encode("hello").shape == (384,)

    def test_batch_shape(self):
        e = SentenceEmbedder(dim=64)
        out = e.encode(["a", "b", "c"])
        assert out.shape == (3, 64)
        assert out.dtype == np.float32

    def test_unit_norm(self):
        e = SentenceEmbedder(dim=128)
        v = e.encode("riken-ra0042,run_cavity.sh,48,1,env,2.0")
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-5)

    def test_empty_string_has_canonical_vector(self):
        e = SentenceEmbedder(dim=32)
        v = e.encode("")
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-6)

    def test_empty_batch(self):
        e = SentenceEmbedder(dim=32)
        assert e.encode([]).shape == (0, 32)

    def test_non_string_rejected(self):
        with pytest.raises(TypeError):
            SentenceEmbedder(dim=32).encode([1])

    @given(_safe_text)
    @settings(max_examples=100, deadline=None)
    def test_norm_property(self, text):
        v = SentenceEmbedder(dim=64, cache_size=0).encode(text)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-4)


class TestDeterminism:
    def test_same_config_same_vectors(self):
        a = SentenceEmbedder(dim=96, seed=3).encode("x,y,z")
        b = SentenceEmbedder(dim=96, seed=3).encode("x,y,z")
        assert np.array_equal(a, b)

    def test_seed_changes_projection(self):
        a = SentenceEmbedder(dim=96, seed=3).encode("x,y,z")
        b = SentenceEmbedder(dim=96, seed=4).encode("x,y,z")
        assert not np.allclose(a, b)

    def test_cache_does_not_change_values(self):
        e1 = SentenceEmbedder(dim=96, cache_size=1000)
        e2 = SentenceEmbedder(dim=96, cache_size=0)
        texts = ["a,b", "a,b", "c,d"]
        assert np.allclose(e1.encode(texts), e2.encode(texts))


class TestLocality:
    """The property KNN/RF rely on: similar strings => nearby vectors."""

    def test_similar_beats_dissimilar(self):
        e = SentenceEmbedder()
        a = e.encode("riken-ra0042,run_cavity_les012.sh,192,4,gcc/openmpi,2.0")
        b = e.encode("riken-ra0042,run_cavity_les013.sh,192,4,gcc/openmpi,2.0")
        c = e.encode("corp-hp9001,train_bert_07,3072,64,conda/pytorch,2.2")
        assert float(a @ b) > 0.8
        assert float(a @ b) > float(a @ c) + 0.3

    def test_identical_strings_identical_vectors(self):
        e = SentenceEmbedder()
        out = e.encode(["same,string"] * 2)
        assert np.array_equal(out[0], out[1])

    def test_shared_user_shares_similarity(self):
        e = SentenceEmbedder()
        a = e.encode("univ-gp1234,jobA,48,1,envX,2.0")
        b = e.encode("univ-gp1234,jobB,96,2,envY,2.2")
        c = e.encode("intl-ex9999,jobC,12,1,envZ,2.0")
        assert float(a @ b) > float(a @ c)


class TestCache:
    def test_cache_grows_and_hits(self):
        e = SentenceEmbedder(dim=32, cache_size=10)
        e.encode(["a", "b", "a"])
        assert e.cache_len == 2

    def test_cache_eviction_fifo(self):
        e = SentenceEmbedder(dim=32, cache_size=2)
        e.encode(["a", "b", "c"])
        assert e.cache_len == 2

    def test_clear_cache(self):
        e = SentenceEmbedder(dim=32)
        e.encode("a")
        e.clear_cache()
        assert e.cache_len == 0

    def test_cache_disabled(self):
        e = SentenceEmbedder(dim=32, cache_size=0)
        e.encode(["a", "a"])
        assert e.cache_len == 0


class TestPersistence:
    def test_config_roundtrip(self):
        e = SentenceEmbedder(dim=48, n_hashes=3, seed=9, ngram_range=(2, 3))
        e.encode(["a b c", "a d"])  # a warm cache is not configuration
        e2 = SentenceEmbedder(**e.config_dict())
        assert e2.config_dict() == e.config_dict()
        assert np.array_equal(e.encode("a b x"), e2.encode("a b x"))


class TestValidation:
    def test_bad_dim(self):
        with pytest.raises(ValueError):
            SentenceEmbedder(dim=1)

    def test_bad_hashes(self):
        with pytest.raises(ValueError):
            SentenceEmbedder(n_hashes=0)

    def test_bad_cache(self):
        with pytest.raises(ValueError):
            SentenceEmbedder(cache_size=-1)
